"""Parser oracle: the first release's SMILES lexer and parser, kept apart
from the package so the one-regex lexer and one-loop parser in
``chemtext.smiles`` can be checked against them.

The tokenizer loop, ``_PendingBond``, ``_Parser``, ``_parse_bracket`` and
``ring_label`` are copied unchanged from the release before the rewrite
(with the token types and tables they read). The oracle imports only the
graph types and error classes from the package, which
``test_oracle_parses_with_its_own_copies`` checks. One known difference is
left in: ``_parse_bracket`` tests digits with ``str.isdigit``, which accepts
non-ASCII digits that the package now rejects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from chemtext.smiles import Atom, Bond, LexError, Molecule, ParseError

ORGANIC_ONE_LETTER = frozenset("BCNOPSFI")
ORGANIC_TWO_LETTER = ("Cl", "Br")
AROMATIC_ORGANIC = frozenset("bcnops")
BOND_CHARS = frozenset("-=#:/\\")


class TokenKind(enum.Enum):
    ATOM_ORGANIC = "atom-organic"
    ATOM_BRACKET = "atom-bracket"
    BOND = "bond"
    RING_CLOSURE = "ring-closure"
    BRANCH_OPEN = "branch-open"
    BRANCH_CLOSE = "branch-close"
    DOT = "dot"


@dataclass(frozen=True)
class Token:
    """One lexical token.

    ``text`` is the exact matched substring, so concatenating ``text`` over a
    token sequence reproduces the input. ``position`` is the 0-based offset of
    the first character.
    """

    kind: TokenKind
    text: str
    position: int


def tokenize(smiles: str) -> list[Token]:
    """Tokenize a SMILES string.

    Raises:
        LexError: on a character outside the SMILES alphabet or an
            unterminated bracket atom. The reported position always lies
            inside the input string.
    """
    tokens: list[Token] = []
    i = 0
    n = len(smiles)
    while i < n:
        ch = smiles[i]
        if ch == "[":
            end = smiles.find("]", i + 1)
            if end < 0:
                raise LexError("unterminated bracket atom", i)
            tokens.append(Token(TokenKind.ATOM_BRACKET, smiles[i : end + 1], i))
            i = end + 1
        elif smiles[i : i + 2] in ORGANIC_TWO_LETTER:
            tokens.append(Token(TokenKind.ATOM_ORGANIC, smiles[i : i + 2], i))
            i += 2
        elif ch in ORGANIC_ONE_LETTER or ch in AROMATIC_ORGANIC:
            tokens.append(Token(TokenKind.ATOM_ORGANIC, ch, i))
            i += 1
        elif ch in BOND_CHARS:
            tokens.append(Token(TokenKind.BOND, ch, i))
            i += 1
        elif ch.isdigit() and ch.isascii():
            tokens.append(Token(TokenKind.RING_CLOSURE, ch, i))
            i += 1
        elif ch == "%":
            pair = smiles[i + 1 : i + 3]
            if len(pair) != 2 or not (pair.isdigit() and pair.isascii()):
                raise LexError("expected two digits after '%'", i)
            tokens.append(Token(TokenKind.RING_CLOSURE, smiles[i : i + 3], i))
            i += 3
        elif ch == "(":
            tokens.append(Token(TokenKind.BRANCH_OPEN, ch, i))
            i += 1
        elif ch == ")":
            tokens.append(Token(TokenKind.BRANCH_CLOSE, ch, i))
            i += 1
        elif ch == ".":
            tokens.append(Token(TokenKind.DOT, ch, i))
            i += 1
        else:
            raise LexError(f"character {ch!r} outside the SMILES alphabet", i)
    return tokens


def ring_label(token: Token) -> int:
    """Numeric label of a ring-closure token (``7`` -> 7, ``%12`` -> 12)."""
    if token.kind is not TokenKind.RING_CLOSURE:
        raise ValueError(f"not a ring-closure token: {token!r}")
    text = token.text
    return int(text[1:]) if text.startswith("%") else int(text)


# Lowercase symbols allowed as aromatic atoms inside brackets.
AROMATIC_BRACKET = frozenset({"b", "c", "n", "o", "p", "s", "se", "as"})

BOND_ORDER = {"-": 1, "=": 2, "#": 3}


_ORGANIC_ATOMS = {
    **{text: Atom(text) for text in (*ORGANIC_ONE_LETTER, *ORGANIC_TWO_LETTER)},
    **{text: Atom(text.upper(), aromatic=True) for text in AROMATIC_ORGANIC},
}


@dataclass
class _PendingBond:
    order: int | None = None
    aromatic: bool | None = None  # True only for an explicit ':'
    stereo: str | None = None


class _Parser:
    def __init__(self, tokens: Sequence[Token]) -> None:
        self.tokens = tokens
        self.atoms: list[Atom] = []
        self.bonds: list[Bond] = []
        self.prev: int | None = None
        self.pending: _PendingBond | None = None
        self.branch_stack: list[int] = []
        # label -> (atom index, pending bond at the opening site)
        self.open_rings: dict[int, tuple[int, _PendingBond | None]] = {}

    def parse(self) -> Molecule:
        if not self.tokens:
            raise ParseError("empty SMILES")
        for token in self.tokens:
            kind = token.kind
            if kind in (TokenKind.ATOM_ORGANIC, TokenKind.ATOM_BRACKET):
                self._on_atom(token)
            elif kind is TokenKind.BOND:
                self._on_bond(token)
            elif kind is TokenKind.RING_CLOSURE:
                self._on_ring(token)
            elif kind is TokenKind.BRANCH_OPEN:
                self._on_branch_open(token)
            elif kind is TokenKind.BRANCH_CLOSE:
                self._on_branch_close(token)
            else:
                self._on_dot(token)
        if self.pending is not None:
            raise ParseError("bond symbol with no following atom at end of input")
        if self.open_rings:
            labels = ", ".join(str(k) for k in sorted(self.open_rings))
            raise ParseError(f"unclosed ring label(s): {labels}")
        if self.branch_stack:
            raise ParseError("unclosed branch at end of input")
        if self.prev is None:
            raise ParseError("dangling dot at end of input")
        return Molecule(self.atoms, self.bonds)

    # -- token handlers -------------------------------------------------

    def _on_atom(self, token: Token) -> None:
        if token.kind is TokenKind.ATOM_ORGANIC:
            atom = _ORGANIC_ATOMS[token.text]
        else:
            atom = _parse_bracket(token)
        index = len(self.atoms)
        self.atoms.append(atom)
        if self.prev is not None:
            self._append_bond(self.prev, index, self.pending)
        self.pending = None
        self.prev = index

    def _on_bond(self, token: Token) -> None:
        if self.pending is not None:
            raise ParseError(f"two bond symbols in a row at position {token.position}")
        if self.prev is None:
            raise ParseError(f"bond symbol with no preceding atom at position {token.position}")
        ch = token.text
        if ch == ":":
            self.pending = _PendingBond(1, aromatic=True)
        elif ch in "/\\":
            self.pending = _PendingBond(1, stereo="up" if ch == "/" else "down")
        else:
            self.pending = _PendingBond(BOND_ORDER[ch])

    def _on_ring(self, token: Token) -> None:
        if self.prev is None:
            raise ParseError(f"ring closure with no preceding atom at position {token.position}")
        label = ring_label(token)
        if label in self.open_rings:
            other, opening = self.open_rings.pop(label)
            if other == self.prev:
                raise ParseError(f"ring label {label} closes onto its own atom")
            self._close_ring(other, self.prev, opening, self.pending, label)
        else:
            self.open_rings[label] = (self.prev, self.pending)
        self.pending = None

    def _close_ring(
        self,
        a: int,
        b: int,
        opening: _PendingBond | None,
        closing: _PendingBond | None,
        label: int,
    ) -> None:
        order_a = opening.order if opening else None
        order_b = closing.order if closing else None
        arom_a = opening.aromatic if opening else None
        arom_b = closing.aromatic if closing else None
        if order_a is not None and order_b is not None:
            same_arom = bool(arom_a) == bool(arom_b)
            if order_a != order_b or not same_arom:
                raise ParseError(f"conflicting bond symbols on ring label {label}")
        order = order_a if order_a is not None else order_b
        explicit_aromatic = bool(arom_a) or bool(arom_b)
        # Stereo is oriented from a to b. A marker written at the closing
        # site describes the b->a direction and is flipped.
        stereo_a = opening.stereo if opening else None
        stereo_b = closing.stereo if closing else None
        if stereo_b is not None:
            stereo_b = "down" if stereo_b == "up" else "up"
        if stereo_a is not None and stereo_b is not None and stereo_a != stereo_b:
            raise ParseError(f"conflicting stereo markers on ring label {label}")
        stereo = stereo_a if stereo_a is not None else stereo_b
        self._append_bond(a, b, _PendingBond(order, explicit_aromatic, stereo))

    def _append_bond(self, a: int, b: int, pending: _PendingBond | None) -> None:
        if pending is None or pending.order is None:
            # no bond symbol: single, aromatic between two aromatic atoms
            self.bonds.append(Bond(a, b, 1, self.atoms[a].aromatic and self.atoms[b].aromatic))
            return
        # the Molecule constructor checks the bonds (duplicates, aromatic ends, stereo)
        self.bonds.append(Bond(a, b, pending.order, bool(pending.aromatic), pending.stereo))

    def _on_branch_open(self, token: Token) -> None:
        if self.prev is None:
            raise ParseError(f"branch with no root atom at position {token.position}")
        if self.pending is not None:
            raise ParseError(f"bond symbol before branch at position {token.position}")
        self.branch_stack.append(self.prev)

    def _on_branch_close(self, token: Token) -> None:
        if not self.branch_stack:
            raise ParseError(f"unbalanced ')' at position {token.position}")
        if self.pending is not None:
            raise ParseError(f"dangling bond inside branch at position {token.position}")
        root = self.branch_stack.pop()
        if self.prev == root:
            raise ParseError(f"empty branch at position {token.position}")
        self.prev = root

    def _on_dot(self, token: Token) -> None:
        if self.branch_stack:
            raise ParseError(f"dot inside branch at position {token.position}")
        if self.pending is not None:
            raise ParseError(f"bond symbol before dot at position {token.position}")
        if self.prev is None:
            raise ParseError(f"dangling dot at position {token.position}")
        self.prev = None


def _parse_bracket(token: Token) -> Atom:
    inner = token.text[1:-1]
    pos = token.position
    i = 0
    n = len(inner)

    def fail(msg: str) -> ParseError:
        return ParseError(f"{msg} in bracket atom {token.text!r} at position {pos}")

    isotope: int | None = None
    start = i
    while i < n and inner[i].isdigit():
        i += 1
    if i > start:
        isotope = int(inner[start:i])

    aromatic = False
    if len(inner[i : i + 2]) == 2 and inner[i : i + 2] in ("se", "as"):
        symbol = inner[i : i + 2].capitalize()
        aromatic = True
        i += 2
    elif i < n and inner[i].islower():
        if inner[i] not in AROMATIC_BRACKET:
            raise fail(f"unknown aromatic symbol {inner[i]!r}")
        symbol = inner[i].upper()
        aromatic = True
        i += 1
    elif i < n and inner[i].isupper():
        symbol = inner[i]
        i += 1
        if i < n and inner[i].islower():
            symbol += inner[i]
            i += 1
    else:
        raise fail("expected element symbol")

    chirality: str | None = None
    if i < n and inner[i] == "@":
        i += 1
        if i < n and inner[i] == "@":
            chirality = "@@"
            i += 1
        else:
            chirality = "@"

    hydrogens = 0
    if i < n and inner[i] == "H":
        i += 1
        start = i
        while i < n and inner[i].isdigit():
            i += 1
        hydrogens = int(inner[start:i]) if i > start else 1

    charge = 0
    if i < n and inner[i] in "+-":
        sign = 1 if inner[i] == "+" else -1
        ch = inner[i]
        run = 0
        while i < n and inner[i] == ch:
            run += 1
            i += 1
        start = i
        while i < n and inner[i].isdigit():
            i += 1
        if i > start:
            if run > 1:
                raise fail("charge combines repeated signs with digits")
            charge = sign * int(inner[start:i])
        else:
            charge = sign * run

    if i < n and inner[i] == ":":
        # atom map label: accepted and ignored
        i += 1
        start = i
        while i < n and inner[i].isdigit():
            i += 1
        if i == start:
            raise fail("expected digits after ':'")

    if i != n:
        raise fail(f"unexpected {inner[i:]!r}")
    return Atom(
        symbol=symbol,
        aromatic=aromatic,
        charge=charge,
        isotope=isotope,
        hydrogens=hydrogens,
        chirality=chirality,
    )


def oracle_parse_smiles(smiles: str) -> Molecule:
    """Tokenize and parse as the first release did."""
    return _Parser(tokenize(smiles)).parse()
