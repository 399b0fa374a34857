"""SMILES parser: token texts to molecular graph.

One loop reads the texts of :func:`~chemtext.smiles.tokenize.tokenize`,
dispatches on each text's first character and resolves branches and ring
closures into an explicit atom/bond graph. ``Molecule(atoms, bonds)``, the
one constructor, checks the bonds and analyses each atom once: one bounded
memo, keyed on the atom's fields, bond-order total and degree, gives the
resolved atom (``hydrogens=None`` gets the valence-table default), its text
as the canonical writer writes it and its valence violation, so validity and
atom texts are recorded when a molecule is built. Atoms and bonds are frozen,
so the parser takes organic-subset atoms from a prebuilt table and each
bracket atom (by its token text) and each bond from a bounded memo, and
resolved atoms are shared across molecules.
Aromaticity is taken syntactically from lowercase notation; no ring
perception or kekulization. Imports run one way: tokenize, valence (the
tables and rules), this module, canon.

Bracket atoms support the standard field order
``[isotope? symbol chirality? Hcount? charge? :map?]``; atom maps are accepted
and ignored. One compiled ASCII regex reads a bracket's interior, every field
optional, and a malformed one is reported by the first faulty field in that
order. The element-symbol shape the regex reads, one upper-case letter and an
optional lower-case one, is also the one the constructor requires of an
atom's symbol, so every atom it accepts is written back as the same atom.

Ring-closure labels are reusable once closed, and closures may span ``.``
separators (so ``C1.C1`` parses to ethane written as two dot fragments). One
depth-first walk of the bonds, never the dots, gives each molecule's
components (so ethane is one component), its ring bonds and each atom's
ring-bond count, which canonicalization and key fingerprints read.

Bond stereo markers ``/`` and ``\\`` and the chirality tags ``@``/``@@`` are
preserved as annotations. A bond's ``stereo`` field is oriented: ``up`` means
the bond was written ``/`` when traversing from ``a`` to ``b``; the same bond
read in the other direction is ``down``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

from chemtext.errors import ChemtextError
from chemtext.smiles.tokenize import (
    AROMATIC_ORGANIC,
    ORGANIC_ONE_LETTER,
    ORGANIC_TWO_LETTER,
    LexError,
    tokenize,
)
from chemtext.smiles.valence import ValidityResult, hydrogens_for_total, valence_violation

# Lowercase symbols allowed as aromatic atoms inside brackets.
AROMATIC_BRACKET = frozenset({"b", "c", "n", "o", "p", "s", "se", "as"})

# Elements writable without brackets, per aromaticity.
_BARE_PLAIN = ORGANIC_ONE_LETTER.union(ORGANIC_TWO_LETTER)
_BARE_AROMATIC = frozenset(map(str.upper, AROMATIC_ORGANIC))

# The shape of an element symbol, as the parser reads it and as a
# Molecule's atoms must spell it; unknown elements are allowed.
_ELEMENT = re.compile("[A-Z][a-z]?")


class ParseError(ChemtextError):
    """Structurally invalid SMILES (unbalanced branches, bad rings, ...)."""


@dataclass(frozen=True)
class Atom:
    """One atom of the graph.

    ``hydrogens`` is the total hydrogen count: the explicit count for
    bracket atoms, or ``None`` for "the valence-table default", which the
    :class:`Molecule` constructor fills in. Inside a molecule it is always
    an int.
    """

    symbol: str
    aromatic: bool = False
    charge: int = 0
    isotope: int | None = None
    hydrogens: int | None = None
    chirality: str | None = None


@dataclass(frozen=True)
class Bond:
    """Bond between atom indices ``a`` and ``b``.

    ``order`` is 1, 2 or 3; aromatic bonds carry ``order == 1`` plus the
    ``aromatic`` flag. ``stereo`` is ``None``, ``"up"`` or ``"down"``,
    oriented from ``a`` to ``b``, and only a plain single bond carries one.
    """

    a: int
    b: int
    order: int = 1
    aromatic: bool = False
    stereo: str | None = None

    @property
    def symbol(self) -> str:
        """``:`` if aromatic, otherwise ``-``, ``=`` or ``#`` by order; path
        fingerprints and substructure keys read bonds by this symbol."""
        return ":" if self.aromatic else "-=#"[self.order - 1]


@dataclass(frozen=True)
class Molecule:
    """Immutable molecular graph, checked and analysed when built.

    Atoms and bonds may be any iterables and are stored as tuples. A bond
    that breaks a :class:`Bond` rule, joins an atom to itself or to a missing
    atom, repeats a pair, or is aromatic between atoms not both aromatic
    raises :class:`ParseError`, as does an atom whose charge is not an int,
    whose isotope or hydrogen count is neither ``None`` nor a non-negative
    int, whose symbol is not ASCII ``[A-Z][a-z]?`` (or, if aromatic, not B,
    C, N, O, P, S, Se or As), or whose chirality is not ``None``, ``@`` or
    ``@@``; bond endpoints and orders must be ints, and ``aromatic`` flags
    bools or the ints 0 and 1. ``hydrogens=None`` gets the valence-table default.
    Equality, hashing and ``repr`` read only ``atoms`` and ``bonds``; the
    other fields are facts recorded on the way, from one memo call per atom.
    Cached properties are worked out on first read; one graph walk gives
    :attr:`components`, :attr:`ring_bond_indices` and
    :attr:`ring_bond_counts`.
    """

    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]
    # per atom: tuple of (neighbor index, bond index) pairs
    adjacency: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    # per atom: its text as the canonical writer writes it, bare or bracketed
    atom_texts: tuple[str, ...] = field(init=False, repr=False, compare=False)
    # one reason per atom over its allowed valence; never raised
    validity: ValidityResult = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        atoms = tuple(self.atoms)
        bonds = tuple(self.bonds)
        n = len(atoms)
        seen_pairs: set[tuple[int, int]] = set()
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        totals = [0] * n
        for bi, bond in enumerate(bonds):
            a, b, order, aromatic = bond.a, bond.b, bond.order, bond.aromatic
            if type(a) is not int or type(b) is not int or not (0 <= a < n and 0 <= b < n):
                raise ParseError(f"bond endpoint out of range or not an int: {bond}")
            if a == b:
                raise ParseError(f"bond endpoints must be distinct: {bond}")
            pair = (a, b) if a < b else (b, a)
            if pair in seen_pairs:
                raise ParseError(f"duplicate bond between atoms {pair}")
            seen_pairs.add(pair)
            if type(order) is not int or order not in (1, 2, 3):
                raise ParseError(f"bond order must be 1, 2 or 3: {bond}")
            if type(aromatic) is not bool and (type(aromatic) is not int or aromatic not in (0, 1)):
                raise ParseError(f"bond aromatic flag must be a bool, 0 or 1: {bond}")
            if aromatic:
                if order != 1:
                    raise ParseError(f"aromatic bond must have order 1: {bond}")
                if not (atoms[a].aromatic and atoms[b].aromatic):
                    raise ParseError(f"aromatic bond between non-aromatic atoms {pair}")
            if bond.stereo is not None:
                if bond.stereo not in ("up", "down"):
                    raise ParseError(f"bond stereo must be None, 'up' or 'down': {bond}")
                if order != 1 or aromatic:
                    raise ParseError("stereo marker on a non-single bond")
            adj[a].append((b, bi))
            adj[b].append((a, bi))
            totals[a] += order
            totals[b] += order
        adjacency = tuple(map(tuple, adj))
        resolved: list[Atom] = []
        texts: list[str] = []
        reasons: list[str] = []
        for i, (atom, total, entries) in enumerate(zip(atoms, totals, adjacency)):
            aromatic, isotope, hydrogens = atom.aromatic, atom.isotope, atom.hydrogens
            if type(atom.charge) is not int:
                raise ParseError(f"atom charge must be an int: {atom}")
            if isotope is not None and (type(isotope) is not int or isotope < 0):
                raise ParseError(f"atom isotope must be None or a non-negative int: {atom}")
            if hydrogens is not None and (type(hydrogens) is not int or hydrogens < 0):
                raise ParseError(f"atom hydrogen count must be None or a non-negative int: {atom}")
            if type(aromatic) is not bool and (type(aromatic) is not int or aromatic not in (0, 1)):
                raise ParseError(f"atom aromatic flag must be a bool, 0 or 1: {atom}")
            if type(atom.symbol) is not str:
                raise ParseError(f"atom symbol must be a str: {atom}")
            if atom.chirality is not None and type(atom.chirality) is not str:
                raise ParseError(f"atom chirality must be None, '@' or '@@': {atom}")
            atom, text, violation = _analysed_atom(
                atom.symbol, aromatic, atom.charge, isotope, hydrogens, atom.chirality,
                total, len(entries),
            )
            resolved.append(atom)
            texts.append(text)
            if violation is not None:
                reasons.append(f"valence violation at atom {i} {violation}")
        set_field = object.__setattr__  # the dataclass is frozen
        set_field(self, "atoms", tuple(resolved))
        set_field(self, "bonds", bonds)
        set_field(self, "adjacency", adjacency)
        set_field(self, "atom_texts", tuple(texts))
        set_field(self, "validity", ValidityResult(tuple(reasons)) if reasons else _VALID)

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as ascending atom-index tuples, ordered by
        their smallest atom index. A ring bond that spans a dot joins its
        two sides into one component."""
        return self._walk[0]

    @cached_property
    def ring_bond_indices(self) -> frozenset[int]:
        """Indices of bonds that lie on a cycle (non-bridge edges)."""
        return self._walk[1]

    @cached_property
    def ring_bond_counts(self) -> tuple[int, ...]:
        """Per atom, how many of its bonds lie on a cycle; an atom is on a
        ring iff its count is positive."""
        return self._walk[2]

    @cached_property
    def _walk(self) -> tuple[tuple[tuple[int, ...], ...], frozenset[int], tuple[int, ...]]:
        """The three facts from Tarjan's iterative low-link bridge search: each
        root discovers its component, and a bond is on a ring iff no bridge."""
        adj = self.adjacency
        disc = [-1] * len(adj)  # discovery time, -1 until discovered
        low = [0] * len(adj)
        found: list[int] = []  # atoms in discovery order
        counts = list(map(len, adj))  # degrees until bridges are taken off
        bridges: set[int] = set()
        components: list[tuple[int, ...]] = []
        for root in range(len(adj)):
            if disc[root] >= 0:
                continue
            first = len(found)
            disc[root] = low[root] = first
            found.append(root)
            # per open atom: (atom, bond it was reached by, its unread entries)
            stack = [(root, -1, iter(adj[root]))]
            while stack:
                node, via_bond, entries = stack[-1]
                for nxt, bi in entries:
                    if bi == via_bond:
                        continue
                    if disc[nxt] < 0:
                        disc[nxt] = low[nxt] = len(found)
                        found.append(nxt)
                        stack.append((nxt, bi, iter(adj[nxt])))
                        break
                    if disc[nxt] < low[node]:
                        low[node] = disc[nxt]
                else:
                    stack.pop()
                    if stack:
                        parent = stack[-1][0]
                        if low[node] > disc[parent]:
                            bridges.add(via_bond)
                            counts[node] -= 1
                            counts[parent] -= 1
                        elif low[node] < low[parent]:
                            low[parent] = low[node]
            components.append(tuple(sorted(found[first:])))
        ring = frozenset(range(len(self.bonds))).difference(bridges)
        return tuple(components), ring, tuple(counts)


_VALID = ValidityResult()  # shared by every valid molecule


@lru_cache(maxsize=4096, typed=True)
def _analysed_atom(
    symbol: str, aromatic: bool, charge: int, isotope: int | None, hydrogens: int | None,
    chirality: str | None, total: int, degree: int,
) -> tuple[Atom, str, str | None]:
    """For an atom with these fields whose ``degree`` bonds' orders sum to
    ``total``: the atom with its hydrogen count resolved (``None`` gets the
    valence-table default), its text as the canonical writer writes it (bare
    when it can be and carries the default count, else bracketed), and its
    valence violation after "at atom i", or ``None``. Worked out once per
    distinct arguments; the memo keys on each argument's value and type, so
    an atom keeps the repr it was given: ``aromatic=0`` is not answered with
    ``False``. A symbol or chirality the writer could not write back
    raises :class:`ParseError`."""
    if not _ELEMENT.fullmatch(symbol):
        raise ParseError(f"atom symbol must be A-Z and an optional a-z: {symbol!r}")
    if aromatic and symbol.lower() not in AROMATIC_BRACKET:
        raise ParseError(f"aromatic atom symbol must be B, C, N, O, P, S, Se or As: {symbol!r}")
    if chirality not in (None, "@", "@@"):
        raise ParseError(f"atom chirality must be None, '@' or '@@': {chirality!r}")
    default = hydrogens_for_total(symbol, aromatic, total, degree)
    if hydrogens is None:
        hydrogens = default
    atom = Atom(symbol, aromatic, charge, isotope, hydrogens, chirality)
    violation = valence_violation(symbol, aromatic, charge, hydrogens, total, degree)
    written = symbol.lower() if aromatic else symbol
    bare = symbol in (_BARE_AROMATIC if aromatic else _BARE_PLAIN) and not charge
    if bare and isotope is None and chirality is None and hydrogens == default:
        return atom, written, violation
    h_text = "H" if hydrogens == 1 else f"H{hydrogens}" if hydrogens > 1 else ""
    charge_text = "" if charge == 0 else {1: "+", -1: "-"}.get(charge, f"{charge:+d}")
    isotope_text = "" if isotope is None else isotope
    return atom, f"[{isotope_text}{written}{chirality or ''}{h_text}{charge_text}]", violation


# Organic-subset atoms by token text; hydrogens stay None until the
# Molecule constructor resolves them.
_ORGANIC_ATOMS = {
    **{text: Atom(text) for text in (*ORGANIC_ONE_LETTER, *ORGANIC_TWO_LETTER)},
    **{text: Atom(text.upper(), aromatic=True) for text in AROMATIC_ORGANIC},
}

# A pending bond is (order, aromatic, stereo); aromatic is True only for an
# explicit ':'.
_Pending = tuple[int, bool, str | None]
_PENDING_BONDS: dict[str, _Pending] = {
    "-": (1, False, None),
    "=": (2, False, None),
    "#": (3, False, None),
    ":": (1, True, None),
    "/": (1, False, "up"),
    "\\": (1, False, "down"),
}

# str.isdigit would also accept non-ASCII digits, which int() then reads
_DIGITS = frozenset("0123456789")

# A bracket atom's interior, every field optional: isotope, symbol (an
# aromatic one is lower case), chirality, hydrogen count, charge (signs,
# then digits) and atom map. [0-9] and [A-Za-z] are ASCII only, where
# str.isdigit, \d and str.isalpha would read other scripts too.
_BRACKET_INTERIOR = re.compile(
    rf"([0-9]*)(se|as|[a-z]|{_ELEMENT.pattern})?(@@?)?(H[0-9]*)?(?:(\++|-+)([0-9]*))?(:[0-9]*)?"
)


@lru_cache(maxsize=4096, typed=True)
def _bond(a: int, b: int, order: int, aromatic: bool, stereo: str | None) -> Bond:
    """The bond with these fields, built once per distinct fields; the
    :class:`Molecule` constructor still checks it."""
    return Bond(a, b, order, aromatic, stereo)


def _parse(texts: Sequence[str]) -> Molecule:
    """The parse loop over token texts, which cover the input from offset
    0. An error position is worked out only when an error is raised."""

    def at(k: int) -> str:
        return f"at position {sum(map(len, texts[:k]))}"

    if not texts:
        raise ParseError("empty SMILES")
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    prev: int | None = None
    pending: _Pending | None = None
    branches: list[int] = []
    # ring label -> (atom index, pending bond at the opening site)
    rings: dict[int, tuple[int, _Pending | None]] = {}
    for k, text in enumerate(texts):
        atom = _ORGANIC_ATOMS.get(text)
        c = text[0]
        if atom is None and c == "[":
            try:
                atom = _bracket_atom(text)
            except ParseError as exc:
                raise ParseError(f"{exc} in bracket atom {text!r} {at(k)}") from None
        if atom is not None:
            index = len(atoms)
            atoms.append(atom)
            if prev is not None:
                if pending is None:
                    # no bond symbol: single, aromatic between two aromatic atoms
                    bonds.append(_bond(prev, index, 1, atoms[prev].aromatic and atom.aromatic, None))
                else:
                    bonds.append(_bond(prev, index, *pending))
            pending = None
            prev = index
        elif c in _PENDING_BONDS:
            if pending is not None:
                raise ParseError(f"two bond symbols in a row {at(k)}")
            if prev is None:
                raise ParseError(f"bond symbol with no preceding atom {at(k)}")
            pending = _PENDING_BONDS[c]
        elif c in _DIGITS or c == "%":
            if prev is None:
                raise ParseError(f"ring closure with no preceding atom {at(k)}")
            label = int(text[1:] if c == "%" else text)
            opened = rings.pop(label, None)
            if opened is None:
                rings[label] = (prev, pending)
            elif opened[0] == prev:
                raise ParseError(f"ring label {label} closes onto its own atom")
            else:
                bonds.append(_ring_bond(opened[0], prev, opened[1], pending, label, atoms))
            pending = None
        elif c == "(":
            if prev is None:
                raise ParseError(f"branch with no root atom {at(k)}")
            if pending is not None:
                raise ParseError(f"bond symbol before branch {at(k)}")
            branches.append(prev)
        elif c == ")":
            if not branches:
                raise ParseError(f"unbalanced ')' {at(k)}")
            if pending is not None:
                raise ParseError(f"dangling bond inside branch {at(k)}")
            root = branches.pop()
            if prev == root:
                raise ParseError(f"empty branch {at(k)}")
            prev = root
        elif c == ".":
            if branches:
                raise ParseError(f"dot inside branch {at(k)}")
            if pending is not None:
                raise ParseError(f"bond symbol before dot {at(k)}")
            if prev is None:
                raise ParseError(f"dangling dot {at(k)}")
            prev = None
        else:
            raise ParseError(f"unexpected token {text!r} {at(k)}")
    if pending is not None:
        raise ParseError("bond symbol with no following atom at end of input")
    if rings:
        labels = ", ".join(str(label) for label in sorted(rings))
        raise ParseError(f"unclosed ring label(s): {labels}")
    if branches:
        raise ParseError("unclosed branch at end of input")
    if prev is None:
        raise ParseError("dangling dot at end of input")
    # the Molecule constructor checks the bonds (duplicates, aromatic ends, stereo)
    return Molecule(atoms, bonds)


def _ring_bond(
    a: int, b: int, opening: _Pending | None, closing: _Pending | None, label: int, atoms: list[Atom]
) -> Bond:
    """The bond a ring closure makes from the pending bonds at its two sites."""
    order_a, arom_a, stereo_a = opening or (None, False, None)
    order_b, arom_b, stereo_b = closing or (None, False, None)
    if order_a is not None and order_b is not None and (order_a != order_b or arom_a != arom_b):
        raise ParseError(f"conflicting bond symbols on ring label {label}")
    # Stereo is oriented from a to b. A marker written at the closing site
    # describes the b->a direction and is flipped.
    if stereo_b is not None:
        stereo_b = "down" if stereo_b == "up" else "up"
    if stereo_a is not None and stereo_b is not None and stereo_a != stereo_b:
        raise ParseError(f"conflicting stereo markers on ring label {label}")
    if order_a is None and order_b is None:
        return _bond(a, b, 1, atoms[a].aromatic and atoms[b].aromatic, None)
    order = order_a if order_a is not None else order_b
    return _bond(a, b, order, arom_a or arom_b, stereo_a if stereo_a is not None else stereo_b)


@lru_cache(maxsize=4096)
def _bracket_atom(text: str) -> Atom:
    """The atom of a bracket token, built once per distinct token text. A
    malformed one raises :class:`ParseError` (which the memo does not keep)
    with a message the parser completes with the token and its position; a
    field's fault is reported before a later field's."""
    end = len(text) - 1
    match = _BRACKET_INTERIOR.match(text, 1, end)
    isotope, symbol, chirality, h_text, signs, digits, atom_map = match.groups()
    if symbol is None:
        raise ParseError("expected element symbol")
    aromatic = symbol.islower()
    if aromatic:
        if symbol not in AROMATIC_BRACKET:
            raise ParseError(f"unknown aromatic symbol {symbol!r}")
        symbol = symbol.capitalize()
    if digits and len(signs) > 1:
        raise ParseError("charge combines repeated signs with digits")
    if atom_map == ":":
        raise ParseError("expected digits after ':'")
    if match.end() != end:
        raise ParseError(f"unexpected {text[match.end():end]!r}")
    charge = 0
    if signs:
        charge = (int(digits) if digits else len(signs)) * (-1 if signs[0] == "-" else 1)
    return Atom(
        symbol, aromatic, charge, int(isotope) if isotope else None,
        int(h_text[1:] or 1) if h_text else 0, chirality,
    )


def parse_smiles(smiles: str) -> Molecule:
    """Tokenize and parse a SMILES string into a :class:`Molecule`. The
    whole string is tokenized first, so a
    :class:`~chemtext.smiles.tokenize.LexError` wins over a parse error
    earlier in the string.

    Raises:
        ParseError: on unbalanced branches, reused-unclosed or conflicting
            ring labels, bond symbols with no following atom, or dangling
            dots.
    """
    return _parse(tokenize(smiles))


def validate_smiles(smiles: str) -> ValidityResult:
    """Full-string validity: tokenize, parse and the valence check the
    :class:`Molecule` constructor records.

    Any string that fails to tokenize or parse is reported invalid with the
    error message as the reason.
    """
    try:
        mol = parse_smiles(smiles)
    except (LexError, ParseError) as exc:
        return ValidityResult((str(exc),))
    return mol.validity
