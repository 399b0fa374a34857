"""SMILES tokenizer.

Splits a SMILES string into a flat token sequence for the parser:

- organic-subset atoms: B, C, N, O, P, S, F, Cl, Br, I (Cl/Br consume two
  characters) and the aromatic forms b, c, n, o, p, s
- bracket atoms: everything from ``[`` to the matching ``]`` is one token
- bond symbols: ``- = # :`` plus the directional markers ``/`` and ``\\``
- ring closures: a single digit 0-9 or a two-digit ``%nn`` label
- branches ``(`` ``)`` and the fragment separator ``.``

One compiled regex lists these alternatives in that priority order, and
:func:`lex` returns the texts it matches. Only when those texts do not cover
the whole string does a slower scan look for the first character no
alternative matches, to raise :class:`LexError` there. :func:`tokenize`
builds its :class:`Token` records from the same texts;
:func:`chemtext.smiles.parse.parse_smiles` reads the texts directly.

Tokenization is purely lexical: bracket contents and structural balance are
checked later by the parser, so e.g. ``"C(C"`` tokenizes fine and only fails
to parse.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from itertools import accumulate

from chemtext.errors import ChemtextError

ORGANIC_ONE_LETTER = frozenset("BCNOPSFI")
ORGANIC_TWO_LETTER = ("Cl", "Br")
AROMATIC_ORGANIC = frozenset("bcnops")
BOND_CHARS = frozenset("-=#:/\\")

# [0-9] rather than \d, which would also match non-ASCII digits.
_TOKEN = re.compile(r"\[[^\]]*\]|Cl|Br|[BCNOPSFIbcnops]|[-=#:/\\]|[0-9]|%[0-9][0-9]|[().]")


class LexError(ChemtextError):
    """Character outside the SMILES alphabet or an unterminated bracket atom."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (position {position})")
        self.position = position


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


# token kind by the first character of its text
_KIND_OF_FIRST = {
    "[": TokenKind.ATOM_BRACKET,
    **dict.fromkeys(ORGANIC_ONE_LETTER | AROMATIC_ORGANIC, TokenKind.ATOM_ORGANIC),
    **dict.fromkeys(BOND_CHARS, TokenKind.BOND),
    **dict.fromkeys("0123456789%", TokenKind.RING_CLOSURE),
    "(": TokenKind.BRANCH_OPEN,
    ")": TokenKind.BRANCH_CLOSE,
    ".": TokenKind.DOT,
}


def lex(smiles: str) -> list[str]:
    """The token texts of a SMILES string, in order.

    Raises:
        LexError: as :func:`tokenize` does.
    """
    texts = _TOKEN.findall(smiles)
    if sum(map(len, texts)) == len(smiles):
        return texts
    i = 0  # findall skipped a character: find the first one no alternative matches
    while match := _TOKEN.match(smiles, i):
        i = match.end()
    ch = smiles[i]
    if ch == "[":
        raise LexError("unterminated bracket atom", i)
    if ch == "%":
        raise LexError("expected two digits after '%'", i)
    raise LexError(f"character {ch!r} outside the SMILES alphabet", i)


def tokenize(smiles: str) -> list[Token]:
    """Tokenize a SMILES string.

    Raises:
        LexError: on a character outside the SMILES alphabet or an
            unterminated bracket atom. The reported position always lies
            inside the input string.
    """
    texts = lex(smiles)
    starts = accumulate(map(len, texts), initial=0)
    return [Token(_KIND_OF_FIRST[text[0]], text, start) for text, start in zip(texts, starts)]
