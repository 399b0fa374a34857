"""SMILES tokenizer.

Splits a SMILES string into a flat token sequence for the parser:

- organic-subset atoms: B, C, N, O, P, S, F, Cl, Br, I (Cl/Br consume two
  characters) and the aromatic forms b, c, n, o, p, s
- bracket atoms: everything from ``[`` to the matching ``]`` is one token
- bond symbols: ``- = # :`` plus the directional markers ``/`` and ``\\``
- ring closures: a single digit 0-9 or a two-digit ``%nn`` label
- branches ``(`` ``)`` and the fragment separator ``.``

One compiled regex lists these alternatives in that priority order, and
:func:`tokenize` returns the texts it matches, which
:func:`chemtext.smiles.parse.parse_smiles` reads. A token's kind follows
from its first character, and its position from the lengths of the texts
before it. Only when the texts do not cover the whole string does a slower
scan look for the first character no alternative matches, to raise
:class:`LexError` there.

Tokenization is purely lexical: bracket contents and structural balance are
checked later by the parser, so e.g. ``"C(C"`` tokenizes fine and only fails
to parse.
"""

from __future__ import annotations

import re

from chemtext.errors import ChemtextError

ORGANIC_ONE_LETTER = frozenset("BCNOPSFI")
ORGANIC_TWO_LETTER = ("Cl", "Br")
AROMATIC_ORGANIC = frozenset("bcnops")

# [0-9] rather than \d, which would also match non-ASCII digits.
_TOKEN = re.compile(r"\[[^\]]*\]|Cl|Br|[BCNOPSFIbcnops]|[-=#:/\\]|[0-9]|%[0-9][0-9]|[().]")


class LexError(ChemtextError):
    """Character outside the SMILES alphabet or an unterminated bracket atom."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (position {position})")
        self.position = position


def tokenize(smiles: str) -> list[str]:
    """The token texts of a SMILES string, in order; they concatenate to
    the input.

    Raises:
        LexError: on a character outside the SMILES alphabet or an
            unterminated bracket atom. The reported position always lies
            inside the input string.
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
