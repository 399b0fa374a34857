"""SMILES tokenizing, parsing, validation and canonicalization."""

from chemtext.smiles.canon import CanonError, canonical_smiles, canonicalize, random_smiles
from chemtext.smiles.parse import (
    Atom,
    Bond,
    Molecule,
    ParseError,
    parse_smiles,
    validate_smiles,
)
from chemtext.smiles.tokenize import LexError, tokenize
from chemtext.smiles.valence import (
    DEFAULT_VALENCES,
    ValidityResult,
    implicit_hydrogen_count,
    validate,
)

__all__ = [
    "Atom",
    "Bond",
    "CanonError",
    "DEFAULT_VALENCES",
    "LexError",
    "Molecule",
    "ParseError",
    "ValidityResult",
    "canonical_smiles",
    "canonicalize",
    "implicit_hydrogen_count",
    "parse_smiles",
    "random_smiles",
    "tokenize",
    "validate",
    "validate_smiles",
]
