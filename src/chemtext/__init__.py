"""chemtext: chemistry/text evaluation and dataset tooling.

Subpackages and modules:

- :mod:`chemtext.smiles` -- SMILES tokenizing, parsing, validity,
  canonicalization
- :mod:`chemtext.fingerprints` -- circular/path/key bit fingerprints and
  Tanimoto similarity
- :mod:`chemtext.textmetrics` -- BLEU, ROUGE, METEOR-lite, Levenshtein
- :mod:`chemtext.dataset` -- prompt rendering, equal-mix corpus building,
  splits, JSONL IO
- :mod:`chemtext.harness` -- per-task evaluation reports, roundtrip accuracy,
  Frechet distance
- :mod:`chemtext.merge` -- cross-attention domain merging with gradient
  verification
- :mod:`chemtext.cli` -- the ``chemtext`` command-line front end

The SMILES functions exported here load :mod:`chemtext.smiles` on first
read, so ``import chemtext`` does not.
"""

from chemtext.errors import ChemtextError

__version__ = "0.1.0"

__all__ = [
    "ChemtextError",
    "__version__",
    "canonical_smiles",
    "canonicalize",
    "parse_smiles",
    "validate_smiles",
]

_SMILES_NAMES = frozenset({"canonical_smiles", "canonicalize", "parse_smiles", "validate_smiles"})


def __getattr__(name: str):
    if name in _SMILES_NAMES:
        from chemtext import smiles

        return getattr(smiles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
