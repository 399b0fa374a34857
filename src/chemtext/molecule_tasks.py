"""The molecule tasks of :mod:`chemtext.harness`: text2mol, forward and retro
evaluation, and the lookup oracle.

They are the harness's only callers of the SMILES layer, so they live apart
from the text tasks: :func:`chemtext.harness.eval_pairs` imports this module
when it dispatches a molecule task, and ``chemtext.harness`` resolves the
names below on first use, so a text-task run never loads
:mod:`chemtext.smiles`. The task conventions are in the
:mod:`chemtext.harness` docstring.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Protocol, Sequence

from chemtext.dataset import TaskKind
from chemtext.errors import ChemtextError
from chemtext.fingerprints import (
    FingerprintConfig,
    MoleculeBatch,
    key_fingerprints,
    morgan_fingerprints,
    path_fingerprints,
    tanimoto,
)
from chemtext.harness import (
    _FTS_SCHEMES,
    MetricReport,
    OracleError,
    PredictionPair,
    _check_task,
    _PairRow,
    _report,
)
from chemtext.smiles import CanonError, LexError, Molecule, ParseError, parse_smiles
from chemtext.smiles.canon import canonicalize
from chemtext.textmetrics import char_tokenize, levenshtein, ngram_row

__all__ = [
    "ForwardOracle",
    "LookupOracle",
    "eval_forward",
    "eval_retro",
    "eval_text2mol",
]


class ForwardOracle(Protocol):
    """Single-operation interface standing in for a forward-reaction model."""

    def predict_product(self, precursors: str) -> str:
        """Product SMILES for dot-joined precursors; raises OracleError on
        failure (or CanonError when the precursors exceed the canonicalization
        budget). Must be deterministic for a given input."""
        ...


@dataclass(frozen=True)
class _Side:
    """One SMILES field, parsed once: ``mol`` is ``None`` unless the string
    lexes, parses and passes validation. ``formula`` and ``canonical`` are
    computed on first read and cached; a budget ``CanonError`` propagates to
    the reader of ``canonical``. :meth:`same_molecule` is the one equality
    rule: it reads ``canonical`` only when the formulas are equal, so only
    such a pair can raise ``CanonError``, and a pair of differing formulas
    is unequal whatever the canonicalization budget."""

    smiles: str
    mol: Molecule | None

    @classmethod
    def of(cls, smiles: str) -> _Side:
        try:
            mol = parse_smiles(smiles)
        except (LexError, ParseError):
            return cls(smiles, None)
        return cls(smiles, mol if mol.validity.valid else None)

    @cached_property
    def formula(self) -> tuple[int, tuple[str, ...]] | None:
        """The bond count and the sorted atom texts the
        :class:`~chemtext.smiles.Molecule` constructor recorded, ``None``
        without a valid molecule. The canonical writer writes every bond and
        each of those texts once, so both can be read back from the
        canonical string: sides whose formulas differ never have equal
        strings."""
        mol = self.mol
        return None if mol is None else (len(mol.bonds), tuple(sorted(mol.atom_texts)))

    @cached_property
    def canonical(self) -> str | None:
        return None if self.mol is None else canonicalize(self.mol)

    def same_molecule(self, other: _Side) -> bool:
        """Whether both sides are valid with equal canonical strings."""
        formula = self.formula
        return (
            formula is not None
            and formula == other.formula
            and self.canonical == other.canonical
        )


# an oracle entry: where it was read, its precursors and its product
_Entry = tuple[str, str, str]


class LookupOracle:
    """ForwardOracle backed by a precursors -> product table.

    Keys are the precursors' canonical SMILES, so any atom ordering of the
    same precursor set hits the same entry; precursors that do not parse or
    fail validation are keyed by their exact string, and so are precursors
    that exceed the canonicalization budget, which no lookup reaches: they
    raise ``CanonError`` on lookup in any ordering. Two entries with one key
    whose products differ (see :meth:`same_product`) raise ``ChemtextError``
    naming both. ``table`` maps precursors to product, or lists ``(where,
    precursors, product)`` entries, ``where`` naming each (an oracle file's
    ``path:line``); a mapping's entries are named ``entry 1``, ``entry 2``...
    :meth:`predict_product` also takes the record :func:`eval_retro` has
    already made for the prediction, so the precursors are parsed once.

    The oracle keeps one index from key to latest entry. A key fixes its
    formula (a canonical string is written from it, and an exact-string key
    is invalid or parses to it), so a key is written only where one is
    compared: a formula's first entry is canonicalized when a second entry
    of its formula joins it (for the repeat check) or a lookup of its
    formula reaches it, each entry at most once, and an entry whose formula
    nothing else has, never. A query is canonicalized before the index is
    read, so one over the budget raises ``CanonError`` whatever the table
    holds.
    """

    def __init__(self, table: Mapping[str, str] | Iterable[tuple[str, str, str]]) -> None:
        if isinstance(table, Mapping):
            table = ((f"entry {k}", *item) for k, item in enumerate(table.items(), start=1))
        self._keyed: dict[str, _Entry] = {}  # key -> latest entry
        # per valid formula seen, its one entry until that entry is keyed
        self._unwritten: dict[tuple, tuple[_Side, _Entry] | None] = {}
        for entry in table:
            where, precursors, product = entry
            side = _Side.of(precursors)
            formula = side.formula
            if formula is not None and formula not in self._unwritten:
                self._unwritten[formula] = side, entry
                continue
            self._write(formula)
            key = self._key(side)
            earlier = self._keyed.get(key)
            if earlier is not None and not self.same_product(earlier[2], product):
                raise ChemtextError(
                    f"{where}: oracle precursors {earlier[1]!r} and {precursors!r} are one "
                    f"precursor set with different products {earlier[2]!r} and {product!r} "
                    f"(the first at {earlier[0]})"
                )
            self._keyed[key] = entry

    @staticmethod
    def _key(side: _Side) -> str:
        """An entry's key: the canonical string, else (invalid or over the
        canonicalization budget) the string itself."""
        if side.mol is None:
            return side.smiles
        try:
            return side.canonical
        except CanonError:
            return side.smiles

    def _write(self, formula: tuple | None) -> None:
        """Key the unwritten entry of ``formula``, if it has one."""
        if self._unwritten.get(formula) is not None:
            side, entry = self._unwritten[formula]
            self._unwritten[formula] = None
            self._keyed[self._key(side)] = entry

    @staticmethod
    def same_product(a: str, b: str) -> bool:
        """Whether two product strings are equal or canonically equal; a
        product over the canonicalization budget equals only itself, by
        :func:`_compare`'s rule."""
        return a == b or _compare(_Side.of(a), _Side.of(b))[0]

    def predict_product(self, precursors: str | _Side) -> str:
        side = precursors if isinstance(precursors, _Side) else _Side.of(precursors)
        formula = side.formula
        # a valid query is canonicalized first, so one over the budget raises
        key = side.smiles if formula is None else side.canonical
        self._write(formula)
        entry = self._keyed.get(key)
        if entry is None:
            raise OracleError(f"no product known for precursors {side.smiles!r}")
        return entry[2]


# text2mol pairs fingerprinted together: at most 32 molecules per kernel call,
# which keeps a chunk's hashing matrices small
_CHUNK_PAIRS = 16


def _compare(pred: _Side, ref: _Side) -> tuple[bool, str | None]:
    """Whether the pair is canonically equal, and its skip reason: the one
    place a pair's ``CanonError`` becomes ``canon_budget``, and the rule of
    the oracle's repeat check (:meth:`LookupOracle.same_product`)."""
    try:
        return pred.same_molecule(ref), None
    except CanonError:
        return False, "canon_budget"


def eval_text2mol(
    pairs: Sequence[PredictionPair],
    fp_config: FingerprintConfig | None = None,
) -> MetricReport:
    """Text-conditional de novo generation: SMILES-side metrics."""
    _check_task(pairs, TaskKind.TEXT2MOL)
    config = fp_config or FingerprintConfig()
    rows: list[_PairRow] = []
    for start in range(0, len(pairs), _CHUNK_PAIRS):
        chunk = pairs[start:start + _CHUNK_PAIRS]
        mols: list[Molecule] = []
        outcomes = []  # per pair: valid, exact, skip reason, (ref, pred) indices in mols
        for pair in chunk:
            pred, ref = _Side.of(pair.prediction), _Side.of(pair.reference)
            if pred.mol is None or ref.mol is None:
                outcomes.append((pred.mol is not None, False, "invalid_smiles_side", None))
                continue
            exact, skip = _compare(pred, ref)
            at = None
            if skip is None:  # equal canonical SMILES give equal fingerprints
                at = (len(mols), len(mols) + (not exact))
                mols += [ref.mol] if exact else [ref.mol, pred.mol]
            outcomes.append((True, exact, skip, at))
        if mols:
            batch = MoleculeBatch(mols)
            fps = {
                "keys": key_fingerprints(batch, config.key_table),
                "path": path_fingerprints(batch, config.path_max_len, config.nbits),
                "morgan": morgan_fingerprints(batch, config.radius, config.nbits),
            }
        for pair, (valid, exact, skip, at) in zip(chunk, outcomes):
            fts = None
            if at is not None:
                ref_at, pred_at = at
                if fps["path"][ref_at] is None or fps["path"][pred_at] is None:
                    skip = "fingerprint_budget"
                else:
                    fts = tuple(tanimoto(fps[s][pred_at], fps[s][ref_at])
                                for s in _FTS_SCHEMES.values())
            p, r = pair.prediction, pair.reference
            rows.append(_PairRow(valid, exact, skip, fts, ngram_row(char_tokenize(p), char_tokenize(r)),
                                 edits=levenshtein(p, r)))
    return _report(TaskKind.TEXT2MOL, rows)


def eval_forward(pairs: Sequence[PredictionPair]) -> MetricReport:
    """Forward reaction prediction: top-1 canonical-equality accuracy."""
    _check_task(pairs, TaskKind.FORWARD)
    rows = []
    for pair in pairs:
        pred = _Side.of(pair.prediction)
        if pred.mol is None:  # incorrect whatever the reference, so that is not parsed
            rows.append(_PairRow())
        else:
            rows.append(_PairRow(True, *_compare(pred, _Side.of(pair.reference))))
    return _report(TaskKind.FORWARD, rows)


def eval_retro(pairs: Sequence[PredictionPair], oracle: ForwardOracle) -> MetricReport:
    """Retrosynthesis roundtrip accuracy.

    The prediction holds the proposed precursors, the reference the true
    product. A pair scores when oracle(predicted precursors) regenerates the
    reference product under canonical equality.
    """
    _check_task(pairs, TaskKind.RETRO)
    rows = []
    for pair in pairs:
        pred = _Side.of(pair.prediction)
        lookup = pred if isinstance(oracle, LookupOracle) else pair.prediction
        try:
            exact, skip = _compare(_Side.of(oracle.predict_product(lookup)), _Side.of(pair.reference))
        except OracleError:
            exact, skip = False, "oracle_failure"
        except CanonError:  # on lookup: _compare maps its own
            exact, skip = False, "canon_budget"
        rows.append(_PairRow(pred.mol is not None, exact, skip))
    return _report(TaskKind.RETRO, rows)
