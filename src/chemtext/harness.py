"""Per-task evaluation pipelines.

Each ``eval_*`` function consumes aligned :class:`PredictionPair` lists for a
single task and produces a :class:`MetricReport`. Counts do not depend on
pair order. Tanimoto, ROUGE and METEOR are float sums taken in pair order,
so shuffling the pairs can move a value in its last bits. The report JSON
rounds values to six decimals, which hides such a move unless a value lies
within a few ulps of a rounding boundary, so the JSON is order-independent.

Task conventions:

- mol2text: BLEU-2/4, ROUGE-1/2/L and METEOR-lite over word tokens.
- text2mol, forward and retro: each SMILES field is parsed once into one
  record holding the string and the molecule (``None`` unless it is valid).
  Two sides are canonically equal when both are valid and their canonical
  strings are equal; the strings are written only for sides whose formulas
  (bond count and sorted atom texts, which the canonical string determines)
  are equal, so a pair of differing formulas is plainly incorrect and never
  canonicalized. Each pair is scored once into a row (prediction valid,
  pair equal, skip reason, and for text2mol three Tanimoto values), and one
  fold of the rows, in pair order, gives accuracy, ``n_valid_pred`` and the
  skip reasons. A pair of equal formulas whose canonical string the writer
  gives up on (``CanonError``: the symmetry-search budget, or more than 99
  ring closures open at once, as a clique of 21 or more atoms needs) is
  incorrect under the skip reason ``canon_budget``. Only text2mol counts
  skipped pairs in ``n_skipped``.
- text2mol: character-level BLEU and mean Levenshtein over the raw strings,
  kept outside the rows; exact-match accuracy; validity (valid predictions
  / total); mean Tanimoto over the keys/path/morgan fingerprints of pairs
  with both sides valid and within the canonicalization and path budgets
  (an exact pair over the path budget still counts as exact; with no pair
  left, the omitted metrics' reason names each budget that skipped one).
  An exact pair is fingerprinted from the reference alone, as
  ``tanimoto(ref_fp, ref_fp)`` (0.0 for an empty one, by the pinned 0/0
  rule): equal canonical SMILES give equal fingerprints (see
  :mod:`chemtext.fingerprints`). Pairs are fingerprinted in chunks of 16,
  one :class:`MoleculeBatch` each, whose graph table the three schemes'
  batch kernels share; the fold adds the Tanimoto values in pair order, so
  the report is the one pair-by-pair scoring gives, to the bit.
- forward: top-1 accuracy; an invalid prediction's reference is not parsed.
- retro: roundtrip accuracy through a ForwardOracle (a :class:`LookupOracle`
  is handed the prediction's record, any other the string): the regenerated
  product must equal the reference product canonically. A failed lookup is
  incorrect under ``oracle_failure``, or ``canon_budget`` if it raised
  ``CanonError``; validity is the prediction's.
- para2actions: BLEU-4 over word tokens plus exact-string accuracy after
  whitespace normalization.

Reports serialize to canonical JSON (sorted keys, metric values with six
fractional digits) via :func:`report_to_json`.

:func:`frechet_distance` is the generic Gaussian-fit distance used by
feature-based corpus metrics; callers supply the feature vectors (a learned
chemistry feature extractor is out of scope here) and label the result with
their feature source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Protocol, Sequence

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
from chemtext.smiles import CanonError, LexError, Molecule, ParseError, parse_smiles
from chemtext.smiles.canon import canonicalize
from chemtext.smiles.tokenize import tokenize
from chemtext.textmetrics import (
    EmptyCorpusError,
    MetricValue,
    TokenizedText,
    bleu,
    char_tokenize,
    levenshtein,
    meteor_lite,
    ngram_scores,
    rouge_l,
    word_tokenize,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DimensionMismatchError",
    "FingerprintConfig",
    "ForwardOracle",
    "IllConditionedError",
    "LookupOracle",
    "MetricReport",
    "MixedTasksError",
    "OracleError",
    "PredictionPair",
    "eval_forward",
    "eval_mol2text",
    "eval_pairs",
    "eval_para2actions",
    "eval_retro",
    "eval_text2mol",
    "frechet_distance",
    "report_to_json",
    "smiles_bleu_tokenize",
]


class MixedTasksError(ChemtextError):
    """A pair list mixes tasks or does not match the requested task."""


class OracleError(ChemtextError):
    """A ForwardOracle could not produce a product."""


class DimensionMismatchError(ChemtextError):
    """Feature sets of different dimensionality."""


class IllConditionedError(ChemtextError):
    """Covariance estimation is under-determined or numerically broken."""


@dataclass(frozen=True)
class PredictionPair:
    """One model output against its reference."""

    task: TaskKind
    prediction: str
    reference: str
    id: str = ""


@dataclass(frozen=True)
class MetricReport:
    """Metrics plus tallies for one task evaluation."""

    task: TaskKind
    metrics: dict[str, MetricValue]
    n_total: int
    n_valid_pred: int = 0
    n_skipped: int = 0
    skip_reasons: dict[str, int] = field(default_factory=dict)
    omitted_metrics: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_valid_pred > self.n_total:
            raise ValueError("n_valid_pred cannot exceed n_total")

    def value(self, name: str) -> float:
        return self.metrics[name].value


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
    def formula(self) -> tuple[int, list[str]] | None:
        """The bond count and the sorted atom texts the
        :class:`~chemtext.smiles.Molecule` constructor recorded, ``None``
        without a valid molecule. The canonical writer writes every bond and
        each of those texts once, so both can be read back from the
        canonical string: sides whose formulas differ never have equal
        strings."""
        mol = self.mol
        return None if mol is None else (len(mol.bonds), sorted(mol.atom_texts))

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

    @property
    def key(self) -> str:
        """Lookup-oracle key: the canonical string, else the string itself."""
        return self.smiles if self.mol is None else self.canonical


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
    """

    def __init__(self, table: Mapping[str, str] | Iterable[tuple[str, str, str]]) -> None:
        if isinstance(table, Mapping):
            table = ((f"entry {k}", *item) for k, item in enumerate(table.items(), start=1))
        self._table: dict[str, str] = {}
        named: dict[str, tuple[str, str]] = {}  # key -> where and precursors of its last entry
        for where, precursors, product in table:
            try:
                key = _Side.of(precursors).key
            except CanonError:
                key = precursors
            if key in self._table and not self.same_product(self._table[key], product):
                raise ChemtextError(
                    f"{where}: oracle precursors {named[key][1]!r} and {precursors!r} are one "
                    f"precursor set with different products {self._table[key]!r} and {product!r} "
                    f"(the first at {named[key][0]})"
                )
            self._table[key] = product
            named[key] = (where, precursors)

    @staticmethod
    def same_product(a: str, b: str) -> bool:
        """Whether two product strings are equal or canonically equal; a
        product over the canonicalization budget equals only itself."""
        try:
            return a == b or _Side.of(a).same_molecule(_Side.of(b))
        except CanonError:
            return False

    def predict_product(self, precursors: str | _Side) -> str:
        side = precursors if isinstance(precursors, _Side) else _Side.of(precursors)
        if side.key not in self._table:
            raise OracleError(f"no product known for precursors {side.smiles!r}")
        return self._table[side.key]


def _check_task(pairs: Sequence[PredictionPair], task: TaskKind) -> None:
    if not pairs:
        raise EmptyCorpusError("no prediction pairs")
    bad = [p.task for p in pairs if p.task is not task]
    if bad:
        raise MixedTasksError(
            f"expected only {task.value} pairs, found {bad[0].value}"
        )


def smiles_bleu_tokenize(smiles: str) -> TokenizedText:
    """SMILES-token-level tokenization for the text2mol BLEU; falls back to
    characters when the string does not tokenize."""
    try:
        tokens = tuple(tokenize(smiles))
    except LexError:
        return char_tokenize(smiles)
    if not tokens:
        return char_tokenize(smiles)
    return TokenizedText(tokens=tokens, source=smiles)


def eval_mol2text(pairs: Sequence[PredictionPair]) -> MetricReport:
    """Molecular captioning: the six word-level text metrics."""
    _check_task(pairs, TaskKind.MOL2TEXT)
    cands = [word_tokenize(p.prediction) for p in pairs]
    refs = [word_tokenize(p.reference) for p in pairs]
    metrics = {
        **ngram_scores(cands, refs),
        "rougeL": rouge_l(cands, refs),
        "meteor_lite": meteor_lite(cands, refs),
    }
    return MetricReport(task=TaskKind.MOL2TEXT, metrics=metrics, n_total=len(pairs))


_FTS_SCHEMES = {"maccs_fts": "keys", "rdk_fts": "path", "morgan_fts": "morgan"}
# the budgets that can skip a text2mol pair of two valid sides, by skip reason
_BUDGET_NAMES = {"canon_budget": "canonicalization", "fingerprint_budget": "path-enumeration"}

# text2mol pairs fingerprinted together: at most 32 molecules per kernel call,
# which keeps a chunk's hashing matrices small
_CHUNK_PAIRS = 16


class _PairRow(NamedTuple):
    """One SMILES pair scored: prediction valid, pair canonically equal, skip
    reason, and (text2mol) its Tanimoto values in ``_FTS_SCHEMES`` order."""

    valid: bool
    exact: bool
    skip: str | None = None
    fts: tuple[float, ...] | None = None


def _compare(pred: _Side, ref: _Side) -> _PairRow:
    """The one place a pair's ``CanonError`` becomes ``canon_budget``."""
    try:
        return _PairRow(pred.mol is not None, pred.same_molecule(ref))
    except CanonError:
        return _PairRow(pred.mol is not None, False, "canon_budget")


def _report(task: TaskKind, accuracy_name: str, rows: list[_PairRow], **fields) -> MetricReport:
    """The one fold of a SMILES task's rows, in pair order: accuracy (beside
    ``fields``, the metrics computed outside the rows), valid predictions and
    skip reasons, and for text2mol validity and the Tanimoto means over the
    rows with ``fts``; only text2mol counts the other rows as ``n_skipped``."""
    n = len(rows)
    exact = n_valid = support = 0
    sums = [0.0] * len(_FTS_SCHEMES)  # +=, as sum() compensates floats from Python 3.12
    skips: dict[str, int] = {}
    for row in rows:
        exact += row.exact
        n_valid += row.valid
        if row.skip is not None:
            skips[row.skip] = skips.get(row.skip, 0) + 1
        if row.fts is not None:
            support += 1
            for k, value in enumerate(row.fts):
                sums[k] += value
    metrics = {accuracy_name: MetricValue(accuracy_name, exact / n, n), **fields}
    if task is not TaskKind.TEXT2MOL:
        return MetricReport(task, metrics, n, n_valid, skip_reasons=skips)
    metrics["validity"] = MetricValue("validity", n_valid / n, n)
    if not support:
        budgets = [name for skip, name in _BUDGET_NAMES.items() if skip in skips]
        reason = "no pair with both sides valid"
        if budgets:
            reason += f" within the {' and '.join(budgets)} budget{'s' * (len(budgets) > 1)}"
        return MetricReport(task, metrics, n, n_valid, n_skipped=n, skip_reasons=skips,
                            omitted_metrics=dict.fromkeys(_FTS_SCHEMES, reason))
    for name, total in zip(_FTS_SCHEMES, sums):
        metrics[name] = MetricValue(name, total / support, support)
    return MetricReport(task, metrics, n, n_valid, n_skipped=n - support, skip_reasons=skips)


def eval_text2mol(
    pairs: Sequence[PredictionPair],
    fp_config: FingerprintConfig | None = None,
    bleu_tokenizer: Callable[[str], "TokenizedText"] = char_tokenize,
) -> MetricReport:
    """Text-conditional de novo generation: SMILES-side metrics.

    ``bleu_tokenizer`` defaults to character-level tokenization of the raw
    strings; pass :func:`smiles_bleu_tokenize` for SMILES-token BLEU
    instead.
    """
    _check_task(pairs, TaskKind.TEXT2MOL)
    config = fp_config or FingerprintConfig()
    cands = [bleu_tokenizer(p.prediction) for p in pairs]
    refs = [bleu_tokenizer(p.reference) for p in pairs]
    char_bleu = bleu(cands, refs, 4)
    n = len(pairs)
    lev_total = sum(levenshtein(p.prediction, p.reference) for p in pairs)
    rows: list[_PairRow] = []
    for start in range(0, n, _CHUNK_PAIRS):
        mols: list[Molecule] = []
        # per fingerprinted pair of the chunk: (row, reference, prediction) indices
        scored: list[tuple[int, int, int]] = []
        for pair in pairs[start:start + _CHUNK_PAIRS]:
            pred, ref = _Side.of(pair.prediction), _Side.of(pair.reference)
            if pred.mol is None or ref.mol is None:
                rows.append(_PairRow(pred.mol is not None, False, "invalid_smiles_side"))
                continue
            row = _compare(pred, ref)
            if row.skip is None:
                ref_at = len(mols)
                mols.append(ref.mol)
                if not row.exact:
                    # equal canonical SMILES give equal fingerprints
                    mols.append(pred.mol)
                scored.append((len(rows), ref_at, len(mols) - 1))
            rows.append(row)
        if not mols:
            continue
        batch = MoleculeBatch(mols)
        fps = {
            "keys": key_fingerprints(batch, config.key_table),
            "path": path_fingerprints(batch, config.path_max_len, config.nbits),
            "morgan": morgan_fingerprints(batch, config.radius, config.nbits),
        }
        for at, ref_at, pred_at in scored:
            if fps["path"][ref_at] is None or fps["path"][pred_at] is None:
                rows[at] = rows[at]._replace(skip="fingerprint_budget")
            else:
                fts = (tanimoto(fps[s][pred_at], fps[s][ref_at]) for s in _FTS_SCHEMES.values())
                rows[at] = rows[at]._replace(fts=tuple(fts))
    return _report(
        TaskKind.TEXT2MOL, "accuracy", rows,
        bleu=MetricValue("bleu", char_bleu.value, char_bleu.support),
        levenshtein=MetricValue("levenshtein", lev_total / n, n),
    )


def eval_forward(pairs: Sequence[PredictionPair]) -> MetricReport:
    """Forward reaction prediction: top-1 canonical-equality accuracy."""
    _check_task(pairs, TaskKind.FORWARD)
    rows = []
    for pair in pairs:
        pred = _Side.of(pair.prediction)
        if pred.mol is None:  # incorrect whatever the reference, so that is not parsed
            rows.append(_PairRow(False, False))
        else:
            rows.append(_compare(pred, _Side.of(pair.reference)))
    return _report(TaskKind.FORWARD, "accuracy", rows)


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
            row = _compare(_Side.of(oracle.predict_product(lookup)), _Side.of(pair.reference))
        except OracleError:
            row = _PairRow(False, False, "oracle_failure")
        except CanonError:  # on lookup: _compare maps its own
            row = _PairRow(False, False, "canon_budget")
        rows.append(_PairRow(pred.mol is not None, row.exact, row.skip))
    return _report(TaskKind.RETRO, "roundtrip_accuracy", rows)


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


def eval_para2actions(pairs: Sequence[PredictionPair]) -> MetricReport:
    """Paragraph-to-actions: BLEU-4 plus normalized exact-match accuracy."""
    _check_task(pairs, TaskKind.PARA2ACTIONS)
    cands = [word_tokenize(p.prediction) for p in pairs]
    refs = [word_tokenize(p.reference) for p in pairs]
    exact = sum(
        1 for p in pairs if _normalize_ws(p.prediction) == _normalize_ws(p.reference)
    )
    n = len(pairs)
    metrics = {
        "bleu4": bleu(cands, refs, 4),
        "accuracy": MetricValue("accuracy", exact / n, n),
    }
    return MetricReport(task=TaskKind.PARA2ACTIONS, metrics=metrics, n_total=n)


def eval_pairs(
    pairs: Sequence[PredictionPair],
    task: TaskKind,
    oracle: ForwardOracle | None = None,
    fp_config: FingerprintConfig | None = None,
) -> MetricReport:
    """Dispatch to the task-specific evaluator."""
    if task is TaskKind.MOL2TEXT:
        return eval_mol2text(pairs)
    if task is TaskKind.TEXT2MOL:
        return eval_text2mol(pairs, fp_config)
    if task is TaskKind.FORWARD:
        return eval_forward(pairs)
    if task is TaskKind.PARA2ACTIONS:
        return eval_para2actions(pairs)
    if oracle is None:
        raise OracleError("retro evaluation requires a ForwardOracle")
    return eval_retro(pairs, oracle)


# -- canonical JSON report ----------------------------------------------------


def _json_escape(text: str) -> str:
    out = ['"']
    for ch in text:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _json_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, str):
        return _json_escape(value)
    if isinstance(value, dict):
        parts = [
            f"{_json_escape(str(k))}: {_json_value(v)}" for k, v in sorted(value.items())
        ]
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"unsupported report value {value!r}")


def report_to_json(report: MetricReport) -> str:
    """Canonical JSON: sorted keys at every level, metric values as decimal
    numbers with exactly six fractional digits, counts as integers."""
    payload = {
        "counts": {
            "n_skipped": report.n_skipped,
            "n_total": report.n_total,
            "n_valid_pred": report.n_valid_pred,
        },
        "metrics": {name: mv.value for name, mv in report.metrics.items()},
        "omitted": dict(report.omitted_metrics),
        "skip_reasons": dict(report.skip_reasons),
        "supports": {name: mv.support for name, mv in report.metrics.items()},
        "task": report.task.value,
    }
    return _json_value(payload)


# -- generic Frechet distance --------------------------------------------------


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    import numpy as np

    eigvals, eigvecs = np.linalg.eigh(matrix)
    if np.any(eigvals < -1e-8):
        raise IllConditionedError(
            f"matrix has negative eigenvalue {eigvals.min():.3e}"
        )
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.T


def frechet_distance(features_a, features_b, *, ridge: float = 0.0) -> float:
    """||mu1 - mu2||^2 + Tr(S1 + S2 - 2 (S1 S2)^(1/2)) between Gaussians
    fitted to two feature collections (sample covariance, ddof=1).

    The cross term uses the symmetrized product
    ``S1^(1/2) S2 S1^(1/2)`` whose square root comes from a symmetric
    eigendecomposition; eigenvalues below -1e-8 raise IllConditionedError,
    tiny negatives are clamped to zero. Each set needs at least d+1 vectors
    unless ``ridge`` > 0, which adds ``ridge * I`` to both covariances.
    """
    import numpy as np

    a = np.asarray(features_a, dtype=np.float64)
    b = np.asarray(features_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatchError("feature sets must be 2-D (n, d) arrays")
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(
            f"feature dimensions differ: {a.shape[1]} vs {b.shape[1]}"
        )
    d = a.shape[1]
    if not math.isfinite(ridge):
        raise ValueError(f"ridge must be finite, got {ridge!r}")
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    if ridge == 0.0 and (a.shape[0] < d + 1 or b.shape[0] < d + 1):
        raise IllConditionedError(
            f"need at least d+1 = {d + 1} vectors per set (or enable ridge)"
        )
    mu_a = a.mean(axis=0)
    mu_b = b.mean(axis=0)
    sigma_a = np.atleast_2d(np.cov(a, rowvar=False)) + ridge * np.eye(d)
    sigma_b = np.atleast_2d(np.cov(b, rowvar=False)) + ridge * np.eye(d)
    root_a = _psd_sqrt(sigma_a)
    cross = _psd_sqrt(root_a @ sigma_b @ root_a)
    value = float(
        np.sum((mu_a - mu_b) ** 2)
        + np.trace(sigma_a)
        + np.trace(sigma_b)
        - 2.0 * np.trace(cross)
    )
    if not math.isfinite(value):
        raise IllConditionedError("non-finite distance")
    return max(value, 0.0)
