"""Per-task evaluation pipelines.

Each ``eval_*`` function scores each :class:`PredictionPair` of one task
into a row that depends on that pair alone, then one fold turns the rows,
in pair order, into a :class:`MetricReport` of the metrics one table names
for the task, so any subset of rows, resampled ones too, folds to that
subset's report. Counts do not depend on pair order. Means are float sums
in pair order, which a shuffle can move in the last bits: the report JSON's
six decimals hide that unless a value lies within a few ulps of a rounding
boundary.

Task conventions:

- mol2text: BLEU-2/4, ROUGE-1/2/L and METEOR-lite over word tokens.
- text2mol, forward and retro: each SMILES field is parsed once into one
  record holding the string and the molecule (``None`` unless it is valid).
  Two sides are canonically equal when both are valid and their canonical
  strings are equal; the strings are written only for sides whose formulas
  (bond count and sorted atom texts, which the canonical string determines)
  are equal, so a pair of differing formulas is plainly incorrect and never
  canonicalized. A pair of equal formulas whose canonical string the writer
  gives up on (``CanonError``: the symmetry-search budget, or more than 99
  ring closures open at once, as a clique of 21 or more atoms needs) is
  incorrect under the skip reason ``canon_budget``. Only text2mol counts
  skipped pairs in ``n_skipped``.
- text2mol: character-level BLEU and mean Levenshtein over the raw strings;
  exact-match accuracy; validity (valid predictions / total); mean Tanimoto
  over the keys/path/morgan fingerprints of pairs with both sides valid and
  within the canonicalization and path budgets (an exact pair over the path
  budget still counts as exact; with no pair left, the omitted metrics'
  reason names each budget that skipped one). An exact pair is
  fingerprinted from the reference alone, as ``tanimoto(ref_fp, ref_fp)``
  (0.0 for an empty one, by the pinned 0/0 rule): equal canonical SMILES
  give equal fingerprints (see :mod:`chemtext.fingerprints`). Pairs are
  fingerprinted in chunks of 16, one :class:`MoleculeBatch` each, whose
  graph table the three schemes' batch kernels share.
- forward: top-1 accuracy; an invalid prediction's reference is not parsed.
- retro: roundtrip accuracy through a ForwardOracle (a :class:`LookupOracle`
  is handed the prediction's record, any other the string): the regenerated
  product must equal the reference product canonically. A failed lookup is
  incorrect under ``oracle_failure``, or ``canon_budget`` if it raised
  ``CanonError``; validity is the prediction's. The lookup oracle applies
  the formula rule to its entries too: it holds them by formula and
  canonicalizes one only when a second entry or a lookup of its formula
  compares it.
- para2actions: BLEU-4 over word tokens plus exact-string accuracy after
  whitespace normalization.

The text2mol, forward and retro evaluators, ``ForwardOracle`` and
``LookupOracle`` live in :mod:`chemtext.molecule_tasks`. This module exports
them, but loads that module, and with it :mod:`chemtext.smiles`, only when
one of them is first read or :func:`eval_pairs` dispatches a molecule task,
so a text task runs without the SMILES layer.

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
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from chemtext.dataset import TaskKind
from chemtext.errors import ChemtextError
from chemtext.fingerprints import FingerprintConfig
from chemtext.textmetrics import (
    EmptyCorpusError,
    MetricValue,
    NgramRow,
    bleu_from_rows,
    mean,
    meteor_pair,
    ngram_row,
    rouge_l_pair,
    rouge_n_pair,
    word_tokenize,
)

if TYPE_CHECKING:
    import numpy as np

    from chemtext.molecule_tasks import ForwardOracle

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


def _check_task(pairs: Sequence[PredictionPair], task: TaskKind) -> None:
    if not pairs:
        raise EmptyCorpusError("no prediction pairs")
    bad = [p.task for p in pairs if p.task is not task]
    if bad:
        raise MixedTasksError(
            f"expected only {task.value} pairs, found {bad[0].value}"
        )


_FTS_SCHEMES = {"maccs_fts": "keys", "rdk_fts": "path", "morgan_fts": "morgan"}
# the budgets that can skip a text2mol pair of two valid sides, by skip reason
_BUDGET_NAMES = {"canon_budget": "canonicalization", "fingerprint_budget": "path-enumeration"}


class _PairRow(NamedTuple):
    """One pair scored: prediction valid, pair equal, skip reason, Tanimoto
    values in ``_FTS_SCHEMES`` order, n-gram row, ROUGE-L F1, METEOR-lite
    score and Levenshtein distance, as far as its task reads them."""

    valid: bool = False
    exact: bool = False
    skip: str | None = None
    fts: tuple[float, ...] | None = None
    ngrams: NgramRow | None = None
    rouge_l: float = 0.0
    meteor: float = 0.0
    edits: int = 0


_Fold = Callable[[Sequence[_PairRow]], tuple[float, int] | None]


def _mean_of(value: Callable[[_PairRow], float | None]) -> _Fold:
    """The fold of a metric that is the mean of ``value`` over the rows where
    it is not ``None``, supported by those rows; with none, it is omitted."""

    def fold(rows: Sequence[_PairRow]) -> tuple[float, int] | None:
        values = [v for v in map(value, rows) if v is not None]
        return (mean(values), len(values)) if values else None

    return fold


def _bleu_of(max_n: int) -> _Fold:
    return lambda rows: (bleu_from_rows([row.ngrams for row in rows], max_n), len(rows))


_EXACT = _mean_of(attrgetter("exact"))
# each task's metrics, by name, and the fold of the rows that gives each
_TASK_METRICS: dict[TaskKind, dict[str, _Fold]] = {
    TaskKind.MOL2TEXT: {
        "bleu2": _bleu_of(2),
        "bleu4": _bleu_of(4),
        "rouge1": _mean_of(lambda row: rouge_n_pair(row.ngrams, 1)),
        "rouge2": _mean_of(lambda row: rouge_n_pair(row.ngrams, 2)),
        "rougeL": _mean_of(attrgetter("rouge_l")),
        "meteor_lite": _mean_of(attrgetter("meteor")),
    },
    TaskKind.TEXT2MOL: {
        "accuracy": _EXACT,
        "bleu": _bleu_of(4),
        "levenshtein": _mean_of(attrgetter("edits")),
        "validity": _mean_of(attrgetter("valid")),
        **{name: _mean_of(lambda row, k=k: row.fts and row.fts[k])
           for k, name in enumerate(_FTS_SCHEMES)},
    },
    TaskKind.FORWARD: {"accuracy": _EXACT},
    TaskKind.RETRO: {"roundtrip_accuracy": _EXACT},
    TaskKind.PARA2ACTIONS: {"bleu4": _bleu_of(4), "accuracy": _EXACT},
}


def _report(task: TaskKind, rows: Sequence[_PairRow]) -> MetricReport:
    """The one fold of a task's rows, in pair order: the task's
    ``_TASK_METRICS``, valid predictions and skip reasons. A metric no row
    supports is omitted, naming each budget that skipped a row; only
    text2mol counts rows with a skip reason as ``n_skipped``."""
    n_valid = 0
    skips: dict[str, int] = {}  # a plain dict: Counter() is slower on a one-pair call
    for row in rows:
        n_valid += row.valid
        if row.skip is not None:
            skips[row.skip] = skips.get(row.skip, 0) + 1
    metrics, omitted = {}, {}
    for name, fold in _TASK_METRICS[task].items():
        folded = fold(rows)
        if folded is not None:
            metrics[name] = MetricValue(name, *folded)
            continue
        budgets = [budget for skip, budget in _BUDGET_NAMES.items() if skip in skips]
        omitted[name] = "no pair with both sides valid"
        if budgets:
            omitted[name] += f" within the {' and '.join(budgets)} budget{'s' * (len(budgets) > 1)}"
    n_skipped = sum(skips.values()) if task is TaskKind.TEXT2MOL else 0
    return MetricReport(task, metrics, len(rows), n_valid, n_skipped, skips, omitted)


def eval_mol2text(pairs: Sequence[PredictionPair]) -> MetricReport:
    """Molecular captioning: the six word-level text metrics."""
    _check_task(pairs, TaskKind.MOL2TEXT)
    stems: dict[str, str] = {}  # stems each distinct token once per call
    rows = []
    for pair in pairs:
        cand, ref = word_tokenize(pair.prediction), word_tokenize(pair.reference)
        rows.append(_PairRow(ngrams=ngram_row(cand, ref), rouge_l=rouge_l_pair(cand, ref),
                             meteor=meteor_pair(cand, ref, stems)))
    return _report(TaskKind.MOL2TEXT, rows)


def eval_para2actions(pairs: Sequence[PredictionPair]) -> MetricReport:
    """Paragraph-to-actions: BLEU-4 plus normalized exact-match accuracy."""
    _check_task(pairs, TaskKind.PARA2ACTIONS)
    rows = [
        _PairRow(exact=p.prediction.split() == p.reference.split(),
                 ngrams=ngram_row(word_tokenize(p.prediction), word_tokenize(p.reference)))
        for p in pairs
    ]
    return _report(TaskKind.PARA2ACTIONS, rows)


def eval_pairs(
    pairs: Sequence[PredictionPair],
    task: TaskKind,
    oracle: ForwardOracle | None = None,
    fp_config: FingerprintConfig | None = None,
) -> MetricReport:
    """Dispatch to the task-specific evaluator; a molecule task imports
    :mod:`chemtext.molecule_tasks`, and with it the SMILES layer."""
    if task is TaskKind.MOL2TEXT:
        return eval_mol2text(pairs)
    if task is TaskKind.PARA2ACTIONS:
        return eval_para2actions(pairs)
    from chemtext import molecule_tasks

    if task is TaskKind.TEXT2MOL:
        return molecule_tasks.eval_text2mol(pairs, fp_config)
    if task is TaskKind.FORWARD:
        return molecule_tasks.eval_forward(pairs)
    if oracle is None:
        raise OracleError("retro evaluation requires a ForwardOracle")
    return molecule_tasks.eval_retro(pairs, oracle)


# names of chemtext.molecule_tasks this module exports; it loads on first read
_MOLECULE_TASK_NAMES = frozenset(
    {"ForwardOracle", "LookupOracle", "_Side", "_compare", "eval_forward", "eval_retro",
     "eval_text2mol"}
)


def __getattr__(name: str):
    if name in _MOLECULE_TASK_NAMES:
        from chemtext import molecule_tasks

        return getattr(molecule_tasks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    eigendecomposition; eigenvalues below -1e-8 raise IllConditionedError
    (so do NaN or infinite features), tiny negatives are clamped to zero.
    Each set needs at least d+1 vectors unless ``ridge`` > 0, which adds
    ``ridge * I`` to both covariances.
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
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise IllConditionedError("features must be finite")
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
