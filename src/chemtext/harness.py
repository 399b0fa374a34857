"""Per-task evaluation pipelines.

Each ``eval_*`` function consumes aligned :class:`PredictionPair` lists for a
single task and produces a :class:`MetricReport`. All aggregations are
commutative reductions, so shuffling the pairs never changes a value.

Task conventions:

- mol2text: BLEU-2/4, ROUGE-1/2/L and METEOR-lite over word tokens.
- text2mol: character-level BLEU over the raw SMILES strings, exact-match
  accuracy under canonical-SMILES equality (an invalid prediction counts as
  incorrect), mean Levenshtein over raw strings, mean Tanimoto over the
  keys/path/morgan fingerprints restricted to pairs where BOTH sides are
  valid and within the path-enumeration budget (skipped pairs are counted
  per reason and reported), and validity (valid predictions / total).
  An exact-match pair is scored from the reference's fingerprints alone,
  as ``tanimoto(ref_fp, ref_fp)``: equal canonical SMILES give equal
  fingerprints (see :mod:`chemtext.fingerprints`), and the pinned 0/0 rule
  still scores an empty fingerprint 0.0. Pairs are scored in chunks of 16:
  the molecules of a chunk are fingerprinted in one batch per scheme and
  the Tanimoto values are summed in pair order, so the report is the one
  pair-by-pair scoring gives, to the bit.
- forward: top-1 accuracy under canonical-SMILES equality.
- retro: roundtrip accuracy through a ForwardOracle: the predicted
  precursors are fed to the oracle and the regenerated product must match
  the reference product canonically; oracle failures count as incorrect.
- text2mol, forward and retro: each SMILES field is parsed once into one
  record holding the string and the molecule (``None`` unless it is valid);
  its canonical string is computed on first read, so a side whose pair is
  already decided is never canonicalized. A :class:`LookupOracle` is handed
  the prediction's record, any other ForwardOracle the string. A pair whose
  valid molecule the canonical writer gives up on (``CanonError``, chiefly
  the symmetry-search budget) scores as incorrect and is counted under the
  skip reason ``canon_budget``; validity counts are unaffected, and
  text2mol also leaves the pair out of Tanimoto. For retro this includes an
  oracle lookup that raises ``CanonError`` on the predicted precursors.
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
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

from chemtext.dataset import TaskKind
from chemtext.errors import ChemtextError
from chemtext.fingerprints import (
    FingerprintConfig,
    key_fingerprint,
    morgan_fingerprints,
    path_fingerprints,
    tanimoto,
)
from chemtext.smiles import CanonError, LexError, Molecule, ParseError, parse_smiles
from chemtext.smiles.canon import canonicalize
from chemtext.smiles.tokenize import tokenize as smiles_tokenize
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
    lexes, parses and passes validation. ``canonical`` is computed on first
    read and cached; a budget ``CanonError`` propagates to the reader."""

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
    def canonical(self) -> str | None:
        return None if self.mol is None else canonicalize(self.mol)

    @property
    def key(self) -> str:
        """Lookup-oracle key: the canonical string, else the string itself."""
        return self.smiles if self.mol is None else self.canonical


class LookupOracle:
    """ForwardOracle backed by a precursors -> product table.

    Keys are the precursors' canonical SMILES, so any atom ordering of the
    same precursor set hits the same entry; precursors that do not parse or
    fail validation are keyed by their exact string. Precursors that exceed
    the canonicalization budget raise ``CanonError`` on lookup in any
    ordering; such table entries are dropped, as no lookup can reach them.
    Two spellings of one precursor set whose products differ (see
    :meth:`same_product`) raise ``ChemtextError`` naming both.
    :meth:`predict_product` also takes the record :func:`eval_retro` has
    already made for the prediction, so the precursors are parsed once.
    """

    def __init__(self, table: dict[str, str]) -> None:
        self._table: dict[str, str] = {}
        spellings: dict[str, str] = {}
        for precursors, product in table.items():
            try:
                key = _Side.of(precursors).key
            except CanonError:
                continue
            if key in self._table and not self.same_product(self._table[key], product):
                raise ChemtextError(
                    f"oracle precursors {spellings[key]!r} and {precursors!r} are one "
                    f"precursor set with different products {self._table[key]!r} and {product!r}"
                )
            self._table[key] = product
            spellings[key] = precursors

    @staticmethod
    def same_product(a: str, b: str) -> bool:
        """Whether two product strings are equal or canonically equal; a
        product over the canonicalization budget equals only itself."""
        try:
            return a == b or _Side.of(a).key == _Side.of(b).key
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
        tokens = tuple(t.text for t in smiles_tokenize(smiles))
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

# text2mol pairs fingerprinted together: at most 32 molecules per kernel call,
# which keeps a chunk's hashing matrices small
_CHUNK_PAIRS = 16


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
    metrics: dict[str, MetricValue] = {
        "bleu": MetricValue("bleu", char_bleu.value, char_bleu.support)
    }

    exact = 0
    n_valid = 0
    lev_total = 0
    fts_sums = dict.fromkeys(_FTS_SCHEMES, 0.0)
    fts_support = 0
    reasons: Counter[str] = Counter()
    for start in range(0, len(pairs), _CHUNK_PAIRS):
        mols: list[Molecule] = []
        # per scored pair of the chunk: (reference, prediction) indices in mols
        sides: list[tuple[int, int]] = []
        for pair in pairs[start:start + _CHUNK_PAIRS]:
            lev_total += levenshtein(pair.prediction, pair.reference)
            pred, ref = _Side.of(pair.prediction), _Side.of(pair.reference)
            n_valid += pred.mol is not None
            if pred.mol is None or ref.mol is None:
                reasons["invalid_smiles_side"] += 1
                continue
            try:
                same = pred.canonical == ref.canonical
            except CanonError:
                reasons["canon_budget"] += 1
                continue
            exact += same
            ref_index = len(mols)
            mols.append(ref.mol)
            if not same:
                # equal canonical SMILES give equal fingerprints
                mols.append(pred.mol)
            sides.append((ref_index, len(mols) - 1))
        if not mols:
            continue
        fps = {
            "keys": [key_fingerprint(mol, config.key_table) for mol in mols],
            "path": path_fingerprints(mols, config.path_max_len, config.nbits),
            "morgan": morgan_fingerprints(mols, config.radius, config.nbits),
        }
        for ref_at, pred_at in sides:
            if fps["path"][ref_at] is None or fps["path"][pred_at] is None:
                reasons["fingerprint_budget"] += 1
                continue
            for name, scheme in _FTS_SCHEMES.items():
                fts_sums[name] += tanimoto(fps[scheme][pred_at], fps[scheme][ref_at])
            fts_support += 1

    n = len(pairs)
    metrics["accuracy"] = MetricValue("accuracy", exact / n, n)
    metrics["levenshtein"] = MetricValue("levenshtein", lev_total / n, n)
    metrics["validity"] = MetricValue("validity", n_valid / n, n)
    omitted: dict[str, str] = {}
    if fts_support:
        for name, total in fts_sums.items():
            metrics[name] = MetricValue(name, total / fts_support, fts_support)
    else:
        reason = "no pair with both sides valid"
        if reasons["fingerprint_budget"]:
            reason += " within the path-enumeration budget"
        omitted = dict.fromkeys(fts_sums, reason)
    return MetricReport(
        task=TaskKind.TEXT2MOL,
        metrics=metrics,
        n_total=n,
        n_valid_pred=n_valid,
        n_skipped=n - fts_support,
        skip_reasons=dict(reasons),
        omitted_metrics=omitted,
    )


def eval_forward(pairs: Sequence[PredictionPair]) -> MetricReport:
    """Forward reaction prediction: top-1 canonical-equality accuracy."""
    _check_task(pairs, TaskKind.FORWARD)
    exact = 0
    n_valid = 0
    reasons: Counter[str] = Counter()
    for pair in pairs:
        pred = _Side.of(pair.prediction)
        if pred.mol is None:
            continue
        n_valid += 1
        try:
            # the reference is parsed only once the prediction canonicalized
            exact += pred.canonical == _Side.of(pair.reference).canonical
        except CanonError:
            reasons["canon_budget"] += 1
    n = len(pairs)
    metrics = {"accuracy": MetricValue("accuracy", exact / n, n)}
    return MetricReport(
        task=TaskKind.FORWARD,
        metrics=metrics,
        n_total=n,
        n_valid_pred=n_valid,
        skip_reasons=dict(reasons),
    )


def eval_retro(pairs: Sequence[PredictionPair], oracle: ForwardOracle) -> MetricReport:
    """Retrosynthesis roundtrip accuracy.

    The prediction holds the proposed precursors, the reference the true
    product. A pair scores when oracle(predicted precursors) regenerates the
    reference product under canonical equality.
    """
    _check_task(pairs, TaskKind.RETRO)
    hits = 0
    n_valid = 0
    reasons: Counter[str] = Counter()
    for pair in pairs:
        pred = _Side.of(pair.prediction)
        n_valid += pred.mol is not None
        lookup = pred if isinstance(oracle, LookupOracle) else pair.prediction
        try:
            regenerated = _Side.of(oracle.predict_product(lookup)).canonical
            if regenerated is not None and regenerated == _Side.of(pair.reference).canonical:
                hits += 1
        except OracleError:
            reasons["oracle_failure"] += 1
        except CanonError:
            reasons["canon_budget"] += 1
    n = len(pairs)
    metrics = {"roundtrip_accuracy": MetricValue("roundtrip_accuracy", hits / n, n)}
    return MetricReport(
        task=TaskKind.RETRO,
        metrics=metrics,
        n_total=n,
        n_valid_pred=n_valid,
        skip_reasons=dict(reasons),
    )


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
