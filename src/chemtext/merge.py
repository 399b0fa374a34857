"""Cross-attention merging of a base-domain encoding with an
adaptation-domain encoding, as standalone double-precision numerics.

Given base tokens ``H_t (n_t x h_t)`` and adaptation tokens
``H_m (n_m x h_m)``:

- :func:`cross_attend`: ``Q = H_t W_q``, ``K = H_m W_k``, ``V = H_m W_v``,
  attention ``softmax(Q K^T / sqrt(d))`` row-wise (max-subtracted), output
  ``W V`` of shape ``n_t x d``. The 1/sqrt(d) scaling follows the
  transformer convention; projections are bias-free.
- :func:`hierarchical_merge`: reapplies the block ``depth`` times with the
  previous output as the new base input (requires ``d == h_t`` beyond
  depth 1).
- :func:`bidirectional_merge`: also attends in the reverse direction with
  the projection roles swapped consistently: queries come from the
  adaptation side via ``W_k`` and the base side supplies keys and values
  via ``W_q`` (the only projection whose input width fits), giving
  ``H_mt (n_m x d)``. Combining: ``bidirectional_sum`` adds the token-mean
  of ``H_mt`` to every forward row; ``bidirectional_concat_project``
  concatenates that pooled vector to every forward row and applies the
  extra ``2d x d`` projection.
- :func:`mean_aggregate`: the ablation baseline, averaging each base row
  with the column-mean of the adaptation encoding.
- :func:`grad_check`: analytic gradients (hand chain rule through softmax
  and the matrix products) of ``loss = sum(output)`` against central finite
  differences on every parameter entry; for the parameter-free
  ``mean_aggregate`` the inputs are checked instead. The step must pass
  :func:`check_grad_epsilon`, which the ``merge-demo`` CLI also calls before
  it reads any file.

Each op has one forward path: a stack of ``depth`` blocks (depth 1 for
``cross_attend``) or the bidirectional pair. Each returns its output and a
backward closure over its own caches, so ``grad_check`` differentiates the
very forward the public functions run. A private table maps each op id to
its forward, next to :data:`OPS`, the public table from op id to function
read by ``grad_check`` and the ``merge-demo`` CLI.

All functions are pure; matrices are float64 throughout and accumulation
order is fixed, so results are run-to-run stable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import IO, Callable

import numpy as np

from chemtext.errors import ChemtextError


class ShapeError(ChemtextError):
    """Inconsistent matrix shapes."""


class NonFiniteError(ChemtextError):
    """NaN or infinity in inputs, parameters or intermediates."""


class CombineError(ChemtextError):
    """Combine mode is unusable (wrong mode or missing projection)."""


class CombineMode(enum.Enum):
    BASE_ONLY = "base_only"
    BIDIRECTIONAL_SUM = "bidirectional_sum"
    BIDIRECTIONAL_CONCAT_PROJECT = "bidirectional_concat_project"


def _as_matrix(name: str, value) -> np.ndarray:
    array = np.asarray(value, dtype=np.float64)
    if array.ndim != 2 or array.size == 0:
        raise ShapeError(f"{name} must be a non-empty 2-D matrix, got shape {array.shape}")
    if not np.all(np.isfinite(array)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return array


@dataclass(frozen=True)
class MergeParams:
    """Projection parameters of the merge block.

    ``w_q`` maps the base hidden size to the attention width ``d``; ``w_k``
    and ``w_v`` map the adaptation hidden size to ``d``. ``w_c`` (2d x d) is
    required by the concat-project combine mode and rejected by the others;
    ``depth`` above 1 needs the base-only mode, because the bidirectional
    merge runs a single block.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    depth: int = 1
    combine: CombineMode = CombineMode.BASE_ONLY
    w_c: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "w_q", _as_matrix("w_q", self.w_q))
        object.__setattr__(self, "w_k", _as_matrix("w_k", self.w_k))
        object.__setattr__(self, "w_v", _as_matrix("w_v", self.w_v))
        d = self.w_q.shape[1]
        if self.w_k.shape[1] != d or self.w_v.shape[1] != d:
            raise ShapeError(
                f"projection widths disagree: {self.w_q.shape[1]}, "
                f"{self.w_k.shape[1]}, {self.w_v.shape[1]}"
            )
        if self.w_k.shape[0] != self.w_v.shape[0]:
            raise ShapeError("w_k and w_v must share the adaptation hidden size")
        if self.depth < 1:
            raise ShapeError("depth must be >= 1")
        if self.w_c is not None:
            object.__setattr__(self, "w_c", _as_matrix("w_c", self.w_c))
            if self.w_c.shape != (2 * d, d):
                raise ShapeError(f"w_c must be {2 * d}x{d}, got {self.w_c.shape}")
        concat = self.combine is CombineMode.BIDIRECTIONAL_CONCAT_PROJECT
        if concat and self.w_c is None:
            raise CombineError("concat_project combine requires w_c")
        if not concat and self.w_c is not None:
            raise CombineError(f"'w_c' is read only by concat_project, not {self.combine.value}")
        if self.depth > 1 and self.combine is not CombineMode.BASE_ONLY:
            raise CombineError(
                f"'depth' {self.depth} needs base_only; {self.combine.value} runs one block"
            )

    @property
    def d(self) -> int:
        return self.w_q.shape[1]


def random_params(
    h_t: int,
    h_m: int,
    d: int,
    seed: int,
    depth: int = 1,
    combine: CombineMode = CombineMode.BASE_ONLY,
) -> MergeParams:
    """Seeded Gaussian parameters, entries scaled by 1/sqrt(d)."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(d)
    w_c = None
    if combine is CombineMode.BIDIRECTIONAL_CONCAT_PROJECT:
        w_c = rng.normal(0.0, scale, size=(2 * d, d))
    return MergeParams(
        w_q=rng.normal(0.0, scale, size=(h_t, d)),
        w_k=rng.normal(0.0, scale, size=(h_m, d)),
        w_v=rng.normal(0.0, scale, size=(h_m, d)),
        depth=depth,
        combine=combine,
        w_c=w_c,
    )


def _row_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _check_finite(name: str, array: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(array)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return array


def _attend(
    q_in: np.ndarray, w_q: np.ndarray,
    k_in: np.ndarray, w_k: np.ndarray,
    v_in: np.ndarray, w_v: np.ndarray,
) -> tuple[np.ndarray, dict]:
    """Generic attention; returns (output, cache for backward)."""
    if q_in.shape[1] != w_q.shape[0]:
        raise ShapeError(
            f"query input width {q_in.shape[1]} does not match projection rows {w_q.shape[0]}"
        )
    if k_in.shape[1] != w_k.shape[0]:
        raise ShapeError(
            f"key input width {k_in.shape[1]} does not match projection rows {w_k.shape[0]}"
        )
    if v_in.shape[1] != w_v.shape[0]:
        raise ShapeError(
            f"value input width {v_in.shape[1]} does not match projection rows {w_v.shape[0]}"
        )
    d = w_q.shape[1]
    inv_sqrt_d = 1.0 / math.sqrt(d)
    q = q_in @ w_q
    k = k_in @ w_k
    v = v_in @ w_v
    weights = _row_softmax(_check_finite("attention scores", q @ k.T * inv_sqrt_d))
    out = _check_finite("attention output", weights @ v)
    cache = dict(q_in=q_in, k_in=k_in, v_in=v_in, w_q=w_q, w_k=w_k, w_v=w_v,
                 q=q, k=k, v=v, weights=weights, inv=inv_sqrt_d)
    return out, cache


def _attend_backward(g_out: np.ndarray, cache: dict) -> dict:
    """Gradients through _attend, keyed by slot: q_mat/k_mat/v_mat are the
    projection-matrix grads, q_in the query-input grad."""
    weights = cache["weights"]
    g_w = g_out @ cache["v"].T
    g_v = weights.T @ g_out
    g_scores = weights * (g_w - (g_w * weights).sum(axis=1, keepdims=True))
    g_q = g_scores @ cache["k"] * cache["inv"]
    g_k = g_scores.T @ cache["q"] * cache["inv"]
    return dict(
        q_mat=cache["q_in"].T @ g_q,
        k_mat=cache["k_in"].T @ g_k,
        v_mat=cache["v_in"].T @ g_v,
        q_in=g_q @ cache["w_q"].T,
    )


def _forward_block(x: np.ndarray, h_m: np.ndarray, params: MergeParams
                   ) -> tuple[np.ndarray, dict]:
    """One forward block: ``x`` queries through ``w_q``, the adaptation side
    supplies keys through ``w_k`` and values through ``w_v``."""
    return _attend(x, params.w_q, h_m, params.w_k, h_m, params.w_v)


def _stacked_forward(h_t: np.ndarray, h_m: np.ndarray, params: MergeParams,
                     depth: int) -> tuple[np.ndarray, Callable]:
    """``depth`` forward blocks, each fed the previous output as its base;
    returns the output and its backward (output gradient -> gradients of
    ``w_q``, ``w_k``, ``w_v``)."""
    if depth > 1 and params.d != h_t.shape[1]:
        raise ShapeError(
            f"depth feedback needs d == h_t ({params.d} != {h_t.shape[1]})"
        )
    caches = []
    current = h_t
    for _ in range(depth):
        current, cache = _forward_block(current, h_m, params)
        caches.append(cache)

    def backward(g_out: np.ndarray) -> dict[str, np.ndarray]:
        grads = {name: np.zeros_like(getattr(params, name)) for name in ("w_q", "w_k", "w_v")}
        for cache in reversed(caches):
            back = _attend_backward(g_out, cache)
            grads["w_q"] += back["q_mat"]
            grads["w_k"] += back["k_mat"]
            grads["w_v"] += back["v_mat"]
            g_out = back["q_in"]
        return grads

    return current, backward


def _bidirectional_forward(h_t: np.ndarray, h_m: np.ndarray, params: MergeParams
                           ) -> tuple[np.ndarray, Callable]:
    """Forward and reverse blocks combined per ``params.combine``; returns the
    output and its backward (output gradient -> parameter gradients)."""
    if params.combine is CombineMode.BASE_ONLY:
        raise CombineError("bidirectional_merge requires a bidirectional combine mode")
    forward, f_cache = _forward_block(h_t, h_m, params)
    # the reverse block swaps roles: the adaptation side queries through w_k,
    # the base side supplies keys and values through w_q
    reverse, r_cache = _attend(h_m, params.w_k, h_t, params.w_q, h_t, params.w_q)
    pooled = reverse.mean(axis=0, keepdims=True)
    d, n_m = params.d, h_m.shape[0]
    if params.combine is CombineMode.BIDIRECTIONAL_SUM:
        out, stacked = forward + pooled, None
    else:
        stacked = np.concatenate([forward, np.repeat(pooled, forward.shape[0], axis=0)], axis=1)
        out = _check_finite("combined output", stacked @ params.w_c)

    def backward(g_out: np.ndarray) -> dict[str, np.ndarray]:
        if stacked is not None:
            g_w_c = stacked.T @ g_out
            g_out = g_out @ params.w_c.T
        # the first d columns reach the forward rows, the last d the pooled
        # reverse vector (the same d columns for the sum combine)
        g_forward, g_pooled = g_out[:, :d], g_out[:, -d:].sum(axis=0, keepdims=True)
        f_back = _attend_backward(g_forward, f_cache)
        r_back = _attend_backward(np.repeat(g_pooled / n_m, n_m, axis=0), r_cache)
        # matching the roles above: w_q also keys and values the reverse
        # block, w_k also queries it
        grads = {
            "w_q": f_back["q_mat"] + r_back["k_mat"] + r_back["v_mat"],
            "w_k": f_back["k_mat"] + r_back["q_mat"],
            "w_v": f_back["v_mat"],
        }
        if stacked is not None:
            grads["w_c"] = g_w_c
        return grads

    return out, backward


def _run(op_id: str, h_t, h_m, params: MergeParams) -> np.ndarray:
    return _FORWARDS[op_id](_as_matrix("H_t", h_t), _as_matrix("H_m", h_m), params)[0]


def attention_weights(h_t, h_m, params: MergeParams) -> np.ndarray:
    """The row-stochastic attention matrix of a single forward block."""
    return _forward_block(_as_matrix("H_t", h_t), _as_matrix("H_m", h_m), params)[1]["weights"]


def cross_attend(h_t, h_m, params: MergeParams) -> np.ndarray:
    """One cross-attention block; output is ``n_t x d``."""
    return _run("cross_attend", h_t, h_m, params)


def hierarchical_merge(h_t, h_m, params: MergeParams) -> np.ndarray:
    """``depth``-fold reapplication with the base replaced by the previous
    output. Requires ``d == h_t`` when depth > 1 so the output can feed
    back."""
    return _run("hierarchical_merge", h_t, h_m, params)


def bidirectional_merge(h_t, h_m, params: MergeParams) -> np.ndarray:
    """Forward and reverse blocks combined per ``params.combine``."""
    return _run("bidirectional_merge", h_t, h_m, params)


def mean_aggregate(h_t, h_m) -> np.ndarray:
    """Ablation baseline: output row i is (H_t row i + column-mean of H_m)/2."""
    h_t = _as_matrix("H_t", h_t)
    h_m = _as_matrix("H_m", h_m)
    if h_t.shape[1] != h_m.shape[1]:
        raise ShapeError(
            f"mean aggregation needs h_t == h_m ({h_t.shape[1]} != {h_m.shape[1]})"
        )
    pooled = h_m.mean(axis=0, keepdims=True)
    return (h_t + pooled) / 2.0


#: The caching forward of each parameterised op, by op id; the public ops
#: return its output and ``grad_check`` also runs its backward.
_FORWARDS: dict[str, Callable] = {
    "cross_attend": lambda h_t, h_m, params: _stacked_forward(h_t, h_m, params, 1),
    "hierarchical_merge":
        lambda h_t, h_m, params: _stacked_forward(h_t, h_m, params, params.depth),
    "bidirectional_merge": _bidirectional_forward,
}


#: The parameterised ops by id, as ``grad_check`` and the ``merge-demo`` CLI
#: name them; ``mean_aggregate`` takes no parameters and is checked on its
#: inputs instead.
OPS = {
    "cross_attend": cross_attend,
    "hierarchical_merge": hierarchical_merge,
    "bidirectional_merge": bidirectional_merge,
}


# -- gradient verification ----------------------------------------------------


@dataclass(frozen=True)
class GradCheckReport:
    """Worst relative disagreement between analytic and numeric gradients."""

    max_rel_error: float
    params_checked: int
    epsilon: float

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def check_grad_epsilon(epsilon: float) -> None:
    """Raise ``ValueError`` unless ``0 < epsilon <= 1e-3`` (NaN fails too):
    the finite-difference step :func:`grad_check` accepts."""
    if not 0 < epsilon <= 1e-3:
        raise ValueError(f"epsilon must be in (0, 1e-3], got {epsilon!r}")


def grad_check(op_id: str, h_t, h_m, params: MergeParams | None = None,
               epsilon: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients of ``loss = sum(output)`` against central
    finite differences.

    For the attention ops every entry of every projection matrix is checked;
    ``mean_aggregate`` has no parameters, so its input entries are checked
    instead. Relative error uses max(|analytic|, |numeric|, 1e-8) as the
    denominator.
    """
    check_grad_epsilon(epsilon)
    h_t = _as_matrix("H_t", h_t)
    h_m = _as_matrix("H_m", h_m)
    if op_id == "mean_aggregate":
        # d loss / d H_t = 1/2 per entry; d loss / d H_m = n_t / (2 n_m)
        analytic = {
            "h_t": np.full(h_t.shape, 0.5),
            "h_m": np.full(h_m.shape, h_t.shape[0] / (2.0 * h_m.shape[0])),
        }
        centers = {"h_t": h_t, "h_m": h_m}

        def output_with(name: str, matrix: np.ndarray) -> np.ndarray:
            return mean_aggregate(**{**centers, name: matrix})
    elif op_id not in OPS:
        raise ValueError(f"unknown op_id {op_id!r}")
    elif params is None:
        raise ValueError(f"{op_id} requires params")
    else:
        out, backward = _FORWARDS[op_id](h_t, h_m, params)
        analytic = backward(np.ones_like(out))
        centers = {name: getattr(params, name) for name in analytic}

        def output_with(name: str, matrix: np.ndarray) -> np.ndarray:
            return OPS[op_id](h_t, h_m, replace(params, **{name: matrix}))

    worst = 0.0
    for name, grad in analytic.items():
        center = centers[name]
        for index in np.ndindex(center.shape):
            losses = []
            for value in (center[index] + epsilon, center[index] - epsilon):
                matrix = center.copy()
                matrix[index] = value
                losses.append(float(np.sum(output_with(name, matrix))))
            numeric = (losses[0] - losses[1]) / (2.0 * epsilon)
            a = grad[index]
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    if not math.isfinite(worst):
        raise NonFiniteError("gradient check produced non-finite values")
    checked = sum(grad.size for grad in analytic.values())
    return GradCheckReport(max_rel_error=worst, params_checked=checked, epsilon=epsilon)


# -- plain-text matrix exchange -------------------------------------------------


def load_matrix(fp: IO[str]) -> np.ndarray:
    """Read the CLI matrix format: first line ``rows cols``, then row-major
    whitespace-separated decimals."""
    header = fp.readline().split()
    if len(header) != 2:
        raise ShapeError("matrix header must be 'rows cols'")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ShapeError(f"bad matrix header: {exc}") from None
    values: list[float] = []
    for line in fp:
        values.extend(float(x) for x in line.split())
    if len(values) != rows * cols:
        raise ShapeError(f"expected {rows * cols} entries, got {len(values)}")
    return _as_matrix("matrix", np.array(values).reshape(rows, cols))


def save_matrix(fp: IO[str], matrix: np.ndarray) -> None:
    matrix = _as_matrix("matrix", matrix)
    fp.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
    for row in matrix:
        fp.write(" ".join(repr(float(x)) for x in row))
        fp.write("\n")
