import io

import numpy as np
import pytest

from attention_oracle import cross_attend_loops, random_instance
from chemtext.merge import (
    CombineError,
    CombineMode,
    GradCheckReport,
    MergeParams,
    NonFiniteError,
    OPS,
    ShapeError,
    attention_weights,
    bidirectional_merge,
    cross_attend,
    grad_check,
    hierarchical_merge,
    load_matrix,
    mean_aggregate,
    random_params,
    save_matrix,
)


# -- cross_attend --------------------------------------------------------------


def test_single_adaptation_token_broadcasts_value():
    rng = np.random.default_rng(0)
    h_t = rng.normal(size=(4, 3))
    h_m = rng.normal(size=(1, 5))
    params = MergeParams(
        w_q=rng.normal(size=(3, 2)),
        w_k=rng.normal(size=(5, 2)),
        w_v=rng.normal(size=(5, 2)),
    )
    out = cross_attend(h_t, h_m, params)
    value_row = h_m @ params.w_v
    assert np.allclose(out, np.repeat(value_row, 4, axis=0), atol=1e-12)


def test_identical_keys_give_mean_of_values():
    rng = np.random.default_rng(1)
    h_m_row = rng.normal(size=(1, 5))
    h_m = np.repeat(h_m_row, 3, axis=0)  # identical keys and values
    h_t = rng.normal(size=(2, 4))
    params = MergeParams(
        w_q=rng.normal(size=(4, 3)),
        w_k=rng.normal(size=(5, 3)),
        w_v=rng.normal(size=(5, 3)),
    )
    out = cross_attend(h_t, h_m, params)
    mean_value = (h_m @ params.w_v).mean(axis=0)
    assert np.allclose(out, np.tile(mean_value, (2, 1)), atol=1e-12)


def test_matches_triple_loop_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        h_t, h_m, params = random_instance(rng)
        got = cross_attend(h_t, h_m, params)
        want = cross_attend_loops(
            h_t.tolist(), h_m.tolist(),
            params.w_q.tolist(), params.w_k.tolist(), params.w_v.tolist(),
        )
        assert np.allclose(got, np.array(want), atol=1e-10)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(7)
    for _ in range(10):
        h_t, h_m, params = random_instance(rng, n_t=5, n_m=4)
        weights = attention_weights(h_t, h_m, params)
        assert np.all(np.abs(weights.sum(axis=1) - 1.0) <= 1e-12)


def test_base_token_permutation_equivariance():
    rng = np.random.default_rng(8)
    h_t, h_m, params = random_instance(rng, n_t=5)
    out = cross_attend(h_t, h_m, params)
    perm = rng.permutation(5)
    out_permuted = cross_attend(h_t[perm], h_m, params)
    assert np.allclose(out_permuted, out[perm], atol=1e-12)


def test_adaptation_token_permutation_invariance():
    rng = np.random.default_rng(9)
    h_t, h_m, params = random_instance(rng, n_m=6)
    out = cross_attend(h_t, h_m, params)
    perm = rng.permutation(6)
    assert np.allclose(cross_attend(h_t, h_m[perm], params), out, atol=1e-12)


def test_large_entries_stay_finite():
    rng = np.random.default_rng(10)
    h_t, h_m, params = random_instance(rng)
    out = cross_attend(h_t * 1e3, h_m * 1e3, params)
    assert np.all(np.isfinite(out))


def test_shape_errors():
    rng = np.random.default_rng(11)
    h_t, h_m, params = random_instance(rng)
    with pytest.raises(ShapeError):
        cross_attend(h_t[:, :2], h_m, params)
    with pytest.raises(ShapeError):
        MergeParams(w_q=np.ones((3, 2)), w_k=np.ones((5, 3)), w_v=np.ones((5, 2)))
    with pytest.raises(NonFiniteError):
        cross_attend(np.full((2, 4), np.nan), h_m, params)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda h_t, h_m, p: cross_attend(h_t[0], h_m, p), ShapeError,
         "H_t must be a non-empty 2-D matrix, got shape (4,)"),
        (lambda h_t, h_m, p: cross_attend(h_t, h_m[:0], p), ShapeError,
         "H_m must be a non-empty 2-D matrix, got shape (0, 5)"),
        (lambda h_t, h_m, p: MergeParams(p.w_q, p.w_k, p.w_v[1:]), ShapeError,
         "w_k and w_v must share the adaptation hidden size"),
        (lambda h_t, h_m, p: MergeParams(p.w_q, p.w_k, p.w_v, depth=0), ShapeError,
         "depth must be >= 1"),
        (lambda h_t, h_m, p: cross_attend(h_t, h_m[:, 1:], p), ShapeError,
         "params field 'w_k' has 5 rows but the adaptation matrix has 4 columns"),
        (lambda h_t, h_m, p: grad_check("no_such_op", h_t, h_m, p), ValueError,
         "unknown op_id 'no_such_op'"),
        (lambda h_t, h_m, p: grad_check("cross_attend", h_t, h_m), ValueError,
         "cross_attend requires params"),
    ],
    ids=["1d_input", "empty_input", "kv_rows", "depth", "key_width", "unknown_op", "no_params"],
)
def test_input_validations(call, error, message):
    h_t, h_m, params = random_instance(np.random.default_rng(12))
    with pytest.raises(error) as info:
        call(h_t, h_m, params)
    assert str(info.value) == message


# -- hierarchical --------------------------------------------------------------


def test_depth_one_equals_cross_attend():
    rng = np.random.default_rng(12)
    h_t, h_m, params = random_instance(rng)
    assert np.array_equal(hierarchical_merge(h_t, h_m, params), cross_attend(h_t, h_m, params))


def test_depth_two_single_token_fixed_point():
    rng = np.random.default_rng(13)
    h_m = rng.normal(size=(1, 5))
    d = 4
    params = MergeParams(
        w_q=rng.normal(size=(d, d)),
        w_k=rng.normal(size=(5, d)),
        w_v=rng.normal(size=(5, d)),
        depth=2,
    )
    h_t = rng.normal(size=(3, d))
    out = hierarchical_merge(h_t, h_m, params)
    value_row = h_m @ params.w_v
    assert np.allclose(out, np.repeat(value_row, 3, axis=0), atol=1e-12)


def test_depth_three_composes():
    rng = np.random.default_rng(14)
    d = 4
    h_t = rng.normal(size=(3, d))
    h_m = rng.normal(size=(2, 5))
    params = MergeParams(
        w_q=rng.normal(size=(d, d)),
        w_k=rng.normal(size=(5, d)),
        w_v=rng.normal(size=(5, d)),
        depth=3,
    )
    manual = h_t
    single = MergeParams(w_q=params.w_q, w_k=params.w_k, w_v=params.w_v)
    for _ in range(3):
        manual = cross_attend(manual, h_m, single)
    assert np.allclose(hierarchical_merge(h_t, h_m, params), manual, atol=1e-14)


def test_cross_attend_rejects_deeper_params():
    # a depth-3 stack would otherwise be run, and checked, as one block
    rng = np.random.default_rng(16)
    h_t, h_m = rng.normal(size=(3, 4)), rng.normal(size=(2, 5))
    params = random_params(h_t=4, h_m=5, d=4, seed=6, depth=3)
    with pytest.raises(CombineError, match="run hierarchical_merge, not cross_attend"):
        cross_attend(h_t, h_m, params)
    with pytest.raises(CombineError, match="run hierarchical_merge, not cross_attend"):
        grad_check("cross_attend", h_t, h_m, params, epsilon=1e-5)
    assert hierarchical_merge(h_t, h_m, params).shape == (3, 4)


def test_depth_feedback_shape_enforced():
    rng = np.random.default_rng(15)
    h_t, h_m, params = random_instance(rng)  # d=3 != h_t=4
    bad = MergeParams(w_q=params.w_q, w_k=params.w_k, w_v=params.w_v, depth=2)
    with pytest.raises(ShapeError):
        hierarchical_merge(h_t, h_m, bad)


# -- bidirectional --------------------------------------------------------------


def test_zero_adaptation_sum_combine_offset():
    # forward output vanishes (V = 0); the zero-side queries attend
    # uniformly over the base, so the offset is the mean base projection
    rng = np.random.default_rng(16)
    h_t = rng.normal(size=(3, 4))
    h_m = np.zeros((2, 5))
    params = MergeParams(
        w_q=rng.normal(size=(4, 3)),
        w_k=rng.normal(size=(5, 3)),
        w_v=rng.normal(size=(5, 3)),
        combine=CombineMode.BIDIRECTIONAL_SUM,
    )
    forward_only = MergeParams(w_q=params.w_q, w_k=params.w_k, w_v=params.w_v)
    forward = cross_attend(h_t, h_m, forward_only)
    assert np.allclose(forward, 0.0, atol=1e-15)
    out = bidirectional_merge(h_t, h_m, params)
    constant_row = (h_t @ params.w_q).mean(axis=0)
    assert np.allclose(out, forward + constant_row, atol=1e-12)


def test_concat_project_single_token_hand_computation():
    # one base and one adaptation token, 1-wide everything: all attention
    # weights are 1, so forward = h_m*w_v, reverse = h_t*w_q, and
    # out = [forward, reverse] @ w_c
    h_t = np.array([[2.0]])
    h_m = np.array([[3.0]])
    w_c = np.array([[1.0], [10.0]])
    params = MergeParams(
        w_q=np.array([[1.0]]),
        w_k=np.array([[1.0]]),
        w_v=np.array([[0.5]]),
        combine=CombineMode.BIDIRECTIONAL_CONCAT_PROJECT,
        w_c=w_c,
    )
    out = bidirectional_merge(h_t, h_m, params)
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(1.5 * 1.0 + 2.0 * 10.0, abs=1e-14)


def test_sum_combine_pools_reverse_output():
    rng = np.random.default_rng(17)
    h_t = rng.normal(size=(3, 4))
    h_m = rng.normal(size=(2, 5))
    params = MergeParams(
        w_q=rng.normal(size=(4, 3)),
        w_k=rng.normal(size=(5, 3)),
        w_v=rng.normal(size=(5, 3)),
        combine=CombineMode.BIDIRECTIONAL_SUM,
    )
    out = bidirectional_merge(h_t, h_m, params)
    forward = cross_attend(h_t, h_m, MergeParams(w_q=params.w_q, w_k=params.w_k, w_v=params.w_v))
    # rows must differ from forward by one constant offset vector
    offsets = out - forward
    assert np.allclose(offsets, offsets[0], atol=1e-12)


def test_combine_mode_errors():
    rng = np.random.default_rng(18)
    h_t, h_m, params = random_instance(rng)
    with pytest.raises(CombineError):
        bidirectional_merge(h_t, h_m, params)  # BASE_ONLY
    with pytest.raises(CombineError):
        MergeParams(
            w_q=params.w_q, w_k=params.w_k, w_v=params.w_v,
            combine=CombineMode.BIDIRECTIONAL_CONCAT_PROJECT,
        )
    with pytest.raises(ShapeError):
        MergeParams(
            w_q=params.w_q, w_k=params.w_k, w_v=params.w_v,
            combine=CombineMode.BIDIRECTIONAL_CONCAT_PROJECT,
            w_c=np.ones((2, 2)),
        )


@pytest.mark.parametrize(
    "combine", [CombineMode.BIDIRECTIONAL_SUM, CombineMode.BIDIRECTIONAL_CONCAT_PROJECT]
)
@pytest.mark.parametrize("op_id", ["cross_attend", "hierarchical_merge"])
def test_forward_only_merges_reject_bidirectional_combine(combine, op_id):
    # the forward-only ops would otherwise drop the combine mode and w_c
    rng = np.random.default_rng(25)
    h_t, h_m = rng.normal(size=(3, 4)), rng.normal(size=(2, 5))
    params = random_params(h_t=4, h_m=5, d=3, seed=4, combine=combine)
    with pytest.raises(CombineError, match=f"run bidirectional_merge, not {op_id}"):
        OPS[op_id](h_t, h_m, params)
    with pytest.raises(CombineError, match=f"run bidirectional_merge, not {op_id}"):
        grad_check(op_id, h_t, h_m, params, epsilon=1e-5)


def test_params_reject_fields_no_op_reads():
    rng = np.random.default_rng(24)
    _, _, params = random_instance(rng)
    projections = dict(w_q=params.w_q, w_k=params.w_k, w_v=params.w_v)
    for combine in (CombineMode.BIDIRECTIONAL_SUM, CombineMode.BIDIRECTIONAL_CONCAT_PROJECT):
        w_c = np.ones((6, 3)) if combine is CombineMode.BIDIRECTIONAL_CONCAT_PROJECT else None
        with pytest.raises(CombineError, match="'depth'"):
            MergeParams(**projections, depth=2, combine=combine, w_c=w_c)
    for combine in (CombineMode.BASE_ONLY, CombineMode.BIDIRECTIONAL_SUM):
        with pytest.raises(CombineError, match="'w_c'"):
            MergeParams(**projections, combine=combine, w_c=np.ones((6, 3)))


# -- mean aggregation ------------------------------------------------------------


def test_mean_aggregate_identity_case():
    h = np.array([[1.0, 2.0, 3.0]])
    assert np.allclose(mean_aggregate(h, h), h)


def test_mean_aggregate_zero_adaptation():
    rng = np.random.default_rng(19)
    h_t = rng.normal(size=(4, 3))
    assert np.allclose(mean_aggregate(h_t, np.zeros((2, 3))), h_t / 2.0)


def test_mean_aggregate_hand_arithmetic():
    h_t = np.array([[1.0, 2.0], [3.0, 4.0]])
    h_m = np.array([[5.0, 6.0], [7.0, 8.0]])  # column mean (6, 7)
    want = np.array([[3.5, 4.5], [4.5, 5.5]])
    assert np.allclose(mean_aggregate(h_t, h_m), want, atol=1e-15)


def test_mean_aggregate_shape_error():
    with pytest.raises(ShapeError):
        mean_aggregate(np.ones((2, 3)), np.ones((2, 4)))


# -- gradient checks --------------------------------------------------------------


def test_scalar_case_closed_form():
    # 1x1 everything: loss = softmax(single score) * v = h_m * w_v, so
    # d loss / d w_v = h_m and d loss / d w_q = d loss / d w_k = 0
    h_t = np.array([[1.7]])
    h_m = np.array([[2.5]])
    params = MergeParams(w_q=np.array([[0.3]]), w_k=np.array([[0.9]]), w_v=np.array([[1.1]]))
    report = grad_check("cross_attend", h_t, h_m, params, epsilon=1e-5)
    assert report.max_rel_error < 1e-9
    assert report.params_checked == 3


def test_grad_check_random_instances():
    rng = np.random.default_rng(20)
    for _ in range(5):
        h_t, h_m, params = random_instance(rng)
        report = grad_check("cross_attend", h_t, h_m, params, epsilon=1e-5)
        assert report.max_rel_error < 1e-4


def test_grad_check_hierarchical_and_bidirectional():
    rng = np.random.default_rng(21)
    d = 4
    h_t = rng.normal(size=(3, d))
    h_m = rng.normal(size=(2, 5))
    deep = MergeParams(
        w_q=rng.normal(size=(d, d)), w_k=rng.normal(size=(5, d)),
        w_v=rng.normal(size=(5, d)), depth=3,
    )
    assert grad_check("hierarchical_merge", h_t, h_m, deep, epsilon=1e-5).max_rel_error < 1e-4
    for combine in (CombineMode.BIDIRECTIONAL_SUM, CombineMode.BIDIRECTIONAL_CONCAT_PROJECT):
        params = random_params(h_t=d, h_m=5, d=3, seed=4, combine=combine)
        report = grad_check("bidirectional_merge", h_t, h_m, params, epsilon=1e-5)
        assert report.max_rel_error < 1e-4


def test_grad_check_mean_aggregate_inputs():
    rng = np.random.default_rng(22)
    h_t = rng.normal(size=(3, 4))
    h_m = rng.normal(size=(2, 4))
    report = grad_check("mean_aggregate", h_t, h_m, epsilon=1e-5)
    assert report.max_rel_error < 1e-9
    assert report.params_checked == h_t.size + h_m.size


def test_grad_check_epsilon_validation():
    rng = np.random.default_rng(23)
    h_t, h_m, params = random_instance(rng)
    for bad in (0.0, -1e-5, 2e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            grad_check("cross_attend", h_t, h_m, params, epsilon=bad)
    with pytest.raises(ValueError):
        GradCheckReport(max_rel_error=0.0, params_checked=1, epsilon=0.0)


# -- matrix exchange format ---------------------------------------------------------


def test_matrix_round_trip():
    rng = np.random.default_rng(24)
    matrix = rng.normal(size=(3, 4))
    buffer = io.StringIO()
    save_matrix(buffer, matrix)
    back = load_matrix(io.StringIO(buffer.getvalue()))
    assert np.array_equal(back, matrix)


def test_matrix_format_errors():
    with pytest.raises(ShapeError):
        load_matrix(io.StringIO("2\n1 2\n"))
    with pytest.raises(ShapeError):
        load_matrix(io.StringIO("2 2\n1 2 3\n"))
    # int() reads these headers: "1_0 1" as 10 rows, "١ 1" as one
    for header in ("1_0 1", "١ 1", "1 ²", "-1 1", "+1 1"):
        with pytest.raises(ShapeError, match="bad matrix header"):
            load_matrix(io.StringIO(header + "\n" + "1.0\n" * 10))
