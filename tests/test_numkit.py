"""Tensor ops, the gradient tape, and the finite-difference harness."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgsd import numkit as nk
from cgsd.errors import ContractError, DimensionError, DegenerateNormWarning
from cgsd.numkit import GradTape, Tensor2, backward


# ---------------------------------------------------------------------------
# oracles


def matmul_naive(a: Tensor2, b: Tensor2) -> np.ndarray:
    """Triple-loop matrix product, the oracle for nk.matmul."""
    m, k, n = a.rows, a.cols, b.cols
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a.data[i, p] * b.data[p, j]
            out[i, j] = acc
    return out


def logistic(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    eye = Tensor2(np.eye(2))
    m = Tensor2([[1.0, 2.0], [3.0, 4.0]])
    out = nk.matmul(eye, m)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_hand_case():
    a = Tensor2([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor2([[5.0], [6.0]])
    out = nk.matmul(a, b)
    np.testing.assert_array_equal(out.data, [[17.0], [39.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    a = Tensor2(np.zeros((2, 3)))
    b = Tensor2(np.zeros((2, 3)))
    with pytest.raises(DimensionError, match=r"2x3.*2x3"):
        nk.matmul(a, b)


def test_matmul_agrees_with_naive_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = Tensor2(rng.standard_normal((8, 8)))
        b = Tensor2(rng.standard_normal((8, 8)))
        fast = nk.matmul(a, b).data
        slow = matmul_naive(a, b)
        np.testing.assert_allclose(fast, slow, atol=1e-12)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    out = nk.softmax_rows(Tensor2([[0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 4))
    a = nk.softmax_rows(Tensor2(x)).data
    b = nk.softmax_rows(Tensor2(x + 123.456)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_large_logits_no_overflow():
    out = nk.softmax_rows(Tensor2([[1000.0, 0.0]])).data
    assert np.all(np.isfinite(out))
    assert out[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert out[0, 1] == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=8,
    )
)
def test_softmax_rows_sum_to_one(row):
    out = nk.softmax_rows(Tensor2([row])).data
    assert abs(out.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# l2 normalization


def test_l2_normalize_345():
    out = nk.l2_normalize_rows(Tensor2([[3.0, 4.0]])).data
    np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-9)


def test_l2_normalize_unit_row_idempotent():
    row = np.array([[0.6, 0.8]])
    out = nk.l2_normalize_rows(Tensor2(row)).data
    np.testing.assert_allclose(out, row, atol=1e-7)


def test_l2_normalize_output_norm_one():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 7))
    out = nk.l2_normalize_rows(Tensor2(x)).data
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def test_l2_normalize_zero_row_warns():
    with pytest.warns(DegenerateNormWarning):
        out = nk.l2_normalize_rows(Tensor2([[0.0, 0.0]]), eps=1e-8).data
    np.testing.assert_array_equal(out, [[0.0, 0.0]])


# ---------------------------------------------------------------------------
# smooth nonlinearity


def test_smooth_nonlinearity_values():
    g = lambda x: nk.smooth_nonlinearity(Tensor2([[x]])).data[0, 0]
    assert g(0.0) == 0.0
    assert g(1.0) == pytest.approx(1.0 * logistic(1.702), abs=1e-12)
    assert g(1.0) == pytest.approx(0.8458, abs=1e-4)
    assert abs(g(-10.0)) < 1e-3
    assert g(50.0) == pytest.approx(50.0, abs=1e-6)


def test_smooth_nonlinearity_large_negative_input_warns_nothing():
    # exp(-1.702 x) overflows to inf for x = -1000, so the gate is exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = nk.smooth_nonlinearity(Tensor2([[-1000.0, 3.0]])).data
    assert out[0, 0] == 0.0 and np.signbit(out[0, 0])
    np.testing.assert_array_equal(out[0, 1:], nk.smooth_nonlinearity(Tensor2([[3.0]])).data[0])


# ---------------------------------------------------------------------------
# backward


def test_backward_quadratic():
    x = Tensor2([[3.0]], requires_grad=True)
    tape = GradTape()
    tape.watch(x)
    loss = nk.sum_all(nk.mul(x, x, tape), tape)
    backward(loss, tape)
    np.testing.assert_allclose(x.grad, [[6.0]], atol=1e-12)


def test_backward_disconnected_param_gets_zero():
    x = Tensor2([[2.0]], requires_grad=True)
    p = Tensor2([[5.0]], requires_grad=True)
    tape = GradTape()
    tape.watch(x)
    tape.watch(p)
    loss = nk.sum_all(nk.mul(x, x, tape), tape)
    backward(loss, tape)
    np.testing.assert_array_equal(p.grad, [[0.0]])


def test_backward_requires_scalar_loss():
    x = Tensor2([[1.0, 2.0]], requires_grad=True)
    tape = GradTape()
    tape.watch(x)
    y = nk.mul(x, x, tape)
    with pytest.raises(ContractError):
        backward(y, tape)


def test_backward_accumulates_across_calls():
    x = Tensor2([[3.0]], requires_grad=True)
    tape = GradTape()
    tape.watch(x)
    loss = nk.sum_all(nk.mul(x, x, tape), tape)
    backward(loss, tape)
    backward(loss, tape)
    np.testing.assert_allclose(x.grad, [[12.0]], atol=1e-12)


def test_adjoint_additivity_fanout():
    # y = f(x) + g(x): the adjoint of x is the exact sum of both branches
    x = Tensor2([[1.5, -2.0]], requires_grad=True)
    tape = GradTape()
    tape.watch(x)
    f_branch = nk.scale(x, 3.0, tape)
    g_branch = nk.mul(x, x, tape)
    loss = nk.sum_all(nk.add(f_branch, g_branch, tape), tape)
    backward(loss, tape)
    expected = 3.0 + 2.0 * x.data
    np.testing.assert_allclose(x.grad, expected, atol=1e-12)


def test_backward_composite_chain_matches_finite_differences():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((4, 3))
    target = rng.standard_normal((1, 4))

    def fn(x, tape):
        h = nk.matmul(Tensor2(w), x, tape)
        a = nk.smooth_nonlinearity(nk.transpose(h, tape), tape)
        p = nk.softmax_rows(a, tape)
        return nk.sum_all(nk.mul(p, Tensor2(target), tape), tape)

    err = nk.grad_check(fn, Tensor2(rng.standard_normal((3, 1))), h=1e-6)
    assert err < 1e-5


# ---------------------------------------------------------------------------
# grad_check harness


def test_grad_check_sum_of_squares_tight():
    def fn(x, tape):
        return nk.sum_all(nk.mul(x, x, tape), tape)

    err = nk.grad_check(fn, Tensor2([[1.0, -2.0, 3.0]]), h=1e-6)
    assert err < 1e-9


def test_grad_check_rejects_nondeterministic_fn():
    state = {"calls": 0}

    def fn(x, tape):
        state["calls"] += 1
        return nk.scale(nk.sum_all(x, tape), float(state["calls"]), tape)

    with pytest.raises(ContractError):
        nk.grad_check(fn, Tensor2([[1.0]]))


@pytest.mark.parametrize(
    "name,fn",
    [
        ("matmul", lambda x, tape: nk.sum_all(
            nk.matmul(x, nk.transpose(x, tape), tape), tape)),
        ("add_bias", lambda x, tape: nk.sum_all(
            nk.mul(nk.add(x, Tensor2(np.full((1, 4), 0.3)), tape), x, tape), tape)),
        ("sub", lambda x, tape: nk.sum_all(
            nk.mul(nk.sub(x, Tensor2(np.full((3, 4), 0.2)), tape), x, tape), tape)),
        ("exp", lambda x, tape: nk.mean_all(nk.exp(x, tape), tape)),
        ("smooth", lambda x, tape: nk.mean_all(nk.smooth_nonlinearity(x, tape), tape)),
        ("softmax", lambda x, tape: nk.sum_all(
            nk.mul(nk.softmax_rows(x, tape), x, tape), tape)),
        ("l2norm", lambda x, tape: nk.sum_all(
            nk.mul(nk.l2_normalize_rows(x, tape=tape), x, tape), tape)),
        ("ce", lambda x, tape: nk.cross_entropy_mean(x, [0, 2, 1], tape)),
        ("take_rows", lambda x, tape: nk.sum_all(
            nk.mul(nk.take_rows(x, [0, 0, 2], tape), Tensor2(np.arange(12.0).reshape(3, 4)), tape), tape)),
        ("concat", lambda x, tape: nk.sum_all(
            nk.mul(nk.concat_cols([x, nk.scale(x, 2.0, tape)], tape),
                   Tensor2(np.arange(24.0).reshape(3, 8)), tape), tape)),
    ],
)
def test_grad_check_every_op(name, fn):
    # five seeded random points per differentiable op, as contracted
    rng = np.random.default_rng(sum(name.encode()))
    for _ in range(5):
        point = Tensor2(rng.standard_normal((3, 4)))
        assert nk.grad_check(fn, point, h=1e-6) < 1e-4


def test_cross_entropy_hand_case():
    # one sample, two logits (1, 0), true class 0
    loss = nk.cross_entropy_mean(Tensor2([[1.0, 0.0]]), [0])
    expected = -np.log(np.e / (np.e + 1.0))
    assert loss.item() == pytest.approx(expected, abs=1e-12)
    assert loss.item() == pytest.approx(0.3133, abs=1e-4)


def test_tensor2_shape_and_item_contracts():
    t = Tensor2([1.0, 2.0, 3.0])
    assert t.shape == (1, 3)
    with pytest.raises(ContractError):
        t.item()
    with pytest.raises(DimensionError):
        Tensor2(np.zeros((2, 2, 2)))


def test_finite_guard_raises_on_nan():
    from cgsd.errors import NumericError

    with np.errstate(over="ignore"), pytest.raises(NumericError):
        nk.exp(Tensor2([[1e9]]))
