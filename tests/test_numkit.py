"""Tensor ops, the gradient tape, and the finite-difference harness."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgsd import diffusion as df
from cgsd import guidance as gd
from cgsd import numkit as nk
from cgsd import optim
from cgsd.errors import ContractError, DimensionError, NumericError
from cgsd.numkit import GradTape, Tensor2, backward
from gradcheck import full_backward, grad_check
import taped_ops as tops


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
    out = nk.softmax_rows(np.array([[0.0, 0.0]]))
    np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-15)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 4))
    a = nk.softmax_rows(x)
    b = nk.softmax_rows(x + 123.456)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_large_logits_no_overflow():
    out = nk.softmax_rows(np.array([[1000.0, 0.0]]))
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
    out = nk.softmax_rows(np.array([row]))
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


def test_l2_normalize_refuses_a_row_norm_below_eps():
    # a row with no direction has nothing to scale to unit norm
    for row in ([0.0, 0.0], [1e-13, 0.0]):
        with pytest.raises(NumericError, match="row norm below"):
            nk.l2_normalize_rows(Tensor2([[3.0, 4.0], row]))
    assert nk.l2_normalize_rows(Tensor2([[nk.NORM_EPS, 0.0]])).data[0, 0] == 0.5


# ---------------------------------------------------------------------------
# smooth nonlinearity


@pytest.mark.parametrize("value", [1e200, 1e300, np.inf, np.nan])
def test_l2_normalize_refuses_a_non_finite_row_norm(value):
    # an overflowed norm would divide the row to zeros: [[1e200, 1e200]]
    # came back as [[0, 0]]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NumericError, match="l2_normalize_rows"
    ):
        nk.l2_normalize_rows(Tensor2([[1.0, 0.0], [value, value]]))


def test_smooth_nonlinearity_values():
    g = lambda x: nk.smooth_nonlinearity(np.array([[x]]))[0][0, 0]
    assert g(0.0) == 0.0
    assert g(1.0) == pytest.approx(1.0 * logistic(1.702), abs=1e-12)
    assert g(1.0) == pytest.approx(0.8458, abs=1e-4)
    assert abs(g(-10.0)) < 1e-3
    assert g(50.0) == pytest.approx(50.0, abs=1e-6)


def test_smooth_nonlinearity_large_negative_input_warns_nothing():
    # exp(-1.702 x) overflows to inf for x = -1000, so the gate is exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = nk.smooth_nonlinearity(np.array([[-1000.0, 3.0]]))[0]
    assert out[0, 0] == 0.0 and np.signbit(out[0, 0])
    np.testing.assert_array_equal(out[0, 1:], nk.smooth_nonlinearity(np.array([[3.0]]))[0][0])


def test_sigmoid_gate_keeps_the_bits_of_negating_the_product():
    # sigmoid_gate scales by -1.702 in one multiply; the gate as first written
    # negated the product 1.702 a, which rounds to the same magnitude
    tiny = np.finfo(np.float64).smallest_subnormal
    edge = 417.0 + np.arange(-40, 41) * 2.0**-44
    a = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 2.0**-1070, -(2.0**-1030)],
        edge, -edge, np.linspace(-417.5, 417.5, 1001),
    ])
    with np.errstate(over="ignore"):
        want = 1.0 / (1.0 + np.exp(-(a * 1.702)))
    assert np.array_equal(nk.sigmoid_gate(a, np.empty_like(a)).view(np.int64),
                          want.view(np.int64))
    in_place = a.copy()
    nk.sigmoid_gate(in_place, in_place)
    assert np.array_equal(in_place.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# backward


def test_backward_quadratic():
    x = Tensor2([[3.0]])
    tape = GradTape()
    loss = nk.sum_all(nk.mul(x, x, tape), tape)
    (g,) = backward(loss, tape, [x])
    np.testing.assert_allclose(g, [[6.0]], atol=1e-12)


def test_backward_disconnected_param_gets_zero():
    x = Tensor2([[2.0]])
    p = Tensor2([[5.0]])
    tape = GradTape()
    loss = nk.sum_all(nk.mul(x, x, tape), tape)
    _, gp = backward(loss, tape, [x, p])
    np.testing.assert_array_equal(gp, [[0.0]])


def test_backward_requires_scalar_loss():
    x = Tensor2([[1.0, 2.0]])
    tape = GradTape()
    y = nk.mul(x, x, tape)
    with pytest.raises(ContractError):
        backward(y, tape, [x])


def test_backward_rejects_a_loss_from_another_tape():
    x = Tensor2([[1.0]])
    tape = GradTape()
    loss = nk.sum_all(nk.mul(x, x, tape), tape)
    with pytest.raises(ContractError):
        backward(loss, GradTape(), [x])


def test_backward_repeated_calls_return_equal_arrays():
    # backward keeps no state: a second sweep of one tape gives the same
    # gradient, in new arrays
    x = Tensor2([[3.0, -1.0]])
    tape = GradTape()
    loss = nk.sum_all(nk.mul(x, x, tape), tape)
    (first,) = backward(loss, tape, [x])
    (second,) = backward(loss, tape, [x])
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(first, [[6.0, -2.0]])
    assert first is not second


def test_backward_returns_fresh_c_order_arrays():
    # the layer DenoiserNet.forward computes, x @ w^T + b, plus two
    # parameters summed by a same-shape add: w's adjoint is a transposed
    # view, and c and e receive one shared adjoint array
    rng = np.random.default_rng(21)
    x = Tensor2(rng.standard_normal((5, 4)))
    w = Tensor2(rng.standard_normal((3, 4)))
    b = Tensor2(rng.standard_normal((1, 3)))
    c = Tensor2(rng.standard_normal((5, 3)))
    e = Tensor2(rng.standard_normal((5, 3)))
    tape = GradTape()
    layer = nk.dense(x, w, b, False, tape)
    z = nk.add(layer, nk.add(c, e, tape), tape)
    loss = nk.sum_all(nk.mul(z, z, tape), tape)
    params = [x, w, b, c, e]
    grads = backward(loss, tape, params)
    for p, g in zip(params, grads):
        assert g.shape == p.shape
        assert g.flags.c_contiguous and g.flags.owndata
    for g1, g2 in itertools.combinations(grads, 2):
        assert not np.shares_memory(g1, g2)
    np.testing.assert_array_equal(grads[3], grads[4])
    np.testing.assert_allclose(grads[2], 2.0 * z.data.sum(axis=0, keepdims=True))


def test_adjoint_additivity_fanout():
    # y = f(x) + g(x): the adjoint of x is the exact sum of both branches
    x = Tensor2([[1.5, -2.0]])
    tape = GradTape()
    f_branch = nk.scale(x, 3.0, tape)
    g_branch = nk.mul(x, x, tape)
    loss = nk.sum_all(nk.add(f_branch, g_branch, tape), tape)
    (g,) = backward(loss, tape, [x])
    expected = 3.0 + 2.0 * x.data
    np.testing.assert_allclose(g, expected, atol=1e-12)


def test_backward_composite_chain_matches_finite_differences():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((4, 3))
    target = rng.standard_normal((1, 4))

    def fn(x, tape):
        h = nk.matmul(Tensor2(w), x, tape)
        a = tops.smooth_nonlinearity(nk.transpose(h, tape), tape)
        p = tops.softmax_rows(a, tape)
        return nk.sum_all(nk.mul(p, Tensor2(target), tape), tape)

    err = grad_check(fn, Tensor2(rng.standard_normal((3, 1))), h=1e-6)
    assert err < 1e-5


# ---------------------------------------------------------------------------
# pruned backward against the full sweep


def _adapted_model(seed):
    """A guidance model whose lora_b is not zero, so that every tensor has a
    nonzero gradient."""
    model = gd.GuidanceModel.build(d_in=10, hidden=12, d_model=8, k=5, rank=2,
                                   alpha=4.0, seed=seed)
    model.lora_b.data = np.random.default_rng(seed).standard_normal(model.lora_b.shape)
    return model


def _guidance_batch(seed):
    rng = np.random.default_rng(seed + 100)
    return rng.standard_normal((7, 10)), rng.integers(0, 5, 7)


def _assert_pruned_matches_full(loss, tape, params):
    want = full_backward(loss, tape, params)
    got = backward(loss, tape, params)
    into = optim.FlatParams([Tensor2(p.data) for p in params])
    into.grad.fill(np.nan)
    backward(loss, tape, params, out=into.grads)
    for w, g, v in zip(want, got, into.grads, strict=True):
        assert np.array_equal(w, g) and np.array_equal(w, v)
    assert any(np.any(w != 0.0) for w in want)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("requested", ["stage 1", "every parameter"])
def test_pruned_backward_matches_full_sweep_on_guidance_loss(seed, requested):
    model = _adapted_model(seed)
    params = model.lora_params() + model.prompt_params()
    if requested == "every parameter":
        params = model.base_params() + params
    tape = GradTape()
    loss = gd.guidance_loss(*_guidance_batch(seed), model, 1.0, 0.05, tape)
    _assert_pruned_matches_full(loss, tape, params)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pruned_backward_matches_full_sweep_on_epsilon_loss(seed):
    # the net's input (the conditioning rows) and the target noise are never
    # requested
    rng = np.random.default_rng(seed)
    n, d_model, k = 9, 8, 5
    net = df.DenoiserNet.build(d_model, k, seed)
    sched = df.make_schedule(20, 1e-3, 0.2)
    prior = nk.softmax_rows(rng.standard_normal((n, k)))
    t_values, eps = rng.integers(1, sched.t_total + 1, n), rng.standard_normal((n, k))
    tape = GradTape()
    loss = df.epsilon_loss(
        net, rng.standard_normal((n, d_model)), np.eye(k)[rng.integers(0, k, n)], prior,
        rng.uniform(-1, 1, (n, k)), sched, t_values, eps, tape,
    )
    _assert_pruned_matches_full(loss, tape, net.params())


def test_stage1_backward_makes_no_product_for_the_frozen_encoder():
    # every vjp of the guidance loss's records, named by the input whose
    # adjoint it makes: the first layer (the input batch, w1, b1), the adapted
    # projection (h, w2, lora_a, lora_b, b2), the normalisation (z) and the
    # head (f, prompts, log_scale)
    model = _adapted_model(4)
    feats, labels = _guidance_batch(4)
    tape = GradTape()
    loss = gd.guidance_loss(feats, labels, model, 1.0, 0.05, tape)
    names = {id(t): name for name, t in vars(model).items() if isinstance(t, Tensor2)}
    names |= {id(out): name for (out, _, _), name in zip(tape._records, ("h", "z", "f"))}
    ran = []
    for i, (out, inputs, vjps) in enumerate(tape._records):
        tape._records[i] = (out, inputs, tuple(
            lambda g, name=names.get(id(inp), "the input batch"), vjp=vjp:
                ran.append(name) or vjp(g)
            for inp, vjp in zip(inputs, vjps, strict=True)
        ))
    stage1 = model.lora_params() + model.prompt_params()

    full_backward(loss, tape, stage1)
    assert sorted(ran) == sorted(["the input batch", "w1", "b1", "h", "w2", "lora_a",
                                  "lora_b", "b2", "z", "f", "prompts", "log_scale"])
    ran.clear()
    backward(loss, tape, stage1)
    # the adapter's rank-2 input h @ a^T needs only a's product; every other
    # product of the frozen encoder, and the input batch's, is skipped
    assert sorted(ran) == sorted(["lora_a", "lora_b", "z", "f", "prompts", "log_scale"])


# ---------------------------------------------------------------------------
# dense against the per-op chain it replaces


def _per_op_dense(x, w, b, gate, tape):
    """One dense layer as the ops it was first written with: the C-order
    transposed weight, the matmul, the bias add and the gate."""
    h = nk.matmul(x, nk.transpose(w, tape), tape)
    if b is not None:
        h = nk.add(h, b, tape)
    return tops.smooth_nonlinearity(h, tape) if gate else h


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("rows", [1, 3, 32, 65])
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("gate", [True, False])
@pytest.mark.parametrize("fan_in,fan_out", [(77, 128), (128, 3)])
def test_dense_matches_the_per_op_chain(rows, bias, gate, fan_in, fan_out):
    # one row is numpy's matrix-vector path; 128 -> 3 is a narrow head
    rng = np.random.default_rng(rows * 7 + fan_out)
    x = Tensor2(rng.standard_normal((rows, fan_in)))
    w = Tensor2(rng.standard_normal((fan_out, fan_in)) / math.sqrt(fan_in))
    b = Tensor2(rng.standard_normal((1, fan_out))) if bias else None
    c = Tensor2(rng.standard_normal((rows, fan_out)))
    # a -0.0 adjoint keeps its sign through the one-row bias add, and a sum
    # over rows would turn it into 0.0
    c.data[0, 0] = -0.0
    params = [x, w] + ([b] if bias else [])
    results = []
    for layer in (nk.dense, _per_op_dense):
        tape = GradTape()
        out = layer(x, w, b, gate, tape)
        loss = nk.mean_all(nk.mul(out, c, tape), tape)
        results.append((out.data, backward(loss, tape, params), backward(loss, tape, [w])))
        if layer is nk.dense:
            assert len(tape) == 3
    (out, grads, (w_only,)), (ref, ref_grads, (ref_w_only,)) = results
    assert _same_bits(out, ref)
    assert _same_bits(nk.dense(x, w, b, gate).data, ref)
    assert all(_same_bits(g, r) for g, r in zip(grads, ref_grads, strict=True))
    assert _same_bits(w_only, ref_w_only) and _same_bits(w_only, grads[1])


def test_dense_writes_into_a_reused_workspace():
    rng = np.random.default_rng(5)
    w, b = Tensor2(rng.standard_normal((4, 6))), Tensor2(rng.standard_normal((1, 4)))
    work = (w.data.T.copy(), np.empty((3, 4)), np.empty((3, 4)))
    for _ in range(2):
        x = Tensor2(rng.standard_normal((3, 6)))
        out = nk.dense(x, w, b, True, out=work)
        assert out.data is work[1]
        assert _same_bits(out.data, nk.dense(x, w, b, True).data)
    # a taped layer keeps its own arrays, which its vjps read
    assert nk.dense(x, w, b, True, GradTape(), out=work).data is not work[1]
    with pytest.raises(DimensionError):
        nk.dense(x, Tensor2(np.zeros((4, 5))), None, False)
    with pytest.raises(DimensionError):
        nk.dense(x, w, Tensor2(np.zeros((1, 3))), False)


def _l2_normalize_per_op(a):
    """l2_normalize_rows with np.linalg.norm's norms and np.sum's dot: the
    rows and their adjoint for an upstream g."""
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    denom = norms + nk.NORM_EPS

    def vjp(g):
        dot = np.sum(g * a, axis=1, keepdims=True)
        return g / denom - a * dot / (norms * denom * denom)

    return a / denom, vjp


def _cross_entropy_per_op(z, y):
    """cross_entropy_mean with ndarray's max, sum and mean, and the softmax
    made in the forward: the loss and its adjoint for an upstream g."""
    m = z.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
    logp = z - lse
    n = z.shape[0]
    soft = np.exp(logp)

    def vjp(g):
        grad = soft.copy()
        grad[np.arange(n), y] -= 1.0
        return grad * (g[0, 0] / n)

    return -logp[np.arange(n), y].mean(), vjp


# one row, a wide row, the guidance head's 5-grade and 64-row shapes, and a
# width (128) whose pairwise sums differ from a left-to-right loop
SHAPES = [(1, 5), (1, 300), (3, 7), (64, 5), (64, 128), (37, 129)]


@pytest.mark.parametrize("shape", SHAPES)
def test_l2_normalize_fwd_matches_linalg_norm(shape):
    rng = np.random.default_rng(shape[0] * 131 + shape[1])
    a = rng.standard_normal(shape) * rng.uniform(0.1, 10.0, (shape[0], 1))
    g = rng.standard_normal(shape)
    out, vjp = nk.l2_normalize_fwd(a)
    ref, ref_vjp = _l2_normalize_per_op(a)
    assert _same_bits(out, ref)
    assert _same_bits(vjp(g), ref_vjp(g))
    assert _same_bits(nk.l2_normalize_rows(Tensor2(a)).data, ref)


@pytest.mark.parametrize("shape", SHAPES)
def test_cross_entropy_fwd_matches_the_mean_form(shape):
    rng = np.random.default_rng(shape[0] * 137 + shape[1])
    z = rng.standard_normal(shape) * 4.0
    y = rng.integers(0, shape[1], shape[0]).astype(np.intp)
    g = np.array([[rng.uniform(0.5, 2.0)]])
    loss, vjp = nk.cross_entropy_mean(z, y)
    ref, ref_vjp = _cross_entropy_per_op(z, y)
    assert _same_bits(np.float64(loss), np.float64(ref))
    assert _same_bits(vjp(g), ref_vjp(g))
    assert _same_bits(tops.cross_entropy_mean(Tensor2(z), y).data, np.array([[ref]]))


@pytest.mark.parametrize("shape", SHAPES)
def test_mean_all_matches_ndarray_mean(shape):
    a = np.random.default_rng(shape[0] * 139 + shape[1]).standard_normal(shape)
    assert _same_bits(nk.mean_all(Tensor2(a)).data, np.array([[a.mean()]]))


# ---------------------------------------------------------------------------
# grad_check harness


def test_grad_check_sum_of_squares_tight():
    def fn(x, tape):
        return nk.sum_all(nk.mul(x, x, tape), tape)

    err = grad_check(fn, Tensor2([[1.0, -2.0, 3.0]]), h=1e-6)
    assert err < 1e-9


def _square_with_doubled_vjp(x, tape):
    # x * x, recording twice the true vjp
    out = Tensor2(x.data * x.data)
    if tape is not None:
        xd = x.data
        tape.record(out, (x,), (lambda g: 2.0 * (2.0 * xd * g),))
    return out


def test_grad_check_catches_a_wrong_vjp():
    def fn(x, tape):
        return nk.sum_all(_square_with_doubled_vjp(x, tape), tape)

    assert grad_check(fn, Tensor2([[1.0, -2.0, 3.0]]), h=1e-6) > 1e-2


def test_grad_check_rejects_nondeterministic_fn():
    state = {"calls": 0}

    def fn(x, tape):
        state["calls"] += 1
        return nk.scale(nk.sum_all(x, tape), float(state["calls"]), tape)

    with pytest.raises(ContractError):
        grad_check(fn, Tensor2([[1.0]]))


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
        ("smooth", lambda x, tape: nk.mean_all(tops.smooth_nonlinearity(x, tape), tape)),
        ("softmax", lambda x, tape: nk.sum_all(
            nk.mul(tops.softmax_rows(x, tape), x, tape), tape)),
        ("l2norm", lambda x, tape: nk.sum_all(
            nk.mul(nk.l2_normalize_rows(x, tape=tape), x, tape), tape)),
        ("ce", lambda x, tape: tops.cross_entropy_mean(x, [0, 2, 1], tape)),
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
        assert grad_check(fn, point, h=1e-6) < 1e-4


def test_cross_entropy_hand_case():
    # one sample, two logits (1, 0), true class 0
    loss = tops.cross_entropy_mean(Tensor2([[1.0, 0.0]]), [0])
    expected = -np.log(np.e / (np.e + 1.0))
    assert loss.item() == pytest.approx(expected, abs=1e-12)
    assert loss.item() == pytest.approx(0.3133, abs=1e-4)


def test_tensor2_wraps_a_float64_array_without_copying():
    a = np.arange(6.0).reshape(2, 3)
    assert Tensor2(a).data is a
    assert Tensor2(np.arange(3)).data.dtype == np.float64


def test_tensor2_shape_and_item_contracts():
    t = Tensor2([1.0, 2.0, 3.0])
    assert t.shape == (1, 3)
    with pytest.raises(ContractError):
        t.item()
    with pytest.raises(DimensionError):
        Tensor2(np.zeros((2, 2, 2)))


def test_finite_guard_raises_on_nan():
    # the ops pass a nan or inf on; the guard refuses it where it is called
    with np.errstate(over="ignore"):
        out = nk.exp(Tensor2([[1e9]])).data
    with pytest.raises(NumericError, match="exp"):
        nk.check_finite(out, "exp")
    with pytest.raises(NumericError):
        nk.check_finite(np.array([[0.0, np.nan]]), "a row")
    ones = np.ones((2, 2))
    assert nk.check_finite(ones, "ones") is ones
    # a training loop's loss, a Python float
    for value in (float("nan"), float("inf")):
        with pytest.raises(NumericError, match="the loss of stage2 epoch 0"):
            nk.check_finite(value, "the loss of stage2 epoch 0")
    assert nk.check_finite(1.0, "the loss of stage1 epoch 3") == 1.0
