"""Optimizer, learning-rate plan, EMA and clipping oracles, and the flat
updates against the per-tensor reference in optim_oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optim_oracle as oracle
from cgsd import guidance as gd
from cgsd import optim
from cgsd import pipeline as pl
from cgsd.errors import ContractError
from cgsd.numkit import GradTape, Tensor2, backward


def _param(value):
    return np.array([float(value)])


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_is_fixed_point():
    p = _param(1.25)
    state = optim.AdamState()
    for _ in range(10):
        optim.adam_step(p, np.zeros(1), state, lr=0.1)
    assert p[0] == 1.25


def test_adam_first_step_magnitude_is_lr():
    p = _param(0.0)
    state = optim.AdamState()
    optim.adam_step(p, np.array([7.0]), state, lr=0.1)
    # bias correction makes m_hat = g and v_hat = g^2 on step one
    assert abs(p[0]) == pytest.approx(0.1, rel=1e-6)


def test_adam_two_step_scalar_oracle():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    theta, m, v = 0.5, 0.0, 0.0
    for t in (1, 2):
        g = 1.0
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta -= lr * m_hat / (math.sqrt(v_hat) + eps)

    p = _param(0.5)
    state = optim.AdamState()
    optim.adam_step(p, np.array([1.0]), state, lr=lr)
    optim.adam_step(p, np.array([1.0]), state, lr=lr)
    assert p[0] == pytest.approx(theta, abs=1e-12)


# ---------------------------------------------------------------------------
# RAdam


def test_radam_first_step_takes_unadapted_branch():
    # rho_1 = rho_inf - 2*b2/(1-b2) = 1999 - 1998 = 1 <= 4
    b2 = 0.999
    rho_inf = 2.0 / (1.0 - b2) - 1.0
    rho_1 = rho_inf - 2.0 * b2 / (1.0 - b2)
    assert rho_1 == pytest.approx(1.0, abs=1e-9)

    p = _param(0.0)
    state = optim.AdamState()
    optim.radam_step(p, np.array([2.0]), state, lr=0.1)
    # un-adapted branch: theta -= lr * m_hat, with m_hat = g after correction
    assert p[0] == pytest.approx(-0.2, abs=1e-12)


def test_radam_converges_to_adam_for_large_t():
    ga = np.array([1.0])
    pa, pr = _param(0.0), _param(0.0)
    sa, sr = optim.AdamState(), optim.AdamState()
    for _ in range(5000):
        optim.adam_step(pa, ga, sa, lr=1e-3)
        optim.radam_step(pr, ga, sr, lr=1e-3)
    # the rectifier approaches 1, so late-step updates converge to Adam's
    before_a, before_r = pa[0], pr[0]
    optim.adam_step(pa, ga, sa, lr=1e-3)
    optim.radam_step(pr, ga, sr, lr=1e-3)
    delta_a = pa[0] - before_a
    delta_r = pr[0] - before_r
    # the rectifier reaches ~0.983 by step 5000 and approaches 1 monotonically
    assert delta_r == pytest.approx(delta_a, rel=0.02)


def test_radam_zero_gradient_is_fixed_point():
    p = _param(-3.5)
    state = optim.AdamState()
    for _ in range(10):
        optim.radam_step(p, np.zeros(1), state, lr=0.1)
    assert p[0] == -3.5


# ---------------------------------------------------------------------------
# learning-rate plan


STAGE1_PLAN = optim.LrPlan(
    base_lr=1e-4, min_lr=1e-5, warmup_start_lr=1e-5, warmup_epochs=3, total_epochs=22
)


def test_lr_epoch_zero_is_warmup_start():
    assert optim.lr_at(0, STAGE1_PLAN) == pytest.approx(1e-5, abs=1e-18)


def test_lr_last_epoch_is_min_lr():
    assert optim.lr_at(21, STAGE1_PLAN) == pytest.approx(1e-5, abs=1e-18)


def test_lr_cosine_midpoint():
    # span = total-1-warmup = 18, midpoint epoch = 3 + 9
    plan = STAGE1_PLAN
    mid = optim.lr_at(3 + 9, plan)
    assert mid == pytest.approx((plan.base_lr + plan.min_lr) / 2.0, abs=1e-12)


def test_lr_continuous_at_warmup_boundary():
    assert optim.lr_at(3, STAGE1_PLAN) == pytest.approx(1e-4, abs=1e-15)


def test_lr_nonincreasing_after_warmup():
    values = [optim.lr_at(e, STAGE1_PLAN) for e in range(3, 22)]
    assert all(a >= b - 1e-18 for a, b in zip(values, values[1:]))


def test_lr_out_of_range_raises():
    with pytest.raises(ContractError):
        optim.lr_at(22, STAGE1_PLAN)
    with pytest.raises(ContractError):
        optim.lr_at(-1, STAGE1_PLAN)


_RATE = st.floats(min_value=1e-9, max_value=1.0)


@settings(max_examples=300, deadline=None)
@given(
    rates=st.tuples(_RATE, _RATE, st.floats(min_value=pl.RunConfig.lr_min, max_value=1.0)),
    epochs=st.tuples(*[st.integers(min_value=0, max_value=30)] * 4),
)
def test_lr_plan_invariants(rates, epochs):
    # every plan the training loops build from a valid RunConfig, including
    # guidance rates below the floor lr_min and below the fixed warmup start,
    # and a drawn warmup, holds LrPlan's invariants and keeps each epoch's rate
    # in (0, base_lr]; every plan floors at min(lr_min, base_lr), and every
    # warmup starts at min(warmup_start_lr, base_lr)
    lr_lora, lr_prompt, stage2_lr = rates
    cfg = pl.RunConfig(
        lr_lora=lr_lora, lr_prompt=lr_prompt, stage2_lr=stage2_lr, pretrain_epochs=epochs[0],
        stage1_epochs=epochs[1], stage2_epochs=epochs[3],
    )
    plans = [
        pl._lr_plan(cfg.pretrain_lr, 0, cfg.pretrain_epochs),
        pl._lr_plan(cfg.lr_lora, epochs[2], cfg.stage1_epochs),
        pl._lr_plan(cfg.lr_prompt, epochs[2], cfg.stage1_epochs),
        pl._lr_plan(cfg.stage2_lr, 0, cfg.stage2_epochs),
    ]
    assert [plan.min_lr for plan in plans] == [min(cfg.lr_min, plan.base_lr) for plan in plans]
    assert [plan.warmup_start_lr for plan in plans] == [
        min(cfg.warmup_start_lr, plan.base_lr) for plan in plans]
    for plan in plans:
        assert 0 < plan.min_lr <= plan.base_lr
        assert plan.warmup_epochs < plan.total_epochs
        for epoch in range(plan.total_epochs):
            assert 0 < optim.lr_at(epoch, plan) <= plan.base_lr


def test_lr_never_rounds_above_base():
    # 0.03 + (0.3 - 0.03) rounds one ulp above 0.3; the first cosine epoch
    # returns base_lr
    base, floor = 0.3, 0.03
    assert floor + 0.5 * (base - floor) * 2.0 > base
    plan = optim.LrPlan(base, floor, floor, 0, 5)
    assert optim.lr_at(0, plan) == base


# ---------------------------------------------------------------------------
# EMA


def test_ema_degenerate_decays():
    p = _param(1.0)
    ema = optim.EmaState(mu=0.0, shadow=np.zeros(1))
    optim.ema_update(ema, p)
    assert ema.shadow[0] == 1.0

    ema = optim.EmaState(mu=1.0, shadow=np.full(1, 9.0))
    optim.ema_update(ema, p)
    assert ema.shadow[0] == 9.0

    ema = optim.EmaState(mu=0.5, shadow=np.zeros(1))
    optim.ema_update(ema, p)
    assert ema.shadow[0] == 0.5


def test_ema_geometric_convergence():
    mu = 0.9
    theta = 2.0
    p = _param(theta)
    shadow0 = 5.0
    ema = optim.EmaState(mu=mu, shadow=np.full(1, shadow0))
    for n in range(1, 30):
        optim.ema_update(ema, p)
        expected = theta + mu**n * (shadow0 - theta)
        assert ema.shadow[0] == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# gradient clipping


def _with_grads(grads):
    """A FlatParams of zero tensors whose gradient buffer holds grads."""
    flat = optim.FlatParams([Tensor2(np.zeros_like(g)) for g in grads])
    for dst, g in zip(flat.grads, grads):
        np.copyto(dst, g)
    return flat


def test_clip_hand_case():
    flat = _with_grads([np.array([[3.0, 4.0]])])
    norm = optim.clip_grad_norm(flat, max_norm=1.0)
    assert norm == 5.0
    np.testing.assert_allclose(flat.grad, [0.6, 0.8], atol=1e-12)


def test_clip_noop_below_threshold():
    flat = _with_grads([np.array([[0.3], [0.4]])])
    before = flat.grad.copy()
    norm = optim.clip_grad_norm(flat, max_norm=1.0)
    assert norm == pytest.approx(0.5)
    assert np.array_equal(flat.grad, before)  # untouched, bit-identical


def test_clip_preserves_direction():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((3, 5)) * 10
    flat = _with_grads([g])
    optim.clip_grad_norm(flat, max_norm=1.0)
    clipped = flat.grads[0]
    cos = np.sum(g * clipped) / (np.linalg.norm(g) * np.linalg.norm(clipped))
    assert cos == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=3,
    ),
    st.floats(min_value=1e-3, max_value=10.0),
)
def test_clip_bounds_global_norm(rows, max_norm):
    flat = _with_grads([np.array([row]) for row in rows])
    optim.clip_grad_norm(flat, max_norm)
    total = math.sqrt(sum(float(np.sum(g * g)) for g in flat.grads))
    assert total <= max_norm + 1e-9


# ---------------------------------------------------------------------------
# flat updates against the per-tensor reference


_SHAPES = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 5)), min_size=2, max_size=4
)


def _group(shapes, seed):
    """Two copies of one random group: Tensor2s for the per-tensor
    reference, and a FlatParams over equal tensors."""
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal(shape) for shape in shapes]
    return [Tensor2(v) for v in values], optim.FlatParams([Tensor2(v) for v in values])


def _grad_steps(shapes, seed, steps):
    """Per step, one gradient per tensor, with some zero and some large
    entries (so v_hat spans several magnitudes)."""
    rng = np.random.default_rng(seed + 1)
    out = []
    for _ in range(steps):
        grads = [rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3) for shape in shapes]
        grads[0][0, 0] = 0.0
        out.append(grads)
    return out


def _assert_same(tensors, flat):
    for want, got in zip(tensors, flat.params, strict=True):
        assert np.array_equal(want.data, got.data)
        assert np.shares_memory(got.data, flat.data)


@settings(max_examples=40, deadline=None)
@given(_SHAPES, st.integers(0, 2**32 - 1), st.sampled_from([1e-4, 3e-4, 0.1]),
       st.sampled_from(["adam", "radam"]))
def test_flat_adam_and_radam_match_per_tensor(shapes, seed, lr, rule):
    # seven steps: RAdam's rho_t is below 4 on steps 1-4 (plain momentum)
    # and above it from step 5 (the rectified adaptive step)
    tensors, flat = _group(shapes, seed)
    want, got = oracle.AdamState(), optim.AdamState()
    step_want = getattr(oracle, f"{rule}_step")
    step_got = getattr(optim, f"{rule}_step")
    for grads in _grad_steps(shapes, seed, 7):
        step_want(tensors, grads, want, lr)
        for dst, g in zip(flat.grads, grads):
            np.copyto(dst, g)
        step_got(flat.data, flat.grad, got, lr)
        _assert_same(tensors, flat)
    assert np.array_equal(np.concatenate([m.ravel() for m in want.m]), got.m)
    assert np.array_equal(np.concatenate([v.ravel() for v in want.v]), got.v)


@settings(max_examples=40, deadline=None)
@given(_SHAPES, st.integers(0, 2**32 - 1), st.sampled_from([1e-4, 3e-4, 0.1]),
       st.sampled_from(["adam", "radam"]))
def test_per_value_rate_equal_to_a_scalar_takes_the_scalar_step(shapes, seed, lr, rule):
    # a rate array holding one value everywhere gives the scalar rate's bits,
    # over RAdam's plain-momentum steps 1-4 and its rectified steps from 5
    _, scalar = _group(shapes, seed)
    _, per_value = _group(shapes, seed)
    states = optim.AdamState(), optim.AdamState()
    rates = np.full_like(per_value.data, lr)
    step = getattr(optim, f"{rule}_step")
    for grads in _grad_steps(shapes, seed, 7):
        for flat, state, rate in zip((scalar, per_value), states, (lr, rates)):
            for dst, g in zip(flat.grads, grads):
                np.copyto(dst, g)
            step(flat.data, flat.grad, state, rate)
        assert np.array_equal(scalar.data, per_value.data)


@settings(max_examples=40, deadline=None)
@given(_SHAPES, st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.5, 0.9, 0.99]))
def test_flat_ema_matches_per_tensor(shapes, seed, mu):
    tensors, flat = _group(shapes, seed)
    want = oracle.EmaState.from_params(tensors, mu)
    got = optim.EmaState.from_params(flat.data, mu)
    for grads in _grad_steps(shapes, seed, 5):
        # move the weights, then average them
        for t, p, g in zip(tensors, flat.params, grads):
            t.data = t.data + g
            p.data += g
        oracle.ema_update(want, tensors)
        optim.ema_update(got, flat.data)
        assert np.array_equal(np.concatenate([s.ravel() for s in want.shadow]), got.shadow)


@pytest.mark.parametrize("triggered", [True, False])
@settings(max_examples=30, deadline=None)
@given(shapes=_SHAPES, seed=st.integers(0, 2**32 - 1))
def test_flat_clip_matches_per_tensor(triggered, shapes, seed):
    (grads,) = _grad_steps(shapes, seed, 1)
    _, norm = oracle.clip_grad_norm(grads, math.inf)
    max_norm = norm / 3.0 if triggered else norm * 3.0
    want, want_norm = oracle.clip_grad_norm(grads, max_norm)
    flat = _with_grads(grads)
    got_norm = optim.clip_grad_norm(flat, max_norm)
    assert got_norm == want_norm
    assert (got_norm > max_norm) == triggered
    assert np.array_equal(np.concatenate([g.ravel() for g in want]), flat.grad)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_stage1_groups_from_one_gradient_buffer_match_per_tensor(seed):
    # stage 1's two groups (adapter; prompts and log scale) laid out in one
    # FlatParams, stepped by one RAdam state with a rate per value and fed
    # from the one buffer backward fills, against two per-tensor groups with
    # a state each, fed from fresh gradient arrays
    build = dict(d_in=10, hidden=12, d_model=8, k=5, rank=2, alpha=4.0, seed=seed)
    ref, model = gd.GuidanceModel.build(**build), gd.GuidanceModel.build(**build)
    ref_groups = [ref.lora_params(), ref.prompt_params()]
    flat = optim.FlatParams(model.lora_params(), model.prompt_params())
    want = [oracle.AdamState(), oracle.AdamState()]
    got, rates = optim.AdamState(), np.empty_like(flat.data)
    rng = np.random.default_rng(seed)
    for step in range(6):
        feats = rng.standard_normal((6, 10))
        labels = rng.integers(0, 5, 6)
        lrs = (1e-3 * (step + 1), 2e-2)
        for span, lr in zip(flat.spans, lrs, strict=True):
            rates[span] = lr

        tape = GradTape()
        loss = gd.guidance_loss(feats, labels, ref, 1.0, 0.05, tape)
        grads = iter(backward(loss, tape, [p for g in ref_groups for p in g]))
        for params, state, lr in zip(ref_groups, want, lrs):
            oracle.radam_step(params, [next(grads) for _ in params], state, lr)

        tape = GradTape()
        loss = gd.guidance_loss(feats, labels, model, 1.0, 0.05, tape)
        backward(loss, tape, flat.params, out=flat.grads)
        optim.radam_step(flat.data, flat.grad, got, rates)

        for t_ref, t in zip(ref.lora_params() + ref.prompt_params(), flat.params):
            assert np.array_equal(t_ref.data, t.data)
    for t_ref, t in zip(ref.base_params(), model.base_params()):
        assert np.array_equal(t_ref.data, t.data)


def test_flat_params_views_and_spans():
    a, b, c = Tensor2(np.ones((2, 3))), Tensor2(np.full((1, 4), 2.0)), Tensor2([[5.0]])
    flat = optim.FlatParams([a, b], [c])
    assert flat.spans == [slice(0, 10), slice(10, 11)]
    np.testing.assert_array_equal(flat.data, [1.0] * 6 + [2.0] * 4 + [5.0])
    flat.data[10] = 7.0
    assert c.item() == 7.0
    for p, g in zip(flat.params, flat.grads):
        assert p.data.flags.c_contiguous and g.shape == p.shape
