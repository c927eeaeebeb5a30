"""Optimizer, learning-rate plan, EMA and clipping oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgsd import optim
from cgsd.errors import ConfigError, ContractError
from cgsd.numkit import Tensor2


def _param(value):
    return Tensor2(np.array([[float(value)]]))


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_is_fixed_point():
    p = _param(1.25)
    state = optim.AdamState()
    for _ in range(10):
        optim.adam_step([p], [np.zeros((1, 1))], state, lr=0.1)
    assert p.data[0, 0] == 1.25


def test_adam_first_step_magnitude_is_lr():
    p = _param(0.0)
    state = optim.AdamState()
    optim.adam_step([p], [np.array([[7.0]])], state, lr=0.1)
    # bias correction makes m_hat = g and v_hat = g^2 on step one
    assert abs(p.data[0, 0]) == pytest.approx(0.1, rel=1e-6)


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
    optim.adam_step([p], [np.array([[1.0]])], state, lr=lr)
    optim.adam_step([p], [np.array([[1.0]])], state, lr=lr)
    assert p.data[0, 0] == pytest.approx(theta, abs=1e-12)


def test_adam_shape_mismatch_raises():
    p = _param(0.0)
    state = optim.AdamState()
    with pytest.raises(ContractError):
        optim.adam_step([p], [np.zeros((2, 2))], state, lr=0.1)


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
    optim.radam_step([p], [np.array([[2.0]])], state, lr=0.1)
    # un-adapted branch: theta -= lr * m_hat, with m_hat = g after correction
    assert p.data[0, 0] == pytest.approx(-0.2, abs=1e-12)


def test_radam_converges_to_adam_for_large_t():
    ga = np.array([[1.0]])
    pa, pr = _param(0.0), _param(0.0)
    sa, sr = optim.AdamState(), optim.AdamState()
    for _ in range(5000):
        optim.adam_step([pa], [ga], sa, lr=1e-3)
        optim.radam_step([pr], [ga], sr, lr=1e-3)
    # the rectifier approaches 1, so late-step updates converge to Adam's
    before_a, before_r = pa.data[0, 0], pr.data[0, 0]
    optim.adam_step([pa], [ga], sa, lr=1e-3)
    optim.radam_step([pr], [ga], sr, lr=1e-3)
    delta_a = pa.data[0, 0] - before_a
    delta_r = pr.data[0, 0] - before_r
    # the rectifier reaches ~0.983 by step 5000 and approaches 1 monotonically
    assert delta_r == pytest.approx(delta_a, rel=0.02)


def test_radam_zero_gradient_is_fixed_point():
    p = _param(-3.5)
    state = optim.AdamState()
    for _ in range(10):
        optim.radam_step([p], [np.zeros((1, 1))], state, lr=0.1)
    assert p.data[0, 0] == -3.5


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


def test_lr_plan_invariants():
    with pytest.raises(ConfigError):
        optim.LrPlan(1e-4, 1e-3, 1e-5, 3, 22)  # min_lr > base_lr
    with pytest.raises(ConfigError):
        optim.LrPlan(1e-4, 1e-5, 1e-5, 22, 22)  # warmup >= total


# ---------------------------------------------------------------------------
# EMA


def test_ema_degenerate_decays():
    p = _param(1.0)
    ema = optim.EmaState(mu=0.0, shadow=[np.zeros((1, 1))])
    optim.ema_update(ema, [p])
    assert ema.shadow[0][0, 0] == 1.0

    ema = optim.EmaState(mu=1.0, shadow=[np.full((1, 1), 9.0)])
    optim.ema_update(ema, [p])
    assert ema.shadow[0][0, 0] == 9.0

    ema = optim.EmaState(mu=0.5, shadow=[np.zeros((1, 1))])
    optim.ema_update(ema, [p])
    assert ema.shadow[0][0, 0] == 0.5


def test_ema_geometric_convergence():
    mu = 0.9
    theta = 2.0
    p = _param(theta)
    shadow0 = 5.0
    ema = optim.EmaState(mu=mu, shadow=[np.full((1, 1), shadow0)])
    for n in range(1, 30):
        optim.ema_update(ema, [p])
        expected = theta + mu**n * (shadow0 - theta)
        assert ema.shadow[0][0, 0] == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# gradient clipping


def test_clip_hand_case():
    grads, norm = optim.clip_grad_norm([np.array([[3.0, 4.0]])], max_norm=1.0)
    assert norm == 5.0
    np.testing.assert_allclose(grads[0], [[0.6, 0.8]], atol=1e-12)


def test_clip_noop_below_threshold():
    g = np.array([[0.3, 0.4]])
    grads, norm = optim.clip_grad_norm([g], max_norm=1.0)
    assert norm == pytest.approx(0.5)
    assert grads[0] is g  # untouched, bit-identical


def test_clip_preserves_direction():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((3, 5)) * 10
    (clipped,), _ = optim.clip_grad_norm([g], max_norm=1.0)
    cos = np.sum(g * clipped) / (np.linalg.norm(g) * np.linalg.norm(clipped))
    assert cos == pytest.approx(1.0, abs=1e-12)


def test_clip_nonpositive_threshold_raises():
    with pytest.raises(ConfigError):
        optim.clip_grad_norm([np.ones((1, 1))], max_norm=0.0)


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
    grads = [np.array([row]) for row in rows]
    clipped, _ = optim.clip_grad_norm(grads, max_norm)
    total = math.sqrt(sum(float(np.sum(g * g)) for g in clipped))
    assert total <= max_norm + 1e-9
