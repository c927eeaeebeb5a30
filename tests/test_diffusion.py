"""Schedule, forward process, denoiser, reverse posterior and sampling."""

import math

import numpy as np
import pytest

from cgsd import diffusion as df
from cgsd.errors import ConfigError, ContractError, DataError, NumericError, ParseError
from cgsd import numkit as nk
from cgsd.numkit import GradTape, Tensor2, backward
from cgsd.pipeline import RunConfig
import ckpt_edit as ckpt


PAPER_SCHED = df.make_schedule(1000, 1e-4, 0.02)
DESK_SCHED = df.make_schedule(100, 1e-3, 0.2)
# the chain's default step count, and the candidates the seed sweep scored
DEFAULT_K = RunConfig().chain_steps
SWEPT_K = (50, 25, 20, 10)
# sample_chains' tests run the 20-step schedule of _chain_inputs at K = 10
# (stride 2), at the default K (which clamps to T there) and at K = T
AT_K = (10, DEFAULT_K, 20)


def full_grid(sched):
    """Every step T, T - 1, ..., 0: the chain at K = T."""
    return df.chain_grid(sched.t_total, sched.t_total)


class StubNet:
    """Denoiser stand-in that returns a fixed matrix regardless of input."""

    def __init__(self, out, d_model, k):
        self._out = np.atleast_2d(np.asarray(out, dtype=np.float64))
        self.d_model = d_model
        self.k = k

    @property
    def input_dim(self):
        return self.d_model + 3 * self.k + df.TEMB_DIM

    def forward(self, x, tape=None, work=None):
        n = x.rows
        out = np.broadcast_to(self._out, (n, self._out.shape[1])).copy()
        return Tensor2(out)


# ---------------------------------------------------------------------------
# schedule


def test_schedule_linear_endpoints():
    assert PAPER_SCHED.beta[0] == pytest.approx(1e-4, abs=1e-18)
    assert PAPER_SCHED.beta[-1] == pytest.approx(0.02, abs=1e-18)


def test_schedule_midpoint_hand_value():
    # beta_500 = 1e-4 + 499 * (0.0199 / 999)
    assert PAPER_SCHED.beta[499] == pytest.approx(1.00398e-2, abs=1e-6)


def test_schedule_single_step():
    sched = df.make_schedule(1, 0.3, 0.9)
    np.testing.assert_allclose(sched.beta, [0.3])
    np.testing.assert_allclose(sched.alpha_bar, [1.0, 0.7])


def test_schedule_alpha_bar_monotone_and_destructive():
    assert PAPER_SCHED.alpha_bar[0] == 1.0
    assert np.all(np.diff(PAPER_SCHED.alpha_bar) < 0.0)
    assert math.sqrt(PAPER_SCHED.alpha_bar[-1]) < 0.01


def test_schedule_bounds():
    # the schedule's settings are checked with the config, before any file is
    # read; a checkpoint's at load (the denoiser-t_total-0 and
    # denoiser-beta_end-2 cases of test_pipeline's _BAD_INPUTS)
    with pytest.raises(ConfigError, match="t_total"):
        RunConfig(t_total=0)
    for beta_start, beta_end in ((0.0, 0.02), (-1e-4, 0.02), (0.5, 0.2), (0.5, 1.0)):
        with pytest.raises(ConfigError, match="beta_start <= beta_end"):
            RunConfig(beta_start=beta_start, beta_end=beta_end)
    assert RunConfig(t_total=1, beta_start=0.3, beta_end=0.3).t_total == 1


# ---------------------------------------------------------------------------
# forward process


def test_forward_sample_no_noise_limit():
    y0 = np.array([1.0, 0.0])
    out = df.forward_sample(y0, np.array([0.5, 0.5]), 0, np.array([1.0, -1.0]),
                            PAPER_SCHED)
    np.testing.assert_allclose(out, y0, atol=1e-15)


def test_forward_sample_hand_case():
    sched = df.make_schedule(1, 0.75, 0.75)  # alpha_bar[1] = 0.25
    out = df.forward_sample(
        np.array([1.0, 0.0]), np.array([0.5, 0.5]), 1, np.array([1.0, -1.0]), sched
    )
    np.testing.assert_allclose(out, [1.61603, -0.61603], atol=1e-5)


def test_forward_sample_full_noise_limit():
    # at t=T almost all signal is gone: y_T is close to prior + noise
    y0 = np.array([1.0, 0.0])
    prior = np.array([0.5, 0.5])
    eps = np.array([0.3, -0.7])
    out = df.forward_sample(y0, prior, 1000, eps, PAPER_SCHED)
    np.testing.assert_allclose(out, prior + eps, atol=0.01)


def test_forward_sample_range_check():
    with pytest.raises(IndexError):
        df.forward_sample(np.zeros(2), np.zeros(2), 1001, np.zeros(2), PAPER_SCHED)


@pytest.mark.parametrize("t", [-1, np.array([3, -1, 5])], ids=["scalar", "in a batch"])
def test_forward_sample_refuses_a_negative_timestep(t):
    # the coefficients come from a table indexed by t, whose row -1 is step T
    y = np.zeros((np.size(t), 2)) if np.ndim(t) else np.zeros(2)
    with pytest.raises(IndexError):
        df.forward_sample(y, y, t, y, PAPER_SCHED)


def _forward_sample_per_draw(y0, y_hat0, t, eps, sched):
    """forward_sample as first written, its square roots taken per draw: the
    oracle its schedule table must match bit for bit."""
    ab = sched.alpha_bar[t][:, None]
    root = np.sqrt(ab)
    return root * y0 + (1.0 - root) * y_hat0 + np.sqrt(1.0 - ab) * eps


@pytest.mark.parametrize("sched", [PAPER_SCHED, DESK_SCHED], ids=["paper", "desk"])
def test_forward_sample_keeps_the_per_draw_bits(sched):
    rng = np.random.default_rng(23)
    t = np.arange(sched.t_total + 1)
    y0 = np.eye(5)[rng.integers(0, 5, t.size)]
    prior = rng.dirichlet(np.ones(5), t.size)
    eps = rng.standard_normal((t.size, 5))
    want = _forward_sample_per_draw(y0, prior, t, eps, sched)
    assert df.forward_sample(y0, prior, t, eps, sched).tobytes() == want.tobytes()


def test_forward_marginal_monte_carlo():
    # empirical mean within 4 SE per coordinate, variance within 5%
    rng = np.random.default_rng(20)
    y0 = np.array([1.0, 0.0, 0.0])
    prior = np.array([0.6, 0.3, 0.1])
    n = 100_000
    for t in (1, 250, 500, 1000):
        ab = PAPER_SCHED.alpha_bar[t]
        eps = rng.standard_normal((n, 3))
        draws = (
            math.sqrt(ab) * y0 + (1 - math.sqrt(ab)) * prior
            + math.sqrt(1 - ab) * eps
        )
        mean = draws.mean(axis=0)
        expect = math.sqrt(ab) * y0 + (1 - math.sqrt(ab)) * prior
        se = math.sqrt((1 - ab) / n)
        assert np.all(np.abs(mean - expect) < 4 * se + 1e-12)
        var = draws.var(axis=0)
        if 1 - ab > 1e-12:
            assert np.all(np.abs(var - (1 - ab)) / (1 - ab) < 0.05)


# ---------------------------------------------------------------------------
# timestep embedding


def test_timestep_embedding_zero_phase():
    emb = df.timestep_embedding(0)
    np.testing.assert_array_equal(emb[0::2], 0.0)
    np.testing.assert_array_equal(emb[1::2], 1.0)


def test_timestep_embedding_distinct_over_desk_range():
    embs = np.stack([df.timestep_embedding(t) for t in range(0, 10001, 7)])
    diffs = np.abs(np.diff(embs, axis=0)).max(axis=1)
    assert np.all(diffs > 1e-6)
    # and a sample of non-adjacent pairs
    rng = np.random.default_rng(21)
    for _ in range(200):
        a, b = rng.integers(0, 10001, 2)
        if a == b:
            continue
        d = np.abs(df.timestep_embedding(int(a)) - df.timestep_embedding(int(b)))
        assert d.max() > 1e-6


def test_timestep_embedding_norm_bound():
    for t in (0, 1, 57, 9999):
        assert np.linalg.norm(df.timestep_embedding(t)) <= math.sqrt(df.TEMB_DIM)


def test_timestep_embedding_contracts():
    with pytest.raises(ContractError):
        df.timestep_embedding(-1)


# ---------------------------------------------------------------------------
# denoiser network


def test_eps_predict_zero_head_outputs_zero():
    net = df.DenoiserNet.build(d_model=8, k=3, seed=0)
    w_last, b_last = net.layers[-1]
    w_last.data[:] = 0.0
    b_last.data[:] = 0.0
    rng = np.random.default_rng(22)
    out = df.eps_predict(net, df.conditioning_input(
        rng.standard_normal((2, 8)), rng.standard_normal((2, 3)),
        np.full((2, 3), 1 / 3), rng.standard_normal((2, 3)), 5
    ))
    np.testing.assert_array_equal(out.data, np.zeros((2, 3)))


def test_eps_predict_deterministic():
    net = df.DenoiserNet.build(d_model=8, k=3, seed=1)
    rng = np.random.default_rng(23)
    args = (
        rng.standard_normal((2, 8)), rng.standard_normal((2, 3)),
        np.full((2, 3), 1 / 3), rng.standard_normal((2, 3)),
    )
    a = df.eps_predict(net, df.conditioning_input(*args, 7)).data
    b = df.eps_predict(net, df.conditioning_input(*args, 7)).data
    np.testing.assert_array_equal(a, b)


def test_eps_predict_without_tape_matches_taped_forward():
    # the untaped path runs in reused buffers; it must give the taped
    # forward's bits, and a reused input buffer or workspace must not leak
    # between calls
    net = df.DenoiserNet.build(d_model=8, k=3, seed=5)
    rng = np.random.default_rng(26)
    args = [rng.standard_normal((6, 8)), rng.standard_normal((6, 3)),
            rng.dirichlet(np.ones(3), 6), rng.standard_normal((6, 3)),
            DESK_SCHED.temb[[1, 7, 7, 50, 99, 100]]]
    tape = GradTape()
    taped = df.eps_predict(net, df.conditioning_input(*args), tape=tape).data
    assert len(tape) == len(net.layers)
    assert np.array_equal(df.eps_predict(net, df.conditioning_input(*args)).data, taped)
    # the reverse chain rewrites its input rows in place between calls
    x, work = df.conditioning_input(*[a[::-1].copy() for a in args]), []
    first = df.eps_predict(net, x, work=work).data
    assert len(work) == len(net.layers)
    x[...] = df.conditioning_input(*args)
    assert np.array_equal(df.eps_predict(net, x, work=work).data, taped)
    # the result is the head's buffer, which the next call overwrote
    assert first is work[-1][1]


def _noise(rngs, sched, k):
    """Each generator's whole full-chain noise, (t_total + 1) x k in one draw."""
    return np.stack([rng.standard_normal((sched.t_total + 1, k)) for rng in rngs])


def test_chain_grid_steps():
    # t_j = T * j // K for j = K ... 0; K = T walks every step, a K above T
    # runs T steps, and every candidate K lands on T * i // 5
    assert df.chain_grid(100, 10) == [100, 90, 80, 70, 60, 50, 40, 30, 20, 10, 0]
    assert df.chain_grid(5, 5) == df.chain_grid(5, 50) == [5, 4, 3, 2, 1, 0]
    assert df.chain_grid(10, 3) == [10, 6, 3, 0]
    assert df.chain_grid(1, 1) == [1, 0]
    for t_total in (100, 1000):
        for k in (*SWEPT_K, DEFAULT_K, t_total):
            grid = df.chain_grid(t_total, k)
            assert len(grid) == k + 1 and all(a > b for a, b in zip(grid, grid[1:]))
            assert {t_total * i // 5 for i in range(6)} <= set(grid)
    with pytest.raises(ContractError):
        df.chain_grid(100, 0)


def test_sample_chain_nonfinite_raises():
    # the denoiser passes the overflow on; the chain's final state, where it
    # leaves the sampler, is checked (the taped case: stage-2 training's
    # loss check, in test_pipeline)
    net = df.DenoiserNet.build(d_model=8, k=3, seed=6)
    net.layers[0][0].data[0, 0] = 1e308
    noise = _noise([np.random.default_rng(i) for i in range(2)], DESK_SCHED, 3)
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="reverse chain"):
        df.sample_chain_batch(net, np.full((2, 8), 10.0), np.zeros((2, 3)),
                              np.zeros((2, 3)), DESK_SCHED, full_grid(DESK_SCHED), noise)


@pytest.mark.parametrize("shape", [(2, 100, 3), (1, 101, 3), (2, 101, 2)])
def test_sample_chain_refuses_noise_of_another_shape(shape):
    net = df.DenoiserNet.build(d_model=8, k=3, seed=6)
    with pytest.raises(ContractError, match="noise of shape"):
        df.sample_chain_batch(net, np.zeros((2, 8)), np.zeros((2, 3)),
                              np.zeros((2, 3)), DESK_SCHED, full_grid(DESK_SCHED),
                              np.zeros(shape))


@pytest.mark.parametrize("grid", [[90, 50, 0], [100, 50, 10], [100, 50, 60, 0]])
def test_sample_chain_refuses_a_grid_that_is_not_a_chain(grid):
    # a chain starts at T, the initial draw's step, ends at 0 and descends
    net = df.DenoiserNet.build(d_model=8, k=3, seed=6)
    with pytest.raises((ContractError, IndexError)):
        df.sample_chain_batch(net, np.zeros((2, 8)), np.zeros((2, 3)), np.zeros((2, 3)),
                              DESK_SCHED, grid, np.zeros((2, len(grid), 3)))


def test_eps_predict_shape_mismatch():
    net = df.DenoiserNet.build(d_model=8, k=3, seed=2)
    with pytest.raises(ContractError):
        df.eps_predict(net, df.conditioning_input(np.zeros((1, 9)), np.zeros((1, 3)),
                                                  np.zeros((1, 3)), np.zeros((1, 3)), 1))


# ---------------------------------------------------------------------------
# training objective


def _loss_batch(k=5, n=4, d_model=8, seed=24):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, d_model))
    y0 = np.eye(k)[rng.integers(0, k, n)]
    prior = np.full((n, k), 1.0 / k)
    d = rng.standard_normal((n, k)) * 0.1
    return f, y0, prior, d


def _draws(seed, n, k):
    """A timestep and k noise values per item from a plain generator."""
    rng = np.random.default_rng(seed)
    return rng.integers(1, DESK_SCHED.t_total + 1, n), rng.standard_normal((n, k))


def test_forward_sample_per_row_timesteps_match_single_rows():
    rng = np.random.default_rng(22)
    y0 = np.eye(5)[rng.integers(0, 5, 6)]
    prior = rng.dirichlet(np.ones(5), 6)
    eps = rng.standard_normal((6, 5))
    t_values = np.array([1, 100, 37, 0, 50, 37])
    batch = df.forward_sample(y0, prior, t_values, eps, DESK_SCHED)
    rows = [df.forward_sample(y0[i], prior[i], int(t), eps[i], DESK_SCHED)
            for i, t in enumerate(t_values)]
    assert np.array_equal(batch, np.stack(rows))
    with pytest.raises(IndexError):
        df.forward_sample(y0, prior, np.array([1, 2, 3, 4, 5, 101]), eps, DESK_SCHED)


class PerRowStub(StubNet):
    """Returns its matrix row-for-row."""

    def forward(self, x, tape=None, work=None):
        return Tensor2(self._out[: x.rows])


def test_epsilon_loss_oracle_denoiser_is_zero():
    f, y0, prior, d = _loss_batch()
    t_values, eps = _draws(0, 4, 5)
    loss = df.epsilon_loss(PerRowStub(eps, 8, 5), f, y0, prior, d, DESK_SCHED,
                           t_values, eps)
    assert loss.item() == pytest.approx(0.0, abs=1e-24)


def test_epsilon_loss_unit_offset_hand_value():
    f, y0, prior, d = _loss_batch()
    t_values, eps = _draws(0, 4, 5)
    offset = eps.copy()
    offset[:, 0] += 1.0
    loss = df.epsilon_loss(PerRowStub(offset, 8, 5), f, y0, prior, d, DESK_SCHED,
                           t_values, eps)
    assert loss.item() == pytest.approx(0.2, abs=1e-12)


def test_epsilon_loss_batch_order_invariant():
    f, y0, prior, d = _loss_batch()
    net = df.DenoiserNet.build(d_model=8, k=5, seed=3)
    t_values, eps = _draws(1, 4, 5)
    base = df.epsilon_loss(net, f, y0, prior, d, DESK_SCHED, t_values, eps).item()
    perm = np.array([2, 0, 3, 1])
    shuffled = df.epsilon_loss(
        net, f[perm], y0[perm], prior[perm], d[perm], DESK_SCHED, t_values[perm], eps[perm]
    ).item()
    assert shuffled == pytest.approx(base, abs=1e-15)


@pytest.mark.parametrize("n", [1, 7, 32])
def test_epsilon_loss_matches_the_per_op_chain(n):
    # the loss record against the sub, mul and mean_all records it replaced
    rng = np.random.default_rng(30 + n)
    f, d = rng.standard_normal((n, 8)), rng.uniform(-1, 1, (n, 5))
    y0, prior = np.eye(5)[rng.integers(0, 5, n)], rng.dirichlet(np.ones(5), n)
    t_values, eps = _draws(n, n, 5)
    net = df.DenoiserNet.build(d_model=8, k=5, seed=n)
    results = []
    for per_op in (False, True):
        tape = GradTape()
        if per_op:
            x = df.conditioning_input(f, df.forward_sample(y0, prior, t_values, eps, DESK_SCHED),
                                      prior, d, DESK_SCHED.temb[t_values])
            diff = nk.sub(Tensor2(eps), df.eps_predict(net, x, tape), tape)
            loss = nk.mean_all(nk.mul(diff, diff, tape), tape)
        else:
            loss = df.epsilon_loss(net, f, y0, prior, d, DESK_SCHED, t_values, eps, tape)
        results.append([loss.data, *backward(loss, tape, net.params())])
    for got, want in zip(*results, strict=True):
        assert got.tobytes() == want.tobytes()


def test_epsilon_loss_rejects_empty_batch():
    net = df.DenoiserNet.build(d_model=8, k=5, seed=4)
    with pytest.raises(DataError):
        df.epsilon_loss(net, np.zeros((0, 8)), np.zeros((0, 5)),
                        np.zeros((0, 5)), np.zeros((0, 5)), DESK_SCHED,
                        np.zeros(0, dtype=np.int64), np.zeros((0, 5)))


def test_epsilon_loss_rejects_draws_of_another_batch():
    f, y0, prior, d = _loss_batch()
    net = df.DenoiserNet.build(d_model=8, k=5, seed=4)
    t_values, eps = _draws(0, 3, 5)
    with pytest.raises(ContractError):
        df.epsilon_loss(net, f, y0, prior, d, DESK_SCHED, t_values, eps)


# ---------------------------------------------------------------------------
# inversion and posterior


def test_predict_y0_round_trip_all_t():
    rng = np.random.default_rng(25)
    y0 = np.array([[0.0, 1.0, 0.0]])
    prior = np.array([[0.2, 0.5, 0.3]])
    for t in (1, 7, 50, 100):
        eps = rng.standard_normal((1, 3))
        y_t = df.forward_sample(y0, prior, t, eps, DESK_SCHED)
        back = df.predict_y0(y_t, eps, prior, t, DESK_SCHED)
        np.testing.assert_allclose(back, y0, atol=1e-12)


def test_predict_y0_hand_case():
    sched = df.make_schedule(1, 0.75, 0.75)  # alpha_bar = 0.25
    out = df.predict_y0(
        np.array([[1.0, 0.0]]), np.zeros((1, 2)), np.array([[0.5, 0.5]]), 1, sched
    )
    np.testing.assert_allclose(out, [[1.5, -0.5]], atol=1e-12)


def test_predict_y0_early_step_near_identity():
    y_t = np.array([[0.4, 0.6]])
    out = df.predict_y0(y_t, np.zeros((1, 2)), np.array([[0.5, 0.5]]), 1, PAPER_SCHED)
    np.testing.assert_allclose(out, y_t, atol=1e-3)


def test_posterior_t1_collapses_to_y0_estimate():
    g0, g1, g2, var = df.posterior_coefficients(1, 0, PAPER_SCHED)
    assert g0 == pytest.approx(1.0, abs=1e-12)
    assert g1 == pytest.approx(0.0, abs=1e-12)
    assert g2 == pytest.approx(0.0, abs=1e-12)
    assert var == pytest.approx(0.0, abs=1e-15)


def _assert_posterior_identities(t, s, sched):
    g0, g1, g2, var = df.posterior_coefficients(t, s, sched)
    ab_t, ab_s = sched.alpha_bar[t], sched.alpha_bar[s]
    assert abs(g0 + g1 * math.sqrt(ab_t) - math.sqrt(ab_s)) < 1e-12
    assert abs(g1 * (1 - math.sqrt(ab_t)) + g2 - (1 - math.sqrt(ab_s))) < 1e-12
    assert abs(g1 * g1 * (1 - ab_t) + var - (1 - ab_s)) < 1e-12


@pytest.mark.parametrize("sched", [PAPER_SCHED, DESK_SCHED], ids=["paper", "desk"])
def test_posterior_identities_every_t(sched):
    for t in range(1, sched.t_total + 1):
        _assert_posterior_identities(t, t - 1, sched)


@pytest.mark.parametrize("sched", [PAPER_SCHED, DESK_SCHED], ids=["paper", "desk"])
def test_posterior_identities_on_strided_grids(sched):
    # the kernel of a strided chain, q(y_s | y_t, y0) for s < t - 1, has the
    # same identities: each pair of consecutive steps on every swept grid
    for k in SWEPT_K:
        grid = df.chain_grid(sched.t_total, k)
        assert grid[0] - grid[1] == sched.t_total // k > 1
        for t, s in zip(grid, grid[1:]):
            _assert_posterior_identities(t, s, sched)


def _reverse_coefficients_per_step(y_t, eps_hat, y_hat0, t, sched):
    """predict_y0's result and posterior_coefficients as first written, each
    square root of an alpha_bar entry taken per step with math.sqrt: the
    oracle the schedule's coef table must match bit for bit."""
    ab_t, ab_s = sched.alpha_bar[t], sched.alpha_bar[t - 1]
    root = math.sqrt(ab_t)
    y0 = (y_t - (1.0 - root) * y_hat0 - math.sqrt(1.0 - ab_t) * eps_hat) / root
    ratio, one_minus = ab_t / ab_s, 1.0 - ab_t
    return y0, (
        (1.0 - ratio) * math.sqrt(ab_s) / one_minus,
        (1.0 - ab_s) * math.sqrt(ratio) / one_minus,
        1.0 + (math.sqrt(ab_t) - 1.0) * (math.sqrt(ratio) + math.sqrt(ab_s)) / one_minus,
        (1.0 - ratio) * (1.0 - ab_s) / one_minus,
    )


@pytest.mark.parametrize("sched", [
    PAPER_SCHED, DESK_SCHED, df.make_schedule(1, 0.3, 0.9), df.make_schedule(20, 1e-3, 0.2)],
    ids=["paper", "desk", "one-step", "twenty-step"])
def test_reverse_step_keeps_the_per_step_bits(sched):
    rng = np.random.default_rng(27)
    y_t, eps_hat = rng.standard_normal((2, 6, 5))
    prior = rng.dirichlet(np.ones(5), 6)
    for t in range(1, sched.t_total + 1):
        want_y0, want = _reverse_coefficients_per_step(y_t, eps_hat, prior, t, sched)
        assert df.predict_y0(y_t, eps_hat, prior, t, sched).tobytes() == want_y0.tobytes()
        assert df.posterior_coefficients(t, t - 1, sched) == want


def test_posterior_rejects_bad_steps():
    # t in [1, T] and 0 <= s < t: a negative s would read the table's end
    for t, s in ((0, 0), (101, 100), (5, 5), (5, 6), (5, -1)):
        with pytest.raises(IndexError):
            df.posterior_coefficients(t, s, DESK_SCHED)


# ---------------------------------------------------------------------------
# reverse steps and chains


class TailRng:
    """Replays a seeded stream for the first `keep` values, then returns `fill`."""

    def __init__(self, seed, keep, fill):
        self._rng = np.random.default_rng(seed)
        self._left = keep
        self._fill = fill

    def standard_normal(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        flat = out.reshape(-1)
        head = min(self._left, flat.size)
        self._left -= head
        flat[:head] = self._rng.standard_normal(head)
        flat[head:] = self._fill
        return out


def test_reverse_step_t1_deterministic():
    # a one-row chain draws T + 1 vectors; the last feeds the t=1 step, and
    # no value of it may change the result
    net = df.DenoiserNet.build(d_model=4, k=3, seed=5)
    f = np.zeros((1, 4))
    d = np.zeros((1, 3))
    prior = np.full((1, 3), 1 / 3)
    keep = DESK_SCHED.t_total * 3
    grid = full_grid(DESK_SCHED)
    a, snaps = df.sample_chain_batch(net, f, d, prior, DESK_SCHED, grid,
                                     _noise([TailRng(0, keep, 0.0)], DESK_SCHED, 3),
                                     record_steps={1})
    b, _ = df.sample_chain_batch(net, f, d, prior, DESK_SCHED, grid,
                                 _noise([TailRng(0, keep, 99.0)], DESK_SCHED, 3))
    np.testing.assert_array_equal(a, b)
    y1 = snaps[1]
    eps_hat = df.eps_predict(net, df.conditioning_input(f, y1, prior, d, DESK_SCHED.temb[1])).data
    expect = df.predict_y0(y1, eps_hat, prior, 1, DESK_SCHED)
    np.testing.assert_allclose(a, expect, atol=1e-12)


def test_reverse_step_reproducible_with_seed():
    net = df.DenoiserNet.build(d_model=4, k=3, seed=6)
    args = (net, np.zeros((1, 4)), np.zeros((1, 3)), np.full((1, 3), 1 / 3), DESK_SCHED,
            full_grid(DESK_SCHED))
    a, _ = df.sample_chain_batch(*args, _noise([np.random.default_rng(7)], DESK_SCHED, 3))
    b, _ = df.sample_chain_batch(*args, _noise([np.random.default_rng(7)], DESK_SCHED, 3))
    c, _ = df.sample_chain_batch(*args, _noise([np.random.default_rng(8)], DESK_SCHED, 3))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_reverse_step_monte_carlo_marginal():
    # with oracle noise and the true label, the reverse marginal at s matches
    # the forward marginal there (mean within 3 SE over 1e5 draws), for the
    # one-step kernel and a stride-10 one
    rng = np.random.default_rng(26)
    t = 50
    sched = DESK_SCHED
    y0 = np.array([1.0, 0.0, 0.0])
    prior = np.array([0.5, 0.25, 0.25])
    n = 100_000
    ab = sched.alpha_bar[t]
    for s in (t - 1, t - 10):
        eps = rng.standard_normal((n, 3))
        y_t = math.sqrt(ab) * y0 + (1 - math.sqrt(ab)) * prior + math.sqrt(1 - ab) * eps
        g0, g1, g2, var = df.posterior_coefficients(t, s, sched)
        mean = g0 * y0 + g1 * y_t + g2 * prior  # oracle eps_hat recovers y0 exactly
        draws = mean + math.sqrt(var) * rng.standard_normal((n, 3))
        ab_s = sched.alpha_bar[s]
        expect = math.sqrt(ab_s) * y0 + (1 - math.sqrt(ab_s)) * prior
        se = math.sqrt((1 - ab_s) / n)
        assert np.all(np.abs(draws.mean(axis=0) - expect) < 3 * se)


def test_sample_chain_single_step_oracle():
    # T=1 chain: one deterministic hop straight to the y0-estimate
    sched = df.make_schedule(1, 0.75, 0.75)
    eps_hat = np.array([[0.2, -0.2]])
    net = StubNet(eps_hat, d_model=4, k=2)
    prior = np.array([[0.5, 0.5]])
    out, _ = df.sample_chain_batch(net, np.zeros((1, 4)), np.zeros((1, 2)), prior,
                                   sched, [1, 0], _noise([np.random.default_rng(8)], sched, 2))
    # reconstruct: y_1 = prior + z, then exact inversion with the stub's eps
    z = np.random.default_rng(8).standard_normal(2)
    y1 = prior + z
    expect = df.predict_y0(y1, eps_hat, prior, 1, sched)
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_sample_chain_deterministic():
    net = df.DenoiserNet.build(d_model=4, k=3, seed=9)
    args = (net, np.zeros((1, 4)), np.zeros((1, 3)), np.full((1, 3), 1 / 3), DESK_SCHED,
            full_grid(DESK_SCHED))
    a, _ = df.sample_chain_batch(*args, _noise([np.random.default_rng(10)], DESK_SCHED, 3))
    b, _ = df.sample_chain_batch(*args, _noise([np.random.default_rng(10)], DESK_SCHED, 3))
    np.testing.assert_array_equal(a, b)


def _reference_chain_batch(net, f, d, prior, sched, grid, rngs, record_steps):
    """The sampler as first written, walking grid: one timestep embedding per
    row and one draw of k noise values per row at every step."""
    n, k = prior.shape
    snaps = {}
    y = prior + np.stack([rng.standard_normal(k) for rng in rngs])
    if sched.t_total in record_steps:
        snaps[sched.t_total] = y.copy()
    for t, s in zip(grid, grid[1:]):
        temb = np.stack([df.timestep_embedding(t) for _ in range(n)])
        x = np.concatenate([f, y, prior, d, temb], axis=1)
        eps_hat = net.forward(Tensor2(x)).data
        y0_tilde = df.predict_y0(y, eps_hat, prior, t, sched)
        g0, g1, g2, var = df.posterior_coefficients(t, s, sched)
        mean = g0 * y0_tilde + g1 * y + g2 * prior
        z = np.stack([rng.standard_normal(k) for rng in rngs])
        if var == 0.0:
            z = np.zeros_like(z)
        y = mean + math.sqrt(var) * z
        if s in record_steps:
            snaps[s] = y.copy()
    return y, snaps


def _item_noise(seed, keys, n_samples, grid, k):
    """Every chain's noise in item-major rows: item i's n_samples chains are
    consecutive (K + 1) x k blocks of chain_rng(seed, keys[i])'s normals."""
    return np.concatenate([
        df.chain_rng(seed, key).standard_normal((n_samples, len(grid), k))
        for key in np.asarray(keys).tolist()])


@pytest.mark.parametrize("seed", [3, 2**32, 10**20])
def test_chain_noise_matches_per_chain_generators(seed, monkeypatch):
    for chain_steps in AT_K:
        _assert_chain_noise_matches_per_chain_generators(seed, chain_steps, monkeypatch)


def _assert_chain_noise_matches_per_chain_generators(seed, chain_steps, monkeypatch):
    # item i's chains run on consecutive (K + 1) x k blocks of one generator
    # seeded (seed, 101, keys[i]); a repeated key repeats its item's noise,
    # and the zero rows that pad the block to whole row tiles stay zero
    keys, n_samples, k = np.array([0, 7, 2**32 - 1, 2**40, 7]), 3, 3
    net, sched, f, d, prior = _chain_inputs(keys.size, k)
    grid = df.chain_grid(sched.t_total, chain_steps)
    blocks, run = [], df.sample_chain_batch

    def spy(net, f, d, prior, sched, grid, noise, record_steps=None):
        blocks.append((grid, noise.copy()))
        return run(net, f, d, prior, sched, grid, noise, record_steps)

    with monkeypatch.context() as m:
        m.setattr(df, "sample_chain_batch", spy)
        df.sample_chains(net, sched, f, d, prior, seed, keys, chain_steps, n_samples)
    for key in keys.tolist():
        want = np.random.default_rng(np.random.SeedSequence((seed, 101, key)))
        assert df.chain_rng(seed, key).bit_generator.state == want.bit_generator.state
    want = _item_noise(seed, keys, n_samples, grid, k)
    ((got_grid, got),) = blocks
    assert got_grid == grid
    assert got.shape == (df.ROW_TILE, len(grid), k)
    assert np.array_equal(got[:want.shape[0]], want)
    assert not got[want.shape[0]:].any()


def test_sample_chains_refuses_a_fractional_key():
    # a float key is not rounded to an integer seed
    net, sched, f, d, prior = _chain_inputs(2, 3)
    with pytest.raises(TypeError):
        df.sample_chains(net, sched, f, d, prior, 1, np.array([0.0, 1.0]), DEFAULT_K)


def test_sample_chains_refuses_a_record_step_off_the_grid():
    # a step the chain never visits has no states to return
    net, sched, f, d, prior = _chain_inputs(2, 3)
    with pytest.raises(ContractError, match=r"\[5\]"):
        df.sample_chains(net, sched, f, d, prior, 1, np.arange(2), 10, 1, (20, 5, 0))


@pytest.mark.parametrize("t_total", [100, 1])
def test_sample_chain_batch_matches_per_row_reference(t_total):
    for chain_steps in (DEFAULT_K, t_total):
        _assert_chain_batch_matches_per_row_reference(t_total, chain_steps)


def _assert_chain_batch_matches_per_row_reference(t_total, chain_steps):
    # the table lookup and the up-front noise change no bit of any row against
    # the item generators drawn step by step, chain s after s skipped blocks;
    # 4 items x 3 chains in item-major rows; 100 is the desk schedule, at the
    # default K and at K = T, and the t_total = 1 chain takes only the
    # var == 0 step
    sched = df.make_schedule(t_total, 1e-3, 0.2)
    grid = df.chain_grid(t_total, chain_steps)
    record = {100, 51, 50, 1, 0} & set(grid)
    n, k = 12, 3
    keys, samples = np.repeat([4, 0, 9, 2], 3), np.tile(np.arange(3), 4)
    rng = np.random.default_rng(31)
    net = df.DenoiserNet.build(d_model=4, k=k, seed=32)
    f = rng.standard_normal((n, 4))
    d = rng.standard_normal((n, k)) * 0.1
    prior = rng.dirichlet(np.ones(k), size=n)
    out, snaps = df.sample_chain_batch(
        net, f, d, prior, sched, grid, _item_noise(3, keys[::3], 3, grid, k), record)
    rngs = [df.chain_rng(3, key) for key in keys.tolist()]
    for chain_gen, sample in zip(rngs, samples):
        chain_gen.standard_normal((sample, len(grid), k))
    ref, ref_snaps = _reference_chain_batch(net, f, d, prior, sched, grid, rngs, record)
    assert np.array_equal(out, ref)
    assert snaps.keys() == ref_snaps.keys() and len(snaps) >= 2
    for t in snaps:
        assert np.array_equal(snaps[t], ref_snaps[t])


def _chain_inputs(n, k=5, t_total=20):
    rng = np.random.default_rng(41)
    net = df.DenoiserNet.build(d_model=4, k=k, seed=42)
    f = rng.standard_normal((n, 4))
    d = rng.standard_normal((n, k)) * 0.1
    prior = rng.dirichlet(np.ones(k), size=n)
    return net, df.make_schedule(t_total, 1e-3, 0.2), f, d, prior


def _assert_blocks_equal_one_batch(n, n_samples, k, record, chain_steps):
    """sample_chains' states and mean equal one sample_chain_batch call over
    all item-major rows on the per-item oracle's noise, padded with zero rows
    to whole row tiles as sample_chains pads its blocks."""
    net, sched, f, d, prior = _chain_inputs(n, k)
    grid = df.chain_grid(sched.t_total, chain_steps)
    keys = np.arange(n) * 3 + 1
    mean, states = df.sample_chains(net, sched, f, d, prior, 5, keys, chain_steps, n_samples,
                                    record)
    rows, items = n * n_samples, np.repeat(np.arange(n), n_samples)
    pad = lambda a: np.pad(a, [(0, -rows % df.ROW_TILE)] + [(0, 0)] * (a.ndim - 1))
    noise = pad(_item_noise(5, keys, n_samples, grid, k))
    final, snaps = df.sample_chain_batch(
        net, pad(f[items]), pad(d[items]), pad(prior[items]), sched, grid, noise, record)
    assert states.keys() == snaps.keys() == record
    for t in record:
        assert np.array_equal(states[t], snaps[t][:rows].reshape(n, n_samples, k).swapaxes(0, 1))
    total = np.zeros((n, k))
    for chain in final[:rows].reshape(n, n_samples, k).swapaxes(0, 1):
        total += chain
    assert np.array_equal(mean, total / n_samples)



def _on_grid(steps, chain_steps):
    """Each step, or the grid's next step below it: the steps a chain of
    _chain_inputs' schedule at chain_steps records."""
    grid = df.chain_grid(20, chain_steps)
    return {max(s for s in grid if s <= t) for t in steps}


def test_sample_chains_blocks_equal_one_batch():
    # 150 items x 4 chains span two row blocks, which split no item
    for chain_steps in AT_K:
        assert 150 * 4 > df.ROW_BLOCK and df.ROW_BLOCK % 4 == 0
        _assert_blocks_equal_one_batch(150, 4, 5, _on_grid({20, 7, 0}, chain_steps), chain_steps)


def test_sample_chains_item_split_across_blocks_keeps_its_stream():
    # 150 items x 5 chains make 750 rows: item 102's chains are rows 510 to
    # 514, so its generator draws chains 0 and 1 into the first block and
    # chains 2 to 4 into the second
    for chain_steps in AT_K:
        assert divmod(df.ROW_BLOCK, 5) == (102, 2)
        _assert_blocks_equal_one_batch(150, 5, 3, _on_grid({20, 13, 1, 0}, chain_steps),
                                       chain_steps)


@pytest.mark.parametrize("k", [3, 5])
def test_sample_chains_noise_drawn_into_its_block_keeps_the_means(k):
    # the former runner's loop, with the noise drawn on its own and copied
    # into a padded block, is the oracle: 150 items x 4 chains make a block
    # of 512 rows and one of 88 padded to 96
    for chain_steps in AT_K:
        n, n_samples, record = 150, 4, _on_grid({20, 3}, chain_steps)
        net, sched, f, d, prior = _chain_inputs(n, k)
        grid = df.chain_grid(sched.t_total, chain_steps)
        keys = np.arange(n) * 5 + 2
        mean, states = df.sample_chains(net, sched, f, d, prior, 8, keys, chain_steps, n_samples,
                                        record)
        rows = np.arange(n * n_samples)
        every = _item_noise(8, keys, n_samples, grid, k)
        total, want = np.zeros((n, k)), {t: np.empty((n_samples, n, k)) for t in record}
        for lo in range(0, rows.size, df.ROW_BLOCK):
            items, samples = np.divmod(rows[lo:lo + df.ROW_BLOCK], n_samples)
            pad = lambda a: np.pad(a, [(0, -items.size % df.ROW_TILE)] + [(0, 0)] * (a.ndim - 1))
            noise = pad(every[lo:lo + df.ROW_BLOCK])
            final, snaps = df.sample_chain_batch(
                net, pad(f[items]), pad(d[items]), pad(prior[items]), sched, grid, noise, record)
            np.add.at(total, items, final[:items.size])
            for t in record:
                want[t][samples, items] = snaps[t][:items.size]
        assert np.array_equal(mean, total / n_samples)
        for t in record:
            assert np.array_equal(states[t], want[t])


def test_sample_chain_batch_evaluates_the_denoiser_once_per_step(monkeypatch):
    for chain_steps, nfe in ((10, 10), (DEFAULT_K, min(DEFAULT_K, 20)), (20, 20), (50, 20)):
        _assert_one_denoiser_call_per_step(chain_steps, nfe, monkeypatch)


def _assert_one_denoiser_call_per_step(chain_steps, nfe, monkeypatch):
    # min(K, T) denoiser calls per block, each on all of the block's rows:
    # 150 items x 4 chains make a block of ROW_BLOCK = 512 rows and one of 88,
    # padded to 96
    n, n_samples, k = 150, 4, 5
    net, sched, f, d, prior = _chain_inputs(n, k)
    rows, eps_predict = [], df.eps_predict

    def counted(net, x, *args, **kwargs):
        rows.append(x.shape[0])
        return eps_predict(net, x, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(df, "eps_predict", counted)
        df.sample_chains(net, sched, f, d, prior, 5, np.arange(n), chain_steps, n_samples)
    assert df.ROW_BLOCK == 512 and sched.t_total == 20
    assert rows == [512] * nfe + [96] * nfe


def test_sample_chains_chain_0_does_not_depend_on_n_samples():
    # the trajectory export's chain 0 is the first chain evaluate averages,
    # at any sample count, including one that spans several row blocks
    for chain_steps in AT_K:
        n, record = 7, {20, 10, 0}
        for k in (3, 5):
            net, sched, f, d, prior = _chain_inputs(n, k)
            keys = np.arange(n)
            _, first = df.sample_chains(net, sched, f, d, prior, 9, keys, chain_steps, 1, record)
            for n_samples in (3, df.ROW_BLOCK // n + 5):
                _, states = df.sample_chains(net, sched, f, d, prior, 9, keys, chain_steps,
                                             n_samples, record)
                for t in record:
                    assert states[t].shape == (n_samples, n, k)
                    assert np.array_equal(states[t][0], first[t][0])


@pytest.mark.parametrize("n_samples", [1, 5])
@pytest.mark.parametrize("k", [3, 5])
def test_sample_chains_subset_means_equal_the_full_sets(k, n_samples):
    # an item's mean has the same bits in any subset that keeps its key: each
    # block is padded to whole BLAS row tiles, so no row rounds as a partial
    # tile's (the k = 3 head) or as a one-row product does
    for chain_steps in AT_K:
        n = 192
        net, sched, f, d, prior = _chain_inputs(n, k)
        keys = np.arange(n) * 7 + 3
        full, _ = df.sample_chains(net, sched, f, d, prior, 13, keys, chain_steps, n_samples)
        lo = 0
        for size in (1, 7, 30, 113, 41):
            rows = slice(lo, lo + size)
            mean, _ = df.sample_chains(net, sched, f[rows], d[rows], prior[rows], 13,
                                       keys[rows], chain_steps, n_samples)
            assert np.array_equal(mean, full[rows]), size
            lo += size


@pytest.mark.parametrize("k", [3, 5])
def test_sample_chains_mean_sums_every_chain_in_sample_order(k):
    # 7 items x 5 chains fit in one block, which then holds five chains of
    # each item: every one is added, in sample order, before the division;
    # the 35 rows run in 48 (whole row tiles), with zero rows after them
    for chain_steps in AT_K:
        n, n_samples = 7, 5
        net, sched, f, d, prior = _chain_inputs(n, k)
        keys = np.arange(n) + 100
        grid = df.chain_grid(sched.t_total, chain_steps)
        mean, states = df.sample_chains(net, sched, f, d, prior, 11, keys, chain_steps, n_samples)
        assert states == {}
        items = np.repeat(np.arange(n), n_samples)
        pad = lambda a: np.concatenate([a, np.zeros((13,) + a.shape[1:])])
        noise = pad(_item_noise(11, keys, n_samples, grid, k))
        final, _ = df.sample_chain_batch(net, pad(f[items]), pad(d[items]), pad(prior[items]),
                                         sched, grid, noise)
        final = final[:n * n_samples]
        total = np.zeros((n, k))
        for chain in final.reshape(n, n_samples, k).swapaxes(0, 1):
            total += chain
        assert np.array_equal(mean, total / n_samples)


@pytest.mark.parametrize(
    "sched",
    [PAPER_SCHED, DESK_SCHED, df.make_schedule(1, 0.3, 0.3), df.make_schedule(20, 1e-3, 0.2)],
    ids=["paper", "desk", "t1", "t20"],
)
def test_schedule_temb_rows_are_timestep_embeddings(sched):
    # the table is made in one call over every step; it keeps the bits of
    # one call per step
    assert sched.temb.shape == (sched.t_total + 1, df.TEMB_DIM)
    for t in range(sched.t_total + 1):
        assert sched.temb[t].tobytes() == df.timestep_embedding(t).tobytes()


# ---------------------------------------------------------------------------
# checkpoint I/O


def test_denoiser_round_trip(tmp_path):
    net = df.DenoiserNet.build(d_model=8, k=5, seed=14)
    for p in net.params():
        p.data += 0.123456789012345678
    path = tmp_path / "d.json"
    df.save_denoiser(path, net, (100, 1e-3, 0.2))

    loaded, sched = df.load_denoiser(path)
    assert len(loaded.params()) == len(net.params())
    for a, b in zip(net.params(), loaded.params()):
        np.testing.assert_array_equal(a.data, b.data)
    assert (loaded.d_model, loaded.k) == (8, 5)
    assert sched.t_total == 100


def test_denoiser_file_holds_one_weight_set(tmp_path):
    path = tmp_path / "d.json"
    df.save_denoiser(path, df.DenoiserNet.build(d_model=8, k=5, seed=14),
                     (100, 1e-3, 0.2))
    doc = ckpt.meta(path)
    assert doc["format"] == "cgsd-denoiser-v3"
    assert "ema_weights" not in doc and "shapes" not in doc
    assert list(ckpt.members(path)) == ["meta.json"] + [
        f"layer{i}_{p}.npy" for i in range(3) for p in "wb"]


def test_denoiser_rejects_wrong_format(tmp_path):
    net = df.DenoiserNet.build(d_model=8, k=5, seed=15)
    path = tmp_path / "d.json"
    df.save_denoiser(path, net, (100, 1e-3, 0.2))
    ckpt.set_meta(path, format="bogus")
    with pytest.raises(ParseError):
        df.load_denoiser(path)
