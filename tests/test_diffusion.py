"""Schedule, forward process, denoiser, reverse posterior and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgsd import diffusion as df
from cgsd.errors import ConfigError, ContractError, DataError, NumericError, ParseError
from cgsd.numkit import GradTape, Tensor2
import ckpt_edit as ckpt


PAPER_SCHED = df.make_schedule(1000, 1e-4, 0.02)
DESK_SCHED = df.make_schedule(100, 1e-3, 0.2)


class StubNet:
    """Denoiser stand-in that returns a fixed matrix regardless of input."""

    def __init__(self, out, d_model, k):
        self._out = np.atleast_2d(np.asarray(out, dtype=np.float64))
        self.d_model = d_model
        self.k = k

    @property
    def input_dim(self):
        return self.d_model + 3 * self.k + df.TEMB_DIM

    def forward(self, x, tape=None):
        n = x.rows
        out = np.broadcast_to(self._out, (n, self._out.shape[1])).copy()
        return Tensor2(out)

    def workspace(self, rows):
        return np.empty((rows, self.input_dim)), []

    def forward_into(self, x, work):
        return self.forward(Tensor2(x)).data


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
    with pytest.raises(ConfigError):
        df.make_schedule(0, 1e-4, 0.02)
    with pytest.raises(ConfigError):
        df.make_schedule(10, 0.0, 0.02)
    with pytest.raises(ConfigError):
        df.make_schedule(10, 0.5, 0.2)
    with pytest.raises(ConfigError):
        df.make_schedule(10, 0.5, 1.0)


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
    out = df.eps_predict(
        net, rng.standard_normal((2, 8)), rng.standard_normal((2, 3)),
        np.full((2, 3), 1 / 3), rng.standard_normal((2, 3)), 5
    )
    np.testing.assert_array_equal(out.data, np.zeros((2, 3)))


def test_eps_predict_deterministic():
    net = df.DenoiserNet.build(d_model=8, k=3, seed=1)
    rng = np.random.default_rng(23)
    args = (
        rng.standard_normal((2, 8)), rng.standard_normal((2, 3)),
        np.full((2, 3), 1 / 3), rng.standard_normal((2, 3)),
    )
    a = df.eps_predict(net, *args, 7).data
    b = df.eps_predict(net, *args, 7).data
    np.testing.assert_array_equal(a, b)


def test_eps_predict_without_tape_matches_taped_forward():
    # the untaped path runs in reused buffers; it must give the taped
    # forward's bits, and a reused workspace must not leak between calls
    net = df.DenoiserNet.build(d_model=8, k=3, seed=5)
    rng = np.random.default_rng(26)
    args = [rng.standard_normal((6, 8)), rng.standard_normal((6, 3)),
            rng.dirichlet(np.ones(3), 6), rng.standard_normal((6, 3)),
            DESK_SCHED.temb[[1, 7, 7, 50, 99, 100]]]
    taped = df.eps_predict(net, *args, tape=GradTape()).data
    assert np.array_equal(df.eps_predict(net, *args).data, taped)
    work = net.workspace(6)
    other = [a[::-1].copy() for a in args]
    df.eps_predict(net, *other, work=work)
    assert np.array_equal(df.eps_predict(net, *args, work=work).data, taped)


def test_sample_chain_nonfinite_raises():
    # the denoiser passes the overflow on; the chain's final state, where it
    # leaves the sampler, is checked (the taped case: stage-2 training's
    # loss check, in test_pipeline)
    net = df.DenoiserNet.build(d_model=8, k=3, seed=6)
    net.layers[0][0].data[0, 0] = 1e308
    rngs = [np.random.default_rng(i) for i in range(2)]
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="reverse chain"):
        df.sample_chain_batch(net, np.full((2, 8), 10.0), np.zeros((2, 3)),
                              np.zeros((2, 3)), DESK_SCHED, rngs)


def test_eps_predict_shape_mismatch():
    net = df.DenoiserNet.build(d_model=8, k=3, seed=2)
    with pytest.raises(ContractError):
        df.eps_predict(net, np.zeros((1, 9)), np.zeros((1, 3)),
                       np.zeros((1, 3)), np.zeros((1, 3)), 1)


# ---------------------------------------------------------------------------
# training objective


def _loss_batch(k=5, n=4, d_model=8, seed=24):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, d_model))
    y0 = np.eye(k)[rng.integers(0, k, n)]
    prior = np.full((n, k), 1.0 / k)
    d = rng.standard_normal((n, k)) * 0.1
    return f, y0, prior, d


def _expected_draws(sched, seeds, keys, k):
    """The per-item generator rule item_draws replays: a fresh
    default_rng(SeedSequence((seed, key))) per item, the timestep first."""
    seeds = np.broadcast_to(seeds, np.shape(keys))
    t_values = np.empty(len(keys), dtype=np.int64)
    eps = np.empty((len(keys), k))
    for i, (seed, key) in enumerate(zip(seeds, keys)):
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(key))))
        t_values[i] = rng.integers(1, sched.t_total + 1)
        eps[i] = rng.standard_normal(k)
    return t_values, eps


_EDGE_WORDS = (0, 1, 2**31, 2**32 - 1)


def _pcg64_oracle(seed, key):
    inner = np.random.PCG64(np.random.SeedSequence((seed, key))).state["state"]
    return inner["state"], inner["inc"]


def test_pcg64_states_match_numpy_on_edge_words():
    pairs = [(s, k) for s in _EDGE_WORDS for k in _EDGE_WORDS]
    seeds, keys = np.array(pairs, dtype=np.uint64).T
    got = df._pcg64_states(seeds, keys)
    assert got == [_pcg64_oracle(s, k) for s, k in pairs]


@given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
                min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_pcg64_states_match_numpy(pairs):
    seeds, keys = np.array(pairs, dtype=np.int64).T
    assert df._pcg64_states(seeds, keys) == [_pcg64_oracle(s, k) for s, k in pairs]


@pytest.mark.parametrize("seeds, keys", [
    (2**32, np.arange(3)),
    (-1, np.arange(3)),
    (7, np.array([0, 2**32])),
    (7, np.array([0.0, 1.0])),
])
def test_item_draws_refuses_words_outside_uint32(seeds, keys):
    # numpy hashes such a value as other words, so the fast path would
    # diverge from it silently
    with pytest.raises(ContractError):
        df.item_draws(seeds, keys, 100, 5)


def test_item_draws_match_per_item_generators():
    rng = np.random.default_rng(21)
    seeds = np.concatenate([_EDGE_WORDS, rng.integers(0, 2**32, 60)])
    keys = np.concatenate([_EDGE_WORDS[::-1], rng.integers(0, 2**32, 60)])
    for sched, k in ((DESK_SCHED, 5), (PAPER_SCHED, 3), (df.make_schedule(1, 0.3, 0.3), 2)):
        t_values, eps = df.item_draws(seeds, keys, sched.t_total, k)
        want_t, want_eps = _expected_draws(sched, seeds, keys, k)
        assert np.array_equal(t_values, want_t)
        assert np.array_equal(eps, want_eps)


def test_item_draws_follow_their_pairs():
    # permuted (seed, key) pairs give the same draws, permuted
    seeds = np.array([5, 5, 9, 9, 3])
    keys = np.array([0, 1, 0, 1, 2])
    t_values, eps = df.item_draws(seeds, keys, 100, 5)
    perm = np.array([4, 2, 0, 3, 1])
    t_perm, eps_perm = df.item_draws(seeds[perm], keys[perm], 100, 5)
    assert np.array_equal(t_perm, t_values[perm])
    assert np.array_equal(eps_perm, eps[perm])


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

    def forward(self, x, tape=None):
        return Tensor2(self._out[: x.rows])


def test_epsilon_loss_oracle_denoiser_is_zero():
    f, y0, prior, d = _loss_batch()
    t_values, eps = df.item_draws(0, np.arange(4), DESK_SCHED.t_total, 5)
    loss = df.epsilon_loss(PerRowStub(eps, 8, 5), f, y0, prior, d, DESK_SCHED,
                           t_values, eps)
    assert loss.item() == pytest.approx(0.0, abs=1e-24)


def test_epsilon_loss_unit_offset_hand_value():
    f, y0, prior, d = _loss_batch()
    t_values, eps = df.item_draws(0, np.arange(4), DESK_SCHED.t_total, 5)
    offset = eps.copy()
    offset[:, 0] += 1.0
    loss = df.epsilon_loss(PerRowStub(offset, 8, 5), f, y0, prior, d, DESK_SCHED,
                           t_values, eps)
    assert loss.item() == pytest.approx(0.2, abs=1e-12)


def test_epsilon_loss_batch_order_invariant():
    f, y0, prior, d = _loss_batch()
    net = df.DenoiserNet.build(d_model=8, k=5, seed=3)
    keys = np.arange(4)
    t_values, eps = df.item_draws(1, keys, DESK_SCHED.t_total, 5)
    base = df.epsilon_loss(net, f, y0, prior, d, DESK_SCHED, t_values, eps).item()
    perm = np.array([2, 0, 3, 1])
    t_perm, eps_perm = df.item_draws(1, keys[perm], DESK_SCHED.t_total, 5)
    shuffled = df.epsilon_loss(
        net, f[perm], y0[perm], prior[perm], d[perm], DESK_SCHED, t_perm, eps_perm
    ).item()
    assert shuffled == pytest.approx(base, abs=1e-15)


def test_epsilon_loss_rejects_empty_batch():
    net = df.DenoiserNet.build(d_model=8, k=5, seed=4)
    with pytest.raises(DataError):
        df.epsilon_loss(net, np.zeros((0, 8)), np.zeros((0, 5)),
                        np.zeros((0, 5)), np.zeros((0, 5)), DESK_SCHED,
                        np.zeros(0, dtype=np.int64), np.zeros((0, 5)))


def test_epsilon_loss_rejects_draws_of_another_batch():
    f, y0, prior, d = _loss_batch()
    net = df.DenoiserNet.build(d_model=8, k=5, seed=4)
    t_values, eps = df.item_draws(0, np.arange(3), DESK_SCHED.t_total, 5)
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
    g0, g1, g2, var = df.posterior_coefficients(1, PAPER_SCHED)
    assert g0 == pytest.approx(1.0, abs=1e-12)
    assert g1 == pytest.approx(0.0, abs=1e-12)
    assert g2 == pytest.approx(0.0, abs=1e-12)
    assert var == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("sched", [PAPER_SCHED, DESK_SCHED], ids=["paper", "desk"])
def test_posterior_identities_every_t(sched):
    for t in range(1, sched.t_total + 1):
        g0, g1, g2, var = df.posterior_coefficients(t, sched)
        ab_t, ab_s = sched.alpha_bar[t], sched.alpha_bar[t - 1]
        assert abs(g0 + g1 * math.sqrt(ab_t) - math.sqrt(ab_s)) < 1e-12
        assert abs(g1 * (1 - math.sqrt(ab_t)) + g2 - (1 - math.sqrt(ab_s))) < 1e-12
        assert abs(g1 * g1 * (1 - ab_t) + var - (1 - ab_s)) < 1e-12


def test_posterior_rejects_bad_steps():
    with pytest.raises(IndexError):
        df.posterior_coefficients(0, DESK_SCHED)
    with pytest.raises(IndexError):
        df.posterior_coefficients(101, DESK_SCHED)


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
    a, snaps = df.sample_chain_batch(net, f, d, prior, DESK_SCHED,
                                     [TailRng(0, keep, 0.0)], record_steps={1})
    b, _ = df.sample_chain_batch(net, f, d, prior, DESK_SCHED,
                                 [TailRng(0, keep, 99.0)])
    np.testing.assert_array_equal(a, b)
    y1 = snaps[1]
    eps_hat = df.eps_predict(net, f, y1, prior, d, DESK_SCHED.temb[1]).data
    expect = df.predict_y0(y1, eps_hat, prior, 1, DESK_SCHED)
    np.testing.assert_allclose(a, expect, atol=1e-12)


def test_reverse_step_reproducible_with_seed():
    net = df.DenoiserNet.build(d_model=4, k=3, seed=6)
    args = (net, np.zeros((1, 4)), np.zeros((1, 3)), np.full((1, 3), 1 / 3), DESK_SCHED)
    a, _ = df.sample_chain_batch(*args, [np.random.default_rng(7)])
    b, _ = df.sample_chain_batch(*args, [np.random.default_rng(7)])
    c, _ = df.sample_chain_batch(*args, [np.random.default_rng(8)])
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_reverse_step_monte_carlo_marginal():
    # with oracle noise and the true label, the reverse marginal at t-1
    # matches the forward marginal there (mean within 3 SE over 1e5 draws)
    rng = np.random.default_rng(26)
    t = 50
    sched = DESK_SCHED
    y0 = np.array([1.0, 0.0, 0.0])
    prior = np.array([0.5, 0.25, 0.25])
    n = 100_000
    ab = sched.alpha_bar[t]
    eps = rng.standard_normal((n, 3))
    y_t = math.sqrt(ab) * y0 + (1 - math.sqrt(ab)) * prior + math.sqrt(1 - ab) * eps
    g0, g1, g2, var = df.posterior_coefficients(t, sched)
    mean = g0 * y0 + g1 * y_t + g2 * prior  # oracle eps_hat recovers y0 exactly
    draws = mean + math.sqrt(var) * rng.standard_normal((n, 3))
    ab_s = sched.alpha_bar[t - 1]
    expect = math.sqrt(ab_s) * y0 + (1 - math.sqrt(ab_s)) * prior
    se = math.sqrt((1 - ab_s) / n)
    assert np.all(np.abs(draws.mean(axis=0) - expect) < 3 * se)


def test_sample_chain_single_step_oracle():
    # T=1 chain: one deterministic hop straight to the y0-estimate
    sched = df.make_schedule(1, 0.75, 0.75)
    eps_hat = np.array([[0.2, -0.2]])
    net = StubNet(eps_hat, d_model=4, k=2)
    prior = np.array([[0.5, 0.5]])
    rng = np.random.default_rng(8)
    out, _ = df.sample_chain_batch(net, np.zeros((1, 4)), np.zeros((1, 2)), prior,
                                   sched, [rng])
    # reconstruct: y_1 = prior + z, then exact inversion with the stub's eps
    z = np.random.default_rng(8).standard_normal(2)
    y1 = prior + z
    expect = df.predict_y0(y1, eps_hat, prior, 1, sched)
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_sample_chain_deterministic():
    net = df.DenoiserNet.build(d_model=4, k=3, seed=9)
    args = (net, np.zeros((1, 4)), np.zeros((1, 3)), np.full((1, 3), 1 / 3), DESK_SCHED)
    a, _ = df.sample_chain_batch(*args, [np.random.default_rng(10)])
    b, _ = df.sample_chain_batch(*args, [np.random.default_rng(10)])
    np.testing.assert_array_equal(a, b)


def _reference_chain_batch(net, f, d, prior, sched, rngs, record_steps):
    """The sampler as first written: one timestep embedding per row and one
    draw of k noise values per row at every step."""
    n, k = prior.shape
    snaps = {}
    y = prior + np.stack([rng.standard_normal(k) for rng in rngs])
    if sched.t_total in record_steps:
        snaps[sched.t_total] = y.copy()
    for t in range(sched.t_total, 0, -1):
        temb = np.stack([df.timestep_embedding(t) for _ in range(n)])
        x = np.concatenate([f, y, prior, d, temb], axis=1)
        eps_hat = net.forward(Tensor2(x)).data
        y0_tilde = df.predict_y0(y, eps_hat, prior, t, sched)
        mean, var = df.posterior_params(y, y0_tilde, prior, t, sched)
        z = np.stack([rng.standard_normal(k) for rng in rngs])
        if var == 0.0:
            z = np.zeros_like(z)
        y = mean + math.sqrt(var) * z
        if t - 1 in record_steps:
            snaps[t - 1] = y.copy()
    return y, snaps


@pytest.mark.parametrize("t_total", [100, 1])
def test_sample_chain_batch_matches_per_row_reference(t_total):
    # the table lookup and the up-front noise change no bit of any row; 100
    # is the desk schedule, and the t_total = 1 chain takes only the var == 0
    # step
    sched = df.make_schedule(t_total, 1e-3, 0.2)
    record = {100, 51, 50, 1, 0}
    n, k = 12, 3
    rng = np.random.default_rng(31)
    net = df.DenoiserNet.build(d_model=4, k=k, seed=32)
    f = rng.standard_normal((n, 4))
    d = rng.standard_normal((n, k)) * 0.1
    prior = rng.dirichlet(np.ones(k), size=n)
    keys = [(key, 2) for key in range(n)]
    out, snaps = df.sample_chain_batch(net, f, d, prior, sched,
                                       df.chain_substreams(3, keys), record)
    ref, ref_snaps = _reference_chain_batch(net, f, d, prior, sched,
                                            df.chain_substreams(3, keys), record)
    assert np.array_equal(out, ref)
    assert snaps.keys() == ref_snaps.keys() and len(snaps) >= 2
    for t in snaps:
        assert np.array_equal(snaps[t], ref_snaps[t])


@pytest.mark.parametrize("sched", [PAPER_SCHED, DESK_SCHED], ids=["paper", "desk"])
def test_schedule_temb_rows_are_timestep_embeddings(sched):
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
