"""Acceptance criteria, one test per criterion.

The terminal summary (see conftest) prints one PASS/FAIL line per criterion.
Criteria that need trained models share the session-scoped fixtures: the
desk ablation on the default benchmark and the separable two-class
stage-1 run.
"""

import json
import math

import numpy as np
import pytest

from cgsd import cli
from cgsd import diffusion as df
from cgsd import guidance as gd
from cgsd import optim
from cgsd import pipeline as pl
from cgsd.analysis import confusion_and_metrics
from cgsd.numkit import Tensor2
from gradcheck import grad_check_param, trainable_params


# ---------------------------------------------------------------------------
# 1. posterior identities on the reference schedule (runtime < 1 s)


def test_criterion_1_posterior_identities():
    # every one-step pair of the reference schedule, then every (t, s) pair a
    # strided chain takes on the K = 50, 25, 20 and 10 grids, at T = 1000 and
    # at the desk's T = 100
    sched = df.make_schedule(1000, 1e-4, 0.02)
    pairs = [(sched, t, t - 1) for t in range(1, 1001)]
    for strided in (sched, df.make_schedule(100, 1e-3, 0.2)):
        for k in (50, 25, 20, 10):
            grid = df.chain_grid(strided.t_total, k)
            pairs += [(strided, t, s) for t, s in zip(grid, grid[1:])]
    for sched, t, s in pairs:
        g0, g1, g2, var = df.posterior_coefficients(t, s, sched)
        ab_t, ab_s = sched.alpha_bar[t], sched.alpha_bar[s]
        assert abs(g0 + g1 * math.sqrt(ab_t) - math.sqrt(ab_s)) < 1e-12
        assert abs(g1 * (1.0 - math.sqrt(ab_t)) + g2 - (1.0 - math.sqrt(ab_s))) < 1e-12
        assert abs(g1 * g1 * (1.0 - ab_t) + var - (1.0 - ab_s)) < 1e-12


# ---------------------------------------------------------------------------
# 2. forward-marginal Monte-Carlo (runtime < 30 s)


def test_criterion_2_forward_marginal_monte_carlo():
    sched = df.make_schedule(1000, 1e-4, 0.02)
    rng = np.random.default_rng(202)
    k = 3
    y0 = np.array([1.0, 0.0, 0.0])
    prior = np.array([0.6, 0.3, 0.1])
    n = 100_000
    for t in (1, 250, 500, 1000):
        ab = sched.alpha_bar[t]
        eps = rng.standard_normal((n, k))
        draws = (
            math.sqrt(ab) * y0 + (1.0 - math.sqrt(ab)) * prior
            + math.sqrt(1.0 - ab) * eps
        )
        # spot-check that the vectorized draw matches the implementation
        np.testing.assert_allclose(
            draws[0], df.forward_sample(y0, prior, t, eps[0], sched), atol=1e-12
        )
        expect_mean = math.sqrt(ab) * y0 + (1.0 - math.sqrt(ab)) * prior
        se = math.sqrt((1.0 - ab) / n)
        assert np.all(np.abs(draws.mean(axis=0) - expect_mean) <= 4.0 * se + 1e-12)
        if 1.0 - ab > 1e-12:
            rel = np.abs(draws.var(axis=0) - (1.0 - ab)) / (1.0 - ab)
            assert np.all(rel < 0.05)


# ---------------------------------------------------------------------------
# 3. full-model gradient checks (runtime < 60 s)


def test_criterion_3_full_model_gradient_checks():
    # guidance objective: every trainable parameter of a seeded model
    model = gd.GuidanceModel.build(d_in=10, hidden=12, d_model=8, k=5, rank=2, alpha=4.0,
                                   seed=303)
    model.frozen_base = True
    rng = np.random.default_rng(304)
    feats = rng.standard_normal((4, 10))
    labels = [0, 1, 3, 4]
    def g_loss(tape):
        return gd.guidance_loss(
            feats, labels, model, lambda_rank=1.0, margin=0.05, tape=tape
        )

    for param in trainable_params(model):
        assert grad_check_param(g_loss, param, h=1e-6) < 1e-4

    # noise objective: every parameter of a seeded denoiser
    net = df.DenoiserNet.build(d_model=8, k=3, seed=305)
    sched = df.make_schedule(50, 1e-3, 0.2)
    f = rng.standard_normal((4, 8))
    y0 = np.eye(3)[[0, 1, 2, 1]]
    prior = np.full((4, 3), 1.0 / 3.0)
    d = rng.standard_normal((4, 3)) * 0.1

    draws = np.random.default_rng(306)
    t_values, eps = draws.integers(1, sched.t_total + 1, 4), draws.standard_normal((4, 3))

    def e_loss(tape):
        return df.epsilon_loss(net, f, y0, prior, d, sched, t_values, eps, tape)

    for param in net.params():
        assert grad_check_param(e_loss, param, h=1e-6) < 1e-4


# ---------------------------------------------------------------------------
# 4. adapter zero-init equivalence and frozen-base immutability


def test_criterion_4_adapter_contracts(desk_ablation):
    model = gd.GuidanceModel.build(d_in=16, hidden=20, d_model=12, k=5, rank=4, alpha=8.0,
                                   seed=404)
    rng = np.random.default_rng(405)
    for _ in range(100):
        x = rng.standard_normal(16)
        h = x @ model.w1.data.T + model.b1.data[0]
        h = h * (1.0 / (1.0 + np.exp(-1.702 * h)))
        z = h @ model.w2.data.T + model.b2.data[0]
        base = z / (np.linalg.norm(z) + 1e-12)
        adapted = model.encode_batch(x).data[0]
        assert np.max(np.abs(adapted - base)) <= 1e-12

    stage1 = desk_ablation["report"]["stage1"]
    assert stage1["frozen_hash_before"] == stage1["frozen_hash_after"]


# ---------------------------------------------------------------------------
# 5. three-row ablation ordering on the default benchmark (runtime < 10 min)


def test_criterion_5_ablation_direction(desk_ablation):
    rows = desk_ablation["report"]["rows"]
    zero_shot, lora, diffusion = (r["accuracy"] for r in rows)
    assert zero_shot < lora
    assert lora - zero_shot >= 0.05
    assert diffusion >= lora - 0.01


# ---------------------------------------------------------------------------
# 6. separable sanity (runtime < 3 min)


def test_criterion_6_separable_benchmark(separable_stage1):
    assert separable_stage1["accuracy"] >= 0.95


# ---------------------------------------------------------------------------
# 7. metrics oracle (runtime < 1 s)


def test_criterion_7_metrics_oracle():
    rng = np.random.default_rng(707)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(4, 80))
        preds = rng.integers(0, k, n)
        labels = rng.integers(0, k, n)
        _, acc, per_f1, macro, _, _ = confusion_and_metrics(preds, labels, k)
        assert abs(acc - np.mean(preds == labels)) <= 1e-12
        ref = np.zeros(k)
        for j in range(k):
            tp = np.sum((preds == j) & (labels == j))
            fp = np.sum((preds == j) & (labels != j))
            fn = np.sum((preds != j) & (labels == j))
            denom = 2 * tp + fp + fn
            ref[j] = 0.0 if denom == 0 else 2.0 * tp / denom
        assert np.max(np.abs(per_f1 - ref)) <= 1e-12
        assert abs(macro - ref.mean()) <= 1e-12

    # worked examples, exactly
    _, acc, _, macro, _, _ = confusion_and_metrics(
        np.array([1, 0, 1]), np.array([1, 1, 0]), 2
    )
    assert acc == pytest.approx(1.0 / 3.0) and macro == 0.25
    _, acc, _, macro, _, _ = confusion_and_metrics(
        np.zeros(4, dtype=np.int64), np.array([0, 0, 1, 1]), 2
    )
    assert acc == 0.5 and macro == pytest.approx(1.0 / 3.0)


# ---------------------------------------------------------------------------
# 8. inference determinism and ~5x variance reduction


def test_criterion_8_inference_protocol(desk_ablation, tmp_path):
    data_dir = desk_ablation["data_dir"]
    cfg = desk_ablation["cfg"]

    # byte-identical reports from repeated cgsd eval runs
    for report in ("r1.json", "r2.json"):
        assert cli.main([
            "eval", "--data", str(data_dir), "--guidance", str(desk_ablation["guidance"]),
            "--diffusion", str(desk_ablation["denoiser"]),
            "--report", str(tmp_path / report), "--seed", str(cfg.seed),
        ]) == 0
    b1 = (tmp_path / "r1.json").read_bytes()
    assert b1 == (tmp_path / "r2.json").read_bytes()

    # the same items in four chunks, each keeping its own item keys, get the
    # mean final states of one whole batch, bit for bit, and their grades
    # are what the report counts
    model, (net, sched), _, test = pl.load_run(
        data_dir, desk_ablation["guidance"], desk_ablation["denoiser"]
    )
    f_all, d_all, prior_all = pl.conditioning(model, test.features)
    keys = np.arange(test.n)

    def means(rows):
        mean, _ = df.sample_chains(net, sched, f_all[rows], d_all[rows], prior_all[rows],
                                   cfg.seed, keys[rows], cfg.chain_steps, cfg.n_samples)
        return mean

    whole = means(keys)
    chunked = np.concatenate([means(rows) for rows in np.array_split(keys, 4)])
    assert np.array_equal(whole, chunked)
    counts = confusion_and_metrics(np.argmax(whole, axis=1), test.labels, test.k)[0]
    assert counts.tolist() == json.loads(b1)["confusion"]

    # variance of the 5-chain average vs a single chain, 200 repeats, on the
    # chain the report runs (the default K)
    f, d, prior = pl.conditioning(model, test.features[:1])

    repeats = 200
    k = prior.shape[1]
    grid = df.chain_grid(sched.t_total, cfg.chain_steps)
    rep = lambda a, m: np.repeat(a[:1], m, axis=0)

    noise = lambda tag, m: np.stack([
        np.random.default_rng((tag, i)).standard_normal((len(grid), k))
        for i in range(m)
    ])

    singles, _ = df.sample_chain_batch(
        net, rep(f, repeats), rep(d, repeats), rep(prior, repeats), sched, grid,
        noise(808, repeats),
    )
    many, _ = df.sample_chain_batch(
        net, rep(f, repeats * 5), rep(d, repeats * 5), rep(prior, repeats * 5),
        sched, grid, noise(809, repeats * 5),
    )
    averaged = many.reshape(repeats, 5, k).mean(axis=1)

    var_single = singles.var(axis=0).mean()
    var_avg = averaged.var(axis=0).mean()
    ratio = var_single / var_avg
    assert 5.0 / 1.5 <= ratio <= 5.0 * 1.5


# ---------------------------------------------------------------------------
# 9. trajectory silhouette claim and export schema


def test_criterion_9_trajectory_claim(separable_trained, tmp_path):
    cfg = separable_trained["cfg"]
    out = tmp_path / "trajectory.csv"
    steps = [100, 80, 60, 40, 20, 0]
    doc = pl.export_trajectory(
        separable_trained["dir"], separable_trained["guidance"],
        separable_trained["denoiser"], steps, out, cfg
    )

    sil = doc["silhouette_by_step"]
    assert sil["0"] > sil["100"]

    # schema: header plus one row per (step, test item), parseable fields
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,item_id,true_label,px,py"
    test = separable_trained["test"]
    assert len(lines) - 1 == len(steps) * test.n
    probe = lines[1].split(",")
    assert len(probe) == 5
    int(probe[0]), int(probe[1]), int(probe[2]), float(probe[3]), float(probe[4])
    sidecar = json.loads((tmp_path / "trajectory.csv.silhouette.json").read_text())
    assert set(sidecar["silhouette_by_step"]) == {str(s) for s in steps}
    assert sidecar["config_digest"] == cfg.digest()


# ---------------------------------------------------------------------------
# 10. optimizer and schedule unit oracles (runtime < 1 s)


def test_criterion_10_optimizer_suite():
    # Adam two-step scalar oracle
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    theta, m, v = 0.0, 0.0, 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1)
        v = b2 * v + (1 - b2)
        theta -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
    p = np.zeros(1)
    state = optim.AdamState()
    optim.adam_step(p, np.ones(1), state, lr)
    optim.adam_step(p, np.ones(1), state, lr)
    assert abs(p[0] - theta) <= 1e-12

    # RAdam first step takes the un-adapted branch (rho_1 = 1 <= 4)
    p = np.zeros(1)
    optim.radam_step(p, np.full(1, 2.0), optim.AdamState(), 0.1)
    assert abs(p[0] + 0.2) <= 1e-12

    # lr plan endpoints and midpoint
    plan = optim.LrPlan(1e-4, 1e-5, 1e-5, 3, 22)
    assert optim.lr_at(0, plan) == pytest.approx(1e-5, abs=1e-18)
    assert optim.lr_at(21, plan) == pytest.approx(1e-5, abs=1e-18)
    assert optim.lr_at(12, plan) == pytest.approx((1e-4 + 1e-5) / 2, abs=1e-12)

    # EMA geometric convergence
    mu, theta0, shadow0 = 0.9, 2.0, 5.0
    q = np.full(1, theta0)
    ema = optim.EmaState(mu=mu, shadow=np.full(1, shadow0))
    for n in range(1, 20):
        optim.ema_update(ema, q)
        assert ema.shadow[0] == pytest.approx(
            theta0 + mu**n * (shadow0 - theta0), rel=1e-12
        )

    # clip-norm hand case
    flat = optim.FlatParams([Tensor2(np.zeros((1, 2)))])
    flat.grad[:] = [3.0, 4.0]
    norm = optim.clip_grad_norm(flat, 1.0)
    assert norm == 5.0
    np.testing.assert_allclose(flat.grad, [0.6, 0.8], atol=1e-12)
