"""Orchestration and CLI: training stages, evaluation, ablation, export."""

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import zipfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cgsd import cli
from cgsd import diffusion as df
from cgsd import guidance as gd
from cgsd import numkit as nk
from cgsd import optim
from cgsd import pipeline as pl
from cgsd.analysis import confusion_and_metrics
from cgsd.data import (SyntheticConfig, gen_synthetic, read_dataset, stratified_split,
                       write_dataset)
from cgsd.errors import ConfigError, DataError, NumericError
from cgsd.numkit import GradTape, Tensor2, backward
import ckpt_edit as ckpt
import optim_oracle as oracle
from guidance_oracle import encode_per_op, guidance_loss_per_op, similarity_per_op


TINY = pl.RunConfig(
    rank=2,
    pretrain_epochs=3,
    stage1_epochs=2,
    stage1_batch=16,
    t_total=20,
    beta_start=1e-3,
    beta_end=0.2,
    stage2_epochs=2,
    stage2_batch=16,
    seed=7,
    # below T = 20, so the tiny chains walk a strided grid (stride 2)
    chain_steps=10,
)


# ---------------------------------------------------------------------------
# RunConfig


def test_desk_preset_is_the_defaults():
    # the retired preset's values are the field defaults; its switch, which
    # perfbench/harness.py passes, changes nothing and is no setting, so a
    # value given with it is kept, and resolving the config changes nothing
    cfg = pl.RunConfig()
    assert cfg.t_total == 100
    assert (cfg.beta_start, cfg.beta_end) == (1e-3, 0.2)
    assert cfg.stage1_epochs == 40
    assert cfg.stage2_epochs == 60
    assert cfg.ema_mu == 0.99
    assert pl.RunConfig(desk_preset=True) == cfg
    assert pl.RunConfig(desk_preset=True).digest() == cfg.digest()
    assert "desk_preset" not in {f.name for f in fields(pl.RunConfig)}
    assert not hasattr(pl, "DESK_PRESET")
    kept = pl.RunConfig(desk_preset=True, t_total=7, stage2_epochs=3, ema_mu=0.5)
    assert (kept.t_total, kept.stage2_epochs, kept.ema_mu) == (7, 3, 0.5)
    assert cfg.resolved() is cfg


def _load_harness(monkeypatch):
    """perfbench/harness.py as a module, with perfbench/ on sys.path for the
    modules it imports."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("perfbench_harness", bench / "harness.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_benchmark_configs_keep_their_values(monkeypatch):
    # the benchmark builds its configs from the desk preset, whose values are
    # the defaults; each holds the values its runs have trained with, and
    # its digest hashes desk_preset as true whatever the harness passed
    harness = _load_harness(monkeypatch)
    assert [harness.DESK.digest(), harness.SHORT.digest(),
            harness.TINY.desk.digest(), harness.TINY.short.digest()] == [
        "e01acb1d9982fc25", "508df37ce351322d", "1f8ffc1dfa2e4686", "ed8a9e0106c117c0"]
    assert harness.DESK == pl.RunConfig()
    assert pl.RunConfig(pretrain_epochs=4, stage1_epochs=4, stage2_epochs=8,
                        stage2_lr=5e-3) == harness.SHORT
    reseeded = replace(harness.DESK, seed=7)
    assert {k: getattr(reseeded, k) for k in (
        "t_total", "beta_start", "beta_end", "stage1_epochs", "stage2_epochs", "ema_mu")} == {
        "t_total": 100, "beta_start": 1e-3, "beta_end": 0.2,
        "stage1_epochs": 40, "stage2_epochs": 60, "ema_mu": 0.99}
    with pytest.raises(ConfigError, match="t_total"):
        pl.RunConfig(desk_preset=True, t_total=0)


def test_config_digest_stable_and_sensitive():
    a = pl.RunConfig()
    b = pl.RunConfig()
    c = pl.RunConfig(seed=43)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


# ---------------------------------------------------------------------------
# stage 1


def test_stage1_epochs_zero_is_noop(small_dir, tmp_path):
    cfg = replace(TINY, stage1_epochs=0)
    pl.train_stage1(small_dir, cfg, tmp_path / "g.json", tmp_path / "g.base.json")
    model = gd.load_guidance(tmp_path / "g.json")
    assert model.frozen_base is True
    assert np.all(model.lora_b.data == 0.0)  # adapter increment still zero


def test_stage1_freezes_base_and_logs(small_dir, tmp_path):
    result = pl.train_stage1(small_dir, TINY, tmp_path / "g.json", tmp_path / "g.base.json")
    assert result["frozen_hash_before"] == result["frozen_hash_after"]
    stage1_lines = [l for l in result["log"] if l.startswith("stage1,")]
    assert len(stage1_lines) == TINY.stage1_epochs
    # log schema: stage,epoch,lr,loss,acc
    parts = stage1_lines[0].split(",")
    assert parts[0] == "stage1" and int(parts[1]) == 0
    float(parts[2]), float(parts[3]), float(parts[4])


def test_stage1_pretrains_over_a_stale_base(small_dir, tmp_path):
    # a base left at base_path by a run at another seed is overwritten, not
    # adapted: the run equals one in a fresh directory
    other = replace(TINY, seed=8)
    pl.train_stage1(small_dir, TINY, tmp_path / "g.json", tmp_path / "g.base.json")
    result = pl.train_stage1(small_dir, other, tmp_path / "g.json", tmp_path / "g.base.json")
    pl.train_stage1(small_dir, other, tmp_path / "f.json", tmp_path / "f.base.json")
    pretrain = [l for l in result["log"] if l.startswith("pretrain,")]
    assert len(pretrain) == other.pretrain_epochs
    for rerun, fresh in (("g.json", "f.json"), ("g.base.json", "f.base.json")):
        assert (tmp_path / rerun).read_bytes() == (tmp_path / fresh).read_bytes()


def _guidance_per_tensor(data_dir, cfg):
    """train_stage1's two guidance loops, source pretraining and stage 1, on
    their (seed, 41) and (seed, 43) shuffles, with the per-op guidance loss of
    guidance_oracle and the per-tensor RAdam of optim_oracle, one state and
    one rate per group: the rule the guidance trainer's folded loss, flat
    array and per-value rates must reproduce. Returns the log lines and the
    pretrained base's and the adapted model's tensors."""
    train, _ = stratified_split(read_dataset(data_dir / "target.csv"))
    source = read_dataset(data_dir / "source.csv")
    model = gd.GuidanceModel.build(source.d_in, cfg.hidden, cfg.d_model, source.k, cfg.rank,
                                   cfg.alpha, cfg.seed)
    tensors = lambda: [t.data.copy() for t in
                       model.base_params() + model.lora_params() + model.prompt_params()]
    log = []

    def loop(stage, tag, data, groups, lrs, warmup, epochs, batch):
        plans = [optim.LrPlan(lr, min(1e-5, lr), warmup, max(epochs, warmup + 1))
                 for lr in lrs]
        states = [oracle.AdamState() for _ in groups]
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, tag)))
        for epoch in range(epochs):
            rates = [optim.lr_at(epoch, plan) for plan in plans]
            order = rng.permutation(data.n)
            losses = []
            for start in range(0, data.n, batch):
                idx = order[start : start + batch]
                tape = GradTape()
                loss = guidance_loss_per_op(data.features[idx], data.labels[idx], model,
                                            cfg.lambda_rank, cfg.margin, tape)
                grads = iter(backward(loss, tape, [p for group in groups for p in group]))
                for group, state, lr in zip(groups, states, rates, strict=True):
                    oracle.radam_step(group, [next(grads) for _ in group], state, lr)
                losses.append(loss.item())
            line = f"{stage},{epoch},{rates[0]:.8g},{float(np.mean(losses)):.8g}"
            if stage == "stage1":
                d = similarity_per_op(model, encode_per_op(model, data.features)).data
                line += f",{float(np.mean(np.argmax(d, axis=1) == data.labels)):.6f}"
            log.append(line)

    loop("pretrain", 41, source, [model.base_params() + model.prompt_params()],
         [cfg.pretrain_lr], 0, cfg.pretrain_epochs, cfg.pretrain_batch)
    model.frozen_base = True
    base = tensors()
    loop("stage1", 43, train, [model.lora_params(), model.prompt_params()],
         [cfg.lr_lora, cfg.lr_prompt], cfg.warmup_epochs, cfg.stage1_epochs, cfg.stage1_batch)
    return log, base, tensors()


@pytest.mark.parametrize("cfg", [
    TINY,
    # past the fixed 3-epoch warmup into the cosine, and past RAdam's first steps
    replace(TINY, pretrain_epochs=4, stage1_epochs=5),
])
def test_guidance_loops_match_per_tensor_reference(cfg, small_dir, tmp_path):
    # 90 source rows and 62 train rows: every loop's last batch is short
    result = pl.train_stage1(small_dir, cfg, tmp_path / "g.json", tmp_path / "g.base.json")
    log, base, adapted = _guidance_per_tensor(small_dir, cfg)
    assert result["log"] == log
    for path, want in ((tmp_path / "g.base.json", base), (tmp_path / "g.json", adapted)):
        model = gd.load_guidance(path)
        got = model.base_params() + model.lora_params() + model.prompt_params()
        for p, w in zip(got, want, strict=True):
            assert np.array_equal(p.data, w), path.name


def test_stage2_lr_never_reaches_the_guidance_stages(small_dir, tmp_path):
    # every plan floors at the one constant lr_min, so a stage-2 rate changes
    # neither the pretrained base nor the adapted model, nor their log
    runs = []
    for name, cfg in (("a", TINY), ("b", replace(TINY, stage2_lr=2e-4))):
        out, base = tmp_path / f"{name}.json", tmp_path / f"{name}.base.json"
        result = pl.train_stage1(small_dir, cfg, out, base)
        runs.append((result["log"], out.read_bytes(), base.read_bytes()))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# stage 2


def test_stage2_requires_frozen_guidance(small_dir, tmp_path):
    model = gd.GuidanceModel.build(16, 16, 8, 3, 2, 4.0, seed=1)
    gd.save_guidance(tmp_path / "unfrozen.json", model)
    with pytest.raises(DataError, match="unfrozen.json"):
        pl.train_stage2(small_dir, tmp_path / "unfrozen.json", TINY,
                        tmp_path / "d.json")


def test_stage2_never_touches_guidance(small_dir, tmp_path):
    pl.train_stage1(small_dir, TINY, tmp_path / "g.json", tmp_path / "g.base.json")
    before = (tmp_path / "g.json").read_bytes()
    result = pl.train_stage2(small_dir, tmp_path / "g.json", TINY, tmp_path / "d.json")
    assert result["guidance_hash_before"] == result["guidance_hash_after"]
    assert (tmp_path / "g.json").read_bytes() == before


def test_stage2_loss_decreases_on_holdout(small_dir, tmp_path):
    cfg = replace(TINY, stage2_epochs=1)
    pl.train_stage1(small_dir, cfg, tmp_path / "g.json", tmp_path / "g.base.json")
    model = gd.load_guidance(tmp_path / "g.json")
    target = read_dataset(small_dir / "target.csv")
    _, test = stratified_split(target)
    f, d, prior = pl.conditioning(model, test.features)
    y0 = np.eye(test.k)[test.labels]
    sched = df.make_schedule(cfg.t_total, cfg.beta_start, cfg.beta_end)

    rng = np.random.default_rng(99)
    draws = rng.integers(1, sched.t_total + 1, test.n), rng.standard_normal((test.n, test.k))
    fresh = df.DenoiserNet.build(cfg.d_model, test.k, cfg.seed)
    before = df.epsilon_loss(fresh, f, y0, prior, d, sched, *draws).item()

    pl.train_stage2(small_dir, tmp_path / "g.json", cfg, tmp_path / "d.json")
    net, _ = df.load_denoiser(tmp_path / "d.json")
    after = df.epsilon_loss(net, f, y0, prior, d, sched, *draws).item()
    assert np.isfinite(after)
    assert after < before


def _stage2_per_item_generators(data_dir, guidance_ckpt, cfg):
    """train_stage2's loop with a forward draw per item, its timestep and
    noise taken by item from the epoch's generator, and the per-tensor
    optimizers of optim_oracle: the rule its batched draws and flat updates
    must reproduce. Returns the log lines and the weight average."""
    model, _, train, _ = pl.load_run(data_dir, guidance_ckpt)
    f, d, prior = pl.conditioning(model, train.features)
    y0 = np.eye(train.k)[train.labels]
    sched = df.make_schedule(cfg.t_total, cfg.beta_start, cfg.beta_end)
    net = df.DenoiserNet.build(cfg.d_model, train.k, cfg.seed)
    params = net.params()
    state = oracle.AdamState(beta1=0.9)
    ema = oracle.EmaState.from_params(params, cfg.ema_mu)
    plan = optim.LrPlan(cfg.stage2_lr, cfg.lr_min, 0, max(cfg.stage2_epochs, 1))
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 47)))
    log = []
    for epoch in range(cfg.stage2_epochs):
        lr = optim.lr_at(epoch, plan)
        order = rng.permutation(train.n)
        draws = np.random.default_rng(np.random.SeedSequence((cfg.seed, 53, epoch)))
        epoch_t = draws.integers(1, sched.t_total + 1, train.n)
        epoch_eps = draws.standard_normal((train.n, train.k))
        losses = []
        for start in range(0, train.n, cfg.stage2_batch):
            idx = order[start : start + cfg.stage2_batch]
            t_values = np.empty(len(idx), dtype=np.int64)
            eps = np.empty((len(idx), train.k))
            y_t = np.empty((len(idx), train.k))
            for i, key in enumerate(idx):
                t_values[i] = epoch_t[key]
                eps[i] = epoch_eps[key]
                y_t[i] = df.forward_sample(y0[key], prior[key], int(t_values[i]), eps[i], sched)
            tape = GradTape()
            x = df.conditioning_input(f[idx], y_t, prior[idx], d[idx], sched.temb[t_values])
            eps_hat = df.eps_predict(net, x, tape)
            diff = nk.sub(Tensor2(eps), eps_hat, tape)
            loss = nk.mean_all(nk.mul(diff, diff, tape), tape)
            grads, _ = oracle.clip_grad_norm(backward(loss, tape, params), cfg.clip)
            oracle.adam_step(params, grads, state, lr)
            oracle.ema_update(ema, params)
            losses.append(loss.item())
        log.append(f"stage2,{epoch},{lr:.8g},{float(np.mean(losses)):.8g}")
    return log, ema.shadow


def _assert_stage2_matches_per_item_generators(data_dir, tmp_path, cfg):
    pl.train_stage1(data_dir, cfg, tmp_path / "g.json", tmp_path / "g.base.json")
    result = pl.train_stage2(data_dir, tmp_path / "g.json", cfg, tmp_path / "d.json")
    log, average = _stage2_per_item_generators(data_dir, tmp_path / "g.json", cfg)
    assert result["log"] == log
    net, _ = result["denoiser"]
    for p, want in zip(net.params(), average, strict=True):
        assert np.array_equal(p.data, want)


def test_stage2_matches_per_item_generators(small_dir, tmp_path):
    # 62 train rows in batches of 16: the last batch is short
    _assert_stage2_matches_per_item_generators(
        small_dir, tmp_path, replace(TINY, stage2_epochs=3))


@pytest.mark.parametrize("seed", [2**32, 10**20])
def test_stage2_matches_per_item_generators_at_large_seeds(seed, small_dir, tmp_path):
    # a seed SeedSequence hashes as two or three words
    _assert_stage2_matches_per_item_generators(
        small_dir, tmp_path, replace(TINY, stage2_epochs=3, seed=seed))


def _stage2_item_draws(data_dir, guidance_ckpt, cfg, out, monkeypatch):
    """The (timestep, noise) train_stage2 gives each train item in each
    epoch, as (epochs, n) and (epochs, n, k) arrays in item order."""
    calls = []
    loss = df.epsilon_loss

    def recording(net, f, y0, y_hat0, d, sched, t_values, eps, tape=None):
        calls.append((f, t_values, eps))
        return loss(net, f, y0, y_hat0, d, sched, t_values, eps, tape)

    with monkeypatch.context() as m:
        m.setattr(df, "epsilon_loss", recording)
        pl.train_stage2(data_dir, guidance_ckpt, cfg, out)
    model, _, train, _ = pl.load_run(data_dir, guidance_ckpt)
    # the conditioning rows are distinct, so each names its item
    item = {row.tobytes(): i for i, row in enumerate(pl.conditioning(model, train.features)[0])}
    assert len(item) == train.n
    f, t_values, eps = (np.concatenate(parts) for parts in zip(*calls))
    rows = np.array([item[row.tobytes()] for row in f]).reshape(cfg.stage2_epochs, train.n)
    order = np.argsort(rows, axis=1)
    return (np.take_along_axis(t_values.reshape(rows.shape), order, axis=1),
            eps.reshape(*rows.shape, -1)[np.arange(cfg.stage2_epochs)[:, None], order])


def test_stage2_item_draws_do_not_depend_on_the_batch(small_dir, tmp_path, monkeypatch):
    # 62 train rows: four batches of 16 (the last short), or one batch
    cfg = replace(TINY, stage2_epochs=2)
    pl.train_stage1(small_dir, cfg, tmp_path / "g.json", tmp_path / "g.base.json")
    draws = [_stage2_item_draws(small_dir, tmp_path / "g.json", replace(cfg, stage2_batch=b),
                                tmp_path / f"d{b}.json", monkeypatch)
             for b in (16, 63)]
    (t16, eps16), (t63, eps63) = draws
    assert t16.shape == (2, 62)
    assert np.array_equal(t16, t63)
    assert np.array_equal(eps16, eps63)
    # and the two epochs draw apart
    assert not np.array_equal(t16[0], t16[1])


def test_stage2_nonfinite_weight_raises(small_dir, tiny_trained, tmp_path, monkeypatch):
    # a denoiser weight of 1e308 overflows the taped forward; the stage-2
    # loss check refuses it and no checkpoint is written
    build = df.DenoiserNet.build

    def overflowing(*args):
        net = build(*args)
        net.layers[0][0].data[0, 0] = 1e308
        return net

    monkeypatch.setattr(df.DenoiserNet, "build", overflowing)
    out = tmp_path / "d.json"
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="stage2 epoch 0"):
        pl.train_stage2(small_dir, tiny_trained / "g.json", TINY, out)
    assert not out.exists()


def test_nonfinite_loss_guard(small_dir, monkeypatch):
    # a guidance loss scaled to nan or inf is refused by the training loop's
    # check_finite in the epoch it appears; a finite one passes
    source = pl.load_domain(small_dir, "source")
    loss_fn = gd.guidance_loss
    for bad in (float("nan"), float("inf")):
        monkeypatch.setattr(
            gd, "guidance_loss",
            lambda *args, bad=bad: nk.scale(loss_fn(*args), bad, args[-1]),
        )
        with np.errstate(all="ignore"), pytest.raises(
            NumericError, match="non-finite value in the loss of pretrain epoch 0"
        ):
            pl.pretrain_base(source, TINY, [])
    monkeypatch.setattr(gd, "guidance_loss", loss_fn)
    log: list[str] = []
    pl.pretrain_base(source, TINY, log)
    assert all(math.isfinite(float(line.split(",")[-1])) for line in log)


def test_nonfinite_stage1_loss_names_its_stage(small_dir, tmp_path, monkeypatch):
    # a loss that turns nan only once the base is frozen passes pretraining
    # and is refused in stage 1's first epoch, under stage 1's name; neither
    # the base nor the adapted model is written
    loss_fn = gd.guidance_loss

    def nan_once_frozen(features, labels, model, *args):
        loss = loss_fn(features, labels, model, *args)
        return nk.scale(loss, float("nan"), args[-1]) if model.frozen_base else loss

    monkeypatch.setattr(gd, "guidance_loss", nan_once_frozen)
    with np.errstate(all="ignore"), pytest.raises(
        NumericError, match="non-finite value in the loss of stage1 epoch 0"
    ):
        pl.train_stage1(small_dir, TINY, tmp_path / "g.json", tmp_path / "g.base.json")
    assert not (tmp_path / "g.base.json").exists() and not (tmp_path / "g.json").exists()


def test_stage2_saves_the_weight_average(small_dir, tmp_path):
    # both runs train the same raw weights, and with ema_mu = 0 the average is
    # the raw set itself, so the files differ only if they hold the average
    pl.train_stage1(small_dir, TINY, tmp_path / "g.json", tmp_path / "g.base.json")
    params = []
    for mu in (0.9, 0.0):
        out = tmp_path / f"d{mu}.json"
        pl.train_stage2(small_dir, tmp_path / "g.json", replace(TINY, ema_mu=mu), out)
        params.append(df.load_denoiser(out)[0].params())
    assert any(not np.array_equal(a.data, b.data) for a, b in zip(*params))


def test_stage2_log_schema(small_dir, tmp_path):
    pl.train_stage1(small_dir, TINY, tmp_path / "g.json", tmp_path / "g.base.json")
    result = pl.train_stage2(small_dir, tmp_path / "g.json", TINY, tmp_path / "d.json")
    lines = result["log"]
    assert len(lines) == TINY.stage2_epochs
    parts = lines[0].split(",")
    assert parts[0] == "stage2" and int(parts[1]) == 0
    float(parts[2]), float(parts[3])


# ---------------------------------------------------------------------------
# evaluation


@pytest.fixture(scope="module")
def tiny_trained(small_dir, tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny_trained")
    pl.train_stage1(small_dir, TINY, work / "g.json", work / "g.base.json")
    pl.train_stage2(small_dir, work / "g.json", TINY, work / "d.json")
    return work


@pytest.fixture(scope="module")
def tiny_run(small_dir, tiny_trained):
    """The tiny run's models and test split, read once."""
    return pl.load_run(small_dir, tiny_trained / "g.json", tiny_trained / "d.json")


def test_evaluate_zero_shot_report_schema(tiny_run):
    model, _, _, test = tiny_run
    report = pl.evaluate(model, None, test, TINY)
    for key in ("accuracy", "macro_f1", "qwk", "mean_abs_grade_error", "per_class_f1",
                "confusion", "n_eval", "nfe_per_chain", "seed", "config_digest", "mode",
                "paper_reference"):
        assert key in report
    assert report["mode"] == "zero-shot"
    assert report["n_eval"] == test.n
    assert report["nfe_per_chain"] == 0
    assert sum(map(sum, report["confusion"])) == test.n


@pytest.mark.parametrize("chain_steps, nfe", [(5, 5), (10, 10), (20, 20), (1000, 20)])
def test_diffusion_report_counts_the_denoiser_calls_per_chain(tiny_run, chain_steps, nfe,
                                                              monkeypatch):
    # nfe_per_chain is min(chain_steps, T), here T = 20: a K above T runs T
    # steps, and the report says so; one call per step per row block
    model, denoiser, _, test = tiny_run
    calls, eps_predict = [], df.eps_predict

    def counted(*args, **kwargs):
        calls.append(1)
        return eps_predict(*args, **kwargs)

    monkeypatch.setattr(df, "eps_predict", counted)
    report = pl.evaluate(model, denoiser, test, replace(TINY, chain_steps=chain_steps))
    assert report["nfe_per_chain"] == nfe and denoiser[1].t_total == 20
    assert test.n * TINY.n_samples <= df.ROW_BLOCK and len(calls) == nfe


def test_report_ordinal_metrics_are_its_confusions(tiny_run):
    # qwk and mean_abs_grade_error are those of the report's own confusion
    model, denoiser, _, test = tiny_run
    for report in (pl.evaluate(model, None, test, TINY),
                   pl.evaluate(model, denoiser, test, TINY)):
        counts = np.array(report["confusion"])
        labels = np.repeat(np.arange(test.k), counts.sum(axis=1))
        preds = np.concatenate([np.repeat(np.arange(test.k), row) for row in counts])
        _, _, _, _, qwk, mae = confusion_and_metrics(preds, labels, test.k)
        assert (report["qwk"], report["mean_abs_grade_error"]) == (qwk, mae)


def test_evaluate_byte_identical_reports(small_dir, tiny_trained, tmp_path):
    # two cgsd eval runs write the same bytes: the report evaluate returns
    for name in ("a.json", "b.json"):
        assert cli.main([
            "eval", "--data", str(small_dir), "--guidance", str(tiny_trained / "g.json"),
            "--diffusion", str(tiny_trained / "d.json"), "--report", str(tmp_path / name),
            "--seed", str(TINY.seed),
        ]) == 0
    written = (tmp_path / "a.json").read_bytes()
    assert written == (tmp_path / "b.json").read_bytes()
    cfg = pl.RunConfig(seed=TINY.seed)
    model, denoiser, _, test = pl.load_run(small_dir, tiny_trained / "g.json",
                                           tiny_trained / "d.json")
    assert json.loads(written) == pl.evaluate(model, denoiser, test, cfg)


def test_diffusion_predict_invariant_to_chunking(tiny_run):
    # sample_chains on all test items at once against two slices that keep
    # their own item keys; with enough samples the whole batch spans more
    # than one row block
    model, (net, sched), _, test = tiny_run
    f, d, prior = pl.conditioning(model, test.features)
    keys = np.arange(test.n)
    many = df.ROW_BLOCK // test.n + 2
    assert test.n * TINY.n_samples <= df.ROW_BLOCK < test.n * many

    def means(rows, n_samples):
        mean, _ = df.sample_chains(net, sched, f[rows], d[rows], prior[rows],
                                   TINY.seed, keys[rows], TINY.chain_steps, n_samples)
        return mean

    cut = test.n // 3
    for n_samples in (TINY.n_samples, many):
        whole = means(slice(None), n_samples)
        chunked = np.concatenate([means(slice(0, cut), n_samples),
                                  means(slice(cut, None), n_samples)])
        assert np.array_equal(whole, chunked)


def test_full_split_encodes_peak_below_their_outputs(bench_dir):
    # the train split's 2,563 rows run in row blocks, so the peak of traced
    # allocations stays near the conditioning's own arrays (one pass over all
    # rows peaked at 5.4 times them)
    cfg = pl.RunConfig()
    train, _ = stratified_split(read_dataset(bench_dir / "target.csv"))
    model = gd.GuidanceModel.build(train.d_in, cfg.hidden, cfg.d_model, train.k,
                                   cfg.rank, cfg.alpha, cfg.seed)

    def traced(encode):
        tracemalloc.start()
        try:
            return encode(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cond, cond_peak = traced(lambda: pl.conditioning(model, train.features))
    outputs = sum(a.nbytes for a in cond)
    assert train.n == 2563
    assert cond_peak < 2.5 * outputs, cond_peak / outputs


def _assert_n1_equals_single_chain(seed):
    # sample_chains' mean of one sample per item is the final state of one
    # chain on the first (K + 1) x k block of the substream (seed, 101,
    # item_key), run as sample_chains runs it: in whole row tiles, here the 3
    # rows and 13 zero rows; at the default K and at K = T
    net = df.DenoiserNet.build(d_model=4, k=3, seed=11)
    sched = df.make_schedule(100, 1e-3, 0.2)
    f, d = np.zeros((3, 4)), np.zeros((3, 3))
    prior = np.array([[0.2, 0.5, 0.3], [0.6, 0.2, 0.2], [0.1, 0.1, 0.8]])
    keys = np.array([5, 9, 2])
    for chain_steps in (pl.RunConfig().chain_steps, sched.t_total):
        grid = df.chain_grid(sched.t_total, chain_steps)
        noise = np.stack([
            np.random.default_rng(np.random.SeedSequence((seed, 101, key)))
            .standard_normal((chain_steps + 1, 3))
            for key in keys.tolist()
        ])
        pad = lambda a: np.concatenate([a, np.zeros((df.ROW_TILE - 3,) + a.shape[1:])])
        single, _ = df.sample_chain_batch(net, pad(f), pad(d), pad(prior), sched, grid,
                                          pad(noise))
        mean, _ = df.sample_chains(net, sched, f, d, prior, seed, keys, chain_steps)
        np.testing.assert_array_equal(mean, single[:3])


def test_diffusion_predict_n1_equals_single_chain():
    _assert_n1_equals_single_chain(12)


@pytest.mark.parametrize("seed", [2**32, 10**20])
def test_diffusion_predict_n1_equals_single_chain_at_large_seeds(seed):
    _assert_n1_equals_single_chain(seed)




def test_evaluate_rejects_version_mismatch(small_dir, tiny_trained, tmp_path):
    bad = tmp_path / "bad.json"
    shutil.copy(tiny_trained / "g.json", bad)
    ckpt.set_meta(bad, format="cgsd-guidance-v999")
    from cgsd.errors import ParseError

    with pytest.raises(ParseError):
        pl.load_run(small_dir, bad)


# ---------------------------------------------------------------------------
# ablation (tiny desk-style run)


def test_ablate_rows_share_split_and_digest(small_dir, tmp_path):
    report = pl.ablate(small_dir, TINY, tmp_path / "ablation.json")
    rows = report["rows"]
    assert len(rows) == 3
    assert len({r["split_hash"] for r in rows}) == 1
    assert len({r["config_digest"] for r in rows}) == 1
    assert report["stage1"]["frozen_hash_before"] == report["stage1"]["frozen_hash_after"]
    assert report["stage2"]["guidance_hash_before"] == report["stage2"]["guidance_hash_after"]
    names = [r["configuration"] for r in rows]
    assert names[0].startswith("zero-shot")
    assert "paper_reference" in report


def test_desk_ablation_reproduces_the_seed_42_rows(desk_ablation):
    # the desk reproduction's bits: test items correct out of 1,099 and
    # macro-F1 per row, the diffusion row at the default 25-step chain; a
    # change to the recipe updates these on purpose
    pinned = [
        (584, 0.37828233219102614),
        (647, 0.3908345476956082),
        (680, 0.3668160459001773),
    ]
    rows = desk_ablation["report"]["rows"]
    assert desk_ablation["cfg"].chain_steps == 25
    for row, (correct, macro_f1) in zip(rows, pinned, strict=True):
        assert row["accuracy"] == pytest.approx(correct / 1099, abs=1e-12)
        assert row["macro_f1"] == pytest.approx(macro_f1, abs=1e-12)


def test_desk_diffusion_row_at_the_full_chain_keeps_its_pin(desk_ablation):
    # the fixture's checkpoints scored at chain_steps = T = 100, the full
    # chain, give the diffusion row every earlier desk run pinned
    cfg = replace(desk_ablation["cfg"], chain_steps=100)
    model, denoiser, _, test = pl.load_run(desk_ablation["data_dir"], desk_ablation["guidance"],
                                           desk_ablation["denoiser"])
    report = pl.evaluate(model, denoiser, test, cfg)
    assert report["nfe_per_chain"] == 100
    assert report["accuracy"] == pytest.approx(661 / 1099, abs=1e-12)
    assert report["macro_f1"] == pytest.approx(0.35250648382666505, abs=1e-12)


def test_desk_report_carries_its_config_digest(desk_ablation):
    # the config a caller builds is the one that runs, so the report names it
    digest = desk_ablation["cfg"].digest()
    report = desk_ablation["report"]
    assert report["config_digest"] == digest
    assert [row["config_digest"] for row in report["rows"]] == [digest] * 3


def test_cli_eval_of_desk_checkpoints_reports_their_training_digest(desk_ablation, tmp_path):
    # cgsd eval at its defaults scores the ablation's checkpoints under the
    # digest in ablation.json, the config that trained them
    trained = json.loads((desk_ablation["out_dir"] / "ablation.json").read_text())
    argv = ["eval", "--data", str(desk_ablation["data_dir"]),
            "--guidance", str(desk_ablation["guidance"]), "--report", str(tmp_path / "r.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["config_digest"] == trained["config_digest"] == "e01acb1d9982fc25"


def test_stages_return_the_models_they_save(small_dir, tmp_path):
    # ablate scores the returned objects instead of reading the files back,
    # which is right only while the two are equal, array for array
    s1 = pl.train_stage1(small_dir, TINY, tmp_path / "g.json", tmp_path / "g.base.json")
    s2 = pl.train_stage2(small_dir, tmp_path / "g.json", TINY, tmp_path / "d.json")
    weights = lambda m: m.base_params() + m.lora_params() + m.prompt_params()
    for name, path in (("base", "g.base.json"), ("model", "g.json")):
        model, loaded = s1[name], gd.load_guidance(tmp_path / path)
        assert model.frozen_base is loaded.frozen_base is True
        assert (model.lora_a.rows, model.alpha) == (loaded.lora_a.rows, loaded.alpha)
        assert model.log_scale.item() == loaded.log_scale.item()
        for a, b in zip(weights(model), weights(loaded), strict=True):
            assert np.array_equal(a.data, b.data)
    (net, sched), (net_read, sched_read) = s2["denoiser"], df.load_denoiser(tmp_path / "d.json")
    assert (net.d_model, net.k) == (net_read.d_model, net_read.k)
    for a, b in zip(net.params(), net_read.params(), strict=True):
        assert np.array_equal(a.data, b.data)
    assert sched.t_total == sched_read.t_total
    for name in ("beta", "alpha_bar", "temb"):
        assert np.array_equal(getattr(sched, name), getattr(sched_read, name))


@pytest.mark.parametrize("seed, fraction", [(TINY.seed, 0.7), (5, 0.6)])
def test_stage1_test_split_is_load_runs(small_dir, tmp_path, monkeypatch, seed, fraction):
    # ablate scores stage 1's test split and cgsd eval load_run's: at one
    # run seed and split fraction they are one split, row for row
    monkeypatch.setattr("cgsd.data.TRAIN_FRACTION", fraction)
    cfg = replace(TINY, pretrain_epochs=0, stage1_epochs=0, seed=seed)
    s1 = pl.train_stage1(small_dir, cfg, tmp_path / "g.json", tmp_path / "g.base.json")
    test = pl.load_run(small_dir, tmp_path / "g.json")[3]
    assert (s1["test"].k, s1["test"].domain_tag, s1["test"].seed) == (
        test.k, test.domain_tag, test.seed)
    assert np.array_equal(s1["test"].features, test.features)
    assert np.array_equal(s1["test"].labels, test.labels)


def test_a_run_seed_never_scores_training_rows(desk_ablation, tmp_path):
    # the seed-42 checkpoints scored at run seed 7 score the rows the seed-42
    # ablation held out (729 of stage 1's training rows while the run seed
    # seeded the split)
    data_dir, guidance = desk_ablation["data_dir"], desk_ablation["guidance"]
    trained = {row.tobytes() for row in pl.load_run(data_dir, guidance)[2].features}
    test = pl.load_run(data_dir, guidance)[3]
    assert not any(row.tobytes() in trained for row in test.features)
    report = tmp_path / "r.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["eval", "--data", str(data_dir), "--guidance", str(guidance),
                         "--seed", "7", "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["n_eval"] == test.n == 1099
    # the ablation's adapted row, scored on the same rows
    assert doc["accuracy"] == desk_ablation["report"]["rows"][1]["accuracy"]


def test_every_run_seed_trains_and_scores_one_split(small_dir, tmp_path, monkeypatch):
    # the run seed seeds initialisation, shuffles and draws, never the split
    hashes = []
    for seed in (TINY.seed, TINY.seed + 1):
        (tmp_path / str(seed)).mkdir()
        out = tmp_path / str(seed) / "ablation.json"
        hashes.append(pl.ablate(small_dir, replace(TINY, seed=seed), out)["split_hash"])
    assert hashes[0] == hashes[1]

    # stage 2 at another run seed than stage 1's trains on stage 1's rows
    s1 = pl.train_stage1(small_dir, TINY, tmp_path / "g.json", tmp_path / "g.base.json")
    held_out = {row.tobytes() for row in s1["test"].features}
    target = read_dataset(small_dir / "target.csv")
    stage1_rows = [row.tobytes() for row in target.features if row.tobytes() not in held_out]
    seen, real = [], pl.conditioning

    def recording(model, features):
        seen.append(features)
        return real(model, features)

    monkeypatch.setattr(pl, "conditioning", recording)
    pl.train_stage2(small_dir, tmp_path / "g.json", replace(TINY, seed=TINY.seed + 1),
                    tmp_path / "d.json")
    assert [row.tobytes() for row in seen[0]] == stage1_rows


def test_ablate_reads_each_input_once_per_stage(small_dir, tmp_path, monkeypatch):
    # stage 1 and stage 2 each read target.csv once, and ablate scores stage
    # 1's test split; the pretrain reads source.csv, and only stage 2 loads a
    # guidance checkpoint, the adapted model
    reads = _count_calls(monkeypatch, pl, "read_dataset")
    guidance_loads = _count_calls(monkeypatch, gd, "load_guidance")
    denoiser_loads = _count_calls(monkeypatch, df, "load_denoiser")
    pl.ablate(small_dir, TINY, tmp_path / "ablation.json")
    assert sorted(reads) == ["source.csv", "target.csv", "target.csv"]
    assert guidance_loads == ["ablate_guidance.json"]
    assert denoiser_loads == []


def test_ablate_pretrains_a_fresh_base(small_dir, tmp_path):
    # a base left in the directory by an ablation at another seed is not
    # reused: the second run's base and report are a fresh directory's
    other = replace(TINY, seed=8)
    for name in ("shared", "fresh"):
        (tmp_path / name).mkdir()
    pl.ablate(small_dir, TINY, tmp_path / "shared" / "ablation.json")
    reused = pl.ablate(small_dir, other, tmp_path / "shared" / "ablation.json")
    fresh = pl.ablate(small_dir, other, tmp_path / "fresh" / "ablation.json")
    base = "ablate_guidance.base.json"
    assert (tmp_path / "shared" / base).read_bytes() == (tmp_path / "fresh" / base).read_bytes()
    assert reused == fresh


def test_cli_ablate_end_to_end(small_dir, tmp_path):
    # cgsd ablate prints the rows in order and writes pipeline.ablate's bytes;
    # the command makes its --out's directory, the library writes into one
    argv = ["ablate", "--data", str(small_dir), "--out", str(tmp_path / "cli" / "ablation.json"),
            "--seed", "7"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    (tmp_path / "lib").mkdir()
    report = pl.ablate(small_dir, pl.RunConfig(seed=7),
                       tmp_path / "lib" / "ablation.json")
    assert [row["configuration"] for row in report["rows"]] == [
        "zero-shot guidance (source pretraining only)", "+ low-rank adaptation",
        "+ label-space diffusion"]
    assert out.getvalue().splitlines() == [
        f"{row['configuration']}: accuracy={row['accuracy']:.4f} "
        f"macro_f1={row['macro_f1']:.4f}" for row in report["rows"]]
    names = sorted(p.name for p in (tmp_path / "lib").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "cli").iterdir())
    assert len(names) == 4
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


# ---------------------------------------------------------------------------
# trajectory export


def test_export_trajectory_schema(small_dir, tiny_trained, tmp_path):
    out = tmp_path / "traj.csv"
    doc = pl.export_trajectory(
        small_dir, tiny_trained / "g.json", tiny_trained / "d.json",
        [TINY.t_total, 0], out, TINY
    )
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,item_id,true_label,px,py"
    target = read_dataset(small_dir / "target.csv")
    _, test = stratified_split(target)
    assert len(lines) - 1 == 2 * test.n
    sil = json.loads((tmp_path / "traj.csv.silhouette.json").read_text())
    assert set(sil["silhouette_by_step"]) == {"0", str(TINY.t_total)}
    assert doc["silhouette_by_step"] == sil["silhouette_by_step"]


def test_export_trajectory_rejects_empty_steps(small_dir, tiny_trained, tmp_path):
    with pytest.raises(ConfigError):
        pl.export_trajectory(small_dir, tiny_trained / "g.json",
                             tiny_trained / "d.json", [], tmp_path / "t.csv", TINY)


def test_export_trajectory_rejects_out_of_range_step(small_dir, tiny_trained, tmp_path):
    with pytest.raises(ConfigError):
        pl.export_trajectory(small_dir, tiny_trained / "g.json",
                             tiny_trained / "d.json", [TINY.t_total + 1],
                             tmp_path / "t.csv", TINY)


@pytest.mark.parametrize("step", [TINY.t_total / 2 + 0.5, 2.0, True, "3"])
def test_export_trajectory_rejects_a_step_that_is_not_an_integer(
        small_dir, tiny_trained, tmp_path, step):
    # a step the chain never records would export unwritten memory
    with pytest.raises(ConfigError, match="not an integer"):
        pl.export_trajectory(small_dir, tiny_trained / "g.json", tiny_trained / "d.json",
                             [TINY.t_total, step, 0], tmp_path / "t.csv", TINY)
    assert not (tmp_path / "t.csv").exists()


def test_export_trajectory_refuses_a_step_off_the_chain_grid(small_dir, tiny_trained,
                                                             tmp_path):
    # TINY's T = 20 chain at its K = 10 visits the even steps only;
    # at K = T every step is on the grid
    args = (small_dir, tiny_trained / "g.json", tiny_trained / "d.json")
    with pytest.raises(ConfigError, match="not on the chain's 10-step grid of stride 2"):
        pl.export_trajectory(*args, [20, 7, 0], tmp_path / "t.csv", TINY)
    assert not (tmp_path / "t.csv").exists()
    doc = pl.export_trajectory(*args, [20, 7, 0], tmp_path / "t.csv",
                               replace(TINY, chain_steps=20))
    assert set(doc["silhouette_by_step"]) == {"20", "7", "0"}


def test_export_trajectory_default_steps_follow_the_schedule(tiny_inputs, tmp_path):
    # without --steps a T = 10 denoiser records T, 4T/5, ..., 0, and at a K
    # that 5 does not divide, steps of its grid (10, 6, 3, 0 at K = 3)
    df.save_denoiser(tmp_path / "d10.json", df.DenoiserNet.build(d_model=8, k=3, seed=1),
                     (10, 1e-3, 0.2))
    argv = ["export-trajectory", "--data", str(tiny_inputs / "data"),
            "--guidance", str(tiny_inputs / "g.npz"),
            "--diffusion", str(tmp_path / "d10.json"), "--out", str(tmp_path / "t.csv")]
    for extra, want in (([], [10, 8, 6, 4, 2, 0]), (["--steps", "10,4"], [10, 4]),
                        (["--chain-steps", "3"], [10, 6, 3, 0])):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + extra) == 0
        rows = (tmp_path / "t.csv").read_text().splitlines()[1:]
        assert list(dict.fromkeys(int(row.split(",")[0]) for row in rows)) == want


def test_readme_trajectory_demo_runs(tmp_path):
    # the README's three-command trajectory demo, on a smaller benchmark
    data = tmp_path / "D"
    commands = [
        ["gen-data", "--k", "2", "--proportions", "0.5,0.5", "--separation", "6",
         "--n", "300", "--out", str(data)],
        ["ablate", "--data", str(data), "--out", str(data / "ablation.json")],
        ["export-trajectory", "--data", str(data),
         "--guidance", str(data / "ablate_guidance.json"),
         "--diffusion", str(data / "ablate_denoiser.json"), "--out", str(data / "trajectory.csv")],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert [cli.main(argv) for argv in commands] == [0, 0, 0]
    _, test = stratified_split(read_dataset(data / "target.csv"))
    assert len((data / "trajectory.csv").read_text().splitlines()) == 1 + 6 * test.n
    sil = json.loads((data / "trajectory.csv.silhouette.json").read_text())
    assert sorted(sil["silhouette_by_step"], key=int, reverse=True) == [
        "100", "80", "60", "40", "20", "0"]


# ---------------------------------------------------------------------------
# CLI


def test_cli_gen_data_and_roundtrip(tmp_path):
    out = tmp_path / "data"
    code = cli.main([
        "gen-data", "--out", str(out), "--n", "60", "--d-in", "8", "--k", "3",
        "--proportions", "0.4,0.3,0.3", "--seed", "5",
    ])
    assert code == 0
    source = read_dataset(out / "source.csv")
    target = read_dataset(out / "target.csv")
    assert source.n == 60 and target.n == 60 and source.k == 3


@pytest.mark.parametrize("command", ["", *cli._COMMANDS], ids=lambda command: command or "cgsd")
def test_cli_help_prints_the_usage_and_returns_0(command, tmp_path, monkeypatch, capsys):
    # --help returns to an in-process caller instead of ending it, and
    # writes nothing but the usage
    monkeypatch.chdir(tmp_path)
    assert cli.main([command, "--help"] if command else ["--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"usage: cgsd {command}".rstrip() + " ") and err == ""
    assert list(tmp_path.iterdir()) == []


def test_cli_missing_required_flag_is_config_error(capsys):
    assert cli.main(["gen-data"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_bad_proportions_is_config_error(tmp_path):
    code = cli.main([
        "gen-data", "--out", str(tmp_path / "d"), "--k", "3",
        "--proportions", "0.5,0.5",
    ])
    assert code == 2


def test_cli_unknown_config_key_is_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code = cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")])
    assert code == 2


def test_cli_config_file_merge_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "out": str(tmp_path / "from_config"),
        "n": 40, "d_in": 8, "k": 2, "proportions": [0.5, 0.5], "seed": 9,
    }))
    # flag overrides the config file's n
    code = cli.main(["gen-data", "--config", str(cfg), "--n", "50"])
    assert code == 0
    ds = read_dataset(tmp_path / "from_config" / "source.csv")
    assert ds.n == 50
    assert ds.seed == 9  # seed came from the config file


def test_cli_missing_data_is_data_error(tmp_path, capsys):
    code = cli.main([
        "eval", "--data", str(tmp_path / "nope"), "--guidance",
        str(tmp_path / "g.json"), "--report", str(tmp_path / "r.json"),
    ])
    assert code == 3
    assert "data error" in capsys.readouterr().err


def _count_calls(monkeypatch, owner, name):
    """The name of the file each call of owner.name is given, in call order."""
    names = []
    real = getattr(owner, name)

    def counting(path, *args, **kwargs):
        names.append(Path(path).name)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return names


def test_eval_reads_only_the_target_domain(small_dir, tiny_trained, tmp_path,
                                           monkeypatch):
    data = tmp_path / "data"
    shutil.copytree(small_dir, data)
    (data / "source.csv").write_bytes(b"\xff not a benchmark file\n")
    reads = _count_calls(monkeypatch, pl, "read_dataset")
    assert cli.main([
        "eval", "--data", str(data), "--guidance", str(tiny_trained / "g.json"),
        "--diffusion", str(tiny_trained / "d.json"), "--report",
        str(tmp_path / "r.json"),
    ]) == 0
    assert reads == ["target.csv"]


def test_stage1_reads_source_only_to_pretrain(small_dir, tmp_path, monkeypatch):
    data = tmp_path / "data"
    shutil.copytree(small_dir, data)
    reads = _count_calls(monkeypatch, pl, "read_dataset")
    pl.train_stage1(data, TINY, tmp_path / "g1.json", tmp_path / "g1.base.json")
    assert sorted(reads) == ["source.csv", "target.csv"]
    # without source.csv stage 1 cannot pretrain, and a base file beside
    # --out does not stand in for it
    (data / "source.csv").unlink()
    (data / "source.csv.meta.json").unlink()
    with pytest.raises(DataError, match="run gen-data first"):
        pl.train_stage1(data, TINY, tmp_path / "g2.json", tmp_path / "g1.base.json")


def test_cli_numeric_failure_exit_code(monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise NumericError("non-finite loss at stage1,0")

    monkeypatch.setattr(pl, "train_stage1", boom)
    code = cli.main([
        "train-guidance", "--data", str(tmp_path), "--out",
        str(tmp_path / "g.json"),
    ])
    assert code == 4


def test_cli_train_and_eval_end_to_end(tmp_path):
    data = tmp_path / "data"
    assert cli.main([
        "gen-data", "--out", str(data), "--n", "60", "--d-in", "8", "--k", "2",
        "--proportions", "0.5,0.5", "--seed", "5",
    ]) == 0
    assert cli.main([
        "train-guidance", "--data", str(data), "--out", str(tmp_path / "g.json"),
        "--rank", "2", "--stage1-epochs", "1", "--stage1-batch", "16",
        "--seed", "5",
    ]) == 0
    assert (tmp_path / "g.json.log").exists()
    assert cli.main([
        "train-diffusion", "--data", str(data), "--guidance",
        str(tmp_path / "g.json"), "--out", str(tmp_path / "d.json"),
        "--t-total", "10", "--stage2-epochs", "1", "--stage2-batch", "16", "--seed", "5",
    ]) == 0
    assert cli.main([
        "eval", "--data", str(data), "--guidance", str(tmp_path / "g.json"),
        "--diffusion", str(tmp_path / "d.json"), "--report",
        str(tmp_path / "r.json"), "--seed", "5",
    ]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["mode"] == "diffusion"


def _copy_of(name):
    """Write a copy of the fixture's file name at the path."""
    return lambda path: path.write_bytes((path.parent / name).read_bytes())


def _truncate(path):
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])


def _short_weights(path):
    """layer0_w's .npy member one float short of the shape its header gives."""
    ckpt.set_member(path, "layer0_w.npy", ckpt.members(path)["layer0_w.npy"][:-8])


def _denoiser_v1(path):
    """Tag a denoiser file with the retired v1 layout: raw weights, the weight
    average under ema_ names and a shapes map."""
    doc = ckpt.meta(path)
    shapes = {}
    for i, (fan_in, fan_out) in enumerate(df.layer_dims(doc["d_model"], doc["k"])):
        shapes[f"layer{i}_w"], shapes[f"layer{i}_b"] = [fan_out, fan_in], [1, fan_out]
    ckpt.set_meta(path, format="cgsd-denoiser-v1", shapes=shapes)
    for name, blob in ckpt.members(path).items():
        if name.endswith(".npy"):
            ckpt.set_member(path, "ema_" + name, blob)


def _retired_json(path):
    """Rewrite a checkpoint as the retired JSON object of flat weight lists."""
    names = [n[: -len(".npy")] for n in ckpt.members(path) if n.endswith(".npy")]
    weights = {name: ckpt.array(path, name).flatten().tolist() for name in names}
    path.write_text(json.dumps({**ckpt.meta(path), "weights": weights}))


def _huge_shape(path):
    """layer0_w's .npy header declares shape (10**9, 10**6) over 16 data bytes."""
    npy = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        npy, {"descr": "<f8", "fortran_order": False, "shape": (10**9, 10**6)})
    ckpt.set_member(path, "layer0_w.npy", npy.getvalue() + bytes(16))


def _npy_v2(path):
    """layer0_w stored as a version 2.0 .npy member, its dtype and shape kept."""
    arr = ckpt.array(path, "layer0_w")
    npy = io.BytesIO()
    np.lib.format.write_array(npy, arr, version=(2, 0))
    ckpt.set_member(path, "layer0_w.npy", npy.getvalue())


def _non_utf8(path):
    blob = path.read_bytes()
    cut = len(blob) // 2
    path.write_bytes(blob[:cut] + b"\xff" + blob[cut:])


def _one_grade(path):
    """A guidance file consistent in itself but recording a single grade."""
    ckpt.set_meta(path, k=1)
    ckpt.set_array(path, "prompts", ckpt.array(path, "prompts")[:1])


def _feature(value, split):
    """Damage that writes value into one feature of the first target.csv row
    the default configuration's split puts in split (0 train, 1 test)."""
    def damage(path):
        target = read_dataset(path)
        row = stratified_split(target)[split].features[0]
        line = 1 + int(np.flatnonzero((target.features == row).all(axis=1))[0])
        lines = path.read_text().split("\n")
        fields = lines[line].split(",")
        fields[3] = value
        lines[line] = ",".join(fields)
        path.write_text("\n".join(lines))
    return damage


def _dataset_meta(key, value):
    """Damage that sets one field of a dataset's sidecar."""
    def damage(path):
        meta = Path(str(path) + ".meta.json")
        meta.write_text(json.dumps({**json.loads(meta.read_text()), key: value}))
    return damage


# 200,000 nested arrays: json.loads recursed past Python's stack limit
_NESTED_JSON = "[" * 200_000 + "]" * 200_000


def _write_nested_json(path):
    path.write_text(_NESTED_JSON)


def _directory(path):
    """Damage that makes path an empty directory."""
    path.mkdir(parents=True)


def _empty_config(path):
    """Damage that writes an empty --config object at path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{}")


def _nested_dataset_meta(path):
    """Damage that replaces a dataset's sidecar with deeply nested JSON."""
    _write_nested_json(Path(str(path) + ".meta.json"))


def _label_past_int64(path):
    """target.csv's first label set to 2**64 under a sidecar k of 2**70, so
    the label is in range but no int64 holds it."""
    _dataset_meta("k", 2**70)(path)
    lines = path.read_text().split("\n")
    lines[1] = str(2**64) + lines[1][lines[1].index(","):]
    path.write_text("\n".join(lines))


def _drop_domain_tag(path):
    meta = path / "target.csv.meta.json"
    doc = json.loads(meta.read_text())
    del doc["domain_tag"]
    meta.write_text(json.dumps(doc))


def _meta_set(key, value):
    """Damage that sets one meta field of a checkpoint."""
    def damage(path):
        ckpt.set_meta(path, **{key: value})
    return damage


def _weight_set(name, index, value):
    """Damage that sets element index (row-major) of one checkpoint tensor."""
    def damage(path):
        arr = ckpt.array(path, name)
        arr.flat[index] = value
        ckpt.set_array(path, name, arr)
    return damage


def _weight_row_set(name, row, value):
    """Damage that sets every element of one row of a checkpoint tensor."""
    def damage(path):
        arr = ckpt.array(path, name)
        arr[row] = value
        ckpt.set_array(path, name, arr)
    return damage


def _weight_as(dtype):
    """Damage that stores layer0_w with another dtype, its shape kept."""
    def damage(path):
        ckpt.set_array(path, "layer0_w", ckpt.array(path, "layer0_w").astype(dtype))
    return damage


def _denoiser_built(d_model, k):
    """Damage that replaces a denoiser with an untrained one of these widths."""
    def damage(path):
        df.save_denoiser(path, df.DenoiserNet.build(d_model=d_model, k=k, seed=1),
                         (20, 1e-3, 0.2))
    return damage


def _deflated(name):
    """Damage that stores one member DEFLATE-compressed, the others as they were."""
    def damage(path):
        blobs = ckpt.members(path)
        with zipfile.ZipFile(path, "w") as zf:
            for member, blob in blobs.items():
                zf.writestr(member, blob, zipfile.ZIP_DEFLATED if member == name
                            else zipfile.ZIP_STORED)
    return damage


def _without_member(name):
    """Damage that drops one member of a checkpoint."""
    def damage(path):
        blobs = ckpt.members(path)
        del blobs[name]
        ckpt.write_members(path, blobs)
    return damage


def _source_rewrite(change):
    """Damage that rewrites source.csv as change(the source dataset)."""
    def damage(path):
        write_dataset(path, change(read_dataset(path)))
    return damage


_ARGV = {
    "eval": ["eval", "--data", "{w}/data", "--guidance", "{w}/g.npz",
             "--diffusion", "{w}/d.npz", "--report", "{w}/r.json"],
    "eval-zero-shot": ["eval", "--data", "{w}/data", "--guidance", "{w}/g.npz",
                       "--report", "{w}/r.json"],
    "gen-data": ["gen-data", "--out", "{w}/gen"],
    "train-guidance": ["train-guidance", "--data", "{w}/data", "--out", "{w}/g2.json"],
    "train-diffusion": ["train-diffusion", "--data", "{w}/data", "--guidance",
                        "{w}/g.npz", "--out", "{w}/d2.json", "--t-total", "20",
                        "--stage2-epochs", "1"],
    "export-trajectory": ["export-trajectory", "--data", "{w}/data", "--guidance",
                          "{w}/g.npz", "--diffusion", "{w}/d.npz", "--out",
                          "{w}/t.csv"],
    "ablate": ["ablate", "--data", "{w}/data", "--out", "{w}/ablation.json"],
    # every path from the --config body
    "train-guidance-bare": ["train-guidance"],
}

# (exit code, command line from _ARGV, extra flags, file to damage and that an
# exit-3 message names, damage, --config body)
_BAD_INPUTS = {
    "eval-samples-0": (2, "eval", ["--n-samples", "0"], None, None, None),
    # only an absent --diffusion runs zero-shot (an empty path did, with exit 0)
    "eval-diffusion-empty": (3, "eval", ["--diffusion", ""], None, None, None),
    "eval-chain-steps-0": (2, "eval", ["--chain-steps", "0"], None, None, None),
    # a step off the default 25-step grid of a T = 100 denoiser (stride 4)
    "export-step-off-the-grid": (
        2, "export-trajectory", ["--steps", "95"], "d.npz", _meta_set("t_total", 100), None),
    "eval-zero-shot-samples-0": (
        2, "eval-zero-shot", ["--n-samples", "0"], None, None, None),
    # --clip, --alpha, --noise and --warmup-epochs (below) name fixed values:
    # unknown flags
    "train-diffusion-clip-0": (2, "train-diffusion", ["--clip", "0"], None, None, None),
    "train-guidance-alpha-0": (2, "train-guidance", ["--alpha", "0"], None, None, None),
    "gen-data-noise-1e308": (2, "gen-data", ["--noise", "1e308"], None, None, None),
    # settings whose range only the library checked, after reading the data
    "train-guidance-rank-0": (2, "train-guidance", ["--rank", "0"], None, None, None),
    "train-guidance-rank-65": (2, "train-guidance", ["--rank", "65"], None, None, None),
    "train-diffusion-t_total-0": (
        2, "train-diffusion", ["--t-total", "0"], None, None, None),
    # the paper's schedule is set from the command line, so a reversed one
    # is refused there before any data is read
    "train-diffusion-beta-reversed": (
        2, "train-diffusion", ["--beta-start", "0.02", "--beta-end", "1e-4"], None, None, None),
    "truncated-guidance": (3, "eval", [], "g.npz", _truncate, None),
    "truncated-denoiser": (3, "eval", [], "d.npz", _truncate, None),
    "denoiser-weights-short": (3, "eval", [], "d.npz", _short_weights, None),
    "denoiser-v1-with-ema_weights": (3, "eval", [], "d.npz", _denoiser_v1, None),
    "denoiser-retired-json": (3, "eval", [], "d.npz", _retired_json, None),
    "guidance-retired-json": (3, "eval-zero-shot", [], "g.npz", _retired_json, None),
    # a .npy member must be C-order float64 of the recorded shape, which its
    # header shows before any data is read or allocated
    "denoiser-weight-float32": (3, "eval", [], "d.npz", _weight_as(np.float32), None),
    "denoiser-weight-object": (3, "eval", [], "d.npz", _weight_as(object), None),
    "denoiser-weight-header-huge": (3, "eval", [], "d.npz", _huge_shape, None),
    "denoiser-weight-npy-v2": (3, "eval", [], "d.npz", _npy_v2, None),
    "target-csv-not-utf8": (3, "eval", [], "data/target.csv", _non_utf8, None),
    # a non-finite feature: a train row went unseen by eval, a test row ended
    # in a numeric failure
    "target-csv-train-row-nan": (
        3, "eval", [], "data/target.csv", _feature("nan", 0), None),
    "target-csv-test-row-inf": (
        3, "eval", [], "data/target.csv", _feature("inf", 1), None),
    "eval-d_in-mismatch": (3, "eval", ["--guidance", "{w}/g64.npz"], None, None, None),
    "train-diffusion-d_in-mismatch": (
        3, "train-diffusion", ["--guidance", "{w}/g64.npz"], None, None, None),
    "export-d_in-mismatch": (
        3, "export-trajectory", ["--guidance", "{w}/g64.npz", "--steps", "20,0"],
        None, None, None),
    "meta-without-domain_tag": (3, "eval", [], "data", _drop_domain_tag, None),
    # the header's field count is checked before a header of the claimed
    # width is built (10**9 fields ended in a MemoryError)
    "target-csv-meta-d_in-huge": (
        3, "eval", [], "data/target.csv", _dataset_meta("d_in", 10**9), None),
    # widths numpy refuses even for an array of no rows (a ValueError
    # traceback before the header was refused)
    "target-csv-meta-d_in-negative": (
        3, "eval", [], "data/target.csv", _dataset_meta("d_in", -1), None),
    "target-csv-meta-d_in-2**62": (
        3, "eval", [], "data/target.csv", _dataset_meta("d_in", 2**62), None),
    "target-csv-meta-d_in-10**20": (
        3, "eval", [], "data/target.csv", _dataset_meta("d_in", 10**20), None),
    "target-csv-meta-nested": (3, "eval", [], "data/target.csv", _nested_dataset_meta, None),
    # the sidecar seed seeds the split, and SeedSequence refuses a negative
    # one (exit 0 while the run's --seed seeded it)
    "target-csv-meta-seed-negative": (
        3, "eval", [], "data/target.csv", _dataset_meta("seed", -1), None),
    # a grade count above the row count sized the split's per-grade counts
    # (10**10 asked for 74.5 GiB; 2**70 overflowed)
    # the rows are counted before an array of n rows is allocated
    "target-csv-meta-n-huge": (
        3, "eval", [], "data/target.csv", _dataset_meta("n", 10**12), None),
    "target-csv-meta-k-huge": (
        3, "train-guidance", [], "data/target.csv", _dataset_meta("k", 10**10), None),
    "target-csv-meta-k-2**70": (
        3, "train-guidance", [], "data/target.csv", _dataset_meta("k", 2**70), None),
    # a label past int64 that k = 2**70 allows was an OverflowError traceback
    "target-csv-label-2**64": (
        3, "train-guidance", [], "data/target.csv", _label_past_int64, None),
    "config-not-an-object": (2, "eval", [], None, None, [1, 2]),
    # written by the damage, since json.dumps cannot nest this deep either
    "config-nested": (2, "eval", ["--config", "{w}/deep.json"], "deep.json",
                      _write_nested_json, None),
    "config-wrong-type": (2, "eval", [], None, None, {"n_samples": "abc"}),
    # an int field takes no fraction, which int() would truncate
    "config-int-fraction": (2, "eval", [], None, None, {"n_samples": 2.5}),
    # a path takes only a string, which str() made of any value (exit 3:
    # "benchmark not found under ['x']"; the number 5 was the path "5")
    "config-path-a-list": (
        2, "train-guidance-bare", [], None, None, {"data": ["x"], "out": "g.npz"}),
    "config-path-a-number": (2, "train-guidance-bare", [], None, None, {"data": "x", "out": 5}),
    # values no check caught: tracebacks or exit 0 with a bad result
    "train-diffusion-batch-0": (
        2, "train-diffusion", ["--stage2-batch", "0"], None, None, None),
    "train-diffusion-epochs-negative": (
        2, "train-diffusion", ["--stage2-epochs", "-1"], None, None, None),
    "train-diffusion-ema-2": (2, "train-diffusion", ["--ema-mu", "2"], None, None, None),
    "train-guidance-lr-prompt-0": (
        2, "train-guidance", ["--lr-prompt", "0"], None, None, None),
    # a stage-2 rate below the rate floor lr_min
    "train-diffusion-lr-below-floor": (
        2, "train-diffusion", ["--stage2-lr", "5e-6"], None, None, None),
    "train-guidance-warmup-negative": (
        2, "train-guidance", ["--warmup-epochs", "-1"], None, None, None),
    "eval-seed-negative": (2, "eval", ["--seed", "-1"], None, None, None),
    # chains that cannot fit: 10**15 samples ask for more than a 2**48-byte
    # address space, so the allocation fails at once and touches no memory;
    # numpy refuses larger row counts before it allocates (2**62 was a
    # ValueError traceback, 2**63 an OverflowError one)
    "eval-samples-huge": (5, "eval", ["--n-samples", str(10**15)], None, None, None),
    "eval-samples-2**62": (5, "eval", ["--n-samples", str(2**62)], None, None, None),
    "eval-samples-2**63": (5, "eval", ["--n-samples", str(2**63)], None, None, None),
    # the same bound on generated data and on a noise schedule, from the
    # command line or a checkpoint (each was a ValueError traceback)
    "gen-data-n-2**62": (5, "gen-data", ["--n", str(2**62)], None, None, None),
    # the directories made above --report are removed when the command fails
    "eval-guidance-missing-report-deep": (
        3, "eval", ["--guidance", "{w}/missing.npz", "--report", "{w}/Y/deep/r.json"],
        None, None, None),
    "gen-data-d_in-2**63-1": (5, "gen-data", ["--d-in", str(2**63 - 1)], None, None, None),
    "train-diffusion-t_total-2**62": (
        5, "train-diffusion", ["--t-total", str(2**62)], None, None, None),
    "denoiser-t_total-2**62": (5, "eval", [], "d.npz", _meta_set("t_total", 2**62), None),
    "train-guidance-seed-negative": (
        2, "train-guidance", ["--seed", "-1"], None, None, None),
    "gen-data-seed-negative": (2, "gen-data", ["--seed", "-1"], None, None, None),
    # gen-data's four files under --out follow the output and same-file
    # rules: it wrote source.csv and its sidecar before it exited 3 on a
    # target.csv that is a directory, and overwrote the --config file it read
    "gen-data-target-csv-a-directory": (
        2, "gen-data", [], "gen/target.csv", _directory, None),
    "gen-data-out-is-its-config": (
        2, "gen-data", ["--config", "{w}/gen/source.csv"], "gen/source.csv", _empty_config,
        None),
    # a mix that leaves a grade without rows wrote data that train-guidance
    # refused (exit 3, "cannot stratify") after gen-data exited 0
    "gen-data-n-5": (2, "gen-data", ["--n", "5"], None, None, None),
    "gen-data-one-grade": (2, "gen-data", ["--proportions", "1,0,0,0,0"], None, None, None),
    "gen-data-proportion-negative": (
        2, "gen-data", ["--k", "2", "--proportions", "1.2,-0.2"], None, None, None),
    "train-guidance-lambda-rank-negative": (
        2, "train-guidance", ["--lambda-rank", "-1"], None, None, None),
    # finite inputs whose computation overflows end in a numeric failure:
    # an encoder row norm (1e300 overflowed it into a zero row, and exit 0),
    # the reverse chain, or a training loop's weights, after which no
    # checkpoint or log is written (the base checkpoint was, before stage 1)
    "guidance-weight-1e308": (
        4, "eval", [], "g.npz", _weight_set("w1", 0, 1e308), None),
    "guidance-weight-1e300": (
        4, "eval", [], "g.npz", _weight_set("w1", 0, 1e300), None),
    "denoiser-head-bias-1e308": (
        4, "eval", [], "d.npz", _weight_set("layer2_b", 0, 1e308),
        None),
    "train-guidance-lr-prompt-1e300": (
        4, "train-guidance", ["--lr-prompt", "1e300"], None, None, None),
    # a row norm below eps has no direction to normalize (a zero prompt row
    # was rescaled by 1/eps with a warning, and exit 0)
    "guidance-prompt-row-zero": (
        4, "eval", [], "g.npz", _weight_row_set("prompts", 0, 0.0), None),
    # checkpoints with non-finite or out-of-range values fail at load
    "denoiser-weight-nan": (
        3, "eval", [], "d.npz", _weight_set("layer0_w", 0, math.nan),
        None),
    "guidance-weight-nan": (
        3, "eval", [], "g.npz", _weight_set("w1", 0, math.nan), None),
    "guidance-log_scale-nan": (
        3, "eval-zero-shot", [], "g.npz", _meta_set("log_scale", math.nan),
        None),
    "guidance-alpha-negative": (
        3, "eval", [], "g.npz", _meta_set("alpha", -1), None),
    "guidance-one-grade": (3, "eval-zero-shot", [], "g.npz", _one_grade, None),
    "guidance-rank-0": (3, "eval", [], "g.npz", _meta_set("rank", 0), None),
    # a rank above d_model 8
    "guidance-rank-9": (3, "eval", [], "g.npz", _meta_set("rank", 9), None),
    # a compressed member could inflate far beyond the file's size
    "guidance-member-deflated": (3, "eval", [], "g.npz", _deflated("prompts.npy"), None),
    "guidance-member-extra": (
        3, "eval", [], "g.npz", lambda path: ckpt.set_member(path, "extra.npy", b""), None),
    "guidance-member-missing": (3, "eval", [], "g.npz", _without_member("prompts.npy"), None),
    "denoiser-layout-unknown": (3, "eval", [], "d.npz", _meta_set("layout", "x"), None),
    # a denoiser that fits its file but not the guidance width or the grades
    "denoiser-d_model-16": (3, "eval", [], "d.npz", _denoiser_built(16, 3), None),
    "denoiser-k-5": (3, "eval", [], "d.npz", _denoiser_built(8, 5), None),
    "denoiser-beta_end-2": (
        3, "eval", [], "d.npz", _meta_set("beta_end", 2.0), None),
    "denoiser-t_total-0": (3, "eval", [], "d.npz", _meta_set("t_total", 0), None),
    # JSON true is a Python int, so a number field refuses it explicitly
    "denoiser-t_total-bool": (
        3, "eval", [], "d.npz", _meta_set("t_total", True), None),
    "denoiser-weight-bool": (3, "eval", [], "d.npz", _weight_as(bool), None),
    # a fresh base pretrains on source.csv, so its width and grade count must
    # be target.csv's
    "train-guidance-source-d_in-mismatch": (
        3, "train-guidance", [], "data/source.csv",
        _source_rewrite(lambda ds: replace(ds, features=ds.features[:, :8])), None),
    "train-guidance-source-k-mismatch": (
        3, "train-guidance", [], "data/source.csv",
        _source_rewrite(lambda ds: replace(ds, labels=np.minimum(ds.labels, 1), k=2)),
        None),
    "train-diffusion-unfrozen-guidance": (
        3, "train-diffusion", [], "g.npz", _meta_set("frozen", False), None),
    # an --out with no file name has no base name beside it (a ValueError
    # traceback before any training; "..", exit 3 after training, beside a
    # stray "...base")
    "train-guidance-out-dot": (2, "train-guidance", ["--out", "."], None, None, None),
    "train-guidance-out-empty": (2, "train-guidance", ["--out", ""], None, None, None),
    "train-guidance-out-dotdot": (
        2, "train-guidance", ["--out", "{w}/.."], None, None, None),
    # an existing directory names no file either (exit 3 after the training,
    # with a stray base beside it or the ablation's checkpoints in its parent)
    "train-guidance-out-dir": (2, "train-guidance", ["--out", "{w}/data"], None, None, None),
    "ablate-out-dir": (2, "ablate", ["--out", "{w}/data"], None, None, None),
    # paths the program cannot write: the message names the path
    "gen-data-out-is-a-file": (3, "gen-data", ["--out", "{w}/g.npz"], "g.npz",
                               None, None),
    # a missing directory above an output is made, but not over a file
    "eval-report-parent-is-a-file": (3, "eval", ["--report", "{w}/g.npz/r.json"],
                                     "g.npz", None, None),
    # an output that is another output or an input (each exited 0 after the
    # work, with the input overwritten): ablate's report over the base an
    # earlier ablation left, a denoiser over its guidance, a report over the
    # dataset
    "ablate-out-is-its-base": (2, "ablate", ["--out", "{w}/ablate_guidance.base.json"],
                               "ablate_guidance.base.json", _copy_of("g.npz"), None),
    "train-diffusion-out-is-guidance": (
        2, "train-diffusion", ["--out", "{w}/g.npz"], "g.npz", None, None),
    "eval-report-is-target-csv": (
        2, "eval", ["--report", "{w}/data/target.csv"], "data/target.csv", None, None),
    # command-line errors give one line, not a usage block and SystemExit
    "unknown-flag": (2, "eval", ["--bogus", "1"], None, None, None),
    "retired-flag": (2, "train-diffusion", ["--epochs", "1"], None, None, None),
    # the desk preset is the defaults, so its switch is gone (the flag ran
    # the ablation and exited 0)
    "retired-flag-desk-preset": (2, "ablate", ["--desk-preset"], None, None, None),
    "ablate-config-desk-preset": (2, "ablate", [], None, None, {"desk_preset": True}),
    "seed-not-an-int": (2, "eval", ["--seed", "abc"], None, None, None),
}


@pytest.mark.parametrize("flag", ["--lr-prompt", "--lr-lora"])
def test_cli_train_guidance_takes_small_learning_rates(flag, tiny_inputs, tmp_path):
    # below the rate floor lr_min, where every warmup starts, which _lr_plan
    # clamps to each rate; the run pretrains its base at the default settings first
    work = tmp_path / "w"
    shutil.copytree(tiny_inputs, work)
    argv = ["train-guidance", "--data", f"{work}/data", "--out", f"{work}/g2.json",
            "--rank", "2", "--stage1-epochs", "4", flag, "5e-6"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def test_cli_train_guidance_pretrains_over_a_stale_base(tiny_inputs, tmp_path):
    # a rank-2 base beside --out, from another run, neither stops a rank-4
    # run nor is adapted by it: the run writes its own rank-4 base
    work = tmp_path / "w"
    shutil.copytree(tiny_inputs, work)
    defaults = pl.RunConfig()
    stale = gd.GuidanceModel.build(d_in=16, hidden=defaults.hidden,
                                   d_model=defaults.d_model, k=3, rank=2,
                                   alpha=defaults.alpha, seed=5)
    stale.frozen_base = True
    gd.save_guidance(work / "stale.base.json", stale)
    argv = ["train-guidance", "--data", f"{work}/data", "--out", f"{work}/stale.json",
            "--rank", "4", "--seed", "9"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert gd.load_guidance(work / "stale.base.json").lora_a.rows == 4


def test_cli_train_diffusion_takes_the_guidance_width(tiny_inputs, tmp_path):
    # g.npz has d_model 8, not RunConfig's default; the denoiser is built for
    # the guidance model's width and eval runs the pair
    work = tmp_path / "w"
    shutil.copytree(tiny_inputs, work)
    assert gd.load_guidance(work / "g.npz").w2.rows == 8 != pl.RunConfig().d_model
    train = [a.format(w=work) for a in _ARGV["train-diffusion"]]
    evaluate = ["eval", "--data", f"{work}/data", "--guidance", f"{work}/g.npz",
                "--diffusion", f"{work}/d2.json", "--report", f"{work}/r.json"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(train) == 0
        assert cli.main(evaluate) == 0
    assert df.load_denoiser(work / "d2.json")[0].d_model == 8


def test_cli_main_in_one_process_repeats_a_first_call(tiny_inputs, tmp_path):
    # cli.main builds its parser once per process: a refused command line,
    # an eval, the same eval again and an export, each run in turn, give the
    # exit code, stdout, stderr and files of each run as a first call
    work = tmp_path / "w"
    argvs = [[a.format(w=work) for a in argv] for argv in (
        [*_ARGV["eval"], "--bogus", "1"], _ARGV["eval"], _ARGV["eval"],
        _ARGV["export-trajectory"])]

    def fresh():
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(tiny_inputs, work)

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        files = {p.relative_to(work).as_posix(): p.read_bytes()
                 for p in work.rglob("*") if p.is_file()}
        return code, out.getvalue(), err.getvalue(), files

    firsts = []
    for argv in argvs:
        fresh()
        cli._build_parser.cache_clear()
        firsts.append(call(argv))
    assert [first[0] for first in firsts] == [2, 0, 0, 0]
    assert firsts[0][2] == "configuration error: unrecognized arguments: --bogus 1\n"
    fresh()
    files = {}
    for argv, (code, out, err, written) in zip(argvs, firsts):
        files.update(written)
        assert call(argv) == (code, out, err, files)


def test_cli_train_diffusion_trains_on_the_papers_schedule(tiny_inputs, tmp_path):
    # the paper's beta 1e-4 ... 0.02 from --config (refused as unknown keys
    # while the defaults were the only schedule the CLI could train)
    work = tmp_path / "w"
    shutil.copytree(tiny_inputs, work)
    (work / "cfg.json").write_text(json.dumps({"beta_start": 1e-4, "beta_end": 0.02}))
    argv = [a.format(w=work) for a in _ARGV["train-diffusion"]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--config", str(work / "cfg.json")]) == 0
    meta = ckpt.meta(work / "d2.json")
    assert (meta["t_total"], meta["beta_start"], meta["beta_end"]) == (20, 1e-4, 0.02)


@pytest.mark.parametrize("out, base", [("g.npz", "g.base.npz"), ("g.json", "g.base.json"),
                                       ("g", "g.base")])
def test_cli_train_guidance_names_the_base_after_out(out, base, monkeypatch, tmp_path):
    seen = []

    def capture(data, cfg, out_path, base_path):
        seen.append((out_path, base_path))
        return {"log": []}

    monkeypatch.setattr(pl, "train_stage1", capture)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train-guidance", "--data", "x", "--out", str(tmp_path / out)]) == 0
    assert seen == [(tmp_path / out, tmp_path / base)]


def _output_key(command):
    """The argument naming the output file of an _ARGV command line."""
    return "report" if command == "eval" else "out"


# the files each _ARGV command writes beside its output
_SIDE_FILES = {
    "train-guidance": ["g2.base.json", "g2.json.log"],
    "train-diffusion": ["d2.json.log"],
    "ablate": ["ablate_guidance.json", "ablate_guidance.base.json", "ablate_denoiser.json"],
    "export-trajectory": ["t.csv.silhouette.json"],
}


@pytest.mark.parametrize("command, side", [
    *(pytest.param(command, None, id=command) for command in
      ["train-guidance", "train-diffusion", "eval", "ablate", "export-trajectory"]),
    *(pytest.param(command, side, id=f"{command}-{side}")
      for command, sides in _SIDE_FILES.items() for side in sides)])
def test_cli_out_directory_is_refused_before_any_read(command, side, tiny_inputs, tmp_path,
                                                      monkeypatch, capsys):
    # an existing directory as the output, or as a side file written beside
    # it: the directory and its parent are left as they were, and no input is
    # read
    work = tmp_path / "w"
    shutil.copytree(tiny_inputs, work)
    key, argv = _output_key(command), [a.format(w=work) for a in _ARGV[command]]
    if side is None:
        out = str(work / "data")
        argv += [f"--{key}", out]
    else:
        out = str(work / side)
        (work / side).mkdir()
    tree = lambda: {p: p.is_file() and p.read_bytes() for p in work.rglob("*")}
    before = tree()
    reads = _count_calls(monkeypatch, pl, "read_dataset")
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"configuration error: {key}: {out!r} names no file\n"
    assert reads == []
    assert tree() == before


# the _BAD_INPUTS cases of the same-file rule, with the key and the reason
# of their message
_SAME_FILE = {
    "ablate-out-is-its-base": ("out", "written twice"),
    "train-diffusion-out-is-guidance": ("out", "an input (--guidance)"),
    "eval-report-is-target-csv": ("report", "an input (--data)"),
    "gen-data-out-is-its-config": ("out", "an input (--config)"),
}


@pytest.mark.parametrize("case", sorted(_SAME_FILE))
def test_cli_output_over_an_input_is_refused_before_any_read(case, tiny_inputs, tmp_path,
                                                             monkeypatch, capsys):
    # the file keeps its bytes, and no dataset is read
    key, what = _SAME_FILE[case]
    argv = _bad_input_argv(case, tiny_inputs, tmp_path)
    path = tmp_path / "w" / _BAD_INPUTS[case][3]
    before = path.read_bytes()
    reads = _count_calls(monkeypatch, pl, "read_dataset")
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"configuration error: {key}: {str(path)!r} is {what}\n"
    assert reads == []
    assert path.read_bytes() == before


@pytest.mark.parametrize("command", ["train-guidance", "train-diffusion", "eval",
                                     "export-trajectory"])
def test_cli_out_under_a_missing_directory_is_made(command, tiny_inputs, tmp_path):
    # the missing directories are made before the run, whose files are those
    # of a run into an existing directory, byte for byte
    work = tmp_path / "w"
    shutil.copytree(tiny_inputs, work)
    key = f"--{_output_key(command)}"
    argv = [a.format(w=work) for a in _ARGV[command]]
    name = Path(argv[argv.index(key) + 1]).name
    (work / "there").mkdir()
    for out in (work / "there", work / "missing" / "deeper"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*argv, key, str(out / name)]) == 0
    written = lambda d: {p.name: p.read_bytes() for p in d.iterdir()}
    expected = written(work / "there")
    assert name in expected and written(work / "missing" / "deeper") == expected


def test_run_config_validates_n_samples():
    for n_samples in (0, -1):
        with pytest.raises(ConfigError, match="n_samples"):
            pl.RunConfig(n_samples=n_samples)


@pytest.mark.parametrize("field, value", [
    ("alpha", 0.0), ("alpha", -1.0),
    ("train_fraction", 0.0), ("train_fraction", 1.0), ("train_fraction", 1.5)])
def test_run_config_checks_each_range(field, value, monkeypatch):
    # the one check of each value (rank: test_lora_rank_bounds; the
    # schedule: test_schedule_bounds); the message names the field. Both are
    # constants, checked when a config is built: alpha is RunConfig's and the
    # split fraction the data's
    if field == "train_fraction":
        monkeypatch.setattr("cgsd.data.TRAIN_FRACTION", value)
    else:
        monkeypatch.setattr(pl.RunConfig, field, value)
    with pytest.raises(ConfigError, match=field):
        pl.RunConfig()


@pytest.mark.parametrize("argv", [
    ["train-guidance", "--rank", "0"], ["train-guidance", "--rank", "65"],
    ["train-guidance", "--lr-prompt", "0"], ["train-diffusion", "--t-total", "0"]])
def test_cli_checks_settings_before_reading_files(argv, tmp_path, capsys):
    # every path is missing: a bad setting exits 2 before any file is read
    gone = tmp_path / "missing"
    paths = ["--data", f"{gone}/data", "--out", f"{gone}/o.npz"]
    if argv[0] == "train-diffusion":
        paths += ["--guidance", f"{gone}/g.npz"]
    assert cli.main([*argv, *paths]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert err.startswith(f"configuration error: {argv[1][2:].replace('-', '_')}")
    assert not gone.exists()


def test_stage2_lr_floor_error_names_both_fields():
    # the floor is the constant lr_min, which every plan shares
    with pytest.raises(ConfigError, match=r"^stage2_lr 5e-06 is below the rate floor 1e-05$"):
        pl.RunConfig(stage2_lr=5e-6)


def _bad_input_argv(case, tiny_inputs, tmp_path):
    """The command line of a _BAD_INPUTS case, run on a damaged copy of the
    fixture."""
    _, command, extra, target, damage, config = _BAD_INPUTS[case]
    work = tmp_path / "w"
    shutil.copytree(tiny_inputs, work)
    if damage is not None:
        damage(work / target)
    argv = [*_ARGV[command], *extra]
    if config is not None:
        (work / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", "{w}/cfg.json"]
    return [a.format(w=work) for a in argv]


def _files(root):
    """Each file's bytes and each directory (None) under root."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_cli_bad_input_exit_code_and_one_line(case, tiny_inputs, tmp_path, capsys):
    code, _, _, target, _, _ = _BAD_INPUTS[case]
    argv = _bad_input_argv(case, tiny_inputs, tmp_path)
    before = _files(tmp_path / "w")
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1, err
    if code == 3 and target is not None:
        assert target in err  # the message names the damaged file
    # a failing run writes, changes and removes no file, and leaves no
    # directory it made
    assert _files(tmp_path / "w") == before


# the message of each _BAD_INPUTS case of a damaged .npy member, after
# "data error: checkpoint <d.npz>: weight layer0_w: "; a header that is not
# byte for byte the one save_checkpoint writes is parsed, then checked
_NPY_MEMBER_ERRORS = {
    "denoiser-weight-float32": "dtype float32 is not C-order <f8",
    "denoiser-weight-object": "dtype object is not C-order <f8",
    "denoiser-weight-bool": "dtype bool is not C-order <f8",
    "denoiser-weight-header-huge": "shape (1000000000, 1000000) is not (128, 81)",
    "denoiser-weight-npy-v2": "not a version 1.0 .npy member",
    "denoiser-weights-short": "82936 data bytes do not fill (128, 81)",
}


@pytest.mark.parametrize("case", sorted(_NPY_MEMBER_ERRORS))
def test_cli_damaged_npy_member_message(case, tiny_inputs, tmp_path, capsys):
    assert cli.main(_bad_input_argv(case, tiny_inputs, tmp_path)) == 3
    where = tmp_path / "w" / "d.npz"
    assert capsys.readouterr().err == (
        f"data error: checkpoint {where}: weight layer0_w: {_NPY_MEMBER_ERRORS[case]}\n")


@pytest.mark.parametrize(
    "case", ["guidance-weight-1e308", "guidance-weight-1e300",
             "train-guidance-lr-prompt-1e300", "guidance-prompt-row-zero"])
def test_cli_process_numeric_failure_is_one_line(case, tiny_inputs, tmp_path):
    # the command in its own process, outside pytest's warning filter, where
    # numpy's floating-point warnings (or a library warning) would add lines
    # to stderr
    argv = _bad_input_argv(case, tiny_inputs, tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-m", "cgsd.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("numeric failure: ")


# Each subcommand's settings: the config class, the paths it needs, and one
# non-default --config document that names every exposed field.
_EXPOSED = {
    "gen-data": (SyntheticConfig, ["--out", "o"], {
        "n": 100, "d_in": 8, "k": 2, "proportions": [0.25, 0.75],
        "separation": 2.0, "seed": 3}),
    "train-guidance": (pl.RunConfig, ["--data", "x", "--out", "o"], {
        "rank": 2, "stage1_epochs": 1, "stage1_batch": 8,
        "lr_lora": 1e-3, "lr_prompt": 1e-2, "lambda_rank": 0.5, "seed": 3}),
    "train-diffusion": (pl.RunConfig, ["--data", "x", "--guidance", "g", "--out", "o"], {
        "t_total": 10, "beta_start": 1e-4, "beta_end": 0.02, "stage2_epochs": 1,
        "stage2_batch": 8, "stage2_lr": 1e-3, "ema_mu": 0.5, "seed": 3}),
    "eval": (pl.RunConfig, ["--data", "x", "--guidance", "g", "--report", "r"],
             {"n_samples": 2, "seed": 3}),
    "ablate": (pl.RunConfig, ["--data", "x", "--out", "o"], {"seed": 3}),
    "export-trajectory": (pl.RunConfig, ["--data", "x", "--guidance", "g",
                                         "--diffusion", "d", "--out", "o"],
                          {"seed": 3}),
}


class _Captured(Exception):
    pass


def _flags(doc):
    argv = []
    for key, value in doc.items():
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        argv += ["--" + key.replace("_", "-"), text]
    return argv


@pytest.mark.parametrize("command", sorted(_EXPOSED))
def test_cli_config_round_trip(command, monkeypatch, tmp_path):
    """Flags and --config keys are the dataclass field names, their defaults
    the dataclass defaults, and a flag overrides the file."""
    config_cls, paths, doc = _EXPOSED[command]
    monkeypatch.chdir(tmp_path)  # gen-data creates its --out directory
    seen = []

    def capture(*args, **kwargs):
        seen.extend(a for a in args if isinstance(a, config_cls))
        raise _Captured

    for owner, name in ((pl, "train_stage1"), (pl, "train_stage2"), (pl, "evaluate"),
                        (pl, "ablate"), (pl, "export_trajectory"),
                        (cli, "gen_synthetic")):
        monkeypatch.setattr(owner, name, capture)
    # eval reads its inputs, which take no config, before it evaluates
    monkeypatch.setattr(pl, "load_run", lambda *args: (None, None, None, None))

    def run(*argv):
        with pytest.raises(_Captured):
            cli.main([command, *paths, *argv])
        return seen.pop()

    expected = config_cls(**{k: tuple(v) if isinstance(v, list) else v
                             for k, v in doc.items()})
    assert expected != config_cls()
    assert run() == config_cls()
    assert run(*_flags(doc)) == expected
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    assert run("--config", str(cfg_file)) == expected
    assert run("--config", str(cfg_file), "--seed", "11") == replace(expected, seed=11)


def test_run_config_fields_and_digests_unchanged():
    # the digest every desk report carries (README's pinned ablation.json),
    # which the defaults now have
    assert pl.RunConfig().digest() == "e01acb1d9982fc25"
    assert pl.RunConfig(desk_preset=True).digest() == "e01acb1d9982fc25"


# the values no command varies, and the split fraction, which is the data's:
# RunConfig's, then the generator's (_DATA_FIXED), which gen-data takes no more
FIXED = {"hidden": 128, "d_model": 64, "alpha": 16.0, "pretrain_lr": 1e-3,
         "pretrain_batch": 64, "warmup_start_lr": 1e-5, "warmup_epochs": 3, "margin": 0.05,
         "clip": 1.0, "lr_min": 1e-5, "train_fraction": 0.7,
         "noise": 1.0, "shift_angle": 0.5, "shift_bias": 0.5}
_DATA_FIXED = ("noise", "shift_angle", "shift_bias")


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_values_read_but_cannot_be_set(name, tmp_path, capsys):
    # a fixed value reads like a setting, but no constructor, replace, flag or
    # --config file sets it
    if name in _DATA_FIXED:
        config_cls, argv = SyntheticConfig, ["gen-data", "--out", str(tmp_path / "gen")]
    else:
        config_cls, argv = pl.RunConfig, ["train-guidance", "--data", str(tmp_path / "data"),
                                          "--out", str(tmp_path / "g.npz")]
    cfg = config_cls()
    assert getattr(cfg, name) == FIXED[name]
    assert name not in {f.name for f in fields(config_cls)}
    with pytest.raises(TypeError, match=name):
        config_cls(**{name: FIXED[name]})
    with pytest.raises(TypeError, match=name):
        replace(cfg, **{name: FIXED[name]})
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({name: FIXED[name]}))
    assert cli.main([*argv, "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"configuration error: unknown config key(s): '{name}'\n"
    flag = "--" + name.replace("_", "-")
    assert cli.main([*argv, flag, str(FIXED[name])]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: unrecognized arguments: {flag} {FIXED[name]}\n")
    assert sorted(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("name", sorted(FIXED))
def test_each_fixed_value_moves_the_digest(name, monkeypatch):
    # the digest covers the fixed values, so a change to one moves it; lr_min
    # is hashed as the floor and as the warmup start. A generator's value
    # moves the data it draws instead
    if name in _DATA_FIXED:
        cfg = SyntheticConfig(n=20, d_in=4, k=2, proportions=(0.5, 0.5))
        before = gen_synthetic(cfg)[1].features
        monkeypatch.setattr(SyntheticConfig, name, FIXED[name] * 2)
        assert not np.array_equal(gen_synthetic(cfg)[1].features, before)
        return
    before = pl.RunConfig().digest()
    if name == "train_fraction":
        monkeypatch.setattr("cgsd.data.TRAIN_FRACTION", 0.6)
        assert pl.RunConfig().train_fraction == 0.6
    else:
        monkeypatch.setattr(pl.RunConfig, name, FIXED[name] * 2)
    assert pl.RunConfig().digest() != before


def test_cli_unknown_config_key_is_one_line(tiny_inputs, tmp_path):
    # a key is printed as its repr, so a newline in it cannot split the message
    # (the mutated-bytes fuzz case: a backslash inserted before "n_samples")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"\\n_samples": 2, "seed": 3}')
    argv = ["eval", "--data", str(tiny_inputs / "data"),
            "--guidance", str(tiny_inputs / "g.npz"),
            "--report", str(tmp_path / "r.json"), "--config", str(cfg)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(argv) == 2
    assert err.getvalue() == "configuration error: unknown config key(s): '\\n_samples'\n"


def _mutate(blob: bytes, op: str, pos: int, byte: int) -> bytes:
    pos %= len(blob) + 1
    if op == "insert":
        return blob[:pos] + bytes([byte]) + blob[pos:]
    pos = min(pos, len(blob) - 1)
    tail = blob[pos + 1 :]
    return blob[:pos] + (bytes([byte]) if op == "replace" else b"") + tail


_FUZZ_DATA = ("target.csv", "target.csv.meta.json")


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    target=st.sampled_from(["cfg.json", "g.npz", "d.npz", *_FUZZ_DATA]),
    op=st.sampled_from(["replace", "insert", "delete"]),
    pos=st.integers(min_value=0, max_value=2**20),
    byte=st.integers(min_value=0, max_value=255),
)
def test_cli_eval_survives_mutated_bytes(tiny_inputs, target, op, pos, byte):
    """One changed byte in the --config file, a checkpoint or the target
    domain's CSV or metadata ends eval with a documented exit code and at most
    one stderr line."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        data = work / "data"
        shutil.copytree(tiny_inputs / "data", data)
        files = {name: tiny_inputs / name for name in ("g.npz", "d.npz")}
        files["cfg.json"] = work / "base-cfg.json"
        files["cfg.json"].write_text(json.dumps({"n_samples": 2, "seed": 3}))
        mutated = (data if target in _FUZZ_DATA else work) / target
        source = data / target if target in _FUZZ_DATA else files[target]
        mutated.write_bytes(_mutate(source.read_bytes(), op, pos, byte))
        files[target] = mutated
        argv = ["eval", "--data", str(data),
                "--guidance", str(files["g.npz"]), "--diffusion", str(files["d.npz"]),
                "--report", str(work / "r.json"), "--config", str(files["cfg.json"])]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    assert len(err.getvalue().strip().splitlines()) <= 1, err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_step_split_script_times_the_three_loops(small_dir):
    # scripts/step_split.py at tiny size: one JSON line, every loop's steps
    # and per-step phase times
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    script = Path(__file__).resolve().parents[1] / "scripts" / "step_split.py"
    proc = subprocess.run([sys.executable, str(script), str(small_dir), "--rounds", "2",
                           "--epochs", "1"], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    split = json.loads(line)
    # 90 source rows in batches of 64; 62 train rows in batches of 64 and 32
    assert {loop: split[loop]["steps"] for loop in ("pretrain", "stage1", "stage2")} == {
        "pretrain": 2, "stage1": 1, "stage2": 2}
    for loop in ("pretrain", "stage1", "stage2"):
        for phase in ("forward", "backward", "update", "step"):
            assert split[loop][f"{phase}_us"] > 0.0
    assert split["rounds"] == 2 and split["cores"] >= 1 and split["blas"]


def test_output_digests_script_lists_every_file_it_writes(small_dir, tmp_path):
    # scripts/output_digests.py at tiny size: one sha256 line per file under
    # --out (the desk run's nine and the stage commands' eight), and its peak
    # RSS on stderr
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    script = Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, str(script), str(small_dir), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    written = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.rglob("*") if p.is_file()}
    lines = [line.split("  ") for line in proc.stdout.splitlines()]
    listed = {name: digest for digest, name in lines}
    assert len(lines) == len(listed) and listed == written
    assert sorted(listed) == [
        "ablate_denoiser.json", "ablate_guidance.base.json", "ablate_guidance.json",
        "ablation.json", "eval_adapted.json", "eval_diffusion.json", "eval_zero-shot.json",
        "stages/d.npz", "stages/d.npz.log", "stages/g.base.npz", "stages/g.npz",
        "stages/g.npz.log", "stages/r.json", "stages/t.csv", "stages/t.csv.silhouette.json",
        "trajectory.csv", "trajectory.csv.silhouette.json"]
    assert re.search(r"^peak RSS \d+\.\d MB$", proc.stderr, re.M), proc.stderr


def test_seed_sweep_script_writes_the_rule_and_its_verdict(tmp_path):
    # scripts/seed_sweep.py on a 300-item benchmark: 2 data seeds, 2 chain
    # seeds, K = T = 100 (always scored) and K = T / 2
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    script = Path(__file__).resolve().parents[1] / "scripts" / "seed_sweep.py"
    out = tmp_path / "sweep.json"
    sweep = lambda chain_seeds, data_seeds="3,4", n="300", steps="50": subprocess.run(
        [sys.executable, str(script), "--out", str(out), "--work", str(tmp_path / "work"),
         "--data-seeds", data_seeds, "--chain-seeds", chain_seeds, "--chain-steps", steps,
         "--n", n], env=env, capture_output=True, text=True, timeout=300)
    # one chain seed, or one given twice, makes its median its minimum; a
    # benchmark or run of any data seed, or a diffusion row's run at any K
    # and chain seed, may be one no config takes: the script refuses in one
    # line before any work
    refusals = [
        (("1",), "--chain-seeds: the rule needs at least 2 distinct chain seeds, got 1"),
        (("2,2",), "--chain-seeds: the rule needs at least 2 distinct chain seeds, got 2,2"),
        (("1,2", "3,4", "3"), "--n 3, --data-seeds 3,4: need n >= k samples"),
        (("1,2", "42,-1"), "--n 300, --data-seeds 42,-1: seed must be >= 0"),
        (("1,2", "3,4", "300", "0"), "--chain-seeds 1,2, K 100,0: chain_steps must be >= 1, got 0"),
        (("1,-2",), "--chain-seeds 1,-2, K 100,50: seed must be >= 0, got -2")]
    for argv, want in refusals:
        proc = sweep(*argv)
        assert proc.returncode == 1 and proc.stderr == want + "\n", proc.stderr
        assert not out.exists() and not (tmp_path / "work").exists()
    proc = sweep("1,2")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert sorted(doc) == ["chain_seeds", "chain_steps", "config", "data_seeds", "default",
                           "n", "rule", "seeds", "t_total", "verdict"]
    assert (doc["config"], doc["t_total"], doc["chain_steps"], doc["data_seeds"],
            doc["chain_seeds"]) == ({}, 100, [100, 50], [3, 4], [1, 2])
    assert sorted(doc["seeds"]) == ["3", "4"]
    for seed in doc["seeds"].values():
        assert sorted(seed) == ["diffusion_by_k", "n_eval", "rows", "split_hash"]
        rows = seed["rows"]
        assert sorted(rows) == ["adapted", "diffusion", "zero_shot"]
        diffusion = rows["diffusion"]
        assert sorted(diffusion) == ["100", "50"] and sorted(diffusion["50"]) == ["1", "2"]
        for row in (rows["zero_shot"], rows["adapted"], *diffusion["100"].values()):
            assert sorted(row) == ["accuracy", "macro_f1", "predicted", "qwk"]
            assert len(row["predicted"]) == 5 and sum(row["predicted"]) == seed["n_eval"]
        for k, summary in seed["diffusion_by_k"].items():
            assert sorted(summary) == ["accuracy", "evaluate_s", "macro_f1", "qwk"]
            for metric in ("accuracy", "macro_f1", "qwk"):
                low, mid, high = summary[metric]
                values = [r[metric] for r in diffusion[k].values()]
                assert (low, high) == (min(values), max(values)) and low <= mid <= high
    # the rule, recomputed from the summaries
    passes = all(seed["diffusion_by_k"]["50"][m][1] >= seed["diffusion_by_k"]["100"][m][0]
                 for seed in doc["seeds"].values() for m in ("accuracy", "macro_f1", "qwk"))
    assert doc["verdict"] == {"50": {"passes": passes, "failed_data_seeds": [
        s for s, seed in doc["seeds"].items()
        if any(seed["diffusion_by_k"]["50"][m][1] < seed["diffusion_by_k"]["100"][m][0]
               for m in ("accuracy", "macro_f1", "qwk"))]}}
    assert doc["default"] == (50 if passes else 100)


def _sweep_module():
    path = Path(__file__).resolve().parents[1] / "scripts" / "seed_sweep.py"
    spec = importlib.util.spec_from_file_location("seed_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def test_seed_sweep_full_schedule_keeps_the_desk_epochs():
    # t1000.json is the config the former --t-total 1000 ran: the default
    # epoch budget on the paper's schedule; paper_scale.json holds all six
    # values the fields defaulted to before the desk values replaced them
    sweep = _sweep_module()
    configs = Path(__file__).resolve().parents[1] / "scripts" / "configs"
    t1000 = pl.RunConfig(**sweep.read_settings(configs / "t1000.json"), seed=3)
    assert t1000 == replace(pl.RunConfig(seed=3), t_total=1000, beta_start=1e-4,
                            beta_end=0.02)
    assert (t1000.stage1_epochs, t1000.stage2_epochs, t1000.ema_mu) == (40, 60, 0.99)
    paper = sweep.read_settings(configs / "paper_scale.json")
    assert paper == {"t_total": 1000, "beta_start": 1e-4, "beta_end": 0.02,
                     "stage1_epochs": 22, "stage2_epochs": 500, "ema_mu": 0.9999}


@pytest.mark.parametrize("doc, want", [
    ({"seed": 3}, "--config: seed is set per run by --data-seeds"),
    ({"t_totl": 1000}, "--config: unknown config key(s): 't_totl'"),
    ({"t_total": 0}, "--config: t_total must be >= 1, got 0"),
    ({"ema_mu": True}, "--config: ema_mu: cannot read True as float")])
def test_seed_sweep_config_refuses_in_one_line(doc, want, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exit_:
        _sweep_module().read_settings(path)
    assert exit_.value.code == want
