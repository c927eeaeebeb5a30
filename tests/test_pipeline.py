"""Orchestration and CLI: training stages, evaluation, ablation, export."""

import contextlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cgsd import cli
from cgsd import diffusion as df
from cgsd import guidance as gd
from cgsd import pipeline as pl
from cgsd.data import SyntheticConfig, read_dataset, stratified_split
from cgsd.errors import ConfigError, DataError, NumericError


TINY = pl.RunConfig(
    hidden=16,
    d_model=8,
    rank=2,
    alpha=4.0,
    pretrain_epochs=3,
    stage1_epochs=2,
    stage1_batch=16,
    t_total=20,
    beta_start=1e-3,
    beta_end=0.2,
    stage2_epochs=2,
    stage2_batch=16,
    seed=7,
)


# ---------------------------------------------------------------------------
# RunConfig


def test_desk_preset_overrides():
    cfg = pl.RunConfig(desk_preset=True).resolved()
    assert cfg.t_total == 100
    assert (cfg.beta_start, cfg.beta_end) == (1e-3, 0.2)
    assert cfg.stage1_epochs == 40
    assert cfg.stage2_epochs == 60
    assert cfg.ema_mu == 0.99


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
    pl.train_stage1(small_dir, cfg, tmp_path / "g.json")
    model, frozen = gd.load_guidance(tmp_path / "g.json")
    assert frozen is True
    assert np.all(model.adapter.b.data == 0.0)  # adapter increment still zero


def test_stage1_freezes_base_and_logs(small_dir, tmp_path):
    result = pl.train_stage1(small_dir, TINY, tmp_path / "g.json")
    assert result["frozen_hash_before"] == result["frozen_hash_after"]
    stage1_lines = [l for l in result["log"] if l.startswith("stage1,")]
    assert len(stage1_lines) == TINY.stage1_epochs
    # log schema: stage,epoch,lr,loss,acc
    parts = stage1_lines[0].split(",")
    assert parts[0] == "stage1" and int(parts[1]) == 0
    float(parts[2]), float(parts[3]), float(parts[4])


def test_stage1_reuses_base_checkpoint(small_dir, tmp_path):
    r1 = pl.train_stage1(small_dir, TINY, tmp_path / "g1.json")
    base = tmp_path / "g1.base.json"
    assert base.exists()
    r2 = pl.train_stage1(small_dir, TINY, tmp_path / "g2.json", base_path=base)
    assert not [l for l in r2["log"] if l.startswith("pretrain,")]
    m1, _ = gd.load_guidance(tmp_path / "g1.json")
    m2, _ = gd.load_guidance(tmp_path / "g2.json")
    np.testing.assert_array_equal(m1.prompts.data, m2.prompts.data)


# ---------------------------------------------------------------------------
# stage 2


def test_stage2_requires_frozen_guidance(small_dir, tmp_path):
    model = gd.GuidanceModel.build(16, 16, 8, 3, 2, 4.0, seed=1)
    gd.save_guidance(tmp_path / "unfrozen.json", model, frozen=False)
    with pytest.raises(DataError, match="unfrozen.json"):
        pl.train_stage2(small_dir, tmp_path / "unfrozen.json", TINY,
                        tmp_path / "d.json")


def test_stage2_never_touches_guidance(small_dir, tmp_path):
    pl.train_stage1(small_dir, TINY, tmp_path / "g.json")
    before = (tmp_path / "g.json").read_bytes()
    result = pl.train_stage2(small_dir, tmp_path / "g.json", TINY, tmp_path / "d.json")
    assert result["guidance_hash_before"] == result["guidance_hash_after"]
    assert (tmp_path / "g.json").read_bytes() == before


def test_stage2_loss_decreases_on_holdout(small_dir, tmp_path):
    cfg = replace(TINY, stage2_epochs=1)
    pl.train_stage1(small_dir, cfg, tmp_path / "g.json")
    model, _ = gd.load_guidance(tmp_path / "g.json")
    target = read_dataset(small_dir / "target.csv")
    _, test = stratified_split(target, cfg.train_fraction, cfg.seed)
    f, d, prior = pl.conditioning(model, test.features)
    y0 = np.eye(test.k)[test.labels]
    sched = df.make_schedule(cfg.t_total, cfg.beta_start, cfg.beta_end)

    fresh = df.DenoiserNet.build(cfg.d_model, test.k, cfg.seed)
    before = df.epsilon_loss(fresh, f, y0, prior, d, sched, seed=99).item()

    pl.train_stage2(small_dir, tmp_path / "g.json", cfg, tmp_path / "d.json")
    net, _ = df.load_denoiser(tmp_path / "d.json", use_ema=True)
    after = df.epsilon_loss(net, f, y0, prior, d, sched, seed=99).item()
    assert np.isfinite(after)
    assert after < before


def test_stage2_log_schema(small_dir, tmp_path):
    pl.train_stage1(small_dir, TINY, tmp_path / "g.json")
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
    pl.train_stage1(small_dir, TINY, work / "g.json")
    pl.train_stage2(small_dir, work / "g.json", TINY, work / "d.json")
    return work


def test_evaluate_zero_shot_report_schema(small_dir, tiny_trained, tmp_path):
    report = pl.evaluate(small_dir, tiny_trained / "g.json", None, TINY,
                         tmp_path / "r.json")
    for key in ("accuracy", "macro_f1", "per_class_f1", "confusion", "n_eval",
                "seed", "config_digest", "mode", "paper_reference"):
        assert key in report
    assert report["mode"] == "zero-shot"
    on_disk = json.loads((tmp_path / "r.json").read_text())
    assert on_disk == report


def test_evaluate_byte_identical_reports(small_dir, tiny_trained, tmp_path):
    pl.evaluate(small_dir, tiny_trained / "g.json", tiny_trained / "d.json", TINY,
                tmp_path / "a.json")
    pl.evaluate(small_dir, tiny_trained / "g.json", tiny_trained / "d.json", TINY,
                tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_diffusion_predict_invariant_to_chunking(small_dir, tiny_trained):
    # all test items at once against two slices that keep their own item keys;
    # with enough samples the whole batch spans more than one row block
    model, _ = gd.load_guidance(tiny_trained / "g.json")
    net, sched = df.load_denoiser(tiny_trained / "d.json")
    target = read_dataset(small_dir / "target.csv")
    _, test = stratified_split(target, TINY.train_fraction, TINY.seed)
    f, d, prior = pl.conditioning(model, test.features)
    keys = np.arange(test.n)
    many = pl.ROW_BLOCK // test.n + 2
    assert test.n * TINY.n_samples <= pl.ROW_BLOCK < test.n * many

    def predict(rows, n_samples):
        return pl._diffusion_predict(net, sched, f[rows], d[rows], prior[rows],
                                     n_samples, TINY.seed, keys[rows])

    cut = test.n // 3
    for n_samples in (TINY.n_samples, many):
        whole = predict(slice(None), n_samples)
        chunked = np.concatenate([predict(slice(0, cut), n_samples),
                                  predict(slice(cut, None), n_samples)])
        np.testing.assert_array_equal(whole, chunked)


def test_diffusion_predict_n1_equals_single_chain():
    # one sample per item is the argmax of one chain on the substream
    # (seed, 101, item_key, 0)
    net = df.DenoiserNet.build(d_model=4, k=3, seed=11)
    sched = df.make_schedule(100, 1e-3, 0.2)
    f, d = np.zeros((3, 4)), np.zeros((3, 3))
    prior = np.array([[0.2, 0.5, 0.3], [0.6, 0.2, 0.2], [0.1, 0.1, 0.8]])
    keys = np.array([5, 9, 2])
    rngs = [np.random.default_rng(np.random.SeedSequence((12, 101, int(key), 0)))
            for key in keys]
    single, _ = df.sample_chain_batch(net, f, d, prior, sched, rngs)
    grades = pl._diffusion_predict(net, sched, f, d, prior, 1, 12, keys)
    np.testing.assert_array_equal(grades, np.argmax(single, axis=1))


def test_diffusion_predict_validates_n_samples():
    net = df.DenoiserNet.build(d_model=4, k=3, seed=13)
    sched = df.make_schedule(100, 1e-3, 0.2)
    for n_samples in (0, -1):
        with pytest.raises(ConfigError):
            pl._diffusion_predict(net, sched, np.zeros((1, 4)), np.zeros((1, 3)),
                                  np.full((1, 3), 1 / 3), n_samples, 0, np.arange(1))


def test_evaluate_rejects_version_mismatch(small_dir, tiny_trained, tmp_path):
    doc = json.loads((tiny_trained / "g.json").read_text())
    doc["format"] = "cgsd-guidance-v999"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    from cgsd.errors import ParseError

    with pytest.raises(ParseError):
        pl.evaluate(small_dir, bad, None, TINY)


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
    _, test = stratified_split(target, TINY.train_fraction, TINY.seed)
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
        "--rank", "2", "--alpha", "4", "--stage1-epochs", "1", "--stage1-batch", "16",
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


@pytest.fixture(scope="module")
def bad_input_base(small_dir, tmp_path_factory):
    """Untrained checkpoints that fit the tiny benchmark, one guidance
    checkpoint built for 64 input features, a rank-2 base checkpoint with the
    default hidden and d_model widths, and a copy of the benchmark."""
    work = tmp_path_factory.mktemp("bad_inputs")
    for d_in, name in ((16, "g.json"), (64, "g64.json")):
        model = gd.GuidanceModel.build(d_in=d_in, hidden=16, d_model=8, k=3,
                                       rank=2, alpha=4.0, seed=1)
        gd.save_guidance(work / name, model, frozen=True)
    defaults = pl.RunConfig()
    base = gd.GuidanceModel.build(d_in=16, hidden=defaults.hidden,
                                  d_model=defaults.d_model, k=3, rank=2,
                                  alpha=defaults.alpha, seed=5)
    gd.save_guidance(work / "stale.base.json", base, frozen=True)
    df.save_denoiser(work / "d.json", df.DenoiserNet.build(d_model=8, k=3, seed=1),
                     (20, 1e-3, 0.2))
    (work / "data").mkdir()
    for path in small_dir.iterdir():
        (work / "data" / path.name).write_bytes(path.read_bytes())
    return work


def _truncate(path):
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def _short_weights(path):
    doc = json.loads(path.read_text())
    doc["weights"]["layer0_w"] = doc["weights"]["layer0_w"][:-1]
    path.write_text(json.dumps(doc))


def _drop_domain_tag(path):
    meta = path / "target.csv.meta.json"
    doc = json.loads(meta.read_text())
    del doc["domain_tag"]
    meta.write_text(json.dumps(doc))


def _json_set(*keys, value):
    """Damage that sets one entry (reached through keys) of a JSON file."""
    def damage(path):
        doc = json.loads(path.read_text())
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path.write_text(json.dumps(doc))
    return damage


_ARGV = {
    "eval": ["eval", "--data", "{w}/data", "--guidance", "{w}/g.json",
             "--diffusion", "{w}/d.json", "--report", "{w}/r.json"],
    "eval-zero-shot": ["eval", "--data", "{w}/data", "--guidance", "{w}/g.json",
                       "--report", "{w}/r.json"],
    "gen-data": ["gen-data", "--out", "{w}/gen"],
    "train-guidance": ["train-guidance", "--data", "{w}/data", "--out", "{w}/g2.json"],
    "train-diffusion": ["train-diffusion", "--data", "{w}/data", "--guidance",
                        "{w}/g.json", "--out", "{w}/d2.json", "--t-total", "20",
                        "--stage2-epochs", "1"],
    "export-trajectory": ["export-trajectory", "--data", "{w}/data", "--guidance",
                          "{w}/g.json", "--diffusion", "{w}/d.json", "--out",
                          "{w}/t.csv"],
}

# (exit code, command line from _ARGV, extra flags, file to damage and that an
# exit-3 message names, damage, --config body)
_BAD_INPUTS = {
    "eval-samples-0": (2, "eval", ["--n-samples", "0"], None, None, None),
    "truncated-guidance": (3, "eval", [], "g.json", _truncate, None),
    "truncated-denoiser": (3, "eval", [], "d.json", _truncate, None),
    "denoiser-weights-short": (3, "eval", [], "d.json", _short_weights, None),
    "eval-d_in-mismatch": (3, "eval", ["--guidance", "{w}/g64.json"], None, None, None),
    "train-diffusion-d_in-mismatch": (
        3, "train-diffusion", ["--guidance", "{w}/g64.json"], None, None, None),
    "export-d_in-mismatch": (
        3, "export-trajectory", ["--guidance", "{w}/g64.json", "--steps", "20,0"],
        None, None, None),
    "meta-without-domain_tag": (3, "eval", [], "data", _drop_domain_tag, None),
    "config-not-an-object": (2, "eval", [], None, None, [1, 2]),
    "config-wrong-type": (2, "eval", [], None, None, {"n_samples": "abc"}),
    # values no check caught: tracebacks or exit 0 with a bad result
    "train-diffusion-batch-0": (
        2, "train-diffusion", ["--stage2-batch", "0"], None, None, None),
    "train-diffusion-epochs-negative": (
        2, "train-diffusion", ["--stage2-epochs", "-1"], None, None, None),
    "train-diffusion-ema-2": (2, "train-diffusion", ["--ema-mu", "2"], None, None, None),
    "train-guidance-warmup-negative": (
        2, "train-guidance", ["--warmup-epochs", "-1"], None, None, None),
    "eval-seed-negative": (2, "eval", ["--seed", "-1"], None, None, None),
    "train-guidance-seed-negative": (
        2, "train-guidance", ["--seed", "-1"], None, None, None),
    "gen-data-seed-negative": (2, "gen-data", ["--seed", "-1"], None, None, None),
    # checkpoints with non-finite or out-of-range values fail at load
    "denoiser-weight-nan": (
        3, "eval", [], "d.json", _json_set("weights", "layer0_w", 0, value=math.nan),
        None),
    "guidance-weight-nan": (
        3, "eval", [], "g.json", _json_set("weights", "w1", 0, value=math.nan), None),
    "guidance-log_scale-nan": (
        3, "eval-zero-shot", [], "g.json", _json_set("log_scale", value=math.nan),
        None),
    "guidance-alpha-negative": (
        3, "eval", [], "g.json", _json_set("alpha", value=-1), None),
    "denoiser-beta_end-2": (
        3, "eval", [], "d.json", _json_set("beta_end", value=2.0), None),
    # a base checkpoint trained for another rank is not reused
    "train-guidance-stale-base": (
        2, "train-guidance", ["--out", "{w}/stale.json", "--rank", "4", "--seed", "9"],
        None, None, None),
    "train-diffusion-unfrozen-guidance": (
        3, "train-diffusion", [], "g.json", _json_set("frozen", value=False), None),
    # paths the program cannot write: the message names the path
    "gen-data-out-is-a-file": (3, "gen-data", ["--out", "{w}/g.json"], "g.json",
                               None, None),
    "eval-report-dir-missing": (3, "eval", ["--report", "{w}/missing/r.json"],
                                "missing", None, None),
    # command-line errors give one line, not a usage block and SystemExit
    "unknown-flag": (2, "eval", ["--bogus", "1"], None, None, None),
    "retired-flag": (2, "train-diffusion", ["--epochs", "1"], None, None, None),
    "seed-not-an-int": (2, "eval", ["--seed", "abc"], None, None, None),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_cli_bad_input_exit_code_and_one_line(case, bad_input_base, tmp_path, capsys):
    code, command, extra, target, damage, config = _BAD_INPUTS[case]
    work = tmp_path / "w"
    shutil.copytree(bad_input_base, work)
    if damage is not None:
        damage(work / target)
    argv = [*_ARGV[command], *extra]
    if config is not None:
        (work / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", "{w}/cfg.json"]
    assert cli.main([a.format(w=work) for a in argv]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1, err
    if code == 3 and target is not None:
        assert target in err  # the message names the damaged file


# Each subcommand's settings: the config class, the paths it needs, and one
# non-default --config document that names every exposed field.
_EXPOSED = {
    "gen-data": (SyntheticConfig, ["--out", "o"], {
        "n": 100, "d_in": 8, "k": 2, "proportions": [0.25, 0.75],
        "separation": 2.0, "noise": 0.5, "shift_angle": 0.25, "shift_bias": 0.0,
        "seed": 3}),
    "train-guidance": (pl.RunConfig, ["--data", "x", "--out", "o"], {
        "rank": 2, "alpha": 4.0, "stage1_epochs": 1, "stage1_batch": 8,
        "lr_lora": 1e-3, "lr_prompt": 1e-2, "warmup_epochs": 0, "lambda_rank": 0.5,
        "margin": 0.1, "seed": 3}),
    "train-diffusion": (pl.RunConfig, ["--data", "x", "--guidance", "g", "--out", "o"], {
        "t_total": 10, "stage2_epochs": 1, "stage2_batch": 8, "stage2_lr": 1e-3,
        "stage2_lr_min": 1e-4, "clip": 2.0, "ema_mu": 0.5, "seed": 3}),
    "eval": (pl.RunConfig, ["--data", "x", "--guidance", "g", "--report", "r"],
             {"n_samples": 2, "seed": 3}),
    "ablate": (pl.RunConfig, ["--data", "x", "--out", "o"],
               {"desk_preset": True, "seed": 3}),
    "export-trajectory": (pl.RunConfig, ["--data", "x", "--guidance", "g",
                                         "--diffusion", "d", "--out", "o"],
                          {"seed": 3}),
}


class _Captured(Exception):
    pass


def _flags(doc):
    argv = []
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            argv += [flag, text]
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
    assert pl.RunConfig().digest() == "3c79f163694c2bd6"
    assert pl.RunConfig(desk_preset=True).digest() == "2d1614c8d5c78194"


def _mutate(blob: bytes, op: str, pos: int, byte: int) -> bytes:
    pos %= len(blob) + 1
    if op == "insert":
        return blob[:pos] + bytes([byte]) + blob[pos:]
    pos = min(pos, len(blob) - 1)
    tail = blob[pos + 1 :]
    return blob[:pos] + (bytes([byte]) if op == "replace" else b"") + tail


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    target=st.sampled_from(["cfg.json", "g.json", "d.json"]),
    op=st.sampled_from(["replace", "insert", "delete"]),
    pos=st.integers(min_value=0, max_value=2**20),
    byte=st.integers(min_value=0, max_value=255),
)
def test_cli_eval_survives_mutated_bytes(bad_input_base, target, op, pos, byte):
    """One changed byte in the --config file or a checkpoint ends eval with a
    documented exit code and at most one stderr line."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        files = {name: bad_input_base / name for name in ("g.json", "d.json")}
        files["cfg.json"] = work / "base-cfg.json"
        files["cfg.json"].write_text(json.dumps({"n_samples": 2, "seed": 3}))
        mutated = work / target
        mutated.write_bytes(_mutate(files[target].read_bytes(), op, pos, byte))
        files[target] = mutated
        argv = ["eval", "--data", str(bad_input_base / "data"),
                "--guidance", str(files["g.json"]), "--diffusion", str(files["d.json"]),
                "--report", str(work / "r.json"), "--config", str(files["cfg.json"])]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    assert len(err.getvalue().strip().splitlines()) <= 1, err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_nonfinite_loss_guard():
    with pytest.raises(NumericError):
        pl._check_finite_loss(float("nan"), "stage2,0")
    with pytest.raises(NumericError):
        pl._check_finite_loss(float("inf"), "stage1,3")
    pl._check_finite_loss(1.0, "ok")
