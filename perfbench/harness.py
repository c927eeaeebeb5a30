"""Workloads, output checks and the timed and traced runners.

The benchmark drives ``cgsd`` only through its public entry points:
``pipeline.ablate``, ``pipeline.train_stage1``/``train_stage2``,
``pipeline.export_trajectory``, ``cli.main`` and
``data.gen_synthetic``/``write_dataset``; small item sets are drawn from the
rows of the dataset files, in the CSV and ``.meta.json`` format that
``cgsd eval --data`` reads. Inputs come from the workload seed; the run
configuration is fixed, so its digest is the same for every seed.

Every workload produces the three-row table (zero-shot guidance, adapted
guidance, diffusion), diffusion evaluation calls and trajectory exports,
because every end-to-end metric is reported on every workload:

- ``ablate`` trains both stages inside ``pipeline.ablate`` (desk preset),
  then runs ``cgsd eval`` and exports with its checkpoints on small item sets;
- ``infer-few`` evaluates short-budget set-up checkpoints through
  ``cgsd eval`` on the same kind of small item sets.

Timing metrics are calibrated against the host's speed (see speed.py) and
come from windows of 20 seconds or more (the ablation, or 40 back-to-back
calls). Each set-up runs in a forked child process, so the peak RSS of a run
covers its rounds and not the training of set-up checkpoints.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import pickle
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from cgsd import cli, data, pipeline

import speed
import tracer as tr

DESK = pipeline.RunConfig(desk_preset=True)
# Checkpoints for the infer-few workload: the desk schedule with a short epoch
# budget. Sampling cost does not depend on the weight values, but untrained
# weights make the reverse chain overflow, so each stage trains a little, with
# a higher stage-2 rate. Fewer epochs leave the table's values so dependent on
# the seed that its spread over seeds nears the bounds.
SHORT = replace(
    DESK.resolved(), desk_preset=False, pretrain_epochs=4, stage1_epochs=4,
    stage2_epochs=8, stage2_lr=5e-3,
)
ROWS = ("zero_shot", "adapted", "diffusion")
TAIL_LADDER = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)


@dataclass(frozen=True)
class Scale:
    """Input sizes and budgets; ``TINY`` shrinks them for the self-test."""

    n: int  # items per domain in the default benchmark
    desk: pipeline.RunConfig  # the ablate workload's configuration
    short: pipeline.RunConfig  # trains the infer-few checkpoints
    few_n: int  # items per small set, 30% of them in its test split
    few_sets: int  # infer-few's small item sets, each evaluated twice per round
    ablate_sets: int  # ablate's small item sets, each evaluated once per round
    few_exports: int  # small sets, evenly spaced, that also export a trajectory
    setups: int  # set-ups per timed run; setup_s is their median
    # Passes of an ablate traced run (True = traced). A traced desk ablation
    # takes up to 65 seconds on a busy host and a run must end within 180, so
    # at full scale the traced pass is not repeated: ablate's count-repeat
    # check and drift cancelling run at tiny scale only (infer-few repeats its
    # traced pass at full scale).
    ablate_trace_passes: tuple


FULL = Scale(
    n=3662, desk=DESK, short=SHORT, few_n=100, few_sets=20, ablate_sets=10,
    few_exports=10, setups=3, ablate_trace_passes=(True, False),
)
TINY = Scale(
    n=300,
    # a high adapter rate so that adaptation beats zero-shot even at n=300
    desk=replace(
        SHORT, pretrain_epochs=10, stage1_epochs=10, stage2_epochs=1, t_total=10, lr_lora=1e-2
    ),
    short=replace(SHORT, pretrain_epochs=1, stage1_epochs=1, stage2_epochs=1, t_total=10),
    few_n=40,
    few_sets=2,
    ablate_sets=2,
    few_exports=1,
    setups=2,
    ablate_trace_passes=(True, False, True),
)


def n_test(n: int, cfg: pipeline.RunConfig) -> int:
    """Size of the stratified test split of n items."""
    return n - math.floor(n * cfg.train_fraction)


def steps_for(cfg: pipeline.RunConfig) -> list[int]:
    """Trajectory steps T, 4T/5, ..., 0 (100,80,60,40,20,0 at the desk T)."""
    t = cfg.resolved().t_total
    return [t * i // 5 for i in range(5, -1, -1)]


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def macro_f1(confusion: np.ndarray) -> tuple[float, float]:
    """(accuracy, macro-F1) of a confusion matrix; an empty class scores 0."""
    k = confusion.shape[0]
    per_class = np.zeros(k)
    for c in range(k):
        tp = confusion[c, c]
        denom = 2 * tp + (confusion[:, c].sum() - tp) + (confusion[c, :].sum() - tp)
        per_class[c] = 0.0 if denom == 0 else 2.0 * tp / denom
    return float(np.trace(confusion)) / confusion.sum(), float(per_class.mean())


@dataclass
class Recorder:
    """Operations attempted and failed, output digests and the timings that
    the end-to-end metrics are computed from. With a ``probe`` the timings
    are calibrated seconds and ``wall`` keeps the plain wall times."""

    probe: speed.SpeedProbe | None = None
    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    confusions: dict = field(default_factory=lambda: {r: {} for r in ROWS})
    ablation_rows: dict = field(default_factory=dict)
    table_s: list = field(default_factory=list)
    eval_call_s: list = field(default_factory=list)
    diffusion_items: int = 0
    trajectory_s: list = field(default_factory=list)
    wall: dict = field(default_factory=lambda: {"table": [], "eval_call": [], "trajectory": []})
    _what: str = ""

    def op(self, what: str, fn, *args, **kwargs):
        """Run one operation; returns (result, seconds, wall seconds), or
        Nones if it raised, which counts it as failed."""
        self.attempted += 1
        self._what = what
        try:
            if self.probe is None:
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                wall = secs = time.perf_counter() - t0
            else:
                out, wall, secs = self.probe.measure(fn, *args, **kwargs)
        except Exception as e:  # a failing operation is counted, not fatal
            self.fail(f"{type(e).__name__}: {e}")
            return None, None, None
        return out, secs, wall

    def fail(self, message: str) -> None:
        self.failed_ops.add(self.attempted)
        self.failures.append(f"{self._what}: {message}")

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(message)
        return ok

    def same_output(self, key: str, digest: str) -> None:
        """Outputs for one input must be identical every time they are made."""
        first = self.digests.setdefault(key, digest)
        self.check(first == digest, f"output for {key} differs from its first run")

    def add_eval(self, key: str, row: str, report: dict, expected_n: int, pool: bool) -> None:
        """Check an evaluate report; with ``pool`` keep its confusion matrix
        for the table."""
        self.check(report["n_eval"] == expected_n, f"n_eval {report['n_eval']} != {expected_n}")
        self.check(
            math.isfinite(report["accuracy"]) and math.isfinite(report["macro_f1"]),
            "non-finite metric in report",
        )
        self.same_output(f"{key}/{row}", _digest(json.dumps(report, sort_keys=True).encode()))
        if pool:
            self.confusions[row].setdefault(key, np.array(report["confusion"]))

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def table(self) -> dict[str, tuple[float, float]]:
        """Accuracy and macro-F1 per row: the ablation's rows if there was
        one, else over the pooled item sets."""
        if self.ablation_rows:
            return self.ablation_rows
        return {
            row: macro_f1(sum(sets.values())) if sets else (0.0, 0.0)
            for row, sets in self.confusions.items()
        }


def write_benchmark(out: Path, n: int, seed: int) -> None:
    """The default benchmark (n items per domain) for a workload seed."""
    out.mkdir(parents=True, exist_ok=True)
    source, target = data.gen_synthetic(data.SyntheticConfig(n=n, seed=seed))
    data.write_dataset(out / "source.csv", source)
    data.write_dataset(out / "target.csv", target)


def stratified_draw(labels: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of m rows, every label drawn in its share of the rows
    (largest remainder, ties to the smaller label)."""
    classes, sizes = np.unique(labels, return_counts=True)
    quota = m * sizes / sizes.sum()
    take = np.floor(quota).astype(int)
    take[np.argsort(take - quota, kind="stable")[: m - take.sum()]] += 1
    return np.sort(np.concatenate([
        rng.choice(np.flatnonzero(labels == c), size=t, replace=False)
        for c, t in zip(classes, take)
    ]))


def write_sets(root: Path, data_dir: Path, seed: int, n_sets: int, few_n: int) -> list:
    """Small item sets (few_n rows per domain, every grade in its share)
    drawn with the workload seed from the rows of the benchmark's files."""
    files = []
    for name in ("source", "target"):
        csv = data_dir / f"{name}.csv"
        lines = csv.read_text(encoding="utf-8").splitlines()
        labels = np.array([int(line.split(",", 1)[0]) for line in lines[1:]])
        meta = json.loads(Path(f"{csv}.meta.json").read_text(encoding="utf-8"))
        files.append((name, lines, labels, meta))
    sets = []
    for i in range(n_sets):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 7, i)))
        out = root / f"set{i}"
        out.mkdir()
        for name, lines, labels, meta in files:
            rows = [lines[0], *(lines[j + 1] for j in stratified_draw(labels, few_n, rng))]
            (out / f"{name}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")
            Path(f"{out / name}.csv.meta.json").write_text(
                json.dumps({**meta, "n": few_n}, indent=2) + "\n", encoding="utf-8", newline="\n"
            )
        sets.append(out)
    return sets


def train(root: Path, data_dir: Path, cfg: pipeline.RunConfig) -> dict:
    """Checkpoints for the infer-few workload."""
    paths = {k: root / f"{k}.json" for k in ("base", "guidance", "denoiser")}
    s1 = pipeline.train_stage1(data_dir, cfg, paths["guidance"], base_path=paths["base"])
    s2 = pipeline.train_stage2(data_dir, paths["guidance"], cfg, paths["denoiser"])
    if s1["frozen_hash_before"] != s1["frozen_hash_after"]:
        raise RuntimeError("stage 1 changed the frozen encoder")
    if s2["guidance_hash_before"] != s2["guidance_hash_after"]:
        raise RuntimeError("stage 2 changed the guidance checkpoint")
    return paths


def export(rec: Recorder, key: str, data_dir: Path, ckpts: dict, out: Path,
           cfg: pipeline.RunConfig, items: int) -> None:
    steps = steps_for(cfg)
    doc, secs, wall = rec.op(
        "export_trajectory", pipeline.export_trajectory, data_dir,
        ckpts["guidance"], ckpts["denoiser"], steps, out, cfg,
    )
    if doc is None:
        return
    rec.trajectory_s.append(secs)
    rec.wall["trajectory"].append(wall)
    csv = out.read_bytes()
    rec.check(csv.count(b"\n") == 1 + len(steps) * items, "trajectory row count")
    rec.check(
        sorted(doc["silhouette_by_step"]) == sorted(str(t) for t in steps),
        "silhouette steps",
    )
    rec.same_output(f"{key}/trajectory", _digest(csv, json.dumps(doc, sort_keys=True).encode()))


class Ablate:
    """The three-row desk ablation, then ``cgsd eval`` calls and trajectory
    exports with its checkpoints on small item sets. Only this workload
    trains inside the measured operation."""

    name = "ablate"

    def __init__(self, scale: Scale):
        self.scale = scale
        self.trace_passes = scale.ablate_trace_passes

    def setup(self, root: Path, seed: int) -> dict:
        write_benchmark(root / "data", self.scale.n, seed)
        sets = write_sets(root, root / "data", seed, self.scale.ablate_sets, self.scale.few_n)
        return {"data": root / "data", "sets": sets}

    def round(self, state: dict, rec: Recorder, out: Path, traced: bool = False) -> None:
        cfg = self.scale.desk
        out.mkdir(parents=True)
        report, secs, wall = rec.op("ablate", pipeline.ablate, state["data"], cfg, out / "ablation.json")
        if report is None:
            return
        rec.table_s.append(secs)
        rec.wall["table"].append(wall)
        rec.check(
            report["stage1"]["frozen_hash_before"] == report["stage1"]["frozen_hash_after"],
            "stage 1 changed the frozen encoder",
        )
        rec.check(
            report["stage2"]["guidance_hash_before"] == report["stage2"]["guidance_hash_after"],
            "stage 2 changed the guidance checkpoint",
        )
        rows = report["rows"]
        got = [(r["accuracy"], r["macro_f1"]) for r in rows]
        if rec.check(len(rows) == len(ROWS), f"ablation has {len(rows)} rows, not {len(ROWS)}"):
            rec.check(all(math.isfinite(v) for pair in got for v in pair), "non-finite ablation row")
            rec.check(got[0][0] < got[1][0],
                      f"zero-shot accuracy {got[0][0]} not below adapted {got[1][0]}")
            rec.ablation_rows = rec.ablation_rows or dict(zip(ROWS, got))
        rec.same_output("ablation", _digest(json.dumps(rows, sort_keys=True).encode()))
        ck = {k: out / f"ablate_{k}.json" for k in ("guidance", "denoiser")}
        ck["base"] = out / "ablate_guidance.base.json"
        # a traced run makes several passes; one set keeps it under 3 minutes
        sets = state["sets"][:1] if traced else state["sets"]
        exports = 1 if traced else self.scale.few_exports
        _small_sets(rec, sets, ck, out, cfg, n_test(self.scale.few_n, cfg), exports,
                    table=False, passes=1)


class InferFew:
    """Back-to-back ``cgsd eval`` calls on small item sets drawn from the
    default benchmark, all with the same set-up checkpoints: fixed per-call
    costs dominate."""

    name = "infer-few"
    trace_passes = (True, False, True)

    def __init__(self, scale: Scale):
        self.scale = scale

    def setup(self, root: Path, seed: int) -> dict:
        s = self.scale
        write_benchmark(root / "data", s.n, seed)
        ckpts = train(root, root / "data", s.short)
        sets = write_sets(root, root / "data", seed, s.few_sets, s.few_n)
        return {"sets": sets, "ckpts": ckpts}

    def round(self, state: dict, rec: Recorder, out: Path, traced: bool = False) -> None:
        s = self.scale
        out.mkdir(parents=True)
        _small_sets(rec, state["sets"], state["ckpts"], out, s.short, n_test(s.few_n, s.short),
                    s.few_exports, table=True, passes=2)


def _small_sets(rec: Recorder, sets: list, ck: dict, out: Path, cfg: pipeline.RunConfig,
                items: int, exports: int, table: bool, passes: int) -> None:
    """Each set ``passes`` times through ``cgsd eval`` with the denoiser; a
    second pass repeats the first, so the run checks that a set's report is
    the same each time. With ``table`` (and two passes) the two zero-shot
    rows also run, in the first pass for even sets and in the second for odd
    ones, so the three-row tables are spread over the run; their reports make
    up the recorder's table. ``exports`` evenly spaced sets also export a
    trajectory."""
    for second in range(passes):
        for i, data_dir in enumerate(sets):
            key, times, walls = f"set{i}", [], []
            for row, g, d in _table(ck)[0 if table and i % 2 == second else 2:]:
                report = out / f"{key}-{row}.json"
                secs, wall = _cli_eval(rec, key, row, data_dir, g, d, report, items, pool=table)
                if secs is None:
                    break
                times.append(secs)
                walls.append(wall)
            else:
                rec.eval_call_s.append(times[-1])
                rec.wall["eval_call"].append(walls[-1])
                rec.diffusion_items += items
                if len(times) == len(ROWS):
                    rec.table_s.append(sum(times))
                    rec.wall["table"].append(sum(walls))
            if not second and i % (len(sets) // exports) == 0:
                export(rec, key, data_dir, ck, out / f"{key}-trajectory.csv", cfg, items)


def _table(ck: dict) -> tuple:
    """(row, guidance checkpoint, denoiser checkpoint) for the three rows."""
    return (
        ("zero_shot", ck["base"], None),
        ("adapted", ck["guidance"], None),
        ("diffusion", ck["guidance"], ck["denoiser"]),
    )


def _cli_eval(rec: Recorder, key: str, row: str, data_dir: Path, guidance: Path,
              denoiser: Path | None, report: Path, items: int, pool: bool) -> tuple:
    """One ``cgsd eval`` call; returns its (seconds, wall seconds), or Nones
    if it failed."""
    argv = ["eval", "--data", str(data_dir), "--guidance", str(guidance), "--report", str(report)]
    if denoiser is not None:
        argv += ["--diffusion", str(denoiser)]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code, secs, wall = rec.op(f"cgsd eval {key} {row}", cli.main, argv)
    if code is None or not rec.check(code == 0, f"exit code {code}: {stderr.getvalue().strip()}"):
        return None, None
    rec.add_eval(key, row, json.loads(report.read_text(encoding="utf-8")), items, pool)
    return secs, wall


WORKLOADS = {w.name: w for w in (Ablate, InferFew)}


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def tail_quantile(n: int) -> float:
    """The highest ladder quantile with at least ten samples beyond it, or
    1.0 (the maximum) when there are too few samples for any."""
    ok = [q for q in TAIL_LADDER if n - math.ceil(q * n) >= 10]
    return ok[-1] if ok else 1.0


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(rec: Recorder, setup_s: list) -> tuple[dict, dict]:
    """End-to-end metrics of a timed run, and the details behind them."""
    calls = sorted(rec.eval_call_s)
    q = tail_quantile(len(calls))
    table = rec.table()
    metrics = {
        "setup_s": _median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_share": (rec.attempted - rec.failed) / max(rec.attempted, 1),
        "ablate_s": _median(rec.table_s),
        "eval_items_per_s": rec.diffusion_items / sum(calls) if calls else 0.0,
        "trajectory_s": _median(rec.trajectory_s),
        "eval_call_p50_s": _percentile(calls, 0.5) if calls else 0.0,
        "eval_call_tail_s": _percentile(calls, q) if calls else 0.0,
    }
    for row in ROWS:
        metrics[f"acc_{row}"], metrics[f"macro_f1_{row}"] = table[row]
    detail = {
        "tables": len(rec.table_s),
        "eval_calls": len(calls),
        "eval_call_tail_percentile": q * 100,
        "trajectories": len(rec.trajectory_s),
        "wall_s_median": {k: _median(v) for k, v in rec.wall.items()},
    }
    return metrics, detail


def setup_in_child(workload, root: Path, seed: int) -> tuple:
    """Run the workload's set-up in a forked child process, so that its
    memory does not count toward this process's peak RSS; returns
    (state, wall seconds, calibrated seconds)."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            probe = speed.SpeedProbe()
            with probe.running():
                result = probe.measure(workload.setup, root, seed)
            with os.fdopen(write_fd, "wb") as f:
                pickle.dump(result, f)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as f:
        payload = f.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"set-up failed in its child process (status {status})")
    return pickle.loads(payload)


def timed_run(workload, seed: int, seconds: float, root: Path) -> tuple[dict, dict, Recorder]:
    """Set-ups in child processes, then rounds until ``seconds`` have passed;
    every timing is calibrated against the host's speed."""
    setups = [setup_in_child(workload, root / f"setup{k}", seed) for k in range(workload.scale.setups)]
    state = setups[-1][0]
    probe = speed.SpeedProbe()
    rec = Recorder(probe=probe)
    rounds = 0
    with probe.running():
        t0 = time.perf_counter()
        while rounds == 0 or time.perf_counter() - t0 < seconds:
            workload.round(state, rec, root / f"round{rounds}")
            rounds += 1
    metrics, detail = end_to_end(rec, [cal for _, _, cal in setups])
    detail.update(
        rounds=rounds,
        setup_s_each=[cal for _, _, cal in setups],
        setup_wall_s_each=[wall for _, wall, _ in setups],
        probe_samples=len(probe.samples),
        probe_ref_s_median=_median(list(probe.samples)),
    )
    return metrics, detail, rec


def _same_counts(a: dict, b: dict) -> None:
    diff = {k: (a[k], b[k]) for k in tr.REPEATED_COUNTS if a[k] != b[k]}
    if diff:
        raise RuntimeError(f"counts differ between traced passes: {diff}")


def _spans_nest(tracers: list) -> None:
    problems = [p for t in tracers for p in tr.check_nesting(t)]
    if problems:
        raise RuntimeError("; ".join(problems))


def traced_run(workload, seed: int, root: Path, trace_path: Path | None) -> tuple[dict, dict, Recorder]:
    """Passes of set-up plus one round, traced or not as the workload's
    ``trace_passes`` say (traced, untraced, traced for infer-few).

    Times are plain wall times, the mean of the traced passes; with two
    traced passes their counts must repeat exactly. The overhead is traced
    minus untraced wall time; an untraced pass between two traced ones
    cancels a linear drift in machine speed.
    """
    rec, walls, tracers = Recorder(), {True: [], False: []}, []
    for p, traced in enumerate(workload.trace_passes):
        tracer = tr.Tracer()
        t0 = time.perf_counter()
        with tr.instrument(tracer) if traced else contextlib.nullcontext():
            state = workload.setup(root / f"pass{p}", seed)
            workload.round(state, rec, root / f"pass{p}" / "round", traced=True)
        walls[traced].append(time.perf_counter() - t0)
        if traced:
            tracers.append(tracer)
    layers = [tr.layer_metrics(t) for t in tracers]
    if len(layers) > 1:
        rec.op("compare counts of the traced passes", _same_counts, layers[0], layers[1])
    rec.op("check span nesting", _spans_nest, tracers)
    first = layers[0]
    metrics = {
        k: v if k in tr.REPEATED_COUNTS or isinstance(v, int)
        else statistics.mean(m[k] for m in layers)
        for k, v in first.items()
    }
    metrics["trace.overhead_s"] = statistics.mean(walls[True]) - statistics.mean(walls[False])
    if trace_path is not None:
        tracers[0].save(trace_path)
    detail = {
        "pass_wall_s": [walls[True], walls[False]],
        "traced_passes": len(tracers),
        "spans_per_pass": len(tracers[0].start),
        "missing": sorted(set(tracers[0].missing)),
        "trace_file": None if trace_path is None else str(trace_path),
    }
    return metrics, detail, rec
