"""The cgsd benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ablate --seed 42 --seconds 10 --trace 0

Workloads are ``ablate`` and ``infer-few`` (see harness.py
and metrics.json). ``--trace 0`` runs set-up several times, each in a child
process, then repeats the workload's round until ``--seconds`` have passed,
and reports every end-to-end metric, with times calibrated against the
host's speed (speed.py). ``--trace 1`` runs set-up plus one round traced and
untraced (traced, untraced, traced for infer-few; traced, untraced for
ablate) and reports every per-layer metric; the spans of the first traced
pass are written to ``.perfbench_work/``.

The package is imported from ``src/`` of the checkout and nowhere else.
Work files go to ``.perfbench_work/`` and are removed when the run ends.
The last line of standard output is the result; the line before it holds
the provenance and the details behind the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS",
)


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, configs: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    src = hashlib.sha256()
    for path in sorted((SRC / "cgsd").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(),
        "git_sha": sha,
        "git_dirty": None if dirty is None else bool(dirty),
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
        "config_digests": {k: cfg.digest() for k, cfg in configs.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one cgsd benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cgsd" / "__init__.py").is_file():
        print(f"error: cgsd sources not found under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = harness.WORKLOADS[args.workload](harness.FULL)
    result, detail = run(workload, args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def run(workload, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, dict]:
    """Run a workload in a fresh work directory; returns (result, detail)."""
    import harness

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        if trace:
            trace_path = WORK / f"trace-{workload.name}-seed{seed}.npz"
            metrics, detail, rec = harness.traced_run(workload, seed, run_dir, trace_path)
            wanted = spec["per_layer"]
        else:
            metrics, detail, rec = harness.timed_run(workload, seed, seconds, run_dir)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    detail.update(
        workload=workload.name,
        failures=rec.failures,
        provenance=provenance(
            seed, {"desk": workload.scale.desk, "short": workload.scale.short}
        ),
    )
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    return result, detail


if __name__ == "__main__":
    sys.exit(main())
