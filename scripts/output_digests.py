"""Run every command whose output bits a same-bits change must keep on a
benchmark directory, then print the sha256 of every file written.

Two checkouts give the same lines exactly when their outputs are byte for
byte the same, so one diff compares them (the run's peak RSS and each
command's wall time go to stderr, beside them, and not into the listing):

    cgsd gen-data --out DATA
    PYTHONPATH=src python scripts/output_digests.py DATA --out A > a.txt
    PYTHONPATH=OTHER/src python scripts/output_digests.py DATA --out B > b.txt
    diff a.txt b.txt

Running this one script on the other checkout's src/ compares the two
libraries with one instrument, so a change to the script itself does not
fail its own comparison.

It runs, into --out, the desk ablation, the three evaluations of its
checkpoints and one trajectory export; then, into --out/stages, the four
stage commands at the full-scale defaults: train-guidance (3 stage-1
epochs), train-diffusion (3 stage-2 epochs, 100 steps), eval --diffusion
(5 chains per item) and export-trajectory (its default steps). The ablation
writes no log and runs only the desk preset, so the stage commands are what
check the per-epoch log lines (loss, rate, stage-1 accuracy) and the
full-scale code paths.

Usage: python scripts/output_digests.py DATA [--out DIR] [--seed N]
"""

import argparse
import contextlib
import hashlib
import io
import resource
import sys
import time
from pathlib import Path

from cgsd import cli
from cgsd.pipeline import RunConfig, ablate, ablate_checkpoints, export_trajectory


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("data", type=Path, help="directory with source.csv and target.csv")
    ap.add_argument("--out", default="runs/output_digests", type=Path)
    ap.add_argument("--seed", default=42, type=int)
    args = ap.parse_args()

    # every file under --out is digested, so a file left by an earlier run
    # would read as output
    if args.out.exists() and not args.out.is_dir():
        sys.exit(f"{args.out} is not a directory")
    if args.out.exists() and any(args.out.iterdir()):
        sys.exit(f"{args.out} is not empty")
    args.out.mkdir(parents=True, exist_ok=True)

    cfg = RunConfig(desk_preset=True, seed=args.seed)
    walls = {}

    @contextlib.contextmanager
    def timed(what: str):
        start = time.perf_counter()
        yield
        walls[what] = time.perf_counter() - start

    def run_cli(what: str, *argv: str) -> None:
        argv = [*argv, "--data", str(args.data), "--seed", str(args.seed)]
        # cli.main prints logs and reports; only the digests go to stdout
        with timed(what), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            sys.exit(f"cgsd {' '.join(argv)} exited {code}")

    with timed("ablate"):
        ablate(args.data, cfg, args.out / "ablation.json")
    guidance, base, denoiser = ablate_checkpoints(args.out / "ablation.json")
    runs = {
        "zero-shot": ["--guidance", str(base)],
        "adapted": ["--guidance", str(guidance)],
        "diffusion": ["--guidance", str(guidance), "--diffusion", str(denoiser)],
    }
    for name, flags in runs.items():
        run_cli(f"eval {name}", "eval", *flags, "--report", str(args.out / f"eval_{name}.json"))
    with timed("export-trajectory"):
        export_trajectory(args.data, guidance, denoiser, None, args.out / "trajectory.csv", cfg)

    stages = args.out / "stages"
    g, d = str(stages / "g.npz"), str(stages / "d.npz")
    run_cli("stages train-guidance", "train-guidance", "--out", g, "--stage1-epochs", "3")
    run_cli("stages train-diffusion", "train-diffusion", "--guidance", g, "--out", d,
            "--stage2-epochs", "3", "--t-total", "100")
    run_cli("stages eval", "eval", "--guidance", g, "--diffusion", d,
            "--report", str(stages / "r.json"))
    run_cli("stages export-trajectory", "export-trajectory", "--guidance", g, "--diffusion", d,
            "--out", str(stages / "t.csv"))

    for path in sorted(p for p in args.out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(args.out)}")
    # Linux gives ru_maxrss in KiB
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak:.1f} MB", file=sys.stderr)
    for what, secs in walls.items():
        print(f"{what} {secs:.3f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
