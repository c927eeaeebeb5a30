"""Run the desk ablation, the three evaluations and one trajectory export on a
benchmark directory, then print the sha256 of every file written.

Two checkouts give the same lines exactly when their outputs are byte for
byte the same, so one diff compares them (the run's peak RSS and each
command's wall time go to stderr, beside them, and not into the listing):

    cgsd gen-data --out DATA
    PYTHONPATH=src python scripts/output_digests.py DATA --out A > a.txt
    (in the other checkout, same DATA, another empty --out)
    diff a.txt b.txt

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
from cgsd.pipeline import RunConfig, ablate, export_trajectory


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

    with timed("ablate"):
        ablate(args.data, cfg, args.out / "ablation.json")
    guidance = args.out / "ablate_guidance.json"
    denoiser = args.out / "ablate_denoiser.json"
    runs = {
        "zero-shot": ["--guidance", str(args.out / "ablate_guidance.base.json")],
        "adapted": ["--guidance", str(guidance)],
        "diffusion": ["--guidance", str(guidance), "--diffusion", str(denoiser)],
    }
    for name, flags in runs.items():
        argv = ["eval", "--data", str(args.data), "--seed", str(args.seed), *flags,
                "--report", str(args.out / f"eval_{name}.json")]
        # cli.main prints each report; only the digests go to stdout
        with timed(f"eval {name}"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            sys.exit(f"cgsd {' '.join(argv)} exited {code}")
    with timed("export-trajectory"):
        export_trajectory(args.data, guidance, denoiser, None, args.out / "trajectory.csv", cfg)

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
