"""Run the three-row desk-scale ablation on the default benchmark.

Generates the benchmark, trains both stages with the desk preset, and prints
the zero-shot / adapted / diffusion accuracy rows. Takes about 20 seconds
on a 2-core machine.

Usage: python scripts/run_desk_ablation.py [--out DIR] [--seed N]
"""

import argparse
import json
from pathlib import Path

from cgsd.data import SyntheticConfig, gen_synthetic, write_dataset
from cgsd.pipeline import RunConfig, ablate


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/desk_ablation", type=Path)
    ap.add_argument("--seed", default=42, type=int)
    args = ap.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    source, target = gen_synthetic(SyntheticConfig(seed=args.seed))
    write_dataset(args.out / "source.csv", source)
    write_dataset(args.out / "target.csv", target)

    cfg = RunConfig(desk_preset=True, seed=args.seed)
    report = ablate(args.out, cfg, args.out / "ablation.json")

    for row in report["rows"]:
        print(
            f"{row['configuration']:<24} accuracy={row['accuracy']:.4f} "
            f"macro_f1={row['macro_f1']:.4f}"
        )
    print(f"report written to {args.out / 'ablation.json'}")
    print(json.dumps(report["paper_reference"], indent=2))


if __name__ == "__main__":
    main()
