"""Train a desk-scale model on an easy two-class benchmark and export the
reverse-chain trajectory, printing the per-step cluster-separation scores.

The silhouette should rise as the chain runs (t: 100 -> 0), showing the
label-space states organizing into class clusters. Takes about 15 seconds
on a 2-core machine.

Usage: python scripts/export_trajectory_demo.py [--out DIR] [--seed N]
"""

import argparse
from pathlib import Path

from cgsd.data import SyntheticConfig, gen_synthetic, write_dataset
from cgsd.pipeline import RunConfig, export_trajectory, train_stage1, train_stage2


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/trajectory_demo", type=Path)
    ap.add_argument("--seed", default=42, type=int)
    args = ap.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    data_cfg = SyntheticConfig(
        k=2, proportions=(0.5, 0.5), separation=6.0, noise=1.0, seed=args.seed
    )
    source, target = gen_synthetic(data_cfg)
    write_dataset(args.out / "source.csv", source)
    write_dataset(args.out / "target.csv", target)

    cfg = RunConfig(desk_preset=True, seed=args.seed)
    train_stage1(
        args.out, cfg, args.out / "guidance.json", args.out / "guidance.base.json"
    )
    train_stage2(args.out, args.out / "guidance.json", cfg, args.out / "denoiser.json")

    doc = export_trajectory(
        args.out,
        args.out / "guidance.json",
        args.out / "denoiser.json",
        None,
        args.out / "trajectory.csv",
        cfg,
    )
    for t, score in sorted(
        doc["silhouette_by_step"].items(), key=lambda kv: -int(kv[0])
    ):
        print(f"t={t:>3}  silhouette={score:.4f}")
    print(f"trajectory written to {args.out / 'trajectory.csv'}")


if __name__ == "__main__":
    main()
