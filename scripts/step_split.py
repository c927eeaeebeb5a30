"""Time the per-step split of the three training loops (source pretraining,
stage 1 and stage 2): forward, backward and update per step.

Every stage trains through ``pipeline._fit``, the one training loop, so the
script wraps it for the length of the run, reads the loop from its ``stage``
argument and times, per batch, the batch loss on a fresh tape (forward),
``backward`` (backward) and the stage's step (update); the loop's time less
that of its ``note`` (stage 1's train-split accuracy) is the step time, which
adds the loop's own work (the rates, the shuffle, stage 2's draws, the tape,
the loss check). A round runs one block of each
loop in turn, in one process: a ``train_stage1`` call (a pretraining block,
then a stage-1 block) and a ``train_stage2`` call on its checkpoint, each of
``--epochs`` epochs of the desk preset's settings. A block's value is its
mean per step, and the printed values are the medians over ``--rounds``
blocks, so the three loops alternate and share the host's drift.

    cgsd gen-data --out DATA
    PYTHONPATH=src python scripts/step_split.py DATA [--rounds 10] [--epochs 2]

It prints one JSON line: per loop, the steps in a block and the median
forward, backward, update and step times in microseconds, then the rounds,
the epochs, the core count, numpy's version and its BLAS.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from cgsd import pipeline

LOOPS = ("pretrain", "stage1", "stage2")  # _fit's stage names
PHASES = ("forward", "backward", "update", "step")


def _timed(fn, spent: dict, phase: str):
    def call(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        spent[phase] += time.perf_counter() - t0
        return out
    return call


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy builds without the dict form
        return "unknown"


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("data", type=Path, help="directory with source.csv and target.csv")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--epochs", type=int, default=2, help="epochs per block")
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.epochs < 1:
        sys.exit("--rounds and --epochs must be >= 1")

    cfg = replace(pipeline.RunConfig(desk_preset=True),
                  desk_preset=False, pretrain_epochs=args.epochs,
                  stage1_epochs=args.epochs, stage2_epochs=args.epochs)
    blocks: list[dict] = []
    fit, backward = pipeline._fit, pipeline.backward

    def timed_fit(stage, flat, step, plans, n, batch, epochs, cfg, tag, batch_loss, log, note):
        spent = blocks[-1][stage]
        spent["steps"] += epochs * -(-n // batch)
        pipeline.backward = _timed(backward, spent, "backward")
        _timed(fit, spent, "step")(
            stage, flat, _timed(step, spent, "update"), plans, n, batch, epochs, cfg, tag,
            lambda epoch: _timed(batch_loss(epoch), spent, "forward"), log,
            _timed(note, spent, "note"))

    pipeline._fit = timed_fit
    try:
        with tempfile.TemporaryDirectory() as tmp:
            guidance = Path(tmp) / "g.npz"
            for _ in range(args.rounds):
                blocks.append({loop: dict.fromkeys(("steps", "note") + PHASES, 0)
                               for loop in LOOPS})
                pipeline.train_stage1(args.data, cfg, guidance, Path(tmp) / "g.base.npz")
                pipeline.train_stage2(args.data, guidance, cfg, Path(tmp) / "d.npz")
    finally:
        pipeline._fit, pipeline.backward = fit, backward

    out = {}
    for loop in LOOPS:
        for b in blocks:
            b[loop]["step"] -= b[loop]["note"]
        steps = blocks[0][loop]["steps"]
        out[loop] = {"steps": steps} | {
            f"{phase}_us": round(statistics.median(
                b[loop][phase] / b[loop]["steps"] for b in blocks) * 1e6, 1)
            for phase in PHASES
        }
    out |= {"rounds": args.rounds, "epochs": args.epochs, "cores": os.cpu_count(),
            "numpy": np.__version__, "blas": _blas()}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
