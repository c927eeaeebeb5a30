"""Time the per-step split of the three training loops (source pretraining,
stage 1 and stage 2): forward, backward and update per step.

Every training batch runs through ``pipeline._epoch``, so the script wraps
it for the length of the run and times, per batch, the batch loss on a fresh
tape (forward), ``backward`` (backward) and the stage's update (update);
the whole epoch over its batches is the step time, which adds the loop's own
work (the shuffle, the tape, the loss check). A round runs one block of each
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

# the stage function that calls _epoch -> the loop's name in the output
LOOPS = {"pretrain_base": "pretrain", "train_stage1": "stage1", "train_stage2": "stage2"}
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
    epoch, backward = pipeline._epoch, pipeline.backward

    def timed_epoch(n, batch, rng, batch_loss, flat, update, lr, what):
        spent = blocks[-1][LOOPS[sys._getframe(1).f_code.co_name]]
        spent["steps"] += -(-n // batch)
        pipeline.backward = _timed(backward, spent, "backward")
        return _timed(epoch, spent, "step")(
            n, batch, rng, _timed(batch_loss, spent, "forward"), flat,
            _timed(update, spent, "update"), lr, what)

    pipeline._epoch = timed_epoch
    try:
        with tempfile.TemporaryDirectory() as tmp:
            guidance = Path(tmp) / "g.npz"
            for _ in range(args.rounds):
                blocks.append({loop: dict.fromkeys(("steps",) + PHASES, 0)
                               for loop in LOOPS.values()})
                pipeline.train_stage1(args.data, cfg, guidance, Path(tmp) / "g.base.npz")
                pipeline.train_stage2(args.data, guidance, cfg, Path(tmp) / "d.npz")
    finally:
        pipeline._epoch, pipeline.backward = epoch, backward

    out = {}
    for loop in LOOPS.values():
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
