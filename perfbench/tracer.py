"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the ``cgsd`` modules from outside the
package. Each wrapped call records one span (name, start, end, parent) in
flat arrays kept in memory; ``save`` writes them out when the run ends.

Some modules bind functions by name (``pipeline`` imports ``backward``,
``read_dataset``, ``confusion_and_metrics`` and ``silhouette_score``;
``cli`` imports ``gen_synthetic`` and ``write_dataset``), so a wrapper
replaces every binding of the original object in every loaded ``cgsd``
module, and ``instrument`` puts all of them back on exit. A name the package
no longer has is listed in ``Tracer.missing`` and its metrics read 0.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

NUMKIT_OPS = (
    "matmul", "transpose", "add", "sub", "mul", "scale", "add_scalar",
    "scale_by", "exp", "clamp_max", "relu", "smooth_nonlinearity",
    "softmax_rows", "l2_normalize_rows", "concat_cols", "take_rows",
    "sum_all", "mean_all", "cross_entropy_mean",
)

# module -> public names wrapped with a span; "Class.method" wraps a method
TRACED = {
    "numkit": NUMKIT_OPS + ("backward",),
    "guidance": (
        "guidance_loss", "ranking_loss", "GuidanceModel.encode_batch",
        "load_guidance", "save_guidance",
    ),
    "diffusion": (
        "eps_predict", "timestep_embedding", "sample_chain_batch",
        "epsilon_loss", "load_denoiser", "save_denoiser",
    ),
    "optim": ("adam_step", "radam_step", "ema_update", "clip_grad_norm"),
    "data": ("gen_synthetic", "write_dataset", "read_dataset", "stratified_split"),
    "analysis": ("confusion_and_metrics", "pca_project_2d", "silhouette_score"),
    "pipeline": (
        "pretrain_base", "train_stage1", "train_stage2", "conditioning",
        "evaluate", "export_trajectory", "ablate",
    ),
    "cli": ("main",),
}


def _count_matmul(counts, args, kwargs, out):
    a, b = args[0], args[1]
    counts["numkit.matmul_flops"] += 2 * a.rows * a.cols * b.cols


def _count_tape(counts, args, kwargs, out):
    tape = args[1] if len(args) > 1 else kwargs["tape"]
    counts["numkit.tape_records"] += len(tape)


def _count_eps_rows(counts, args, kwargs, out):
    counts["diffusion.eps_rows"] += out.rows


def _count_ckpt_bytes(counts, args, kwargs, out):
    counts["diffusion.ckpt_bytes"] += os.path.getsize(args[0])


def _count_rows_read(counts, args, kwargs, out):
    counts["data.rows_read"] += out.n


def _count_nonzero_exit(counts, args, kwargs, out):
    counts["cli.nonzero_exits"] += out != 0


# span name -> hook(counts, args, kwargs, result) run after a call returns
HOOKS = {
    "numkit.matmul": _count_matmul,
    "numkit.backward": _count_tape,
    "diffusion.eps_predict": _count_eps_rows,
    "diffusion.load_denoiser": _count_ckpt_bytes,
    "data.read_dataset": _count_rows_read,
    "cli.main": _count_nonzero_exit,
}


class Tracer:
    """Spans of one traced pass, in flat arrays indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, hook=None):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def arrays(self):
        """(name_id, parent, start, end, duration, self_time) as numpy arrays."""
        ids = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        return ids, parent, start, end, dur, dur - child

    def save(self, path: Path) -> None:
        ids, parent, start, end, _, _ = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=ids,
            parent=parent,
            start=start,
            end=end,
        )


@contextmanager
def instrument(tracer: Tracer, package: str = "cgsd"):
    """Wrap every name in TRACED for the duration of the block."""
    modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == package or n.startswith(package + "."))
    ]
    undo: list[tuple[object, str, object]] = []
    try:
        for short, names in TRACED.items():
            mod = sys.modules.get(f"{package}.{short}")
            for attr in names:
                span = f"{short}.{attr}"
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                orig = None if owner is None else vars(owner).get(fn_name)
                if orig is None:
                    tracer.missing.append(span)
                    continue
                wrapped = tracer.wrap(span, orig, HOOKS.get(span))
                targets = [owner] if owner_name else modules
                for target in targets:
                    for key, val in list(vars(target).items()):
                        if val is orig:
                            setattr(target, key, wrapped)
                            undo.append((target, key, orig))
        tensor = getattr(sys.modules.get(f"{package}.numkit"), "Tensor2", None)
        if tensor is None:
            tracer.missing.append("numkit.Tensor2")
        else:
            init, counts = tensor.__init__, tracer.counts

            def counting_init(self, *args, **kwargs):
                counts["numkit.tensor_allocs"] += 1
                init(self, *args, **kwargs)

            tensor.__init__ = counting_init
            undo.append((tensor, "__init__", init))
        yield tracer
    finally:
        for target, key, val in reversed(undo):
            setattr(target, key, val)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    ids, _, _, _, dur, self_t = tracer.arrays()
    k = len(tracer.names)
    calls = np.bincount(ids, minlength=k)
    total = np.bincount(ids, weights=dur, minlength=k)
    own = np.bincount(ids, weights=self_t, minlength=k)
    index = {n: i for i, n in enumerate(tracer.names)}

    def n(*names):
        return int(sum(calls[index[x]] for x in names if x in index))

    def s(*names):
        return float(sum(total[index[x]] for x in names if x in index))

    def own_s(*names):
        return float(sum(own[index[x]] for x in names if x in index))

    c = tracer.counts
    ops = [f"numkit.{op}" for op in NUMKIT_OPS]
    pipeline = [f"pipeline.{x}" for x in TRACED["pipeline"]]
    nfe = n("diffusion.eps_predict")
    backward_calls = n("numkit.backward")
    loads = n("diffusion.load_denoiser")
    return {
        "numkit.op_calls": n(*ops),
        "numkit.op_s": s(*ops),
        "numkit.tensor_allocs": c["numkit.tensor_allocs"],
        "numkit.backward_calls": backward_calls,
        "numkit.backward_s": s("numkit.backward"),
        "numkit.tape_records": c["numkit.tape_records"] / backward_calls if backward_calls else 0.0,
        "numkit.matmul_calls": n("numkit.matmul"),
        "numkit.matmul_flops": c["numkit.matmul_flops"],
        "guidance.loss_s": s("guidance.guidance_loss"),
        "guidance.ranking_s": s("guidance.ranking_loss"),
        "guidance.encode_s": s("guidance.GuidanceModel.encode_batch"),
        "guidance.ckpt_load_s": s("guidance.load_guidance"),
        "guidance.ckpt_save_s": s("guidance.save_guidance"),
        "diffusion.nfe": nfe,
        "diffusion.eps_rows": c["diffusion.eps_rows"] / nfe if nfe else 0.0,
        "diffusion.eps_predict_s": s("diffusion.eps_predict"),
        "diffusion.temb_calls": n("diffusion.timestep_embedding"),
        "diffusion.temb_s": s("diffusion.timestep_embedding"),
        "diffusion.sample_self_s": own_s("diffusion.sample_chain_batch"),
        "diffusion.epsilon_loss_self_s": own_s("diffusion.epsilon_loss"),
        "diffusion.ckpt_load_s": s("diffusion.load_denoiser"),
        "diffusion.ckpt_save_s": s("diffusion.save_denoiser"),
        "diffusion.ckpt_bytes": c["diffusion.ckpt_bytes"] / loads if loads else 0.0,
        "optim.steps": n("optim.adam_step", "optim.radam_step"),
        "optim.adam_s": s("optim.adam_step"),
        "optim.radam_s": s("optim.radam_step"),
        "optim.ema_s": s("optim.ema_update"),
        "optim.clip_s": s("optim.clip_grad_norm"),
        "data.read_calls": n("data.read_dataset"),
        "data.rows_read": c["data.rows_read"],
        "data.read_s": s("data.read_dataset"),
        "data.gen_s": s("data.gen_synthetic"),
        "data.write_s": s("data.write_dataset"),
        "data.split_s": s("data.stratified_split"),
        "analysis.metrics_s": s("analysis.confusion_and_metrics"),
        "analysis.pca_s": s("analysis.pca_project_2d"),
        "analysis.silhouette_s": s("analysis.silhouette_score"),
        "pipeline.pretrain_s": s("pipeline.pretrain_base"),
        "pipeline.stage1_s": s("pipeline.train_stage1"),
        "pipeline.stage2_s": s("pipeline.train_stage2"),
        "pipeline.conditioning_s": s("pipeline.conditioning"),
        "pipeline.evaluate_s": s("pipeline.evaluate"),
        "pipeline.export_trajectory_s": s("pipeline.export_trajectory"),
        "pipeline.self_s": own_s(*pipeline),
        "cli.main_s": s("cli.main"),
        "cli.nonzero_exits": c["cli.nonzero_exits"],
    }


# per-layer metrics that are counts: they must repeat exactly across passes
REPEATED_COUNTS = (
    "diffusion.nfe", "diffusion.temb_calls", "numkit.op_calls",
    "numkit.tensor_allocs", "numkit.tape_records", "optim.steps",
    "numkit.matmul_flops", "data.rows_read", "diffusion.ckpt_bytes",
)


def check_nesting(tracer: Tracer) -> list[str]:
    """Problems with span structure: a child outside its parent, or a
    negative self time. Empty when the spans nest."""
    ids, parent, start, end, _, self_t = tracer.arrays()
    problems = []
    nested = np.flatnonzero(parent >= 0)
    p = parent[nested]
    bad = nested[(start[nested] < start[p]) | (end[nested] > end[p])]
    for i in bad[:5]:
        problems.append(f"span {tracer.names[ids[i]]} lies outside its parent")
    for i in np.flatnonzero(self_t < -1e-9)[:5]:
        problems.append(f"span {tracer.names[ids[i]]} has self time {self_t[i]}")
    if tracer._stack:
        problems.append("spans left open")
    return problems

