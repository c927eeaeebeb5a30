"""Stage-1 guidance model: frozen two-layer encoder, a low-rank increment
(LoRA) on the output projection, learnable per-grade prompt embeddings and a
learnable logit scale.

The model emits, for a raw feature vector, a unit-norm embedding f, a
grade-similarity vector d (cosine of f against each normalized prompt row)
and a prior distribution softmax(scale * d). Training minimizes a
cross-entropy term over scaled similarities plus a weighted pairwise hinge
that enforces the grade ordering of similarities.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import numkit as nk
from .data import NUMBER, load_checkpoint, save_checkpoint
from .errors import ContractError, DataError, DimensionError, ParseError
from .numkit import GradTape, Tensor2

LOG_SCALE_INIT = math.log(1.0 / 0.07)
SCALE_MAX = 100.0
# largest log_scale whose exp is finite
LOG_FLOAT_MAX = math.log(sys.float_info.max)
# v2 is the zip checkpoint of data.save_checkpoint; v1 was its JSON predecessor
GUIDANCE_FORMAT = "cgsd-guidance-v2"


class GuidanceModel:
    """Encoder MLP (d_in -> hidden -> d_model) whose output projection w2 gets
    the low-rank increment (alpha / rank) * lora_b @ lora_a, rank = lora_a.rows
    (zero at build: lora_b starts at zero), plus K prompt rows and a log scale."""

    def __init__(
        self,
        w1: Tensor2,
        b1: Tensor2,
        w2: Tensor2,
        b2: Tensor2,
        lora_a: Tensor2,
        lora_b: Tensor2,
        alpha: float,
        prompts: Tensor2,
        log_scale: Tensor2,
        frozen_base: bool = True,
    ):
        self.w1 = w1
        self.b1 = b1
        self.w2 = w2
        self.b2 = b2
        self.lora_a = lora_a
        self.lora_b = lora_b
        self.alpha = alpha
        self.prompts = prompts
        self.log_scale = log_scale
        self.frozen_base = frozen_base

    @classmethod
    def build(
        cls,
        d_in: int,
        hidden: int,
        d_model: int,
        k: int,
        rank: int,
        alpha: float,
        seed: int,
    ) -> "GuidanceModel":
        rng = np.random.default_rng(np.random.SeedSequence((seed, 11)))
        w1 = Tensor2(rng.standard_normal((hidden, d_in)) / math.sqrt(d_in))
        b1 = Tensor2(np.zeros((1, hidden)))
        w2 = Tensor2(rng.standard_normal((d_model, hidden)) / math.sqrt(hidden))
        b2 = Tensor2(np.zeros((1, d_model)))
        lora_a = Tensor2(rng.standard_normal((rank, hidden)) / math.sqrt(hidden))
        lora_b = Tensor2(np.zeros((d_model, rank)))
        prompts = Tensor2(rng.standard_normal((k, d_model)))
        log_scale = Tensor2(np.array([[LOG_SCALE_INIT]]))
        return cls(w1, b1, w2, b2, lora_a, lora_b, alpha, prompts, log_scale, frozen_base=False)

    @property
    def k(self) -> int:
        return self.prompts.rows

    @property
    def d_in(self) -> int:
        return self.w1.cols

    def base_params(self) -> list[Tensor2]:
        return [self.w1, self.b1, self.w2, self.b2]

    def lora_params(self) -> list[Tensor2]:
        return [self.lora_a, self.lora_b]

    def prompt_params(self) -> list[Tensor2]:
        # log_scale trains in the prompt group
        return [self.prompts, self.log_scale]

    def head(self) -> tuple[np.ndarray, nk.Vjp, np.ndarray, np.float64]:
        """What d = f @ pt and the scale are made of, for training and inference:
        pt (C order) and its normalisation's vjp, exp(log_scale) and its clamp."""
        p, p_vjp = nk.l2_normalize_fwd(self.prompts.data)
        es = np.exp(self.log_scale.data)
        return p.T.copy(), p_vjp, es, np.minimum(es, SCALE_MAX)[0, 0]

    def encode_batch(self, x: np.ndarray, tape: GradTape | None = None) -> Tensor2:
        """Unit-norm embeddings for a batch of raw feature rows."""
        h = nk.dense(Tensor2(np.atleast_2d(x)), self.w1, self.b1, True, tape)
        return nk.l2_normalize_rows(self.project(h, tape), tape=tape)

    def project(self, h: Tensor2, tape: GradTape | None = None) -> Tensor2:
        """The adapted output projection h @ w2.T + (alpha / rank) *
        (h @ lora_a.T) @ lora_b.T + b2 as one record. Its forward and vjps run
        the floats and layouts of the per-op form (three dense layers, a
        scale and two adds; tests/ holds it), so values and gradients keep
        their bits; a vjp runs only for an input that needs an adjoint, as
        each layer's did, so stage 1 makes no product of the frozen w2."""
        hd = h.data
        w2t, at, bt = (t.data.T.copy() for t in (self.w2, self.lora_a, self.lora_b))
        c = self.alpha / self.lora_a.rows
        low = hd @ at
        inc = low @ bt
        inc *= c
        z = hd @ w2t
        z += inc
        z += self.b2.data
        res = Tensor2(z)
        if tape is None:
            return res
        memo = [None, None, None]

        def adjoints(g):  # those of the scaled product and of h @ lora_a.T, made once
            if memo[0] is not g:
                g_inc = g * c
                memo[:] = g, g_inc, g_inc @ bt.T
            return memo

        tape.record(res, (h, self.w2, self.lora_a, self.lora_b, self.b2), (
            lambda g: adjoints(g)[2] @ at.T + g @ w2t.T,
            lambda g: (hd.T @ g).T,
            lambda g: (hd.T @ adjoints(g)[2]).T,
            lambda g: (low.T @ adjoints(g)[1]).T,
            # one row adds b2 without broadcasting, so its adjoint is not summed
            (lambda g: g) if hd.shape[0] == 1 else lambda g: g.sum(axis=0, keepdims=True),
        ))
        return res


@lru_cache(maxsize=None)
def _pair_matrix(k: int, label: int) -> tuple[np.ndarray, int]:
    """Rows of +1/-1 selectors for grade pairs (a, b) with |a-k| < |b-k|."""
    rows = []
    for a in range(k):
        for b in range(k):
            if abs(a - label) < abs(b - label):
                row = np.zeros(k)
                row[a] = 1.0
                row[b] = -1.0
                rows.append(row)
    return np.array(rows), len(rows)


def ranking_loss(
    d_batch: Tensor2, labels, margin: float, tape: GradTape | None = None
) -> Tensor2:
    """Pairwise hinge on similarity ordering by grade distance.

    For a sample with grade k, every pair (a, b) with |a-k| < |b-k| incurs
    max(0, margin - (d_a - d_b)); averaged over pairs, then over the batch.

    The loss is one tape record. Its forward and vjp run the float
    operations of the per-op form (take_rows, matmul, scale, add_scalar,
    relu, sum_all and scale per grade, summed in np.unique order) in the same
    order and memory layouts, so values and gradients keep their bits; each
    grade's rows are disjoint, so scattering them into one array adds nothing.
    """
    value, vjp = _ranking_fwd(d_batch.data, np.asarray(labels, dtype=np.int64), margin)
    out = Tensor2(value)
    if tape is not None:
        tape.record(out, (d_batch,), (vjp,))
    return out


def _ranking_fwd(d: np.ndarray, y: np.ndarray, margin: float):
    """ranking_loss on an array of similarities: the loss and its vjp."""
    if margin < 0:
        raise ContractError("margin must be nonnegative")
    n, k = d.shape
    blocks = []
    total = None
    for lab in np.unique(y).tolist():
        pairs, npairs = _pair_matrix(k, lab)
        idx = (y == lab).nonzero()[0]
        shifted = (d[idx] @ pairs.T) * -1.0 + margin
        part = np.add.reduce(np.maximum(shifted, 0.0), axis=None) * (1.0 / npairs)
        total = part if total is None else total + part
        blocks.append((idx, pairs, npairs, shifted))

    def vjp(g):
        g = g * (1.0 / n)
        grad = np.zeros((n, k))
        for idx, pairs, npairs, shifted in blocks:
            mask = (shifted > 0.0).astype(np.float64)
            hinge_grad = np.full(shifted.shape, (g * (1.0 / npairs))[0, 0])
            grad[idx] += (hinge_grad * mask * -1.0) @ pairs
        return grad

    return total * (1.0 / n), vjp


def guidance_loss(
    features: np.ndarray,
    labels,
    model: GuidanceModel,
    lambda_rank: float,
    margin: float,
    tape: GradTape | None = None,
) -> Tensor2:
    """Cross-entropy of the scaled similarities plus the lambda-weighted
    ranking hinge over one batch.

    After the encoder, the head is one record: prompt normalisation, the
    similarity d, the clamped scale exp(log_scale), the cross-entropy of
    d times the scale, the ranking hinge on d and the weighted sum. Its
    forward and vjps run the floats and layouts of the per-op form (tests/
    holds it), so the loss and every gradient keep their bits.
    """
    if np.asarray(features).shape[0] == 0:
        raise DataError("empty batch")
    f = model.encode_batch(features, tape)
    fd = f.data
    pt, p_vjp, es, sv = model.head()
    d = fd @ pt
    n, k = d.shape
    y = np.asarray(labels, dtype=np.intp)
    if y.size and (y.min() < 0 or y.max() >= k):
        raise DataError(f"label outside [0,{k})")
    if y.shape != (n,):
        raise DimensionError(f"guidance_loss: {n} rows vs {y.shape} labels")
    ce, ce_vjp = nk.cross_entropy_fwd(d * sv, y)
    if lambda_rank > 0:
        rank, rank_vjp = _ranking_fwd(d, y, margin)
        ce = ce + rank * lambda_rank
    res = Tensor2(np.array([[ce]]))
    if tape is None:
        return res
    memo = [None, None, None]

    def adjoints(g):  # those of d times the scale and of d, made once
        if memo[0] is not g:
            g_sd = ce_vjp(g)
            g_d = g_sd * sv
            if lambda_rank > 0:
                g_d = rank_vjp(g * lambda_rank) + g_d
            memo[:] = g, g_sd, g_d
        return memo

    tape.record(res, (f, model.prompts, model.log_scale), (
        lambda g: adjoints(g)[2] @ pt.T,
        lambda g: p_vjp((fd.T @ adjoints(g)[2]).T),
        lambda g: (np.array([[np.sum(adjoints(g)[1] * d)]])
                   * (es < SCALE_MAX).astype(np.float64) * es),
    ))
    return res


# ---------------------------------------------------------------------------
# checkpoint I/O


def save_guidance(path: str | Path, model: GuidanceModel) -> None:
    meta = {
        "frozen": model.frozen_base,
        "d_in": model.d_in,
        "hidden": model.w1.rows,
        "d_model": model.w2.rows,
        "k": model.k,
        "rank": model.lora_a.rows,
        "alpha": model.alpha,
        "log_scale": model.log_scale.item(),
    }
    tensors = {name: getattr(model, name).data for name in _tensor_shapes(meta)}
    save_checkpoint(path, GUIDANCE_FORMAT, meta, tensors)


def _tensor_shapes(doc: dict) -> dict[str, list[int]]:
    """Range checks on a checkpoint's meta values, then each tensor's shape
    from the recorded dimensions, keyed by its GuidanceModel argument name;
    save writes the tensors in this order."""
    d_in, hidden, d_model, k, rank, alpha, log_scale = (
        doc[key]
        for key in ("d_in", "hidden", "d_model", "k", "rank", "alpha", "log_scale")
    )
    if k < 2:
        raise ParseError(f"k {k} is below 2 grades")
    if not 1 <= rank <= min(hidden, d_model):
        raise ParseError(f"rank {rank} outside [1, min(hidden, d_model)]")
    if not 0 < alpha < math.inf:
        raise ParseError(f"alpha {alpha} is not a positive finite number")
    if not -math.inf < log_scale < LOG_FLOAT_MAX:
        raise ParseError(f"log_scale {log_scale} out of range")
    return {
        "w1": [hidden, d_in],
        "b1": [1, hidden],
        "w2": [d_model, hidden],
        "b2": [1, d_model],
        "lora_a": [rank, hidden],
        "lora_b": [d_model, rank],
        "prompts": [k, d_model],
    }


def load_guidance(path: str | Path) -> GuidanceModel:
    doc, w = load_checkpoint(
        path,
        GUIDANCE_FORMAT,
        {"frozen": bool, "d_in": int, "hidden": int, "d_model": int, "k": int,
         "rank": int, "alpha": NUMBER, "log_scale": NUMBER},
        _tensor_shapes,
    )
    return GuidanceModel(
        **{name: Tensor2(a) for name, a in w.items()}, alpha=doc["alpha"],
        log_scale=Tensor2(np.array([[doc["log_scale"]]])), frozen_base=doc["frozen"],
    )
