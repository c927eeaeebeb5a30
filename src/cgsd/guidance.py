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
from .errors import ContractError, DataError, ParseError
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
        frozen_base: bool = False,
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
        return cls(w1, b1, w2, b2, lora_a, lora_b, alpha, prompts, log_scale, frozen_base)

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

    def scale_value(self) -> float:
        return min(math.exp(self.log_scale.item()), SCALE_MAX)

    def scale_tensor(self, tape: GradTape | None) -> Tensor2:
        return nk.clamp_max(nk.exp(self.log_scale, tape), SCALE_MAX, tape)

    def encode_batch(self, x: np.ndarray | Tensor2, tape: GradTape | None = None) -> Tensor2:
        """Unit-norm embeddings for a batch of raw feature rows."""
        xt = x if isinstance(x, Tensor2) else Tensor2(np.atleast_2d(x))
        h = nk.dense(xt, self.w1, self.b1, True, tape)
        base = nk.dense(h, self.w2, None, False, tape)
        low = nk.dense(h, self.lora_a, None, False, tape)
        inc = nk.dense(low, self.lora_b, None, False, tape)
        inc = nk.scale(inc, self.alpha / self.lora_a.rows, tape)
        z = nk.add(nk.add(base, inc, tape), self.b2, tape)
        return nk.l2_normalize_rows(z, tape=tape)

    def similarity_batch(self, f: Tensor2, tape: GradTape | None = None) -> Tensor2:
        """Cosine similarities f . normalized-prompt-rows^T, one row per item."""
        p = nk.l2_normalize_rows(self.prompts, tape=tape)
        return nk.dense(f, p, None, False, tape)


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


def contrastive_loss(
    d_batch: Tensor2, labels, scale: Tensor2, tape: GradTape | None = None
) -> Tensor2:
    """Mean cross-entropy of similarities times the 1x1 scale against the
    true grade."""
    y = np.asarray(labels, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= d_batch.cols):
        raise DataError(f"label outside [0,{d_batch.cols})")
    return nk.cross_entropy_mean(nk.scale_by(d_batch, scale, tape), y, tape)


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
    if margin < 0:
        raise ContractError("margin must be nonnegative")
    y = np.asarray(labels, dtype=np.int64)
    n, k = d_batch.shape
    blocks = []
    total = None
    for lab in np.unique(y):
        pairs, npairs = _pair_matrix(k, int(lab))
        idx = np.flatnonzero(y == lab)
        shifted = (d_batch.data[idx] @ pairs.T) * -1.0 + margin
        part = np.maximum(shifted, 0.0).sum() * (1.0 / npairs)
        total = part if total is None else total + part
        blocks.append((idx, pairs, npairs, shifted))
    out = Tensor2(total * (1.0 / n))
    if tape is not None:

        def vjp(g):
            g = g * (1.0 / n)
            grad = np.zeros((n, k))
            for idx, pairs, npairs, shifted in blocks:
                mask = (shifted > 0.0).astype(np.float64)
                hinge_grad = np.full(shifted.shape, (g * (1.0 / npairs))[0, 0])
                grad[idx] += (hinge_grad * mask * -1.0) @ pairs
            return grad

        tape.record(out, (d_batch,), (vjp,))
    return out


def guidance_loss(
    features: np.ndarray,
    labels,
    model: GuidanceModel,
    lambda_rank: float,
    margin: float,
    tape: GradTape | None = None,
) -> Tensor2:
    """Cross-entropy plus lambda-weighted ranking hinge over one batch."""
    if np.asarray(features).shape[0] == 0:
        raise DataError("empty batch")
    f = model.encode_batch(features, tape)
    d = model.similarity_batch(f, tape)
    s = model.scale_tensor(tape)
    loss = contrastive_loss(d, labels, s, tape)
    if lambda_rank > 0:
        rank_term = nk.scale(ranking_loss(d, labels, margin, tape), lambda_rank, tape)
        loss = nk.add(loss, rank_term, tape)
    return loss


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
