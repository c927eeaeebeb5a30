"""The guidance loss as the chain of tape records it was first written with:
the oracle that ``GuidanceModel.project`` and ``guidance_loss``'s head, one
record each, must match bit for bit, in value and in every gradient.

Test modules import it by name (``from guidance_oracle import ...``):
``tests/`` has no ``__init__.py``, so pytest puts it on ``sys.path``.
"""

from __future__ import annotations

import numpy as np

from cgsd import guidance as gd
from cgsd import numkit as nk
from cgsd.errors import DataError
from cgsd.numkit import GradTape, Tensor2
import taped_ops as tops


def encode_per_op(model: gd.GuidanceModel, x, tape: GradTape | None = None) -> Tensor2:
    """encode_batch with the adapted projection as its ops: the base product,
    the two low-rank products, the scale and the two adds."""
    h = nk.dense(Tensor2(np.atleast_2d(x)), model.w1, model.b1, True, tape)
    base = nk.dense(h, model.w2, None, False, tape)
    low = nk.dense(h, model.lora_a, None, False, tape)
    inc = nk.dense(low, model.lora_b, None, False, tape)
    inc = nk.scale(inc, model.alpha / model.lora_a.rows, tape)
    z = nk.add(nk.add(base, inc, tape), model.b2, tape)
    return nk.l2_normalize_rows(z, tape=tape)


def similarity_per_op(model: gd.GuidanceModel, f: Tensor2,
                      tape: GradTape | None = None) -> Tensor2:
    """The similarity d as its ops: the prompt rows normalized, then f times
    their transpose."""
    return nk.dense(f, nk.l2_normalize_rows(model.prompts, tape=tape), None, False, tape)


def scale_tensor(model: gd.GuidanceModel, tape: GradTape | None) -> Tensor2:
    """The logit scale exp(log_scale), clamped at SCALE_MAX, as a 1x1 tensor."""
    return nk.clamp_max(nk.exp(model.log_scale, tape), gd.SCALE_MAX, tape)


def contrastive_loss(d_batch: Tensor2, labels, scale: Tensor2,
                     tape: GradTape | None = None) -> Tensor2:
    """Mean cross-entropy of similarities times the 1x1 scale against the
    true grade."""
    y = np.asarray(labels, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= d_batch.cols):
        raise DataError(f"label outside [0,{d_batch.cols})")
    return tops.cross_entropy_mean(nk.scale_by(d_batch, scale, tape), y, tape)


def guidance_loss_per_op(features, labels, model: gd.GuidanceModel, lambda_rank: float,
                         margin: float, tape: GradTape | None = None) -> Tensor2:
    """guidance_loss as the per-op chain: the encoder, the similarity, the
    scale, the contrastive term, the ranking term and the weighted sum."""
    f = encode_per_op(model, features, tape)
    d = similarity_per_op(model, f, tape)
    loss = contrastive_loss(d, labels, scale_tensor(model, tape), tape)
    if lambda_rank > 0:
        rank_term = nk.scale(tops.ranking_loss(d, labels, margin, tape), lambda_rank, tape)
        loss = nk.add(loss, rank_term, tape)
    return loss
