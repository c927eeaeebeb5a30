"""The taped forms of the ops that the library runs on arrays: each takes
and returns a Tensor2 and records its vjp on a GradTape when one is given.
The per-op chains and the gradient checks in tests/ are written with them.

Test modules import it by name (``import taped_ops``): ``tests/`` has no
``__init__.py``, so pytest puts it on ``sys.path``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from cgsd import guidance as gd
from cgsd import numkit as nk
from cgsd.errors import ContractError, DimensionError
from cgsd.numkit import GradTape, Tensor2


def smooth_nonlinearity(a: Tensor2, tape: GradTape | None = None) -> Tensor2:
    """g(x) = x * sigmoid(1.702 x), with its derivative made in the forward,
    as the op was first written."""
    sig = nk.sigmoid_gate(a.data, np.empty_like(a.data))
    out = Tensor2(a.data * sig)
    if tape is not None:
        deriv = sig + a.data * 1.702 * sig * (1.0 - sig)
        tape.record(out, (a,), (lambda g: g * deriv,))
    return out


def softmax_rows(a: Tensor2, tape: GradTape | None = None) -> Tensor2:
    """nk.softmax_rows, with the softmax's vjp."""
    s = nk.softmax_rows(a.data)
    out = Tensor2(s)
    if tape is not None:

        def vjp(g):
            dot = np.sum(g * s, axis=1, keepdims=True)
            return s * (g - dot)

        tape.record(out, (a,), (vjp,))
    return out


def cross_entropy_mean(
    logits: Tensor2, labels: Sequence[int], tape: GradTape | None = None
) -> Tensor2:
    """nk.cross_entropy_mean on a tensor of logits, as a 1x1 tensor; a label
    count other than the row count, or a label outside the logit width, is
    refused."""
    y = np.asarray(labels, dtype=np.intp)
    if y.shape != (logits.rows,):
        raise DimensionError(
            f"cross_entropy_mean: {logits.rows} rows vs {y.shape} labels"
        )
    if y.size and (y.min() < 0 or y.max() >= logits.cols):
        raise ContractError("label out of range for logit width")
    loss, vjp = nk.cross_entropy_mean(logits.data, y)
    out = Tensor2(np.array([[loss]]))
    if tape is not None:
        tape.record(out, (logits,), (vjp,))
    return out


def ranking_loss(
    d_batch: Tensor2, labels, margin: float, tape: GradTape | None = None
) -> Tensor2:
    """gd.ranking_loss on a tensor of similarities, as a 1x1 tensor."""
    value, vjp = gd.ranking_loss(d_batch.data, np.asarray(labels, dtype=np.int64), margin)
    out = Tensor2(value)
    if tape is not None:
        tape.record(out, (d_batch,), (vjp,))
    return out
