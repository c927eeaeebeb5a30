"""Finite-difference oracles for the tape gradients of ``cgsd.numkit``, and
the full reverse sweep that its pruned ``backward`` must match.

Test modules import them by name (``from gradcheck import grad_check``):
``tests/`` has no ``__init__.py``, so pytest puts it on ``sys.path``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from cgsd.errors import ContractError
from cgsd.guidance import GuidanceModel
from cgsd.numkit import GradTape, Tensor2, backward


def grad_check(
    fn: Callable[[Tensor2, GradTape | None], Tensor2],
    point: Tensor2,
    h: float = 1e-6,
) -> float:
    """Compare reverse-mode and central-difference gradients of a scalar fn.

    fn(x, tape) must return a 1x1 tensor and be deterministic; returns the
    max over coordinates of |g_auto - g_fd| / max(1, |g_auto|, |g_fd|).
    """
    x = Tensor2(point.data.copy())
    return grad_check_param(lambda tape: fn(x, tape), x, h)


def grad_check_param(
    loss_fn: Callable[[GradTape | None], Tensor2],
    param: Tensor2,
    h: float = 1e-6,
) -> float:
    """grad_check for a parameter embedded in a larger model.

    loss_fn(tape) recomputes the loss from the model's current state; the
    probe temporarily overwrites param.data coordinate by coordinate.
    """
    if h <= 0:
        raise ContractError("h must be positive")
    original = param.data.copy()

    v1 = loss_fn(None).item()
    v2 = loss_fn(None).item()
    if v1 != v2:
        raise ContractError("grad_check requires a deterministic function")

    tape = GradTape()
    (g_auto,) = backward(loss_fn(tape), tape, [param])

    g_fd = np.zeros_like(original)
    for i in range(original.shape[0]):
        for j in range(original.shape[1]):
            param.data = original.copy()
            param.data[i, j] += h
            fp = loss_fn(None).item()
            param.data = original.copy()
            param.data[i, j] -= h
            fm = loss_fn(None).item()
            g_fd[i, j] = (fp - fm) / (2.0 * h)
    param.data = original

    denom = np.maximum(1.0, np.maximum(np.abs(g_auto), np.abs(g_fd)))
    return float(np.max(np.abs(g_auto - g_fd) / denom))


def trainable_params(model: GuidanceModel) -> list[Tensor2]:
    """The tensors a guidance model's current stage trains: adapter, prompts
    and log scale, plus the encoder while the base is not frozen."""
    params = model.lora_params() + model.prompt_params()
    if not model.frozen_base:
        params = model.base_params() + params
    return params


def full_backward(loss: Tensor2, tape: GradTape, params: Sequence[Tensor2]) -> list:
    """numkit.backward without pruning: every record the loss reaches runs
    the vjp of every input, needed or not, and the adjoints are summed in
    reverse record order; fresh arrays, zeros for a tensor not reached."""
    adjoint = {id(loss): np.ones((1, 1))}
    for out, inputs, vjps in reversed(tape._records):
        g = adjoint.get(id(out))
        if g is None:
            continue
        for inp, gin in zip(inputs, [vjp(g) for vjp in vjps], strict=True):
            key = id(inp)
            adjoint[key] = adjoint[key] + gin if key in adjoint else gin
    return [
        adjoint[id(p)].copy() if id(p) in adjoint else np.zeros_like(p.data)
        for p in params
    ]
