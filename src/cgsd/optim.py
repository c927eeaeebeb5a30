"""Optimizers, learning-rate plans, gradient clipping and weight averaging.

The optimizers work on flat float64 arrays: ``FlatParams`` lays parameters
end to end in one array, each ``Tensor2.data`` a view of its slice, with a
gradient buffer of the same layout that ``numkit.backward`` fills. Every
update runs once per step over a stage's whole flat array, in place, with the
elementwise operations of a per-tensor update in the same order, so it gives
the same bits; a rate may be a scalar or one value per parameter. All state
is held in plain dataclasses; the training loops own these objects
exclusively, and every array and rate they pass is a checked one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .numkit import Tensor2


class FlatParams:
    """Parameter groups laid end to end in one flat float64 array.

    Each parameter's data becomes a C-order view of its slice of ``data``;
    ``grads`` are views of the same slices of ``grad``, the buffer backward
    fills, and ``spans[i]`` is the slice of both that holds group i.
    """

    def __init__(self, *groups: list[Tensor2]):
        self.params = [p for group in groups for p in group]
        self.data = np.concatenate([p.data.ravel() for p in self.params])
        self.grad = np.zeros_like(self.data)
        self.grads, lo = [], 0
        for p in self.params:
            hi = lo + p.data.size
            self.grads.append(self.grad[lo:hi].reshape(p.shape))
            p.data = self.data[lo:hi].reshape(p.shape)
            lo = hi
        self.spans, lo = [], 0
        for group in groups:
            hi = lo + sum(p.data.size for p in group)
            self.spans.append(slice(lo, hi))
            lo = hi


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    # the update's temporaries, reused from step to step
    work: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)


@dataclass
class EmaState:
    mu: float
    shadow: np.ndarray
    work: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.work = np.empty_like(self.shadow)

    @classmethod
    def from_params(cls, params: np.ndarray, mu: float) -> "EmaState":
        return cls(mu=mu, shadow=params.copy())


@dataclass
class LrPlan:
    """Warmup from min_lr then cosine annealing down to it; callers pass
    checked values, with 0 < min_lr <= base_lr and warmup_epochs < total_epochs."""
    base_lr: float
    min_lr: float
    warmup_epochs: int
    total_epochs: int


def _moments(grad: np.ndarray, state: AdamState) -> np.ndarray:
    """Advance the step and both moments by grad, allocating them at the
    first step; returns the bias-corrected first moment, written into a work
    buffer."""
    if state.m is None:
        state.m, state.v = np.zeros_like(grad), np.zeros_like(grad)
        state.work = (np.empty_like(grad), np.empty_like(grad))
    state.step += 1
    m, v, (a, _) = state.m, state.v, state.work
    m *= BETA1
    m += np.multiply(1 - BETA1, grad, out=a)
    v *= BETA2
    np.multiply(1 - BETA2, grad, out=a)
    v += np.multiply(a, grad, out=a)
    return np.divide(m, 1 - BETA1**state.step, out=a)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState, lr) -> None:
    """Bias-corrected Adam update of a flat parameter array, in place; lr is
    a scalar or one rate per value."""
    m_hat = _moments(grad, state)
    denom = np.divide(state.v, 1 - BETA2**state.step, out=state.work[1])
    np.sqrt(denom, out=denom)
    denom += EPS
    m_hat *= lr
    m_hat /= denom
    param -= m_hat


def radam_step(param: np.ndarray, grad: np.ndarray, state: AdamState, lr) -> None:
    """Rectified Adam: variance-rectified adaptive step once the moving
    second moment is trustworthy, plain bias-corrected momentum before that;
    lr is a scalar or one rate per value."""
    m_hat = _moments(grad, state)
    t = state.step
    rho_inf = 2.0 / (1.0 - BETA2) - 1.0
    b2t = BETA2**t
    rho_t = rho_inf - 2.0 * t * b2t / (1.0 - b2t)
    if rho_t > 4.0:
        denom = np.divide(state.v, 1 - b2t, out=state.work[1])
        np.sqrt(denom, out=denom)
        denom += EPS
        r_t = math.sqrt(
            ((rho_t - 4.0) * (rho_t - 2.0) * rho_inf)
            / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t)
        )
        m_hat *= lr * r_t
        m_hat /= denom
    else:
        m_hat *= lr
    param -= m_hat


def lr_at(epoch: int, plan: LrPlan) -> float:
    """Linear warmup into cosine annealing, per-epoch granularity."""
    if epoch < 0 or epoch >= plan.total_epochs:
        raise ContractError(f"epoch {epoch} outside [0, {plan.total_epochs})")
    if epoch < plan.warmup_epochs:
        frac = epoch / plan.warmup_epochs
        return plan.min_lr + (plan.base_lr - plan.min_lr) * frac
    span = plan.total_epochs - 1 - plan.warmup_epochs
    progress = 0.0 if span == 0 else (epoch - plan.warmup_epochs) / span
    # min_lr + (base_lr - min_lr) can round one ulp above base_lr
    cosine = 0.5 * (plan.base_lr - plan.min_lr) * (1.0 + math.cos(math.pi * progress))
    return min(plan.base_lr, plan.min_lr + cosine)


def ema_update(ema: EmaState, params: np.ndarray) -> None:
    """shadow <- mu * shadow + (1 - mu) * params, over flat arrays in place."""
    ema.shadow *= ema.mu
    ema.shadow += np.multiply(1.0 - ema.mu, params, out=ema.work)


def clip_grad_norm(flat: FlatParams, max_norm: float) -> float:
    """Global L2-norm clipping of flat's gradient buffer, in place; returns
    the norm before clipping. The norm sums each tensor's squares over its
    C-order view and then adds them tensor by tensor, because a sum rounds by
    how its values are laid out."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in flat.grads))
    if total > max_norm:
        flat.grad *= max_norm / total
    return total
