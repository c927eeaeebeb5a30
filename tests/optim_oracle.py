"""Per-tensor optimizers: the reference the flat ones in ``cgsd.optim`` must
match bit for bit.

Each runs the same elementwise operations as its flat counterpart, one
tensor at a time on lists of ``Tensor2`` parameters and gradient arrays,
rebinding ``p.data`` to a new array on every update. Test modules import
them by name (``import optim_oracle``), as they do ``gradcheck``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from cgsd.numkit import Tensor2


@dataclass
class AdamState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    def _ensure(self, params: list[Tensor2]) -> None:
        if not self.m:
            self.m = [np.zeros_like(p.data) for p in params]
            self.v = [np.zeros_like(p.data) for p in params]


@dataclass
class EmaState:
    mu: float
    shadow: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def from_params(cls, params: list[Tensor2], mu: float) -> "EmaState":
        return cls(mu=mu, shadow=[p.data.copy() for p in params])


def adam_step(
    params: list[Tensor2], grads: list[np.ndarray], state: AdamState, lr: float
) -> None:
    state._ensure(params)
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v in zip(params, grads, state.m, state.v, strict=True):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + state.eps)


def radam_step(
    params: list[Tensor2], grads: list[np.ndarray], state: AdamState, lr: float
) -> None:
    state._ensure(params)
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    rho_inf = 2.0 / (1.0 - b2) - 1.0
    b2t = b2**t
    rho_t = rho_inf - 2.0 * t * b2t / (1.0 - b2t)
    for p, g, m, v in zip(params, grads, state.m, state.v, strict=True):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        if rho_t > 4.0:
            v_hat = v / (1 - b2t)
            r_t = math.sqrt(
                ((rho_t - 4.0) * (rho_t - 2.0) * rho_inf)
                / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t)
            )
            p.data = p.data - lr * r_t * m_hat / (np.sqrt(v_hat) + state.eps)
        else:
            p.data = p.data - lr * m_hat


def ema_update(ema: EmaState, params: list[Tensor2]) -> None:
    for s, p in zip(ema.shadow, params, strict=True):
        s *= ema.mu
        s += (1.0 - ema.mu) * p.data


def clip_grad_norm(
    grads: list[np.ndarray], max_norm: float
) -> tuple[list[np.ndarray], float]:
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total > max_norm:
        factor = max_norm / total
        grads = [g * factor for g in grads]
    return grads, total
