"""Dense 2-D tensors with tape-based reverse-mode differentiation.

Everything downstream (guidance model, denoiser, losses) is built from the
operations in this module. Tensors hold float64 data; an operation records
its vector-Jacobian product on a GradTape when one is supplied, and
``backward`` replays the tape once in reverse, accumulating adjoints
additively for values consumed by several operations.
"""

from __future__ import annotations

import warnings
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContractError,
    DegenerateNormWarning,
    DimensionError,
    NumericError,
)

Array = np.ndarray


class Tensor2:
    """A rows x cols matrix of float64 with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise DimensionError(f"Tensor2 requires 2-D data, got ndim={arr.ndim}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Array | None = None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ContractError(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def zero_grad(self) -> None:
        self.grad = None

    def copy(self, requires_grad: bool | None = None) -> "Tensor2":
        rg = self.requires_grad if requires_grad is None else requires_grad
        return Tensor2(self.data.copy(), requires_grad=rg)

    def __repr__(self) -> str:
        return f"Tensor2({self.rows}x{self.cols}, requires_grad={self.requires_grad})"


class GradTape:
    """Ordered record of executed operations for one reverse sweep.

    A tape and the tensors it references form a single-owner unit; do not
    share across threads. Multiple independent tapes may run in parallel.
    """

    def __init__(self):
        self._records: list[tuple[Tensor2, tuple[Tensor2, ...], Callable]] = []
        self._watched: list[Tensor2] = []

    def record(self, out: Tensor2, inputs: Sequence[Tensor2], vjp: Callable) -> None:
        self._records.append((out, tuple(inputs), vjp))

    def watch(self, *tensors: Tensor2) -> None:
        """Register tensors that should receive a gradient even if unused."""
        self._watched.extend(tensors)

    def __len__(self) -> int:
        return len(self._records)


def _finite(arr: Array, op: str) -> Array:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{op} produced a non-finite value")
    return arr


def _result(arr: Array, op: str) -> Tensor2:
    return Tensor2(_finite(arr, op))


def backward(loss: Tensor2, tape: GradTape) -> None:
    """Accumulate d(loss)/d(tensor) into .grad of every requires_grad tensor.

    Repeated calls without zero_grad accumulate additively.
    """
    if loss.shape != (1, 1):
        raise ContractError(f"backward needs a scalar 1x1 loss, got {loss.shape}")
    on_tape = any(out is loss for out, _, _ in tape._records)
    if not on_tape:
        raise ContractError("loss tensor was not produced on this tape")

    adjoint: dict[int, Array] = {id(loss): np.ones((1, 1))}
    holders: dict[int, Tensor2] = {id(loss): loss}
    for out, inputs, vjp in reversed(tape._records):
        g = adjoint.get(id(out))
        if g is None:
            continue
        grads = vjp(g)
        for inp, gin in zip(inputs, grads):
            if gin is None:
                continue
            key = id(inp)
            holders[key] = inp
            if key in adjoint:
                adjoint[key] = adjoint[key] + gin
            else:
                adjoint[key] = gin

    seen: set[int] = set()
    participants: list[Tensor2] = list(tape._watched)
    for out, inputs, _ in tape._records:
        participants.append(out)
        participants.extend(inputs)
    for t in participants:
        if not t.requires_grad or id(t) in seen:
            continue
        seen.add(id(t))
        g = adjoint.get(id(t))
        if g is None:
            g = np.zeros_like(t.data)
        if t.grad is None:
            t.grad = g.copy()
        else:
            t.grad = t.grad + g


# ---------------------------------------------------------------------------
# operations


def matmul(a: Tensor2, b: Tensor2, tape: GradTape | None = None) -> Tensor2:
    if a.cols != b.rows:
        raise DimensionError(
            f"matmul shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}"
        )
    out = _result(a.data @ b.data, "matmul")
    if tape is not None:
        ad, bd = a.data, b.data

        def vjp(g):
            return g @ bd.T, ad.T @ g

        tape.record(out, (a, b), vjp)
    return out


def transpose(a: Tensor2, tape: GradTape | None = None) -> Tensor2:
    out = Tensor2(a.data.T.copy())
    if tape is not None:
        tape.record(out, (a,), lambda g: (g.T,))
    return out


def add(a: Tensor2, b: Tensor2, tape: GradTape | None = None) -> Tensor2:
    """Elementwise sum; b may be a 1 x cols row vector broadcast over rows."""
    if a.shape == b.shape:
        reduce_b = False
    elif b.rows == 1 and b.cols == a.cols:
        reduce_b = True
    else:
        raise DimensionError(f"add shape mismatch: {a.shape} + {b.shape}")
    out = _result(a.data + b.data, "add")
    if tape is not None:

        def vjp(g):
            gb = g.sum(axis=0, keepdims=True) if reduce_b else g
            return g, gb

        tape.record(out, (a, b), vjp)
    return out


def sub(a: Tensor2, b: Tensor2, tape: GradTape | None = None) -> Tensor2:
    if a.shape != b.shape:
        raise DimensionError(f"sub shape mismatch: {a.shape} - {b.shape}")
    out = _result(a.data - b.data, "sub")
    if tape is not None:
        tape.record(out, (a, b), lambda g: (g, -g))
    return out


def mul(a: Tensor2, b: Tensor2, tape: GradTape | None = None) -> Tensor2:
    if a.shape != b.shape:
        raise DimensionError(f"mul shape mismatch: {a.shape} * {b.shape}")
    out = _result(a.data * b.data, "mul")
    if tape is not None:
        ad, bd = a.data, b.data
        tape.record(out, (a, b), lambda g: (g * bd, g * ad))
    return out


def scale(a: Tensor2, c: float, tape: GradTape | None = None) -> Tensor2:
    out = _result(a.data * c, "scale")
    if tape is not None:
        tape.record(out, (a,), lambda g: (g * c,))
    return out


def add_scalar(a: Tensor2, c: float, tape: GradTape | None = None) -> Tensor2:
    out = _result(a.data + c, "add_scalar")
    if tape is not None:
        tape.record(out, (a,), lambda g: (g,))
    return out


def scale_by(a: Tensor2, s: Tensor2, tape: GradTape | None = None) -> Tensor2:
    """Multiply a matrix by a 1x1 scalar tensor (both differentiable)."""
    if s.shape != (1, 1):
        raise DimensionError(f"scale_by needs a 1x1 scalar, got {s.shape}")
    out = _result(a.data * s.data[0, 0], "scale_by")
    if tape is not None:
        ad, sv = a.data, s.data[0, 0]

        def vjp(g):
            return g * sv, np.array([[np.sum(g * ad)]])

        tape.record(out, (a, s), vjp)
    return out


def exp(a: Tensor2, tape: GradTape | None = None) -> Tensor2:
    out = _result(np.exp(a.data), "exp")
    if tape is not None:
        od = out.data
        tape.record(out, (a,), lambda g: (g * od,))
    return out


def clamp_max(a: Tensor2, hi: float, tape: GradTape | None = None) -> Tensor2:
    out = Tensor2(np.minimum(a.data, hi))
    if tape is not None:
        mask = (a.data < hi).astype(np.float64)
        tape.record(out, (a,), lambda g: (g * mask,))
    return out


def relu(a: Tensor2, tape: GradTape | None = None) -> Tensor2:
    out = Tensor2(np.maximum(a.data, 0.0))
    if tape is not None:
        mask = (a.data > 0.0).astype(np.float64)
        tape.record(out, (a,), lambda g: (g * mask,))
    return out


def smooth_nonlinearity(a: Tensor2, tape: GradTape | None = None) -> Tensor2:
    """g(x) = x * sigmoid(1.702 x), a smooth gating nonlinearity."""
    u = 1.702 * a.data
    sig = 1.0 / (1.0 + np.exp(-u))
    out = _result(a.data * sig, "smooth_nonlinearity")
    if tape is not None:
        deriv = sig + a.data * 1.702 * sig * (1.0 - sig)
        tape.record(out, (a,), lambda g: (g * deriv,))
    return out


def softmax_rows(a: Tensor2, tape: GradTape | None = None) -> Tensor2:
    """Row-wise softmax with per-row max subtraction for stability."""
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    out = _result(s, "softmax_rows")
    if tape is not None:

        def vjp(g):
            dot = np.sum(g * s, axis=1, keepdims=True)
            return (s * (g - dot),)

        tape.record(out, (a,), vjp)
    return out


def l2_normalize_rows(
    a: Tensor2, eps: float = 1e-12, tape: GradTape | None = None
) -> Tensor2:
    """Scale each row to unit Euclidean norm, computed as row/(||row|| + eps).

    Rows with norm below eps are returned scaled by ~1/eps and flagged with a
    DegenerateNormWarning rather than raising.
    """
    if eps <= 0:
        raise ContractError("eps must be positive")
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    if np.any(norms < eps):
        warnings.warn(
            "l2_normalize_rows: row norm below eps; output not unit-length",
            DegenerateNormWarning,
            stacklevel=2,
        )
    denom = norms + eps
    out = _result(a.data / denom, "l2_normalize_rows")
    if tape is not None:
        ad = a.data
        safe_norms = np.maximum(norms, eps)

        def vjp(g):
            dot = np.sum(g * ad, axis=1, keepdims=True)
            return (g / denom - ad * dot / (safe_norms * denom * denom),)

        tape.record(out, (a,), vjp)
    return out


def concat_cols(parts: Sequence[Tensor2], tape: GradTape | None = None) -> Tensor2:
    rows = parts[0].rows
    for p in parts:
        if p.rows != rows:
            raise DimensionError("concat_cols requires equal row counts")
    out = Tensor2(np.concatenate([p.data for p in parts], axis=1))
    if tape is not None:
        widths = [p.cols for p in parts]
        splits = np.cumsum(widths)[:-1]
        tape.record(out, tuple(parts), lambda g: tuple(np.split(g, splits, axis=1)))
    return out


def take_rows(a: Tensor2, idx: Sequence[int], tape: GradTape | None = None) -> Tensor2:
    index = np.asarray(idx, dtype=np.intp)
    out = Tensor2(a.data[index])
    if tape is not None:
        shape = a.data.shape

        def vjp(g):
            ga = np.zeros(shape)
            np.add.at(ga, index, g)
            return (ga,)

        tape.record(out, (a,), vjp)
    return out


def sum_all(a: Tensor2, tape: GradTape | None = None) -> Tensor2:
    out = Tensor2(np.array([[a.data.sum()]]))
    if tape is not None:
        shape = a.data.shape
        tape.record(out, (a,), lambda g: (np.full(shape, g[0, 0]),))
    return out


def mean_all(a: Tensor2, tape: GradTape | None = None) -> Tensor2:
    n = a.data.size
    out = Tensor2(np.array([[a.data.mean()]]))
    if tape is not None:
        shape = a.data.shape
        tape.record(out, (a,), lambda g: (np.full(shape, g[0, 0] / n),))
    return out


def cross_entropy_mean(
    logits: Tensor2, labels: Sequence[int], tape: GradTape | None = None
) -> Tensor2:
    """Mean over rows of -log softmax(logits)[label]; stable via log-sum-exp."""
    y = np.asarray(labels, dtype=np.intp)
    if y.shape != (logits.rows,):
        raise DimensionError(
            f"cross_entropy_mean: {logits.rows} rows vs {y.shape} labels"
        )
    if y.size and (y.min() < 0 or y.max() >= logits.cols):
        raise ContractError("label out of range for logit width")
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
    logp = z - lse
    n = logits.rows
    loss = -logp[np.arange(n), y].mean()
    out = _result(np.array([[loss]]), "cross_entropy_mean")
    if tape is not None:
        soft = np.exp(logp)

        def vjp(g):
            grad = soft.copy()
            grad[np.arange(n), y] -= 1.0
            return (grad * (g[0, 0] / n),)

        tape.record(out, (logits,), vjp)
    return out


# ---------------------------------------------------------------------------
# finite-difference checking


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
    saved_rg, saved_grad = param.requires_grad, param.grad

    v1 = loss_fn(None).item()
    v2 = loss_fn(None).item()
    if v1 != v2:
        raise ContractError("grad_check requires a deterministic function")

    param.requires_grad = True
    param.grad = None
    tape = GradTape()
    tape.watch(param)
    loss = loss_fn(tape)
    backward(loss, tape)
    g_auto = param.grad.copy()
    param.requires_grad = saved_rg
    param.grad = saved_grad

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
