"""Dense 2-D tensors with tape-based reverse-mode differentiation.

Everything downstream (guidance model, denoiser, losses) is built from the
operations in this module. Tensors hold float64 data and no gradient state;
an operation records one vector-Jacobian product per input on a GradTape when
one is supplied, and ``backward`` replays the tape once in reverse,
accumulating adjoints additively for values consumed by several operations,
and returns the gradients of the tensors it is asked for. It calls only the
products whose input a requested tensor flows into, so a frozen weight or a
data batch costs no backward work.

A record reads its inputs' arrays when ``backward`` runs, so a parameter
that is updated in place (the optimizers do) is updated after the sweep.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

Array = np.ndarray


class Tensor2:
    """A rows x cols float64 matrix. It wraps a float64 array without a copy,
    so it aliases it: a checkpoint's tensors (np.frombuffer) are read-only."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise DimensionError(f"Tensor2 requires 2-D data, got ndim={arr.ndim}")
        self.data = arr

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

    def __repr__(self) -> str:
        return f"Tensor2({self.rows}x{self.cols})"


Vjp = Callable[[Array], Array]


class GradTape:
    """Ordered record of executed operations for one reverse sweep.

    Each record holds one vjp per input: vjps[i](g) is the adjoint that the
    output adjoint g sends to inputs[i].

    A tape and the tensors it references form a single-owner unit; do not
    share across threads. Multiple independent tapes may run in parallel.
    """

    def __init__(self):
        self._records: list[tuple[Tensor2, tuple[Tensor2, ...], tuple[Vjp, ...]]] = []

    def record(self, out: Tensor2, inputs: Sequence[Tensor2], vjps: Sequence[Vjp]) -> None:
        self._records.append((out, tuple(inputs), tuple(vjps)))

    def __len__(self) -> int:
        return len(self._records)


def check_finite(arr: Array, what: str) -> Array:
    """arr, or a NumericError naming what if it holds a nan or an inf; called
    where a value leaves a computation, not by the ops, through which a nan
    or inf stays one (l2_normalize_rows, which would not, checks its norms)."""
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite value in {what}")
    return arr


# rows per block of a pass over a split (full-split encodes, reverse chains):
# the desk eval (5,495 chain rows, 2-core box) peaked at 55 MB RSS with 512-row
# blocks, 59 MB with 1,024 and 121 MB with one, and larger ran no faster
ROW_BLOCK = 512


def row_blocks(n: int) -> list[slice]:
    """ROW_BLOCK-row slices over n rows, a one-row rest joined to the block
    before it: numpy multiplies a lone row on its matrix-vector path, which
    can round otherwise (tests/ checks blocked encodes against one product)."""
    starts = list(range(0, n, ROW_BLOCK))
    if n > ROW_BLOCK and n % ROW_BLOCK == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def backward(
    loss: Tensor2,
    tape: GradTape,
    params: Sequence[Tensor2],
    out: Sequence[Array] | None = None,
) -> list[Array]:
    """d(loss)/d(p) for each p in params, copied into out[i] (one array of
    p's shape per param, such as the views of a flat gradient buffer) or
    into a fresh C-order array when out is None; zeros for a tensor the loss
    does not reach. Returns the arrays written.

    A vjp runs only for an input that some tensor of params flows into, and
    a record no such tensor reaches is skipped; the adjoints that are
    computed are summed in the same order as in a full sweep, so they keep
    their bits.

    The copies matter: an adjoint may be a transposed view (the vjp of
    ``transpose``), and a sum over a view in another memory order rounds
    differently.
    """
    if loss.shape != (1, 1):
        raise ContractError(f"backward needs a scalar 1x1 loss, got {loss.shape}")
    # the tape holds every input and params every requested tensor, so no id
    # below is reused during the sweep
    reached = {id(p) for p in params}
    on_tape = False
    for res, inputs, _ in tape._records:
        on_tape = on_tape or res is loss
        for inp in inputs:
            if id(inp) in reached:
                reached.add(id(res))
                break
    if not on_tape:
        raise ContractError("loss tensor was not produced on this tape")

    # only a reached value gets an adjoint, so the records no requested
    # tensor reaches are passed over here
    adjoint: dict[int, Array] = {id(loss): np.ones((1, 1))}
    for res, inputs, vjps in reversed(tape._records):
        g = adjoint.get(id(res))
        if g is None:
            continue
        for inp, vjp in zip(inputs, vjps, strict=True):
            key = id(inp)
            if key not in reached:
                continue
            gin = vjp(g)
            if key in adjoint:
                adjoint[key] = adjoint[key] + gin
            else:
                adjoint[key] = gin
    if out is None:
        out = [np.empty(p.shape) for p in params]
    for p, dst in zip(params, out, strict=True):
        g = adjoint.get(id(p))
        if g is None:
            dst.fill(0.0)
        else:
            np.copyto(dst, g)
    return list(out)


# ---------------------------------------------------------------------------
# operations


def dense(
    x: Tensor2, w: Tensor2, b: Tensor2 | None, gate: bool,
    tape: GradTape | None = None, out: tuple[Array, Array, Array] | None = None,
) -> Tensor2:
    """x @ w.T (+ b if any), gated by smooth_nonlinearity if gate: one record
    running the floats and layouts of transpose, matmul, add and gate, so
    values and gradients keep their bits (a matmul against the w.T view, not
    a C-order copy, rounds differently for a narrow output). Without a tape,
    out may hold w.T in C order and two rows x w.rows arrays to write into."""
    if x.cols != w.cols or (b is not None and b.shape != (1, w.rows)):
        raise DimensionError(f"dense shape mismatch: {x.shape} @ {w.shape}.T")
    wt, z, sig = (w.data.T.copy(), None, None) if out is None or tape is not None else out
    z = np.matmul(x.data, wt, out=z)
    if b is not None:
        np.add(z, b.data, out=z)
    adj = lambda g: g
    if gate:
        sig = sigmoid_gate(z, np.empty_like(z) if sig is None else sig)
        if tape is not None:
            deriv, memo = sig + z * 1.702 * sig * (1.0 - sig), [None, None]
            def adj(g):  # the gated adjoint, made once for all the vjps
                if memo[0] is not g:
                    memo[:] = g, g * deriv
                return memo[1]
        np.multiply(z, sig, out=z)
    res = Tensor2(z)
    if tape is not None:
        xd, vjps = x.data, [lambda g: adj(g) @ wt.T, lambda g: (xd.T @ adj(g)).T]
        if b is not None:
            # one row adds b without broadcasting, so its adjoint is not summed
            vjps.append(adj if x.rows == 1 else lambda g: adj(g).sum(axis=0, keepdims=True))
        tape.record(res, (x, w, b)[: len(vjps)], vjps)
    return res


def matmul(a: Tensor2, b: Tensor2, tape: GradTape | None = None) -> Tensor2:
    if a.cols != b.rows:
        raise DimensionError(
            f"matmul shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}"
        )
    out = Tensor2(a.data @ b.data)
    if tape is not None:
        ad, bd = a.data, b.data
        tape.record(out, (a, b), (lambda g: g @ bd.T, lambda g: ad.T @ g))
    return out


def transpose(a: Tensor2, tape: GradTape | None = None) -> Tensor2:
    out = Tensor2(a.data.T.copy())
    if tape is not None:
        tape.record(out, (a,), (lambda g: g.T,))
    return out


def add(a: Tensor2, b: Tensor2, tape: GradTape | None = None) -> Tensor2:
    """Elementwise sum; b may be a 1 x cols row vector broadcast over rows."""
    if a.shape == b.shape:
        reduce_b = False
    elif b.rows == 1 and b.cols == a.cols:
        reduce_b = True
    else:
        raise DimensionError(f"add shape mismatch: {a.shape} + {b.shape}")
    out = Tensor2(a.data + b.data)
    if tape is not None:
        vjp_b = (lambda g: g.sum(axis=0, keepdims=True)) if reduce_b else (lambda g: g)
        tape.record(out, (a, b), (lambda g: g, vjp_b))
    return out


def sub(a: Tensor2, b: Tensor2, tape: GradTape | None = None) -> Tensor2:
    if a.shape != b.shape:
        raise DimensionError(f"sub shape mismatch: {a.shape} - {b.shape}")
    out = Tensor2(a.data - b.data)
    if tape is not None:
        tape.record(out, (a, b), (lambda g: g, lambda g: -g))
    return out


def mul(a: Tensor2, b: Tensor2, tape: GradTape | None = None) -> Tensor2:
    if a.shape != b.shape:
        raise DimensionError(f"mul shape mismatch: {a.shape} * {b.shape}")
    out = Tensor2(a.data * b.data)
    if tape is not None:
        ad, bd = a.data, b.data
        tape.record(out, (a, b), (lambda g: g * bd, lambda g: g * ad))
    return out


def scale(a: Tensor2, c: float, tape: GradTape | None = None) -> Tensor2:
    out = Tensor2(a.data * c)
    if tape is not None:
        tape.record(out, (a,), (lambda g: g * c,))
    return out


def add_scalar(a: Tensor2, c: float, tape: GradTape | None = None) -> Tensor2:
    out = Tensor2(a.data + c)
    if tape is not None:
        tape.record(out, (a,), (lambda g: g,))
    return out


def scale_by(a: Tensor2, s: Tensor2, tape: GradTape | None = None) -> Tensor2:
    """Multiply a matrix by a 1x1 scalar tensor (both differentiable)."""
    if s.shape != (1, 1):
        raise DimensionError(f"scale_by needs a 1x1 scalar, got {s.shape}")
    out = Tensor2(a.data * s.data[0, 0])
    if tape is not None:
        ad, sv = a.data, s.data[0, 0]
        tape.record(
            out, (a, s), (lambda g: g * sv, lambda g: np.array([[np.sum(g * ad)]]))
        )
    return out


def exp(a: Tensor2, tape: GradTape | None = None) -> Tensor2:
    out = Tensor2(np.exp(a.data))
    if tape is not None:
        od = out.data
        tape.record(out, (a,), (lambda g: g * od,))
    return out


def clamp_max(a: Tensor2, hi: float, tape: GradTape | None = None) -> Tensor2:
    out = Tensor2(np.minimum(a.data, hi))
    if tape is not None:
        mask = (a.data < hi).astype(np.float64)
        tape.record(out, (a,), (lambda g: g * mask,))
    return out


def relu(a: Tensor2, tape: GradTape | None = None) -> Tensor2:
    out = Tensor2(np.maximum(a.data, 0.0))
    if tape is not None:
        mask = (a.data > 0.0).astype(np.float64)
        tape.record(out, (a,), (lambda g: g * mask,))
    return out


def sigmoid_gate(a: Array, out: Array) -> Array:
    """sigmoid(1.702 a), the gate of smooth_nonlinearity, written into out
    (which may be a itself) and returned."""
    # round-to-nearest is sign-symmetric: -1.702 a has the bits of -(1.702 a)
    np.multiply(a, -1.702, out=out)
    # exp overflows to inf for 1.702 a below about -709, which gives the
    # right limit 0
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    return np.divide(1.0, out, out=out)


def smooth_nonlinearity(a: Tensor2, tape: GradTape | None = None) -> Tensor2:
    """g(x) = x * sigmoid(1.702 x), a smooth gating nonlinearity."""
    sig = sigmoid_gate(a.data, np.empty_like(a.data))
    out = Tensor2(a.data * sig)
    if tape is not None:
        deriv = sig + a.data * 1.702 * sig * (1.0 - sig)
        tape.record(out, (a,), (lambda g: g * deriv,))
    return out


def softmax_rows(a: Tensor2, tape: GradTape | None = None) -> Tensor2:
    """Row-wise softmax with per-row max subtraction for stability."""
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    out = Tensor2(s)
    if tape is not None:

        def vjp(g):
            dot = np.sum(g * s, axis=1, keepdims=True)
            return s * (g - dot)

        tape.record(out, (a,), (vjp,))
    return out


NORM_EPS = 1e-12


def l2_normalize_rows(a: Tensor2, tape: GradTape | None = None) -> Tensor2:
    """Scale each row to unit Euclidean norm, computed as row/(||row|| + NORM_EPS).

    A row norm below NORM_EPS (a row that has no direction) or a non-finite
    one (which would divide the row to zeros) raises NumericError.
    """
    norms = check_finite(
        np.linalg.norm(a.data, axis=1, keepdims=True), "l2_normalize_rows row norms"
    )
    if np.any(norms < NORM_EPS):
        raise NumericError(f"l2_normalize_rows: row norm below {NORM_EPS:g}")
    denom = norms + NORM_EPS
    out = Tensor2(a.data / denom)
    if tape is not None:
        ad = a.data

        def vjp(g):
            dot = np.sum(g * ad, axis=1, keepdims=True)
            return g / denom - ad * dot / (norms * denom * denom)

        tape.record(out, (a,), (vjp,))
    return out


def concat_cols(parts: Sequence[Tensor2], tape: GradTape | None = None) -> Tensor2:
    rows = parts[0].rows
    for p in parts:
        if p.rows != rows:
            raise DimensionError("concat_cols requires equal row counts")
    out = Tensor2(np.concatenate([p.data for p in parts], axis=1))
    if tape is not None:
        ends = np.cumsum([p.cols for p in parts])
        vjps = [lambda g, lo=end - p.cols, hi=end: g[:, lo:hi] for p, end in zip(parts, ends)]
        tape.record(out, tuple(parts), vjps)
    return out


def take_rows(a: Tensor2, idx: Sequence[int], tape: GradTape | None = None) -> Tensor2:
    index = np.asarray(idx, dtype=np.intp)
    out = Tensor2(a.data[index])
    if tape is not None:
        shape = a.data.shape

        def vjp(g):
            ga = np.zeros(shape)
            np.add.at(ga, index, g)
            return ga

        tape.record(out, (a,), (vjp,))
    return out


def sum_all(a: Tensor2, tape: GradTape | None = None) -> Tensor2:
    out = Tensor2(np.array([[a.data.sum()]]))
    if tape is not None:
        shape = a.data.shape
        tape.record(out, (a,), (lambda g: np.full(shape, g[0, 0]),))
    return out


def mean_all(a: Tensor2, tape: GradTape | None = None) -> Tensor2:
    n = a.data.size
    out = Tensor2(np.array([[a.data.mean()]]))
    if tape is not None:
        shape = a.data.shape
        tape.record(out, (a,), (lambda g: np.full(shape, g[0, 0] / n),))
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
    out = Tensor2(np.array([[loss]]))
    if tape is not None:
        soft = np.exp(logp)

        def vjp(g):
            grad = soft.copy()
            grad[np.arange(n), y] -= 1.0
            return grad * (g[0, 0] / n)

        tape.record(out, (logits,), (vjp,))
    return out
