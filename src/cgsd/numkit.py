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

A fold runs the floats of several ops, in their order and memory layouts, as
one record, so it keeps their bits with less bookkeeping per step: ``dense``
here, and the guidance projection and head and the stage-2 loss; the array
forms ``l2_normalize_fwd`` and ``cross_entropy_fwd`` give such a fold an op's
value and vjp. tests/ holds each per-op chain a fold replaced.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

Array = np.ndarray
_F8 = np.dtype(np.float64)


class Tensor2:
    """A rows x cols float64 matrix. It wraps a float64 array without a copy,
    so it aliases it: a checkpoint's tensors (np.frombuffer) are read-only."""

    __slots__ = ("data",)

    def __init__(self, data):
        # an op's result, a 2-D float64 ndarray, is taken as it is
        if type(data) is np.ndarray and data.dtype is _F8 and data.ndim == 2:
            self.data = data
            return
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
    if not np.isfinite(arr).all():
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
    records = tape._records
    # the tape holds every input and params every requested tensor, so no id
    # below is reused during the sweep
    reached = {id(p) for p in params}
    on_tape = False
    for res, inputs, _ in records:
        on_tape = on_tape or res is loss
        for inp in inputs:
            if id(inp) in reached:
                reached.add(id(res))
                break
    if not on_tape:
        raise ContractError("loss tensor was not produced on this tape")

    # only a reached value gets an adjoint, so the records no requested
    # tensor reaches are passed over here
    adjoint: dict[int, Array] = {id(loss): _ONE}
    for res, inputs, vjps in reversed(records):
        g = adjoint.get(id(res))
        if g is None:
            continue
        for inp, vjp in zip(inputs, vjps, strict=True):
            key = id(inp)
            if key in reached:
                prev = adjoint.get(key)
                adjoint[key] = vjp(g) if prev is None else prev + vjp(g)
    if out is None:
        out = [np.empty(p.shape) for p in params]
    for p, dst in zip(params, out, strict=True):
        g = adjoint.get(id(p))
        if g is None:
            dst.fill(0.0)
        else:
            np.copyto(dst, g)
    return list(out)


# the loss's own adjoint; no vjp writes into its argument
_ONE = np.ones((1, 1))
_ONE.flags.writeable = False


# ---------------------------------------------------------------------------
# operations


def dense(
    x: Tensor2, w: Tensor2, b: Tensor2 | None, gate: bool,
    tape: GradTape | None = None, out: tuple[Array, Array, Array] | None = None,
) -> Tensor2:
    """x @ w.T (+ b if any), gated by smooth_nonlinearity if gate: one record
    running the floats and layouts of transpose, matmul, add and gate, so
    values and gradients keep their bits (a matmul against the w.T view, not
    a C-order copy, rounds differently for a narrow output). The gate's
    derivative is made when backward first needs it, so a frozen layer whose
    input needs no adjoint never makes it. Without a tape, out may hold w.T
    in C order and two rows x w.rows arrays to write into."""
    xd, wd = x.data, w.data
    if xd.shape[1] != wd.shape[1] or (b is not None and b.data.shape != (1, wd.shape[0])):
        raise DimensionError(f"dense shape mismatch: {x.shape} @ {w.shape}.T")
    if tape is None and out is not None:
        wt, z, sig = out
        np.matmul(xd, wt, out=z)
    else:
        wt, sig = wd.T.copy(), None
        z = xd @ wt
    if b is not None:
        np.add(z, b.data, out=z)
    if tape is None:
        if gate:
            np.multiply(z, sigmoid_gate(z, np.empty_like(z) if sig is None else sig), out=z)
        return Tensor2(z)
    adj = lambda g: g
    if gate:
        sig = sigmoid_gate(z, np.empty_like(z))
        pre, z, memo = z, z * sig, [None, None]

        def adj(g):  # the gated adjoint, made once for all the vjps
            if memo[0] is not g:
                # g * (sig + pre * 1.702 * sig * (1.0 - sig)) in two arrays
                a = pre * 1.702
                a *= sig
                a *= 1.0 - sig
                a += sig
                a *= g
                memo[:] = g, a
            return memo[1]
    res = Tensor2(z)
    vjps = (lambda g: adj(g) @ wt.T, lambda g: (xd.T @ adj(g)).T)
    if b is None:
        tape.record(res, (x, w), vjps)
    else:
        # one row adds b without broadcasting, so its adjoint is not summed
        tape.record(res, (x, w, b), vjps + (
            adj if xd.shape[0] == 1 else lambda g: adj(g).sum(axis=0, keepdims=True),))
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
    out, vjp = l2_normalize_fwd(a.data)
    res = Tensor2(out)
    if tape is not None:
        tape.record(res, (a,), (vjp,))
    return res


def l2_normalize_fwd(a: Array) -> tuple[Array, Vjp]:
    """l2_normalize_rows on an array: the rows and their vjp. The norms are
    np.linalg.norm's own sqrt(add.reduce(a * a, axis=1)), without its
    wrapper."""
    norms = check_finite(
        np.sqrt(np.add.reduce(a * a, axis=1, keepdims=True)), "l2_normalize_rows row norms"
    )
    if (norms < NORM_EPS).any():
        raise NumericError(f"l2_normalize_rows: row norm below {NORM_EPS:g}")
    denom = norms + NORM_EPS

    def vjp(g):
        dot = np.add.reduce(g * a, axis=1, keepdims=True)
        return g / denom - a * dot / (norms * denom * denom)

    return a / denom, vjp


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
    # ndarray.mean's own sum and division
    out = Tensor2(np.array([[np.add.reduce(a.data, axis=None) / n]]))
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
    loss, vjp = cross_entropy_fwd(logits.data, y)
    out = Tensor2(np.array([[loss]]))
    if tape is not None:
        tape.record(out, (logits,), (vjp,))
    return out


def cross_entropy_fwd(z: Array, y: Array) -> tuple[float, Vjp]:
    """cross_entropy_mean on logits z and in-range intp labels y: the loss
    and its vjp, which makes the softmax when backward first needs it."""
    m = np.maximum.reduce(z, axis=1, keepdims=True)
    lse = m + np.log(np.add.reduce(np.exp(z - m), axis=1, keepdims=True))
    logp = z - lse
    n = z.shape[0]
    rows = np.arange(n)
    # ndarray.mean's own sum and division
    loss = -(np.add.reduce(logp[rows, y]) / n)

    def vjp(g):
        grad = np.exp(logp)
        grad[rows, y] -= 1.0
        grad *= g[0, 0] / n
        return grad

    return loss, vjp
