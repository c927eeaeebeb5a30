"""Prior-mean-shifted diffusion in label space.

The forward process interpolates between the one-hot label and the guidance
prior instead of decaying to zero:

    y_t = sqrt(abar_t) y0 + (1 - sqrt(abar_t)) prior + sqrt(1 - abar_t) eps

The reverse kernel is the closed-form posterior of that process (obtained by
completing the square); its coefficient identities are enforced by tests. A
small MLP predicts the injected noise from the conditioning tuple
(f, y_t, prior, d, t) and labels are reconstructed algebraically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numkit as nk
from .data import NUMBER, load_checkpoint, save_checkpoint
from .errors import ContractError, DataError, ParseError
from .numkit import ROW_BLOCK, GradTape, Tensor2

# v3 is the zip checkpoint of data.save_checkpoint; v2 was its JSON
# predecessor, and a v1 file's "weights" were the raw training weights
DENOISER_FORMAT = "cgsd-denoiser-v3"
TEMB_DIM = 64
HIDDEN = (128, 128)
CONDITIONING_LAYOUT = "f|y_t|y_hat0|d|temb64"


@dataclass
class NoiseSchedule:
    t_total: int
    beta: np.ndarray  # beta[t-1] is the step-t value, t = 1..T
    alpha_bar: np.ndarray  # indexed 0..T, alpha_bar[0] == 1
    temb: np.ndarray  # (T + 1) x TEMB_DIM, row t is timestep_embedding(t)

    def check_t(self, t: int) -> None:
        if not (1 <= t <= self.t_total):
            raise IndexError(f"timestep {t} outside [1, {self.t_total}]")


def make_schedule(t_total: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Linear betas over t_total steps; callers pass RunConfig's or a denoiser
    checkpoint's checked values (t_total >= 1, 0 < beta_start <= beta_end < 1)."""
    # numpy refuses an array of more bytes than it can index before allocating
    if t_total > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"a schedule of {t_total} steps cannot be indexed")
    beta = beta_start + np.arange(t_total) * (beta_end - beta_start) / max(t_total - 1, 1)
    alpha_bar = np.empty(t_total + 1)
    alpha_bar[0] = 1.0
    alpha_bar[1:] = np.cumprod(1.0 - beta)
    temb = timestep_embedding(np.arange(t_total + 1))
    return NoiseSchedule(t_total, beta, alpha_bar, temb)


def forward_sample(
    y0: np.ndarray,
    y_hat0: np.ndarray,
    t: int | np.ndarray,
    eps: np.ndarray,
    sched: NoiseSchedule,
) -> np.ndarray:
    """Draw y_t given the label, the prior mean and a fixed noise vector; t is
    one timestep, or one per row of a batch."""
    t = np.asarray(t)
    if np.any(t < 0) or np.any(t > sched.t_total):
        raise IndexError(f"timestep {t} outside [0, {sched.t_total}]")
    ab = sched.alpha_bar[t]
    if t.ndim:
        ab = ab[:, None]
    root = np.sqrt(ab)
    return root * y0 + (1.0 - root) * y_hat0 + np.sqrt(1.0 - ab) * eps


def timestep_embedding(t: int | np.ndarray) -> np.ndarray:
    """Interleaved (sin, cos) pairs of t over geometrically spaced periods;
    for an array of steps, one row per step."""
    t = np.asarray(t)
    if np.any(t < 0):
        raise ContractError("timestep must be nonnegative")
    i = np.arange(TEMB_DIM // 2)
    freqs = t[..., None] / np.power(10000.0, 2.0 * i / TEMB_DIM)
    emb = np.empty(t.shape + (TEMB_DIM,))
    emb[..., 0::2] = np.sin(freqs)
    emb[..., 1::2] = np.cos(freqs)
    return emb


def layer_dims(d_model: int, k: int) -> list[tuple[int, int]]:
    """(fan_in, fan_out) of each denoiser layer, input to head."""
    dims = [d_model + 3 * k + TEMB_DIM, *HIDDEN, k]
    return list(zip(dims[:-1], dims[1:]))


class DenoiserNet:
    """MLP noise predictor over [f | y_t | prior | d | temb]."""

    def __init__(self, layers: list[tuple[Tensor2, Tensor2]], d_model: int, k: int):
        self.layers = layers  # [(w, b), ...], last layer is the linear head
        self.d_model = d_model
        self.k = k

    @property
    def input_dim(self) -> int:
        return self.d_model + 3 * self.k + TEMB_DIM

    @classmethod
    def build(cls, d_model: int, k: int, seed: int) -> "DenoiserNet":
        rng = np.random.default_rng(np.random.SeedSequence((seed, 23)))
        layers = []
        for fan_in, fan_out in layer_dims(d_model, k):
            w = Tensor2(rng.standard_normal((fan_out, fan_in)) / math.sqrt(fan_in))
            b = Tensor2(np.zeros((1, fan_out)))
            layers.append((w, b))
        return cls(layers, d_model, k)

    def params(self) -> list[Tensor2]:
        return [p for layer in self.layers for p in layer]

    def forward(self, x: Tensor2, tape: GradTape | None = None,
                work: list | None = None) -> Tensor2:
        """One nk.dense record per layer. Without a tape, the list work gains
        each layer's buffers on the first call, reused by later calls on as many
        rows and the same weights (a temporary per op made the chain's speed
        depend on where the allocator placed it)."""
        h = x
        for i, (w, b) in enumerate(self.layers):
            if work is not None and len(work) == i:
                work.append((w.data.T.copy(), *np.empty((2, x.rows, w.rows))))
            h = nk.dense(h, w, b, i + 1 < len(self.layers), tape,
                         None if work is None else work[i])
        return h


def conditioning_input(
    f: np.ndarray, y_t: np.ndarray, y_hat0: np.ndarray, d: np.ndarray, temb: np.ndarray
) -> np.ndarray:
    """The denoiser's input rows in CONDITIONING_LAYOUT; temb is one
    timestep-embedding row shared by every item or one row per item (rows of
    NoiseSchedule.temb)."""
    parts = [np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in (f, y_t, y_hat0, d)]
    parts.append(np.broadcast_to(temb, (parts[0].shape[0], TEMB_DIM)))
    return np.concatenate(parts, axis=1)


def eps_predict(
    net: DenoiserNet, x: np.ndarray, tape: GradTape | None = None, work: list | None = None
) -> Tensor2:
    """Batched noise prediction on conditioning_input rows x; work is the
    forward's buffer list, which the reverse chain passes at every step."""
    if x.shape[1] != net.input_dim:
        raise ContractError(
            f"conditioning width {x.shape[1]} does not match net input {net.input_dim}"
        )
    return net.forward(Tensor2(x), tape, work)


# numpy's SeedSequence constants (pool of four 32-bit words) and the PCG64
# multiplier: _generate_state and _keyed_rngs replay default_rng(SeedSequence)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def _generate_state(n_words: int, *columns) -> np.ndarray:
    """SeedSequence((c0, c1, ...)).generate_state(n_words) of every row, as a
    (rows, n_words) uint32 array hashed over all rows at once. A scalar column
    is one integer for all rows, split into 32-bit words as numpy splits it;
    an array column gives each row one word, so all rows share a length."""
    rows = np.broadcast_shapes((1,), *map(np.shape, columns))
    entropy = []
    for c in columns:
        if np.ndim(c) == 0:
            if not isinstance(c, (int, np.integer)) or c < 0:
                raise ContractError(f"a seed must be a nonnegative integer, got {c!r}")
            c = int(c)
            entropy += [np.full(rows, c >> shift & _MASK32, np.uint32)
                        for shift in range(0, max(c.bit_length(), 1), 32)]
            continue
        c = np.asarray(c)
        if c.size and (c.dtype.kind not in "iu" or c.min() < 0 or c.max() > _MASK32):
            raise ContractError("every per-row seed word must be an integer in [0, 2**32)")
        entropy.append(np.broadcast_to(c, rows).astype(np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    entropy += [np.zeros(rows, np.uint32)] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # words beyond the pool are mixed into every pool word
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state.append(value ^ (value >> np.uint32(16)))
    return np.stack(state, axis=1)


def _keyed_rngs(*columns):
    """default_rng(SeedSequence((c0, c1, ...))) of every row in turn: one
    reused generator, set to the row's seeded state before it is yielded, so
    a row's draws are made before the next row's."""
    # little-endian pairs of 32-bit words make four 64-bit words, which
    # PCG64 reads as two 128-bit ones: the initial state, then the stream
    w = _generate_state(2 * _POOL_SIZE, *columns).astype(np.uint64)
    w = w[:, 0::2] | (w[:, 1::2] << np.uint64(32))
    bits = np.random.PCG64()
    rng = np.random.Generator(bits)
    for s0, s1, q0, q1 in w.tolist():
        # PCG64's seeding: inc from the stream word, then two LCG steps
        # around adding the initial state
        inc = ((((q0 << 64) | q1) << 1) | 1) & _MASK128
        state = ((inc + ((s0 << 64) | s1)) * _PCG_MULT + inc) & _MASK128
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        yield rng


def item_draws(seeds, keys, t_total: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each item's timestep in [1, t_total] and k standard normals, drawn in
    that order from default_rng(SeedSequence((seed, key))), so an item's
    draws never depend on the batch it sits in."""
    rows = np.broadcast(seeds, keys).size
    t_values = np.empty(rows, dtype=np.int64)
    eps = np.empty((rows, k))
    for i, rng in enumerate(_keyed_rngs(seeds, keys)):
        t_values[i] = rng.integers(1, t_total + 1)
        rng.standard_normal(out=eps[i])
    return t_values, eps


def stage2_draws(
    seed: int, epoch: int, order: np.ndarray, batch: int, t_total: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """One stage-2 epoch's item_draws, row i for item order[i] keyed by
    (step seed, order[i]); batch b's step seed is the first word of
    SeedSequence((seed, 53, epoch, b)).generate_state(1)."""
    n = len(order)
    step_seeds = _generate_state(1, seed, 53, epoch, np.arange(-(-n // batch)))[:, 0]
    return item_draws(step_seeds[np.arange(n) // batch], order, t_total, k)


def epsilon_loss(
    net: DenoiserNet,
    f: np.ndarray,
    y0: np.ndarray,
    y_hat0: np.ndarray,
    d: np.ndarray,
    sched: NoiseSchedule,
    t_values: np.ndarray,
    eps: np.ndarray,
    tape: GradTape | None = None,
) -> Tensor2:
    """Noise-prediction objective on one batch, given each item's timestep
    and noise (from item_draws, which keys them by item, so the loss is
    invariant to batch order)."""
    f = np.atleast_2d(f)
    n = f.shape[0]
    if n == 0:
        raise DataError("empty batch")
    t_values = np.asarray(t_values)
    if t_values.shape != (n,) or eps.shape != y0.shape:
        raise ContractError(
            f"need one timestep and one noise row per item: {n} items, "
            f"{t_values.shape} timesteps, {eps.shape} noise for labels {y0.shape}"
        )
    y_t = forward_sample(y0, y_hat0, t_values, eps, sched)
    eps_hat = eps_predict(net, conditioning_input(f, y_t, y_hat0, d, sched.temb[t_values]), tape)
    diff = nk.sub(Tensor2(eps), eps_hat, tape)
    return nk.mean_all(nk.mul(diff, diff, tape), tape)


def predict_y0(
    y_t: np.ndarray,
    eps_hat: np.ndarray,
    y_hat0: np.ndarray,
    t: int,
    sched: NoiseSchedule,
) -> np.ndarray:
    """Algebraic inversion of the forward draw; no clipping applied."""
    sched.check_t(t)
    root = math.sqrt(sched.alpha_bar[t])
    return (y_t - (1.0 - root) * y_hat0 - math.sqrt(1.0 - sched.alpha_bar[t]) * eps_hat) / root


def posterior_params(
    y_t: np.ndarray,
    y0_tilde: np.ndarray,
    y_hat0: np.ndarray,
    t: int,
    sched: NoiseSchedule,
) -> tuple[np.ndarray, float]:
    """Mean and variance of the one-step reverse kernel from step t to t - 1."""
    gamma0, gamma1, gamma2, var = posterior_coefficients(t, sched)
    mean = gamma0 * y0_tilde + gamma1 * y_t + gamma2 * y_hat0
    return mean, var


def posterior_coefficients(t: int, sched: NoiseSchedule) -> tuple[float, float, float, float]:
    """(gamma0, gamma1, gamma2, var) without applying them; used by tests."""
    sched.check_t(t)
    ab_t = sched.alpha_bar[t]
    ab_s = sched.alpha_bar[t - 1]
    ratio = ab_t / ab_s
    one_minus = 1.0 - ab_t
    gamma0 = (1.0 - ratio) * math.sqrt(ab_s) / one_minus
    gamma1 = (1.0 - ab_s) * math.sqrt(ratio) / one_minus
    gamma2 = 1.0 + (math.sqrt(ab_t) - 1.0) * (math.sqrt(ratio) + math.sqrt(ab_s)) / one_minus
    var = (1.0 - ratio) * (1.0 - ab_s) / one_minus
    return gamma0, gamma1, gamma2, var


def chain_noise(seed: int, keys, samples, t_total: int, k: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Each (item_key, sample) row's chain noise, (t_total + 1) x k in one
    draw (the values k per step would give) from default_rng(SeedSequence((
    seed, 101, item_key, sample))), so it never depends on batching; written
    into out, of shape (rows, t_total + 1, k), if given."""
    noise = np.empty((np.broadcast(keys, samples).size, t_total + 1, k)) if out is None else out
    for row, rng in zip(noise, _keyed_rngs(seed, 101, keys, samples)):
        rng.standard_normal(out=row)
    return noise


def sample_chain_batch(
    net: DenoiserNet,
    f: np.ndarray,
    d: np.ndarray,
    y_hat0: np.ndarray,
    sched: NoiseSchedule,
    noise: np.ndarray,
    record_steps=None,
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Run one reverse chain per row on that row's noise (chain_noise):
    noise[:, 0] is the initial draw and noise[:, h] that of the h-th step.

    Returns the final label-space vectors and snapshots of y_t at every
    requested step (the initial draw counts as step T). A non-finite final
    vector raises NumericError; a nan or inf in y stays one to the end.
    """
    f = np.atleast_2d(f)
    n = f.shape[0]
    k = y_hat0.shape[1]
    if noise.shape != (n, sched.t_total + 1, k):
        raise ContractError(f"need noise of shape {(n, sched.t_total + 1, k)}, got {noise.shape}")
    record = set() if record_steps is None else set(record_steps)
    snapshots: dict[int, np.ndarray] = {}

    y = y_hat0 + noise[:, 0]
    if sched.t_total in record:
        snapshots[sched.t_total] = y.copy()

    # f, the prior and d are written once; a step rewrites y_t and temb only
    x = conditioning_input(f, y, y_hat0, d, sched.temb[sched.t_total])
    y_cols = x[:, f.shape[1]:f.shape[1] + k]
    work: list = []
    for hop, t in enumerate(range(sched.t_total, 0, -1), start=1):
        y_cols[...] = y
        x[:, -TEMB_DIM:] = sched.temb[t]
        eps_hat = eps_predict(net, x, work=work).data
        y0_tilde = predict_y0(y, eps_hat, y_hat0, t, sched)
        mean, var = posterior_params(y, y0_tilde, y_hat0, t, sched)
        z = noise[:, hop] if var != 0.0 else np.zeros((n, k))
        y = mean + math.sqrt(var) * z
        if t - 1 in record:
            snapshots[t - 1] = y.copy()
    return nk.check_finite(y, "the reverse chain's final state"), snapshots


# sample_chains' blocks are padded with zero rows to whole BLAS row tiles, so a
# row's bits do not depend on its block: OpenBLAS 0.3.31 (Haswell kernels)
# rounds a partial 4-row tile of the k = 3 head differently, and numpy sends
# one row down its matrix-vector path. 4 rows sufficed; 16 leaves room
ROW_TILE = 16


def sample_chains(
    net: DenoiserNet, sched: NoiseSchedule, f: np.ndarray, d: np.ndarray, prior: np.ndarray,
    seed: int, keys, n_samples: int = 1, record_steps=(),
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Run n_samples reverse chains per item, chain s of item i on the
    chain_noise of (seed, keys[i], s). Returns each item's mean final state
    and, per recorded step, the states of every chain, (n_samples, n, k).
    A chain's noise, and so its bits, depend on its (item key, sample) alone,
    not on batching."""
    n, k = prior.shape
    keys = np.asarray(keys)
    # numpy refuses an array of more bytes than it can index before allocating
    if n_samples * n > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"{n_samples} chains of {n} items cannot be indexed")
    rows = np.arange(n_samples * n)
    states = {t: np.empty((n_samples, n, k)) for t in record_steps}
    total = np.zeros((n, k))
    # sample-major rows: row r is chain r // n of item r % n
    for lo in range(0, rows.size, ROW_BLOCK):
        samples, items = np.divmod(rows[lo:lo + ROW_BLOCK], n)
        pad = lambda a: np.pad(a, [(0, -items.size % ROW_TILE)] + [(0, 0)] * (a.ndim - 1))
        # the noise is drawn straight into its padded block
        noise = np.zeros((items.size + -items.size % ROW_TILE, sched.t_total + 1, k))
        chain_noise(seed, keys[items], samples, sched.t_total, k, out=noise[:items.size])
        final, snaps = sample_chain_batch(
            net, pad(f[items]), pad(d[items]), pad(prior[items]), sched, noise, states.keys())
        # a block can hold several chains of one item: add.at adds every
        # row, in row order, which is sample order
        np.add.at(total, items, final[:items.size])
        for t, snap in snaps.items():
            states[t][samples, items] = snap[:items.size]
    return total / n_samples, states


# ---------------------------------------------------------------------------
# checkpoint I/O


def save_denoiser(
    path: str | Path, net: DenoiserNet, sched_params: tuple[int, float, float]
) -> None:
    t_total, beta_start, beta_end = sched_params
    meta = {
        "layout": CONDITIONING_LAYOUT,
        "d_model": net.d_model,
        "k": net.k,
        "t_total": t_total,
        "beta_start": beta_start,
        "beta_end": beta_end,
    }
    tensors = dict(zip(_tensor_shapes(meta), (p.data for p in net.params()), strict=True))
    save_checkpoint(path, DENOISER_FORMAT, meta, tensors)


def _tensor_shapes(doc: dict) -> dict[str, list[int]]:
    """Layout and schedule checks, then each layer's shapes from d_model, k
    and HIDDEN: layer i's weight, then its bias, in DenoiserNet.params order."""
    if doc["layout"] != CONDITIONING_LAYOUT:
        raise ParseError(f"unknown conditioning layout {doc['layout']!r}")
    t_total, beta_start, beta_end = doc["t_total"], doc["beta_start"], doc["beta_end"]
    if t_total < 1 or not 0.0 < beta_start <= beta_end < 1.0:
        raise ParseError(
            f"schedule t_total={t_total}, beta {beta_start}..{beta_end} "
            "is outside t_total >= 1, 0 < beta_start <= beta_end < 1"
        )
    shapes = {}
    for i, (fan_in, fan_out) in enumerate(layer_dims(doc["d_model"], doc["k"])):
        shapes[f"layer{i}_w"], shapes[f"layer{i}_b"] = [fan_out, fan_in], [1, fan_out]
    return shapes


def load_denoiser(path: str | Path) -> tuple[DenoiserNet, NoiseSchedule]:
    doc, w = load_checkpoint(
        path,
        DENOISER_FORMAT,
        {"layout": str, "d_model": int, "k": int, "t_total": int,
         "beta_start": NUMBER, "beta_end": NUMBER},
        _tensor_shapes,
    )
    params = iter(map(Tensor2, w.values()))
    net = DenoiserNet(list(zip(params, params)), doc["d_model"], doc["k"])
    sched = make_schedule(doc["t_total"], doc["beta_start"], doc["beta_end"])
    return net, sched
