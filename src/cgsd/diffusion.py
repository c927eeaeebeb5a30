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
from .errors import ConfigError, ContractError, DataError, ParseError
from .numkit import GradTape, Tensor2

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
    if t_total < 1:
        raise ConfigError("t_total must be >= 1")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigError("require 0 < beta_start <= beta_end < 1")
    if t_total == 1:
        beta = np.array([beta_start])
    else:
        beta = beta_start + np.arange(t_total) * (beta_end - beta_start) / (t_total - 1)
    alpha_bar = np.empty(t_total + 1)
    alpha_bar[0] = 1.0
    alpha_bar[1:] = np.cumprod(1.0 - beta)
    temb = np.stack([timestep_embedding(t) for t in range(t_total + 1)])
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


def timestep_embedding(t: int) -> np.ndarray:
    """Interleaved (sin, cos) pairs of t over geometrically spaced periods."""
    if t < 0:
        raise ContractError("timestep must be nonnegative")
    i = np.arange(TEMB_DIM // 2)
    freqs = t / np.power(10000.0, 2.0 * i / TEMB_DIM)
    emb = np.empty(TEMB_DIM)
    emb[0::2] = np.sin(freqs)
    emb[1::2] = np.cos(freqs)
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
        out = []
        for w, b in self.layers:
            out.extend((w, b))
        return out

    def forward(self, x: Tensor2, tape: GradTape | None = None) -> Tensor2:
        h = x
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            h = nk.add(nk.matmul(h, nk.transpose(w, tape), tape), b, tape)
            if i != last:
                h = nk.smooth_nonlinearity(h, tape)
        return h

    def workspace(self, rows: int) -> tuple[np.ndarray, list]:
        """Buffers for forward_into on `rows` rows: the input rows, then per
        layer the C-order transposed weight nk.transpose makes and two
        (rows x fan_out) arrays."""
        layers = [
            (np.ascontiguousarray(w.data.T), np.empty((rows, w.rows)), np.empty((rows, w.rows)))
            for w, _ in self.layers
        ]
        return np.empty((rows, self.input_dim)), layers

    def forward_into(self, x: np.ndarray, work: tuple[np.ndarray, list]) -> np.ndarray:
        """forward without a tape: the same float operations, written into
        the buffers of workspace(rows), so a reverse step allocates no
        layer-sized array (a large temporary per op made the chain's speed
        depend on where the allocator placed it). The result is a buffer
        that the next call overwrites."""
        h = x
        last = len(self.layers) - 1
        for i, ((_, b), (w_t, out, gate)) in enumerate(zip(self.layers, work[1])):
            np.matmul(h, w_t, out=out)
            np.add(out, b.data, out=out)
            if i != last:
                nk.sigmoid_gate(out, gate)
                np.multiply(out, gate, out=out)
            h = out
        return h


def eps_predict(
    net: DenoiserNet,
    f: np.ndarray,
    y_t: np.ndarray,
    y_hat0: np.ndarray,
    d: np.ndarray,
    temb: np.ndarray,
    tape: GradTape | None = None,
    work: tuple[np.ndarray, list] | None = None,
) -> Tensor2:
    """Batched noise prediction; temb is one timestep-embedding row shared by
    every item or one row per item (rows of NoiseSchedule.temb).

    Without a tape the net runs in the buffers of work (net.workspace(n),
    made here when not given); the reverse chain passes the same work at
    every step.
    """
    parts = [np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in (f, y_t, y_hat0, d)]
    n = parts[0].shape[0]
    parts.append(np.broadcast_to(temb, (n, TEMB_DIM)))
    width = sum(p.shape[1] for p in parts)
    if width != net.input_dim:
        raise ContractError(
            f"conditioning width {width} does not match net input {net.input_dim}"
        )
    if tape is not None:
        return net.forward(Tensor2(np.concatenate(parts, axis=1)), tape)
    work = net.workspace(n) if work is None else work
    return Tensor2(net.forward_into(np.concatenate(parts, axis=1, out=work[0]), work))


# numpy's SeedSequence constants (pool of four 32-bit words) and the PCG64
# multiplier; item_draws replays SeedSequence((seed, key)) -> PCG64 with them
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def _pcg64_states(seeds, keys) -> list[tuple[int, int]]:
    """The (state, inc) of PCG64(SeedSequence((seed, key))) for every
    (seed, key) pair.

    SeedSequence's pool hash and generate_state(4, np.uint64) run in uint32
    arithmetic over all pairs at once; their hash constants evolve the same
    way for every pair. numpy hashes a value of 2**32 or more as several
    words, so such a value is refused rather than given another stream.
    """
    seeds, keys = np.broadcast_arrays(np.asarray(seeds), np.asarray(keys))
    for name, a in (("seed", seeds), ("key", keys)):
        if a.size and (a.dtype.kind not in "iu" or a.min() < 0 or a.max() > _MASK32):
            raise ContractError(f"every {name} must be an integer in [0, 2**32)")
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

    entropy = [seeds.astype(np.uint32).ravel(), keys.astype(np.uint32).ravel()]
    entropy += [np.zeros_like(entropy[0])] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        words.append(value ^ (value >> np.uint32(16)))
    # little-endian pairs of 32-bit words make four 64-bit words, which
    # PCG64 reads as two 128-bit ones: the initial state, then the stream
    w = np.stack(words, axis=1).astype(np.uint64)
    w = w[:, 0::2] | (w[:, 1::2] << np.uint64(32))
    states = []
    for s0, s1, q0, q1 in w.tolist():
        # PCG64's seeding: inc from the stream word, then two LCG steps
        # around adding the initial state
        inc = ((((q0 << 64) | q1) << 1) | 1) & _MASK128
        states.append((((inc + ((s0 << 64) | s1)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def item_draws(seeds, keys, t_total: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each item's timestep in [1, t_total] and k standard normals, drawn in
    that order from default_rng(SeedSequence((seed, key))).

    One PCG64 is reused: it is set to each pair's seeded state before the
    draws, which gives the values a fresh generator per item gives, so an
    item's draws never depend on the batch it sits in.
    """
    states = _pcg64_states(seeds, keys)
    t_values = np.empty(len(states), dtype=np.int64)
    eps = np.empty((len(states), k))
    bits = np.random.PCG64()
    rng = np.random.Generator(bits)
    for i, (state, inc) in enumerate(states):
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        t_values[i] = rng.integers(1, t_total + 1)
        rng.standard_normal(out=eps[i])
    return t_values, eps


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
    eps_hat = eps_predict(net, f, y_t, y_hat0, d, sched.temb[t_values], tape)
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


def chain_substreams(seed: int, pairs) -> list[np.random.Generator]:
    """One generator per (item_key, sample) pair, keyed by
    (seed, 101, item_key, sample), so a draw never depends on batching."""
    return [
        np.random.default_rng(np.random.SeedSequence((seed, 101, int(key), int(sample))))
        for key, sample in pairs
    ]


def sample_chain_batch(
    net: DenoiserNet,
    f: np.ndarray,
    d: np.ndarray,
    y_hat0: np.ndarray,
    sched: NoiseSchedule,
    rngs: list[np.random.Generator],
    record_steps=None,
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Run one reverse chain per row; each row owns its RNG substream.

    Returns the final label-space vectors and snapshots of y_t at every
    requested step (the initial draw counts as step T). A non-finite final
    vector raises NumericError; a nan or inf in y stays one to the end.
    """
    f = np.atleast_2d(f)
    n = f.shape[0]
    if len(rngs) != n:
        raise ContractError("need one RNG substream per item")
    record = set() if record_steps is None else set(record_steps)
    snapshots: dict[int, np.ndarray] = {}
    k = y_hat0.shape[1]

    # a row's whole noise sequence in one draw: the initial vector, then one
    # per step; numpy yields the same values as one draw of k per step
    noise = np.empty((n, sched.t_total + 1, k))
    for row, rng in zip(noise, rngs):
        rng.standard_normal(out=row)
    y = y_hat0 + noise[:, 0]
    if sched.t_total in record:
        snapshots[sched.t_total] = y.copy()

    work = net.workspace(n)
    for hop, t in enumerate(range(sched.t_total, 0, -1), start=1):
        eps_hat = eps_predict(net, f, y, y_hat0, d, sched.temb[t], work=work).data
        y0_tilde = predict_y0(y, eps_hat, y_hat0, t, sched)
        mean, var = posterior_params(y, y0_tilde, y_hat0, t, sched)
        z = noise[:, hop] if var != 0.0 else np.zeros((n, k))
        y = mean + math.sqrt(var) * z
        if t - 1 in record:
            snapshots[t - 1] = y.copy()
    return nk.check_finite(y, "the reverse chain's final state"), snapshots


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
    tensors = {}
    for i, (w, b) in enumerate(net.layers):
        tensors[f"layer{i}_w"], tensors[f"layer{i}_b"] = w.data, b.data
    save_checkpoint(path, DENOISER_FORMAT, meta, tensors)


def _tensor_shapes(doc: dict) -> dict[str, list[int]]:
    """Layout and schedule checks, then each layer's shapes from d_model, k
    and HIDDEN."""
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
    layers = [
        (Tensor2(w[f"layer{i}_w"]), Tensor2(w[f"layer{i}_b"]))
        for i in range(len(HIDDEN) + 1)
    ]
    net = DenoiserNet(layers, doc["d_model"], doc["k"])
    sched = make_schedule(doc["t_total"], doc["beta_start"], doc["beta_end"])
    return net, sched
