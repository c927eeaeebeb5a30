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

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numkit as nk
from .data import NUMBER, array_from_flat, read_json_object
from .errors import ConfigError, ContractError, DataError, ParseError
from .numkit import GradTape, Tensor2

DENOISER_FORMAT = "cgsd-denoiser-v1"
TEMB_DIM = 64
HIDDEN = (128, 128)
CONDITIONING_LAYOUT = "f|y_t|y_hat0|d|temb64"


@dataclass
class NoiseSchedule:
    t_total: int
    beta: np.ndarray  # beta[t-1] is the step-t value, t = 1..T
    alpha: np.ndarray  # 1 - beta
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
    alpha = 1.0 - beta
    alpha_bar = np.empty(t_total + 1)
    alpha_bar[0] = 1.0
    alpha_bar[1:] = np.cumprod(alpha)
    temb = np.stack([timestep_embedding(t) for t in range(t_total + 1)])
    return NoiseSchedule(t_total, beta, alpha, alpha_bar, temb)


def forward_sample(
    y0: np.ndarray,
    y_hat0: np.ndarray,
    t: int,
    eps: np.ndarray,
    sched: NoiseSchedule,
) -> np.ndarray:
    """Draw y_t given the label, the prior mean and a fixed noise vector."""
    if not (0 <= t <= sched.t_total):
        raise IndexError(f"timestep {t} outside [0, {sched.t_total}]")
    ab = sched.alpha_bar[t]
    root = math.sqrt(ab)
    return root * y0 + (1.0 - root) * y_hat0 + math.sqrt(1.0 - ab) * eps


def timestep_embedding(t: int, dim: int = TEMB_DIM) -> np.ndarray:
    """Interleaved (sin, cos) pairs of t over geometrically spaced periods."""
    if dim % 2 != 0:
        raise ConfigError("embedding dim must be even")
    if t < 0:
        raise ContractError("timestep must be nonnegative")
    i = np.arange(dim // 2)
    freqs = t / np.power(10000.0, 2.0 * i / dim)
    emb = np.empty(dim)
    emb[0::2] = np.sin(freqs)
    emb[1::2] = np.cos(freqs)
    return emb


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
        dims = [d_model + 3 * k + TEMB_DIM, *HIDDEN, k]
        layers = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w = Tensor2(
                rng.standard_normal((fan_out, fan_in)) / math.sqrt(fan_in),
                requires_grad=True,
            )
            b = Tensor2(np.zeros((1, fan_out)), requires_grad=True)
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


def eps_predict(
    net: DenoiserNet,
    f: np.ndarray,
    y_t: np.ndarray,
    y_hat0: np.ndarray,
    d: np.ndarray,
    temb: np.ndarray,
    tape: GradTape | None = None,
) -> Tensor2:
    """Batched noise prediction; temb is one timestep-embedding row shared by
    every item or one row per item (rows of NoiseSchedule.temb)."""
    f, y_t, y_hat0, d = (np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in (f, y_t, y_hat0, d))
    temb = np.broadcast_to(temb, (f.shape[0], TEMB_DIM))
    x = np.concatenate([f, y_t, y_hat0, d, temb], axis=1)
    if x.shape[1] != net.input_dim:
        raise ContractError(
            f"conditioning width {x.shape[1]} does not match net input {net.input_dim}"
        )
    return net.forward(Tensor2(x), tape)


def epsilon_loss(
    net: DenoiserNet,
    f: np.ndarray,
    y0: np.ndarray,
    y_hat0: np.ndarray,
    d: np.ndarray,
    sched: NoiseSchedule,
    seed: int,
    item_keys=None,
    tape: GradTape | None = None,
) -> Tensor2:
    """Noise-prediction objective on one batch.

    Each item draws its timestep and noise from a substream keyed by
    (seed, item_key), so the loss is invariant to batch order.
    """
    f = np.atleast_2d(f)
    n = f.shape[0]
    if n == 0:
        raise DataError("empty batch")
    keys = np.arange(n) if item_keys is None else np.asarray(item_keys)
    k = y0.shape[1]
    t_values = np.empty(n, dtype=np.int64)
    eps = np.empty((n, k))
    y_t = np.empty((n, k))
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence((seed, int(keys[i]))))
        t_values[i] = int(rng.integers(1, sched.t_total + 1))
        eps[i] = rng.standard_normal(k)
        y_t[i] = forward_sample(y0[i], y_hat0[i], int(t_values[i]), eps[i], sched)
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
    s: int | None = None,
) -> tuple[np.ndarray, float]:
    """Mean and variance of the reverse kernel from step t to step s (< t).

    Defaults to s = t - 1; larger jumps use the cumulative alpha ratio in
    place of the single-step alpha, which reduces to the same formulas.
    """
    gamma0, gamma1, gamma2, var = posterior_coefficients(t, sched, s)
    mean = gamma0 * y0_tilde + gamma1 * y_t + gamma2 * y_hat0
    return mean, var


def posterior_coefficients(
    t: int, sched: NoiseSchedule, s: int | None = None
) -> tuple[float, float, float, float]:
    """(gamma0, gamma1, gamma2, var) without applying them; used by tests."""
    sched.check_t(t)
    if s is None:
        s = t - 1
    elif not (0 <= s < t):
        raise IndexError(f"target step {s} outside [0, {t})")
    ab_t = sched.alpha_bar[t]
    ab_s = sched.alpha_bar[s]
    ratio = ab_t / ab_s
    one_minus = 1.0 - ab_t
    gamma0 = (1.0 - ratio) * math.sqrt(ab_s) / one_minus
    gamma1 = (1.0 - ab_s) * math.sqrt(ratio) / one_minus
    gamma2 = 1.0 + (math.sqrt(ab_t) - 1.0) * (math.sqrt(ratio) + math.sqrt(ab_s)) / one_minus
    var = (1.0 - ratio) * (1.0 - ab_s) / one_minus
    return gamma0, gamma1, gamma2, var


def _chain_times(t_total: int, stride: int) -> list[tuple[int, int]]:
    """(from, to) pairs covering T..0; the final hop always lands on 0."""
    ts: list[tuple[int, int]] = []
    t = t_total
    while t > 0:
        s = max(t - stride, 0)
        ts.append((t, s))
        t = s
    return ts


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
    stride: int = 1,
    record_steps=None,
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Run one reverse chain per row; each row owns its RNG substream.

    Returns the final label-space vectors and snapshots of y_t at every
    requested step (the initial draw counts as step T).
    """
    f = np.atleast_2d(f)
    n = f.shape[0]
    if len(rngs) != n:
        raise ContractError("need one RNG substream per item")
    record = set() if record_steps is None else set(record_steps)
    snapshots: dict[int, np.ndarray] = {}
    times = _chain_times(sched.t_total, stride)
    k = y_hat0.shape[1]

    # a row's whole noise sequence in one draw: the initial vector, then one
    # per hop; numpy yields the same values as one draw of k per hop
    noise = np.empty((n, len(times) + 1, k))
    for row, rng in zip(noise, rngs):
        rng.standard_normal(out=row)
    y = y_hat0 + noise[:, 0]
    if sched.t_total in record:
        snapshots[sched.t_total] = y.copy()

    for hop, (t, s) in enumerate(times, start=1):
        eps_hat = eps_predict(net, f, y, y_hat0, d, sched.temb[t]).data
        y0_tilde = predict_y0(y, eps_hat, y_hat0, t, sched)
        mean, var = posterior_params(y, y0_tilde, y_hat0, t, sched, s)
        z = noise[:, hop] if var != 0.0 else np.zeros((n, k))
        y = mean + math.sqrt(var) * z
        if s in record:
            snapshots[s] = y.copy()
    return y, snapshots


# ---------------------------------------------------------------------------
# checkpoint I/O


def save_denoiser(
    path: str | Path,
    net: DenoiserNet,
    sched_params: tuple[int, float, float],
    ema_weights: list[np.ndarray] | None = None,
) -> None:
    t_total, beta_start, beta_end = sched_params
    names = [f"layer{i}_{p}" for i in range(len(net.layers)) for p in ("w", "b")]
    tensors = net.params()
    doc = {
        "format": DENOISER_FORMAT,
        "layout": CONDITIONING_LAYOUT,
        "d_model": net.d_model,
        "k": net.k,
        "t_total": t_total,
        "beta_start": beta_start,
        "beta_end": beta_end,
        "shapes": {n: list(t.shape) for n, t in zip(names, tensors)},
        "weights": {n: t.data.flatten().tolist() for n, t in zip(names, tensors)},
        "ema_weights": None
        if ema_weights is None
        else {n: w.flatten().tolist() for n, w in zip(names, ema_weights)},
    }
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8", newline="\n")


def load_denoiser(
    path: str | Path, use_ema: bool = True
) -> tuple[DenoiserNet, NoiseSchedule]:
    doc = read_json_object(
        path,
        "checkpoint",
        {"format": str, "layout": str, "d_model": int, "k": int, "t_total": int,
         "beta_start": NUMBER, "beta_end": NUMBER, "shapes": dict, "weights": dict},
    )
    where = f"checkpoint {path}"
    if doc["format"] != DENOISER_FORMAT:
        raise ParseError(
            f"{where}: format mismatch: expected {DENOISER_FORMAT}, "
            f"got {doc['format']!r}"
        )
    if doc["layout"] != CONDITIONING_LAYOUT:
        raise ParseError(f"{where}: unknown conditioning layout {doc['layout']!r}")
    t_total, beta_start, beta_end = doc["t_total"], doc["beta_start"], doc["beta_end"]
    if t_total < 1 or not 0.0 < beta_start <= beta_end < 1.0:
        raise ParseError(
            f"{where}: schedule t_total={t_total}, beta {beta_start}..{beta_end} "
            "is outside t_total >= 1, 0 < beta_start <= beta_end < 1"
        )
    shapes = doc["shapes"]
    source = doc["weights"]
    if use_ema and doc.get("ema_weights"):
        source = doc["ema_weights"]
    if not isinstance(source, dict):
        raise ParseError(f"{where}: ema_weights must be a JSON object")
    width = doc["d_model"] + 3 * doc["k"] + TEMB_DIM
    layers = []
    for i in range(len(shapes) // 2):
        w, b = (
            Tensor2(
                array_from_flat(
                    source.get(name), shapes.get(name), f"{where}: weight {name}"
                ),
                requires_grad=True,
            )
            for name in (f"layer{i}_w", f"layer{i}_b")
        )
        if w.cols != width or b.shape != (1, w.rows):
            raise ParseError(
                f"{where}: layer {i} shapes {w.shape}, {b.shape} do not chain"
            )
        width = w.rows
        layers.append((w, b))
    if width != doc["k"]:
        raise ParseError(
            f"{where}: denoiser head width {width} does not match k={doc['k']}"
        )
    net = DenoiserNet(layers, doc["d_model"], doc["k"])
    sched = make_schedule(t_total, beta_start, beta_end)
    return net, sched
