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
    # (T + 1) x 3, row t is (sqrt(abar_t), 1 - sqrt(abar_t), sqrt(1 - abar_t)),
    # the one copy of these roots, which every step of either chain reads
    coef: np.ndarray

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
    root = np.sqrt(alpha_bar)
    coef = np.stack([root, 1.0 - root, np.sqrt(1.0 - alpha_bar)], axis=1)
    return NoiseSchedule(t_total, beta, alpha_bar, temb, coef)


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
    # a step below 0 would read the table from its end
    if t.size and (t.min() < 0 or t.max() > sched.t_total):
        raise IndexError(f"timestep {t} outside [0, {sched.t_total}]")
    root, rest, noise = sched.coef[t].T[..., None]
    return root * y0 + rest * y_hat0 + noise * eps


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
        return layer_dims(self.d_model, self.k)[0][0]

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
    parts = [np.atleast_2d(a) for a in (f, y_t, y_hat0, d)]
    rows = (parts[0].shape[0], TEMB_DIM)
    parts.append(temb if np.shape(temb) == rows else np.broadcast_to(temb, rows))
    return np.concatenate(parts, axis=1, dtype=np.float64)


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
    and noise (train_stage2 takes them from its epoch's draws by item, so the
    loss is invariant to batch order)."""
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
    # the mean squared error as one record: the floats of sub, mul and
    # mean_all, and as their adjoints -(a + a), a = diff times g / size
    diff = eps - eps_hat.data
    size = diff.size
    loss = Tensor2(np.array([[np.add.reduce(diff * diff, axis=None) / size]]))
    if tape is not None:
        def vjp(g):
            a = diff * (g[0, 0] / size)
            return -(a + a)

        tape.record(loss, (eps_hat,), (vjp,))
    return loss


def predict_y0(
    y_t: np.ndarray,
    eps_hat: np.ndarray,
    y_hat0: np.ndarray,
    t: int,
    sched: NoiseSchedule,
) -> np.ndarray:
    """Algebraic inversion of the forward draw; no clipping applied."""
    sched.check_t(t)
    root, rest, noise = sched.coef[t].tolist()
    return (y_t - rest * y_hat0 - noise * eps_hat) / root


def posterior_coefficients(
    t: int, s: int, sched: NoiseSchedule
) -> tuple[float, float, float, float]:
    """(gamma0, gamma1, gamma2, var) of the reverse kernel from step t to an
    earlier step s, 0 <= s < t: mean gamma0 * y0_tilde + gamma1 * y_t +
    gamma2 * y_hat0, variance var. Any such s is exact, because the forward
    process's posterior q(y_s | y_t, y0) has this closed form for every pair."""
    sched.check_t(t)
    if not 0 <= s < t:
        raise IndexError(f"step {s} outside [0, {t})")
    ab_s, ab_t = sched.alpha_bar[s], sched.alpha_bar[t]
    root_s, root_t = sched.coef[s, 0], sched.coef[t, 0]
    ratio = ab_t / ab_s
    one_minus = 1.0 - ab_t
    gamma0 = (1.0 - ratio) * root_s / one_minus
    gamma1 = (1.0 - ab_s) * math.sqrt(ratio) / one_minus
    gamma2 = 1.0 + (root_t - 1.0) * (math.sqrt(ratio) + root_s) / one_minus
    var = (1.0 - ratio) * (1.0 - ab_s) / one_minus
    return gamma0, gamma1, gamma2, var


def chain_grid(t_total: int, chain_steps: int) -> list[int]:
    """The reverse chain's descending steps t_j = T * j // K for j = K ... 0,
    K = min(chain_steps, T): K denoiser calls per chain, and at K = T every
    step T, T - 1, ..., 0."""
    if chain_steps < 1:
        raise ContractError(f"a chain needs at least one step, got {chain_steps}")
    k = min(chain_steps, t_total)
    return [t_total * j // k for j in range(k, -1, -1)]


def chain_rng(seed: int, key: int) -> np.random.Generator:
    """The generator of one item's reverse chains: on a grid of K + 1 steps,
    chain s runs on the s-th (K + 1) x k block of its standard normals."""
    return np.random.default_rng(np.random.SeedSequence((seed, 101, key)))


def sample_chain_batch(
    net: DenoiserNet,
    f: np.ndarray,
    d: np.ndarray,
    y_hat0: np.ndarray,
    sched: NoiseSchedule,
    grid: list[int],
    noise: np.ndarray,
    record_steps=None,
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Run one reverse chain per row over grid (chain_grid's steps, T down to
    0) on that row's noise (a chain_rng block): noise[:, 0] is the initial
    draw and noise[:, h] that of the h-th step.

    Returns the final label-space vectors and snapshots of y_t at every
    requested step of the grid (the initial draw counts as step T). A
    non-finite final vector raises NumericError; a nan or inf in y stays one
    to the end.
    """
    f = np.atleast_2d(f)
    n = f.shape[0]
    k = y_hat0.shape[1]
    if noise.shape != (n, len(grid), k):
        raise ContractError(f"need noise of shape {(n, len(grid), k)}, got {noise.shape}")
    if grid[0] != sched.t_total or grid[-1] != 0:
        raise ContractError(f"a chain runs from step {sched.t_total} to 0, not {grid}")
    record = set() if record_steps is None else set(record_steps)
    snapshots: dict[int, np.ndarray] = {}

    y = y_hat0 + noise[:, 0]
    if sched.t_total in record:
        snapshots[sched.t_total] = y.copy()

    # f, the prior and d are written once; a step rewrites y_t and temb only
    x = conditioning_input(f, y, y_hat0, d, sched.temb[sched.t_total])
    y_cols = x[:, f.shape[1]:f.shape[1] + k]
    work: list = []
    for hop, (t, s) in enumerate(zip(grid, grid[1:]), start=1):
        y_cols[...] = y
        x[:, -TEMB_DIM:] = sched.temb[t]
        eps_hat = eps_predict(net, x, work=work).data
        y0_tilde = predict_y0(y, eps_hat, y_hat0, t, sched)
        gamma0, gamma1, gamma2, var = posterior_coefficients(t, s, sched)
        z = noise[:, hop] if var != 0.0 else np.zeros((n, k))
        y = gamma0 * y0_tilde + gamma1 * y + gamma2 * y_hat0 + math.sqrt(var) * z
        if s in record:
            snapshots[s] = y.copy()
    return nk.check_finite(y, "the reverse chain's final state"), snapshots


# sample_chains' blocks are padded with zero rows to whole BLAS row tiles, so a
# row's bits do not depend on its block: OpenBLAS 0.3.31 (Haswell kernels)
# rounds a partial 4-row tile of the k = 3 head differently, and numpy sends
# one row down its matrix-vector path. 4 rows sufficed; 16 leaves room
ROW_TILE = 16


def sample_chains(
    net: DenoiserNet, sched: NoiseSchedule, f: np.ndarray, d: np.ndarray, prior: np.ndarray,
    seed: int, keys, chain_steps: int, n_samples: int = 1, record_steps=(),
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Run n_samples reverse chains per item over chain_grid(T, chain_steps),
    chain s of item i on the s-th (K + 1) x k block of chain_rng(seed,
    keys[i]). Returns each item's mean final state and, per recorded step (a
    step of the grid), the states of every chain, (n_samples, n, k). A
    chain's noise, and so its bits, depend on (seed, item key, s, K) alone,
    not on n_samples or batching."""
    grid = chain_grid(sched.t_total, chain_steps)
    off_grid = set(record_steps) - set(grid)
    if off_grid:
        raise ContractError(f"steps {sorted(off_grid)} are not on the chain's grid")
    n, k = prior.shape
    # Python ints: SeedSequence refuses a float key where int() would round it
    keys = np.asarray(keys).tolist()
    # numpy refuses an array of more bytes than it can index before allocating
    if n_samples * n > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"{n_samples} chains of {n} items cannot be indexed")
    rows = np.arange(n_samples * n)
    states = {t: np.empty((n_samples, n, k)) for t in record_steps}
    total = np.zeros((n, k))
    # item-major rows: row r is chain r % n_samples of item r // n_samples
    for lo in range(0, rows.size, ROW_BLOCK):
        items, samples = np.divmod(rows[lo:lo + ROW_BLOCK], n_samples)
        pad = lambda a: np.pad(a, [(0, -items.size % ROW_TILE)] + [(0, 0)] * (a.ndim - 1))
        # the noise is drawn straight into its padded block; an item's
        # generator, made at its chain 0, draws its chains in turn, across a
        # block boundary too
        noise = np.zeros((items.size + -items.size % ROW_TILE, len(grid), k))
        for row, item, sample in zip(noise, items.tolist(), samples.tolist()):
            if sample == 0:
                rng = chain_rng(seed, keys[item])
            rng.standard_normal(out=row)
        final, snaps = sample_chain_batch(
            net, pad(f[items]), pad(d[items]), pad(prior[items]), sched, grid, noise,
            states.keys())
        # add.at adds every row in row order, so an item's chains in sample
        # order
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
