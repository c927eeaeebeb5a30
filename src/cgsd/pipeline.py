"""Orchestration: source-domain pretraining, two-stage training, evaluation,
the three-row ablation and trajectory export.

Stage 1 adapts the guidance model (adapter + prompts + logit scale) on the
target train split with the frozen source-pretrained encoder. Stage 2 trains
the denoiser against the frozen stage-1 guidance; no gradient ever reaches
guidance weights, which is asserted by hashing. ``evaluate`` works on models
and a split in memory; ``load_run`` reads them from a run's files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import diffusion as df
from . import guidance as gd
from . import optim
from .analysis import confusion_and_metrics, pca_project_2d, silhouette_score
from .data import Dataset, read_dataset, stratified_split, write_json
from .errors import ConfigError, DataError, NumericError
from .numkit import GradTape, Tensor2, backward, check_finite, softmax_rows

PAPER_REFERENCE = {
    "accuracy": 0.875,
    "macro_f1": 0.731,
    "ablation_accuracy_pct": [77.3, 84.7, 87.5],
    "ablation_f1": [0.540, 0.686, 0.731],
}


@dataclass
class RunConfig:
    # model
    hidden: int = 128
    d_model: int = 64
    rank: int = 8
    alpha: float = 16.0
    # source-domain pretraining of the base encoder
    pretrain_epochs: int = 60
    pretrain_lr: float = 1e-3
    pretrain_batch: int = 64
    # stage 1
    lr_lora: float = 1e-4
    lr_prompt: float = 2e-3
    warmup_start_lr: float = 1e-5
    stage1_epochs: int = 22
    stage1_batch: int = 64
    warmup_epochs: int = 3
    lambda_rank: float = 1.0
    margin: float = 0.05
    # stage 2
    t_total: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    stage2_epochs: int = 500
    stage2_batch: int = 32
    stage2_lr: float = 3e-4
    stage2_lr_min: float = 1e-5
    clip: float = 1.0
    ema_mu: float = 0.9999
    # inference / protocol
    n_samples: int = 5
    train_fraction: float = 0.7
    seed: int = 42
    desk_preset: bool = False

    def __post_init__(self):
        least = {
            "pretrain_epochs": 0, "stage1_epochs": 0, "warmup_epochs": 0,
            "stage2_epochs": 0, "seed": 0,
            "pretrain_batch": 1, "stage1_batch": 1, "stage2_batch": 1, "n_samples": 1,
        }
        for name, bound in least.items():
            value = getattr(self, name)
            if value < bound:
                raise ConfigError(f"{name} must be >= {bound}, got {value}")
        if not (self.lambda_rank >= 0 and self.margin >= 0):
            raise ConfigError("lambda_rank and margin must be nonnegative")
        if not 0.0 <= self.ema_mu < 1.0:
            raise ConfigError(f"ema_mu must be in [0, 1), got {self.ema_mu}")
        for name in ("pretrain_lr", "lr_lora", "lr_prompt", "stage2_lr", "stage2_lr_min", "clip"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        if self.stage2_lr_min > self.stage2_lr:
            raise ConfigError(
                f"stage2_lr_min {self.stage2_lr_min} must not exceed "
                f"stage2_lr {self.stage2_lr}"
            )

    def resolved(self) -> "RunConfig":
        """Apply the desk preset: a short schedule and epoch budget that keeps
        the full ablation under ten minutes on one core."""
        if not self.desk_preset:
            return self
        return replace(
            self,
            t_total=100,
            beta_start=1e-3,
            beta_end=0.2,
            stage1_epochs=40,
            stage2_epochs=60,
            ema_mu=0.99,
        )

    def digest(self) -> str:
        body = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(body).hexdigest()[:16]


# ---------------------------------------------------------------------------
# helpers


def _hash_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def load_domain(data_dir: str | Path, domain: str) -> Dataset:
    """The benchmark's "source" or "target" domain, read from data_dir."""
    path = Path(data_dir) / f"{domain}.csv"
    if not path.exists():
        raise DataError(f"benchmark not found under {data_dir}; run gen-data first")
    return read_dataset(path)


def _source_like(data_dir: str | Path, target: Dataset) -> Dataset:
    """The source domain, refused unless its width and grade count are the
    target's."""
    source = load_domain(data_dir, "source")
    if (source.d_in, source.k) != (target.d_in, target.k):
        raise DataError(
            f"{Path(data_dir) / 'source.csv'} has d_in={source.d_in}, k={source.k}; "
            f"{Path(data_dir) / 'target.csv'} has d_in={target.d_in}, k={target.k}"
        )
    return source


def _onehot(labels: np.ndarray, k: int) -> np.ndarray:
    return np.eye(k)[labels]


def conditioning(model: gd.GuidanceModel, features: np.ndarray):
    """Frozen-guidance conditioning arrays (f, d, prior) for a feature batch."""
    f = model.encode_batch(features)
    d = model.similarity_batch(f)
    prior = softmax_rows(Tensor2(model.scale_value() * d.data))
    return f.data, d.data, check_finite(prior.data, "the guidance prior")


def load_run(
    data_dir: str | Path,
    cfg: RunConfig,
    guidance_ckpt: str | Path,
    denoiser_ckpt: str | Path | None = None,
) -> tuple[gd.GuidanceModel, tuple | None, Dataset, Dataset]:
    """A run's inputs: the guidance model, the (net, schedule) pair (None
    without a denoiser checkpoint) and the target train and test splits;
    checkpoints whose widths or grade count do not fit the data are refused."""
    model = gd.load_guidance(guidance_ckpt)
    target = load_domain(data_dir, "target")
    if model.d_in != target.d_in or model.k != target.k:
        raise DataError(
            f"guidance checkpoint expects d_in={model.d_in}, k={model.k}; "
            f"data has d_in={target.d_in}, k={target.k}"
        )
    train, test = stratified_split(target, cfg.train_fraction, cfg.seed)
    if denoiser_ckpt is None:
        return model, None, train, test
    net, sched = df.load_denoiser(denoiser_ckpt)
    if net.d_model != model.w2.rows or net.k != target.k:
        raise DataError(
            f"denoiser checkpoint expects d_model={net.d_model}, k={net.k}; "
            f"guidance has d_model={model.w2.rows}, data has k={target.k}"
        )
    return model, (net, sched), train, test


def _check_finite_loss(value: float, where: str) -> None:
    if not np.isfinite(value):
        raise NumericError(f"non-finite loss in {where}")


def _guidance_plan(
    base_lr: float, cfg: RunConfig, warmup_epochs: int, epochs: int
) -> optim.LrPlan:
    """A guidance learning-rate plan whose floor (stage2_lr_min) and warmup
    start are clamped to base_lr, so a small rate needs neither changed."""
    return optim.LrPlan(
        base_lr=base_lr,
        min_lr=min(cfg.stage2_lr_min, base_lr),
        warmup_start_lr=min(cfg.warmup_start_lr, base_lr),
        warmup_epochs=warmup_epochs,
        total_epochs=max(epochs, warmup_epochs + 1),
    )


def _guidance_epoch_losses(
    model: gd.GuidanceModel,
    features: np.ndarray,
    labels: np.ndarray,
    batch: int,
    cfg: RunConfig,
    groups: list[tuple[list, optim.AdamState, optim.LrPlan]],
    epoch: int,
    rng: np.random.Generator,
) -> float:
    """One training epoch over shuffled minibatches; returns the mean loss."""
    n = features.shape[0]
    order = rng.permutation(n)
    losses = []
    all_params = [p for params, _, _ in groups for p in params]
    for start in range(0, n, batch):
        idx = order[start : start + batch]
        tape = GradTape()
        loss = gd.guidance_loss(
            features[idx], labels[idx], model, cfg.lambda_rank, cfg.margin, tape
        )
        value = loss.item()
        _check_finite_loss(value, f"guidance epoch {epoch}")
        grads = iter(backward(loss, tape, all_params))
        for params, state, plan in groups:
            lr = optim.lr_at(epoch, plan)
            optim.radam_step(params, [next(grads) for _ in params], state, lr)
        losses.append(value)
    return float(np.mean(losses))


def pretrain_base(
    source: Dataset, cfg: RunConfig, log: list[str]
) -> gd.GuidanceModel:
    """Fit encoder + prompts + scale on the source domain, then freeze the
    encoder. Stands in for generic pretrained guidance weights."""
    model = gd.GuidanceModel.build(
        source.d_in,
        cfg.hidden,
        cfg.d_model,
        source.k,
        cfg.rank,
        cfg.alpha,
        cfg.seed,
        frozen_base=False,
    )
    params = model.base_params() + model.prompt_params()
    plan = _guidance_plan(cfg.pretrain_lr, cfg, 0, cfg.pretrain_epochs)
    groups = [(params, optim.AdamState(), plan)]
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 41)))
    for epoch in range(cfg.pretrain_epochs):
        mean_loss = _guidance_epoch_losses(
            model, source.features, source.labels, cfg.pretrain_batch, cfg,
            groups, epoch, rng,
        )
        lr = optim.lr_at(epoch, plan)
        log.append(f"pretrain,{epoch},{lr:.8g},{mean_loss:.8g}")
    model.frozen_base = True
    return model


def train_stage1(
    data_dir: str | Path,
    cfg: RunConfig,
    out_path: str | Path,
    base_path: str | Path,
) -> dict:
    """LoRA + prompt adaptation of the frozen base on the target train split.

    The source-pretrained base checkpoint is loaded from base_path when it
    exists and produced by a built-in pretrain pass and saved there otherwise.
    The result's "model" is the adapted model saved to out_path.
    """
    cfg = cfg.resolved()
    base_path = Path(base_path)
    log: list[str] = []
    if base_path.exists():
        model, _, train, _ = load_run(data_dir, cfg, base_path)
        model.frozen_base = True
        found = (model.w1.rows, model.w2.rows, model.adapter.rank, model.adapter.alpha)
        wanted = (cfg.hidden, cfg.d_model, cfg.rank, cfg.alpha)
        if found != wanted:
            raise ConfigError(
                f"base checkpoint {base_path} has (hidden, d_model, rank, alpha) "
                f"= {found}, the config asks for {wanted}"
            )
    else:
        target = load_domain(data_dir, "target")
        train, _ = stratified_split(target, cfg.train_fraction, cfg.seed)
        model = pretrain_base(_source_like(data_dir, target), cfg, log)
        gd.save_guidance(base_path, model)

    frozen_hash_before = _hash_arrays([t.data for t in model.base_params()])

    lora_plan = _guidance_plan(cfg.lr_lora, cfg, cfg.warmup_epochs, cfg.stage1_epochs)
    prompt_plan = _guidance_plan(cfg.lr_prompt, cfg, cfg.warmup_epochs, cfg.stage1_epochs)
    groups = [
        (model.lora_params(), optim.AdamState(), lora_plan),
        (model.prompt_params(), optim.AdamState(), prompt_plan),
    ]
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 43)))
    for epoch in range(cfg.stage1_epochs):
        mean_loss = _guidance_epoch_losses(
            model, train.features, train.labels, cfg.stage1_batch, cfg,
            groups, epoch, rng,
        )
        preds = gd.predict_batch(train.features, model)
        acc = float(np.mean(preds == train.labels))
        lr = optim.lr_at(epoch, lora_plan)
        log.append(f"stage1,{epoch},{lr:.8g},{mean_loss:.8g},{acc:.6f}")

    frozen_hash_after = _hash_arrays([t.data for t in model.base_params()])
    gd.save_guidance(out_path, model)
    return {
        "log": log,
        "frozen_hash_before": frozen_hash_before,
        "frozen_hash_after": frozen_hash_after,
        "model": model,
    }


def train_stage2(
    data_dir: str | Path,
    guidance_ckpt: str | Path,
    cfg: RunConfig,
    out_path: str | Path,
) -> dict:
    """Train the noise predictor against frozen guidance conditioning; the
    result's "denoiser" is the (net, schedule) pair saved to out_path."""
    cfg = cfg.resolved()
    model, _, train, _ = load_run(data_dir, cfg, guidance_ckpt)
    if not model.frozen_base:
        raise DataError(f"guidance checkpoint {guidance_ckpt} is not marked frozen")
    guidance_hash_before = hashlib.sha256(
        Path(guidance_ckpt).read_bytes()
    ).hexdigest()
    f, d, prior = conditioning(model, train.features)
    y0 = _onehot(train.labels, train.k)

    sched = df.make_schedule(cfg.t_total, cfg.beta_start, cfg.beta_end)
    # the conditioning's width is the guidance model's, whatever cfg.d_model says
    net = df.DenoiserNet.build(model.w2.rows, train.k, cfg.seed)
    params = net.params()
    state = optim.AdamState(beta1=0.9)
    ema = optim.EmaState.from_params(params, cfg.ema_mu)
    plan = optim.LrPlan(
        base_lr=cfg.stage2_lr,
        min_lr=cfg.stage2_lr_min,
        warmup_start_lr=cfg.stage2_lr,
        warmup_epochs=0,
        total_epochs=max(cfg.stage2_epochs, 1),
    )
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 47)))
    log: list[str] = []
    n = train.n
    batch = cfg.stage2_batch
    for epoch in range(cfg.stage2_epochs):
        lr = optim.lr_at(epoch, plan)
        order = rng.permutation(n)
        # each item draws from the substream (batch step seed, item index);
        # the whole epoch's draws are made at once
        step_seeds = np.array([
            np.random.SeedSequence((cfg.seed, 53, epoch, b)).generate_state(1)[0]
            for b in range(-(-n // batch))
        ], dtype=np.uint32)
        t_values, eps = df.item_draws(
            step_seeds[np.arange(n) // batch], order, cfg.t_total, train.k
        )
        losses = []
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            rows = slice(start, start + batch)
            tape = GradTape()
            loss = df.epsilon_loss(
                net, f[idx], y0[idx], prior[idx], d[idx], sched,
                t_values[rows], eps[rows], tape,
            )
            value = loss.item()
            _check_finite_loss(value, f"stage2 epoch {epoch}")
            grads, _ = optim.clip_grad_norm(backward(loss, tape, params), cfg.clip)
            optim.adam_step(params, grads, state, lr)
            optim.ema_update(ema, params)
            losses.append(value)
        log.append(f"stage2,{epoch},{lr:.8g},{float(np.mean(losses)):.8g}")

    # the checkpoint holds the weight average, which inference runs
    for p, avg in zip(params, ema.shadow):
        p.data = avg
    df.save_denoiser(out_path, net, (cfg.t_total, cfg.beta_start, cfg.beta_end))
    guidance_hash_after = hashlib.sha256(Path(guidance_ckpt).read_bytes()).hexdigest()
    return {
        "log": log,
        "guidance_hash_before": guidance_hash_before,
        "guidance_hash_after": guidance_hash_after,
        "denoiser": (net, sched),
    }


# ---------------------------------------------------------------------------
# inference and evaluation


# rows per sampler call in _diffusion_predict, which bounds its memory: the
# desk eval (5,495 rows, 2-core box) peaked at 55 MB RSS with 512-row blocks,
# 59 MB with 1,024 and 121 MB with one block, and larger blocks ran no faster
ROW_BLOCK = 512


def _diffusion_predict(
    net: df.DenoiserNet,
    sched: df.NoiseSchedule,
    f: np.ndarray,
    d: np.ndarray,
    prior: np.ndarray,
    n_samples: int,
    seed: int,
    item_keys: np.ndarray,
) -> np.ndarray:
    """Average n_samples reverse chains per item and take the argmax (ties to
    the smaller index); per-(item, sample) RNG substreams make the result
    independent of how items are batched."""
    n, k = prior.shape
    keys = np.asarray(item_keys)
    # sample-major rows: row r is chain r // n of item r % n
    samples = np.repeat(np.arange(n_samples), n)
    items = np.tile(np.arange(n), n_samples)
    final = np.empty((n_samples * n, k))
    # equal blocks, so no block of one row takes numpy's matrix-vector path,
    # whose rounding differs from the matrix-matrix one
    blocks = -(-n_samples * n // ROW_BLOCK)
    for rows in np.array_split(np.arange(n_samples * n), blocks):
        idx = items[rows]
        rngs = df.chain_substreams(seed, zip(keys[idx], samples[rows]))
        final[rows], _ = df.sample_chain_batch(
            net, f[idx], d[idx], prior[idx], sched, rngs
        )
    acc = np.zeros_like(prior)
    for chain in final.reshape(n_samples, n, k):
        acc += chain
    return np.argmax(acc / n_samples, axis=1)


def evaluate(
    model: gd.GuidanceModel,
    denoiser: tuple[df.DenoiserNet, df.NoiseSchedule] | None,
    test: Dataset,
    cfg: RunConfig,
) -> dict:
    """Metrics report on a test split: zero-shot without a denoiser,
    multi-sample diffusion inference with a (net, schedule) pair."""
    cfg = cfg.resolved()
    if denoiser is None:
        preds = gd.predict_batch(test.features, model)
        mode = "zero-shot"
    else:
        f, d, prior = conditioning(model, test.features)
        preds = _diffusion_predict(
            *denoiser, f, d, prior, cfg.n_samples, cfg.seed,
            item_keys=np.arange(test.n),
        )
        mode = "diffusion"

    cm, acc, per_f1, macro = confusion_and_metrics(preds, test.labels, test.k)
    return {
        "mode": mode,
        "accuracy": acc,
        "macro_f1": macro,
        "per_class_f1": per_f1.tolist(),
        "confusion": cm.counts.tolist(),
        "n_eval": int(test.n),
        "seed": cfg.seed,
        "config_digest": cfg.digest(),
        "paper_reference": {
            "accuracy": PAPER_REFERENCE["accuracy"],
            "macro_f1": PAPER_REFERENCE["macro_f1"],
        },
    }


def ablate(data_dir: str | Path, cfg: RunConfig, out_path: str | Path) -> dict:
    """Three-row component ablation on one shared target test split. The rows
    score the models the two stages return; only the zero-shot row's base is
    read back, because stage 1 adapts the base model in place."""
    cfg = cfg.resolved()
    out_path = Path(out_path)
    work = out_path.parent
    work.mkdir(parents=True, exist_ok=True)
    target = load_domain(data_dir, "target")
    _, test = stratified_split(target, cfg.train_fraction, cfg.seed)
    split_hash = _hash_arrays([test.features, test.labels])

    # perfbench/harness.py reads the checkpoints under these .json names, so
    # they keep them until a change to the benchmark renames them too
    guidance_path = work / "ablate_guidance.json"
    base_path = work / "ablate_guidance.base.json"
    denoiser_path = work / "ablate_denoiser.json"

    stage1 = train_stage1(data_dir, cfg, guidance_path, base_path=base_path)
    stage2 = train_stage2(data_dir, guidance_path, cfg, denoiser_path)

    rows = []
    for name, model, denoiser in (
        ("zero-shot guidance (source pretraining only)",
         gd.load_guidance(base_path), None),
        ("+ low-rank adaptation", stage1["model"], None),
        ("+ label-space diffusion", stage1["model"], stage2["denoiser"]),
    ):
        rep = evaluate(model, denoiser, test, cfg)
        rows.append(
            {
                "configuration": name,
                "accuracy": rep["accuracy"],
                "macro_f1": rep["macro_f1"],
                "split_hash": split_hash,
                "config_digest": cfg.digest(),
            }
        )

    report = {
        "rows": rows,
        "seed": cfg.seed,
        "split_hash": split_hash,
        "config_digest": cfg.digest(),
        "paper_reference": {
            "accuracy_pct": PAPER_REFERENCE["ablation_accuracy_pct"],
            "macro_f1": PAPER_REFERENCE["ablation_f1"],
        },
        "stage1": {k: stage1[k] for k in ("frozen_hash_before", "frozen_hash_after")},
        "stage2": {
            k: stage2[k] for k in ("guidance_hash_before", "guidance_hash_after")
        },
    }
    write_json(out_path, report)
    return report


def export_trajectory(
    data_dir: str | Path,
    guidance_ckpt: str | Path,
    denoiser_ckpt: str | Path,
    steps: list[int] | None,
    out_path: str | Path,
    cfg: RunConfig,
) -> dict:
    """Record label-space chain states at chosen steps on the test split,
    project each step's point cloud to 2-D and score cluster separation.
    steps None records T, 4T/5, ..., 0 of the denoiser's schedule."""
    cfg = cfg.resolved()
    if steps is not None and not steps:
        raise ConfigError("steps list must not be empty")
    model, (net, sched), _, test = load_run(data_dir, cfg, guidance_ckpt, denoiser_ckpt)
    if steps is None:
        steps = [sched.t_total * i // 5 for i in range(5, -1, -1)]
    for t in steps:
        if not (0 <= t <= sched.t_total):
            raise ConfigError(f"step {t} outside [0, {sched.t_total}]")
    f, d, prior = conditioning(model, test.features)
    rngs = df.chain_substreams(cfg.seed, [(i, 0) for i in range(test.n)])
    _, snaps = df.sample_chain_batch(
        net, f, d, prior, sched, rngs, record_steps=set(steps)
    )

    lines = ["t,item_id,true_label,px,py"]
    silhouettes = {}
    for t in sorted(set(steps), reverse=True):
        proj = pca_project_2d(snaps[t])
        silhouettes[str(t)] = silhouette_score(proj, test.labels)
        for i in range(test.n):
            lines.append(
                f"{t},{i},{int(test.labels[i])},{float(proj[i, 0])!r},{float(proj[i, 1])!r}"
            )
    out_path = Path(out_path)
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    sil_doc = {
        "silhouette_by_step": silhouettes,
        "seed": cfg.seed,
        "config_digest": cfg.digest(),
    }
    write_json(str(out_path) + ".silhouette.json", sil_doc)
    return sil_doc
