"""Orchestration: source-domain pretraining, two-stage training, evaluation,
the three-row ablation and trajectory export.

Stage 1 adapts the guidance model (adapter + prompts + logit scale) on the
target train split with the frozen source-pretrained encoder. Stage 2 trains
the denoiser against the frozen stage-1 guidance; no gradient ever reaches
guidance weights, which is asserted by hashing. Every command is a pure
function of (config, seed, input files).
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
from .data import Dataset, read_dataset, stratified_split
from .errors import ConfigError, DataError, NumericError
from .numkit import GradTape, Tensor2, backward, softmax_rows

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
            "pretrain_batch": 1, "stage1_batch": 1, "stage2_batch": 1,
        }
        for name, bound in least.items():
            value = getattr(self, name)
            if value < bound:
                raise ConfigError(f"{name} must be >= {bound}, got {value}")
        if not (self.lambda_rank >= 0 and self.margin >= 0):
            raise ConfigError("lambda_rank and margin must be nonnegative")
        if not 0.0 <= self.ema_mu < 1.0:
            raise ConfigError(f"ema_mu must be in [0, 1), got {self.ema_mu}")

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


def load_domains(data_dir: str | Path) -> tuple[Dataset, Dataset]:
    data_dir = Path(data_dir)
    src = data_dir / "source.csv"
    tgt = data_dir / "target.csv"
    if not src.exists() or not tgt.exists():
        raise DataError(f"benchmark not found under {data_dir}; run gen-data first")
    return read_dataset(src), read_dataset(tgt)


def _onehot(labels: np.ndarray, k: int) -> np.ndarray:
    return np.eye(k)[labels]


def conditioning(model: gd.GuidanceModel, features: np.ndarray):
    """Frozen-guidance conditioning arrays (f, d, prior) for a feature batch."""
    f = model.encode_batch(features)
    d = model.similarity_batch(f)
    prior = softmax_rows(Tensor2(model.scale_value() * d.data))
    return f.data, d.data, prior.data


def _check_dims(
    model: gd.GuidanceModel, data: Dataset, net: df.DenoiserNet | None = None
) -> None:
    """Reject checkpoints whose input width or grade count differs from the data's."""
    if model.d_in != data.d_in or model.k != data.k:
        raise DataError(
            f"guidance checkpoint expects d_in={model.d_in}, k={model.k}; "
            f"data has d_in={data.d_in}, k={data.k}"
        )
    if net is not None and (net.d_model != model.w2.rows or net.k != data.k):
        raise DataError(
            f"denoiser checkpoint expects d_model={net.d_model}, k={net.k}; "
            f"guidance has d_model={model.w2.rows}, data has k={data.k}"
        )


def _check_finite_loss(value: float, where: str) -> None:
    if not np.isfinite(value):
        raise NumericError(f"non-finite loss in {where}")


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
        tape.watch(*all_params)
        for p in all_params:
            p.zero_grad()
        loss = gd.guidance_loss(
            features[idx], labels[idx], model, cfg.lambda_rank, cfg.margin, tape
        )
        value = loss.item()
        _check_finite_loss(value, f"guidance epoch {epoch}")
        backward(loss, tape)
        for params, state, plan in groups:
            lr = optim.lr_at(epoch, plan)
            grads = [p.grad for p in params]
            optim.radam_step(params, grads, state, lr)
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
    plan = optim.LrPlan(
        base_lr=cfg.pretrain_lr,
        min_lr=cfg.stage2_lr_min,
        warmup_start_lr=cfg.warmup_start_lr,
        warmup_epochs=0,
        total_epochs=max(cfg.pretrain_epochs, 1),
    )
    groups = [(params, optim.AdamState(), plan)]
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 41)))
    for epoch in range(cfg.pretrain_epochs):
        mean_loss = _guidance_epoch_losses(
            model, source.features, source.labels, cfg.pretrain_batch, cfg,
            groups, epoch, rng,
        )
        lr = optim.lr_at(epoch, plan)
        log.append(f"pretrain,{epoch},{lr:.8g},{mean_loss:.8g}")
    model.freeze_base()
    return model


def train_stage1(
    data_dir: str | Path,
    cfg: RunConfig,
    out_path: str | Path,
    base_path: str | Path | None = None,
) -> dict:
    """LoRA + prompt adaptation of the frozen base on the target train split.

    The source-pretrained base checkpoint is loaded from base_path when it
    exists and produced by a built-in pretrain pass otherwise.
    """
    cfg = cfg.resolved()
    out_path = Path(out_path)
    if base_path is None:
        base_path = out_path.parent / (out_path.stem + ".base.json")
    base_path = Path(base_path)

    source, target = load_domains(data_dir)
    train, _ = stratified_split(target, cfg.train_fraction, cfg.seed)

    log: list[str] = []
    if base_path.exists():
        model, _ = gd.load_guidance(base_path)
        _check_dims(model, target)
        found = (model.w1.rows, model.w2.rows, model.adapter.rank, model.adapter.alpha)
        wanted = (cfg.hidden, cfg.d_model, cfg.rank, cfg.alpha)
        if found != wanted:
            raise ConfigError(
                f"base checkpoint {base_path} has (hidden, d_model, rank, alpha) "
                f"= {found}, the config asks for {wanted}"
            )
    else:
        model = pretrain_base(source, cfg, log)
        gd.save_guidance(base_path, model, frozen=True)

    frozen_hash_before = _hash_arrays([t.data for t in model.base_params()])

    lora_plan = optim.LrPlan(
        base_lr=cfg.lr_lora,
        min_lr=min(cfg.stage2_lr_min, cfg.lr_lora),
        warmup_start_lr=min(cfg.warmup_start_lr, cfg.lr_lora),
        warmup_epochs=cfg.warmup_epochs,
        total_epochs=max(cfg.stage1_epochs, cfg.warmup_epochs + 1),
    )
    prompt_plan = optim.LrPlan(
        base_lr=cfg.lr_prompt,
        min_lr=cfg.stage2_lr_min,
        warmup_start_lr=cfg.warmup_start_lr,
        warmup_epochs=cfg.warmup_epochs,
        total_epochs=max(cfg.stage1_epochs, cfg.warmup_epochs + 1),
    )
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
    gd.save_guidance(out_path, model, frozen=True)
    return {
        "log": log,
        "frozen_hash_before": frozen_hash_before,
        "frozen_hash_after": frozen_hash_after,
        "checkpoint": str(out_path),
        "base_checkpoint": str(base_path),
    }


def train_stage2(
    data_dir: str | Path,
    guidance_ckpt: str | Path,
    cfg: RunConfig,
    out_path: str | Path,
) -> dict:
    """Train the noise predictor against frozen guidance conditioning."""
    cfg = cfg.resolved()
    model, frozen = gd.load_guidance(guidance_ckpt)
    if not frozen:
        raise DataError(f"guidance checkpoint {guidance_ckpt} is not marked frozen")
    guidance_hash_before = hashlib.sha256(
        Path(guidance_ckpt).read_bytes()
    ).hexdigest()

    _, target = load_domains(data_dir)
    _check_dims(model, target)
    train, _ = stratified_split(target, cfg.train_fraction, cfg.seed)
    f, d, prior = conditioning(model, train.features)
    y0 = _onehot(train.labels, target.k)

    sched = df.make_schedule(cfg.t_total, cfg.beta_start, cfg.beta_end)
    net = df.DenoiserNet.build(cfg.d_model, target.k, cfg.seed)
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
    for epoch in range(cfg.stage2_epochs):
        lr = optim.lr_at(epoch, plan)
        order = rng.permutation(n)
        losses = []
        for b, start in enumerate(range(0, n, cfg.stage2_batch)):
            idx = order[start : start + cfg.stage2_batch]
            step_seed = int(
                np.random.SeedSequence((cfg.seed, 53, epoch, b)).generate_state(1)[0]
            )
            tape = GradTape()
            tape.watch(*params)
            for p in params:
                p.zero_grad()
            loss = df.epsilon_loss(
                net, f[idx], y0[idx], prior[idx], d[idx], sched,
                seed=step_seed, item_keys=idx, tape=tape,
            )
            value = loss.item()
            _check_finite_loss(value, f"stage2 epoch {epoch}")
            backward(loss, tape)
            grads = [p.grad for p in params]
            grads, _ = optim.clip_grad_norm(grads, cfg.clip)
            optim.adam_step(params, grads, state, lr)
            optim.ema_update(ema, params)
            losses.append(value)
        log.append(f"stage2,{epoch},{lr:.8g},{float(np.mean(losses)):.8g}")

    df.save_denoiser(
        out_path,
        net,
        (cfg.t_total, cfg.beta_start, cfg.beta_end),
        ema_weights=ema.shadow,
    )
    guidance_hash_after = hashlib.sha256(Path(guidance_ckpt).read_bytes()).hexdigest()
    return {
        "log": log,
        "guidance_hash_before": guidance_hash_before,
        "guidance_hash_after": guidance_hash_after,
        "checkpoint": str(out_path),
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
    if n_samples < 1:
        raise ConfigError(f"n_samples must be >= 1, got {n_samples}")
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
    data_dir: str | Path,
    guidance_ckpt: str | Path,
    denoiser_ckpt: str | Path | None,
    cfg: RunConfig,
    report_path: str | Path | None = None,
) -> dict:
    """Metrics report on the target test split; zero-shot without a denoiser,
    multi-sample diffusion inference with one."""
    cfg = cfg.resolved()
    model, _ = gd.load_guidance(guidance_ckpt)
    _, target = load_domains(data_dir)
    _check_dims(model, target)
    _, test = stratified_split(target, cfg.train_fraction, cfg.seed)

    if denoiser_ckpt is None:
        preds = gd.predict_batch(test.features, model)
        mode = "zero-shot"
    else:
        net, sched = df.load_denoiser(denoiser_ckpt, use_ema=True)
        _check_dims(model, target, net)
        f, d, prior = conditioning(model, test.features)
        preds = _diffusion_predict(
            net, sched, f, d, prior, cfg.n_samples, cfg.seed,
            item_keys=np.arange(test.n),
        )
        mode = "diffusion"

    cm, acc, per_f1, macro = confusion_and_metrics(preds, test.labels, test.k)
    report = {
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
    if report_path is not None:
        Path(report_path).write_text(
            json.dumps(report, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
            newline="\n",
        )
    return report


def ablate(data_dir: str | Path, cfg: RunConfig, out_path: str | Path) -> dict:
    """Three-row component ablation on one shared target test split."""
    cfg = cfg.resolved()
    out_path = Path(out_path)
    work = out_path.parent
    work.mkdir(parents=True, exist_ok=True)
    _, target = load_domains(data_dir)
    _, test = stratified_split(target, cfg.train_fraction, cfg.seed)
    split_hash = _hash_arrays([test.features, test.labels])

    guidance_path = work / "ablate_guidance.json"
    base_path = work / "ablate_guidance.base.json"
    denoiser_path = work / "ablate_denoiser.json"

    stage1 = train_stage1(data_dir, cfg, guidance_path, base_path=base_path)
    stage2 = train_stage2(data_dir, guidance_path, cfg, denoiser_path)

    rows = []
    for name, g_ckpt, d_ckpt in (
        ("zero-shot guidance (source pretraining only)", base_path, None),
        ("+ low-rank adaptation", guidance_path, None),
        ("+ label-space diffusion", guidance_path, denoiser_path),
    ):
        rep = evaluate(data_dir, g_ckpt, d_ckpt, cfg)
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
    out_path.write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
        newline="\n",
    )
    return report


# the steps export-trajectory records unless told otherwise: the desk
# schedule's t_total down to 0
TRAJECTORY_STEPS = (100, 80, 60, 40, 20, 0)


def export_trajectory(
    data_dir: str | Path,
    guidance_ckpt: str | Path,
    denoiser_ckpt: str | Path,
    steps: list[int],
    out_path: str | Path,
    cfg: RunConfig,
) -> dict:
    """Record label-space chain states at chosen steps on the test split,
    project each step's point cloud to 2-D and score cluster separation."""
    cfg = cfg.resolved()
    if not steps:
        raise ConfigError("steps list must not be empty")
    model, _ = gd.load_guidance(guidance_ckpt)
    net, sched = df.load_denoiser(denoiser_ckpt, use_ema=True)
    for t in steps:
        if not (0 <= t <= sched.t_total):
            raise ConfigError(f"step {t} outside [0, {sched.t_total}]")

    _, target = load_domains(data_dir)
    _check_dims(model, target, net)
    _, test = stratified_split(target, cfg.train_fraction, cfg.seed)
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
    Path(str(out_path) + ".silhouette.json").write_text(
        json.dumps(sil_doc, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
        newline="\n",
    )
    return sil_doc
