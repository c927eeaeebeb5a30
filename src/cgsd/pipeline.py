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
from dataclasses import InitVar, asdict, dataclass
from functools import partial
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import data as dt
from . import diffusion as df
from . import guidance as gd
from . import optim
from .analysis import confusion_and_metrics, pca_project_2d, silhouette_score
from .data import Dataset, meta_beside, read_dataset, stratified_split, write_json
from .errors import ConfigError, DataError
from .numkit import GradTape, Tensor2, backward, check_finite, row_blocks, softmax_rows

PAPER_REFERENCE = {
    "accuracy": 0.875,
    "macro_f1": 0.731,
    "ablation_accuracy_pct": [77.3, 84.7, 87.5],
    "ablation_f1": [0.540, 0.686, 0.731],
}


@dataclass
class RunConfig:
    # a ClassVar is a fixed value, which no command varies and no caller sets
    # model
    hidden: ClassVar[int] = 128
    d_model: ClassVar[int] = 64
    rank: int = 8
    alpha: float = 16.0
    # source-domain pretraining of the base encoder
    pretrain_epochs: int = 60
    pretrain_lr: ClassVar[float] = 1e-3
    pretrain_batch: ClassVar[int] = 64
    # stage 1
    lr_lora: float = 1e-4
    lr_prompt: float = 2e-3
    warmup_start_lr: ClassVar[float] = 1e-5  # _lr_plan clamps it to each plan's rate
    stage1_epochs: int = 40
    stage1_batch: int = 64
    warmup_epochs: int = 3
    lambda_rank: float = 1.0
    margin: float = 0.05
    # stage 2
    t_total: int = 100
    beta_start: float = 1e-3
    beta_end: float = 0.2
    stage2_epochs: int = 60
    stage2_batch: int = 32
    stage2_lr: float = 3e-4
    stage2_lr_min: float = 1e-5
    clip: float = 1.0
    ema_mu: float = 0.99
    # inference / protocol
    n_samples: int = 5
    # reverse-chain steps K: a chain runs min(K, t_total) denoiser calls on
    # chain_grid's steps; scripts/seed_sweep.py's rule chose 25 (README)
    chain_steps: int = 25
    # the split fraction is the data's; perfbench/harness.py reads it here
    train_fraction = property(lambda self: dt.TRAIN_FRACTION)
    seed: int = 42
    # the retired preset's switch, which perfbench/harness.py still passes: the
    # defaults are its values, so it is accepted and changes nothing
    desk_preset: InitVar[bool] = False

    def __post_init__(self, desk_preset):
        least = {
            "pretrain_epochs": 0, "stage1_epochs": 0, "warmup_epochs": 0,
            "stage2_epochs": 0, "seed": 0, "rank": 1, "t_total": 1,
            "stage1_batch": 1, "stage2_batch": 1, "n_samples": 1, "chain_steps": 1,
        }
        for name, bound in least.items():
            value = getattr(self, name)
            if value < bound:
                raise ConfigError(f"{name} must be >= {bound}, got {value}")
        if self.rank > min(self.hidden, self.d_model):
            raise ConfigError(
                f"rank {self.rank} exceeds min(hidden={self.hidden}, d_model={self.d_model})"
            )
        if not (self.lambda_rank >= 0 and self.margin >= 0):
            raise ConfigError("lambda_rank and margin must be nonnegative")
        if not 0.0 <= self.ema_mu < 1.0:
            raise ConfigError(f"ema_mu must be in [0, 1), got {self.ema_mu}")
        for name in ("alpha", "lr_lora", "lr_prompt", "stage2_lr", "stage2_lr_min", "clip"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        if self.stage2_lr_min > self.stage2_lr:
            raise ConfigError(
                f"stage2_lr_min {self.stage2_lr_min} must not exceed "
                f"stage2_lr {self.stage2_lr}"
            )
        if not 0.0 < self.beta_start <= self.beta_end < 1.0:
            raise ConfigError(
                f"need 0 < beta_start <= beta_end < 1, got {self.beta_start}, {self.beta_end}"
            )
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")

    def resolved(self) -> "RunConfig":
        """The config itself; kept for perfbench/harness.py, which calls it."""
        return self

    def digest(self) -> str:
        """The hash of the settings and, under their former field names, the fixed
        values, with desk_preset as the true every desk report was hashed with."""
        fixed = ("hidden", "d_model", "pretrain_lr", "pretrain_batch", "warmup_start_lr",
                 "train_fraction")
        body = {**asdict(self), **{name: getattr(self, name) for name in fixed},
                "desk_preset": True}
        return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# helpers


def base_beside(out: str | Path) -> Path:
    """train_stage1's base checkpoint beside its out: g.npz's is g.base.npz."""
    return Path(out).with_suffix(".base" + Path(out).suffix)


def ablate_checkpoints(out: str | Path) -> tuple[Path, Path, Path]:
    """ablate's guidance, base and denoiser checkpoints beside out, under the
    .json names perfbench/harness.py reads."""
    guidance = Path(out).parent / "ablate_guidance.json"
    return guidance, base_beside(guidance), guidance.with_name("ablate_denoiser.json")


def silhouette_beside(out: str | Path) -> Path:
    """export_trajectory's silhouette report beside its CSV out."""
    return Path(str(out) + ".silhouette.json")


def _hash_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def domain_files(data_dir: str | Path, domain: str) -> tuple[Path, Path]:
    """The "source" or "target" domain's CSV under data_dir and its sidecar."""
    path = Path(data_dir) / f"{domain}.csv"
    return path, meta_beside(path)


def load_domain(data_dir: str | Path, domain: str) -> Dataset:
    """The benchmark's "source" or "target" domain, read from data_dir."""
    path = domain_files(data_dir, domain)[0]
    if not path.exists():
        raise DataError(f"benchmark not found under {data_dir}; run gen-data first")
    return read_dataset(path)


def _target_split(data_dir: str | Path) -> tuple[Dataset, Dataset]:
    """The target domain's one (train, test) split, seeded by the data, not the run."""
    return stratified_split(load_domain(data_dir, "target"))


def _source_like(data_dir: str | Path, target: Dataset) -> Dataset:
    """The source domain, refused unless its width and grade count are those
    of target (the target domain or a split of it)."""
    source = load_domain(data_dir, "source")
    if (source.d_in, source.k) != (target.d_in, target.k):
        raise DataError(
            f"{domain_files(data_dir, 'source')[0]} has d_in={source.d_in}, k={source.k}; "
            f"{domain_files(data_dir, 'target')[0]} has d_in={target.d_in}, k={target.k}"
        )
    return source


def similarities(model: gd.GuidanceModel, features: np.ndarray):
    """The encoded feature rows f and their grade similarities d, encoded in
    row_blocks: the package's one full-split encode."""
    n = features.shape[0]
    f, d = np.empty((n, model.w2.rows)), np.empty((n, model.k))
    pt = model.head()[0]
    for rows in row_blocks(n):
        f[rows] = model.encode_batch(features[rows]).data
        d[rows] = f[rows] @ pt
    return f, d


def conditioning(model: gd.GuidanceModel, features: np.ndarray):
    """Frozen-guidance conditioning arrays (f, d, prior) for feature rows: the
    similarities and their prior, a softmax that works row by row, so it is
    taken over all rows at once."""
    f, d = similarities(model, features)
    prior = softmax_rows(Tensor2(model.head()[3] * d)).data
    return f, d, check_finite(prior, "the guidance prior")


def load_run(
    data_dir: str | Path,
    guidance_ckpt: str | Path,
    denoiser_ckpt: str | Path | None = None,
) -> tuple[gd.GuidanceModel, tuple | None, Dataset, Dataset]:
    """A run's inputs: the guidance model, the (net, schedule) pair (None
    without a denoiser checkpoint) and the target train and test splits;
    checkpoints whose widths or grade count do not fit the data are refused."""
    model = gd.load_guidance(guidance_ckpt)
    train, test = _target_split(data_dir)
    if model.d_in != train.d_in or model.k != train.k:
        raise DataError(
            f"guidance checkpoint expects d_in={model.d_in}, k={model.k}; "
            f"data has d_in={train.d_in}, k={train.k}"
        )
    if denoiser_ckpt is None:
        return model, None, train, test
    net, sched = df.load_denoiser(denoiser_ckpt)
    if net.d_model != model.w2.rows or net.k != train.k:
        raise DataError(
            f"denoiser checkpoint expects d_model={net.d_model}, k={net.k}; "
            f"guidance has d_model={model.w2.rows}, data has k={train.k}"
        )
    return model, (net, sched), train, test


GUIDANCE_LR_MIN = 1e-5  # the guidance plans' floor, stage2_lr_min's default; no field moves it


def _lr_plan(base_lr: float, warmup_epochs: int, epochs: int,
             min_lr: float = GUIDANCE_LR_MIN) -> optim.LrPlan:
    """The plan of base_lr, a checked rate, floored at min_lr. Clamping that floor
    and the warmup start to base_lr and the epoch count up give every plan
    0 < min_lr <= base_lr and warmup_epochs < total_epochs."""
    return optim.LrPlan(base_lr, min(min_lr, base_lr), min(RunConfig.warmup_start_lr, base_lr),
                        warmup_epochs, max(epochs, warmup_epochs + 1))


def _fit(stage, flat, step, plans, n, batch, epochs, cfg, tag, batch_loss, log, note) -> None:
    """Every stage's training epochs. Per epoch: each group's rate from its plan
    (over flat.spans; a scalar for one group), a (seed, tag) shuffle of n rows,
    and per batch of it batch_loss(epoch)(idx, tape) on a fresh tape, checked
    finite, backward into flat's gradient buffer and step(rate); then the log
    line stage,epoch,rate (the first group's),mean loss and note()."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, tag)))
    sizes = [span.stop - span.start for span in flat.spans]
    for epoch in range(epochs):
        lrs = [optim.lr_at(epoch, plan) for plan in plans]
        rate = lrs[0] if len(lrs) == 1 else np.repeat(lrs, sizes)
        loss_of, order, losses = batch_loss(epoch), rng.permutation(n), []
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            tape = GradTape()
            loss = loss_of(idx, tape)
            losses.append(check_finite(loss.item(), f"the loss of {stage} epoch {epoch}"))
            backward(loss, tape, flat.params, out=flat.grads)
            step(rate)
        log.append(f"{stage},{epoch},{lrs[0]:.8g},{np.mean(losses):.8g}{note()}")


def _train_guidance(stage, model: gd.GuidanceModel, groups, lrs, warmup_epochs, data: Dataset,
                    batch, epochs, cfg: RunConfig, tag, log, note=lambda: "") -> None:
    """The guidance trainer of source pretraining and stage 1: RAdam over the
    groups laid end to end, group i on the plan of rate lrs[i], and
    guidance_loss on data's rows."""
    flat = optim.FlatParams(*groups)
    plans = [_lr_plan(lr, warmup_epochs, epochs) for lr in lrs]
    step = partial(optim.radam_step, flat.data, flat.grad, optim.AdamState())
    _fit(stage, flat, step, plans, data.n, batch, epochs, cfg, tag,
         lambda epoch: lambda idx, tape: gd.guidance_loss(
             data.features[idx], data.labels[idx], model, cfg.lambda_rank, cfg.margin, tape),
         log, note)


def pretrain_base(source: Dataset, cfg: RunConfig, log: list[str]) -> gd.GuidanceModel:
    """Fit encoder + prompts + scale on the source domain, then freeze the
    encoder. Stands in for generic pretrained guidance weights."""
    model = gd.GuidanceModel.build(source.d_in, cfg.hidden, cfg.d_model, source.k, cfg.rank,
                                   cfg.alpha, cfg.seed)
    _train_guidance("pretrain", model, [model.base_params() + model.prompt_params()],
                    [cfg.pretrain_lr], 0, source, cfg.pretrain_batch, cfg.pretrain_epochs,
                    cfg, 41, log)
    model.frozen_base = True
    return model


def train_stage1(
    data_dir: str | Path,
    cfg: RunConfig,
    out_path: str | Path,
    base_path: str | Path,
) -> dict:
    """LoRA + prompt adaptation of the frozen base on the target train split.

    The base is pretrained on the source domain and saved to base_path, which
    is written, never read. The result's "model" is the adapted model saved
    to out_path, and its "test" the target test split.
    """
    log: list[str] = []
    train, test = _target_split(data_dir)
    model = pretrain_base(_source_like(data_dir, train), cfg, log)
    gd.save_guidance(base_path, model)

    frozen_hash_before = _hash_arrays([t.data for t in model.base_params()])

    def accuracy() -> str:
        preds = np.argmax(similarities(model, train.features)[1], axis=1)
        return f",{np.mean(preds == train.labels):.6f}"

    # the adapter on lr_lora's plan, the prompts and log scale on lr_prompt's;
    # each log line ends in the epoch's accuracy on the train split
    _train_guidance("stage1", model, [model.lora_params(), model.prompt_params()],
                    [cfg.lr_lora, cfg.lr_prompt], cfg.warmup_epochs, train, cfg.stage1_batch,
                    cfg.stage1_epochs, cfg, 43, log, accuracy)
    frozen_hash_after = _hash_arrays([t.data for t in model.base_params()])
    gd.save_guidance(out_path, model)
    return {"log": log, "frozen_hash_before": frozen_hash_before,
            "frozen_hash_after": frozen_hash_after, "model": model, "test": test}


def train_stage2(
    data_dir: str | Path,
    guidance_ckpt: str | Path,
    cfg: RunConfig,
    out_path: str | Path,
) -> dict:
    """Train the noise predictor against frozen guidance conditioning; the
    result's "denoiser" is the (net, schedule) pair saved to out_path."""
    model, _, train, _ = load_run(data_dir, guidance_ckpt)
    if not model.frozen_base:
        raise DataError(f"guidance checkpoint {guidance_ckpt} is not marked frozen")
    guidance_hash_before = hashlib.sha256(Path(guidance_ckpt).read_bytes()).hexdigest()
    f, d, prior = conditioning(model, train.features)
    y0 = np.eye(train.k)[train.labels]

    sched = df.make_schedule(cfg.t_total, cfg.beta_start, cfg.beta_end)
    # the conditioning's width is the guidance model's, whatever RunConfig.d_model says
    net = df.DenoiserNet.build(model.w2.rows, train.k, cfg.seed)
    flat = optim.FlatParams(net.params())
    state = optim.AdamState()
    ema = optim.EmaState.from_params(flat.data, cfg.ema_mu)
    log: list[str] = []

    # a step clips the gradient, then takes Adam's step, then averages the weights
    def step(lr):
        optim.clip_grad_norm(flat, cfg.clip)
        optim.adam_step(flat.data, flat.grad, state, lr)
        optim.ema_update(ema, flat.data)

    # item i's timestep and noise are row i of the epoch's draws, so they
    # depend on (seed, epoch, item) alone, never on the item's batch
    def batch_loss(epoch):
        draws = np.random.default_rng(np.random.SeedSequence((cfg.seed, 53, epoch)))
        t_values = draws.integers(1, cfg.t_total + 1, train.n)
        eps = draws.standard_normal((train.n, train.k))
        return lambda idx, tape: df.epsilon_loss(net, f[idx], y0[idx], prior[idx], d[idx],
                                                 sched, t_values[idx], eps[idx], tape)

    plan = _lr_plan(cfg.stage2_lr, 0, cfg.stage2_epochs, cfg.stage2_lr_min)
    _fit("stage2", flat, step, [plan], train.n, cfg.stage2_batch, cfg.stage2_epochs, cfg, 47,
         batch_loss, log, lambda: "")

    # the checkpoint holds the weight average, which inference runs
    np.copyto(flat.data, ema.shadow)
    df.save_denoiser(out_path, net, (cfg.t_total, cfg.beta_start, cfg.beta_end))
    guidance_hash_after = hashlib.sha256(Path(guidance_ckpt).read_bytes()).hexdigest()
    return {"log": log, "guidance_hash_before": guidance_hash_before,
            "guidance_hash_after": guidance_hash_after, "denoiser": (net, sched)}


# ---------------------------------------------------------------------------
# inference and evaluation


def evaluate(
    model: gd.GuidanceModel,
    denoiser: tuple[df.DenoiserNet, df.NoiseSchedule] | None,
    test: Dataset,
    cfg: RunConfig,
) -> dict:
    """Metrics report on a test split: the argmax of the grade similarities
    (zero-shot) without a denoiser, of the mean of multi-sample diffusion
    inference with a (net, schedule) pair; nfe_per_chain is each chain's
    denoiser calls, min(chain_steps, T), and 0 for zero-shot."""
    f, scores, prior = conditioning(model, test.features)
    nfe = 0
    if denoiser is not None:
        scores, _ = df.sample_chains(*denoiser, f, scores, prior, cfg.seed, np.arange(test.n),
                                     cfg.chain_steps, cfg.n_samples)
        nfe = min(cfg.chain_steps, denoiser[1].t_total)
    preds = np.argmax(scores, axis=1)  # ties go to the smaller grade
    mode = "zero-shot" if denoiser is None else "diffusion"

    counts, acc, per_f1, macro, qwk, mae = confusion_and_metrics(preds, test.labels, test.k)
    return {
        "mode": mode,
        "accuracy": acc,
        "macro_f1": macro,
        "qwk": qwk,
        "mean_abs_grade_error": mae,
        "per_class_f1": per_f1.tolist(),
        "confusion": counts.tolist(),
        "n_eval": int(test.n),
        "nfe_per_chain": nfe,
        "seed": cfg.seed,
        "config_digest": cfg.digest(),
        "paper_reference": {k: PAPER_REFERENCE[k] for k in ("accuracy", "macro_f1")},
    }


def ablate(data_dir: str | Path, cfg: RunConfig, out_path: str | Path) -> dict:
    """Three-row component ablation on one shared target test split, from a
    fresh source pretraining. The rows score the models the two stages
    return on stage 1's test split; only the zero-shot row's base is read
    back, because stage 1 adapts the base model in place. The checkpoints go
    beside out_path (ablate_checkpoints), whose directory must exist."""
    guidance_path, base_path, denoiser_path = ablate_checkpoints(out_path)
    stage1 = train_stage1(data_dir, cfg, guidance_path, base_path=base_path)
    stage2 = train_stage2(data_dir, guidance_path, cfg, denoiser_path)
    test = stage1["test"]
    split_hash = _hash_arrays([test.features, test.labels])

    rows = []
    for name, model, denoiser in (
        ("zero-shot guidance (source pretraining only)",
         gd.load_guidance(base_path), None),
        ("+ low-rank adaptation", stage1["model"], None),
        ("+ label-space diffusion", stage1["model"], stage2["denoiser"]),
    ):
        rep = evaluate(model, denoiser, test, cfg)
        rows.append({"configuration": name, "accuracy": rep["accuracy"],
                     "macro_f1": rep["macro_f1"], "qwk": rep["qwk"], "split_hash": split_hash,
                     "config_digest": cfg.digest()})

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
        "stage2": {k: stage2[k] for k in ("guidance_hash_before", "guidance_hash_after")},
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
    Every step must lie on the chain's grid, chain_grid(T, cfg.chain_steps)
    of K steps; steps None records its steps T * (K * i // 5) // K for
    i = 5 ... 0, which are T, 4T/5, ..., 0 when 5 divides K."""
    if steps is not None and not steps:
        raise ConfigError("steps list must not be empty")
    model, (net, sched), _, test = load_run(data_dir, guidance_ckpt, denoiser_ckpt)
    grid = df.chain_grid(sched.t_total, cfg.chain_steps)
    if steps is None:
        k = len(grid) - 1
        steps = sorted({sched.t_total * (k * i // 5) // k for i in range(6)}, reverse=True)
    for t in steps:
        # any other step would export chain states that were never written
        integral = isinstance(t, (int, np.integer)) and not isinstance(t, bool)
        if not (integral and 0 <= t <= sched.t_total):
            raise ConfigError(f"step {t!r} is not an integer in [0, {sched.t_total}]")
        if t not in grid:
            raise ConfigError(
                f"step {t} is not on the chain's {len(grid) - 1}-step grid of stride "
                f"{sched.t_total / (len(grid) - 1):g} (chain_steps {cfg.chain_steps}, "
                f"T = {sched.t_total})")
    f, d, prior = conditioning(model, test.features)
    # one chain per item: chain 0, the first of those evaluate averages
    _, states = df.sample_chains(net, sched, f, d, prior, cfg.seed, np.arange(test.n),
                                 cfg.chain_steps, 1, steps)

    lines = ["t,item_id,true_label,px,py"]
    silhouettes = {}
    labels = test.labels.tolist()
    for t in sorted(set(steps), reverse=True):
        proj = pca_project_2d(states[t][0])
        silhouettes[str(t)] = silhouette_score(proj, test.labels)
        # Python floats, whose repr is the float64's shortest round trip
        lines.extend(f"{t},{i},{label},{px!r},{py!r}"
                     for i, (label, (px, py)) in enumerate(zip(labels, proj.tolist())))
    Path(out_path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    sil_doc = {"silhouette_by_step": silhouettes, "seed": cfg.seed, "config_digest": cfg.digest()}
    write_json(silhouette_beside(out_path), sil_doc)
    return sil_doc
