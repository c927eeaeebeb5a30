"""Command-line entry point.

Every subcommand accepts --config FILE, a JSON document whose keys mirror the
flag names (without the leading dashes); explicit flags override file values.
Exit codes: 0 success, 2 configuration error, 3 data/parse error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import pipeline
from .data import SyntheticConfig, gen_synthetic, write_dataset
from .errors import ConfigError, DataError, NumericError

# flag name -> (type, default); default None means required
_SPECS: dict[str, dict[str, tuple]] = {
    "gen-data": {
        "out": (str, None),
        "n": (int, 3662),
        "d": (int, 64),
        "k": (int, 5),
        "proportions": (str, "0.50,0.10,0.27,0.05,0.08"),
        "delta": (float, 4.0),
        "sigma": (float, 1.0),
        "shift-angle": (float, 0.5),
        "shift-bias": (float, 0.5),
        "seed": (int, 42),
    },
    "train-guidance": {
        "data": (str, None),
        "out": (str, None),
        "rank": (int, 8),
        "alpha": (float, 16.0),
        "epochs": (int, 22),
        "batch": (int, 64),
        "lr-lora": (float, 1e-4),
        "lr-prompt": (float, 2e-3),
        "warmup": (int, 3),
        "lambda-rank": (float, 1.0),
        "margin": (float, 0.05),
        "seed": (int, 42),
    },
    "train-diffusion": {
        "data": (str, None),
        "guidance": (str, None),
        "out": (str, None),
        "timesteps": (int, 1000),
        "epochs": (int, 500),
        "batch": (int, 32),
        "lr": (float, 3e-4),
        "lr-min": (float, 1e-5),
        "clip": (float, 1.0),
        "ema": (float, 0.9999),
        "seed": (int, 42),
    },
    "eval": {
        "data": (str, None),
        "guidance": (str, None),
        "diffusion": (str, ""),
        "samples": (int, 5),
        "report": (str, None),
        "seed": (int, 42),
    },
    "ablate": {
        "data": (str, None),
        "out": (str, None),
        "desk-preset": (bool, False),
        "seed": (int, 42),
    },
    "export-trajectory": {
        "data": (str, None),
        "guidance": (str, None),
        "diffusion": (str, None),
        "steps": (str, "100,80,60,40,20,0"),
        "out": (str, None),
        "seed": (int, 42),
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgsd",
        description="Two-stage semantic-guided label-space diffusion classifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _SPECS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        for flag, (typ, _) in spec.items():
            if typ is bool:
                p.add_argument(f"--{flag}", action="store_true", default=None)
            else:
                p.add_argument(f"--{flag}", type=typ, default=None)
    return parser


def _merge(command: str, args: argparse.Namespace) -> dict:
    spec = _SPECS[command]
    values = {flag: default for flag, (_, default) in spec.items()}
    if args.config:
        cfg_path = Path(args.config)
        if not cfg_path.exists():
            raise ConfigError(f"config file not found: {cfg_path}")
        try:
            doc = json.loads(cfg_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}")
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, val in doc.items():
            if key not in spec:
                raise ConfigError(f"unknown config key '{key}' for {command}")
            typ = spec[key][0]
            try:
                values[key] = bool(val) if typ is bool else typ(val)
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(
                    f"config key '{key}' needs a {typ.__name__}, got {val!r}"
                ) from None
    for flag in spec:
        cli_val = getattr(args, flag.replace("-", "_"))
        if cli_val is not None:
            values[flag] = cli_val
    missing = [f for f, v in values.items() if v is None]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join('--' + m for m in missing)}")
    return values


def _parse_proportions(text: str, k: int) -> tuple[float, ...]:
    try:
        props = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse proportions '{text}'")
    if len(props) != k:
        raise ConfigError(f"proportions length {len(props)} != k={k}")
    return props


def _write_log(out: str, lines: list[str]) -> None:
    Path(str(out) + ".log").write_text(
        "\n".join(lines) + "\n", encoding="utf-8", newline="\n"
    )
    for line in lines:
        print(line)


def _cmd_gen_data(v: dict) -> None:
    cfg = SyntheticConfig(
        n=v["n"],
        d_in=v["d"],
        k=v["k"],
        seed=v["seed"],
        proportions=_parse_proportions(v["proportions"], v["k"]),
        separation=v["delta"],
        noise=v["sigma"],
        shift_angle=v["shift-angle"],
        shift_bias=v["shift-bias"],
    )
    out = Path(v["out"])
    out.mkdir(parents=True, exist_ok=True)
    source, target = gen_synthetic(cfg)
    write_dataset(out / "source.csv", source)
    write_dataset(out / "target.csv", target)
    print(f"wrote {source.n}+{target.n} samples to {out}")


def _cmd_train_guidance(v: dict) -> None:
    cfg = pipeline.RunConfig(
        rank=v["rank"],
        alpha=v["alpha"],
        stage1_epochs=v["epochs"],
        stage1_batch=v["batch"],
        lr_lora=v["lr-lora"],
        lr_prompt=v["lr-prompt"],
        warmup_epochs=v["warmup"],
        lambda_rank=v["lambda-rank"],
        margin=v["margin"],
        seed=v["seed"],
    )
    result = pipeline.train_stage1(v["data"], cfg, v["out"])
    _write_log(v["out"], result["log"])


def _cmd_train_diffusion(v: dict) -> None:
    cfg = pipeline.RunConfig(
        t_total=v["timesteps"],
        stage2_epochs=v["epochs"],
        stage2_batch=v["batch"],
        stage2_lr=v["lr"],
        stage2_lr_min=v["lr-min"],
        clip=v["clip"],
        ema_mu=v["ema"],
        seed=v["seed"],
    )
    result = pipeline.train_stage2(v["data"], v["guidance"], cfg, v["out"])
    _write_log(v["out"], result["log"])


def _cmd_eval(v: dict) -> None:
    cfg = pipeline.RunConfig(n_samples=v["samples"], seed=v["seed"])
    denoiser = v["diffusion"] or None
    report = pipeline.evaluate(v["data"], v["guidance"], denoiser, cfg, v["report"])
    print(json.dumps(report, sort_keys=True, indent=2))


def _cmd_ablate(v: dict) -> None:
    cfg = pipeline.RunConfig(seed=v["seed"], desk_preset=bool(v["desk-preset"]))
    report = pipeline.ablate(v["data"], cfg, v["out"])
    for row in report["rows"]:
        print(
            f"{row['configuration']}: accuracy={row['accuracy']:.4f} "
            f"macro_f1={row['macro_f1']:.4f}"
        )


def _cmd_export_trajectory(v: dict) -> None:
    try:
        steps = [int(x) for x in str(v["steps"]).split(",") if x != ""]
    except ValueError:
        raise ConfigError(f"cannot parse steps '{v['steps']}'")
    cfg = pipeline.RunConfig(seed=v["seed"])
    doc = pipeline.export_trajectory(
        v["data"], v["guidance"], v["diffusion"], steps, v["out"], cfg
    )
    print(json.dumps(doc, sort_keys=True, indent=2))


_DISPATCH = {
    "gen-data": _cmd_gen_data,
    "train-guidance": _cmd_train_guidance,
    "train-diffusion": _cmd_train_diffusion,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "export-trajectory": _cmd_export_trajectory,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        values = _merge(args.command, args)
        _DISPATCH[args.command](values)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
