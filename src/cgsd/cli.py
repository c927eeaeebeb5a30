"""Command-line entry point.

A subcommand takes a few path arguments and exposes some fields of
``pipeline.RunConfig`` (of ``data.SyntheticConfig`` for gen-data). One name
serves everywhere: a field's flag is ``--`` plus the field name with ``_``
written as ``-`` (``stage1_epochs`` is ``--stage1-epochs``), its --config key
is the field name, and its type, default and range come from the dataclass
alone. Every subcommand accepts --config FILE, a JSON object of field names
and path arguments; explicit flags override file values.
Exit codes: 0 success, 2 configuration error, 3 data/parse or file I/O error,
4 numeric failure (numpy's floating-point warnings are off, so it is one line),
5 out of memory (a request larger than the host can allocate, such as an
``eval --n-samples`` whose chains do not fit, gen-data's ``--n`` and ``--d-in``,
or a noise schedule's ``t_total`` from train-diffusion or a checkpoint).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import pipeline
from .data import (SyntheticConfig, _parse_json_object, gen_synthetic, write_dataset,
                   write_json)
from .errors import ConfigError, DataError, NumericError, ParseError
from .pipeline import RunConfig

# subcommand -> (handler, config class, exposed fields, required arguments,
# optional arguments with their defaults, the argument naming its output file)
_COMMANDS: dict[str, tuple] = {}


def _command(name, config, fields, required, optional=None, out=None):
    def register(run):
        _COMMANDS[name] = (run, config, fields, required, optional or {}, out)
        return run

    return register


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _defaults(config) -> dict:
    return {f.name: f.default for f in dataclasses.fields(config)}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cgsd",
        description="Two-stage semantic-guided label-space diffusion classifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, fields, required, optional, _) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for arg in ("config", *required, *optional, *fields):
            p.add_argument(_flag(arg))
    return parser


def _convert(key: str, like, value):
    """Read a flag's text or a --config value as the type of like, a default
    (a string for None, a comma-separated list for a tuple, of ints if empty)."""
    typ = str if like is None else type(like)
    try:
        if typ is tuple:
            items = value.split(",") if isinstance(value, str) else value
            return tuple(_convert(key, like[0] if like else 0, x) for x in items)
        # no setting takes true/false; an int setting takes no fraction; a
        # path takes only a string
        if value is None or isinstance(value, bool):
            raise TypeError
        if typ is int and isinstance(value, float) or typ is str and not isinstance(value, str):
            raise TypeError
        out = typ(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: cannot read {value!r} as {typ.__name__}") from None
    if isinstance(out, float) and not math.isfinite(out):
        raise ConfigError(f"{key}: {value!r} is not finite")
    return out


def _read_config(path: str, keys) -> dict:
    try:
        doc = _parse_json_object(Path(path).read_bytes(), f"config file {path}", {})
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror}") from None
    except ParseError as e:
        raise ConfigError(str(e)) from None
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
    return doc


def _out_file(key: str, out: str) -> Path:
    """The output rule: a path naming no file ("", ".", ".." or an existing
    directory) is refused."""
    path = Path(out)
    if path.name in ("", "..") or path.is_dir():
        raise ConfigError(f"{key}: {out!r} names no file")
    return path


def _same_file(key: str, outs: list[str], a: dict, config: str | None) -> None:
    """The same-file rule, on resolved paths: an output or side file may not be
    another one, an input checkpoint, the --config file or a --data file."""
    data = [p for domain in ("source", "target") for p in pipeline.domain_files(a["data"], domain)]
    inputs = [("config", config), ("guidance", a.get("guidance")),
              ("diffusion", a.get("diffusion")), *(("data", p) for p in data)]
    taken = {Path(p).resolve(): f"an input (--{k})" for k, p in inputs if p}
    for path in outs:
        real = Path(path).resolve()
        if real in taken:
            raise ConfigError(f"{key}: {path!r} is {taken[real]}")
        taken[real] = "written twice"


def _log_beside(out: str) -> Path:
    return Path(str(out) + ".log")


# subcommand -> the files it writes beside its output file, from that file's path
_SIDE_FILES = {
    "train-guidance": lambda out: (pipeline.base_beside(out), _log_beside(out)),
    "train-diffusion": lambda out: (_log_beside(out),),
    "ablate": pipeline.ablate_checkpoints,
    "export-trajectory": lambda out: (pipeline.silhouette_beside(out),),
}


def _write_log(out: str, lines: list[str]) -> None:
    _log_beside(out).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    for line in lines:
        print(line)


@_command(
    "gen-data",
    SyntheticConfig,
    ("n", "d_in", "k", "proportions", "separation", "noise", "shift_angle",
     "shift_bias", "seed"),
    ("out",),
)
def _gen_data(cfg: SyntheticConfig, a: dict) -> None:
    out = Path(a["out"])
    out.mkdir(parents=True, exist_ok=True)
    source, target = gen_synthetic(cfg)
    write_dataset(pipeline.domain_files(out, "source")[0], source)
    write_dataset(pipeline.domain_files(out, "target")[0], target)
    print(f"wrote {source.n}+{target.n} samples to {out}")


@_command(
    "train-guidance",
    RunConfig,
    ("rank", "alpha", "stage1_epochs", "stage1_batch", "lr_lora", "lr_prompt",
     "warmup_epochs", "lambda_rank", "margin", "seed"),
    ("data", "out"), out="out",
)
def _train_guidance(cfg: RunConfig, a: dict) -> None:
    out = Path(a["out"])
    result = pipeline.train_stage1(a["data"], cfg, out, pipeline.base_beside(out))
    _write_log(a["out"], result["log"])


@_command(
    "train-diffusion",
    RunConfig,
    ("t_total", "stage2_epochs", "stage2_batch", "stage2_lr", "stage2_lr_min",
     "clip", "ema_mu", "seed"),
    ("data", "guidance", "out"), out="out",
)
def _train_diffusion(cfg: RunConfig, a: dict) -> None:
    result = pipeline.train_stage2(a["data"], a["guidance"], cfg, a["out"])
    _write_log(a["out"], result["log"])


@_command(
    "eval", RunConfig, ("n_samples", "chain_steps", "seed"), ("data", "guidance", "report"),
    {"diffusion": None}, out="report",
)
def _eval(cfg: RunConfig, a: dict) -> None:
    model, denoiser, _, test = pipeline.load_run(a["data"], a["guidance"], a["diffusion"] or None)
    report = pipeline.evaluate(model, denoiser, test, cfg)
    write_json(a["report"], report)
    print(json.dumps(report, sort_keys=True, indent=2))


@_command("ablate", RunConfig, ("seed",), ("data", "out"), out="out")
def _ablate(cfg: RunConfig, a: dict) -> None:
    report = pipeline.ablate(a["data"], cfg, a["out"])
    for row in report["rows"]:
        print(
            f"{row['configuration']}: accuracy={row['accuracy']:.4f} "
            f"macro_f1={row['macro_f1']:.4f}"
        )


@_command(
    "export-trajectory", RunConfig, ("chain_steps", "seed"),
    ("data", "guidance", "diffusion", "out"), {"steps": ()}, out="out",
)
def _export_trajectory(cfg: RunConfig, a: dict) -> None:
    doc = pipeline.export_trajectory(
        a["data"], a["guidance"], a["diffusion"], list(a["steps"]) or None, a["out"], cfg
    )
    print(json.dumps(doc, sort_keys=True, indent=2))


def _resolve(args: argparse.Namespace) -> tuple:
    """The handler, its config and its argument values; a flag beats the
    --config file, which beats the dataclass default. Once the config is built
    (so a bad setting creates no directory) and before any data is read, the
    output and same-file rules run on the output and its side files, then the
    missing directories above each are made."""
    run, config, fields, required, optional, out = _COMMANDS[args.command]
    keys = (*required, *optional, *fields)
    given = _read_config(args.config, keys) if args.config else {}
    given.update({k: getattr(args, k) for k in keys if getattr(args, k) is not None})
    missing = [_flag(k) for k in required if k not in given]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join(missing)}")
    like = {**_defaults(config), **optional}
    values = {**optional, **{k: _convert(k, like.get(k), v) for k, v in given.items()}}
    cfg = config(**{k: values[k] for k in fields if k in values})
    if out:
        _out_file(out, values[out])
        outs = [values[out], *map(str, _SIDE_FILES.get(args.command, lambda out: ())(values[out]))]
        _same_file(out, outs, values, args.config)
        for path in outs:
            _out_file(out, path).parent.mkdir(parents=True, exist_ok=True)
    return run, cfg, values


def main(argv: list[str] | None = None) -> int:
    try:
        run, cfg, values = _resolve(_build_parser().parse_args(argv))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            run(cfg, values)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"file error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        print(f"out of memory: {e}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
