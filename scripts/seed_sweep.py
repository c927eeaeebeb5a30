"""Score the desk ablation over data seeds, and its diffusion row over chain
seeds and reverse-chain step counts.

For each --data-seeds value s it writes the default benchmark of
``SyntheticConfig(seed=s)`` (``cgsd gen-data --seed s``) under --work and runs
the ablation at ``RunConfig(seed=s)`` (``cgsd ablate --seed s``), with the
settings of --config FILE, a JSON object of RunConfig field names, over the
defaults; the file may not set seed, which --data-seeds sets.
``scripts/configs/t1000.json`` keeps the default epoch budget but trains and
runs the diffusion on the paper's schedule (T = 1000, beta 1e-4 ... 0.02)
instead of the default (T = 100, beta 1e-3 ... 0.2);
``scripts/configs/paper_scale.json`` adds the paper-scale epochs and EMA (22
stage-1 and 500 stage-2 epochs, mu 0.9999). The zero-shot and adapted rows
are the ablation's own; the script then reads the ablation's checkpoints and
scores the diffusion row, in memory and on the ablation's own test split, at
every --chain-seeds value (the run seed of ``evaluate``, which seeds only the
chains' noise) and every step count K: the full chain K = T, always, and
each --chain-steps value.

The rule for a K < T, fixed before any sweep was run: K passes when, at
every data seed, its chain-seed medians of accuracy, macro-F1 and QWK are
each at least the full chain's minimum over the same chain seeds. The
JSON's "default" is the smallest K that passes, or T when none does. With one
chain seed the median is the minimum, so the script refuses fewer than 2
distinct chain seeds, with one line and a non-zero exit, before any work.

    PYTHONPATH=src python scripts/seed_sweep.py --out sweep.json \\
        [--work DIR] [--data-seeds 42,1,2,3,4,5,6] [--chain-seeds 42,7,8,9,10,11,12] \\
        [--chain-steps 50,25,20,10] [--n 3662] [--config FILE]

The JSON holds the --config settings and, per data seed: each row's
accuracy, macro-F1, QWK and predicted count per grade (the diffusion row per
K and chain seed), and per K the min, median and max of each metric over the
chain seeds and the median wall time of one diffusion evaluate; then the
verdict per K and the default. It prints a one-line summary per K to stderr.
"""

import argparse
import dataclasses
import json
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from cgsd import cli
from cgsd import guidance as gd
from cgsd import pipeline
from cgsd.data import SyntheticConfig, gen_synthetic, write_dataset
from cgsd.errors import ConfigError

METRICS = ("accuracy", "macro_f1", "qwk")
RULE = ("K passes when, at every data seed, its chain-seed medians of accuracy, macro-F1 "
        "and QWK are each at least the full chain's (K = T) chain-seed minimum; the "
        "default is the smallest K that passes, or T when none does")


def ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def read_settings(path: Path) -> dict:
    """--config's settings, read and checked as cgsd's --config reads a file;
    any fault, seed included, exits with one line."""
    defaults = {f.name: f.default for f in dataclasses.fields(pipeline.RunConfig)}
    try:
        doc = cli._read_config(str(path), defaults)
        if "seed" in doc:
            raise ConfigError("seed is set per run by --data-seeds")
        settings = {k: cli._convert(k, defaults[k], v) for k, v in doc.items()}
        pipeline.RunConfig(**settings)
    except ConfigError as e:
        sys.exit(f"--config: {e}")
    return settings


def predicted(report: dict) -> list[int]:
    """A report's predicted count per grade."""
    return [sum(col) for col in zip(*report["confusion"])]


def scored(report: dict) -> dict:
    """A report's metrics and its predicted count per grade."""
    return {**{m: report[m] for m in METRICS}, "predicted": predicted(report)}


def sweep_seed(work: Path, seed: int, n: int, chain_seeds: list[int],
               steps: list[int], settings: dict) -> dict:
    """One data seed's ablation, then its rows scored as the module says."""
    data = work / f"data-{seed}"
    source, target = gen_synthetic(SyntheticConfig(n=n, seed=seed))
    data.mkdir(parents=True, exist_ok=True)
    write_dataset(pipeline.domain_files(data, "source")[0], source)
    write_dataset(pipeline.domain_files(data, "target")[0], target)
    cfg = pipeline.RunConfig(**settings, seed=seed)
    out = work / f"ablate-{seed}" / "ablation.json"
    out.parent.mkdir(exist_ok=True)
    ablation = pipeline.ablate(data, cfg, out)

    guidance, base, denoiser_path = pipeline.ablate_checkpoints(out)
    model, denoiser, _, test = pipeline.load_run(data, guidance, denoiser_path)
    # the ablation's rows hold the metrics; evaluate adds the predicted counts
    rows = {name: {**{m: row[m] for m in METRICS},
                   "predicted": predicted(pipeline.evaluate(guide, None, test, cfg))}
            for name, row, guide in zip(("zero_shot", "adapted"), ablation["rows"],
                                        (gd.load_guidance(base), model))}
    rows["diffusion"] = {}
    summary = {}
    for k in steps:
        by_seed, secs = {}, []
        for chain_seed in chain_seeds:
            run = replace(cfg, seed=chain_seed, chain_steps=k)
            start = time.perf_counter()
            report = pipeline.evaluate(model, denoiser, test, run)
            secs.append(time.perf_counter() - start)
            by_seed[str(chain_seed)] = scored(report)
        rows["diffusion"][str(k)] = by_seed
        summary[str(k)] = {
            **{m: [min(v), statistics.median(v), max(v)]
               for m in METRICS for v in [[r[m] for r in by_seed.values()]]},
            "evaluate_s": statistics.median(secs)}
    return {"n_eval": test.n, "split_hash": ablation["split_hash"], "rows": rows,
            "diffusion_by_k": summary}


def verdict(seeds: dict, t_total: int, candidates: list[int]) -> dict:
    """Per candidate K, whether it passes the rule and the data seeds where it
    does not."""
    out = {}
    for k in candidates:
        failed = [seed for seed, doc in seeds.items()
                  if any(doc["diffusion_by_k"][str(k)][m][1]
                         < doc["diffusion_by_k"][str(t_total)][m][0] for m in METRICS)]
        out[str(k)] = {"passes": not failed, "failed_data_seeds": failed}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, type=Path, help="the JSON to write")
    ap.add_argument("--work", type=Path,
                    help="a directory for the benchmarks and checkpoints (a temporary one "
                         "by default)")
    ap.add_argument("--data-seeds", default="42,1,2,3,4,5,6", type=ints)
    ap.add_argument("--chain-seeds", default="42,7,8,9,10,11,12", type=ints)
    ap.add_argument("--chain-steps", default="50,25,20,10", type=ints,
                    help="candidate K values below T; the full chain is always scored")
    ap.add_argument("--n", default=SyntheticConfig.n, type=int, help="items per domain")
    ap.add_argument("--config", type=Path,
                    help="a JSON object of RunConfig settings over the defaults, seed excepted")
    args = ap.parse_args()
    # the rule compares a chain-seed median with a chain-seed minimum, which
    # one seed makes the same value: no verdict or default K rests on it
    if len(set(args.chain_seeds)) < 2:
        sys.exit(f"--chain-seeds: the rule needs at least 2 distinct chain seeds, "
                 f"got {','.join(map(str, args.chain_seeds))}")

    settings = read_settings(args.config) if args.config else {}
    t_total = pipeline.RunConfig(**settings).t_total
    candidates = sorted({k for k in args.chain_steps if k < t_total}, reverse=True)
    steps = [t_total, *candidates]
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
        seeds = {str(s): sweep_seed(work, s, args.n, args.chain_seeds, steps, settings)
                 for s in args.data_seeds}
    verdicts = verdict(seeds, t_total, candidates)
    passing = [k for k in candidates if verdicts[str(k)]["passes"]]
    doc = {"rule": RULE, "config": settings, "t_total": t_total, "n": args.n,
           "data_seeds": args.data_seeds, "chain_seeds": args.chain_seeds,
           "chain_steps": steps, "seeds": seeds, "verdict": verdicts,
           "default": min(passing, default=t_total)}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for k in steps:
        medians = [statistics.median(one["diffusion_by_k"][str(k)][m][1]
                                     for one in seeds.values()) for m in METRICS]
        mark = "" if k == t_total else (" pass" if verdicts[str(k)]["passes"] else " fail")
        print(f"K={k}: median over data seeds of the chain-seed medians, acc/F1/QWK "
              + " / ".join(f"{v:.4f}" for v in medians) + mark, file=sys.stderr)
    print(f"default K = {doc['default']}", file=sys.stderr)


if __name__ == "__main__":
    main()
