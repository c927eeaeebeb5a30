"""Fast self-test of the benchmark harness on tiny inputs.

Runs every workload once timed and once traced at ``harness.TINY`` scale and
checks that

- every metric in BENCHMARK.json is emitted, with its unit, and is finite;
- every metric has a definition in metrics.json, and each per-layer metric
  names the end-to-end metric and workloads it should move;
- spans nest and every self time is >= 0 (checked inside the traced run);
- no operation fails and traced counts repeat between the two passes.

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import run


def main() -> int:
    if not (run.SRC / "cgsd" / "__init__.py").is_file():
        print(f"error: cgsd sources not found under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import harness

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    doc = json.loads((Path(__file__).parent / "metrics.json").read_text(encoding="utf-8"))
    problems = []

    workloads = [w["name"] for w in spec["workloads"]]
    if sorted(workloads) != sorted(harness.WORKLOADS):
        problems.append(f"workloads {workloads} != harness {sorted(harness.WORKLOADS)}")
    for kind in ("end_to_end", "per_layer"):
        names = [m["name"] for m in spec[kind]]
        if sorted(names) != sorted(doc[kind]):
            problems.append(f"{kind}: BENCHMARK.json and metrics.json list different metrics")
    for name, entry in doc["per_layer"].items():
        for target, on in entry["moves"]:
            if target not in doc["end_to_end"] or not set(on) <= set(workloads):
                problems.append(f"{name}: bad target {target} on {on}")

    for name in workloads:
        for trace in (False, True):
            workload = harness.WORKLOADS[name](harness.TINY)
            result, detail = run.run(workload, 1, 0.0, trace, spec)
            label = f"{name} trace={int(trace)}"
            wanted = spec["per_layer" if trace else "end_to_end"]
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{label}: metric {m['name']} missing or malformed: {got}")
            if not result["correct"] or result["failed"] or not result["attempted"]:
                problems.append(f"{label}: {result['failed']} failed: {detail['failures']}")
            if trace and detail["missing"]:
                problems.append(f"{label}: traced names missing: {detail['missing']}")
            print(f"{label}: {result['attempted']} operations checked", flush=True)

    for p in problems:
        print(f"FAIL {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
