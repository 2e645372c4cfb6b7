"""Record the traced baseline of every workload in perfbench/baseline.json.

    python3 perfbench/baseline.py

Each workload is measured three times with tracing: twice at the default
seed and once at OTHER_SEED.  Every count must repeat exactly across the
three (counter determinism); the script exits 1 if one does not.  The file
keeps the first measurement's end-to-end medians and per-layer metrics, the
waste figures with their numerators and denominators, the attribution sums
and the machine.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import BenchError, machine, measure
from tracer import COUNT_METRICS
from workloads import DEFAULT_SEED, WORKLOADS

OUT = Path(__file__).resolve().parent / "baseline.json"
SECONDS = 1.0
OTHER_SEED = DEFAULT_SEED + 1


def _count_mismatches(a: dict, b: dict) -> list:
    return [f"{k}: {a[k]} vs {b[k]}" for k in COUNT_METRICS if a[k] != b[k]]


def main() -> int:
    baseline = {"machine": machine(), "seconds": SECONDS, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        runs = []
        for seed in (DEFAULT_SEED, DEFAULT_SEED, OTHER_SEED):
            try:
                report = measure(name, seed, SECONDS, trace=True)
            except BenchError as exc:
                print(f"{name} seed {seed}: {exc}", file=sys.stderr)
                return 1
            if report["failed"] or "per_layer" not in report:
                problems = [p for r in report["reps"] for p in r["problems"]]
                print(f"{name} seed {seed}: gate failed: {problems}", file=sys.stderr)
                return 1
            runs.append(report)
        first = runs[0]
        layer = first["per_layer"]
        same_seed = _count_mismatches(layer, runs[1]["per_layer"])
        other_seed = _count_mismatches(layer, runs[2]["per_layer"])
        ok = ok and not same_seed and not other_seed
        baseline["workloads"][name] = {
            "seed": first["seed"],
            "end_to_end": {k: {"median": first["end_to_end"][k], "samples": len(v)}
                           for k, v in first["samples"].items()},
            "per_layer": layer,
            "waste": {
                "forward.factor_useful_ratio": {
                    "value": layer["forward.factor_useful_ratio"],
                    "numerator": layer["forward.distinct_matrices"],
                    "denominator": layer["forward.factorizations"],
                },
                "cgo.backward_useful_ratio": {
                    "value": layer["cgo.backward_useful_ratio"],
                    "numerator": layer["cgo.backward_distinct"],
                    "denominator": layer["cgo.backward_builds"],
                },
                "forward.factor_nnz": {
                    "value": layer["forward.factor_nnz"],
                    "computed": True,
                    "numerator": layer["forward.factor_nnz"],
                    "denominator": layer["forward.factorizations"],
                },
            },
            "attribution": first["attribution"],
            "counter_determinism": {
                "seeds": [r["seed"] for r in runs],
                "same_seed_mismatches": same_seed,
                "other_seed_mismatches": other_seed,
            },
        }
        print(f"{name}: factorizations {layer['forward.factorizations']}, distinct "
              f"{layer['forward.distinct_matrices']}, counts repeat: "
              f"{not same_seed and not other_seed}")
    OUT.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
