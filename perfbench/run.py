"""Benchmark cgolab from outside the package.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every repetition is a fresh interpreter (perfbench/child.py) that imports
cgolab from ./src, builds the workload's config from the seed and calls
`cgolab.cli.run` once, writing its artifacts to a scratch directory under
.perfbench-work/ that is removed afterwards.  Repetitions run one at a time
with one BLAS thread until --seconds have passed (at least one).  Before
them, a few set-up-only interpreters measure import and config time.

--trace 0 reports the end-to-end metrics; --trace 1 runs the same untraced
repetitions and then one traced repetition, and reports the per-layer
metrics.  Every repetition passes through the correctness gate.  A table
goes to stdout first; the last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYER_METRICS, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, check_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

SETUP_PROBES = 5
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0
# Self times of all spans must add up to the root span's duration within this.
ATTRIBUTION_TOL_S = 1e-3
# Traced time that no library span covers (the root's self time) may be at
# most this share of the root span: more means a layer escapes the wrappers.
UNATTRIBUTED_MAX_SHARE = 0.01

END_TO_END = [
    ("wall_s", "s", "call into cli.run to its return, artifacts and manifest included"),
    ("setup_s", "s", "interpreter start to the call into cli.run"),
    ("peak_rss_mb", "MiB", "VmHWM (peak resident set) of the repetition's process"),
    ("estimate_error", "unitless", "the workload's accuracy figure from summary.json"),
]


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _spawn(mode: str, workload: str, seed: int, run_dir: Path, tag: str,
           deadline: float) -> tuple:
    """Run child.py once; returns (returncode, stderr, result dict or None, out dir)."""
    out = run_dir / tag
    result_path = run_dir / f"{tag}.json"
    env = dict(os.environ)
    env.update({k: str(BLAS_THREADS) for k in BLAS_ENV})
    timeout = deadline - time.monotonic()
    if timeout <= 1.0:
        raise BenchError("out of time before a repetition could start")
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed),
           str(out), str(result_path), repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"{mode} repetition killed after {timeout:.0f} s", None, out
    result = None
    if proc.returncode == 0 and result_path.is_file():
        result = json.loads(result_path.read_text(encoding="utf-8"))
    return proc.returncode, proc.stderr, result, out


def _verify_manifest(out: Path) -> tuple:
    """(problems, sha256 of manifest.json, file count, byte count)."""
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        return ["no manifest.json"], None, 0, 0
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    problems = [f"{name}: hash differs from the manifest"
                for name, digest in manifest["files"].items()
                if _sha256(out / name) != digest]
    files = [p for p in out.rglob("*") if p.is_file()]
    return problems, _sha256(manifest_path), len(files), sum(p.stat().st_size for p in files)


def _gate(workload, seed: int, mode: str, returncode, stderr: str, result, out: Path) -> dict:
    """Correctness of one repetition."""
    rep = {"mode": mode, "problems": [], "result": result, "manifest": None,
           "files": 0, "bytes": 0}
    if result is None:
        tail = stderr.strip().splitlines()[-3:] if stderr else []
        rep["problems"].append(f"exit {returncode}: {' | '.join(tail)}")
        return rep
    if mode == "run" and result["wrappers"]:
        rep["problems"].append(f"untraced run found wrappers: {result['wrappers'][:5]}")
    summary = result["summary"]
    rep["problems"] += workload.check(summary, out, result["config"])
    if seed == DEFAULT_SEED:
        rep["problems"] += check_reference(workload, summary)
    problems, rep["manifest"], rep["files"], rep["bytes"] = _verify_manifest(out)
    rep["problems"] += problems
    return rep


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark measurement; returns samples, metrics and gate results."""
    workload = WORKLOADS[workload_name]
    if not (ROOT / "src" / "cgolab" / "cli.py").is_file():
        raise BenchError(f"no cgolab sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-{seed}-", dir=WORK))
    try:
        setup = []
        for i in range(SETUP_PROBES):
            rc, err, result, _ = _spawn("setup", workload_name, seed, run_dir, f"setup-{i}",
                                        deadline)
            if result is None:
                raise BenchError(f"set-up interpreter failed (exit {rc}): {err.strip()}")
            setup.append(result["setup_s"])

        reps = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            rc, err, result, out = _spawn("run", workload_name, seed, run_dir,
                                          f"run-{len(reps)}", deadline)
            reps.append(_gate(workload, seed, "run", rc, err, result, out))
            shutil.rmtree(out, ignore_errors=True)
            now = time.monotonic()
            projected = (now - t0) * (3 if trace else 1.5)
            if now - start >= seconds or now + projected > deadline:
                break

        traced = None
        if trace:
            rc, err, result, out = _spawn("trace", workload_name, seed, run_dir, "trace",
                                          deadline)
            traced = _gate(workload, seed, "trace", rc, err, result, out)
            reps.append(traced)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    good = [r for r in reps if not r["problems"]]
    manifests = {r["manifest"] for r in good}
    if len(manifests) > 1:
        for r in good:
            r["problems"].append("manifest SHA-256 differs between repetitions")
    # failed repetitions still count for timing if they completed; the gate
    # result travels in `failed`
    untraced = [r["result"] for r in reps if r["mode"] == "run" and r["result"] is not None]
    if not untraced:
        raise BenchError("no untraced repetition completed: "
                         + "; ".join(p for r in reps for p in r["problems"]))
    report = {
        "workload": workload_name,
        "seed": seed,
        "reps": reps,
        "samples": {
            "wall_s": [r["wall_s"] for r in untraced],
            "setup_s": setup + [r["setup_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            "estimate_error": [r["summary"][workload.estimate_key] for r in untraced],
        },
    }
    report["end_to_end"] = {k: statistics.median(v) for k, v in report["samples"].items()}

    if traced is not None and traced["result"] is not None:
        res = traced["result"]
        metrics, attribution = layer_metrics(res["trace"])
        metrics["cli.artifact_files"] = traced["files"]
        metrics["cli.artifact_bytes"] = traced["bytes"]
        metrics["trace.overhead_s"] = res["wall_s"] - report["end_to_end"]["wall_s"]
        root_s = metrics["trace.wall_s"]
        if abs(attribution["self_sum_s"] - root_s) > ATTRIBUTION_TOL_S:
            traced["problems"].append(
                f"self times sum to {attribution['self_sum_s']:.6f} s, root span "
                f"{root_s:.6f} s (tolerance {ATTRIBUTION_TOL_S} s)")
        if metrics["cli.unattributed_s"] > UNATTRIBUTED_MAX_SHARE * root_s:
            traced["problems"].append(
                f"{metrics['cli.unattributed_s']:.6f} s of {root_s:.6f} s traced time is "
                f"in no library span (at most {UNATTRIBUTED_MAX_SHARE:.0%} allowed)")
        report["per_layer"] = metrics
        report["attribution"] = attribution
    report["failed"] = sum(1 for r in reps if r["problems"])
    report["attempted"] = len(reps)
    return report


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def print_report(report: dict, trace: bool) -> None:
    m = machine()
    print(f"# workload {report['workload']}  seed {report['seed']}  "
          f"nproc {m['nproc']}  python {m['python']}  numpy {m['numpy']}  "
          f"scipy {m['scipy']}  blas_threads {m['blas_threads']}")
    print(f"# repetitions {report['attempted']}  failed_ops {report['failed']}/"
          f"{report['attempted']} = {report['failed'] / report['attempted']:.3g} (fraction)")
    print(f"# summary {json.dumps(report['reps'][0]['result']['summary'], sort_keys=True)}"
          if report["reps"][0]["result"] else "# summary missing")
    for r in report["reps"]:
        for p in r["problems"]:
            print(f"# GATE FAILED ({r['mode']}): {p}")
    for name, unit, what in END_TO_END:
        n = len(report["samples"][name])
        print(f"{name:32s} {_fmt(report['end_to_end'][name]):>14s} {unit:9s} "
              f"median of {n}  {what}")
    if trace and "per_layer" in report:
        for name, unit, what in LAYER_METRICS:
            print(f"{name:32s} {_fmt(report['per_layer'][name]):>14s} {unit:9s} {what}")
        a = report["attribution"]
        print(f"# attribution: self times sum to {a['self_sum_s']:.6f} s over "
              f"{a['spans']} spans; root span {report['per_layer']['trace.wall_s']:.6f} s")


def result_line(report: dict, trace: bool) -> dict:
    if trace:
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        values = report.get("per_layer", {})
    else:
        units = {name: unit for name, unit, _ in END_TO_END}
        values = report["end_to_end"]
    return {
        "correct": report["failed"] == 0 and (not trace or "per_layer" in report),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_report(report, bool(args.trace))
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
