"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py MODE WORKLOAD SEED OUT_DIR RESULT_JSON SPAWNED_AT

MODE is `setup` (import, validate and generate the input, then stop),
`run` (call `cgolab.cli.run` untraced) or `trace` (the same call with the
tracer installed).  SPAWNED_AT is the CLOCK_MONOTONIC reading the parent took
just before starting this process; setup time runs from there to the call
into `run`.  The result, and for a traced run the spans, go to RESULT_JSON.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MiB.

    Read from VmHWM, which belongs to the address space the exec created.
    ru_maxrss would carry over the peak of the parent that forked us."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv) -> int:
    mode, workload_name, seed, out_dir, result_path, spawned_at = argv
    sys.path.insert(0, str(ROOT / "src"))
    import cgolab.cli as cli
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    cfg = cli.ExperimentConfig(workload.make_config(int(seed)))
    setup_s = time.monotonic() - float(spawned_at)
    result = {"setup_s": setup_s}
    if mode == "setup":
        Path(result_path).write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(f"{workload_name}-{seed}-{Path(out_dir).parent.name}")
        tracer.install()
    else:
        from tracer import installed_wrappers

        # must come back empty: an untraced run calls the original functions
        result["wrappers"] = installed_wrappers()

    start = time.perf_counter()
    if tracer is None:
        summary = cli.run(workload.command, cfg, out_dir)
    else:
        summary = tracer.run_root(cli.run, workload.command, cfg, out_dir)
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = peak_rss_mb()
    result["summary"] = summary
    result["config"] = cfg.data
    if tracer is not None:
        result["trace"] = tracer.dump()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
