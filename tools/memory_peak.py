"""Where one benchmark workload's traced memory peaks.

    python3 tools/memory_peak.py WORKLOAD [TREE] [--seed N] [--top K] [--depth D]

Runs the workload's config (from perfbench/workloads.py, which this script
only reads) through `cgolab.cli.run` three times in this interpreter,
importing cgolab from TREE/src (default: the tree holding this script), with
one BLAS thread.  The first run warms the imports and caches, so the other
two make the same calls.  The second runs with tracemalloc on and a profile
hook that reads tracemalloc's peak at every call and return, Python and C
alike, and notes the event after which the peak rose for the last time: the
cgolab call stack there is where the peak was reached.  The third takes a
snapshot at that same event and lists the largest live allocations by
traceback.  Prints the tracemalloc peak, that stack, each stage's peak and
the allocations.  A stage is a cgolab function called at depth D of the
cgolab stack (1 is `cli.run`), and its peak is the highest traced memory
reached while it ran.  numpy's temporaries that one C call frees before it
returns count in the peaks but not in the snapshot.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FRAMES = 30


def _stack(frame) -> list:
    """The cgolab frames of the stack, outermost first, as 'module.function:line'."""
    out = []
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name == "cgolab" or name.startswith("cgolab."):
            code = frame.f_code
            out.append(f"{name}.{getattr(code, 'co_qualname', code.co_name)}:{frame.f_lineno}")
        frame = frame.f_back
    return out[::-1]


def _run(cli, command, config, depth, snapshot_at=None):
    """One traced `cli.run`: (peak bytes, event index and stack where the peak
    last rose, each stage's peak by the stack's entry at `depth`, snapshot
    taken at event `snapshot_at` or None)."""
    state = {"events": 0, "peak": 0, "at": None, "stack": [], "snapshot": None}
    stages = {}

    def hook(frame, event, arg):
        state["events"] += 1
        # the peak since the previous event, which the stack here reached
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        stack = _stack(frame)
        if len(stack) >= depth:
            stage = stack[depth - 1].rsplit(":", 1)[0]
            stages[stage] = max(stages.get(stage, 0), peak)
        if peak > state["peak"]:
            state["peak"], state["at"], state["stack"] = peak, state["events"], stack
        if state["events"] == snapshot_at:
            state["snapshot"] = tracemalloc.take_snapshot()

    with tempfile.TemporaryDirectory(prefix="memory-peak-") as out:
        tracemalloc.start(FRAMES)
        sys.setprofile(hook)
        try:
            cli.run(command, cli.ExperimentConfig(config), out)
        finally:
            sys.setprofile(None)
            tracemalloc.stop()
    return state["peak"], state["at"], state["stack"], stages, state["snapshot"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("tree", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--top", type=int, default=12, help="stages and allocations to list")
    parser.add_argument("--depth", type=int, default=5, help="stack depth of a stage")
    args = parser.parse_args(argv)

    # the BLAS reads its thread count when numpy is first imported
    for key in BLAS_ENV:
        os.environ[key] = "1"
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import cgolab.cli as cli
    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS[args.workload]
    config = workload.make_config(DEFAULT_SEED if args.seed is None else args.seed)
    with tempfile.TemporaryDirectory(prefix="memory-peak-") as out:
        cli.run(workload.command, cli.ExperimentConfig(config), out)
    peak, at, stack, stages, _ = _run(cli, workload.command, config, args.depth)
    snapshot = _run(cli, workload.command, config, args.depth, snapshot_at=at)[-1]

    mib = 1024.0 * 1024.0
    print(f"{args.workload}: tracemalloc peak {peak / mib:.2f} MiB")
    print("cgolab stack where the peak last rose:")
    for line in stack:
        print(f"  {line}")
    print(f"stage peaks (cgolab functions at stack depth {args.depth}):")
    for stage, value in sorted(stages.items(), key=lambda kv: -kv[1])[:args.top]:
        print(f"  {value / mib:7.2f} MiB  {stage}")
    if snapshot is None:
        print("no snapshot: the third run did not reach the peak's event")
        return 1
    stats = snapshot.statistics("traceback")
    live = sum(s.size for s in stats)
    print(f"live at that event: {live / mib:.2f} MiB; largest allocations:")
    for stat in stats[:args.top]:
        frames = [f for f in stat.traceback
                  if "/cgolab/" in f.filename.replace(os.sep, "/")]
        where = frames[-1] if frames else stat.traceback[-1]
        print(f"  {stat.size / mib:7.2f} MiB  {stat.count:5d} blocks  "
              f"{Path(where.filename).name}:{where.lineno}")
        for f in frames[-4:-1][::-1]:
            print(f"{'':32s}from {Path(f.filename).name}:{f.lineno}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
