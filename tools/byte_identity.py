"""Check that two source trees write byte-identical CLI artifacts.

    python3 tools/byte_identity.py BASE_TREE [HEAD_TREE]

Runs the benchmark's reference configs at their default seed (taken from
perfbench/workloads.py, which this script only reads), plus recon2d-full's
config with a time-dependent truth, four small stability sweeps (a 2-d
pair sweep, a 1-d noise sweep and a 2-d partial-data noise sweep along an
oblique direction, whose truths differ from the reference, and that partial
sweep without the hermitian inverse, from a level on the trivial branch),
a small 2-d partial-data noisy reconstruct whose reference is its truth,
the same kind of reconstruct at an explicit rho whose reference differs
from its truth, four small nonlinearity recoveries with cubic truths (1-d,
2-d, 2-d with noise, and 2-d half-boundary data with noise), one 1-d cubic
semilinear solve whose line search halves, one 2-d boundary-map matrix with initial modes, one 2-d forward solve, a
1-d pairing check, a 2-d weighted-inequality check along an oblique
direction and a 2-d probe-decay check, through
`cgolab.cli.run` once with BASE_TREE/src and once with HEAD_TREE/src
(default: the tree holding this script).  Every run is a fresh interpreter
with one BLAS thread and writes to the same scratch directory, so the
manifests can be compared as files.  A manifest holds the SHA-256 of every
artifact and the config, so equal manifest hashes mean equal artifacts.

Exit status: 0 when every manifest matches, 1 when one differs, 2 when a run
fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from cgolab.cli import ExperimentConfig, run
run(sys.argv[2], ExperimentConfig(json.loads(sys.argv[3])), sys.argv[4])
"""


def cases() -> list:
    """(label, command, config) of every checked run."""
    out = []
    for name, workload in WORKLOADS.items():
        out.append((name, workload.command, workload.make_config(DEFAULT_SEED)))
    varying = WORKLOADS["recon2d-full"].make_config(DEFAULT_SEED)
    varying["potential"]["time"] = 1
    out.append(("recon2d-full-time1", "reconstruct", varying))
    # five distinct truths against a zero reference, at an explicit rho
    out.append(("sweep2d-pairs", "stability-sweep", {
        "threads": 1,
        "grid": {"n": 2, "nx": 13, "nt": 33, "T": 1.0},
        "potential": {"family": "sine", "amplitude": 0.3, "space": [1, 2], "time": 1},
        "reconstruct": {"rho": 6.0, "R": 6.0, "basis_j_max": 2, "basis_k_max": 2},
        "sweep": {"kind": "pairs"},
    }))
    # a truth small enough that every noise level stays off the trivial branch
    out.append(("sweep1d-noise", "stability-sweep", {
        "threads": 1,
        "grid": {"n": 1, "nx": 33, "nt": 129, "T": 1.0},
        "potential": {"family": "sine", "amplitude": 0.05, "space": [1], "time": 1},
        "noise": {"seed": 3},
        "sweep": {"kind": "noise"},
    }))
    # a 2-d half-boundary noise sweep along an oblique direction: the levels
    # share masked measurement bases, and the truth differs from the zero
    # reference, so the error target is not zero
    out.append(("sweep2d-partial-oblique", "stability-sweep", {
        "threads": 1,
        "grid": {"n": 2, "nx": 13, "nt": 33, "T": 1.0},
        "potential": {"family": "sine", "amplitude": 0.05, "space": [1, 2], "time": 1},
        "reconstruct": {"mode": "partial", "rho": "auto", "base_direction": [0.6, 0.8],
                        "basis_j_max": 2, "basis_k_max": 2},
        "noise": {"seed": 5},
        "sweep": {"kind": "noise"},
    }))
    # the same sweep without the hermitian inverse, whose first level is too
    # noisy to certify anything and takes the trivial branch
    out.append(("sweep2d-partial-trivial", "stability-sweep", {
        "threads": 1,
        "grid": {"n": 2, "nx": 13, "nt": 33, "T": 1.0},
        "potential": {"family": "sine", "amplitude": 0.05, "space": [1, 2], "time": 1},
        "reconstruct": {"mode": "partial", "rho": "auto", "base_direction": [0.6, 0.8],
                        "basis_j_max": 2, "basis_k_max": 2, "use_hermitian": False},
        "noise": {"seed": 5},
        "sweep": {"kind": "noise", "noise_levels": [2.0, 1e-2, 1e-3]},
    }))
    # a noisy partial reconstruct whose reference is its truth: its oracle's
    # one map keeps no answers, so the difference works on the map's own traces
    sine = {"family": "sine", "amplitude": 0.05, "space": [1, 2], "time": 1}
    out.append(("recon2d-partial-same-ref", "reconstruct", {
        "threads": 1,
        "grid": {"n": 2, "nx": 13, "nt": 33, "T": 1.0},
        "potential": sine,
        "potential_ref": dict(sine),
        "reconstruct": {"mode": "partial", "rho": "auto", "base_direction": [0.6, 0.8],
                        "basis_j_max": 2, "basis_k_max": 2},
        "noise": {"delta": 1e-3, "seed": 5},
    }))
    # a noisy partial reconstruct whose private reference map differs from its
    # truth: the reference's traces are masked and subtracted level by level
    out.append(("recon2d-partial-ref", "reconstruct", {
        "threads": 1,
        "grid": {"n": 2, "nx": 13, "nt": 33, "T": 1.0},
        "potential": {"family": "sine", "amplitude": 0.05, "space": [1, 2], "time": 0},
        "potential_ref": {"family": "sine", "amplitude": 0.03, "space": [2, 1], "time": 0},
        "reconstruct": {"mode": "partial", "rho": 4.0, "base_direction": [0.6, 0.8],
                        "basis_j_max": 2, "basis_k_max": 2},
        "noise": {"delta": 1e-3, "seed": 5},
    }))
    # nonlin1d's linear truth takes one Newton iteration per step; cubic truths
    # take several, so columns of a level block leave the Newton loop apart
    out.append(("nonlin1d-cubic", "recover-nonlinearity", {
        "threads": 1,
        "grid": {"n": 1, "nx": 33, "nt": 257, "T": 1.0},
        "semilinear": {"family": "cubic", "slope": 1.0, "cubic": 2.0,
                       "ref_family": "linear", "ref_slope": 0.5,
                       "levels": [0.3, 0.6, 0.9]},
        "reconstruct": {"rho": 8.0, "R": 2.0, "measure_delta": False},
    }))
    # the one-column Newton solve; at this amplitude and time step the line
    # search halves (twice)
    out.append(("semilinear1d-cubic", "semilinear", {
        "threads": 1,
        "grid": {"n": 1, "nx": 33, "nt": 9, "T": 1.0},
        "semilinear": {"family": "cubic", "slope": 1.0, "cubic": 20.0},
        "data": {"family": "face_sine", "amplitude": 20.0, "face": 0, "time": 3},
    }))
    nonlin2d = {
        "threads": 1,
        "grid": {"n": 2, "nx": 9, "nt": 33},
        "semilinear": {"family": "cubic", "slope": 1.0, "cubic": 2.0,
                       "ref_family": "cubic", "ref_slope": 0.5, "ref_cubic": 1.0,
                       "levels": [-0.5, 0.4, 0.8]},
        "reconstruct": {"rho": 4.0, "R": 2.0},
    }
    out.append(("nonlin2d-cubic", "recover-nonlinearity", nonlin2d))
    # every level draws the same calibrated noise
    out.append(("nonlin2d-noisy", "recover-nonlinearity",
                dict(nonlin2d, noise={"delta": 1e-3, "seed": 5})))
    # half-boundary data: every level's oracle carries partial mode's masks
    out.append(("nonlin2d-partial", "recover-nonlinearity", {
        "threads": 1,
        "grid": {"n": 2, "nx": 9, "nt": 33},
        "semilinear": {"family": "cubic", "slope": 1.0, "cubic": 2.0,
                       "ref_family": "linear", "ref_slope": 0.5,
                       "levels": [-0.5, 0.4, 0.8]},
        "reconstruct": {"mode": "partial", "rho": 4.0, "R": 2.0,
                        "base_direction": [1.0, 0.0]},
        "noise": {"delta": 1e-3, "seed": 5},
    }))
    # the map matrix of a time-dependent potential, written as raw complex64
    # bytes; the initial modes add columns with initial values
    out.append(("dtn2d-initial", "dtn", {
        "threads": 1,
        "grid": {"n": 2, "nx": 13, "nt": 33, "T": 1.0},
        "potential": {"family": "sine", "amplitude": 0.3, "space": [1, 2], "time": 1},
        "dtn": {"j_max": 2, "k_max": 2, "initial_modes": 2},
    }))
    # the field container and the Neumann-trace table
    out.append(("forward2d", "forward", {
        "threads": 1,
        "grid": {"n": 2, "nx": 13, "nt": 33, "T": 1.0},
        "potential": {"family": "sine", "amplitude": 0.3, "space": [1, 2], "time": 1},
        "data": {"family": "face_sine", "amplitude": 1.0, "face": 2, "space": 2, "time": 1},
    }))
    # boundary pairings of synthesized lateral data against volume integrals
    out.append(("pairing1d", "pairing-check", {
        "threads": 1,
        "grid": {"n": 1, "nx": 33, "nt": 33, "T": 1.0},
        "pairing": {"cases": 3},
    }))
    # a direction off the axes and lateral quadrature of the normal flux
    out.append(("carleman2d-oblique", "carleman-check", {
        "threads": 1,
        "grid": {"n": 2, "nx": 13, "nt": 17, "T": 1.0},
        "potential": {"family": "sine", "amplitude": 0.3, "space": [1, 2], "time": 1},
        "carleman": {"samples": 6, "rhos": [4.0, 8.0], "omega": [0.6, 0.8]},
    }))
    # the probe direction defaults to the perpendicular of xi
    out.append(("cgo2d", "cgo-check", {
        "threads": 1,
        "grid": {"n": 2, "nx": 13, "nt": 33, "T": 1.0},
        "potential": {"family": "sine", "amplitude": 0.3, "space": [1, 2], "time": 1},
        "cgo": {"xi": [3.141592653589793, 0.0], "tau": 3.141592653589793,
                "rhos": [4.0, 6.0, 8.0, 10.0]},
    }))
    return out


def run_manifest(tree: Path, command: str, config: dict, out: Path) -> dict:
    """Run one command with tree's sources; returns the parsed manifest and its hash."""
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_ENV})
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tree / "src"), command, json.dumps(config),
         str(out)],
        env=env, cwd=out.parent, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{command} on {tree} failed:\n{proc.stderr}")
    raw = (out / "manifest.json").read_bytes()
    return {"sha256": hashlib.sha256(raw).hexdigest(), "manifest": json.loads(raw)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="tree to compare against")
    parser.add_argument("head", type=Path, nargs="?", default=ROOT,
                        help="tree under test (default: this checkout)")
    args = parser.parse_args(argv)

    differ = False
    with tempfile.TemporaryDirectory(prefix="byte-identity-") as scratch:
        out = Path(scratch) / "out"
        for label, command, config in cases():
            try:
                base = run_manifest(args.base.resolve(), command, config, out)
                head = run_manifest(args.head.resolve(), command, config, out)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 2
            same = base["sha256"] == head["sha256"]
            differ |= not same
            print(f"{label:24s} {base['sha256'][:16]} {head['sha256'][:16]} "
                  f"{'same' if same else 'DIFFERS'}")
            if not same:
                files_b, files_h = base["manifest"]["files"], head["manifest"]["files"]
                for name in sorted(set(files_b) | set(files_h)):
                    if files_b.get(name) != files_h.get(name):
                        print(f"  {name} differs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
