"""The benchmark's reference workloads and their correctness gate.

Each workload is one cgolab CLI command on a JSON config drawn from the
workload seed.  The seed draws values only (amplitudes, spatial modes,
slopes); grid sizes, probe parameters, noise levels, the noise seed and the
time dependence of every potential stay fixed, so the amount of work -- and
every counter of the traced run -- is the same for every seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

GRID_2D = {"n": 2, "nx": 25, "nt": 81, "T": 1.0}
# sin(2 pi x) and sin(2 pi y): mirror images under the square's symmetry, so
# the reconstruction error does not depend on which one a seed draws.
MODES_2D = ([2, 0], [0, 2])
# Relative spread of a seed-drawn value around its centre.
JITTER = 0.01

# Summary values at DEFAULT_SEED, recorded with one BLAS thread.
REFERENCE_RTOL = 1e-8
IMAG_RESIDUE_MAX = 1e-12
SUP_PRIME_ERROR_MAX = 0.15  # the acceptance bound of the nonlinearity check
DELTA_PER_LEVEL_RTOL = 1e-6


def _jittered(rng, centre: float) -> float:
    return float(centre * (1.0 + JITTER * rng.uniform(-1.0, 1.0)))


def _sine_truth(rng) -> dict:
    """Time-independent sine potential of amplitude about +-0.08.

    The time dependence stays fixed: a time-dependent potential makes the
    measurement oracle factor one step matrix per time level."""
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    mode = MODES_2D[int(rng.integers(len(MODES_2D)))]
    return {"family": "sine", "amplitude": sign * _jittered(rng, 0.08),
            "space": list(mode), "time": 0}


def recon2d_full_config(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "seed": seed,
        "threads": 1,
        "grid": dict(GRID_2D),
        "potential": _sine_truth(rng),
        "reconstruct": {"mode": "full", "rho": 12.0, "R": 8.0,
                        "basis_j_max": 2, "basis_k_max": 2},
    }


def sweep2d_partial_config(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    truth = _sine_truth(rng)
    # The reference equals the truth, so the measured data distance is the
    # calibrated noise alone and delta/level is the same at every level.
    # The noise seed stays fixed: across noise draws the fitted constant
    # moves by +-25%, which would swamp its use as an accuracy guard.
    return {
        "seed": seed,
        "threads": 1,
        "grid": dict(GRID_2D),
        "potential": truth,
        "potential_ref": dict(truth),
        "reconstruct": {"mode": "partial", "rho": "auto", "base_direction": [1.0, 0.0],
                        "basis_j_max": 2, "basis_k_max": 2},
        "noise": {"seed": 7},
        "sweep": {"kind": "noise"},
    }


def nonlin1d_config(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "seed": seed,
        "threads": 1,
        "grid": {"n": 1, "nx": 65, "nt": 1025, "T": 2.0},
        "semilinear": {"family": "linear", "slope": _jittered(rng, 1.0),
                       "ref_family": "linear", "ref_slope": _jittered(rng, 0.5),
                       "levels": [0.3, 0.6, 0.9]},
        "reconstruct": {"rho": 16.0, "R": 2.0, "measure_delta": False},
    }


def _finite_numbers(summary: dict) -> list:
    bad = [k for k, v in summary.items()
           if isinstance(v, float) and not math.isfinite(v)]
    return [f"summary value {k} is not finite" for k in bad]


def _read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_recon(summary: dict, out: Path, config: dict) -> list:
    problems = _finite_numbers(summary)
    if summary.get("trivial") is not False:
        problems.append("reconstruction took the trivial branch")
    if not summary.get("error", 0.0) > 0.0:
        problems.append("reconstruction error is zero or missing")
    residue = summary.get("imag_residue", math.inf)
    if not residue <= IMAG_RESIDUE_MAX:
        problems.append(f"imaginary residue {residue:.3e} exceeds {IMAG_RESIDUE_MAX:g}")
    return problems


def check_sweep(summary: dict, out: Path, config: dict) -> list:
    problems = _finite_numbers(summary)
    levels = [float(v) for v in config["sweep"]["noise_levels"]]
    rows = _read_csv(out / "sweep.csv")
    if summary.get("fit_used") != len(levels) or len(rows) != len(levels):
        problems.append(f"sweep used {summary.get('fit_used')} of {len(levels)} levels")
        return problems
    if not summary.get("fit_constant", 0.0) > 0.0:
        problems.append("fitted constant is zero or missing")
    if any(r["trivial"] != "false" for r in rows):
        problems.append("a noise level took the trivial branch")
    ratios = [float(r["delta"]) / lvl for r, lvl in zip(rows, levels)]
    if max(ratios) - min(ratios) > DELTA_PER_LEVEL_RTOL * max(ratios):
        problems.append(f"delta/level varies across levels: {ratios}")
    return problems


def check_nonlin(summary: dict, out: Path, config: dict) -> list:
    problems = _finite_numbers(summary)
    err = summary.get("sup_prime_error", math.inf)
    if not err <= SUP_PRIME_ERROR_MAX:
        problems.append(f"sup_prime_error {err:.4f} exceeds {SUP_PRIME_ERROR_MAX}")
    rows = _read_csv(out / "nonlinearity.csv")
    if len(rows) != len(config["semilinear"]["levels"]):
        problems.append("nonlinearity table misses levels")
    elif any(float(r["d_prime"]) == 0.0 for r in rows):
        problems.append("a level recovered nothing (d_prime = 0)")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    make_config: object
    check: object
    estimate_key: str
    reference: dict


WORKLOADS = {w.name: w for w in [
    Workload(
        "recon2d-full", "reconstruct", recon2d_full_config, check_recon, "error",
        {"delta": 0.11891137219828042, "error": 0.004551170487823268,
         "rho": 12.0, "R": 8.0},
    ),
    Workload(
        "sweep2d-partial", "stability-sweep", sweep2d_partial_config, check_sweep,
        "fit_constant", {"fit_constant": 0.0008330112621366008, "fit_used": 6},
    ),
    Workload(
        "nonlin1d", "recover-nonlinearity", nonlin1d_config, check_nonlin,
        "sup_prime_error",
        {"sup_prime_error": 0.023557405346026905, "sup_value_error": 0.02120166481142416},
    ),
]}


def check_reference(workload: Workload, summary: dict) -> list:
    """Summary values at the default seed against the recorded reference."""
    problems = []
    for key, expected in workload.reference.items():
        got = summary.get(key)
        if got is None or not math.isclose(got, expected, rel_tol=REFERENCE_RTOL):
            problems.append(f"{key} = {got!r}, reference {expected!r} "
                            f"(rel tol {REFERENCE_RTOL:g})")
    return problems
