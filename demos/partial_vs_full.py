"""Price of seeing only part of the boundary, measured on matched sweeps.

Two stability sweeps run over the same family of shrinking truths in two
space dimensions.  The full-data sweep may place sources and detectors
anywhere; the partial sweep confines both to the half of the boundary
picked out by a base direction.  Same probes, same cutoff, same modulus
family; the only change is which boundary modes exist.  The per-record
error ratio and the fitted stability constants quantify the cost.

Run:  python3 demos/partial_vs_full.py   (about a second)
"""

import numpy as np

from cgolab import Potential, build_grid
from cgolab.norms import ModulusParams, hminus1_norm
from cgolab.reconstruct import ReconstructionConfig, stability_sweep

ALPHAS = [0.08, 0.025, 0.008]


def main() -> None:
    grid = build_grid(2, 17, 65, 1.0)
    x1 = grid.space_coordinates()[0]
    shape = np.broadcast_to(np.sin(2 * np.pi * x1)[None], grid.field_shape).copy()
    truths = [Potential(grid, a * shape, m=a) for a in ALPHAS]
    modulus = ModulusParams("double_log", 0.25, 2)

    results = {}
    for mode in ("full", "partial"):
        cfg = ReconstructionConfig(
            mode=mode, rho=10.0, R=8.0, basis_j_max=2, basis_k_max=2,
            base_direction=(1.0, 0.0) if mode == "partial" else None)
        results[mode] = stability_sweep(grid, None, cfg, modulus,
                                        pair_truths=truths)
        print(f"{mode} sweep done")

    print(f"\n{'alpha':>8} {'delta full':>12} {'err full':>10} "
          f"{'err partial':>12} {'ratio':>7}")
    for alpha, truth, full, part in zip(ALPHAS, truths, results["full"]["records"],
                                        results["partial"]["records"]):
        norm = hminus1_norm(truth)
        print(f"{alpha:>8.4f} {full.delta:>12.3e} {full.err / norm:>10.4f} "
              f"{part.err / norm:>12.4f} {part.err / full.err:>7.2f}")

    c_full = results["full"]["fit_constant"]
    c_part = results["partial"]["fit_constant"]
    print(f"\nstability constants: full {c_full:.4f}, partial {c_part:.4f} "
          f"(x{c_part / c_full:.2f})")
    print("the truth here oscillates along the direction the partial mask")
    print("hides, which is the worst case: its main frequency is invisible")


if __name__ == "__main__":
    main()
