"""Recover a hidden reaction law from boundary measurements alone.

The measurement side hides a semilinear equation u_t - lap u + a(u) = 0 and
answers only boundary questions about its derivative map.  Probing around
constant data levels s turns each level into a linear problem whose
potential equals a'(u) along the level solution; reconstructing that
potential near t = 0, where the solution still equals s exactly, reads off
a'(s).  Integrating from the anchor a(0) = 0 rebuilds the law itself.

Run:  python3 demos/nonlinearity_recovery.py   (about a second)
"""

import numpy as np

from cgolab import build_grid
from cgolab.reconstruct import ReconstructionConfig
from cgolab.semilinear import Nonlinearity, SemilinearOracle, recover_nonlinearity

LEVELS = [0.2, 0.4, 0.6, 0.8]


def main() -> None:
    grid = build_grid(1, 65, 1025, 2.0)
    # hidden law: a(u) = u; the lab only knows the reference guess a(u) = u/2
    a_true = Nonlinearity(lambda x, t, u: u, lambda x, t, u: np.ones_like(u),
                          monotone=True)
    a_ref = Nonlinearity(lambda x, t, u: 0.5 * u,
                         lambda x, t, u: 0.5 * np.ones_like(u), monotone=True)

    cfg = ReconstructionConfig(rho=16.0, R=2.0, measure_delta=False)
    out = recover_nonlinearity(SemilinearOracle(grid, a_true), a_ref, LEVELS,
                               cfg, truth=a_true)

    print(f"{'level s':>8} {'a-prime(s)':>11} {'true':>6} {'a(s)':>8} {'true':>6}")
    for row in out["rows"]:
        print(f"{row['s']:>8.2f} {row['a_prime']:>11.4f} {1.0:>6.2f} "
              f"{row['a_value']:>8.4f} {row['s']:>6.2f}")
    print(f"\nsup errors: derivative {out['sup_prime_error']:.4f}, "
          f"value {out['sup_value_error']:.4f}")
    print("the derivative gap (true 0.5) is recovered per level; values come")
    print("from integrating the recovered derivative up from a(0) = 0")


if __name__ == "__main__":
    main()
