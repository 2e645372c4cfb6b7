"""Decay of the exponential probe's remainder as rho grows.

The probes are exponential solutions e^{-eps(rho omega.x + rho^2 t)}(osc + w)
of the conjugated equation; everything the reconstruction does rests on the
remainder w shrinking as rho grows.  The script sweeps rho at a fixed
frequency, fits the decay slope, then fits the two-term envelope

    ||w|| <= A rho^{-1/4} + B rho^{-1} <zeta>^2

over a small (rho, zeta) design and writes both curves to an SVG chart.

Run:  python3 demos/probe_decay.py
"""

import pathlib

import numpy as np

from cgolab import Potential, build_grid
from cgolab._svg import write_line_chart
from cgolab.cgo import envelope_fit, remainder_decay_report

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "demos" / "out"
RHOS = [8.0, 16.0, 32.0, 64.0]


def main() -> None:
    grid = build_grid(1, 65, 1025, 1.0)
    xs = grid.space_coordinates()[0]
    qv = 0.3 * np.sin(np.pi * xs)[None, :] * np.sin(np.pi * grid.ts)[:, None]
    q = Potential(grid, qv.copy(), m=0.3)

    rep = remainder_decay_report(grid, q, np.zeros(1), 0.0, RHOS)
    print(f"{'rho':>6} {'||w+||':>10} {'||w-||':>10}")
    for rho, wp, wm in zip(rep["rho"], rep["w_plus"], rep["w_minus"]):
        print(f"{rho:>6.0f} {wp:>10.4e} {wm:>10.4e}")
    print(f"slopes: forward {rep['slope_plus']:.4f}, backward {rep['slope_minus']:.4f}")

    # envelope over a (rho, tau) design; the shorter horizon keeps the
    # rho=32 weight within floating-point range
    short = build_grid(1, 65, 1025, 0.5)
    sx = short.space_coordinates()[0]
    sq = Potential(short, (0.3 * np.sin(np.pi * sx)[None, :]
                           * np.sin(np.pi * short.ts / short.T)[:, None]).copy(),
                   m=0.3)
    zetas = [(np.zeros(1), k * np.pi) for k in range(4)]
    a, b, records = envelope_fit(short, sq, [8.0, 16.0, 32.0], zetas)
    print(f"envelope fit: A = {a:.4f}, B = {b:.5f} over {len(records)} runs")

    OUT.mkdir(exist_ok=True)
    path = OUT / "probe_decay.svg"
    write_line_chart(
        path,
        [
            {"label": "measured", "x": rep["rho"], "y": rep["w_plus"]},
            {"label": "A rho^-1/4", "x": rep["rho"],
             "y": [a * r**-0.25 for r in rep["rho"]]},
        ],
        title="probe remainder vs rho",
        x_label="rho", y_label="weighted L2 norm",
        log_x=True, log_y=True,
    )
    # relative to the repository root, so every checkout prints the same line
    print(f"wrote ./{path.relative_to(ROOT).as_posix()}")


if __name__ == "__main__":
    main()
