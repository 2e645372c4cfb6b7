"""Numerical checks of the weighted energy inequality and its Poincare companion.

Both inequalities are statements about exponentially weighted integrals.  The
weights blow up with the large parameter, so every quantity here is computed
in conjugated variables: the test sample b stands for (weight) * u, and all
weighted integrals of u reduce to plain integrals of b.  Under this change of
variables the computed ratios are the inequality's ratios, evaluated without
ever forming the weight.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import fd
from .errors import ConfigError, SolverError
from .fields import Potential, ScalarField
from .forward import neumann_trace
from .grid import Grid, unit_direction

__all__ = [
    "conjugated_apply",
    "poincare_ratio",
    "carleman_parts",
    "sample_family",
    "energy_cross_term",
    "CarlemanReport",
    "carleman_report",
]


def conjugated_apply(kind: str, v: ScalarField, omega, rho: float) -> ScalarField:
    """Apply a conjugated operator by finite differences.

    kind "full":      d_t - Laplacian - 2 rho omega . grad
    kind "transport": d_t - 2 rho omega . grad
    """
    grid = v.grid
    omega = unit_direction(omega, grid.n)
    out = fd.diff1(v.values, grid.ht, 0)
    out = out - 2.0 * rho * sum(
        omega[a] * fd.diff1(v.values, grid.hx, 1 + a) for a in range(grid.n)
    )
    if kind == "full":
        out = out - sum(fd.diff2(v.values, grid.hx, 1 + a) for a in range(grid.n))
    elif kind != "transport":
        raise ConfigError(f"kind must be 'full' or 'transport', got {kind!r}")
    return ScalarField(grid, out)


def _check_admissible(v: ScalarField, epsilon: int) -> None:
    if epsilon not in (1, -1):
        raise ConfigError(f"epsilon must be +1 or -1, got {epsilon}")
    peak = v.max_abs()
    if peak == 0.0:
        raise ConfigError("sample is identically zero")
    tol = 1e-12 * peak
    lateral = np.abs(v.values[(slice(None),) + v.grid.boundary_index]).max()
    if lateral > tol:
        raise ConfigError("sample must vanish on the lateral boundary")
    slice_idx = 0 if epsilon == 1 else -1
    cap = np.abs(v.values[slice_idx]).max()
    if cap > tol:
        which = "initial" if epsilon == 1 else "final"
        raise ConfigError(f"sample must vanish on the {which} time slice")


def poincare_ratio(v: ScalarField, omega, rho: float, epsilon: int = 1) -> float:
    """rho ||v|| / ||(d_t - 2 rho omega.grad) v|| for admissible samples.

    The sample must vanish on the lateral boundary and on the time slice the
    orientation starts from.  The proof bounds this by 2R with R the radius
    of the smallest ball containing the box (the sharper form reads
    rho^2 * 16 R^2 / (1 + 4 rho^2) <= 4 R^2).  The backward operator is the
    pointwise negative of the forward one, so the ratio formula is shared;
    only the admissibility check depends on the orientation.
    """
    if not rho > 2.0:
        raise ConfigError(f"rho must exceed 2, got {rho}")
    _check_admissible(v, epsilon)
    qv = conjugated_apply("transport", v, omega, rho)
    return rho * v.l2_norm() / qv.l2_norm()


def _lateral_direction_integral(grid: Grid, normal_sq: np.ndarray, omega,
                                side: int) -> float:
    """integral over {side * nu.omega > 0} of |d_nu b|^2 |omega.nu|."""
    dots = grid.boundary_normals @ omega
    sel = side * dots > 0.0
    weights = np.where(sel, np.abs(dots), 0.0)
    return grid.integrate_boundary(normal_sq * weights[None, :])


def carleman_parts(b: ScalarField, q: Potential | None, omega, rho: float,
                   epsilon: int = 1):
    """Both sides of the weighted energy inequality in conjugated form.

    b plays the role of (weight) * u for a sample u vanishing on the lateral
    boundary and on the starting slice.  In these variables:

      lhs = int_{end slice} |b|^2 + rho int_{outflow} |d_nu b|^2 |omega.nu|
            + rho^2 int_Q |b|^2
      rhs = int_Q |(conjugated op + q) b|^2
            + rho int_{inflow} |d_nu b|^2 |omega.nu|

    where outflow/inflow are the boundary parts with eps * nu.omega positive/
    negative, and the end slice is t=T forward, t=0 backward.
    """
    if not rho > 2.0:
        raise ConfigError(f"rho must exceed 2, got {rho}")
    _check_admissible(b, epsilon)
    grid = b.grid
    omega = unit_direction(omega, grid.n)
    qvals = 0.0 if q is None else q.values

    if epsilon == 1:
        op = conjugated_apply("full", b, omega, rho).values
    else:
        # backward conjugation: -d_t - Lap + 2 rho omega.grad
        op = -fd.diff1(b.values, grid.ht, 0) - sum(
            fd.diff2(b.values, grid.hx, 1 + a) for a in range(grid.n)
        ) + 2.0 * rho * sum(
            omega[a] * fd.diff1(b.values, grid.hx, 1 + a) for a in range(grid.n)
        )
    pb = op + qvals * b.values

    flux = neumann_trace(b)
    normal_sq = np.abs(flux.values) ** 2

    end_slice = -1 if epsilon == 1 else 0
    cap = float(np.sum(grid.space_weights * np.abs(b.values[end_slice]) ** 2))
    lhs = (
        cap
        + rho * _lateral_direction_integral(grid, normal_sq, omega, epsilon)
        + rho**2 * b.l2_norm() ** 2
    )
    rhs = ScalarField(grid, pb).l2_norm() ** 2 + rho * _lateral_direction_integral(
        grid, normal_sq, omega, -epsilon
    )
    if rhs == 0.0:
        raise ConfigError("degenerate sample: vanishing right-hand side")
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise SolverError(f"weighted inequality sides are not finite: lhs {lhs}, rhs {rhs}")
    return lhs, rhs


def sample_family(grid: Grid, count: int, seed: int, epsilon: int = 1) -> list:
    """Admissible test samples: sine modes in space, polynomials in time,
    then seeded random sine mixtures.  All vanish on the lateral boundary
    and on the starting slice."""
    if epsilon not in (1, -1):
        raise ConfigError(f"epsilon must be +1 or -1, got {epsilon}")
    if count < 1:
        raise ConfigError(f"sample count must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    coords = grid.space_coordinates()
    tt = grid.ts / grid.T if epsilon == 1 else (grid.T - grid.ts) / grid.T
    tshape = (-1,) + (1,) * grid.n

    def spatial_mode(js):
        out = np.ones(grid.space_shape)
        for a, j in enumerate(js):
            out = out * np.sin(j * np.pi * np.broadcast_to(coords[a], grid.space_shape))
        return out

    samples = []
    structured = []
    if grid.n == 1:
        mode_sets = [(1,), (2,), (3,), (1,), (2,)]
    else:
        mode_sets = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]
    powers = [1, 1, 1, 2, 3]
    for js, p in zip(mode_sets, powers):
        structured.append(spatial_mode(js) * (tt**p).reshape(tshape))
    for vals in structured[:count]:
        samples.append(ScalarField(grid, vals.astype(np.complex128)))
    while len(samples) < count:
        if grid.n == 1:
            js_pool = [(j,) for j in range(1, 4)]
        else:
            js_pool = [(j, k) for j in range(1, 3) for k in range(1, 3)]
        vals = np.zeros(grid.field_shape)
        for js in js_pool:
            c = rng.normal()
            p = rng.integers(1, 4)
            vals = vals + c * spatial_mode(js) * (tt**p).reshape(tshape)
        peak = np.abs(vals).max()
        if peak < 1e-12:
            continue
        samples.append(ScalarField(grid, (vals / peak).astype(np.complex128)))
    return samples


def energy_cross_term(v: ScalarField):
    """The integration-by-parts identity behind the inequality's proof.

    For real v vanishing on the lateral boundary and at t=0:
      -2 int_Q (Lap v) (d_t v) = int_Omega |grad v(., T)|^2.
    Returns (lhs, rhs) computed by finite differences and trapezoid rule.
    """
    grid = v.grid
    vals = v.values.real
    lap = sum(fd.diff2(vals, grid.hx, 1 + a) for a in range(grid.n))
    vt = fd.diff1(vals, grid.ht, 0)
    lhs = -2.0 * grid.integrate_volume(lap * vt)
    grads = [fd.diff1(vals[-1], grid.hx, a) for a in range(grid.n)]
    rhs = float(np.sum(grid.space_weights * sum(g**2 for g in grads)))
    return float(lhs.real if np.iscomplexobj(lhs) else lhs), rhs


@dataclass
class CarlemanReport:
    """Ratio table over (sample, rho), energy and transport ratios side by side."""

    rows: list = dc_field(default_factory=list)
    poincare_rows: list = dc_field(default_factory=list)

    @property
    def max_ratio(self) -> float:
        return max(r["ratio"] for r in self.rows)

    def max_ratio_at(self, rho: float) -> float:
        return max(r["ratio"] for r in self.rows if r["rho"] == rho)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_id", "rho", "lhs", "rhs", "ratio"])
            for r in self.rows:
                writer.writerow(
                    [
                        r["sample_id"],
                        "%.12e" % r["rho"],
                        "%.12e" % r["lhs"],
                        "%.12e" % r["rhs"],
                        "%.12e" % r["ratio"],
                    ]
                )

    def poincare_to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_id", "rho", "ratio"])
            for r in self.poincare_rows:
                writer.writerow(
                    [r["sample_id"], "%.12e" % r["rho"], "%.12e" % r["ratio"]]
                )


def carleman_report(grid: Grid, q: Potential | None, omega, rhos, samples,
                    epsilon: int = 1) -> CarlemanReport:
    """Evaluate both ratios for every (sample, rho) pair."""
    report = CarlemanReport()
    for rho in rhos:
        for sid, b in enumerate(samples):
            lhs, rhs = carleman_parts(b, q, omega, rho, epsilon)
            report.rows.append(
                {
                    "sample_id": sid,
                    "rho": float(rho),
                    "lhs": lhs,
                    "rhs": rhs,
                    "ratio": lhs / rhs,
                }
            )
            report.poincare_rows.append(
                {
                    "sample_id": sid,
                    "rho": float(rho),
                    "ratio": poincare_ratio(b, omega, rho, epsilon),
                }
            )
    return report
