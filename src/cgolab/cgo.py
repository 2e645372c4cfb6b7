"""Exponentially weighted probe solutions.

A probe is u = (exponential weight) * (principal part + remainder).  The
weight carries the large parameter rho along a direction omega; the principal
part switches on smoothly at the initial (forward) or final (backward) time
and carries the frequency content; the remainder solves a corrector problem
that makes u an exact solution of the conjugated equation with the potential.

Everything here works in conjugated variables: the remainder equation, its
source, and the residual diagnostics never multiply by the weight, so large
rho stays finite.  Assembling the probe field itself (weight times profile)
is guarded against exponent overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import fd
from .errors import ConfigError, SolverError
from .fields import BoundaryField, Potential, ScalarField
from .forward import solve_backward, solve_forward
from .grid import DirectionMask, Grid, direction_mask, unit_direction

__all__ = [
    "CgoParams",
    "CgoSolution",
    "exp_weight",
    "principal_part",
    "corrector_source",
    "probe_trace",
    "build_cgo",
    "remainder_decay_report",
    "envelope_fit",
]

# e^x overflows float64 just above 709; keep a margin.
_EXP_GUARD = 700.0


@dataclass
class CgoParams:
    """One probe's parameters: time orientation, direction, frequency, size.

    epsilon: +1 forward (vanishes at t=0), -1 backward (vanishes at t=T).
    omega:   unit direction in R^n carried by the exponential weight.
    xi:      spatial frequency, orthogonal to omega.
    tau:     temporal frequency.
    rho:     weight size; everything downstream assumes rho > 2, and the
             overflow guard caps what a given cylinder can host.
    delta:   half-opening of the boundary set where the probe is forced to
             vanish (see build_cgo).
    """

    epsilon: int
    omega: np.ndarray
    xi: np.ndarray
    tau: float
    rho: float
    delta: float = 0.25

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise ConfigError(f"epsilon must be +1 or -1, got {self.epsilon}")
        self.xi = np.asarray(self.xi, dtype=float)
        self.omega = unit_direction(self.omega, self.xi.size)
        if abs(float(self.omega @ self.xi)) > 1e-12:
            raise ConfigError("xi must be orthogonal to omega")
        if not self.rho > 2.0:
            raise ConfigError(f"rho must exceed 2, got {self.rho}")
        if not 0.0 <= self.delta < 1.0:
            raise ConfigError(f"delta must lie in [0, 1), got {self.delta}")
        self.tau = float(self.tau)
        self.rho = float(self.rho)

    @property
    def n(self) -> int:
        return self.omega.size

    @property
    def zeta_bracket_sq(self) -> float:
        """1 + |xi|^2 + tau^2, the squared frequency bracket."""
        return 1.0 + float(self.xi @ self.xi) + self.tau**2


def _points(grid: Grid, on_boundary: bool):
    """Coordinate arrays of every space point (space-shaped) or of the
    single-counted boundary points (nb,)."""
    coords = [np.broadcast_to(c, grid.space_shape) for c in grid.space_coordinates()]
    return [c[grid.boundary_index] for c in coords] if on_boundary else coords


def _time_column(grid: Grid, space_ndim: int) -> np.ndarray:
    return grid.ts.reshape((-1,) + (1,) * space_ndim)


def _weight_exponent(grid: Grid, epsilon: int, omega, rho: float,
                     on_boundary: bool = False) -> np.ndarray:
    coords = _points(grid, on_boundary)
    wx = sum(omega[a] * coords[a] for a in range(grid.n))
    return -epsilon * (rho * wx[None, ...] + rho**2 * _time_column(grid, wx.ndim))


def _guarded_exp(expo: np.ndarray) -> np.ndarray:
    peak = float(np.abs(expo).max())
    if peak > _EXP_GUARD:
        raise SolverError(
            f"weight exponent reaches {peak:.1f} (limit {_EXP_GUARD:.0f}); "
            "evaluate in conjugated variables instead"
        )
    return np.exp(expo)


def exp_weight(grid: Grid, epsilon: int, omega, rho: float) -> ScalarField:
    """The weight e^{-eps(rho w.x + rho^2 t)}."""
    if epsilon not in (1, -1):
        raise ConfigError(f"epsilon must be +1 or -1, got {epsilon}")
    omega = unit_direction(omega, grid.n)
    expo = _weight_exponent(grid, epsilon, omega, rho)
    return ScalarField(grid, _guarded_exp(expo).astype(np.complex128))


def _switch_on(grid: Grid, epsilon: int, rho: float) -> np.ndarray:
    """1 - e^{-rho^{3/4} t} (forward) or with t replaced by T - t (backward)."""
    t = grid.ts if epsilon == 1 else grid.T - grid.ts
    return -np.expm1(-rho**0.75 * t)


def _oscillation(grid: Grid, xi, tau: float, on_boundary: bool = False) -> np.ndarray:
    coords = _points(grid, on_boundary)
    xi = np.asarray(xi, dtype=float)
    phase = sum(xi[a] * coords[a] for a in range(grid.n))
    phase = phase[None, ...] + tau * _time_column(grid, phase.ndim)
    return np.exp(-1j * phase)


def _principal_values(grid: Grid, params: CgoParams, on_boundary: bool = False) -> np.ndarray:
    """Values of the principal part on the whole cylinder, or (nt, nb) at
    the lateral boundary points."""
    space_ndim = 1 if on_boundary else grid.n
    ramp = _switch_on(grid, params.epsilon, params.rho).reshape((-1,) + (1,) * space_ndim)
    if params.epsilon == 1:
        return ramp * _oscillation(grid, params.xi, params.tau, on_boundary)
    shape = (grid.nt, grid.n_boundary) if on_boundary else grid.field_shape
    return np.broadcast_to(ramp.astype(np.complex128), shape).copy()


def principal_part(grid: Grid, params: CgoParams) -> ScalarField:
    """Smoothly switched-on probe profile; the forward one oscillates."""
    return ScalarField(grid, _principal_values(grid, params))


def corrector_source(grid: Grid, params: CgoParams, q: Potential | None = None) -> ScalarField:
    """Right-hand side of the conjugated remainder equation.

    Applying the conjugated operator to the principal part and negating:

      forward:  -e^{-i(x.xi + t tau)} [(-i tau + |xi|^2 + q)(1-E) + rho^{3/4} E]
      backward: -[q (1-F) + rho^{3/4} F]

    with E = e^{-rho^{3/4} t}, F = e^{-rho^{3/4}(T-t)}.  The omega-gradient
    term drops because xi . omega = 0.
    """
    qvals = 0.0 if q is None else q.values
    rho34 = params.rho**0.75
    shape = (-1,) + (1,) * grid.n
    if params.epsilon == 1:
        decay = np.exp(-rho34 * grid.ts).reshape(shape)
        ramp = 1.0 - decay
        bracket = (-1j * params.tau + float(params.xi @ params.xi) + qvals) * ramp
        vals = -_oscillation(grid, params.xi, params.tau) * (bracket + rho34 * decay)
    else:
        decay = np.exp(-rho34 * (grid.T - grid.ts)).reshape(shape)
        vals = -(qvals * (1.0 - decay) + rho34 * decay)
        vals = np.broadcast_to(np.asarray(vals, dtype=np.complex128), grid.field_shape).copy()
    return ScalarField(grid, np.asarray(vals, dtype=np.complex128))


def _taper_weights(grid: Grid, mask: DirectionMask) -> np.ndarray:
    """1 on the mask, 1/2 on the boundary points one index step away from it
    along a space axis, else 0.  In 1-d no two boundary points are one step
    apart, so the weights are the mask's."""
    on = np.zeros(grid.space_shape, dtype=bool)
    on[grid.boundary_index] = mask.values
    near = on.copy()
    for axis in range(grid.n):
        lower = (slice(None),) * axis + (slice(None, -1),)
        upper = (slice(None),) * axis + (slice(1, None),)
        near[lower] |= on[upper]
        near[upper] |= on[lower]
    w = np.where(near[grid.boundary_index], 0.5, 0.0)
    w[mask.values] = 1.0
    return w


def _conjugated_residual(grid: Grid, profile: np.ndarray, params: CgoParams,
                         q: Potential | None) -> float:
    """L2 norm of the conjugated operator applied to (principal + remainder).

    Finite differences throughout; for the exact probe this vanishes, so the
    value measures discretization error (growing like rho^2 through the
    time-derivative of the weight's conjugation terms).
    """
    eps, rho = params.epsilon, params.rho
    dt = fd.diff1(profile, grid.ht, 0)
    lap = sum(fd.diff2(profile, grid.hx, 1 + a) for a in range(grid.n))
    grad_w = sum(
        params.omega[a] * fd.diff1(profile, grid.hx, 1 + a) for a in range(grid.n)
    )
    qvals = 0.0 if q is None else q.values
    resid = eps * dt - lap - 2 * eps * rho * grad_w + qvals * profile
    return ScalarField(grid, resid).l2_norm()


@dataclass
class CgoSolution:
    """Assembled probe: weight * (principal + remainder)."""

    grid: Grid
    params: CgoParams
    principal: ScalarField
    remainder: ScalarField
    residual_norm: float
    _field: ScalarField | None = dc_field(default=None, repr=False)

    @property
    def profile(self) -> ScalarField:
        """The conjugated (weight-free) probe, principal + remainder."""
        return ScalarField(self.grid, self.principal.values + self.remainder.values)

    @property
    def field(self) -> ScalarField:
        """The probe itself; raises if the weight overflows at this rho."""
        if self._field is None:
            w = exp_weight(self.grid, -self.params.epsilon, self.params.omega, self.params.rho)
            self._field = ScalarField(self.grid, w.values * self.profile.values)
        return self._field

    def boundary_trace(self) -> BoundaryField:
        return self.field.boundary_trace()


def _corrector_lateral(grid: Grid, params: CgoParams, vanish_mask: DirectionMask | None,
                       principal: np.ndarray) -> np.ndarray:
    """The corrector's lateral Dirichlet values: -(principal trace) on the
    vanish mask, halved on the one-cell ring around it, zero elsewhere.

    Default mask: faces whose outward normal opposes (forward) or follows
    (backward) omega beyond the params.delta threshold."""
    if vanish_mask is None:
        vanish_mask = direction_mask(grid, params.omega, params.delta, sign=-params.epsilon)
    return -_taper_weights(grid, vanish_mask)[None, :] * principal


def probe_trace(grid: Grid, params: CgoParams,
                vanish_mask: DirectionMask | None = None) -> BoundaryField:
    """The probe's lateral Dirichlet trace, equal to build_cgo(...).boundary_trace().

    The corrector's lateral values are prescribed, so on the lateral boundary
    the probe is weight * principal * (1 - taper) whatever the potential and
    the interior march.  Phase, ramp and weight are evaluated at the boundary
    points alone.  The weight exponent is linear in x and t, so its largest
    magnitude sits at a corner of the cylinder, a boundary point: the
    overflow guard is the one the assembled probe would meet.
    """
    if params.n != grid.n:
        raise ConfigError("params dimension does not match the grid")
    principal = _principal_values(grid, params, on_boundary=True)
    lateral = principal + _corrector_lateral(grid, params, vanish_mask, principal)
    weight = _guarded_exp(_weight_exponent(grid, -params.epsilon, params.omega, params.rho,
                                           on_boundary=True))
    return BoundaryField(grid, weight * lateral)


def build_cgo(grid: Grid, params: CgoParams, q: Potential | None = None,
              vanish_mask: DirectionMask | None = None, theta: float = 0.5,
              compute_residual: bool = True) -> CgoSolution:
    """Solve the corrector problem and assemble the probe.

    The remainder solves the conjugated equation (drift -2 eps rho omega) with
    the corrector source, zero data at the probe's quiet end (t=0 forward,
    t=T backward) and the lateral values of `_corrector_lateral`: -(principal
    part) on the vanish mask, tapered one cell out, zero on the rest.  The
    probe then vanishes on the mask up to solver tolerance.
    """
    if params.n != grid.n:
        raise ConfigError("params dimension does not match the grid")
    if q is not None and not grid.same_layout(q.grid):
        raise ValueError("potential lives on a different grid")

    theta_field = principal_part(grid, params)
    source = corrector_source(grid, params, q)
    bdata = BoundaryField(grid, _corrector_lateral(grid, params, vanish_mask,
                                                   theta_field.boundary_trace().values))
    conv = -2.0 * params.epsilon * params.rho * params.omega
    solve = solve_forward if params.epsilon == 1 else solve_backward
    w = solve(grid, q, bdata, None, source, theta, conv)

    resid = math.nan
    if compute_residual:
        resid = _conjugated_residual(grid, theta_field.values + w.values, params, q)
    return CgoSolution(grid, params, theta_field, w, resid)


def remainder_decay_report(grid: Grid, q: Potential | None, xi, tau: float,
                           rhos, omega=None, delta: float = 0.25,
                           theta: float = 0.5) -> dict:
    """Sweep rho at fixed frequency; report remainder norms and decay slopes.

    The accuracy guard rho^2 * ht <= 5 keeps the weight's time scale resolved;
    out-of-range entries are rejected rather than silently degraded.
    """
    rhos = np.asarray(rhos, dtype=float)
    if rhos.size < 4:
        raise ConfigError("need at least 4 rho values to fit a slope")
    if float(rhos.max()) ** 2 * grid.ht > 5.0:
        raise ConfigError(
            f"rho={rhos.max():.3g} is unresolved on this grid (rho^2*ht > 5)"
        )
    xi = np.asarray(xi, dtype=float)
    if omega is None:
        omega = _default_omega(grid.n, xi)
    norms = {1: [], -1: []}
    residuals = {1: [], -1: []}
    for rho in rhos:
        for eps in (1, -1):
            params = CgoParams(eps, omega, xi, tau, rho, delta)
            sol = build_cgo(grid, params, q, theta=theta)
            norms[eps].append(sol.remainder.l2_norm())
            residuals[eps].append(sol.residual_norm)
    logs = np.log(rhos)
    slope_plus = float(np.polyfit(logs, np.log(norms[1]), 1)[0])
    slope_minus = float(np.polyfit(logs, np.log(norms[-1]), 1)[0])
    return {
        "rho": rhos.tolist(),
        "w_plus": norms[1],
        "w_minus": norms[-1],
        "residual_plus": residuals[1],
        "residual_minus": residuals[-1],
        "slope_plus": slope_plus,
        "slope_minus": slope_minus,
    }


def envelope_fit(grid: Grid, q: Potential | None, rhos, zetas, omega=None,
                 delta: float = 0.25, theta: float = 0.5):
    """Fit ||w_forward|| <= A rho^{-1/4} + B rho^{-1} <zeta>^2 over a (rho, zeta) grid.

    Nonnegative least squares on the two-column design; returns (A, B, records)
    with one record per (rho, zeta) pair.
    """
    rows, rhs, records = [], [], []
    for rho in np.asarray(rhos, dtype=float):
        for xi, tau in zetas:
            xi = np.asarray(xi, dtype=float)
            om = _default_omega(grid.n, xi) if omega is None else omega
            params = CgoParams(1, om, xi, tau, rho, delta)
            sol = build_cgo(grid, params, q, theta=theta, compute_residual=False)
            wnorm = sol.remainder.l2_norm()
            bracket = params.zeta_bracket_sq
            rows.append([rho**-0.25, bracket / rho])
            rhs.append(wnorm)
            records.append({"rho": float(rho), "bracket_sq": bracket, "w_plus": wnorm})
    coeffs = _nonnegative_fit(np.asarray(rows), np.asarray(rhs))
    return float(coeffs[0]), float(coeffs[1]), records


def _nonnegative_fit(design, rhs) -> np.ndarray:
    """Least-squares coefficients >= 0 of a two-column design.

    The problem is convex, so when the unconstrained fit has a negative
    coefficient the constrained one lies on an edge of the quadrant, where it
    is a single-column fit clipped at 0; the edge with the smaller residual
    wins.
    """
    coeffs = np.linalg.lstsq(design, rhs, rcond=None)[0]
    if np.all(coeffs >= 0):
        return coeffs
    edges = []
    for j in range(2):
        col = design[:, j]
        edge = np.zeros(2)
        edge[j] = max(col @ rhs / (col @ col), 0.0)
        edges.append(edge)
    return min(edges, key=lambda c: np.linalg.norm(design @ c - rhs))


def _default_omega(n: int, xi) -> np.ndarray:
    """A unit vector orthogonal to xi (axis-aligned preference)."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (n,):
        raise ConfigError(f"xi must have shape ({n},), got {xi.shape}")
    if np.linalg.norm(xi) < 1e-14:
        return unit_direction(None, n)
    if n == 1:
        raise ConfigError("in one dimension only xi = 0 admits an orthogonal direction")
    perp = np.array([-xi[1], xi[0]])
    return perp / np.linalg.norm(perp)
