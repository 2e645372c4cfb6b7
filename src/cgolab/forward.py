"""Implicit theta-scheme solvers for the parabolic initial-boundary problems.

All solvers discretize on the tensor grid of `Grid` with the standard
second-order Laplacian, optional constant-coefficient convection (central
differences), and a theta time step with theta in [1/2, 1].  Boundary data is
imposed strongly: the operator is a sparse interior block A plus a matrix B
that lifts the lateral values into the interior equations, so a march lifts
every time level with one product and steps on interior vectors only.  One
kernel, `ThetaScheme`, makes the linear marches and the Newton steps of the
semilinear solver.  Where the lateral data at t=0 disagrees with the initial
slice on the boundary, the lateral value wins and a warning is emitted (the
discrepancy lives on the corner of the cylinder).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import splu

from .errors import SolverError
from .fields import BoundaryField, Potential, ScalarField
from .grid import Grid

__all__ = [
    "ThetaScheme",
    "SemilinearResult",
    "solve_forward",
    "solve_backward",
    "solve_semilinear",
    "neumann_trace",
]

# Interior problems stay modest at desk scale; keep the per-level factors of
# a time-varying potential only while the total storage stays cheap.
_CACHE_DOF_LIMIT = 1600

# The 2-d step matrix has the symmetric pattern of the five-point stencil.
# Minimum degree on A^T + A with diagonal pivots preferred leaves about two
# thirds of COLAMD's fill (10,234 against 15,780 L+U nonzeros on a 25x25
# grid), which makes both the factorization and each solve faster.
_SPLU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "options": {"SymmetricMode": True}}


def _check_theta(theta):
    if not 0.5 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [1/2, 1], got {theta}")


def _interior(values, n):
    """Interior points of the space slices held in the last n axes, flattened."""
    inner = values[(..., *(slice(1, -1),) * n)]
    return inner.reshape(inner.shape[:inner.ndim - n] + (-1,))


def _spatial_operator(grid: Grid, convection):
    """(Laplacian - convection . grad) on every point of a space slice, in the
    C-order flattening of the slice; boundary rows are meaningless."""
    nx, hx = grid.nx, grid.hx
    d2 = sp.diags([1.0, -2.0, 1.0], (-1, 0, 1), shape=(nx, nx)) / hx**2
    d1 = sp.diags([-1.0, 1.0], (-1, 1), shape=(nx, nx)) / (2 * hx)

    def along(d, axis):
        factors = [sp.identity(nx)] * grid.n
        factors[axis] = d
        return functools.reduce(sp.kron, factors)

    op = along(d2, 0)
    for axis in range(1, grid.n):
        op = op + along(d2, axis)
    if convection is not None:
        for axis, c in enumerate(convection):
            if c != 0.0:
                op = op - c * along(d1, axis)
    return op.tocsr()


class _Tridiagonal:
    """LAPACK ?gttrf factor of a real tridiagonal matrix, solved with ?gttrs."""

    def __init__(self, lower, diag, upper):
        *self._factors, info = dgttrf(lower, diag, upper)
        if info > 0:
            raise np.linalg.LinAlgError("exactly singular tridiagonal matrix")

    def solve(self, rhs):
        return dgttrs(*self._factors, rhs)[0]


class ThetaScheme:
    """Time stepper for (d_t - Laplacian + convection . grad + q) u = f.

    Building the object assembles A and B once.  Each step solves with
    I - theta*ht*(A - diag q), factored with LAPACK ?gttrf in 1-d and a sparse
    LU in 2-d.  A time-invariant q is factored once and the factor serves every
    step of every later solve, as in column-by-column boundary-map assembly.
    A time-varying q is factored per time level, and those factors are kept
    when `cache` is true (by default, at most _CACHE_DOF_LIMIT unknowns).
    Complex data marches as one real block of two columns.
    """

    def __init__(self, grid: Grid, q: Potential | None = None, theta: float = 0.5,
                 convection=None, cache: bool | None = None):
        _check_theta(theta)
        if q is not None and not grid.same_layout(q.grid):
            raise ValueError("potential lives on a different grid")
        if convection is not None:
            convection = np.asarray(convection, dtype=float)
            if convection.shape != (grid.n,):
                raise ValueError(f"convection must have shape ({grid.n},)")
        self.grid = grid
        self.theta = theta
        self.convection = convection
        self.q_values = np.zeros(grid.field_shape) if q is None else q.values
        self.time_invariant = bool(np.all(self.q_values == self.q_values[0]))

        inner = _interior(np.arange(grid.nx**grid.n).reshape(grid.space_shape), grid.n)
        outer = np.ravel_multi_index(grid.boundary_index, grid.space_shape)
        rows = _spatial_operator(grid, convection)[inner]
        self._op = rows[:, inner].tocsc()
        self._lift = rows[:, outer].tocsr()
        self._ndof = inner.size
        self._q_int = _interior(self.q_values, grid.n)

        # a time-invariant q moves into the explicit matrix; a varying one is
        # applied per level in the march
        eye = sp.identity(self._ndof, format="csc")
        ht = grid.ht
        explicit = eye + (1 - theta) * ht * self._op
        if self.time_invariant:
            explicit = explicit - sp.diags((1 - theta) * ht * self._q_int[0])
        self._explicit = explicit.tocsr()
        self._implicit = (eye - theta * ht * self._op).tocsc()
        if grid.n == 1:
            self._bands = tuple(self._implicit.diagonal(k) for k in (-1, 0, 1))
        if cache is None:
            cache = self._ndof <= _CACHE_DOF_LIMIT
        self._cache = cache
        self._lus = {}

    def _factor(self, q_int, level):
        """Factor of I - theta*ht*(A - diag q_int), the step into `level`."""
        shift = self.theta * self.grid.ht * q_int
        try:
            if self.grid.n == 1:
                lower, diag, upper = self._bands
                return _Tridiagonal(lower, diag + shift, upper)
            return splu((self._implicit + sp.diags(shift)).tocsc(), **_SPLU_OPTIONS)
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            raise SolverError(
                f"singular step matrix at time level {level} "
                f"(min of 1 + theta*ht*q is {float((1.0 + shift).min()):.3e})"
            ) from exc

    def _lu(self, level):
        key = -1 if self.time_invariant else level
        lu = self._lus.get(key)
        if lu is None:
            lu = self._factor(self._q_int[level], level)
            if self._cache or self.time_invariant:
                self._lus[key] = lu
        return lu

    def _initial_interior(self, bvals, u0, warn_incompatible: bool):
        """Interior values of the initial slice; the lateral data bvals[0]
        wins on the boundary, with a warning when the two disagree."""
        grid = self.grid
        first = np.zeros(grid.space_shape, dtype=np.complex128)
        if u0 is not None:
            u0 = np.asarray(u0)
            if u0.shape != grid.space_shape:
                raise ValueError("initial slice has the wrong shape")
            first[...] = u0
        clash = np.abs(first[grid.boundary_index] - bvals[0])
        scale = max(np.abs(first).max(), np.abs(bvals).max(), 1.0)
        if warn_incompatible and clash.max() > 1e-10 * scale:
            warnings.warn(
                "lateral data and initial slice disagree at t=0; "
                "keeping the lateral value",
                stacklevel=3,
            )
        return _interior(first, grid.n)

    def _field(self, interior, bvals) -> ScalarField:
        grid = self.grid
        u = np.empty(grid.field_shape, dtype=np.complex128)
        u[(slice(None), *(slice(1, -1),) * grid.n)] = interior.reshape(
            (grid.nt,) + (grid.nx - 2,) * grid.n)
        u[(slice(None), *grid.boundary_index)] = bvals
        return ScalarField(grid, u)

    def solve(self, bdata: BoundaryField, u0=None, source: ScalarField | None = None,
              warn_incompatible: bool = True) -> ScalarField:
        grid = self.grid
        if not grid.same_layout(bdata.grid):
            raise ValueError("boundary data lives on a different grid")
        if source is not None and not grid.same_layout(source.grid):
            raise ValueError("source lives on a different grid")
        theta, ht, nt = self.theta, grid.ht, grid.nt

        bvals = bdata.values
        lift = (self._lift @ bvals.T).T
        drive = ht * ((1 - theta) * lift[:-1] + theta * lift[1:])
        if source is not None:
            f = _interior(source.values, grid.n)
            drive += ht * (theta * f[1:] + (1 - theta) * f[:-1])
        x0 = self._initial_interior(bvals, u0, warn_incompatible)

        # real data marches as one column, complex data as a (re, im) block
        if not (drive.imag.any() or x0.imag.any()):
            drive, x0 = drive.real, x0.real
        drive = np.ascontiguousarray(drive)
        x = np.empty((nt, self._ndof), dtype=drive.dtype)
        x[0] = x0
        xb = x.view(np.float64).reshape(nt, self._ndof, -1)
        db = drive.view(np.float64).reshape(nt - 1, self._ndof, -1)
        q_step = None if self.time_invariant else (1 - theta) * ht * self._q_int[:, :, None]
        with np.errstate(invalid="ignore", over="ignore"):
            for k in range(nt - 1):
                rhs = self._explicit @ xb[k]
                if q_step is not None:
                    rhs -= q_step[k] * xb[k]
                rhs += db[k]
                xb[k + 1] = self._lu(k + 1).solve(rhs)
        finite = np.isfinite(x).all(axis=1)
        if not finite.all():
            raise SolverError(f"non-finite solution at time level {int(np.argmin(finite))}")
        return self._field(x, bvals)


def solve_forward(grid: Grid, q: Potential | None, bdata: BoundaryField, u0=None,
                  source: ScalarField | None = None, theta: float = 0.5,
                  convection=None, scheme: ThetaScheme | None = None,
                  warn_incompatible: bool = True) -> ScalarField:
    """Solve (d_t - Laplacian + convection . grad + q) u = source, u(0) = u0."""
    if scheme is None:
        scheme = ThetaScheme(grid, q, theta, convection, cache=False)
    return scheme.solve(bdata, u0, source, warn_incompatible)


def _reversed_potential(q: Potential | None):
    if q is None:
        return None
    return Potential(q.grid, q.values[::-1], m=q.m)


def solve_backward(grid: Grid, q: Potential | None, bdata: BoundaryField, uT=None,
                   source: ScalarField | None = None, theta: float = 0.5,
                   convection=None, warn_incompatible: bool = True) -> ScalarField:
    """Solve (-d_t - Laplacian + convection . grad + q) u = source, u(T) = uT.

    Realized by reflecting time, solving forward, and reflecting back, so the
    scheme is the exact mirror of solve_forward.
    """
    rev_b = BoundaryField(grid, bdata.values[::-1])
    rev_f = None if source is None else ScalarField(grid, source.values[::-1])
    out = solve_forward(
        grid,
        _reversed_potential(q),
        rev_b,
        uT,
        rev_f,
        theta,
        convection,
        warn_incompatible=warn_incompatible,
    )
    return ScalarField(grid, out.values[::-1])


def neumann_trace(u: ScalarField) -> BoundaryField:
    """Outward normal derivative on the lateral boundary.

    One-sided three-point stencil along the owning face's normal axis, exact
    for quadratics.  Needs nx >= 4 so the stencil never reaches across.
    """
    grid = u.grid
    if grid.nx < 4:
        raise ValueError(f"grid too small for the one-sided stencil (nx={grid.nx} < 4)")
    out = np.empty((grid.nt, grid.n_boundary), dtype=np.complex128)
    for fid, face in enumerate(grid.faces):
        pts = np.flatnonzero(grid.boundary_face == fid)
        if pts.size == 0:
            continue
        idx0 = [grid.boundary_index[a][pts] for a in range(grid.n)]
        inward = -1 if face.side == 1 else 1
        idx1 = [arr.copy() for arr in idx0]
        idx2 = [arr.copy() for arr in idx0]
        idx1[face.axis] = idx0[face.axis] + inward
        idx2[face.axis] = idx0[face.axis] + 2 * inward
        vals = (
            3 * u.values[(slice(None), *idx0)]
            - 4 * u.values[(slice(None), *idx1)]
            + u.values[(slice(None), *idx2)]
        ) / (2 * grid.hx)
        out[:, pts] = vals
    return BoundaryField(grid, out)


@dataclass
class SemilinearResult:
    field: ScalarField
    newton_iterations: list

    @property
    def max_iterations(self) -> int:
        return max(self.newton_iterations) if self.newton_iterations else 0


def solve_semilinear(grid: Grid, a, bdata: BoundaryField, u0=None, theta: float = 0.5,
                     newton_tol: float = 1e-10, max_iter: int = 50,
                     max_halvings: int = 10,
                     warn_incompatible: bool = True) -> SemilinearResult:
    """Solve (d_t - Laplacian) u + a(x, t, u) = 0 with data on the parabolic boundary.

    `a` needs vectorized methods value(*x, t, u) and du(*x, t, u).  Each step
    runs a damped Newton iteration on the theta-stepped equation down to
    residual newton_tol; the Jacobian is ThetaScheme's step matrix with
    q = du, divided by ht.  Data must be real.
    """
    scheme = ThetaScheme(grid, None, theta)
    if not grid.same_layout(bdata.grid):
        raise ValueError("boundary data lives on a different grid")
    if np.abs(bdata.values.imag).max() > 0:
        raise ValueError("semilinear solver expects real boundary data")
    if u0 is not None and np.iscomplexobj(u0) and np.abs(np.imag(u0)).max() > 0:
        raise ValueError("semilinear solver expects real initial data")
    bvals = bdata.values.real
    op, ht = scheme._op, grid.ht
    lift = (scheme._lift @ bvals.T).T
    xint = tuple(_interior(np.broadcast_to(c, grid.space_shape), grid.n)
                 for c in grid.space_coordinates())

    x = np.empty((grid.nt, scheme._ndof))
    x[0] = scheme._initial_interior(bvals, u0, warn_incompatible).real
    iterations = []
    for k in range(grid.nt - 1):
        t0, t1 = grid.ts[k], grid.ts[k + 1]
        xk = x[k]
        explicit = op @ xk + lift[k] - a.value(*xint, t0, xk)

        def residual(v):
            lap = op @ v + lift[k + 1]
            return (v - xk) / ht - theta * (lap - a.value(*xint, t1, v)) - (
                1 - theta
            ) * explicit

        v = xk.copy()
        res = residual(v)
        it = 0
        while np.abs(res).max() > newton_tol:
            if it >= max_iter:
                raise SolverError(
                    f"Newton did not converge at time level {k + 1} "
                    f"(residual {np.abs(res).max():.3e})"
                )
            step = scheme._factor(a.du(*xint, t1, v), k + 1).solve(-ht * res)
            alpha, base = 1.0, np.linalg.norm(res)
            for _ in range(max_halvings):
                trial = residual(v + alpha * step)
                if np.all(np.isfinite(trial)) and np.linalg.norm(trial) <= base:
                    break
                alpha *= 0.5
            v = v + alpha * step
            res = residual(v)
            it += 1
        iterations.append(it)
        x[k + 1] = v
    return SemilinearResult(scheme._field(x, bvals), iterations)
