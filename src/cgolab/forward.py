"""Implicit theta-scheme solvers for the parabolic initial-boundary problems.

All solvers discretize on the tensor grid of `Grid` with the standard
second-order Laplacian, optional constant-coefficient convection (central
differences), and a theta time step with theta in [1/2, 1].  Boundary data is
imposed strongly: the operator is a sparse interior block A plus a matrix B
that lifts the lateral values into the interior equations, so a march steps
on interior vectors only.  One kernel, `ThetaScheme`, makes the linear
marches (one solution, or the Neumann traces of a block of data columns) and
the Newton steps of the semilinear solver, which also marches a block of
data columns.  Where the lateral data at t=0 disagrees with the initial slice
on the boundary, the lateral value wins, with no warning (the discrepancy
lives on the corner of the cylinder).
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import splu

from .errors import SolverError
from .fields import BoundaryField, Potential, ScalarField
from .grid import Grid

__all__ = [
    "ThetaScheme",
    "solve_forward",
    "solve_backward",
    "solve_semilinear_many",
    "neumann_trace",
]

# The 2-d step matrix has the symmetric pattern of the five-point stencil.
# Minimum degree on A^T + A with diagonal pivots preferred leaves about two
# thirds of COLAMD's fill (10,234 against 15,780 L+U nonzeros on a 25x25
# grid), which makes both the factorization and each solve faster.
_SPLU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "options": {"SymmetricMode": True}}

# A Newton step converges at residual NEWTON_TOL and fails after
# NEWTON_MAX_ITER iterations; its line search takes the last trial as it is
# after NEWTON_MAX_HALVINGS halvings.
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
NEWTON_MAX_HALVINGS = 10


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


def _trace_stencil(grid: Grid):
    """Flat space indices of every boundary point and of the two points after
    it along the inward normal of its owning face: the one-sided three-point
    stencil of the Neumann trace.  Needs nx >= 4 so it never reaches across."""
    if grid.nx < 4:
        raise ValueError(f"grid too small for the one-sided stencil (nx={grid.nx} < 4)")
    axis = np.array([f.axis for f in grid.faces])[grid.boundary_face]
    inward = np.array([1 - 2 * f.side for f in grid.faces])[grid.boundary_face]
    points = np.array(grid.boundary_index)
    owned = np.arange(grid.n_boundary)
    stencil = []
    for depth in range(3):
        shifted = points.copy()
        shifted[axis, owned] += depth * inward
        stencil.append(np.ravel_multi_index(tuple(shifted), grid.space_shape))
    return stencil


def _boundary_part(matrix, grid: Grid):
    """An operator between the interior and the boundary points.  In 1-d it
    has two rows or two columns, and a dense product costs less than a
    scipy.sparse dispatch."""
    return matrix.toarray() if grid.n == 1 else matrix.tocsr()


def _check_finite(values, level_axis: int, what: str) -> None:
    """Raise at the first time level (along level_axis) holding a non-finite value."""
    others = tuple(a for a in range(values.ndim) if a != level_axis)
    finite = np.isfinite(values).all(axis=others)
    if not finite.all():
        raise SolverError(f"non-finite {what} at time level {int(np.argmin(finite))}")


def _block_dtype(*arrays):
    """float64 when every given array holds real values, complex128 otherwise."""
    for a in arrays:
        if a is not None and np.iscomplexobj(a) and a.imag.any():
            return np.complex128
    return np.float64


class ThetaScheme:
    """Time stepper for (d_t - Laplacian + convection . grad + q) u = f.

    Building the object assembles A and B once.  Each step solves with the
    step matrix M = I - theta*ht*(A - diag q), factored with LAPACK ?gttrf in
    1-d and a sparse LU in 2-d.  A time-invariant q is factored once and the
    factor serves every step of every later march.  A time-varying q is
    factored level by level as a march reaches it, and no factor is kept.
    The explicit half of a step, I + (1-theta)*ht*(A - diag q), equals
    I/theta - ((1-theta)/theta)*M plus a diagonal where q varies, so a step
    forms no product with A.

    One loop marches a block of k data columns together: real data as a real
    (ndof, k) block, complex data as its real view (ndof, 2k) of (re, im)
    column pairs, every step one solve with the shared factor.  `solve` is the
    k = 1 march and keeps the whole field.  `trace_levels` keeps only the
    traces of one level at a time: a sparse trace operator, split like the
    spatial operator into an interior part and a boundary part, turns each
    level's state block and lateral data into the (k, nb) traces, which it
    hands to a consumer, so the march holds one state block and never k
    fields; `neumann_traces` collects them into one block.  In 2-d each real
    column of a block marches independently of the others, bit for bit, so
    only the distinct nonzero ones march and the traces of the rest are
    copied or negated; a 1-d block marches at its full width.
    """

    def __init__(self, grid: Grid, q: Potential | None = None, theta: float = 0.5,
                 convection=None):
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
        q_values = np.zeros((1,) + grid.space_shape) if q is None else q.values
        self.time_invariant = bool(np.all(q_values == q_values[0]))

        self._inner = _interior(np.arange(grid.nx**grid.n).reshape(grid.space_shape), grid.n)
        self._outer = np.ravel_multi_index(grid.boundary_index, grid.space_shape)
        rows = _spatial_operator(grid, convection)[self._inner]
        lift = rows[:, self._outer]
        ht = grid.ht
        self._op = rows[:, self._inner].tocsc()
        self._lift = _boundary_part(lift, grid)
        # the data of both levels of a step, stacked, enter through one product
        self._lift_pair = _boundary_part(
            sp.hstack([(1 - theta) * ht * lift, theta * ht * lift]), grid)
        self._ndof = self._inner.size
        # Sparse products and the LU solves treat each column of a block on
        # its own, so in 2-d a column's traces do not depend on the block it
        # is marched in, bit for bit.  The dense 1-d products go through BLAS,
        # whose rounding depends on the width of the block.
        self.columns_independent = grid.n > 1
        # a time-invariant q keeps one level
        self._q_int = _interior(q_values[:1] if self.time_invariant else q_values, grid.n)
        self._implicit = (sp.identity(self._ndof, format="csc") - theta * ht * self._op).tocsc()
        if grid.n == 1:
            self._bands = tuple(self._implicit.diagonal(k) for k in (-1, 0, 1))
        self._invariant_lu = None

    def _factor(self, q_int, level):
        """Factor of I - theta*ht*(A - diag q_int), the step into `level`."""
        shift = self.theta * self.grid.ht * q_int
        try:
            # scipy's ?gttrf wrapper rejects a system of two unknowns (nx = 4)
            if self.grid.n == 1 and self._ndof > 2:
                lower, diag, upper = self._bands
                return _Tridiagonal(lower, diag + shift, upper)
            return splu((self._implicit + sp.diags(shift)).tocsc(), **_SPLU_OPTIONS)
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            raise SolverError(
                f"singular step matrix at time level {level} "
                f"(min of 1 + theta*ht*q is {float((1.0 + shift).min()):.3e})"
            ) from exc

    def _lu(self, level):
        if not self.time_invariant:
            return self._factor(self._q_int[level], level)
        if self._invariant_lu is None:
            self._invariant_lu = self._factor(self._q_int[0], level)
        return self._invariant_lu

    @functools.cached_property
    def _trace(self):
        """(interior, boundary) parts of the sparse Neumann trace of a slice."""
        grid = self.grid
        nb = grid.n_boundary
        coeffs = np.repeat(np.array([3.0, -4.0, 1.0]) / (2 * grid.hx), nb)
        cols = np.concatenate(_trace_stencil(grid))
        full = sp.csr_matrix((coeffs, (np.tile(np.arange(nb), 3), cols)),
                             shape=(nb, grid.nx**grid.n))
        return (_boundary_part(full[:, self._inner], grid),
                _boundary_part(full[:, self._outer], grid))

    def _initial_interior(self, bvals, u0):
        """Interior values (k, ndof) of the initial slices u0 (k, *space) of k
        marches with lateral data bvals (k, nt, nb); the lateral data at t=0
        wins on the boundary."""
        grid = self.grid
        first = np.zeros((bvals.shape[0],) + grid.space_shape, dtype=np.complex128)
        if u0 is not None:
            u0 = np.asarray(u0)
            if u0.shape != first.shape:
                raise ValueError("initial slice has the wrong shape")
            first[...] = u0
        return _interior(first, grid.n)

    def _field(self, interior, bvals) -> ScalarField:
        """The field of the interior values (nt, ndof) and the lateral data
        bvals (nt, nb)."""
        grid = self.grid
        u = np.empty(grid.field_shape, dtype=np.complex128)
        u[(slice(None), *(slice(1, -1),) * grid.n)] = interior.reshape(
            (grid.nt,) + (grid.nx - 2,) * grid.n)
        u[(slice(None), *grid.boundary_index)] = bvals
        return ScalarField(grid, u)

    def _march(self, bvals, x0, source, dtype, emit, columns=None):
        """March k data columns from t=0 to T as one block.

        bvals holds the lateral data (k, nt, nb), x0 the initial interior
        values (k, ndof) and source the interior source values (k, nt, ndof)
        or None.  dtype float64 marches the real parts; complex128 marches the
        (re, im) pairs.  columns, where given, picks the real columns to
        march out of those k or 2k, level by level, and every other column is
        left out.  emit(level, state, lateral) sees the real blocks of every
        level, the state as (ndof, m) and the lateral data as (nb, m), with m
        the number of marched real columns.
        """
        theta, ht = self.theta, self.grid.ht

        def block(a):
            a = a.real if dtype is np.float64 else a
            a = np.ascontiguousarray(a, dtype=dtype).view(np.float64)
            return a if columns is None else np.ascontiguousarray(a[..., columns])

        # With M the step matrix of `level` and dq the change of
        # (1-theta)*ht*q over the step, the explicit half of the step is
        # I + (1-theta)*ht*(A - diag q) = I/theta - c*M + diag dq with
        # c = (1-theta)/theta, so each step is one solve and no product with A:
        #   x_next = M^-1 (x/theta + dq*x + lift + forcing) - c*x
        c = (1 - theta) / theta
        dq = None
        if not self.time_invariant:
            dq = np.diff(self._q_int, axis=0)[:, :, None]
            dq *= (1 - theta) * ht
        forcing = None
        if source is not None:
            f = block(np.moveaxis(source, 0, -1))
            forcing = theta * f[1:]
            forcing += (1 - theta) * f[:-1]
            forcing *= ht
        # The factors return F-ordered blocks, and the right-hand side inherits
        # the state's order.  Through the 25x25 LU an 82-column block solved
        # in 0.94 ms F-ordered against 1.76 ms C-ordered (2-core host, one
        # BLAS thread), so the state starts F-ordered too.
        x = np.asfortranarray(block(x0.T))
        with np.errstate(invalid="ignore", over="ignore"):
            emit(0, x, block(bvals[:, 0].T))
            for level in range(1, self.grid.nt):
                data = block(bvals[:, level - 1:level + 1].transpose(1, 2, 0))
                rhs = x / theta
                if dq is not None:
                    rhs += dq[level - 1] * x
                rhs += self._lift_pair @ data.reshape(-1, data.shape[-1])
                if forcing is not None:
                    rhs += forcing[level - 1]
                step = self._lu(level).solve(rhs)
                if c:
                    step -= c * x
                x = step
                emit(level, x, data[1])

    def solve(self, bdata: BoundaryField, u0=None,
              source: ScalarField | None = None) -> ScalarField:
        grid = self.grid
        if not grid.same_layout(bdata.grid):
            raise ValueError("boundary data lives on a different grid")
        if source is not None and not grid.same_layout(source.grid):
            raise ValueError("source lives on a different grid")
        bvals = bdata.values[None]
        if u0 is not None:
            u0 = np.asarray(u0)[None]
        x0 = self._initial_interior(bvals, u0)
        f = None if source is None else _interior(source.values, grid.n)[None]
        dtype = _block_dtype(bvals, x0, f)
        x = np.empty((grid.nt, self._ndof), dtype=dtype)
        levels = x.view(np.float64).reshape(grid.nt, self._ndof, -1)

        def keep(level, state, _):
            levels[level] = state

        self._march(bvals, x0, f, dtype, keep)
        _check_finite(x, 0, "solution")
        return self._field(x, bdata.values)

    @staticmethod
    def _distinct_columns(bvals, x0, width):
        """The real columns of a block worth marching, and how to fill the rest.

        A real column is one part, the real or (with width 2) the imaginary
        part, of a data column of bvals (k, nt, nb) together with the same
        part of its initial interior values x0 (k, ndof); real column j is
        part j % width of data column j // width.  Returns (kept, repeats):
        the indices of the distinct nonzero real columns, and a
        (j, i, negated) triple for every other nonzero real column j, equal
        to the kept column i or to its negation.  Columns are matched by
        exact equality; their sums, which negation flips exactly, only pick
        the candidates.
        """
        data = (bvals.real, bvals.imag)[:width]
        start = (x0.real, x0.imag)[:width]
        sums = np.stack([np.abs(d.sum(axis=(1, 2))) for d in data]
                        + [np.abs(x.sum(axis=1)) for x in start], axis=1)
        kept, repeats, candidates = [], [], {}
        for j in range(width * bvals.shape[0]):
            c, p = divmod(j, width)
            d, x = data[p][c], start[p][c]
            if not (d.any() or x.any()):
                continue
            same_sums = candidates.setdefault(tuple(sums[c, p::width]), [])
            for i in same_sums:
                e, y = data[i % width][i // width], start[i % width][i // width]
                if np.array_equal(d, e) and np.array_equal(x, y):
                    repeats.append((j, i, False))
                    break
                if np.array_equal(d, -e) and np.array_equal(x, -y):
                    repeats.append((j, i, True))
                    break
            else:
                same_sums.append(j)
                kept.append(j)
        return np.array(kept, dtype=np.intp), repeats

    def trace_levels(self, bvals, u0, consume) -> None:
        """March the k solutions with lateral data bvals (k, nt, nb) and
        initial slices u0 (k, *space_shape) or None, and hand
        consume(level, traces) the (k, nb) Neumann traces of each time level
        in turn.  The traces array is the march's own and is overwritten at
        the next level, so consume copies what it keeps and writes nothing
        into it.  A level holding a non-finite trace raises SolverError
        before it is handed over.

        Where columns march independently (2-d), only the distinct nonzero
        real columns march: a zero column has zero traces, and a column equal
        to a marched one, or to its negation, copies or negates its traces at
        every level, which is bitwise what marching it would give.  Where the
        lateral data at t=0 and an initial slice disagree on the boundary,
        the lateral value wins silently."""
        grid = self.grid
        bvals = np.asarray(bvals)
        if bvals.ndim != 3 or bvals.shape[1:] != (grid.nt, grid.n_boundary):
            raise ValueError("lateral data block must have shape (k, nt, nb)")
        x0 = self._initial_interior(bvals, u0)
        dtype = _block_dtype(bvals, x0)
        width = 1 if dtype is np.float64 else 2
        trace_int, trace_bnd = self._trace
        traces = np.zeros((bvals.shape[0], grid.n_boundary), dtype=np.complex128)
        # (k, nb, re/im): real column j is parts[j // width, :, j % width]
        parts = traces.view(np.float64).reshape(traces.shape + (2,))
        columns, repeats = None, []
        marched = np.arange(width * bvals.shape[0])
        if self.columns_independent:
            columns, repeats = self._distinct_columns(bvals, x0, width)
            marched = columns
        data_column, part = np.divmod(marched, width)
        if repeats:
            target, source, negated = (np.array(a) for a in zip(*repeats))
            # the (data column, part) pairs of the copies and of their sources
            target, source = np.divmod(target, width), np.divmod(source, width)
            negated = negated[:, None]

        def trace(level, state, lateral):
            parts[data_column, :, part] = (trace_int @ state + trace_bnd @ lateral).T
            if repeats:
                copied = parts[source[0], :, source[1]]
                # 0.0 - t keeps the march's +0.0 where -t would flip it to -0.0
                np.subtract(0.0, copied, out=copied, where=negated)
                parts[target[0], :, target[1]] = copied
            if not np.isfinite(parts).all():
                raise SolverError(f"non-finite trace at time level {level}")
            consume(level, traces)

        if marched.size:
            self._march(bvals, x0, None, dtype, trace, columns)
        else:
            for level in range(grid.nt):
                consume(level, traces)

    def neumann_traces(self, bvals, u0=None) -> np.ndarray:
        """Neumann traces (k, nt, nb) of the k solutions with lateral data
        bvals (k, nt, nb) and initial slices u0 (k, *space_shape) or None:
        `trace_levels` with a consumer that fills one new block."""
        out = np.empty(np.shape(bvals), dtype=np.complex128)

        def keep(level, traces):
            out[:, level] = traces

        self.trace_levels(bvals, u0, keep)
        return out


def solve_forward(grid: Grid, q: Potential | None, bdata: BoundaryField, u0=None,
                  source: ScalarField | None = None, theta: float = 0.5,
                  convection=None) -> ScalarField:
    """Solve (d_t - Laplacian + convection . grad + q) u = source, u(0) = u0."""
    return ThetaScheme(grid, q, theta, convection).solve(bdata, u0, source)


def _reversed_potential(q: Potential | None):
    if q is None:
        return None
    return Potential(q.grid, q.values[::-1], m=q.m)


def solve_backward(grid: Grid, q: Potential | None, bdata: BoundaryField, uT=None,
                   source: ScalarField | None = None, theta: float = 0.5,
                   convection=None) -> ScalarField:
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
    )
    return ScalarField(grid, out.values[::-1])


def neumann_trace(u: ScalarField) -> BoundaryField:
    """Outward normal derivative on the lateral boundary.

    One-sided three-point stencil along the owning face's normal axis, exact
    for quadratics.  Needs nx >= 4 so the stencil never reaches across.
    """
    grid = u.grid
    at, inner, deeper = _trace_stencil(grid)
    flat = u.values.reshape(grid.nt, -1)
    return BoundaryField(grid, (3 * flat[:, at] - 4 * flat[:, inner] + flat[:, deeper])
                         / (2 * grid.hx))


def _norm(r) -> float:
    """Euclidean norm of a real 1-d vector, bitwise what np.linalg.norm
    computes for one (its own path is sqrt(r.dot(r))), without its dispatch."""
    return math.sqrt(r.dot(r))


def _row_groups(nonlinearities) -> list:
    """(a, rows) for each distinct nonlinearity object, in order of first
    use: rows picks its columns' rows of a (k, ndof) block, as a slice where
    they are consecutive and as an index array where they are not."""
    columns = {}
    for c, a in enumerate(nonlinearities):
        columns.setdefault(id(a), (a, []))[1].append(c)
    groups = []
    for a, cols in columns.values():
        consecutive = cols[-1] - cols[0] == len(cols) - 1
        groups.append((a, slice(cols[0], cols[-1] + 1) if consecutive else np.array(cols)))
    return groups


def solve_semilinear_many(grid: Grid, nonlinearities, bdatas, u0s=None,
                          theta: float = 0.5) -> tuple:
    """Solve (d_t - Laplacian) u + a(x, t, u) = 0 for k data columns, each
    with its own nonlinearity a, as one block.  Returns (solutions,
    iterations): the real (k, *field_shape) block of the k solutions and, per
    column, the Newton iterations of each step.

    nonlinearities holds one nonlinearity per column, bdatas the k lateral
    data, u0s is None or k initial slices (each None or an array).  Each
    nonlinearity needs vectorized methods value(*x, t, u) and du(*x, t, u)
    that broadcast the interior coordinates against a block of rows of
    length ndof; du's values are written into the Jacobian's rows as they
    come, so it may return any shape that broadcasts to u's.  Each step runs
    a damped Newton iteration on the theta-stepped equation down to residual
    NEWTON_TOL; the Jacobian is ThetaScheme's step matrix with q = du,
    divided by ht.  Each Newton iteration and each trial of its line search
    evaluates value (or du) once per distinct nonlinearity object, on the
    rows of the columns that share it, and each trial forms op @ v once on
    the whole block.  The accepted block's op @ v, row-updated where only
    some columns take a trial, is the next level's first, and a level whose
    lateral data is bytewise the previous level's keeps that level's lift;
    the sparse product and the lift treat each column on its own, so both
    are bitwise what forming them again would give.  A column solves with
    the factor of another column, or its own from an earlier iteration,
    whose du row is bytewise its own, so each distinct Jacobian is factored
    once; every column keeps only its latest factor.  Solve, line-search
    halving and convergence stay per column, so each column takes its
    single-column iterations and gets its single-column values bit for bit.
    A non-finite residual raises SolverError.  Data must be real.

    Each accepted level is written into the rows' interiors as Newton
    accepts it, and the lateral data onto their boundaries once the march is
    done.
    """
    scheme = ThetaScheme(grid, None, theta)
    bdatas = list(bdatas)
    k = len(bdatas)
    nonlinearities = list(nonlinearities)
    if len(nonlinearities) != k:
        raise ValueError("need one nonlinearity per data column")
    groups = _row_groups(nonlinearities)
    u0s = [None] * k if u0s is None else list(u0s)
    if len(u0s) != k:
        raise ValueError("need one initial slice (or None) per data column")
    for bdata, u0 in zip(bdatas, u0s):
        if not grid.same_layout(bdata.grid):
            raise ValueError("boundary data lives on a different grid")
        if np.abs(bdata.values.imag).max() > 0:
            raise ValueError("semilinear solver expects real boundary data")
        if u0 is not None and np.iscomplexobj(u0) and np.abs(np.imag(u0)).max() > 0:
            raise ValueError("semilinear solver expects real initial data")
    bvals = np.stack([bdata.values.real for bdata in bdatas])
    op, ht = scheme._op, grid.ht
    xint = tuple(_interior(np.broadcast_to(c, grid.space_shape), grid.n)
                 for c in grid.space_coordinates())

    def evaluate(method, level, v):
        """a.value or a.du (method "value" or "du") of every column at
        `level`, one call per nonlinearity on the rows of its columns."""
        out = np.empty_like(v)
        for a, rows in groups:
            out[rows] = getattr(a, method)(*xint, grid.ts[level], v[rows])
        return out

    def lift(level):
        """The lateral data's part of the equation at `level`, (k, ndof): one
        product of the level's k columns, bitwise each column's own."""
        return (scheme._lift @ bvals[:, level].T).T

    # level l > 0 keeps level l - 1's lift where its data is the same bytes
    words = bvals.view(np.int64)
    same_data = [False] + (words[:, 1:] == words[:, :-1]).all(axis=(0, 2)).tolist()

    solutions = np.empty((k,) + grid.field_shape)
    interior = solutions[(slice(None), slice(None), *(slice(1, -1),) * grid.n)]
    rows_shape = (k,) + (grid.nx - 2,) * grid.n
    first = None
    if any(u0 is not None for u0 in u0s):
        first = np.stack([np.zeros(grid.space_shape) if u0 is None else np.asarray(u0)
                          for u0 in u0s])
    v = scheme._initial_interior(bvals, first).real.copy()
    interior[:, 0] = v.reshape(rows_shape)
    # op @ v of the accepted block, carried into the next level's residual
    product = (op @ v.T).T
    lifted = lift(0)
    # the implicit half of an accepted level is the explicit half of the next step
    explicit = product + lifted - evaluate("value", 0, v)
    iterations = [[] for _ in range(k)]
    # each column's latest factor, as (du row bytes, factor)
    factors = [None] * k
    for level in range(1, grid.nt):
        xk = v
        if not same_data[level]:
            lifted = lift(level)
        weighted_explicit = (1 - theta) * explicit

        def residual(v, product):
            """The residual of the block v whose op @ v is product, and the
            implicit half op @ v + lift - a(v)."""
            implicit = product + lifted - evaluate("value", level, v)
            return (v - xk) / ht - theta * implicit - weighted_explicit, implicit

        # A column leaves the loop when its residual passes the test, and its
        # rows of v, product, res and implicit stay as they are from then
        # on.  The whole block is still evaluated, a column out of the line
        # search at its current v (its step is zero).
        v = xk.copy()
        res, implicit = residual(v, product)
        count = [0] * k
        while True:
            err = np.abs(res).max(axis=1).tolist()
            if not all(map(math.isfinite, err)):
                raise SolverError(f"non-finite Newton residual at time level {level}")
            active = [c for c in range(k) if err[c] > NEWTON_TOL]
            if not active:
                break
            if count[active[0]] >= NEWTON_MAX_ITER:
                raise SolverError(
                    f"Newton did not converge at time level {level} "
                    f"(residual {max(err):.3e})"
                )
            du = evaluate("du", level, v)
            rhs = -ht * res
            step = np.zeros_like(v)
            base = {}
            known = dict(f for f in factors if f is not None)
            for c in active:
                key = du[c].tobytes()
                lu = known.get(key)
                if lu is None:
                    lu = known[key] = scheme._factor(du[c], level)
                factors[c] = (key, lu)
                step[c] = lu.solve(rhs[c])
                base[c] = _norm(res[c])
                count[c] += 1
            alpha = np.ones((k, 1))
            pending = active
            for halving in range(NEWTON_MAX_HALVINGS + 1):
                trial = v + alpha * step
                trial_product = (op @ trial.T).T
                trial_res, trial_implicit = residual(trial, trial_product)
                if halving == NEWTON_MAX_HALVINGS:
                    # out of halvings: the last trial is taken as it is
                    took = pending
                else:
                    finite = np.isfinite(trial_res).all(axis=1).tolist()
                    took = [c for c in pending if finite[c]
                            and _norm(trial_res[c]) <= base[c]]
                if len(took) == k:
                    v, product, res, implicit = trial, trial_product, trial_res, trial_implicit
                    break
                v[took], product[took] = trial[took], trial_product[took]
                res[took], implicit[took] = trial_res[took], trial_implicit[took]
                step[took] = 0.0
                pending = [c for c in pending if c not in took]
                if not pending:
                    break
                alpha[pending] *= 0.5
        for c in range(k):
            iterations[c].append(count[c])
        interior[:, level] = v.reshape(rows_shape)
        explicit = implicit
    solutions[(slice(None), slice(None), *grid.boundary_index)] = bvals
    return solutions, iterations
