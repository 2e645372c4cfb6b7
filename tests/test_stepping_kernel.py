"""The stepping kernel against a plain reference stepper.

`_plain_solve` and `_plain_semilinear` are the straightforward theta-scheme
loops: each step rebuilds the step matrix, factors it with splu and forms the
right-hand side from the five-point (three-point in 1-d) stencil applied to
the whole slice.  The kernel lifts the boundary data with one matrix product,
reuses factors and marches real blocks; its results must agree with the
plain loops to rounding.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from cgolab import (BoundaryField, Nonlinearity, Potential, ScalarField, SolverError,
                    build_grid)
from cgolab import forward
from cgolab.dtn import DtnOracle
from cgolab.forward import solve_backward, solve_forward, solve_semilinear_many

RTOL = 1e-13


def _interior(values, n):
    return values[1:-1] if n == 1 else values[1:-1, 1:-1]


def _stencil(grid, u, convection):
    """(Laplacian - convection . grad) of a full space slice, interior values."""
    hx = grid.hx
    if grid.n == 1:
        out = (u[:-2] - 2 * u[1:-1] + u[2:]) / hx**2
        if convection is not None:
            out = out - convection[0] * (u[2:] - u[:-2]) / (2 * hx)
        return out
    out = (u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]
           - 4 * u[1:-1, 1:-1]) / hx**2
    if convection is not None:
        out = out - convection[0] * (u[2:, 1:-1] - u[:-2, 1:-1]) / (2 * hx)
        out = out - convection[1] * (u[1:-1, 2:] - u[1:-1, :-2]) / (2 * hx)
    return out


def _dense_operator(grid, convection):
    """Interior block of the stencil, built column by column from unit vectors."""
    shape = grid.space_shape
    inner = np.zeros(shape, dtype=bool)
    _interior(inner, grid.n)[...] = True
    cols = []
    for idx in zip(*np.nonzero(inner)):
        e = np.zeros(shape)
        e[idx] = 1.0
        cols.append(_stencil(grid, e, convection).ravel())
    return sp.csc_matrix(np.column_stack(cols))


def _plain_solve(grid, q, bdata, u0=None, source=None, theta=0.5, convection=None):
    ht, n = grid.ht, grid.n
    qv = np.zeros(grid.field_shape) if q is None else q.values
    op = _dense_operator(grid, convection)
    eye = sp.identity(op.shape[0], format="csc")
    u = np.zeros(grid.field_shape, dtype=np.complex128)
    if u0 is not None:
        u[0] = u0
    u[0][grid.boundary_index] = bdata.values[0]
    for k in range(grid.nt - 1):
        uk = _interior(u[k], n).ravel()
        rhs = uk + (1 - theta) * ht * (
            _stencil(grid, u[k], convection).ravel() - _interior(qv[k], n).ravel() * uk
        )
        embed = np.zeros(grid.space_shape, dtype=np.complex128)
        embed[grid.boundary_index] = bdata.values[k + 1]
        rhs += theta * ht * _stencil(grid, embed, convection).ravel()
        if source is not None:
            rhs += ht * (theta * _interior(source.values[k + 1], n).ravel()
                         + (1 - theta) * _interior(source.values[k], n).ravel())
        mat = eye - theta * ht * op + theta * ht * sp.diags(_interior(qv[k + 1], n).ravel())
        lu = splu(mat.tocsc())
        x = lu.solve(rhs.real) + 1j * lu.solve(rhs.imag)
        nxt = embed
        _interior(nxt, n)[...] = x.reshape(_interior(nxt, n).shape)
        u[k + 1] = nxt
    return u


def _plain_semilinear(grid, a, bdata, u0=None, theta=0.5, newton_tol=1e-10,
                      max_iter=50, max_halvings=10):
    ht, n = grid.ht, grid.n
    bvals = bdata.values.real
    op = _dense_operator(grid, None)
    eye = sp.identity(op.shape[0], format="csc")
    coords = [np.broadcast_to(c, grid.space_shape) for c in grid.space_coordinates()]
    xint = tuple(_interior(c, n).ravel() for c in coords)
    u = np.zeros(grid.field_shape)
    if u0 is not None:
        u[0] = u0
    u[0][grid.boundary_index] = bvals[0]
    iterations = []
    for k in range(grid.nt - 1):
        t0, t1 = grid.ts[k], grid.ts[k + 1]
        uk = _interior(u[k], n).ravel()
        embed = np.zeros(grid.space_shape)
        embed[grid.boundary_index] = bvals[k + 1]
        bc_term = _stencil(grid, embed, None).ravel()
        explicit = _stencil(grid, u[k], None).ravel() - a.value(*xint, t0, uk)

        def residual(v):
            return (v - uk) / ht - theta * (op @ v + bc_term - a.value(*xint, t1, v)) - (
                1 - theta) * explicit

        v = uk.copy()
        res = residual(v)
        it = 0
        while np.abs(res).max() > newton_tol:
            assert it < max_iter
            jac = eye / ht - theta * op + theta * sp.diags(a.du(*xint, t1, v))
            step = splu(jac.tocsc()).solve(-res)
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
        _interior(embed, n)[...] = v.reshape(_interior(embed, n).shape)
        u[k + 1] = embed
    return u, iterations


def _rel_diff(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


def _random_case(rng, n, nx, nt, *, varying, convection, source, initial, complex_data):
    g = build_grid(n, nx, nt, T=0.5)
    shape = g.field_shape
    qv = 0.5 + 0.3 * rng.standard_normal(g.space_shape)
    qv = np.broadcast_to(qv, shape).copy()
    if varying:
        qv = qv * (1.0 + 0.5 * np.sin(3 * g.ts)).reshape((g.nt,) + (1,) * n)
    q = Potential(g, qv)
    dtype = np.complex128 if complex_data else np.float64

    def draw(size):
        vals = rng.standard_normal(size)
        if complex_data:
            vals = vals + 1j * rng.standard_normal(size)
        return vals.astype(dtype)

    bvals = draw((g.nt, g.n_boundary))
    u0 = None
    if initial:
        u0 = draw(g.space_shape)
        u0[g.boundary_index] = bvals[0]
    src = ScalarField(g, draw(shape)) if source else None
    conv = convection * rng.uniform(-1, 1, size=n) if convection else None
    return g, q, BoundaryField(g, bvals), u0, src, conv


# convection is the largest drift component; at 80 the step matrix is far
# from diagonally dominant, so the factor has to pivot
CASES = [
    dict(varying=False, convection=0, source=False, initial=False, complex_data=False),
    dict(varying=False, convection=3, source=True, initial=True, complex_data=True),
    dict(varying=True, convection=0, source=True, initial=False, complex_data=True),
    dict(varying=True, convection=3, source=False, initial=True, complex_data=False),
    dict(varying=False, convection=0, source=False, initial=True, complex_data=True),
    dict(varying=False, convection=80, source=True, initial=False, complex_data=True),
]


@pytest.mark.parametrize("n,nx,nt", [(1, 17, 23), (1, 4, 9), (2, 9, 13)])
@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(
    f"{k}{v}" if k == "convection" else k for k, v in c.items() if v) or "plain")
@pytest.mark.parametrize("theta", [0.5, 0.8])
def test_kernel_matches_plain_stepper(n, nx, nt, case, theta):
    rng = np.random.default_rng(7 * n + nx)
    g, q, bd, u0, src, conv = _random_case(rng, n, nx, nt, **case)
    got = solve_forward(g, q, bd, u0=u0, source=src, theta=theta, convection=conv)
    want = _plain_solve(g, q, bd, u0, src, theta, conv)
    assert _rel_diff(got.values, want) <= RTOL


@pytest.mark.parametrize("n,nx,nt", [(1, 17, 23), (2, 9, 13)])
def test_cached_scheme_reused_across_solves_matches_plain(n, nx, nt):
    rng = np.random.default_rng(3)
    g, q, bd, u0, src, conv = _random_case(
        rng, n, nx, nt, varying=True, convection=3, source=True, initial=False,
        complex_data=True)
    scheme = forward.ThetaScheme(g, q, 0.5, conv)
    for scale in (1.0, -2.0):
        data = BoundaryField(g, scale * bd.values)
        got = scheme.solve(data, source=src)
        want = _plain_solve(g, q, data, None, src, 0.5, conv)
        assert _rel_diff(got.values, want) <= RTOL


@pytest.mark.parametrize("n,nx,nt", [(1, 17, 41), (2, 9, 13)])
def test_time_invariant_march_factors_once(monkeypatch, n, nx, nt):
    calls = []

    def counting(factor):
        def wrapped(*args, **kwargs):
            calls.append(factor.__name__)
            return factor(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(forward, "splu", counting(forward.splu))
    monkeypatch.setattr(forward, "_Tridiagonal", counting(forward._Tridiagonal))
    g = build_grid(n, nx, nt, T=0.5)
    rng = np.random.default_rng(1)
    q = Potential(g, np.broadcast_to(rng.uniform(0, 1, g.space_shape), g.field_shape).copy())
    bd = BoundaryField(g, rng.standard_normal((g.nt, g.n_boundary)) + 0j)
    solve_forward(g, q, bd)
    assert calls == ["_Tridiagonal" if n == 1 else "splu"]
    calls.clear()
    solve_forward(g, None, bd)
    assert len(calls) == 1


def test_time_varying_march_keeps_no_factor(monkeypatch):
    # a time-varying q is factored level by level as each march reaches it:
    # two marches of one scheme factor every step matrix twice
    calls = []
    splu = forward.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(forward, "splu", counting)
    g = build_grid(2, 9, 11, T=0.5)
    rng = np.random.default_rng(2)
    q = Potential(g, rng.uniform(0, 1, g.field_shape))
    scheme = forward.ThetaScheme(g, q)
    bd = BoundaryField(g, rng.standard_normal((g.nt, g.n_boundary)) + 0j)
    first = scheme.solve(bd)
    second = scheme.solve(bd)
    assert len(calls) == 2 * (g.nt - 1)
    assert np.array_equal(first.values, second.values)


@pytest.mark.parametrize("n,nx,nt", [(1, 17, 17), (2, 7, 9)])
def test_semilinear_matches_plain_newton(n, nx, nt):
    g = build_grid(n, nx, nt, T=1.0)
    bd = BoundaryField.from_callable(
        g, lambda p, t: 0.8 * np.sin(np.pi * t) * (1 + 0.3 * p[:, 0]))
    a = Nonlinearity.from_u(lambda u: u + u**3, lambda u: 1 + 3 * u**2,
                            monotone=True, level_bound=1.0)
    (u,), (got,) = solve_semilinear_many(g, [a], [bd])
    want, iterations = _plain_semilinear(g, a, bd)
    assert got == iterations
    assert max(iterations) >= 2
    assert _rel_diff(u, want) <= RTOL


# ---------------------------------------------------------------------------
# Properties over small random grids


@st.composite
def _problems(draw):
    n = draw(st.sampled_from([1, 2]))
    nx = draw(st.integers(5, 9 if n == 2 else 17))
    nt = draw(st.integers(3, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    varying = draw(st.booleans())
    return build_grid(n, nx, nt, T=draw(st.floats(0.1, 1.0))), np.random.default_rng(seed), varying


def _random_potential(g, rng, varying):
    qv = np.broadcast_to(rng.uniform(-0.5, 2.0, g.space_shape), g.field_shape).copy()
    if varying:
        qv = qv + rng.uniform(0, 0.5, (g.nt,) + (1,) * g.n)
    return Potential(g, qv)


def _random_boundary(g, rng):
    return BoundaryField(g, rng.standard_normal((g.nt, g.n_boundary))
                         + 1j * rng.standard_normal((g.nt, g.n_boundary)))


@settings(max_examples=25, deadline=None)
@given(_problems(), st.sampled_from([0.5, 0.75, 1.0]))
def test_backward_is_reflected_forward(problem, theta):
    g, rng, varying = problem
    q = _random_potential(g, rng, varying)
    bd = _random_boundary(g, rng)
    src = ScalarField(g, rng.standard_normal(g.field_shape))
    uT = rng.standard_normal(g.space_shape) + 1j * rng.standard_normal(g.space_shape)
    uT[g.boundary_index] = bd.values[-1]
    back = solve_backward(g, q, bd, uT=uT, source=src, theta=theta)
    fwd = solve_forward(g, Potential(g, q.values[::-1].copy()),
                        BoundaryField(g, bd.values[::-1]), u0=uT,
                        source=ScalarField(g, src.values[::-1]), theta=theta)
    assert np.array_equal(back.values, fwd.values[::-1])

    # and it solves the backward theta scheme, checked with the plain stencil
    v, n, ht = back.values, g.n, g.ht
    for k in range(g.nt - 1):
        def spatial(j):
            return (_stencil(g, v[j], None)
                    - _interior(q.values[j] * v[j] - src.values[j], n))
        lhs = (_interior(v[k] - v[k + 1], n)) / ht
        rhs = theta * spatial(k) + (1 - theta) * spatial(k + 1)
        scale = 1.0 + np.abs(v).max() / g.hx**2
        assert np.abs(lhs - rhs).max() <= 1e-11 * scale


@settings(max_examples=25, deadline=None)
@given(_problems(), st.complex_numbers(max_magnitude=10, allow_nan=False,
                                       allow_infinity=False),
       st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False))
def test_dtn_apply_is_linear(problem, alpha, beta):
    g, rng, varying = problem
    q = _random_potential(g, rng, varying)
    g1, g2 = _random_boundary(g, rng), _random_boundary(g, rng)
    oracle = DtnOracle(g, q)
    r1, r2 = oracle.apply(g1).values, oracle.apply(g2).values
    combined = oracle.apply(BoundaryField(g, alpha * g1.values + beta * g2.values))
    scale = (abs(alpha) + abs(beta) + 1.0) * max(np.abs(r1).max(), np.abs(r2).max())
    assert np.abs(combined.values - (alpha * r1 + beta * r2)).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# A Newton block against one-column solves


def _polynomial(slope, cubic, calls=None):
    def value(u):
        if calls is not None:
            calls.append(1)
        return slope * u + cubic * u**3
    return Nonlinearity.from_u(value, lambda u: slope + 3 * cubic * u**2)


def _wave(g, amp, level):
    return BoundaryField.from_callable(
        g, lambda p, t: level + amp * np.sin(np.pi * (p[:, 0] + 0.3)) * np.sin(3 * np.pi * t))


def _assert_block_equals_single_solves(g, nonlinearities, bdatas, u0s):
    solutions, iterations = solve_semilinear_many(g, nonlinearities, bdatas, u0s)
    assert len(solutions) == len(iterations) == len(bdatas)
    for u, its, a, bd, u0 in zip(solutions, iterations, nonlinearities, bdatas, u0s):
        (want,), (want_its,) = solve_semilinear_many(g, [a], [bd], [u0])
        assert its == want_its
        assert u.tobytes() == want.tobytes()
    return iterations


def test_semilinear_block_with_a_halving_column_equals_single_solves():
    # at amplitude 6 the cubic needs line-search halvings; the quieter columns
    # leave the Newton loop earlier and sit out the halvings
    g = build_grid(1, 9, 5, T=1.0)
    calls = []
    a = _polynomial(1.0, 20.0, calls)
    bdatas = [_wave(g, 6.0, 0.0), _wave(g, 1.0, 0.3), _wave(g, 0.2, 0.0)]
    u0s = [None, np.full(g.space_shape, 0.3), None]
    iterations = _assert_block_equals_single_solves(g, [a] * 3, bdatas, u0s)
    assert iterations[0] != iterations[2]
    calls.clear()
    _, (single,) = solve_semilinear_many(g, [a], bdatas[:1])
    # a value call per step start, per Newton iteration and per halving, plus one
    halvings = len(calls) - g.nt - sum(single)
    assert halvings > 0


# a linear and a cubic nonlinearity; each column of a block picks one
_POLYNOMIALS = [(1.5, 0.0), (1.0, 20.0)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(1, 9, 5), (1, 17, 9), (2, 5, 5), (2, 7, 9)]),
       st.lists(st.tuples(st.floats(-6, 6), st.floats(-1, 1), st.booleans(),
                          st.sampled_from([0, 1])),
                min_size=1, max_size=4))
# the cubic's rows interleaved with the linear's, its first column halving
@example(shape=(1, 9, 5), columns=[(6.0, 0.0, False, 1), (1.0, 0.3, True, 0),
                                   (0.2, 0.0, False, 1), (-2.0, 0.5, True, 0)])
# each nonlinearity's rows grouped, the halving column last
@example(shape=(1, 9, 5), columns=[(1.0, 0.3, True, 0), (0.2, 0.0, False, 0),
                                   (1.0, 0.3, True, 1), (6.0, 0.0, False, 1)])
def test_semilinear_block_equals_single_column_solves(shape, columns):
    # every column takes its one-column iterations and field, whichever
    # nonlinearity its neighbours have and wherever its rows sit in the block
    g = build_grid(*shape, T=1.0)
    polynomials = [_polynomial(*coefficients) for coefficients in _POLYNOMIALS]
    nonlinearities = [polynomials[which] for *_, which in columns]
    bdatas = [_wave(g, amp, level) for amp, level, _, _ in columns]
    u0s = [np.full(g.space_shape, level) if initial else None
           for _, level, initial, _ in columns]
    _assert_block_equals_single_solves(g, nonlinearities, bdatas, u0s)


def test_semilinear_block_factors_each_distinct_jacobian_once(monkeypatch):
    # a linear a has one Jacobian, shared by its columns and its steps; a
    # cubic's du changes with every iterate, so it factors once per column
    # per Newton iteration and never reuses another column's factor
    g = build_grid(1, 17, 9, T=1.0)
    calls = []
    factor = forward.ThetaScheme._factor

    def counting(scheme, q_int, level):
        calls.append(q_int.tobytes())
        return factor(scheme, q_int, level)

    monkeypatch.setattr(forward.ThetaScheme, "_factor", counting)
    linear, cubic = (_polynomial(*coefficients) for coefficients in _POLYNOMIALS)
    bdatas = [_wave(g, 1.0, 0.3), _wave(g, 4.0, 0.0), _wave(g, 0.5, -0.2),
              _wave(g, 2.0, 0.1)]
    # distinct levels, so no two cubic iterates start equal
    u0s = [np.full(g.space_shape, level) for level in (0.3, 0.0, -0.2, 0.1)]
    _, iterations = solve_semilinear_many(g, [cubic, linear, cubic, linear], bdatas, u0s)
    cubic_iterations = sum(sum(iterations[c]) for c in (0, 2))
    assert len(calls) == 1 + cubic_iterations
    assert len(set(calls)) == len(calls)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 200), st.integers(0, 2**32 - 1), st.floats(1e-100, 1e100))
def test_newton_norm_is_numpys_norm_bitwise(size, seed, scale):
    # the line search compares the residual norms of rows of a block
    block = scale * np.random.default_rng(seed).standard_normal((3, size))
    for row in block:
        assert forward._norm(row) == np.linalg.norm(row)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 4, 5), (1, 9, 5), (1, 17, 9), (1, 65, 9), (2, 5, 5), (2, 7, 9)]),
       st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans())
def test_level_lift_is_each_columns_block_product_bitwise(shape, k, seed, signed_zeros):
    # Newton lifts each level's k data columns in one product; in 1-d that is
    # a dense BLAS product, whose rounding could depend on the block's width,
    # so each entry is held to the product of its column's whole block
    g = build_grid(*shape, T=1.0)
    lift = forward.ThetaScheme(g, None, 0.5)._lift
    rng = np.random.default_rng(seed)
    bvals = rng.standard_normal((k, g.nt, g.n_boundary)) * rng.choice([1e-3, 1.0, 1e3],
                                                                     size=(k, 1, 1))
    if signed_zeros:
        bvals[rng.uniform(size=bvals.shape) < 0.3] = 0.0
        bvals[rng.uniform(size=bvals.shape) < 0.3] = -0.0
    columns = np.stack([(lift @ b.T).T for b in bvals], axis=1)
    for level in range(g.nt):
        got = (lift @ bvals[:, level].T).T
        assert np.ascontiguousarray(got).tobytes() == columns[level].tobytes()


def test_non_finite_newton_residual_raises():
    # a NaN residual passed the convergence test: the solve returned, every
    # level after the first a frozen copy of it
    g = build_grid(1, 17, 33, T=1.0)
    a = Nonlinearity.from_u(lambda u: np.where(u > 1.5, np.nan, u**3), lambda u: 3 * u**2)
    bd = BoundaryField.from_callable(g, lambda p, t: 1.4 + 10 * t + 0 * p[:, 0])
    u0 = np.full(g.space_shape, 1.4)
    with pytest.raises(SolverError, match="non-finite Newton residual"):
        solve_semilinear_many(g, [a], [bd], [u0])
    # in a block, the failing column raises although its neighbour converges
    quiet = BoundaryField.constant(g, 0.5)
    with pytest.raises(SolverError, match="non-finite Newton residual"):
        solve_semilinear_many(g, [a, a], [quiet, bd], [np.full(g.space_shape, 0.5), u0])


# ---------------------------------------------------------------------------
# The Newton block against a plain Newton loop


def _plain_newton(g, a, bd, u0=None, theta=0.5):
    """The Newton loop of `solve_semilinear_many` for one column, with every
    level's work done afresh: op @ v formed at every residual, the lift at
    every level, du broadcast to u's shape.  Returns the real field and the
    iterations."""
    scheme = forward.ThetaScheme(g, None, theta)
    op, ht = scheme._op, g.ht
    xint = tuple(forward._interior(np.broadcast_to(c, g.space_shape), g.n)
                 for c in g.space_coordinates())
    bvals = bd.values.real[None]
    first = None if u0 is None else np.asarray(u0)[None]
    v = scheme._initial_interior(bvals, first).real.copy()

    def half(level, v):
        lifted = (scheme._lift @ bvals[:, level].T).T
        return (op @ v.T).T + lifted - a.value(*xint, g.ts[level], v)

    levels, iterations = [v], []
    explicit = half(0, v)
    for level in range(1, g.nt):
        xk = v

        def residual(v):
            implicit = half(level, v)
            return (v - xk) / ht - theta * implicit - (1 - theta) * explicit, implicit

        res, implicit = residual(v)
        count = 0
        while np.abs(res).max() > forward.NEWTON_TOL:
            assert count < forward.NEWTON_MAX_ITER
            du = np.broadcast_to(a.du(*xint, g.ts[level], v), v.shape)
            step = scheme._factor(du[0], level).solve(-ht * res[0])[None]
            base, alpha = np.linalg.norm(res), 1.0
            for halving in range(forward.NEWTON_MAX_HALVINGS + 1):
                trial = v + alpha * step
                trial_res, trial_implicit = residual(trial)
                if halving == forward.NEWTON_MAX_HALVINGS or (
                        np.isfinite(trial_res).all() and np.linalg.norm(trial_res) <= base):
                    break
                alpha *= 0.5
            v, res, implicit = trial, trial_res, trial_implicit
            count += 1
        iterations.append(count)
        levels.append(v)
        explicit = implicit
    u = np.empty(g.field_shape)
    inner = u[(slice(None), *(slice(1, -1),) * g.n)]
    inner[...] = np.concatenate(levels).reshape(inner.shape)
    u[(slice(None), *g.boundary_index)] = bvals[0]
    return u, iterations


def _still(g, amp, level):
    """Lateral data constant in time: every level's lift is the first's."""
    return BoundaryField.from_callable(
        g, lambda p, t: level + amp * np.sin(np.pi * (p[:, 0] + 0.3)) + 0 * t)


# the lateral data of a column: constant, constant in time, changing at every level
_DATA = {"level": lambda g, amp, level: BoundaryField.constant(g, level),
         "still": _still, "wave": _wave}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(1, 9, 5), (1, 17, 9), (2, 5, 5), (2, 7, 9)]),
       st.lists(st.tuples(st.floats(-6, 6), st.one_of(st.sampled_from([0.0, -0.0]),
                                                      st.floats(-1, 1)),
                          st.booleans(), st.sampled_from([0, 1]),
                          st.sampled_from(sorted(_DATA))),
                min_size=1, max_size=4))
# constant data at both zeros and in time only: every level after the first keeps its lift
@example(shape=(1, 9, 5), columns=[(0.0, -0.0, True, 1, "level"), (0.0, 0.0, True, 0, "level"),
                                   (2.0, 0.3, True, 1, "still")])
@example(shape=(2, 5, 5), columns=[(0.0, -0.0, True, 0, "level"), (3.0, -0.5, False, 1, "still")])
# a halving cubic column beside linear ones that leave Newton first, data
# changing at every level
@example(shape=(1, 9, 5), columns=[(6.0, 0.0, False, 1, "wave"), (1.0, 0.3, True, 0, "wave"),
                                   (0.2, 0.0, False, 1, "level"), (-2.0, 0.5, True, 0, "still")])
@example(shape=(2, 7, 9), columns=[(1.0, 0.3, True, 0, "still"), (6.0, 0.0, False, 1, "wave"),
                                   (4.0, -0.0, True, 1, "wave")])
def test_newton_block_is_the_plain_newton_loop_bitwise(shape, columns):
    # the block carries op @ v from level to level, keeps a lift while the
    # data repeats and takes du as it comes; every column is still the loop
    # that forms them afresh, field and iterations, bit for bit
    g = build_grid(*shape, T=1.0)
    polynomials = [_polynomial(*coefficients) for coefficients in _POLYNOMIALS]
    nonlinearities = [polynomials[which] for _, _, _, which, _ in columns]
    bdatas = [_DATA[kind](g, amp, level) for amp, level, _, _, kind in columns]
    u0s = [np.full(g.space_shape, level) if initial else None
           for _, level, initial, _, _ in columns]
    solutions, iterations = solve_semilinear_many(g, nonlinearities, bdatas, u0s)
    for u, its, a, bd, u0 in zip(solutions, iterations, nonlinearities, bdatas, u0s):
        want, want_its = _plain_newton(g, a, bd, u0)
        assert its == want_its
        assert u.tobytes() == want.tobytes()
