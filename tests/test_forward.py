"""Theta-scheme solvers against manufactured solutions.

The scheme kernel reproduces solutions whose time slices are affine in t and
quadratic in space exactly; smooth solutions converge at second order.
"""

import numpy as np
import pytest

from cgolab import BoundaryField, Nonlinearity, Potential, ScalarField, build_grid
from cgolab.errors import SolverError
from cgolab.forward import (
    ThetaScheme,
    neumann_trace,
    solve_backward,
    solve_forward,
    solve_semilinear_many,
)


def _field(g, fn):
    return ScalarField.from_callable(g, fn)


def _bdata(g, fn):
    vals = np.array([[fn(p, t) for p in g.boundary_points] for t in g.ts])
    return BoundaryField(g, vals.astype(np.complex128))


def test_forward_exact_on_scheme_kernel():
    # u = t + x^2/2 solves u_t - u_xx = 0; discretely exact across the theta range
    g = build_grid(1, 9, 7, T=1.0)
    exact = _field(g, lambda x, t: t + 0.5 * x**2)
    bd = _bdata(g, lambda p, t: t + 0.5 * p[0] ** 2)
    for theta in (0.5, 0.75, 1.0):
        u = solve_forward(g, None, bd, u0=0.5 * g.xs**2, theta=theta)
        assert np.abs(u.values - exact.values).max() < 1e-12


def test_backward_exact_on_scheme_kernel():
    # v = (T - t) + x^2/2 solves -v_t - v_xx = 0
    g = build_grid(1, 9, 7, T=1.0)
    exact = _field(g, lambda x, t: (1.0 - t) + 0.5 * x**2)
    bd = _bdata(g, lambda p, t: (1.0 - t) + 0.5 * p[0] ** 2)
    v = solve_backward(g, None, bd, uT=0.5 * g.xs**2)
    assert np.abs(v.values - exact.values).max() < 1e-12


def test_forward_2d_kernel_with_potential_and_source():
    # u = t + (x^2+y^2)/2, q = 1: u_t - lap u + u = u - 1 ... feed matching source
    g = build_grid(2, 7, 6, T=1.0)
    exact = _field(g, lambda x, y, t: t + 0.5 * (x**2 + y**2))
    q = Potential(g, np.ones(g.field_shape))
    src = ScalarField(g, 1.0 - 2.0 + 1.0 * exact.values)
    bd = _bdata(g, lambda p, t: t + 0.5 * (p[0] ** 2 + p[1] ** 2))
    xs = g.space_coordinates()
    u0 = 0.5 * (np.broadcast_to(xs[0], g.space_shape) ** 2
                + np.broadcast_to(xs[1], g.space_shape) ** 2)
    u = solve_forward(g, q, bd, u0=u0, source=src)
    assert np.abs(u.values - exact.values).max() < 1e-11


def test_forward_convection_kernel():
    # u = x: u_t - u_xx + c u_x = c for constant drift c
    g = build_grid(1, 9, 7, T=1.0)
    c = 2.5
    exact = _field(g, lambda x, t: x + 0.0 * t)
    src = ScalarField(g, np.full(g.field_shape, c))
    bd = _bdata(g, lambda p, t: p[0])
    u = solve_forward(g, None, bd, u0=g.xs.copy(), source=src,
                      convection=np.array([c]))
    assert np.abs(u.values - exact.values).max() < 1e-12


@pytest.mark.parametrize("kind", ["forward", "backward"])
def test_second_order_convergence(kind):
    errs = []
    for nx in (17, 33, 65):
        g = build_grid(1, nx, nx, T=1.0)
        X, Tm = g.xs[None, :], g.ts[:, None]
        q = Potential(g, np.full(g.field_shape, 0.3))
        if kind == "forward":
            exact = np.exp(-Tm) * np.cos(3 * X)
            src = ScalarField(g, (9.0 - 1.0 + 0.3) * exact)
            bd = BoundaryField(g, np.exp(-g.ts)[:, None]
                               * np.cos(3 * g.boundary_points[:, 0])[None, :])
            u = solve_forward(g, q, bd, u0=np.cos(3 * g.xs), source=src)
        else:
            exact = np.exp(Tm - 1.0) * np.cos(3 * X)
            src = ScalarField(g, (9.0 - 1.0 + 0.3) * exact)
            bd = BoundaryField(g, np.exp(g.ts - 1.0)[:, None]
                               * np.cos(3 * g.boundary_points[:, 0])[None, :])
            u = solve_backward(g, q, bd, uT=np.cos(3 * g.xs), source=src)
        errs.append(np.abs(u.values - exact).max())
    slope = np.polyfit(np.log([1 / 16, 1 / 32, 1 / 64]), np.log(errs), 1)[0]
    assert slope > 1.9


def test_time_invariant_potential_cache_matches_general_path():
    g = build_grid(1, 17, 33, T=1.0)
    rng = np.random.default_rng(0)
    qx = 0.4 * np.sin(np.pi * g.xs)
    q_static = Potential(g, np.broadcast_to(qx, g.field_shape).copy())
    vals = rng.normal(size=(g.nt, g.n_boundary))
    vals[0] = 0.0
    bd = BoundaryField(g, vals.astype(np.complex128))
    u1 = solve_forward(g, q_static, bd)
    # same potential, with a numerically identical but not-shared time axis
    q_copy = Potential(g, q_static.values + 0.0)
    q_copy.values[5, 3] += 1e-300  # break exact time-invariance detection
    u2 = solve_forward(g, q_copy, bd)
    assert np.abs(u1.values - u2.values).max() < 1e-12


def test_incompatible_corner_warns_and_keeps_lateral():
    g = build_grid(1, 9, 7, T=1.0)
    bd = _bdata(g, lambda p, t: 1.0)
    with pytest.warns(UserWarning):
        u = solve_forward(g, None, bd, u0=np.zeros(g.nx))
    assert u.values[0, 0] == pytest.approx(1.0)


_ZERO_A = Nonlinearity.from_u(lambda u: 0.0 * u, lambda u: 0.0 * u)


@pytest.mark.parametrize("solve", [
    lambda g, bd, u0: ThetaScheme(g).solve(bd, u0),
    lambda g, bd, u0: solve_forward(g, None, bd, u0),
    lambda g, bd, u0: solve_backward(g, None, bd, u0),
    lambda g, bd, u0: solve_semilinear_many(g, [_ZERO_A], [bd], [u0]),
], ids=["ThetaScheme.solve", "solve_forward", "solve_backward", "solve_semilinear_many"])
def test_corner_warning_names_the_caller(solve):
    g = build_grid(1, 9, 7, T=1.0)
    bd = _bdata(g, lambda p, t: 1.0)
    with pytest.warns(UserWarning, match="disagree") as record:
        solve(g, bd, np.zeros(g.nx))
    assert [w.filename for w in record] == [__file__]


def test_neumann_trace_exact_on_quadratics():
    g = build_grid(1, 9, 5, T=1.0)
    u = _field(g, lambda x, t: x**2 + (1 + t) * x)
    tr = neumann_trace(u)
    # outward derivative: -u_x at x=0, +u_x at x=1
    for k, t in enumerate(g.ts):
        for i, p in enumerate(g.boundary_points):
            want = -(1 + t) if p[0] == 0 else 2 + (1 + t)
            assert tr.values[k, i] == pytest.approx(want, abs=1e-10)


def test_neumann_trace_small_grid_rejected():
    g = build_grid(1, 3, 5, T=1.0)
    with pytest.raises(ValueError):
        neumann_trace(ScalarField.zeros(g))


def test_semilinear_linear_case_matches_linear_solver():
    # a(u) = c u is also a constant potential; the two paths must agree
    g = build_grid(1, 17, 17, T=1.0)
    c = 0.7
    bd = _bdata(g, lambda p, t: 0.5 * np.sin(np.pi * t))
    a = Nonlinearity.from_u(lambda u: c * u, lambda u: c + 0.0 * u,
                            monotone=True, level_bound=2.0)
    (u,), (iterations,) = solve_semilinear_many(g, [a], [bd])
    lin = solve_forward(g, Potential(g, np.full(g.field_shape, c)), bd)
    assert np.abs(u - lin.values).max() < 1e-9
    assert max(iterations) <= 2


def test_semilinear_manufactured_decay():
    lam = 1.0 + np.pi**2
    errs = []
    for nx in (17, 33, 65):
        g = build_grid(1, nx, nx, T=1.0)
        exact = np.exp(-lam * g.ts)[:, None] * np.sin(np.pi * g.xs)[None, :]
        a = Nonlinearity.from_u(lambda u: u, lambda u: 1.0 + 0.0 * u,
                                monotone=True, level_bound=2.0)
        (u,), _ = solve_semilinear_many(g, [a], [BoundaryField.zeros(g)], [np.sin(np.pi * g.xs)])
        errs.append(np.abs(u - exact).max())
    slope = np.polyfit(np.log([1 / 16, 1 / 32, 1 / 64]), np.log(errs), 1)[0]
    assert slope > 1.9


def test_semilinear_cubic_newton_converges():
    g = build_grid(1, 17, 17, T=1.0)
    bd = _bdata(g, lambda p, t: 0.8 * np.sin(np.pi * t))
    a = Nonlinearity.from_u(lambda u: u + u**3, lambda u: 1 + 3 * u**2,
                            monotone=True, level_bound=1.0)
    (u,), (iterations,) = solve_semilinear_many(g, [a], [bd])
    assert max(iterations) >= 2  # actually nonlinear
    assert np.abs(u).max() <= 0.8 + 1e-8


def test_semilinear_rejects_complex_data():
    g = build_grid(1, 9, 7, T=1.0)
    bd = BoundaryField(g, np.full((g.nt, g.n_boundary), 1j))
    a = Nonlinearity.from_u(lambda u: u, lambda u: 1.0 + 0.0 * u)
    with pytest.raises((SolverError, ValueError)):
        solve_semilinear_many(g, [a], [bd])


def test_theta_validated():
    g = build_grid(1, 9, 7, T=1.0)
    bd = BoundaryField.zeros(g)
    with pytest.raises(ValueError):
        solve_forward(g, None, bd, theta=1.5)
