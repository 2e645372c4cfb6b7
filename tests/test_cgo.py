"""Probe construction: weights, conjugation, corrector sources, decay."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgolab import (
    CgoParams,
    DirectionMask,
    Potential,
    ScalarField,
    build_cgo,
    build_grid,
    corrector_source,
    direction_mask,
    envelope_fit,
    exp_weight,
    principal_part,
    probe_rho_cap,
    probe_trace,
    remainder_decay_report,
)
from cgolab.cgo import _corrector_lateral, _nonnegative_fit, _taper_weights
from cgolab.errors import ConfigError, SolverError
from cgolab.fd import diff1, diff2


def _params(eps=1, rho=4.0, xi=(0.0,), tau=0.0, omega=None, n=1, delta=0.25):
    xi = np.asarray(xi, dtype=float)
    if omega is None:
        omega = np.array([1.0]) if n == 1 else np.array([0.0, 1.0])
    return CgoParams(eps, np.asarray(omega, float), xi, tau, rho, delta)


def test_params_validation():
    with pytest.raises(ConfigError):
        _params(eps=0)
    with pytest.raises(ConfigError):
        _params(rho=2.0)  # strict bound
    with pytest.raises(ConfigError):
        CgoParams(1, np.array([2.0]), np.array([0.0]), 0.0, 4.0)
    with pytest.raises(ConfigError):
        CgoParams(1, np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0.0, 4.0)
    p = _params(xi=(1.0, 0.0), omega=(0.0, 1.0), tau=2.0, n=2)
    assert p.zeta_bracket_sq == pytest.approx(1 + 1 + 4)


def test_exp_weight_values_and_overflow_guard():
    g = build_grid(1, 9, 9, T=1.0)
    w = exp_weight(g, 1, np.array([1.0]), 3.0)
    want = np.exp(-(3.0 * g.xs[None, :] + 9.0 * g.ts[:, None]))
    assert np.allclose(w.values, want)
    w2 = exp_weight(g, -1, np.array([1.0]), 3.0)
    assert np.allclose(w2.values, 1.0 / want)
    with pytest.raises(SolverError):
        exp_weight(g, 1, np.array([1.0]), 40.0)  # rho^2 T > 700


def test_principal_part_switches_on_at_quiet_end():
    g = build_grid(1, 9, 9, T=1.0)
    plus = principal_part(g, _params(eps=1, rho=16.0, xi=(0.0,), tau=3.0))
    minus = principal_part(g, _params(eps=-1, rho=16.0))
    assert np.abs(plus.values[0]).max() == 0.0
    assert np.abs(minus.values[-1]).max() == 0.0
    assert np.abs(plus.values).max() <= 1.0 + 1e-12
    # forward profile carries the oscillation
    ramp = -np.expm1(-16.0**0.75 * g.ts[-1])
    assert plus.values[-1, 0] == pytest.approx(ramp * np.exp(-1j * 3.0))


def test_corrector_source_formulas():
    # recompute both orientation sources from scratch at a few sample points
    g = build_grid(1, 7, 6, T=1.0)
    qv = 0.3 * np.sin(np.pi * g.xs)[None, :] * np.cos(g.ts)[:, None]
    q = Potential(g, qv)
    rho, tau = 5.0, 2.0
    xi = np.array([0.0])

    src_p = corrector_source(g, _params(eps=1, rho=rho, tau=tau), q).values
    e_dec = np.exp(-rho**0.75 * g.ts)[:, None]
    osc = np.exp(-1j * (xi[0] * g.xs[None, :] + tau * g.ts[:, None]))
    want_p = -osc * ((-1j * tau + xi @ xi + qv) * (1 - e_dec) + rho**0.75 * e_dec)
    assert np.abs(src_p - want_p).max() < 1e-13

    src_m = corrector_source(g, _params(eps=-1, rho=rho), q).values
    f_dec = np.exp(-rho**0.75 * (1.0 - g.ts))[:, None]
    want_m = -(qv * (1 - f_dec) + rho**0.75 * f_dec) * np.ones_like(src_m)
    assert np.abs(src_m - want_m).max() < 1e-13


def test_conjugation_identity_by_finite_differences():
    # (d_t - lap)(psi_minus v) == psi_minus (d_t - lap - 2 rho w.grad) v
    # away from rounding, checked on interior points for a smooth v
    g = build_grid(1, 41, 41, T=1.0)
    rho, om = 3.0, np.array([1.0])
    v = np.exp(-g.ts)[:, None] * np.sin(np.pi * g.xs)[None, :] + 0j
    psi = exp_weight(g, -1, om, rho).values  # e^{+rho x + rho^2 t}

    heat = lambda f: diff1(f, g.ht, 0) - diff2(f, g.hx, 1)
    lhs = heat(psi * v)
    rhs = psi * (heat(v) - 2 * rho * diff1(v, g.hx, 1))
    inner = (slice(2, -2), slice(2, -2))
    scale = np.abs(lhs[inner]).max()
    assert np.abs(lhs[inner] - rhs[inner]).max() < 2e-2 * scale


def test_residual_orientation_parity():
    # q symmetric under t -> T-t makes the two orientations mirror images:
    # their conjugated residuals must coincide (regression for the eps sign)
    g = build_grid(1, 33, 65, T=1.0)
    qv = 0.3 * np.sin(np.pi * g.xs)[None, :] * np.sin(np.pi * g.ts)[:, None]
    q = Potential(g, qv)
    res = {}
    for eps in (1, -1):
        sol = build_cgo(g, _params(eps=eps, rho=6.0), q)
        res[eps] = sol.residual_norm
    assert res[1] == pytest.approx(res[-1], rel=1e-10)
    assert np.isfinite(res[1])


def test_remainder_decay_and_guard():
    g = build_grid(1, 33, 257, T=1.0)
    qv = 0.3 * np.sin(np.pi * g.xs)[None, :] * np.sin(np.pi * g.ts)[:, None]
    q = Potential(g, qv)
    rep = remainder_decay_report(g, q, np.array([0.0]), 0.0, [4.0, 8.0, 16.0, 24.0])
    assert rep["slope_minus"] < -0.15
    assert rep["slope_plus"] < -0.15
    assert all(b < a for a, b in zip(rep["w_minus"], rep["w_minus"][1:]))
    with pytest.raises(ConfigError):
        remainder_decay_report(g, q, np.array([0.0]), 0.0, [4.0, 8.0, 16.0])
    with pytest.raises(ConfigError):
        remainder_decay_report(g, q, np.array([0.0]), 0.0, [4.0, 8.0, 16.0, 60.0])


@pytest.mark.parametrize("entry", ["report", "envelope"])
def test_default_direction_rejects_a_xi_of_the_wrong_length(entry):
    # both entry points take omega from xi when none is given; a xi with one
    # entry on a 2-d grid is a configuration error, not an IndexError
    g = build_grid(2, 9, 17, T=1.0)
    with pytest.raises(ConfigError, match=r"xi must have shape \(2,\)"):
        if entry == "report":
            remainder_decay_report(g, None, [3.0], 0.0, [3.0, 4.0, 5.0, 6.0])
        else:
            envelope_fit(g, None, [4.0], [([3.0], 0.0)])


@pytest.mark.parametrize("entry", ["report", "envelope"])
def test_a_non_finite_remainder_norm_fails_before_the_fit(monkeypatch, entry):
    # an inf norm used to reach the log-log slope and the envelope fit, and
    # the cgo-check chart writer then failed on it
    g = build_grid(1, 17, 17, T=1.0)
    monkeypatch.setattr(ScalarField, "l2_norm", lambda self: np.inf)
    with pytest.raises(SolverError, match="not finite"):
        if entry == "report":
            remainder_decay_report(g, None, [0.0], 0.0, [4.0, 5.0, 6.0, 7.0])
        else:
            envelope_fit(g, None, [4.0, 5.0], [([0.0], 0.0)])


def test_field_assembly_guard():
    g = build_grid(1, 17, 513, T=1.0)
    sol = build_cgo(g, _params(rho=30.0), compute_residual=False)
    with pytest.raises(SolverError):
        _ = sol.field  # rho^2 T = 900 overflows the weight
    assert sol.remainder.l2_norm() < np.inf  # conjugated data stays usable
    with pytest.raises(SolverError):
        probe_trace(g, _params(rho=30.0))


@st.composite
def _probe_problems(draw):
    n = draw(st.sampled_from([1, 2]))
    grid = build_grid(n, draw(st.integers(4, 9 if n == 2 else 17)), draw(st.integers(3, 9)),
                      draw(st.floats(0.2, 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = draw(st.sampled_from([1, -1]))
    if n == 1:
        omega, xi = np.array([draw(st.sampled_from([1.0, -1.0]))]), np.zeros(1)
    else:
        angle = draw(st.floats(0.0, 2 * np.pi))
        omega = np.array([np.cos(angle), np.sin(angle)])
        xi = draw(st.floats(-8.0, 8.0)) * np.array([-omega[1], omega[0]])
    params = CgoParams(eps, omega, xi, draw(st.floats(-10.0, 10.0)),
                       draw(st.floats(2.05, 8.0)), draw(st.floats(0.0, 0.6)))
    q = None
    if draw(st.booleans()):
        q = Potential(grid, rng.uniform(-0.5, 1.0, grid.field_shape))
    mask = None
    if draw(st.booleans()):
        mask = DirectionMask(grid, rng.random(grid.n_boundary) < 0.4)
    return grid, params, q, mask


@settings(max_examples=60, deadline=None)
@given(_probe_problems())
def test_probe_trace_is_the_marched_probe_trace(problem):
    # the corrector's lateral values are prescribed, so the closed form must
    # reproduce the marched probe's trace bit for bit, whatever q does inside
    grid, params, q, mask = problem
    marched = build_cgo(grid, params, q, vanish_mask=mask, compute_residual=False)
    assert np.array_equal(probe_trace(grid, params, mask).values,
                          marched.boundary_trace().values)


@settings(max_examples=60, deadline=None)
@given(_probe_problems(), st.floats(0.0, 1.0))
def test_probe_vanishes_on_mask_exactly(problem, share):
    # on the default vanish mask (normals opposing omega going forward,
    # following it going backward) the corrector's lateral values are minus
    # the principal part, so the probe's trace is exactly zero there at any
    # rho the grid hosts; the marched profile keeps those Dirichlet values
    # to solver tolerance, whatever q does inside
    grid, params, q, _ = problem
    params.rho = 2.05 + share * (probe_rho_cap(grid) - 2.05)
    mask = direction_mask(grid, params.omega, params.delta, sign=-params.epsilon).values
    assert mask.any()
    assert np.all(probe_trace(grid, params).values[:, mask] == 0.0)
    profile = build_cgo(grid, params, q, compute_residual=False).profile.boundary_trace()
    assert np.abs(profile.values[:, mask]).max() < 1e-9


def _bfs_adjacency_oracle(g):
    """Neighbors at index Manhattan distance one, found by brute force."""
    pts = list(zip(*(a.tolist() for a in g.boundary_index)))
    where = {pt: i for i, pt in enumerate(pts)}
    nbrs = [set() for _ in pts]
    for i, p in enumerate(pts):
        for q, j in where.items():
            if sum(abs(a - b) for a, b in zip(p, q)) == 1:
                nbrs[i].add(j)
    return nbrs


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(3, 12), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1))
def test_taper_is_the_mask_and_half_on_its_brute_force_neighbours(n, nx, share, seed):
    # the probe's lateral taper is 1 on the vanish mask and 1/2 on the
    # boundary points one index step from it; in 1-d the two boundary points
    # are never one step apart, so the taper is the mask itself
    grid = build_grid(n, nx, 3, 1.0)
    mask = np.random.default_rng(seed).random(grid.n_boundary) < share
    want = mask.astype(float)
    for i, nbrs in enumerate(_bfs_adjacency_oracle(grid)):
        if not mask[i] and any(mask[j] for j in nbrs):
            want[i] = 0.5
    assert np.array_equal(_taper_weights(grid, DirectionMask(grid, mask)), want)


def _cylinder_probe_trace(grid, params, mask):
    """probe_trace's formula with principal part and weight built on the
    whole cylinder and then restricted to its boundary."""
    principal = principal_part(grid, params).boundary_trace().values
    lateral = principal + _corrector_lateral(grid, params, mask, principal)
    weight = exp_weight(grid, -params.epsilon, params.omega, params.rho)
    return weight.boundary_trace().values * lateral


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SolverError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(_probe_problems(), st.floats(2.05, 30.0))
def test_boundary_points_give_the_cylinder_trace_and_guard(problem, rho):
    # evaluating phase, ramp and weight at the boundary points alone gives
    # the same bits, and the overflow guard trips at the same rho with the
    # same peak: the exponent is linear, so its peak sits at a corner
    grid, params, _, mask = problem
    params.rho = rho
    got = _outcome(lambda *a: probe_trace(*a).values, grid, params, mask)
    want = _outcome(_cylinder_probe_trace, grid, params, mask)
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(got, want)


def test_guard_trips_at_the_rho_of_the_cylinder_weight():
    # the peak 1.4 rho + rho^2 crosses the guard near rho = 25.77
    g = build_grid(2, 9, 33, T=1.0)
    omega = np.array([0.6, 0.8])
    tripped = []
    for rho in np.linspace(24.0, 28.0, 81):
        whole = _outcome(exp_weight, g, -1, omega, rho)
        trace = _outcome(probe_trace, g, CgoParams(1, omega, np.zeros(2), 0.0, rho))
        assert isinstance(whole, str) == isinstance(trace, str)
        if isinstance(whole, str):
            assert whole == trace
        tripped.append(isinstance(trace, str))
    assert 0 < sum(tripped) < len(tripped)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_closed_form_nonnegative_fit_matches_nnls(rows, seed):
    from scipy.optimize import nnls

    rng = np.random.default_rng(seed)
    design = rng.standard_normal((rows, 2))
    rhs = rng.standard_normal(rows)
    coeffs = _nonnegative_fit(design, rhs)
    assert np.all(coeffs >= 0)
    best = nnls(design, rhs)[1]
    assert np.linalg.norm(design @ coeffs - rhs) <= best + 1e-12
