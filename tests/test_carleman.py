"""Weighted energy inequality and transport lemma checks."""

import csv

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cgolab import ConfigError, Potential, ScalarField, build_grid
from cgolab.carleman import (
    CarlemanReport,
    carleman_parts,
    carleman_report,
    conjugated_apply,
    energy_cross_term,
    poincare_ratio,
    sample_family,
)
from cgolab.reconstruct import probe_rho_cap


def _cosine_potential(grid, amp):
    xs = grid.space_coordinates()[0]
    vals = amp * np.sin(np.pi * xs)[None, :] * np.cos(np.pi * grid.ts / grid.T)[:, None]
    return Potential(grid, np.broadcast_to(vals, grid.field_shape).copy(), m=amp)


def test_conjugated_apply_rejects_unknown_kind():
    g = build_grid(1, 9, 9, 1.0)
    v = ScalarField(g, np.ones(g.field_shape, dtype=np.complex128))
    with pytest.raises(ConfigError):
        conjugated_apply("mixed", v, [1.0], 4.0)


def test_conjugated_apply_transport_drops_laplacian():
    # on a spatially linear profile the Laplacian vanishes, so both kinds agree
    g = build_grid(1, 17, 17, 1.0)
    xs = g.space_coordinates()[0]
    vals = (xs[None, :] * g.ts[:, None]).astype(np.complex128)
    v = ScalarField(g, vals)
    full = conjugated_apply("full", v, [1.0], 4.0)
    transport = conjugated_apply("transport", v, [1.0], 4.0)
    assert np.allclose(full.values, transport.values, atol=1e-10)


def test_sample_family_is_admissible_and_deterministic():
    g = build_grid(1, 17, 17, 1.0)
    fam = sample_family(g, 8, 3, epsilon=1)
    assert len(fam) == 8
    for v in fam:
        assert np.abs(v.values[(slice(None),) + g.boundary_index]).max() < 1e-12
        assert np.abs(v.values[0]).max() < 1e-12
    again = sample_family(g, 8, 3, epsilon=1)
    for a, b in zip(fam, again):
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("count", [0, -1])
def test_sample_family_rejects_a_count_below_one(count):
    with pytest.raises(ConfigError, match="at least 1"):
        sample_family(build_grid(1, 17, 17, 1.0), count, 3)


def test_backward_family_vanishes_at_final_slice():
    g = build_grid(1, 17, 17, 1.0)
    for v in sample_family(g, 6, 3, epsilon=-1):
        assert np.abs(v.values[-1]).max() < 1e-12


def test_orientation_mismatch_is_rejected():
    g = build_grid(1, 17, 17, 1.0)
    fwd = sample_family(g, 1, 3, epsilon=1)[0]
    with pytest.raises(ConfigError, match="final time slice"):
        poincare_ratio(fwd, [1.0], 8.0, epsilon=-1)
    bwd = sample_family(g, 1, 3, epsilon=-1)[0]
    with pytest.raises(ConfigError, match="initial time slice"):
        carleman_parts(bwd, None, [1.0], 8.0, epsilon=1)


def test_lateral_violation_and_zero_sample_rejected():
    g = build_grid(1, 17, 17, 1.0)
    with pytest.raises(ConfigError, match="lateral"):
        poincare_ratio(ScalarField(g, np.ones(g.field_shape, dtype=np.complex128)),
                       [1.0], 8.0)
    with pytest.raises(ConfigError, match="zero"):
        poincare_ratio(ScalarField(g, np.zeros(g.field_shape, dtype=np.complex128)),
                       [1.0], 8.0)


def test_small_rho_rejected():
    g = build_grid(1, 17, 17, 1.0)
    v = sample_family(g, 1, 3)[0]
    with pytest.raises(ConfigError, match="rho"):
        poincare_ratio(v, [1.0], 2.0)
    with pytest.raises(ConfigError, match="rho"):
        carleman_parts(v, None, [1.0], 1.5)


def test_poincare_ratio_bounded_and_scale_invariant():
    # the box (0,1) sits in a ball of radius 1/2, so the bound 2R = 1 holds
    # with room; the measured family maximum is ~0.159
    g = build_grid(1, 33, 65, 1.0)
    fam = sample_family(g, 8, 3)
    ratios = [poincare_ratio(v, [1.0], 8.0) for v in fam]
    assert max(ratios) == pytest.approx(0.159268, abs=1e-4)
    assert max(ratios) <= 2.0
    v = fam[0]
    scaled = ScalarField(g, 3.0 * v.values)
    assert poincare_ratio(scaled, [1.0], 8.0) == pytest.approx(ratios[0], rel=1e-12)


def test_carleman_parts_positive_and_ratio_consistent():
    g = build_grid(1, 33, 65, 1.0)
    q = _cosine_potential(g, 0.5)
    v = sample_family(g, 3, 3)[2]
    lhs, rhs = carleman_parts(v, q, [1.0], 8.0)
    assert lhs > 0.0 and rhs > 0.0
    assert np.isfinite(lhs) and np.isfinite(rhs)


@st.composite
def _reflection_problems(draw):
    """A 1-d or 2-d grid, a unit omega, rho within the grid's cap, a seeded
    backward sample family and a smooth time-varying q."""
    n = draw(st.sampled_from([1, 2]))
    # at least 5 points per axis, so that no structured sample mode
    # (sin(j pi x), j <= 3) vanishes on the nodes
    g = build_grid(n, draw(st.integers(5, 17)), draw(st.integers(3, 33)),
                   draw(st.floats(0.5, 2.0)))
    if n == 1:
        omega = np.array([draw(st.sampled_from([1.0, -1.0]))])
    else:
        angle = draw(st.floats(0.0, 2 * np.pi))
        omega = np.array([np.cos(angle), np.sin(angle)])
    rho = 2.05 + draw(st.floats(0.0, 1.0)) * (probe_rho_cap(g) - 2.05)
    samples = sample_family(g, draw(st.integers(1, 6)), draw(st.integers(0, 2**32 - 1)),
                            epsilon=-1)
    space = np.ones(g.space_shape)
    for x in g.space_coordinates():
        space = space * np.sin(draw(st.integers(1, 3)) * np.pi * x)
    time = np.cos(draw(st.integers(0, 3)) * np.pi * g.ts / g.T + draw(st.floats(0.0, np.pi)))
    qv = (draw(st.floats(-1.0, 1.0)) * time.reshape((-1,) + (1,) * n) * space[None]
          + draw(st.floats(-1.0, 1.0)))
    return g, omega, rho, samples, qv


@settings(max_examples=40, deadline=None)
@given(_reflection_problems())
def test_backward_parts_match_reflected_forward_parts(problem):
    # time reflection maps the backward conjugation onto the forward one with
    # the direction negated; the one-sided difference stencils reflect exactly,
    # so the identity holds at machine precision
    g, omega, rho, samples, qv = problem
    q, q_flip = Potential(g, qv), Potential(g, qv[::-1].copy())
    for b in samples:
        reflected = ScalarField(g, b.values[::-1].copy())
        lb, rb = carleman_parts(b, q, omega, rho, epsilon=-1)
        lf, rf = carleman_parts(reflected, q_flip, -omega, rho, epsilon=1)
        assert lb == pytest.approx(lf, rel=1e-12)
        assert rb == pytest.approx(rf, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(1, 129, 129), (1, 257, 129), (1, 129, 257), (2, 65, 129)]),
       st.sampled_from([0.5, 1.0, 2.0]),
       st.lists(st.tuples(st.floats(-1.0, 1.0), st.integers(1, 3)), min_size=2, max_size=2))
@example(shape=(1, 129, 129), T=1.0, modes=[(1.0, 2), (0.0, 1)])
def test_energy_cross_term_identity(shape, T, modes):
    # v = sum_j c_j s_j(x) (t/T)^p_j, with s_j the sine product of index j
    # (j = 1, 2 in 1-d, and (1, 1) alone in 2-d), vanishes on the lateral
    # boundary and at t = 0, and both sides approach
    # int |grad v(T)|^2 = sum_j c_j^2 |j|^2 pi^2 / 2^n.  Both discretize it
    # with second-order stencils and the trapezoid rule, so their relative
    # error is O(hx^2 + ht^2) and falls fourfold when both steps halve (for
    # j <= 2, about 3e-3 at hx = ht = 1/32 and 7.5e-4 at 1/128).  On the grids
    # drawn here its worst case over all coefficients is 7.7e-4 (a
    # generalized eigenvalue of the two quadratic forms), under the 1e-3 this
    # identity has always been held to
    g = build_grid(*shape, T)
    indices = [(1,), (2,)] if g.n == 1 else [(1, 1)]
    modes = modes[:len(indices)]
    assume(max(abs(c) for c, _ in modes) > 1e-3)
    coords = [np.broadcast_to(c, g.space_shape) for c in g.space_coordinates()]
    vals = np.zeros(g.field_shape)
    exact = 0.0
    for js, (c, p) in zip(indices, modes):
        profile = c * np.prod([np.sin(j * np.pi * x) for j, x in zip(js, coords)], axis=0)
        vals += profile[None] * ((g.ts / T) ** p).reshape((-1,) + (1,) * g.n)
        exact += c**2 * sum(j**2 for j in js) * np.pi**2 / 2**g.n
    lhs, rhs = energy_cross_term(ScalarField(g, vals.astype(np.complex128)))
    assert lhs == pytest.approx(exact, rel=1e-3)
    assert rhs == pytest.approx(exact, rel=1e-3)


@pytest.mark.parametrize("epsilon", [1, -1])
def test_ratio_stays_bounded_as_rho_grows(epsilon):
    # the inequality's content: the left/right ratio does not blow up with
    # rho.  Here it actually decreases; measured max at rho=4 is ~0.118 and
    # the larger rhos come in below 0.7 of that.
    g = build_grid(1, 33, 65, 1.0)
    q = _cosine_potential(g, 0.5)
    fam = sample_family(g, 8, 3, epsilon=epsilon)
    omega = [float(epsilon)]
    rhos = [4.0, 8.0, 16.0, 32.0]
    rep = carleman_report(g, q, omega, rhos, fam, epsilon=epsilon)
    base = rep.max_ratio_at(4.0)
    assert base == pytest.approx(0.118, abs=2e-3)
    for rho in rhos[1:]:
        assert rep.max_ratio_at(rho) <= 1.5 * base
    assert rep.max_ratio <= 2.0 * base


def test_report_rows_and_csv(tmp_path):
    g = build_grid(1, 17, 17, 1.0)
    fam = sample_family(g, 3, 3)
    rep = carleman_report(g, None, [1.0], [4.0, 8.0], fam)
    assert len(rep.rows) == 6
    assert len(rep.poincare_rows) == 6
    assert rep.max_ratio == max(rep.max_ratio_at(4.0), rep.max_ratio_at(8.0))

    main = tmp_path / "carleman.csv"
    side = tmp_path / "poincare.csv"
    rep.to_csv(main)
    rep.poincare_to_csv(side)
    with open(main, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample_id", "rho", "lhs", "rhs", "ratio"]
    assert len(rows) == 7
    got = float(rows[1][4])
    assert got == pytest.approx(rep.rows[0]["ratio"], rel=1e-10)
    with open(side, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample_id", "rho", "ratio"]
    assert len(rows) == 7
