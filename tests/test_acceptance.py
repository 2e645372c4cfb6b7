"""End-to-end acceptance checks, one test per shipped capability.

Each test pins the quantities the package promises: identities that must
hold to rounding, convergence orders of the schemes, boundedness of the
weighted-inequality ratios, probe decay rates, stability constants of the
reconstruction under noise and under data restriction, and the accuracy of
the nonlinearity recovery loop.  Expected values were measured once on the
reference grids and are frozen here; hard thresholds state the actual
requirement, the approx pins guard against silent drift.

Runtime is dominated by the 2-d stability sweeps and the fine-grid probe
runs; the full file takes a couple of minutes.
"""

import math

import numpy as np
import pytest

from cgolab import BoundaryField, Potential, build_grid
from cgolab.carleman import carleman_report, poincare_ratio, sample_family
from cgolab.cgo import envelope_fit, remainder_decay_report
from cgolab.dtn import DtnOracle, pairing_volume
from cgolab.fields import ScalarField
from cgolab.forward import neumann_trace, solve_backward, solve_forward
from cgolab.norms import (
    Hminus1Target,
    ModulusParams,
    box_lengths,
    hminus1_norm,
    lattice_frequencies,
    lattice_measure,
    torus_coefficients,
    zero_extend,
)
from cgolab.reconstruct import (
    ReconstructionConfig,
    build_frequency_grid,
    exact_slice_values,
    slice_error_report,
    stability_sweep,
)
from cgolab.semilinear import (
    Nonlinearity,
    SemilinearOracle,
    fd_frechet_report,
    frechet_dtn,
    linearized_potential,
    recover_nonlinearity,
    semilinear_solution,
)


def _report(label: str, detail: str) -> None:
    print(f"PASS {label}: {detail}")


# ---------------------------------------------------------------------------
# 1. The boundary pairing of two map differences equals the volume pairing.


def _random_potential(grid, rng):
    xs = grid.space_coordinates()[0]
    vals = np.zeros(grid.field_shape)
    for j, k in ((1, 0), (2, 1), (3, 2)):
        c = rng.uniform(-1.0, 1.0)
        vals = vals + (
            c * np.sin(j * np.pi * xs)[None, :]
            * np.cos(k * np.pi * grid.ts / grid.T)[:, None]
        )
    return Potential(grid, vals / max(np.abs(vals).max(), 1e-12), m=1.0)


def _random_bdata(grid, rng):
    a, b, c = rng.normal(size=3)

    def fn(pts, t):
        osc = np.sin(np.pi * (abs(c) % 1.3 + 0.2) * t / grid.T)
        return (a + 1j * b) * np.sin(np.pi * (pts[:, 0] + 0.3)) * osc

    return BoundaryField.from_callable(grid, fn)


def test_01_boundary_pairing_identity():
    gaps = {}
    for nx in (33, 65):
        grid = build_grid(1, nx, nx, 1.0)
        rng = np.random.default_rng(11)
        case_gaps = []
        for _ in range(10):
            q = _random_potential(grid, rng)
            q_ref = _random_potential(grid, rng)
            g = _random_bdata(grid, rng)
            h = _random_bdata(grid, rng)
            lhs = DtnOracle(grid, q).pair_against(q_ref, g, h)
            rhs = pairing_volume(grid, q, q_ref, g, h)
            case_gaps.append(abs(lhs - rhs) / abs(rhs))
        gaps[nx] = case_gaps

    worst = max(gaps[65])
    improvement = float(np.median([c / f for c, f in zip(gaps[33], gaps[65])]))
    assert worst < 0.05
    assert worst == pytest.approx(0.0340, abs=2e-3)
    assert improvement >= 2.0
    assert improvement == pytest.approx(3.85, abs=0.2)
    _report("pairing identity", f"worst gap {worst:.4f}, refinement gain {improvement:.2f}x")


# ---------------------------------------------------------------------------
# 2. All three solvers converge at second order on manufactured solutions.


def test_02_scheme_convergence_orders():
    nxs = [17, 33, 65]
    errs_f, errs_b, errs_s = [], [], []
    for nx in nxs:
        grid = build_grid(1, nx, nx, 1.0)
        xs = grid.space_coordinates()[0]
        q = Potential(grid, np.full(grid.field_shape, 0.3), m=0.3)

        # u = exp(-t) cos(3x) solves (d_t - lap + 0.3) u = 8.3 u
        exact = np.exp(-grid.ts)[:, None] * np.cos(3 * xs)[None, :]
        bdata = BoundaryField.from_callable(
            grid, lambda p, t: np.exp(-t) * np.cos(3 * p[:, 0]))
        u = solve_forward(grid, q, bdata, u0=np.cos(3 * xs),
                          source=ScalarField(grid, 8.3 * exact))
        errs_f.append(np.abs(u.values - exact).max())

        # v = exp(t) cos(3x) solves the backward equation with the same source factor
        exact_b = np.exp(grid.ts)[:, None] * np.cos(3 * xs)[None, :]
        bdata_b = BoundaryField.from_callable(
            grid, lambda p, t: np.exp(t) * np.cos(3 * p[:, 0]))
        v = solve_backward(grid, q, bdata_b, uT=np.exp(grid.T) * np.cos(3 * xs),
                           source=ScalarField(grid, 8.3 * exact_b))
        errs_b.append(np.abs(v.values - exact_b).max())

        # with a(u) = u the decaying sine mode is an exact solution
        lam = 1.0 + np.pi**2
        exact_s = np.exp(-lam * grid.ts)[:, None] * np.sin(np.pi * xs)[None, :]
        a_lin = Nonlinearity(lambda x, t, u: u, lambda x, t, u: np.ones_like(u),
                             monotone=True)
        zero = BoundaryField.from_callable(grid, lambda p, t: np.zeros(p.shape[0]))
        us = semilinear_solution(grid, a_lin, zero, u0=np.sin(np.pi * xs))
        errs_s.append(np.abs(us.values - exact_s).max())

    hs = [1.0 / (n - 1) for n in nxs]
    slope_f = np.polyfit(np.log(hs), np.log(errs_f), 1)[0]
    slope_b = np.polyfit(np.log(hs), np.log(errs_b), 1)[0]
    slope_s = np.polyfit(np.log(hs), np.log(errs_s), 1)[0]
    for slope in (slope_f, slope_b, slope_s):
        assert slope >= 1.9
    assert slope_f == pytest.approx(2.074, abs=0.05)
    assert slope_b == pytest.approx(2.074, abs=0.05)
    assert slope_s == pytest.approx(1.991, abs=0.05)
    _report("convergence orders",
            f"forward {slope_f:.3f}, backward {slope_b:.3f}, semilinear {slope_s:.3f}")


# ---------------------------------------------------------------------------
# 3. The weighted Poincare ratio stays far below its theoretical constant.


def test_03_weighted_poincare_bound():
    grid = build_grid(1, 65, 129, 1.0)
    worst = 0.0
    for eps in (1, -1):
        family = sample_family(grid, 20, seed=3, epsilon=eps)
        omega = np.array([float(eps)])
        for rho in (4.0, 8.0, 16.0, 32.0):
            for b in family:
                worst = max(worst, poincare_ratio(b, omega, rho, epsilon=eps))
    assert worst <= 2.0
    assert worst == pytest.approx(0.1592, abs=1e-3)
    _report("weighted poincare", f"worst ratio {worst:.4f} (bound 2)")


# ---------------------------------------------------------------------------
# 4. Carleman lhs/rhs ratios stay bounded as rho grows, with and without q.


def test_04_carleman_ratio_uniform_in_rho():
    grid = build_grid(1, 65, 129, 1.0)
    xs = grid.space_coordinates()[0]
    qv = 0.5 * np.sin(np.pi * xs)[None, :] * np.cos(np.pi * grid.ts)[:, None]
    q = Potential(grid, np.broadcast_to(qv, grid.field_shape).copy(), m=0.5)

    growths = []
    for pot in (None, q):
        for eps in (1, -1):
            family = sample_family(grid, 20, seed=3, epsilon=eps)
            omega = np.array([float(eps)])
            rep = carleman_report(grid, pot, omega, [4.0, 8.0, 16.0, 32.0],
                                  family, epsilon=eps)
            by_rho = {}
            for row in rep.rows:
                by_rho.setdefault(row["rho"], []).append(row["ratio"])
            assert max(max(v) for v in by_rho.values()) <= 1.5
            base = max(by_rho[4.0])
            tail = max(max(by_rho[r]) for r in (8.0, 16.0, 32.0))
            growths.append(tail / base)

    assert max(growths) <= 1.5
    assert max(growths) == pytest.approx(0.769, abs=0.01)
    assert min(growths) == pytest.approx(0.765, abs=0.01)
    _report("carleman uniformity",
            f"ratio growth over rho in [{min(growths):.3f}, {max(growths):.3f}]")


# ---------------------------------------------------------------------------
# 5. The probe remainder decays in rho and obeys the two-term envelope.


def test_05_probe_remainder_decay_and_envelope():
    grid = build_grid(1, 65, 1025, 1.0)
    xs = grid.space_coordinates()[0]
    qv = 0.3 * np.sin(np.pi * xs)[None, :] * np.sin(np.pi * grid.ts)[:, None]
    q = Potential(grid, qv.copy(), m=0.3)

    rep = remainder_decay_report(grid, q, np.zeros(1), 0.0, [8.0, 16.0, 32.0, 64.0])
    assert rep["slope_plus"] <= -0.15
    assert rep["slope_minus"] <= -0.15
    assert rep["slope_minus"] == pytest.approx(-0.3054, abs=0.01)
    assert all(b < a for a, b in zip(rep["w_minus"], rep["w_minus"][1:]))

    # envelope constants must be stable under simultaneous refinement; the
    # shorter horizon keeps the rho=32 weight within exponent range
    zetas = [(np.zeros(1), k * np.pi) for k in range(4)]
    fits = []
    for nx, nt in ((65, 1025), (129, 2049)):
        fine = build_grid(1, nx, nt, 0.5)
        fx = fine.space_coordinates()[0]
        fq = Potential(fine, (0.3 * np.sin(np.pi * fx)[None, :]
                              * np.sin(np.pi * fine.ts / fine.T)[:, None]).copy(), m=0.3)
        a, b, _ = envelope_fit(fine, fq, [8.0, 16.0, 32.0], zetas)
        fits.append((a, b))
    a_ratio = fits[1][0] / fits[0][0]
    b_ratio = fits[1][1] / fits[0][1]
    assert fits[0][0] == pytest.approx(0.1678, abs=0.01)
    assert fits[0][1] == pytest.approx(0.00637, abs=0.001)
    assert 0.8 <= a_ratio <= 1.25
    assert 0.8 <= b_ratio <= 1.25
    _report("probe decay",
            f"slope {rep['slope_minus']:.3f}, envelope drift A x{a_ratio:.3f} B x{b_ratio:.3f}")


# ---------------------------------------------------------------------------
# 6. Measured frequency slices approach the exact transform as rho grows.


def test_06_slice_gap_shrinks_with_rho():
    grid = build_grid(1, 65, 1025, 0.5)
    xs = grid.space_coordinates()[0]
    qv = (0.3 * np.sin(np.pi * xs)[None, :]
          * np.sin(np.pi * grid.ts / grid.T)[:, None])
    q = Potential(grid, qv.copy(), m=0.3)

    finals = []
    for tau in (0.0, 2 * np.pi):
        rep = slice_error_report(grid, q, None, np.zeros(1), tau,
                                 [4.0, 8.0, 16.0, 32.0])
        gaps = rep["gap"]
        k = int(np.argmin(gaps))
        # decreasing into the floor, then at most a mild rebound
        assert k >= 2
        assert all(b < a for a, b in zip(gaps[: k + 1], gaps[1 : k + 1]))
        assert max(gaps[k:]) <= 1.25 * gaps[k]
        assert gaps[-1] < 0.5 * gaps[0]
        assert min(gaps) < 0.4 * abs(rep["target"])
        finals.append(gaps[-1])

    assert finals[0] == pytest.approx(3.246e-3, abs=2e-4)
    assert finals[1] == pytest.approx(3.144e-3, abs=2e-4)
    _report("slice accuracy", f"final gaps {finals[0]:.2e}, {finals[1]:.2e}")


# ---------------------------------------------------------------------------
# 7. With exact slices the reported distance is the Parseval tail, exactly.


def test_07_exact_slice_distance_is_parseval_tail():
    rng = np.random.default_rng(21)
    grid = build_grid(2, 9, 9, 1.0)
    x1, x2 = grid.space_coordinates()
    p = np.zeros(grid.field_shape)
    for j1, j2, k in ((1, 1, 0), (2, 1, 1), (1, 2, 2), (3, 2, 1)):
        c = rng.uniform(-1.0, 1.0)
        mode = np.sin(j1 * np.pi * x1) * np.sin(j2 * np.pi * x2)
        p = p + c * np.cos(k * np.pi * grid.ts / grid.T)[:, None, None] * mode[None]

    lengths = box_lengths(grid)
    full = torus_coefficients(zero_extend(grid, p), lengths)
    zeta_sq = sum(np.square(ax) for ax in lattice_frequencies(full.shape, lengths))

    errors = {}
    for mode_name, kwargs in (
        ("full", {}),
        ("partial", {"base_direction": (1.0, 0.0), "half_width": 0.3}),
    ):
        freq = build_frequency_grid(grid, 7.0, mode=mode_name, **kwargs)
        exact_slice_values(grid, p, freq)
        values, positions = freq.to_coefficients()
        err = Hminus1Target(grid, p).distance(values, positions)
        coeffs = np.zeros(full.shape, dtype=np.complex128)
        coeffs[positions] = values
        tail = math.sqrt(
            float((np.abs(full - coeffs) ** 2 / (1.0 + zeta_sq)).sum())
            * lattice_measure(lengths))
        assert err == pytest.approx(tail, abs=1e-10)
        errors[mode_name] = err

    # restricting the directions forfeits nodes, so the tail can only grow
    feasible = lambda m, **kw: sum(
        1 for nd in build_frequency_grid(grid, 7.0, mode=m, **kw).nodes if nd.feasible)
    assert feasible("full") == 33
    assert feasible("partial", base_direction=(1.0, 0.0), half_width=0.3) == 13
    assert errors["partial"] > errors["full"]
    _report("inversion oracle",
            f"distance == tail to 1e-10 (full {errors['full']:.3e}, partial {errors['partial']:.3e})")


# ---------------------------------------------------------------------------
# 8. Stability: noise enters linearly and tracks the modulus fit; restricting
#    the data costs a quantifiable constant against the matched full-data run.


def test_08_stability_noise_and_partial_data():
    # noise axis: same potential, calibrated perturbation levels
    grid = build_grid(1, 33, 33, 1.0)
    cfg = ReconstructionConfig(rho="auto", basis_k_max=3)
    levels = [5e-2, 5e-3, 5e-4, 5e-5, 5e-6]
    sweep = stability_sweep(grid, None, cfg, ModulusParams("single_log", 0.15, 1),
                            noise_levels=levels, noise_seed=7)
    records = sweep["records"]
    for level, rec in zip(levels, records):
        assert not rec.params["trivial"]
        assert rec.params["rho"] == pytest.approx(2.05)
        assert rec.delta / level == pytest.approx(0.776788, rel=1e-5)
    for a, b in zip(records, records[1:]):
        assert a.delta / b.delta == pytest.approx(10.0, rel=1e-6)
        assert a.err / b.err == pytest.approx(10.0, rel=1e-5)
    assert sweep["fit_used"] == 5
    assert sweep["fit_constant"] == pytest.approx(0.009119, rel=1e-2)

    # data-restriction axis: same truths, same parameters, full vs one-sided
    grid2 = build_grid(2, 25, 81, 1.0)
    x1 = grid2.space_coordinates()[0]
    shape = np.broadcast_to(np.sin(2 * np.pi * x1)[None], grid2.field_shape).copy()
    alphas = [0.08, 0.025, 0.008, 0.0025, 0.0008]
    truths = [Potential(grid2, a * shape, m=a) for a in alphas]
    modulus = ModulusParams("double_log", 0.25, 2)

    sweeps = {}
    for mode in ("full", "partial"):
        cfg2 = ReconstructionConfig(
            mode=mode, rho=12.0, R=8.0, basis_j_max=2, basis_k_max=2,
            base_direction=(1.0, 0.0) if mode == "partial" else None)
        sweeps[mode] = stability_sweep(grid2, None, cfg2, modulus,
                                       pair_truths=truths)

    rel = {}
    for mode, sw in sweeps.items():
        rels = [rec.err / hminus1_norm(truth) for truth, rec in zip(truths, sw["records"])]
        # near-linear in the truth: relative error flat up to the O(alpha^2)
        # remainder of the boundary-map linearization
        assert max(rels) == pytest.approx(min(rels), rel=1e-3)
        assert math.isfinite(sw["fit_constant"])
        rel[mode] = rels[0]

    assert rel["full"] == pytest.approx(0.473, abs=0.02)
    assert rel["partial"] == pytest.approx(1.003, abs=0.02)
    per_record = [p.err / f.err for p, f in
                  zip(sweeps["partial"]["records"], sweeps["full"]["records"])]
    assert min(per_record) == pytest.approx(max(per_record), rel=1e-3)
    assert per_record[0] == pytest.approx(2.120, abs=0.05)
    c_ratio = sweeps["partial"]["fit_constant"] / sweeps["full"]["fit_constant"]
    assert c_ratio >= 2.0
    assert c_ratio == pytest.approx(2.231, abs=0.1)
    _report("stability sweeps",
            f"noise C {sweep['fit_constant']:.4f}; partial/full error x{per_record[0]:.2f}, "
            f"constant x{c_ratio:.2f}")


# ---------------------------------------------------------------------------
# 9. The derivative of the semilinear boundary map checks out both ways.


def test_09_derivative_map_consistency():
    grid = build_grid(1, 33, 33, 1.0)
    a = Nonlinearity(lambda x, t, u: u + 0.2 * u**3,
                     lambda x, t, u: 1.0 + 0.6 * u**2, monotone=True)
    bdata = BoundaryField.from_callable(
        grid, lambda p, t: 0.4 * np.sin(np.pi * t) * np.ones(p.shape[0]))
    h = BoundaryField.from_callable(
        grid, lambda p, t: 0.3 * np.sin(2 * np.pi * t) * (0.5 + p[:, 0]))

    rep = fd_frechet_report(grid, a, bdata, h, [1e-2, 1e-3, 1e-4, 1e-5])
    assert abs(rep["slope"] - 1.0) <= 0.15
    assert rep["slope"] == pytest.approx(1.000, abs=0.02)
    assert all(b < a for a, b in zip(rep["err"], rep["err"][1:]))

    # the derivative map must equal the frozen-potential solve exactly
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(5):
        c0, c1, c2 = rng.uniform(0.1, 0.6, size=3)
        ac = Nonlinearity(lambda x, t, u, c1=c1, c2=c2: c1 * u + c2 * u**3,
                          lambda x, t, u, c1=c1, c2=c2: c1 + 3 * c2 * u**2,
                          monotone=True)
        gd = BoundaryField.from_callable(
            grid, lambda p, t, c0=c0: c0 * np.sin(np.pi * t) * np.ones(p.shape[0]))
        hd = BoundaryField.from_callable(
            grid, lambda p, t: 0.2 * np.sin(2 * np.pi * t) * (1.0 - p[:, 0]))
        via_map = frechet_dtn(grid, ac, gd, hd)
        v = solve_forward(grid, linearized_potential(grid, ac, gd), hd,
                          None, None, 0.5)
        worst = max(worst, np.abs(via_map.values - neumann_trace(v).values).max())
    assert worst <= 1e-12
    _report("derivative map", f"fd slope {rep['slope']:.3f}, cross-path gap {worst:.1e}")


# ---------------------------------------------------------------------------
# 10. The recovery loop finds the derivative gap of a hidden nonlinearity.


def test_10_nonlinearity_recovery():
    grid = build_grid(1, 65, 1025, 2.0)
    a_true = Nonlinearity(lambda x, t, u: u, lambda x, t, u: np.ones_like(u),
                          monotone=True)
    a_ref = Nonlinearity(lambda x, t, u: 0.5 * u,
                         lambda x, t, u: 0.5 * np.ones_like(u), monotone=True)
    cfg = ReconstructionConfig(rho=16.0, R=2.0, measure_delta=False)

    out = recover_nonlinearity(SemilinearOracle(grid, a_true), a_ref,
                               [0.3, 0.6, 0.9], cfg, truth=a_true)
    for row in out["rows"]:
        # true derivative gap is 0.5 at every level; allow 30 percent
        assert abs(row["d_prime"] - 0.5) <= 0.15
        assert row["d_prime"] == pytest.approx(0.4767, abs=0.01)
    assert out["sup_prime_error"] <= 0.15
    assert out["sup_value_error"] <= 0.15
    assert out["rows"][-1]["a_value"] == pytest.approx(0.879, abs=0.02)

    # matched reference: nothing to recover, and the loop must say so exactly
    same = recover_nonlinearity(SemilinearOracle(grid, a_true), a_true,
                                [0.3], cfg, truth=a_true)
    assert abs(same["rows"][0]["d_prime"]) <= 1e-3
    assert same["sup_prime_error"] <= 1e-3
    _report("nonlinearity recovery",
            f"derivative gap {out['rows'][0]['d_prime']:.4f} (true 0.5), "
            f"matched case {same['rows'][0]['d_prime']:.1e}")
