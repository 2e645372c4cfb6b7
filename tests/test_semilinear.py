"""Derivative boundary maps and level-by-level nonlinearity recovery."""

import importlib
import tracemalloc

import numpy as np
import pytest

from cgolab import BoundaryField, ConfigError, SolverError, build_grid
from cgolab import dtn, forward, semilinear
from cgolab.dtn import DtnBasis, add_noise
from cgolab.forward import neumann_trace, solve_forward, solve_semilinear_many
from cgolab.reconstruct import ReconstructionConfig, measurement_oracle, reconstruct
from cgolab.semilinear import (
    Nonlinearity,
    SemilinearOracle,
    fd_frechet_report,
    frechet_dtn,
    linearized_potential,
    recover_nonlinearity,
    semilinear_solution,
)

# the module, which the package's `reconstruct` function shadows
reconstruct_module = importlib.import_module("cgolab.reconstruct")


def _cubic():
    return Nonlinearity.from_u(
        lambda u: u + 0.2 * u**3,
        lambda u: 1.0 + 0.6 * u**2,
        name="cubic",
        monotone=True,
    )


def _linear(c, **kw):
    return Nonlinearity.from_u(
        lambda u: c * u, lambda u: c * np.ones_like(u), name=f"linear{c}", **kw
    )


def _sine_data(grid, amp=0.3):
    return BoundaryField.from_callable(
        grid,
        lambda pts, t: amp * np.sin(np.pi * (pts[:, 0] + 0.3))
        * np.sin(np.pi * t / grid.T) * np.ones(pts.shape[0]),
    )


def test_from_u_broadcasts_over_space_time_slices():
    a = _cubic()
    x = np.linspace(0, 1, 5)
    u = np.linspace(-1, 1, 5)
    assert a.value(x, 0.0, u).shape == (5,)
    assert a.du(x, 0.0, u) == pytest.approx(1.0 + 0.6 * u**2)
    # a constant derivative broadcasts to the shape of u
    plain = Nonlinearity.from_u(lambda u: u, lambda u: 1.0)
    assert np.array_equal(plain.du(x, 0.0, u), np.ones(5))


def test_class_check_catches_violations():
    shifted = Nonlinearity.from_u(
        lambda u: u + 1.0, lambda u: np.ones_like(u), name="shifted", monotone=True
    )
    with pytest.raises(ConfigError, match=r"a\(0\)=0"):
        shifted.check_class(1)
    decreasing = Nonlinearity.from_u(
        lambda u: -u, lambda u: -np.ones_like(u), name="down", monotone=True
    )
    with pytest.raises(ConfigError, match="nondecreasing"):
        decreasing.check_class(1)
    # unflagged nonlinearities skip the check entirely
    Nonlinearity.from_u(lambda u: -u, lambda u: -np.ones_like(u)).check_class(1)


def test_solution_respects_a_priori_sup_bound():
    g = build_grid(1, 17, 17, 1.0)
    capped = Nonlinearity.from_u(
        lambda u: 0.0 * u, lambda u: 0.0 * u, name="capped", sup_bound=0.1
    )
    data = BoundaryField.constant(g, 0.5)
    with pytest.raises(SolverError, match="a-priori bound"):
        semilinear_solution(g, capped, data, u0=np.full(g.space_shape, 0.5))


def test_monotone_range_guard_catches_amplification():
    # the spot check probes the box center where this coefficient vanishes,
    # but the solve amplifies where it is negative and leaves the data range
    g = build_grid(1, 33, 33, 1.0)
    tilted = Nonlinearity(
        lambda x, t, u: (1.0 - 2.0 * x) * 30.0 * u,
        lambda x, t, u: (1.0 - 2.0 * x) * 30.0 + 0.0 * u,
        name="tilted",
        monotone=True,
    )
    data = BoundaryField.from_callable(
        g, lambda pts, t: 0.3 * np.sin(np.pi * t / g.T) * np.ones(pts.shape[0])
    )
    with pytest.raises(SolverError, match="leaves the data range"):
        semilinear_solution(g, tilted, data)


def test_derivative_map_matches_frozen_potential_path():
    # the derivative map must coincide with the linear solve at the frozen
    # potential: same discretization, so the traces agree exactly
    g = build_grid(1, 33, 33, 1.0)
    a = _cubic()
    data = _sine_data(g)
    h = _sine_data(g, 0.11)
    sol = semilinear_solution(g, a, data)
    via_map = frechet_dtn(g, a, data, h, solution=sol)
    p = linearized_potential(g, a, data, solution=sol)
    v = solve_forward(g, p, h, None, None, 0.5)
    assert np.array_equal(via_map.values, neumann_trace(v).values)


def test_finite_difference_consistency_is_first_order():
    g = build_grid(1, 33, 33, 1.0)
    rep = fd_frechet_report(g, _cubic(), _sine_data(g), _sine_data(g, 0.11),
                            [1e-2, 1e-3, 1e-4])
    assert rep["slope"] == pytest.approx(1.0, abs=0.1)
    assert rep["err"][0] > rep["err"][1] > rep["err"][2]
    with pytest.raises(ConfigError, match="step sizes"):
        fd_frechet_report(g, _cubic(), _sine_data(g), _sine_data(g, 0.11), [1e-2])


def test_level_potential_equals_derivative_at_the_initial_slice(monkeypatch):
    g = build_grid(1, 33, 33, 1.0)
    oracle = SemilinearOracle(g, _cubic())
    (p,) = oracle.level_potentials([0.5])
    # the level solution starts exactly at u = s
    assert np.abs(p.values[0] - (1.0 + 0.6 * 0.25)).max() == 0.0
    # every level is checked before the block is solved
    solves = []
    monkeypatch.setattr(semilinear, "solve_semilinear_many",
                        lambda *args, **kwargs: solves.append(1))
    with pytest.raises(ConfigError, match="admissible range"):
        oracle.level_potentials([0.5, 1.5])
    assert solves == []


def test_recovery_is_exact_for_matching_reference():
    # truth == reference: every slice vanishes, so the derivative table is
    # recovered exactly; the value table only carries the level-grid
    # quadrature error of integrating a cubic with two nodes
    g = build_grid(1, 33, 33, 1.0)
    a = _cubic()
    cfg = ReconstructionConfig(rho="auto", basis_k_max=2, s=0.15)
    out = recover_nonlinearity(SemilinearOracle(g, a), a, [0.3, 0.6], cfg, truth=a)
    assert out["sup_prime_error"] == 0.0
    assert out["sup_value_error"] < 0.02
    for row in out["rows"]:
        assert row["d_prime"] == 0.0
        assert row["delta"] == 0.0
    with pytest.raises(ConfigError, match="level"):
        recover_nonlinearity(SemilinearOracle(g, a), a, [], cfg)


def test_recovery_tracks_a_linear_gap_at_small_scale():
    # truth a(u) = u against reference u/2: the derivative gap is the constant
    # 1/2.  At this resolution the probe error leaves about 0.35 of it; the
    # sign, level-independence, and anchored integration are what we pin here
    g = build_grid(1, 33, 257, 2.0)
    cfg = ReconstructionConfig(rho=8.0, R=2.0, measure_delta=False, basis_k_max=2)
    out = recover_nonlinearity(
        SemilinearOracle(g, _linear(1.0, monotone=True)),
        _linear(0.5, monotone=True),
        [0.3, 0.6, 0.9], cfg, truth=_linear(1.0, monotone=True),
    )
    rows = out["rows"]
    d = [r["d_prime"] for r in rows]
    assert d[0] == pytest.approx(0.354, abs=0.02)
    assert max(d) - min(d) < 1e-6
    # anchored integration: a_value grows linearly in s with slope a_prime
    assert rows[0]["a_value"] == pytest.approx(0.3 * rows[0]["a_prime"], rel=1e-9)
    assert rows[2]["a_value"] == pytest.approx(0.9 * rows[2]["a_prime"], rel=1e-9)


def test_newton_reuses_the_accepted_residual():
    # a linear a converges in one Newton iteration per step; the step then
    # evaluates a at the start value and at the accepted trial only, and the
    # accepted level's implicit half serves as the next step's explicit half
    g = build_grid(1, 17, 17, 1.0)
    calls = []

    def value(u):
        calls.append(1)
        return 0.7 * u

    a = Nonlinearity.from_u(value, lambda u: 0.7 * np.ones_like(u))
    _, (iterations,) = solve_semilinear_many(g, [a], [_sine_data(g)])
    assert iterations == [1] * (g.nt - 1)
    assert len(calls) == 1 + 2 * (g.nt - 1)


def test_newton_forms_one_product_per_trial_and_one_at_level_zero(monkeypatch):
    # the accepted block's op @ v is the next level's first, so a block forms
    # op @ v once at t=0 and once per line-search trial: with a linear a one
    # per step, and with a cubic whose first column halves, one per value
    # call after each level's first residual
    products = []

    class Counted:
        def __init__(self, op):
            self.op = op

        def __matmul__(self, other):
            products.append(1)
            return self.op @ other

    class Counting(forward.ThetaScheme):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._op = Counted(self._op)

    monkeypatch.setattr(forward, "ThetaScheme", Counting)
    g = build_grid(1, 17, 17, 1.0)
    _, (iterations,) = solve_semilinear_many(g, [_linear(0.7)], [_sine_data(g)])
    assert iterations == [1] * (g.nt - 1)
    assert len(products) == 1 + (g.nt - 1)

    g = build_grid(1, 9, 5, 1.0)
    values = []

    def value(u):
        values.append(1)
        return u + 20.0 * u**3

    a = Nonlinearity.from_u(value, lambda u: 1.0 + 60.0 * u**2)
    wave = lambda amp: BoundaryField.from_callable(
        g, lambda p, t: amp * np.sin(np.pi * (p[:, 0] + 0.3)) * np.sin(3 * np.pi * t))
    products.clear()
    _, iterations = solve_semilinear_many(g, [a] * 2, [wave(6.0), wave(0.2)])
    trials = len(values) - g.nt
    # more trials than the block's Newton iterations: the line search halves
    assert trials > sum(map(max, zip(*iterations)))
    assert len(products) == 1 + trials


def test_recovery_solves_each_nonlinearity_as_one_block(monkeypatch):
    # the truth's three levels and the reference's three form one Newton
    # block: 1 semilinear scheme, not 6.  A linear a takes one Newton
    # iteration per step, so each nonlinearity's a.value is called once at
    # t=0 and twice per step (the start residual and the accepted trial),
    # on the rows of its own levels
    g = build_grid(1, 17, 33, 1.0)
    calls = []

    def counted(c):
        def value(u):
            calls.append(1)
            return c * u
        return Nonlinearity.from_u(value, lambda u: c * np.ones_like(u))

    schemes = []

    class Counting(forward.ThetaScheme):
        def __init__(self, grid, q=None, *args, **kwargs):
            if q is None:
                schemes.append(1)
            super().__init__(grid, q, *args, **kwargs)

    monkeypatch.setattr(forward, "ThetaScheme", Counting)
    cfg = ReconstructionConfig(rho=8.0, R=2.0, measure_delta=False, basis_k_max=2)
    recover_nonlinearity(SemilinearOracle(g, counted(1.0)), counted(0.5),
                         [0.3, 0.6, 0.9], cfg)
    assert len(schemes) == 1
    assert len(calls) == 2 * (1 + 2 * (g.nt - 1))


def test_recovery_rejects_a_level_before_any_solve(monkeypatch):
    g = build_grid(1, 17, 17, 1.0)
    solves = []
    monkeypatch.setattr(semilinear, "solve_semilinear_many",
                        lambda *args, **kwargs: solves.append(1))
    cfg = ReconstructionConfig(rho=8.0, R=2.0, measure_delta=False, basis_k_max=2)
    with pytest.raises(ConfigError, match="admissible range"):
        recover_nonlinearity(SemilinearOracle(g, _cubic()), _cubic(), [0.3, 1.5], cfg)
    assert solves == []


def test_recovery_rejects_a_reference_level_before_any_solve(monkeypatch):
    # the reference's levels are held to its own level_bound too
    g = build_grid(1, 17, 17, 1.0)
    solves = []
    monkeypatch.setattr(semilinear, "solve_semilinear_many",
                        lambda *args, **kwargs: solves.append(1))
    cfg = ReconstructionConfig(rho=8.0, R=2.0, measure_delta=False, basis_k_max=2)
    ref = Nonlinearity.from_u(lambda u: 0.5 * u, lambda u: 0.5 * np.ones_like(u),
                              name="ref", level_bound=0.5)
    with pytest.raises(ConfigError, match=r"level 0.9 outside the admissible range .*'ref'"):
        recover_nonlinearity(SemilinearOracle(g, _cubic()), ref, [0.3, 0.9], cfg)
    assert solves == []


def _newton_blocks(monkeypatch):
    """(factorizations, (solutions, iterations)) of every Newton block, its
    `_factor` calls counted while it runs; also returns the list of every
    `_factor` call."""
    blocks, factors = [], []
    factor, solve = forward.ThetaScheme._factor, semilinear.solve_semilinear_many

    def counting_factor(scheme, *args, **kwargs):
        factors.append(1)
        return factor(scheme, *args, **kwargs)

    def recording(*args, **kwargs):
        before = len(factors)
        results = solve(*args, **kwargs)
        blocks.append((len(factors) - before, results))
        return results

    monkeypatch.setattr(forward.ThetaScheme, "_factor", counting_factor)
    monkeypatch.setattr(semilinear, "solve_semilinear_many", recording)
    return blocks, factors


def test_cubic_recovery_factors_once_per_column_and_iteration(monkeypatch):
    # a cubic's du moves with every iterate: no column finds a factor to
    # reuse, so the block factors once per column per Newton iteration, as
    # one-column solves do
    g = build_grid(1, 17, 33, 1.0)
    blocks, _ = _newton_blocks(monkeypatch)
    cfg = ReconstructionConfig(rho=8.0, R=2.0, measure_delta=False, basis_k_max=2)
    ref = Nonlinearity.from_u(lambda u: 0.5 * u + 0.1 * u**3, lambda u: 0.5 + 0.3 * u**2,
                              name="cubic_ref", monotone=True)
    recover_nonlinearity(SemilinearOracle(g, _cubic()), ref, [-0.5, 0.4, 0.8], cfg)
    assert len(blocks) == 1
    factorizations, (_, iterations) = blocks[0]
    assert factorizations == sum(map(sum, iterations))
    assert factorizations > len(iterations) * (g.nt - 1)


def test_nonlin1d_recovery_runs_one_block_and_four_factorizations(monkeypatch):
    # the benchmark's nonlin1d shape: a linear truth against a linear
    # reference at three levels is one 6-column Newton block that factors
    # each of its 2 distinct Jacobians once, and each of the 2 distinct maps
    # factors once (a block per nonlinearity that factored every column at
    # every iteration made 6,146 calls)
    grid = build_grid(1, 65, 1025, 2.0)
    blocks, factors = _newton_blocks(monkeypatch)
    cfg = ReconstructionConfig(rho=16.0, R=2.0, measure_delta=False)
    recover_nonlinearity(SemilinearOracle(grid, _linear(1.0, monotone=True)),
                         _linear(0.5, monotone=True), [0.3, 0.6, 0.9], cfg)
    assert [(factorizations, len(solutions))
            for factorizations, (solutions, _) in blocks] == [(2, 6)]
    assert len(factors) == 4


def test_fd_report_equals_one_solve_per_datum():
    # the report solves its base and perturbed data as one block; it must
    # equal the report composed of one checked solve per datum
    g = build_grid(1, 33, 33, 1.0)
    a, data, h = _cubic(), _sine_data(g), _sine_data(g, 0.11)
    u0 = 0.2 * np.sin(np.pi * g.xs)
    h0 = 0.1 * np.sin(2 * np.pi * g.xs)
    epsilons = [1e-2, 1e-3, 1e-4]
    rep = fd_frechet_report(g, a, data, h, epsilons, u0=u0, h0=h0)
    base = semilinear_solution(g, a, data, u0)
    deriv = frechet_dtn(g, a, data, h, u0, h0, solution=base)
    errs = []
    for eps in epsilons:
        pert = BoundaryField(g, data.values + eps * h.values)
        trace = neumann_trace(semilinear_solution(g, a, pert, u0 + eps * h0))
        fd = (trace.values - neumann_trace(base).values) / eps
        errs.append(float(np.abs(fd - deriv.values).max()))
    assert rep["err"] == errs
    assert rep["eps"] == epsilons


def _recovery_oracles(monkeypatch):
    """Every measurement oracle the recovery's loop makes, in order."""
    oracles = []
    make = reconstruct_module.measurement_oracle

    def keep(*args, **kwargs):
        oracles.append(make(*args, **kwargs))
        return oracles[-1]

    monkeypatch.setattr(reconstruct_module, "measurement_oracle", keep)
    return oracles


def test_noisy_levels_share_one_noise_basis(monkeypatch):
    # every level draws the same noise, so every level's oracle projects
    # onto the one lateral basis the recovery's loop built
    g = build_grid(1, 17, 17, 1.0)
    oracles = _recovery_oracles(monkeypatch)
    cfg = ReconstructionConfig(rho=8.0, R=2.0, measure_delta=False, basis_k_max=2)
    data = SemilinearOracle(g, _cubic(), noise_delta=1e-3, noise_seed=5)
    recover_nonlinearity(data, _linear(0.5), [0.3, 0.6, 0.9], cfg)
    assert len(oracles) == 3
    assert all(o._noise_basis is oracles[0]._noise_basis for o in oracles)
    assert oracles[0]._noise_basis is not None
    recover_nonlinearity(SemilinearOracle(g, _cubic()), _linear(0.5), [0.3], cfg)
    assert oracles[3]._noise_basis is None


def _count_marches(monkeypatch):
    marches = []
    march = forward.ThetaScheme._march

    def counting(scheme, *args, **kwargs):
        marches.append(scheme)
        return march(scheme, *args, **kwargs)

    monkeypatch.setattr(forward.ThetaScheme, "_march", counting)
    return marches


def test_linear_recovery_levels_share_their_maps(monkeypatch):
    # a linear family gives every truth level the same potential, and every
    # reference level too: the three levels ask two maps, and each map answers
    # the one probe question once
    g = build_grid(1, 17, 33, 1.0)
    marches = _count_marches(monkeypatch)
    cfg = ReconstructionConfig(rho=8.0, R=2.0, measure_delta=False, basis_k_max=2)
    out = recover_nonlinearity(SemilinearOracle(g, _linear(1.0)), _linear(0.5),
                               [0.3, 0.6, 0.9], cfg)
    assert len(marches) == 2 and len(set(map(id, marches))) == 2
    assert len({row["raw_window"] for row in out["rows"]}) == 1


def test_cubic_recovery_keeps_one_private_map_per_level(monkeypatch):
    # cubic truths and references give six distinct potentials: six maps, none
    # asked twice, so none keeps its answers
    g = build_grid(2, 9, 17, 1.0)
    made = []
    shared_maps = reconstruct_module.shared_maps

    def recording(*args, **kwargs):
        made.extend(shared_maps(*args, **kwargs))
        return made

    monkeypatch.setattr(reconstruct_module, "shared_maps", recording)
    marches = _count_marches(monkeypatch)
    cfg = ReconstructionConfig(rho=4.0, R=2.0, measure_delta=False, basis_j_max=1,
                               basis_k_max=1)
    ref = Nonlinearity.from_u(lambda u: 0.5 * u + 0.1 * u**3, lambda u: 0.5 + 0.3 * u**2,
                              name="cubic_ref", monotone=True)
    recover_nonlinearity(SemilinearOracle(g, _cubic()), ref, [-0.5, 0.4, 0.8], cfg)
    assert len(made) == 6 and not any(m.keeps_answers for m in made)
    assert sorted(map(id, marches)) == sorted(map(id, (m.scheme for m in made)))


def test_noisy_levels_draw_their_noise_once(monkeypatch):
    draws = []
    noise_draw = dtn._noise_draw

    def counting(m, seed):
        draws.append(seed)
        return noise_draw(m, seed)

    monkeypatch.setattr(dtn, "_noise_draw", counting)
    oracles = _recovery_oracles(monkeypatch)
    g = build_grid(1, 17, 17, 1.0)
    cfg = ReconstructionConfig(rho=8.0, R=2.0, measure_delta=False, basis_k_max=2)
    data = SemilinearOracle(g, _cubic(), noise_delta=1e-3, noise_seed=5)
    recover_nonlinearity(data, _linear(0.5), [0.3, 0.6, 0.9], cfg)
    assert draws == [5]
    # a kept draw scales to each level as add_noise scales a fresh one
    basis = oracles[0]._noise_basis
    size = basis.lateral_size
    zero = dtn.DtnMatrix(np.zeros((size, size)), basis.xi_sq, basis.tau, basis.xi_sq,
                         basis.tau)
    cases = [(1e-3, 5), (0.2, 5), (0.2, 6)]
    kept = [basis.noise(delta, seed) for delta, seed in cases]
    assert draws == [5, 6]
    for (delta, seed), noise in zip(cases, kept):
        assert noise.tobytes() == add_noise(zero, delta, seed).matrix.tobytes()
    with pytest.raises(ConfigError, match="nonnegative"):
        basis.noise(-1e-3, 5)


def test_recovery_rejects_a_theta_apart_from_cfg_before_any_solve(monkeypatch):
    # the levels are solved at the data's theta and measured at cfg.theta
    g = build_grid(1, 17, 17, 1.0)
    solves = []
    monkeypatch.setattr(semilinear, "solve_semilinear_many",
                        lambda *args, **kwargs: solves.append(1))
    cfg = ReconstructionConfig(rho=8.0, R=2.0, measure_delta=False, theta=0.5)
    with pytest.raises(ConfigError, match="theta"):
        recover_nonlinearity(SemilinearOracle(g, _cubic(), theta=1.0), _linear(0.5),
                             [0.3, 0.6], cfg)
    assert solves == []


@pytest.mark.parametrize("n,nx,cfg,noise", [
    (1, 17, ReconstructionConfig(rho=8.0, R=2.0, basis_k_max=2), 0.0),
    # the masks change the measured distance and the noise, so a partial
    # recovery whose oracles dropped them would not match
    (2, 9, ReconstructionConfig(mode="partial", rho=4.0, R=2.0, base_direction=(1.0, 0.0),
                                basis_j_max=2, basis_k_max=2), 1e-3),
])
def test_recovery_rows_equal_per_level_reconstructs_bitwise(n, nx, cfg, noise):
    g = build_grid(n, nx, 17, 1.0)
    levels = [-0.5, 0.4, 0.8]
    ref = _linear(0.5)
    data = SemilinearOracle(g, _cubic(), noise_delta=noise, noise_seed=5)
    out = recover_nonlinearity(data, ref, levels, cfg)
    potentials = data.level_potentials(levels, ref)
    for row, p_true, p_ref in zip(out["rows"], potentials[:3], potentials[3:]):
        basis = DtnBasis(g) if noise else None
        res = reconstruct(measurement_oracle(g, p_true, cfg, noise, 5, basis), p_ref, cfg)
        raw = semilinear._window_average(g, res.estimate.values, out["window_layers"])
        assert (row["delta"], row["rho"], row["R"], row["raw_window"]) == (
            res.delta, res.rho, res.R, raw)


def test_linear_recovery_builds_its_measurement_bases_once(monkeypatch):
    # measure_delta is on, as in the CLI: the three levels' oracles mask
    # alike, so one set of bases serves every level's data distance (one
    # basis in full mode, an in and an out basis on the faces within the
    # masks in partial mode), and the shared maps digest its read-only input
    # block once
    built, hashed = [], []
    init, digest = DtnBasis.__init__, dtn._digest

    def counting_init(basis, *args, **kwargs):
        init(basis, *args, **kwargs)
        built.append(basis)

    def counting_digest(*arrays):
        hashed.append(arrays[0])
        return digest(*arrays)

    monkeypatch.setattr(DtnBasis, "__init__", counting_init)
    monkeypatch.setattr(dtn, "_digest", counting_digest)
    for n, nx, nt, cfg, count in [
        (1, 17, 33, ReconstructionConfig(rho=8.0, R=2.0, basis_k_max=2), 1),
        (2, 9, 17, ReconstructionConfig(mode="partial", rho=4.0, R=4.0,
                                        base_direction=(1.0, 0.0), basis_j_max=2,
                                        basis_k_max=2), 2),
    ]:
        g = build_grid(n, nx, nt, 1.0)
        built.clear()
        hashed.clear()
        out = recover_nonlinearity(SemilinearOracle(g, _linear(1.0)), _linear(0.5),
                                   [0.3, 0.6, 0.9], cfg)
        assert all(row["delta"] > 0 for row in out["rows"])
        assert len(built) == count
        assert len({tuple(basis.faces) for basis in built}) == count
        asked = [a for a in hashed if any(a is b.inputs()[0] for b in built)]
        assert len(asked) == 1 and asked[0] is built[0].inputs()[0]


def test_recovery_makes_one_map_of_a_reference_its_levels_share(monkeypatch):
    # a cubic truth gives each level its own potential, a linear reference
    # the same one at every level: four maps, not one reference map per
    # level, made in the order the runs name them (a truth level, the
    # reference, the other truth levels), and only the shared one keeps its
    # answers, so it marches as often as one truth level's map
    g = build_grid(1, 17, 17, 1.0)
    made = []
    shared_maps = reconstruct_module.shared_maps

    def recording(*args, **kwargs):
        made.extend(shared_maps(*args, **kwargs))
        return made

    monkeypatch.setattr(reconstruct_module, "shared_maps", recording)
    marches = _count_marches(monkeypatch)
    for rho, radius in ((4.0, 3.0), ("auto", None)):
        made.clear()
        marches.clear()
        cfg = ReconstructionConfig(rho=rho, R=radius, basis_k_max=2)
        recover_nonlinearity(SemilinearOracle(g, _cubic()), _linear(0.5),
                             [0.3, 0.6, 0.9], cfg)
        assert [m.keeps_answers for m in made] == [False, True, False, False]
        counts = [sum(s is m.scheme for s in marches) for m in made]
        assert counts == [counts[0]] * 4


def test_newton_block_at_the_nonlinearity_workloads_shape_holds_only_its_fields():
    # each accepted level goes straight into the rows of one real block (3.05
    # MiB at this shape): no complex field (1.02 MiB per column) and no lift
    # block is held beside it; six complex fields peaked at 6.38 MiB
    grid = build_grid(1, 65, 1025, 2.0)
    columns = [(a, s) for a in (_linear(1.0), _linear(0.5)) for s in (0.3, 0.6, 0.9)]
    nonlinearities = [a for a, _ in columns]
    bdatas = [BoundaryField.constant(grid, s) for _, s in columns]
    u0s = [np.full(grid.space_shape, s) for _, s in columns]
    solve_semilinear_many(grid, nonlinearities, bdatas, u0s)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solutions, _ = solve_semilinear_many(grid, nonlinearities, bdatas, u0s)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert solutions.dtype == np.float64
    assert solutions.nbytes > 3 * 2**20
    assert peak < 7.5 * 2**20
    assert peak < 4 * 2**20


@pytest.mark.parametrize("n,nx,nt", [(1, 17, 9), (2, 7, 9)])
def test_level_potentials_are_the_linearized_potentials_bitwise(n, nx, nt):
    # the potentials formed in place over the solution block are the
    # potentials of the checked one-column solves, at both zeros too
    g = build_grid(n, nx, nt, 1.0)
    linear = _linear(0.5)
    columns = [(_cubic(), s) for s in (-0.5, -0.0, 0.0, 0.8)] + [(linear, 0.3), (linear, -0.0)]
    got = semilinear._level_potentials(g, columns, 0.5)
    for (a, s), p in zip(columns, got):
        bdata, u0 = BoundaryField.constant(g, s), np.full(g.space_shape, s)
        want = linearized_potential(g, a, bdata, u0,
                                    solution=semilinear_solution(g, a, bdata, u0))
        assert p.values.tobytes() == want.values.tobytes()
        assert p.m == want.m


def test_level_potentials_at_the_nonlinearity_workloads_shape_hold_one_real_block():
    # the six solutions fill one real block (3.05 MiB at this shape) whose
    # rows become the potentials; six complex fields beside the potentials
    # built from them held 7.32 MiB
    grid = build_grid(1, 65, 1025, 2.0)
    columns = [(a, s) for a in (_linear(1.0), _linear(0.5)) for s in (0.3, 0.6, 0.9)]
    semilinear._level_potentials(grid, columns, 0.5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        potentials = semilinear._level_potentials(grid, columns, 0.5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sum(p.values.nbytes for p in potentials) > 3 * 2**20
    assert peak < 4.5 * 2**20
