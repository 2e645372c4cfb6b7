"""Noiseless maps shared by the oracles of a sweep, against fresh oracles.

A `DtnMap` answers each distinct question once when a sweep shares it, and a
reference equal in value to the truth is the truth's map.  The counting tests
pin the traffic (factorizations, marches, block solves); the bitwise tests
hold the shared path to the results of one fresh oracle per record.
"""

import ast
import gc
import importlib
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgolab import Potential, build_grid
from cgolab import dtn, forward, norms
from cgolab.dtn import DtnBasis, DtnMap, DtnOracle, _digest, shared_maps
from cgolab.forward import ThetaScheme
from cgolab.norms import ModulusParams
from cgolab.reconstruct import (
    ReconstructionConfig,
    measurement_oracle,
    reconstruct,
    stability_sweep,
)


class Traffic:
    """Counts splu calls, distinct factored matrices, marches, block solves and
    the real columns of those solves."""

    def __init__(self, monkeypatch):
        self.matrices, self.marches, self.solves, self.columns = [], 0, 0, 0
        splu, march = forward.splu, ThetaScheme._march
        traffic = self

        class CountingFactor:
            def __init__(self, lu):
                self._lu = lu

            def solve(self, rhs):
                traffic.solves += 1
                traffic.columns += rhs.shape[1]
                return self._lu.solve(rhs)

        def counting_splu(matrix, *args, **kwargs):
            self.matrices.append((matrix.data.tobytes(), matrix.indices.tobytes(),
                                  matrix.indptr.tobytes()))
            return CountingFactor(splu(matrix, *args, **kwargs))

        def counting_march(scheme, *args, **kwargs):
            self.marches += 1
            return march(scheme, *args, **kwargs)

        monkeypatch.setattr(forward, "splu", counting_splu)
        monkeypatch.setattr(ThetaScheme, "_march", counting_march)

    @property
    def factorizations(self):
        return len(self.matrices)

    @property
    def distinct(self):
        return len(set(self.matrices))


def _sine(grid, amp, varying=False):
    x = grid.space_coordinates()[0]
    vals = np.broadcast_to(amp * np.sin(2 * np.pi * x), grid.field_shape).copy()
    if varying:
        # monotone in t, so every time level has its own step matrix
        vals *= (1.0 + grid.ts / grid.T).reshape((-1,) + (1,) * grid.n)
    return Potential(grid, vals, m=float(np.abs(vals).max()))


NOISE_LEVELS = [5e-2, 1.3e-2, 3.6e-3, 9.6e-4, 2.6e-4, 5e-5]
PARTIAL_AUTO = ReconstructionConfig(mode="partial", rho="auto", base_direction=(1.0, 0.0),
                                    basis_j_max=2, basis_k_max=2)


def test_noise_sweep_factors_once_and_marches_each_question_once(monkeypatch):
    # the benchmark's sweep2d-partial shape: the reference equals the truth in
    # value and every level floors at rho = 2.05, so the six levels ask two
    # distinct questions (the basis block and one probe column) of one map
    grid = build_grid(2, 25, 81, 1.0)
    truth = _sine(grid, 0.08)
    ref = Potential(grid, truth.values.copy(), m=truth.m)
    traffic = Traffic(monkeypatch)
    out = stability_sweep(grid, ref, PARTIAL_AUTO, ModulusParams("single_log", 0.15, 2),
                          noise_levels=NOISE_LEVELS, noise_truth=truth, noise_seed=7)
    assert [r.params["rho"] for r in out["records"]] == [2.05] * len(NOISE_LEVELS)
    assert traffic.factorizations == traffic.distinct == 1
    assert traffic.marches == 2
    assert traffic.solves == 2 * (grid.nt - 1)


def test_pair_sweep_reference_answers_once_for_every_truth(monkeypatch):
    # test_08's pair sweep: five truths against q_ref = None at an explicit
    # rho, so every truth asks the reference map the same two questions
    grid = build_grid(2, 9, 17, 1.0)
    truths = [_sine(grid, a) for a in (0.08, 0.025, 0.008, 0.0025, 0.0008)]
    cfg = ReconstructionConfig(rho=4.0, R=4.0, basis_j_max=1, basis_k_max=1)
    traffic = Traffic(monkeypatch)
    stability_sweep(grid, None, cfg, ModulusParams("double_log", 0.25, 2), pair_truths=truths)
    assert traffic.factorizations == traffic.distinct == len(truths) + 1
    assert traffic.marches == 2 * (len(truths) + 1)


def test_reference_equal_in_value_to_the_truth_factors_once(monkeypatch):
    grid = build_grid(2, 9, 17, 1.0)
    truth = _sine(grid, 0.2)
    ref = Potential(grid, truth.values.copy())
    traffic = Traffic(monkeypatch)
    res = reconstruct(DtnOracle(grid, truth), ref, ReconstructionConfig(rho=4.0, R=4.0),
                      truth=truth)
    assert traffic.factorizations == 1
    # one march per question serves both sides, and the difference cancels
    assert traffic.marches == 2
    assert res.delta == 0.0


def test_single_reconstruct_keeps_no_answers(monkeypatch):
    grid = build_grid(2, 9, 17, 1.0)
    truth = _sine(grid, 0.2)
    oracle = DtnOracle(grid, truth)
    cfg = ReconstructionConfig(rho=4.0, R=4.0)
    traffic = Traffic(monkeypatch)
    first = reconstruct(oracle, None, cfg)
    marches = traffic.marches
    second = reconstruct(oracle, None, cfg)
    assert traffic.marches == 2 * marches
    assert np.array_equal(first.values, second.values)
    assert all(np.array_equal(i, j) for i, j in zip(first.positions, second.positions))


@pytest.mark.parametrize("rho,factorizations,marches", [
    # an explicit rho asks both questions together, and the time-varying truth
    # marches them as one block; the time-invariant reference marches each
    (4.0, 16 + 1, 1 + 2),
    # at rho "auto" the probes wait for the data distance
    ("auto", 2 * 16 + 1, 2 + 2),
])
def test_time_varying_truth_marches_once_at_explicit_rho(monkeypatch, rho, factorizations,
                                                         marches):
    grid = build_grid(2, 9, 17, 1.0)
    truth = _sine(grid, 0.02, varying=True)
    cfg = ReconstructionConfig(rho=rho, R=4.0 if rho != "auto" else None,
                               basis_j_max=2, basis_k_max=2)
    traffic = Traffic(monkeypatch)
    res = reconstruct(DtnOracle(grid, truth), None, cfg, truth=truth)
    assert not res.trivial
    assert traffic.factorizations == factorizations
    assert traffic.distinct == 16 + 1
    assert traffic.marches == marches


def test_noise_sweep_transforms_its_truth_once_and_projects_each_question_once(monkeypatch):
    # six levels ask the same two questions (the basis block and the probe
    # block) and measure the error against the same truth difference
    grid = build_grid(2, 9, 17, 1.0)
    truth = _sine(grid, 0.2)
    transforms, projected = [], []
    transform, project = norms.torus_coefficients, DtnBasis.project
    noise_modes = DtnBasis(grid).lateral_modes

    def counting_transform(values, lengths, at=None, shape=None):
        transforms.append(tuple(shape))
        return transform(values, lengths, at, shape)

    def counting_project(basis, f):
        if basis.lateral_modes == noise_modes:
            projected.append(np.asarray(f).tobytes())
        return project(basis, f)

    monkeypatch.setattr(norms, "torus_coefficients", counting_transform)
    monkeypatch.setattr(DtnBasis, "project", counting_project)
    cfg = ReconstructionConfig(mode="partial", rho=4.0, R=4.0, base_direction=(1.0, 0.0),
                               basis_j_max=2, basis_k_max=2)
    stability_sweep(grid, None, cfg, ModulusParams("single_log", 0.15, 2),
                    noise_levels=NOISE_LEVELS, noise_truth=truth, noise_seed=7)
    assert transforms == [(2 * (grid.nt - 1),) + (2 * (grid.nx - 1),) * 2]
    assert len(projected) == len(set(projected)) == 2


def test_noise_sweep_builds_its_measurement_bases_once_and_hashes_their_question_once(
        monkeypatch):
    # the masks of every level's oracle are alike, so the in and out bases
    # of partial data are built once for the sweep, and the read-only input
    # block that every level asks of the shared map is digested once
    grid = build_grid(2, 9, 17, 1.0)
    truth = _sine(grid, 0.08)
    ref = Potential(grid, truth.values.copy(), m=truth.m)
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
    out = stability_sweep(grid, ref, PARTIAL_AUTO, ModulusParams("single_log", 0.15, 2),
                          noise_levels=NOISE_LEVELS, noise_truth=truth, noise_seed=7)
    assert len(out["records"]) == len(NOISE_LEVELS)
    measurement = [b for b in built if (b.j_max, b.k_max) == (2, 2)]
    # one noise basis, and one basis per masked side
    assert len(built) == 3 and len(measurement) == 2
    assert measurement[0].faces != measurement[1].faces
    asked = [a for a in hashed if any(a is b.inputs()[0] for b in built)]
    assert len(asked) == 1 and asked[0] is measurement[0].inputs()[0]


@pytest.mark.parametrize("ref_is_truth", [True, False])
def test_noise_sweep_builds_its_error_target_once_its_levels_are_gone(monkeypatch,
                                                                      ref_is_truth):
    # the levels run first; by the time the error target is built the
    # sweep's noise basis, measurement bases and shared maps are freed, and
    # each level's oracle, with its noise matrix, is freed before the next
    # level is measured (by reference counting alone, so the cycle collector
    # is off)
    grid = build_grid(2, 9, 17, 1.0)
    truth = _sine(grid, 0.08)
    ref = Potential(grid, truth.values.copy(), m=truth.m) if ref_is_truth else None
    built, alive, oracles, measured = [], [], [], []
    basis_init, map_init, oracle_init = DtnBasis.__init__, DtnMap.__init__, DtnOracle.__init__
    # the package exports the function `reconstruct` under the module's name
    reconstruct_module = importlib.import_module("cgolab.reconstruct")
    target, estimate = reconstruct_module.Hminus1Target, reconstruct_module._estimate

    def tracked_basis(basis, *args, **kwargs):
        basis_init(basis, *args, **kwargs)
        built.append(weakref.ref(basis))

    def tracked_map(m, *args, **kwargs):
        map_init(m, *args, **kwargs)
        built.append(weakref.ref(m))

    def tracked_oracle(oracle, *args, **kwargs):
        oracle_init(oracle, *args, **kwargs)
        oracles.append(weakref.ref(oracle))

    def checked_target(*args):
        if not alive:
            alive.append([tracked() is not None for tracked in built])
        return target(*args)

    def checked_estimate(*args):
        measured.append(sum(tracked() is not None for tracked in oracles))
        return estimate(*args)

    monkeypatch.setattr(DtnBasis, "__init__", tracked_basis)
    monkeypatch.setattr(DtnMap, "__init__", tracked_map)
    monkeypatch.setattr(DtnOracle, "__init__", tracked_oracle)
    monkeypatch.setattr(reconstruct_module, "Hminus1Target", checked_target)
    monkeypatch.setattr(reconstruct_module, "_estimate", checked_estimate)
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = stability_sweep(grid, ref, PARTIAL_AUTO, ModulusParams("single_log", 0.15, 2),
                              noise_levels=NOISE_LEVELS, noise_truth=truth, noise_seed=7)
    finally:
        if enabled:
            gc.enable()
    assert len(out["records"]) == len(NOISE_LEVELS) and out["records"][-1].err > 0
    # a noise basis, two measurement bases and one or two maps
    assert len(built) >= 4 and alive == [[False] * len(built)]
    assert measured == [1] * len(NOISE_LEVELS)


def _has_lattice_array(value, size) -> bool:
    """Whether value is, or directly holds, an array of at least `size` entries."""
    if isinstance(value, (tuple, list)):
        return any(_has_lattice_array(v, size) for v in value)
    values = getattr(value, "values", value)
    return isinstance(values, np.ndarray) and values.size >= size


@pytest.mark.parametrize("cfg", [
    PARTIAL_AUTO,
    ReconstructionConfig(rho=4.0, R=4.0, basis_j_max=2, basis_k_max=2, use_hermitian=False),
])
@pytest.mark.parametrize("level", [0.0, 1.0])
def test_a_result_holds_no_lattice_array(cfg, level):
    # a result keeps the values it wrote and their positions, and its
    # estimate is smaller than the lattice
    grid = build_grid(2, 9, 17, 1.0)
    truth = _sine(grid, 0.08)
    basis = DtnBasis(grid) if level else None
    res = reconstruct(measurement_oracle(grid, truth, cfg, level, 7, basis), None, cfg,
                      truth=truth)
    # a level this high takes auto rho's trivial branch
    assert res.trivial == (level > 0 and cfg.rho == "auto")
    assert res.estimate is not None and res.error > 0
    size = int(np.prod(norms.padded_shape(grid)))
    assert not [name for name, value in vars(res).items() if _has_lattice_array(value, size)]


def _count_lattice_scans(monkeypatch, grid) -> list:
    """Patches np.nonzero to record its calls on arrays of the padded
    lattice's shape; returns the record."""
    padded = norms.padded_shape(grid)
    scans, nonzero = [], np.nonzero

    def counting_nonzero(a):
        if np.shape(a) == padded:
            scans.append(np.shape(a))
        return nonzero(a)

    monkeypatch.setattr(np, "nonzero", counting_nonzero)
    return scans


def test_noise_sweep_inverts_no_estimate_and_scans_no_lattice(monkeypatch):
    # a sweep's records read the data distance, the error and the parameters:
    # the coefficients are never inverted to the cylinder, and each error
    # patches the positions the coefficients were written at
    grid = build_grid(2, 9, 17, 1.0)
    truth = _sine(grid, 0.08)
    inverses = []
    # the package exports the function `reconstruct` under the module's name
    reconstruct_module = importlib.import_module("cgolab.reconstruct")
    to_field = reconstruct_module.written_to_field

    def counting_to_field(*args, **kwargs):
        inverses.append(np.shape(args[0]))
        return to_field(*args, **kwargs)

    monkeypatch.setattr(reconstruct_module, "written_to_field", counting_to_field)
    scans = _count_lattice_scans(monkeypatch, grid)
    out = stability_sweep(grid, truth, PARTIAL_AUTO, ModulusParams("single_log", 0.15, 2),
                          noise_levels=NOISE_LEVELS, noise_truth=truth, noise_seed=7)
    assert not any(r.params["trivial"] for r in out["records"])
    assert inverses == [] and scans == []


def test_pipeline_distance_scans_no_lattice(monkeypatch):
    grid = build_grid(2, 9, 17, 1.0)
    truth = _sine(grid, 0.2)
    cfg = ReconstructionConfig(rho=4.0, R=4.0, basis_j_max=2, basis_k_max=2)
    scans = _count_lattice_scans(monkeypatch, grid)
    res = reconstruct(measurement_oracle(grid, truth, cfg), None, cfg, truth=truth)
    assert res.error > 0 and scans == []


def test_partial_noise_sweep_checks_the_basis_support_once(monkeypatch):
    # every level asks the read-only basis block under equal support masks,
    # which is checked once; each level's probe block is checked
    grid = build_grid(2, 9, 17, 1.0)
    truth = _sine(grid, 0.08)
    checked = []
    check = dtn._check_support

    def counting_check(values, mask):
        checked.append(np.shape(values))
        return check(values, mask)

    monkeypatch.setattr(dtn, "_check_support", counting_check)
    stability_sweep(grid, truth, PARTIAL_AUTO, ModulusParams("single_log", 0.15, 2),
                    noise_levels=NOISE_LEVELS, noise_truth=truth, noise_seed=7)
    assert len(checked) == len(NOISE_LEVELS) + 1


def test_a_basis_keeps_the_projections_of_digested_questions_only():
    grid = build_grid(1, 9, 17, 1.0)
    basis = DtnBasis(grid)
    g = basis.inputs()[0][:3]
    # a private oracle digests nothing, so its basis keeps nothing
    oracle = DtnOracle(grid, _sine(grid, 0.2), noise_delta=0.1, noise_basis=basis)
    oracle.apply_many(g)
    assert basis._projections == {}
    # a question without a digest never gets another question's projection
    assert np.array_equal(basis.projection(g, None), basis.project(g))
    assert np.array_equal(basis.projection(2 * g, None), basis.project(2 * g))
    key = _digest(g, None)
    kept = basis.projection(g, key)
    assert np.array_equal(kept, basis.project(g)) and not kept.flags.writeable
    assert basis.projection(g, key) is kept
    assert np.array_equal(basis.projection(3 * g, None), basis.project(3 * g))


def test_pair_sweep_transforms_each_run_of_one_truth_once(monkeypatch):
    grid = build_grid(1, 17, 33, 1.0)
    a, b = _sine(grid, 0.2), _sine(grid, 0.1)
    truths = [a, Potential(grid, a.values.copy()), b, a]
    transforms = []
    transform = norms.torus_coefficients

    def counting_transform(values, lengths, at=None, shape=None):
        transforms.append(values.tobytes())
        return transform(values, lengths, at, shape)

    monkeypatch.setattr(norms, "torus_coefficients", counting_transform)
    stability_sweep(grid, None, ReconstructionConfig(rho=4.0, R=4.0),
                    ModulusParams("single_log", 0.15, 1), pair_truths=truths)
    # records of one truth in a row share its target; a truth met again later
    # is transformed again rather than kept alive through the records between
    assert len(transforms) == 3 and len(set(transforms)) == 2


def _fresh_records(grid, q_ref, cfg, runs):
    """One fresh oracle per record, as the sweep made them before maps were shared."""
    out = []
    for truth, level in runs:
        basis = DtnBasis(grid) if level else None
        oracle = measurement_oracle(grid, truth, cfg, level, 7, basis)
        res = reconstruct(oracle, q_ref, cfg, truth=truth)
        out.append((res.delta, res.error))
    return out


@pytest.mark.parametrize("cfg", [
    PARTIAL_AUTO,
    ReconstructionConfig(mode="partial", rho=4.0, R=4.0, base_direction=(1.0, 0.0),
                         basis_j_max=2, basis_k_max=2),
])
def test_shared_noise_sweep_equals_fresh_oracles_bitwise(cfg):
    grid = build_grid(2, 9, 17, 1.0)
    truth = _sine(grid, 0.2, varying=True)
    levels = [0.05, 0.01, 0.002]
    out = stability_sweep(grid, None, cfg, ModulusParams("single_log", 0.15, 2),
                          noise_levels=levels, noise_truth=truth, noise_seed=7)
    shared = [(r.delta, r.err) for r in out["records"]]
    assert shared == _fresh_records(grid, None, cfg, [(truth, lvl) for lvl in levels])


def test_shared_pair_sweep_equals_fresh_oracles_bitwise():
    grid = build_grid(2, 9, 17, 1.0)
    ref = _sine(grid, 0.1)
    truths = [ref, _sine(grid, 0.3), _sine(grid, 0.2, varying=True)]
    cfg = ReconstructionConfig(mode="partial", rho=4.0, R=4.0, base_direction=(1.0, 0.0),
                               basis_j_max=2, basis_k_max=2)
    out = stability_sweep(grid, ref, cfg, ModulusParams("double_log", 0.25, 2),
                          pair_truths=truths)
    shared = [(r.delta, r.err) for r in out["records"]]
    assert shared == _fresh_records(grid, ref, cfg, [(t, 0.0) for t in truths])


@pytest.mark.parametrize("n,nx,cfg", [
    (1, 17, ReconstructionConfig(rho=4.0, R=6.0)),
    (2, 9, ReconstructionConfig(mode="partial", rho="auto", base_direction=(1.0, 0.0),
                                basis_j_max=2, basis_k_max=2)),
])
def test_pair_sweep_records_equal_per_record_reconstruct_bitwise(n, nx, cfg):
    grid = build_grid(n, nx, 17, 1.0)
    ref = _sine(grid, 0.05)
    truths = [_sine(grid, 0.3), _sine(grid, 0.3), _sine(grid, 0.2, varying=True), ref]
    out = stability_sweep(grid, ref, cfg, ModulusParams("single_log", 0.15, n),
                          pair_truths=truths)
    for rec, truth in zip(out["records"], truths):
        res = reconstruct(measurement_oracle(grid, truth, cfg), ref, cfg, truth=truth)
        assert (rec.delta, rec.err, rec.params["rho"], rec.params["R"]) == (
            res.delta, res.error, res.rho, res.R)


def test_shared_maps_are_made_only_by_reconstructions():
    # one builder of maps for every loop of runs: a call of shared_maps
    # anywhere else in the package would share answers apart from it
    package = Path(importlib.import_module("cgolab").__file__).parent
    callers = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for call in ast.walk(node):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "shared_maps"):
                    callers.append((path.name, node.name))
    assert callers == [("reconstruct.py", "reconstructions")]


def test_stored_answers_are_never_written_by_noise_or_mask():
    grid = build_grid(2, 9, 13, 1.0)
    q = _sine(grid, 0.3)
    (shared,) = shared_maps(grid, [q, q])
    cfg = ReconstructionConfig(mode="partial", base_direction=(1.0, 0.0))
    answers = []
    for level in (0.3, 0.3, 0.0):
        oracle = measurement_oracle(grid, q, cfg, level, 7, maps=[shared])
        assert oracle.map is shared
        g = DtnBasis(grid, 2, 2).inputs()[0] * oracle.support_mask.values
        answer = oracle.apply_many(g)
        answers.append(answer.copy())
        answer[...] = np.nan
    assert np.array_equal(answers[0], answers[1])
    traces = ThetaScheme(grid, q).neumann_traces(g)
    assert np.array_equal(answers[2], traces * oracle.obs_mask.values)
    (stored,) = shared._answers.values()
    assert np.array_equal(stored, traces)
    # the key is a digest of the question, not a copy of it
    assert [len(k) for k in shared._answers] == [64]


def test_shared_map_answers_like_a_private_one():
    grid = build_grid(1, 17, 33, 1.0)
    q = _sine(grid, 0.5, varying=True)
    (shared,) = shared_maps(grid, [q, Potential(grid, q.values.copy())])
    private = DtnMap(grid, q)
    assert shared._answers == {} and private._answers is None
    g, u0 = DtnBasis(grid, k_max=2, initial_modes=2).inputs()
    for _ in range(2):
        for u in (u0, None, 2 * u0):
            assert np.array_equal(_answers(shared, [(g, u)])[0],
                                  ThetaScheme(grid, q).neumann_traces(g, u))
    assert len(shared._answers) == 3
    # a different theta or different values is a different map
    assert not shared.is_map_of(grid, q, 0.6)
    assert not shared.is_map_of(grid, None, 0.5)
    assert shared.is_map_of(grid, Potential(grid, q.values.copy()), 0.5)


RECON2D_FULL = ReconstructionConfig(rho=12.0, R=8.0, basis_j_max=2, basis_k_max=2)


def test_basis_question_marches_its_distinct_real_columns_only(monkeypatch):
    # recon2d-full's basis question: 40 complex columns, sine profiles times
    # e^{2 pi i k t/T} for k = -2..2.  Mode -k is the conjugate of mode +k and
    # the k = 0 modes are real, so 40 of the 80 real columns are distinct and
    # nonzero
    grid = build_grid(2, 25, 81, 1.0)
    g, u0 = DtnBasis(grid, RECON2D_FULL.basis_j_max, RECON2D_FULL.basis_k_max).inputs()
    assert g.shape[0] == 40
    traffic = Traffic(monkeypatch)
    ThetaScheme(grid, _sine(grid, 0.08)).neumann_traces(g, u0)
    assert traffic.marches == traffic.factorizations == 1
    assert traffic.columns == 40 * (grid.nt - 1)


def test_full_reconstruct_solves_242_real_columns_per_step(monkeypatch):
    # recon2d-full: the truth's and the zero reference's map each march the
    # basis question (80 -> 40 real columns) and the 41 probe traces
    # (82 -> 81 real columns), on one factor each
    grid = build_grid(2, 25, 81, 1.0)
    truth = _sine(grid, 0.08)
    traffic = Traffic(monkeypatch)
    res = reconstruct(DtnOracle(grid, truth), Potential.zero(grid), RECON2D_FULL,
                      truth=truth)
    assert not res.trivial
    assert traffic.factorizations == traffic.distinct == 2
    assert traffic.marches == 4
    assert traffic.columns == 2 * (40 + 81) * (grid.nt - 1)


# ---------------------------------------------------------------------------
# Column results do not depend on the block they are marched in


@pytest.mark.parametrize("n,nx", [(2, 9), (1, 33)])
def test_factor_solve_is_columnwise_bitwise(n, nx):
    # SuperLU (2-d) and LAPACK ?gttrs (1-d) solve each column on its own
    grid = build_grid(n, nx, 9, 1.0)
    scheme = ThetaScheme(grid, _sine(grid, 0.4))
    factor = scheme._lu(1)
    rhs = np.asfortranarray(np.random.default_rng(n).standard_normal((scheme._ndof, 12)))
    block = factor.solve(rhs)
    halves = [factor.solve(np.asfortranarray(rhs[:, s])) for s in (slice(0, 5), slice(5, 12))]
    assert np.array_equal(np.hstack(halves), block)
    for j in range(rhs.shape[1]):
        assert np.array_equal(factor.solve(np.asfortranarray(rhs[:, j:j + 1]))[:, 0],
                              block[:, j])


def _answers(m, questions, keys=None):
    """Each (g, u0) question's traces as `DtnMap.answer` hands them over
    level by level, collected into one block per question."""
    keys = [None] * len(questions) if keys is None else keys
    blocks = [np.empty(np.shape(g), dtype=np.complex128) for g, _ in questions]

    def filling(out):
        def consume(level, traces):
            out[:, level] = traces
        return consume

    m.answer([(g, u, key) for (g, u), key in zip(questions, keys)],
             [filling(out) for out in blocks])
    return blocks


@pytest.mark.parametrize("n,nx", [(2, 9), (1, 17)])
def test_stacked_questions_march_as_their_separate_blocks_bitwise(n, nx):
    # in 1-d the march multiplies through dense BLAS products, whose rounding
    # depends on the block width, so there the questions must not be stacked
    grid = build_grid(n, nx, 13, 1.0)
    rng = np.random.default_rng(4)
    shape = (grid.nt, grid.n_boundary)
    g1 = rng.standard_normal((3,) + shape) + 1j * rng.standard_normal((3,) + shape)
    g2 = rng.standard_normal((1,) + shape)
    u1 = rng.standard_normal((3,) + grid.space_shape)
    for q in (_sine(grid, 0.3, varying=True), _sine(grid, 0.3)):
        m = DtnMap(grid, q)
        stacked = _answers(m, [(g1, u1), (g2, None)])
        assert np.array_equal(stacked[0], ThetaScheme(grid, q).neumann_traces(g1, u1))
        assert np.array_equal(stacked[1], ThetaScheme(grid, q).neumann_traces(g2))


def test_shared_map_keeps_a_stacked_answer_apart_from_its_parts():
    # the stacked block's key is formed from its parts' digests; it must name
    # neither part, or a part asked alone later would get the whole block
    grid = build_grid(2, 9, 13, 1.0)
    q = _sine(grid, 0.3, varying=True)
    (shared,) = shared_maps(grid, [q, q])
    private = ThetaScheme(grid, q)
    rng = np.random.default_rng(6)
    shape = (grid.nt, grid.n_boundary)
    g1, g2 = rng.standard_normal((3,) + shape), rng.standard_normal((1,) + shape)
    u1 = rng.standard_normal((3,) + grid.space_shape)
    questions = [(g1, u1), (g2, None)]
    keys = [_digest(g, u) for g, u in questions]
    for (g, u), answer in zip(questions, _answers(shared, questions, keys)):
        assert np.array_equal(answer, private.neumann_traces(g, u))
    assert len(shared._answers) == 1
    for g, u in questions:
        assert np.array_equal(_answers(shared, [(g, u)])[0], private.neumann_traces(g, u))


def _marched_alone(scheme, g, u0):
    """Traces of each data column of g marched alone, both of its real parts
    marched as they are: no column is left out."""
    trace_int, trace_bnd = scheme._trace
    out = np.empty(g.shape, dtype=np.complex128)
    for c in range(len(g)):
        x0 = scheme._initial_interior(g[c:c + 1], None if u0 is None else u0[c:c + 1])

        def trace(level, state, lateral):
            out[c, level] = (trace_int @ state + trace_bnd @ lateral).view(np.complex128)[:, 0]

        scheme._march(g[c:c + 1], x0, None, np.complex128, trace)
    return out


# how each column of a block is made: fresh, fresh on one face with zero
# initial values (so its traces start with exact zeros, whose sign a negated
# copy must keep), zero, or from an earlier column: its real part; the column
# as it is, conjugated, negated or times i; or the column with its lateral
# data or its initial values mirrored.  Initial values and face data are
# small integers, so a mirrored column has exactly the sums of the original
# and only an exact comparison tells them apart.
_KINDS = ["fresh", "face", "zero", "real", "same", "conj", "neg", "times_i",
          "mirrored_data", "mirrored_start"]


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 7), st.integers(3, 6), st.booleans(), st.booleans(), st.booleans(),
       st.lists(st.tuples(st.sampled_from(_KINDS), st.integers(0, 10**6)),
                min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
@example(5, 4, False, True, False, [("fresh", 0), ("mirrored_start", 0)], 0)
@example(5, 4, True, False, False, [("face", 1), ("neg", 0), ("times_i", 0)], 0)
@example(6, 5, True, True, True, [("fresh", 0), ("mirrored_data", 0), ("zero", 0)], 0)
def test_block_traces_equal_each_column_marched_alone_bitwise(nx, nt, varying, initial,
                                                              real_block, kinds, seed):
    grid = build_grid(2, nx, nt, 1.0)
    rng = np.random.default_rng(seed)
    scheme = ThetaScheme(grid, _sine(grid, 0.3, varying))
    shape = (grid.nt, grid.n_boundary)
    gs, us = [], []

    def integers(shape):
        return rng.integers(-3, 4, shape) + 1j * rng.integers(-3, 4, shape)

    for kind, pick in kinds:
        if kind == "face":
            g = np.zeros(shape, complex)
            on_face = grid.boundary_face == pick % len(grid.faces)
            g[:, on_face] = integers((grid.nt, on_face.sum()))
            u = np.zeros(grid.space_shape, complex)
        elif kind == "zero":
            g, u = np.zeros(shape, complex), np.zeros(grid.space_shape, complex)
        elif kind == "fresh" or not gs:
            g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            u = integers(grid.space_shape)
        else:
            g, u = gs[pick % len(gs)], us[pick % len(us)]
            g, u = {"real": (g.real + 0j, u.real + 0j), "same": (g, u),
                    "conj": (g.conj(), u.conj()), "neg": (-g, -u),
                    "times_i": (1j * g, 1j * u),
                    "mirrored_data": (g[::-1], u), "mirrored_start": (g, u[::-1])}[kind]
        gs.append(g)
        us.append(u)
    g, u0 = np.array(gs), (np.array(us) if initial else None)
    if real_block:
        g = g.real.copy()
        u0 = None if u0 is None else u0.real.copy()
    got = scheme.neumann_traces(g, u0)
    assert got.tobytes() == _marched_alone(scheme, g, u0).tobytes()
