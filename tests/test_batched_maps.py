"""The batched boundary-map engine against the column-by-column path.

`_column_difference` and the loops in the tests below are the straightforward
path: one forward solve per data column, the stencil trace `neumann_trace`,
the noise and the projections as one inner product per mode.  The engine marches every
column of a block together, takes traces through the sparse trace operator
and projects with one matrix product; its results must agree with the loops
to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgolab import BoundaryField, Potential, ScalarField, build_grid
from cgolab import cgo, forward
from cgolab.cgo import CgoParams, build_cgo
from cgolab.dtn import (
    DtnBasis,
    DtnOracle,
    assemble_difference_matrix,
    faces_within,
    pairings,
)
from cgolab.forward import ThetaScheme, neumann_trace, solve_forward
from cgolab.reconstruct import (
    ReconstructionConfig,
    partial_masks,
    reconstruct,
)

RTOL = 1e-13


def _potential(grid, rng, varying):
    qv = np.broadcast_to(rng.uniform(-0.3, 1.0, grid.space_shape), grid.field_shape).copy()
    if varying:
        qv = qv * (1.0 + 0.5 * np.sin(3 * grid.ts)).reshape((grid.nt,) + (1,) * grid.n)
    return Potential(grid, qv)


def _column_trace(grid, q, g, u0, theta):
    u = solve_forward(grid, q, g, u0, theta=theta)
    return neumann_trace(u).values


def _inner(grid, f, mode):
    return grid.integrate_boundary(f * np.conj(mode))


def _column_difference(oracle, q, q_ref, basis_in, basis_out):
    """(difference matrix, measured matrix), one column at a time."""
    grid, theta = oracle.grid, oracle.theta
    noise_modes = None
    if oracle._noise_matrix is not None:
        nb = oracle._noise_basis
        noise_modes = nb.inputs()[0][:nb.lateral_size]
    out_modes = basis_out.inputs()[0][:basis_out.lateral_size]
    mask = 1.0 if oracle.obs_mask is None else oracle.obs_mask.values
    diff_cols, meas_cols = [], []
    lateral, initial = basis_in.inputs()
    for i in range(basis_in.size):
        g = BoundaryField(grid, lateral[i])
        u0 = None if initial is None or i < basis_in.lateral_size else initial[i] + 0j
        measured = _column_trace(grid, q, g, u0, theta)
        if noise_modes is not None:
            coeffs = oracle._noise_matrix @ [_inner(grid, g.values, m) for m in noise_modes]
            measured = measured + sum(c * m for c, m in zip(coeffs, noise_modes))
        measured = measured * mask
        diff = measured - _column_trace(grid, q_ref, g, u0, theta) * mask
        diff_cols.append([_inner(grid, diff, m) for m in out_modes])
        meas_cols.append([_inner(grid, measured, m) for m in out_modes])
    return np.array(diff_cols).T, np.array(meas_cols).T


def _rel(got, want, scale):
    return np.abs(got - want).max() / np.abs(scale).max()


# n, varying q, partial data, noise level, initial modes, reference = truth
CASES = [
    (1, False, False, 0.0, 0, False),
    (1, True, False, 0.05, 2, False),
    (2, False, True, 0.05, 0, False),
    (2, True, False, 0.0, 1, False),
    (2, False, True, 0.02, 0, True),
]


@pytest.mark.parametrize("n,varying,partial,noise,initial,same", CASES)
def test_difference_matrix_matches_column_path(n, varying, partial, noise, initial, same):
    grid = build_grid(n, 9 if n == 2 else 17, 13, 0.7)
    rng = np.random.default_rng(10 * n + initial)
    q = _potential(grid, rng, varying)
    q_ref = q if same else _potential(grid, rng, not varying)
    support = obs = None
    faces_in = faces_out = None
    if partial:
        support, obs = partial_masks(grid, [1.0] + [0.0] * (n - 1), 0.3)
        faces_in, faces_out = faces_within(grid, support), faces_within(grid, obs)
    j_max = 2 if n == 2 else None  # a 1-d basis has point faces and no j_max
    oracle = DtnOracle(grid, q, support_mask=support, obs_mask=obs, theta=0.6,
                       noise_delta=noise, noise_seed=5,
                       noise_basis=DtnBasis(grid, j_max, 2) if noise else None)
    basis_in = DtnBasis(grid, j_max, 2, faces_in, initial_modes=initial)
    basis_out = DtnBasis(grid, j_max, 2, faces_out)
    got = assemble_difference_matrix(oracle, q_ref, basis_in, basis_out).matrix
    want, measured = _column_difference(oracle, q, q_ref, basis_in, basis_out)
    # with the reference equal to the truth the difference cancels, so the
    # measured map sets the scale
    assert _rel(got, want, measured) <= RTOL


@pytest.mark.parametrize("n,partial", [(1, False), (2, False), (2, True)])
def test_single_column_apply_and_pairings_match_column_path(n, partial):
    grid = build_grid(n, 9 if n == 2 else 17, 11, 0.5)
    rng = np.random.default_rng(n)
    q = _potential(grid, rng, True)
    support = obs = None
    keep, mask = np.ones(grid.n_boundary), 1.0
    if partial:
        support, obs = partial_masks(grid, [1.0, 0.0], 0.3)
        keep, mask = support.values, obs.values
    oracle = DtnOracle(grid, q, support_mask=support, obs_mask=obs)

    def data():
        shape = (grid.nt, grid.n_boundary)
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * keep

    g, h = np.array([data() for _ in range(4)]), np.array([data() for _ in range(2)])
    # k = 1: apply is one column of the engine
    resp = oracle.apply(BoundaryField(grid, g[0])).values
    want = _column_trace(grid, q, BoundaryField(grid, g[0]), None, 0.5) * mask
    assert _rel(resp, want, want) <= RTOL
    cols = [_column_trace(grid, q, BoundaryField(grid, gi), None, 0.5) * mask for gi in g]
    scale = np.array([[grid.integrate_boundary(c * hj) for hj in h] for c in cols])
    # one oracle answers for two references, each with its own scheme
    for q_ref in (_potential(grid, rng, False), None):
        refs = [_column_trace(grid, q_ref, BoundaryField(grid, gi), None, 0.5) * mask
                for gi in g]
        want = np.array([[grid.integrate_boundary((c - r) * hj) for hj in h]
                         for c, r in zip(cols, refs)])
        diff = next(oracle.differences(q_ref, [(g, None)]))
        assert _rel(pairings(grid, diff, h), want, scale) <= RTOL
        single = oracle.pair_against(q_ref, BoundaryField(grid, g[1]),
                                     BoundaryField(grid, h[1]))
        assert abs(single - want[1, 1]) <= RTOL * np.abs(scale).max()


def test_reconstruct_slices_match_column_path():
    # the marched reference: every node's probes are built by build_cgo and
    # its map difference taken one column at a time; several nodes share a
    # direction, so reconstruct forms one backward trace for all of them
    grid = build_grid(2, 9, 17, 1.0)
    x, y = grid.space_coordinates()
    truth = Potential(grid, np.broadcast_to(0.2 * np.sin(np.pi * x) * np.cos(np.pi * y),
                                            grid.field_shape).copy())
    cfg = ReconstructionConfig(rho=4.0, R=4.0, measure_delta=False)
    res = reconstruct(DtnOracle(grid, truth), None, cfg)
    feasible = [nd for nd in res.frequencies.canonical_nodes() if nd.feasible]
    assert len({nd.omega.tobytes() for nd in feasible}) < len(feasible)
    got, want, scale = [], [], []
    for nd in feasible:
        plus = build_cgo(grid, CgoParams(1, nd.omega, nd.xi, nd.tau, 4.0),
                         compute_residual=False).boundary_trace()
        minus = build_cgo(grid, CgoParams(-1, nd.omega, np.zeros(2), 0.0, 4.0),
                          compute_residual=False).boundary_trace().values
        measured = _column_trace(grid, truth, plus, None, 0.5)
        diff = measured - _column_trace(grid, None, plus, None, 0.5)
        norm = (2 * np.pi) ** -1.5
        got.append(nd.value)
        want.append(norm * grid.integrate_boundary(diff * minus))
        scale.append(norm * grid.integrate_boundary(measured * minus))
    assert _rel(np.array(got), np.array(want), np.array(scale)) <= RTOL


def test_shared_noise_basis_gives_the_private_basis_matrix():
    grid = build_grid(2, 9, 13, 1.0)
    q = _potential(grid, np.random.default_rng(2), False)
    basis, noise_basis = DtnBasis(grid, 2, 2), DtnBasis(grid)
    for level in (0.03, 0.3):
        shared = DtnOracle(grid, q, noise_delta=level, noise_seed=7, noise_basis=noise_basis)
        private = DtnOracle(grid, q, noise_delta=level, noise_seed=7)
        assert np.array_equal(assemble_difference_matrix(shared, None, basis).matrix,
                              assemble_difference_matrix(private, None, basis).matrix)


def test_reconstruct_factors_each_distinct_step_matrix_once(monkeypatch):
    # the pairing reads only the probes' closed-form traces, so a 2-d
    # reconstruct factors the truth and the reference step matrix and
    # nothing else: no probe is built or marched
    keys, builds, marches = [], [], []
    splu, solve = forward.splu, ThetaScheme.solve

    def counting_splu(matrix, *args, **kwargs):
        keys.append((matrix.data.tobytes(), matrix.indices.tobytes(), matrix.indptr.tobytes()))
        return splu(matrix, *args, **kwargs)

    def counting_solve(self, *args, **kwargs):
        marches.append(self)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(forward, "splu", counting_splu)
    monkeypatch.setattr(ThetaScheme, "solve", counting_solve)
    monkeypatch.setattr(cgo, "build_cgo", lambda *args, **kwargs: builds.append(args))
    grid = build_grid(2, 9, 17, 1.0)
    x, _ = grid.space_coordinates()
    truth = Potential(grid, np.broadcast_to(0.2 * np.sin(np.pi * x), grid.field_shape).copy())
    cfg = ReconstructionConfig(rho=4.0, R=4.0, basis_j_max=1, basis_k_max=1)
    res = reconstruct(DtnOracle(grid, truth), None, cfg, truth=truth)
    feasible = [nd for nd in res.frequencies.canonical_nodes() if nd.feasible]
    assert len({nd.omega.tobytes() for nd in feasible}) >= 2
    assert len(keys) == len(set(keys)) == 2
    assert builds == [] and marches == []


def test_block_march_hands_the_factor_fortran_ordered_blocks():
    grid = build_grid(2, 9, 7, 1.0)
    scheme = ThetaScheme(grid)
    factor = scheme._lu(1)
    layouts = []

    class Spy:
        def solve(self, rhs):
            layouts.append((rhs.shape, rhs.flags.f_contiguous))
            return factor.solve(rhs)

    scheme._lu = lambda level: Spy()
    data = np.random.default_rng(0).standard_normal((3, grid.nt, grid.n_boundary)) + 1j
    ThetaScheme.neumann_traces([scheme], data)
    # the three imaginary parts are equal, so 3 + 1 of the 6 real columns march
    assert layouts == [((scheme._ndof, 4), True)] * (grid.nt - 1)


# ---------------------------------------------------------------------------
# Properties over small random grids


@st.composite
def _grids(draw):
    n = draw(st.sampled_from([1, 2]))
    nx = draw(st.integers(4, 9 if n == 2 else 17))
    nt = draw(st.integers(3, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    return build_grid(n, nx, nt, draw(st.floats(0.2, 2.0))), np.random.default_rng(seed)


@settings(max_examples=40, deadline=None)
@given(_grids(), st.lists(st.floats(-5, 5), min_size=2, max_size=2))
def test_trace_operator_reproduces_neumann_trace(problem, convection):
    grid, rng = problem
    scheme = ThetaScheme(grid, convection=convection[:grid.n])
    values = (rng.standard_normal(grid.field_shape)
              + 1j * rng.standard_normal(grid.field_shape))
    trace_int, trace_bnd = scheme._trace
    flat = values.reshape(grid.nt, -1)
    got = (trace_int @ flat[:, scheme._inner].T + trace_bnd @ flat[:, scheme._outer].T).T
    want = neumann_trace(ScalarField(grid, values)).values
    assert np.abs(got - want).max() <= 1e-14 * np.abs(values).max() / grid.hx


@settings(max_examples=40, deadline=None)
@given(_grids(), st.integers(1, 3), st.integers(0, 2), st.integers(1, 4))
def test_project_inverts_synthesize(problem, j_max, k_max, count):
    grid, rng = problem
    if 2 * k_max >= grid.nt - 1:
        k_max = (grid.nt - 2) // 2
    faces = sorted(set(rng.integers(0, len(grid.faces), size=2).tolist()))
    basis = DtnBasis(grid, min(j_max, grid.nx - 2) if grid.n == 2 else None, k_max, faces)
    coeffs = (rng.standard_normal((count, basis.lateral_size))
              + 1j * rng.standard_normal((count, basis.lateral_size)))
    block = basis.synthesize(coeffs)
    assert block.shape == (count, grid.nt, grid.n_boundary)
    assert np.abs(basis.project(block) - coeffs).max() <= 1e-12 * np.abs(coeffs).max()
    single = basis.synthesize(coeffs[0])
    assert np.abs(single.values - block[0]).max() <= 1e-13 * np.abs(block).max()
    assert np.abs(basis.project(single) - coeffs[0]).max() <= 1e-12 * np.abs(coeffs).max()
