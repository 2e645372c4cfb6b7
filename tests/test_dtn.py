"""Boundary-map layer: bases, matrices, pairings, noise, file formats."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cgolab import (
    BoundaryField,
    ConfigError,
    DirectionMask,
    Potential,
    ScalarField,
    build_grid,
    direction_mask,
)
from cgolab.dtn import (
    DEFAULT_WEIGHTS,
    DtnBasis,
    DtnMatrix,
    DtnOracle,
    _digest,
    add_noise,
    assemble_difference_matrix,
    assemble_dtn_matrix,
    faces_within,
    load_field,
    operator_norm,
    pairing_volume,
    save_field,
)
from cgolab.norms import boundary_sobolev_weights


def _family_data(grid, a, b, c):
    """test_01's data family (a + ib) sin(pi (x + 0.3)) sin(pi (|c| mod 1.3 + 0.2) t/T)."""
    def fn(pts, t):
        return ((a + 1j * b) * np.sin(np.pi * (pts[:, 0] + 0.3))
                * np.sin(np.pi * (abs(c) % 1.3 + 0.2) * t / grid.T))

    return BoundaryField.from_callable(grid, fn)


def _random_boundary_data(grid, rng):
    return _family_data(grid, *rng.normal(size=3))


def _cosine_potential(grid, amp):
    xs = grid.space_coordinates()[0]
    vals = amp * np.sin(np.pi * xs)[None, :] * np.cos(np.pi * grid.ts / grid.T)[:, None]
    return Potential(grid, np.broadcast_to(vals, grid.field_shape).copy(), m=amp)


def test_lateral_basis_is_orthonormal():
    g = build_grid(2, 17, 33, 1.0)
    basis = DtnBasis(g, j_max=2, k_max=1)
    assert basis.lateral_size == 4 * 2 * 3
    gram = np.empty((basis.lateral_size, basis.lateral_size), dtype=np.complex128)
    lateral, init = basis.inputs()
    assert init is None
    for i in range(basis.lateral_size):
        gram[:, i] = basis.project(BoundaryField(g, lateral[i]))
    assert np.abs(gram - np.eye(basis.lateral_size)).max() < 1e-12


def test_project_synthesize_round_trip():
    g = build_grid(1, 17, 33, 2.0)
    basis = DtnBasis(g, k_max=3)
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=basis.lateral_size) + 1j * rng.normal(size=basis.lateral_size)
    f = basis.synthesize(coeffs)
    back = basis.project(f)
    assert np.abs(back - coeffs).max() < 1e-12
    with pytest.raises(ValueError):
        basis.synthesize(coeffs[:-1])


def test_initial_modes_extend_the_input_side():
    g = build_grid(2, 17, 17, 1.0)
    basis = DtnBasis(g, j_max=1, k_max=0, initial_modes=2)
    assert basis.size == basis.lateral_size + 2
    lateral, init = (block[basis.lateral_size] for block in basis.inputs())
    assert np.all(lateral == 0)
    # first initial mode is the (1,1) sine product with unit L2 norm
    X, Y = g.space_coordinates()
    expected = 2.0 * np.sin(np.pi * X) * np.sin(np.pi * Y)
    assert np.abs(init - expected).max() < 1e-12
    mass = float(np.sum(g.space_weights * np.abs(init) ** 2))
    assert mass == pytest.approx(1.0, rel=1e-3)


def test_basis_validation():
    g = build_grid(2, 9, 9, 1.0)
    with pytest.raises(ConfigError, match="j_max"):
        DtnBasis(g, j_max=8, k_max=1)
    with pytest.raises(ConfigError, match="k_max"):
        DtnBasis(g, j_max=1, k_max=5)
    with pytest.raises(ConfigError, match="initial modes"):
        DtnBasis(build_grid(1, 9, 9, 1.0), initial_modes=100)
    for j_max in (-1, 0, 1):
        with pytest.raises(ConfigError, match="j_max"):
            DtnBasis(build_grid(1, 9, 9, 1.0), j_max=j_max)


@pytest.mark.parametrize("n,nx,faces", [(1, 9, None), (2, 9, None), (2, 11, [3, 1])])
def test_basis_rows_equal_the_per_mode_construction_bitwise(n, nx, faces):
    # each face's points and profile are found once for all of its modes
    g = build_grid(n, nx, 13, 1.3)
    basis = DtnBasis(g, None if n == 1 else 3, 2, faces)
    for row, (fid, j, k) in zip(basis.inputs()[0], basis.lateral_modes):
        pts = np.flatnonzero(g.boundary_face == fid)
        want = np.zeros((g.nt, g.n_boundary), dtype=np.complex128)
        if n == 1:
            profile, norm = np.ones(pts.size), 1.0 / np.sqrt(g.T)
        else:
            s = g.xs[g.boundary_index[1 - g.faces[fid].axis][pts]]
            profile, norm = np.sin(j * np.pi * s), 1.0 / np.sqrt(g.T / 2.0)
        want[:, pts] = norm * np.exp(2j * np.pi * k * g.ts / g.T)[:, None] * profile[None, :]
        assert row.tobytes() == want.tobytes()
    clone = DtnBasis.from_descriptor(basis.descriptor())
    assert clone.inputs()[0].tobytes() == basis.inputs()[0].tobytes()


def test_basis_descriptor_round_trip():
    g = build_grid(2, 17, 33, 1.5)
    basis = DtnBasis(g, j_max=3, k_max=2, faces=[0, 2], initial_modes=1)
    clone = DtnBasis.from_descriptor(basis.descriptor())
    assert clone.lateral_modes == basis.lateral_modes
    assert clone.init_modes == basis.init_modes
    assert clone.grid.same_layout(g)


def test_faces_within_direction_mask():
    g = build_grid(2, 17, 33, 1.0)
    plus_x = direction_mask(g, [1.0, 0.0], 0.25, sign=1)
    assert faces_within(g, plus_x) == [1]
    everything = DirectionMask(g, plus_x.values | plus_x.complement().values)
    assert everything.values.all()
    assert faces_within(g, everything) == [0, 1, 2, 3]


def test_dtn_apply_is_linear():
    g = build_grid(1, 17, 17, 1.0)
    q = _cosine_potential(g, 0.5)
    rng = np.random.default_rng(2)
    f1 = _random_boundary_data(g, rng)
    f2 = _random_boundary_data(g, rng)
    both = BoundaryField(g, 2.0 * f1.values - 0.5j * f2.values)
    oracle = DtnOracle(g, q)
    combo = oracle.apply(both)
    split = 2.0 * oracle.apply(f1).values - 0.5j * oracle.apply(f2).values
    assert np.abs(combo.values - split).max() < 1e-10


def test_pairing_matches_volume_identity():
    # boundary and volume sides of the map-difference pairing are independent
    # code paths; on a 33x33 grid they agree to ~3 percent
    g = build_grid(1, 33, 33, 1.0)
    q = _cosine_potential(g, 0.6)
    rng = np.random.default_rng(11)
    gdat = _random_boundary_data(g, rng)
    hdat = _random_boundary_data(g, rng)
    pb = DtnOracle(g, q).pair_against(None, gdat, hdat)
    pv = pairing_volume(g, q, None, gdat, hdat)
    assert abs(pb - pv) / abs(pv) < 0.05


_unit = st.floats(-1.0, 1.0)
_coefficient = st.floats(-3.0, 3.0)


def _family_potential(grid, coeffs):
    """test_01's potential family: sin(j pi x) cos(k pi t/T) for (j, k) in
    (1, 0), (2, 1), (3, 2), scaled to unit sup norm."""
    xs = grid.space_coordinates()[0]
    vals = np.zeros(grid.field_shape)
    for (j, k), c in zip(((1, 0), (2, 1), (3, 2)), coeffs):
        vals = vals + (c * np.sin(j * np.pi * xs)[None, :]
                       * np.cos(k * np.pi * grid.ts / grid.T)[:, None])
    return Potential(grid, vals / max(np.abs(vals).max(), 1e-12), m=1.0)


# Rounding in the difference of two maps, in units of eps |g|_inf |h|_inf:
# over 1,800 random pairs of nearly equal or tiny potentials the gap beyond
# the discretization term reached 18.3.
_ROUNDING_FLOOR = 100 * np.finfo(float).eps


@settings(max_examples=40, deadline=None)
@given(st.tuples(_unit, _unit, _unit), st.tuples(_unit, _unit, _unit),
       st.tuples(_coefficient, _coefficient, _coefficient),
       st.tuples(_coefficient, _coefficient, _coefficient))
# q_ref about 1e-231: 1 + theta*ht*q_ref rounds to 1, so the boundary side is
# exactly 0 while the volume side is 1.1e-233
@example(q_coeffs=(0.0, 0.0, 0.0), ref_coeffs=(1.2271998449976253e-243, 0.0, 0.0),
         g_coeffs=(0.0, 1.0, 0.0), h_coeffs=(0.0, 1.0, 0.0))
def test_boundary_pairing_equals_volume_pairing(q_coeffs, ref_coeffs, g_coeffs, h_coeffs):
    # the gap is a discretization error, so it is bounded against the scale of
    # the pairing's factors, not against the volume side, which can nearly
    # vanish; below that, rounding in the difference of the two maps
    g = build_grid(1, 33, 33, 1.0)
    q, q_ref = _family_potential(g, q_coeffs), _family_potential(g, ref_coeffs)
    gdat, hdat = _family_data(g, *g_coeffs), _family_data(g, *h_coeffs)
    boundary = DtnOracle(g, q).pair_against(q_ref, gdat, hdat)
    volume = pairing_volume(g, q, q_ref, gdat, hdat)
    data = np.abs(gdat.values).max() * np.abs(hdat.values).max()
    scale = np.abs(q.values - q_ref.values).max() * data
    assert abs(boundary - volume) <= 1e-2 * scale + _ROUNDING_FLOOR * data


def test_matrix_shape_and_validation():
    xi = np.array([0.0, np.pi**2])
    tau = np.array([0.0, 2 * np.pi])
    with pytest.raises(ValueError, match="shape"):
        DtnMatrix(np.zeros((3, 2)), xi, tau, xi, tau)
    bad = np.full((2, 2), np.nan)
    with pytest.raises(ValueError, match="finite"):
        DtnMatrix(bad, xi, tau, xi, tau)


def test_weighted_matrix_matches_hand_formula():
    rng = np.random.default_rng(3)
    xi = np.array([0.0, np.pi**2, 4 * np.pi**2])
    tau = np.array([0.0, 2 * np.pi, -2 * np.pi])
    mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = DtnMatrix(mat, xi, tau, xi, tau)
    r_in, s_in, r_out, s_out = DEFAULT_WEIGHTS
    w_in = boundary_sobolev_weights(xi, tau, r_in, s_in)
    w_out = boundary_sobolev_weights(xi, tau, r_out, s_out)
    assert np.allclose(m.weighted(), w_out[:, None] * mat / w_in[None, :])


def test_operator_norm_against_power_iteration():
    g = build_grid(1, 17, 33, 1.0)
    q = _cosine_potential(g, 0.5)
    basis = DtnBasis(g, k_max=3)
    m = assemble_dtn_matrix(g, q, basis) - assemble_dtn_matrix(g, None, basis)
    w = m.weighted()
    v = np.random.default_rng(0).standard_normal(w.shape[1]).astype(np.complex128)
    for _ in range(300):
        v = w.conj().T @ (w @ v)
        v /= np.linalg.norm(v)
    assert np.linalg.norm(w @ v) == pytest.approx(operator_norm(m), rel=1e-8)


def test_add_noise_hits_exact_level_and_is_deterministic():
    g = build_grid(1, 17, 33, 1.0)
    basis = DtnBasis(g, k_max=3)
    m = assemble_dtn_matrix(g, _cosine_potential(g, 0.5), basis)
    noisy = add_noise(m, 0.125, 4)
    assert operator_norm(noisy - m) == pytest.approx(0.125, rel=1e-12)
    again = add_noise(m, 0.125, 4)
    assert np.array_equal(noisy.matrix, again.matrix)
    assert noisy.meta["noise_delta"] == 0.125
    assert np.array_equal(add_noise(m, 0.0, 4).matrix, m.matrix)
    with pytest.raises(ConfigError):
        add_noise(m, -0.1, 4)


def test_same_seed_noise_scales_proportionally():
    g = build_grid(1, 17, 33, 1.0)
    basis = DtnBasis(g, k_max=3)
    m = assemble_dtn_matrix(g, _cosine_potential(g, 0.5), basis)
    big = add_noise(m, 0.1, 7).matrix - m.matrix
    small = add_noise(m, 0.001, 7).matrix - m.matrix
    assert np.allclose(big, 100.0 * small, rtol=1e-10)


def test_matrix_save_load_round_trip(tmp_path):
    g = build_grid(1, 17, 33, 1.0)
    basis = DtnBasis(g, k_max=2)
    m = assemble_dtn_matrix(g, _cosine_potential(g, 0.5), basis)
    path = tmp_path / "map.dtn"
    m.save(path)
    back = DtnMatrix.load(path)
    # payload is stored in single precision
    assert np.abs(back.matrix - m.matrix).max() < 1e-6 * max(1.0, np.abs(m.matrix).max())
    assert np.array_equal(back.xi_sq_in, m.xi_sq_in)
    assert np.array_equal(back.tau_out, m.tau_out)
    assert back.weights == m.weights
    bogus = tmp_path / "bogus.dtn"
    bogus.write_bytes(b'{"format": "something-else"}\n')
    with pytest.raises(ConfigError, match="not a dtn matrix"):
        DtnMatrix.load(bogus)


@pytest.mark.parametrize("edit", ["truncated", "trailing"])
def test_matrix_load_rejects_wrong_payload_length(tmp_path, edit):
    g = build_grid(1, 9, 9, 1.0)
    m = assemble_dtn_matrix(g, None, DtnBasis(g, k_max=1))
    path = tmp_path / "map.dtn"
    m.save(path)
    data = path.read_bytes()
    expected = m.matrix.size * 8
    bad = data[:-3] if edit == "truncated" else data + b"\0" * 8
    path.write_bytes(bad)
    actual = expected - 3 if edit == "truncated" else expected + 8
    with pytest.raises(ConfigError, match=f"has {actual} bytes.* needs {expected}"):
        DtnMatrix.load(path)


def test_field_save_load_round_trip(tmp_path):
    from cgolab import ScalarField

    g = build_grid(2, 9, 9, 1.0)
    rng = np.random.default_rng(8)
    vals = rng.normal(size=g.field_shape) + 1j * rng.normal(size=g.field_shape)
    f = ScalarField(g, vals)
    path = tmp_path / "state.field"
    save_field(path, f)
    back = load_field(path)
    assert back.grid.same_layout(g)
    assert np.abs(back.values - vals).max() < 1e-6
    short = tmp_path / "short.field"
    with open(path, "rb") as fh:
        data = fh.read()
    short.write_bytes(data[:-16])
    with pytest.raises(ConfigError, match="samples"):
        load_field(short)


def _saved_matrix(path):
    """Save a small map matrix at path; returns its loader."""
    g = build_grid(1, 9, 9, 1.0)
    assemble_dtn_matrix(g, None, DtnBasis(g, k_max=1)).save(path)
    return DtnMatrix.load


def _saved_field(path):
    """Save a small 2-d field at path; returns its loader."""
    g = build_grid(2, 5, 5, 1.0)
    save_field(path, ScalarField(g, np.ones(g.field_shape)))
    return load_field


@pytest.mark.parametrize("save, key, value, message", [
    (_saved_matrix, "cols", None, "no 'cols'"),
    (_saved_matrix, "cols", "6", "'cols' has the wrong type"),
    (_saved_matrix, "rows", True, "'rows' has the wrong type"),
    (_saved_matrix, "tau_in", 0.0, "'tau_in' has the wrong type"),
    (_saved_field, "nx", None, "no 'nx'"),
    (_saved_field, "nx", 5.0, "'nx' has the wrong type"),
    (_saved_field, "T", [1.0], "'T' has the wrong type"),
])
def test_container_reader_names_a_missing_or_ill_typed_key(tmp_path, save, key,
                                                           value, message):
    path = tmp_path / "file"
    load = save(path)
    line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    if value is None:
        del header[key]
    else:
        header[key] = value
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(ConfigError, match=message):
        load(path)


@pytest.mark.parametrize("header", [b"[1, 2]", b"{not json", b"\xff\xfe"])
def test_container_reader_rejects_a_header_that_is_no_json_object(tmp_path, header):
    path = tmp_path / "file"
    path.write_bytes(header + b"\n" + b"\0" * 16)
    with pytest.raises(ConfigError):
        load_field(path)


def test_field_load_rejects_a_payload_of_the_wrong_size(tmp_path):
    path = tmp_path / "state.field"
    _saved_field(path)
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(ConfigError, match=r"has 1008 bytes.*\(5, 5, 5\).* needs 1000"):
        load_field(path)


def test_partial_apply_enforces_support():
    g = build_grid(2, 17, 17, 1.0)
    support = direction_mask(g, [1.0, 0.0], 0.25, sign=1)
    obs = direction_mask(g, [1.0, 0.0], 0.25, sign=-1)
    rng = np.random.default_rng(1)
    gdat = _random_boundary_data(g, rng)
    oracle = DtnOracle(g, None, support_mask=support, obs_mask=obs)
    with pytest.raises(ConfigError, match="support"):
        oracle.apply(gdat)
    inside = BoundaryField(g, gdat.values * support.values[None, :])
    resp = oracle.apply(inside)
    assert np.all(resp.values[:, ~obs.values] == 0)


def test_oracle_noise_closed_loop():
    # with the difference assembled in the oracle's own noise basis and a zero
    # map difference, only the injected perturbation survives: its weighted
    # norm is exactly the requested level
    g = build_grid(1, 33, 33, 1.0)
    basis = DtnBasis(g, k_max=3)
    oracle = DtnOracle(g, None, noise_delta=0.05, noise_seed=9, noise_basis=basis)
    diff = assemble_difference_matrix(oracle, None, basis)
    assert operator_norm(diff) == pytest.approx(0.05, rel=1e-10)
    clean = DtnOracle(g, None)
    diff0 = assemble_difference_matrix(clean, None, basis)
    assert operator_norm(diff0) < 1e-12


@pytest.mark.parametrize("delta", [-0.5, float("nan")])
def test_oracle_rejects_a_negative_noise_level(delta):
    g = build_grid(1, 17, 17, 1.0)
    with pytest.raises(ConfigError, match="nonnegative"):
        DtnOracle(g, None, noise_delta=delta)


def test_oracle_enforces_support_mask():
    g = build_grid(2, 17, 17, 1.0)
    support = direction_mask(g, [0.0, 1.0], 0.25, sign=1)
    oracle = DtnOracle(g, None, support_mask=support)
    rng = np.random.default_rng(4)
    with pytest.raises(ConfigError, match="support"):
        oracle.apply(_random_boundary_data(g, rng))


def test_a_basis_block_is_checked_against_each_support_mask():
    # the basis keeps the masks its read-only block passed; a mask it does
    # not pass still fails, whatever it passed before
    g = build_grid(2, 9, 17, 1.0)
    inside = direction_mask(g, [1.0, 0.0], 0.25, sign=1)
    basis = DtnBasis(g, 2, 2, faces_within(g, inside))
    for _ in range(2):
        assemble_difference_matrix(DtnOracle(g, None, support_mask=inside), None, basis)
    outside = direction_mask(g, [-1.0, 0.0], 0.25, sign=1)
    with pytest.raises(ConfigError, match="support"):
        assemble_difference_matrix(DtnOracle(g, None, support_mask=outside), None, basis)


def test_output_basis_rejects_initial_modes():
    g = build_grid(1, 17, 17, 1.0)
    basis_in = DtnBasis(g, k_max=2, initial_modes=1)
    with pytest.raises(ConfigError, match="initial modes"):
        assemble_dtn_matrix(g, None, basis_in, basis_out=basis_in)


def test_a_lateral_only_basis_has_no_initial_block():
    g = build_grid(2, 9, 17, 1.0)
    basis = DtnBasis(g, 2, 2)
    lateral, initial = basis.inputs()
    assert initial is None and basis._initial is None
    assert lateral.shape == (basis.size, g.nt, g.n_boundary) and not lateral.flags.writeable
    assert basis.digest() == _digest(lateral, None)
    extended = DtnBasis(g, 2, 2, initial_modes=2)
    _, initial = extended.inputs()
    assert initial.shape == (extended.size,) + g.space_shape and not initial.flags.writeable
    assert not np.any(initial[:extended.lateral_size])


# trace entries: zeros of either sign beside ordinary values
_TRACE_PARTS = st.one_of(st.sampled_from([0.0, -0.0]),
                         st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def _same_reference_problems(draw):
    n = draw(st.sampled_from([1, 2]))
    g = build_grid(n, 5 if n == 2 else 7, draw(st.integers(5, 9)), 1.0)
    basis = DtnBasis(g)
    rows = draw(st.lists(st.integers(0, basis.size - 1), min_size=1, max_size=3))
    q = basis.inputs()[0][rows] if draw(st.booleans()) else np.zeros(
        (len(rows), g.nt, g.n_boundary), dtype=np.complex128)
    traces = draw(arrays(np.float64, 2 * q.size, elements=_TRACE_PARTS))
    traces = traces.view(np.complex128).reshape(q.shape)
    obs = direction_mask(g, [1.0] + [0.0] * (n - 1), 0.3, sign=1) if draw(st.booleans()) \
        else None
    delta = draw(st.sampled_from([0.0, 1e-3, 0.5]))
    return g, basis, q, traces, obs, delta


class _GivenMap:
    """A map of every potential that answers every question with the same
    traces, level by level, as `DtnMap.answer` hands them over; it claims
    to keep its answers, so a question is keyed by its digest."""

    keeps_answers = True

    def __init__(self, traces):
        self._traces = traces

    def is_map_of(self, *args):
        return True

    def stacks(self, count):
        return False

    def answer(self, questions, consumers):
        for consume in consumers:
            for level in range(self._traces.shape[1]):
                consume(level, self._traces[:, level])


def _signed_zero_problem(delta, masked):
    """A 1-d problem whose traces mix +0.0, -0.0 and ordinary values."""
    g = build_grid(1, 7, 5, 1.0)
    basis = DtnBasis(g)
    q = basis.inputs()[0][[0, 1]]
    parts = np.resize([0.0, -0.0, 1.5, -0.0, -2.25, 0.0, -0.0], 2 * q.size)
    obs = direction_mask(g, [1.0], 0.3, sign=1) if masked else None
    return g, basis, q, parts.view(np.complex128).reshape(q.shape), obs, delta


@settings(max_examples=80, deadline=None)
@given(_same_reference_problems())
@example(_signed_zero_problem(0.0, False))
@example(_signed_zero_problem(1e-3, True))
def test_same_reference_difference_is_the_noisy_copy_minus_the_traces_bitwise(problem):
    # the noise is synthesized first and the traces are added to it; the
    # result is (M + S) w - M w with M added first, bit for bit.  Without a
    # mask nothing multiplies: a complex product by 1.0 can flip a zero's
    # sign, so it is no identity here
    g, basis, q, traces, obs, delta = problem
    oracle = DtnOracle(g, None, obs_mask=obs, noise_delta=delta, noise_seed=4,
                       noise_basis=basis, maps=[_GivenMap(traces)])
    measured = traces.copy()
    if delta:
        measured += basis.synthesize(basis.project(q) @ basis.noise(delta, 4).T)
    observed = traces
    if obs is not None:
        measured *= obs.values
        observed = traces * obs.values
    got = next(oracle.differences(None, [(q, None)]))
    assert got.tobytes() == (measured - observed).tobytes()
    # every other measurement takes the same path: (M + S) w, M added first
    assert oracle.apply_many(q).tobytes() == measured.tobytes()


def test_same_reference_noisy_difference_copies_no_traces():
    # beside the traces handed over, the difference holds the noise block
    # and one masked level
    g = build_grid(2, 9, 17, 1.0)
    basis = DtnBasis(g)
    q = basis.inputs()[0]
    basis.projection(q, basis.digest())
    traces = np.random.default_rng(2).normal(size=q.shape) + 0j
    oracle = DtnOracle(g, None, obs_mask=direction_mask(g, [1.0, 0.0], 0.3, sign=1),
                       noise_delta=1e-3, noise_seed=4, noise_basis=basis,
                       maps=[_GivenMap(traces)])
    tracemalloc.start()
    try:
        next(oracle.differences(None, [basis]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * traces.nbytes
