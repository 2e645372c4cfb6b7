"""Frequency bookkeeping, parameter rule, and the inversion pipeline."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgolab import ConfigError, Potential, build_grid
from cgolab.dtn import DtnBasis, DtnOracle
from cgolab.norms import (
    Hminus1Target,
    ModulusParams,
    box_lengths,
    padded_shape,
    periodic_sobolev_norm,
    zero_extend,
)
from cgolab.reconstruct import (
    ReconstructionConfig,
    ReconstructionResult,
    build_frequency_grid,
    choose_direction,
    exact_slice_values,
    fourier_slice,
    invert_written,
    measurement_oracle,
    partial_masks,
    probe_rho_cap,
    reconstruct,
    select_parameters,
    slice_error_report,
    stability_sweep,
)


def _sine_potential(grid, amp, time_fn=np.sin):
    xs = grid.space_coordinates()[0]
    vals = amp * np.sin(np.pi * xs)[None, :] * time_fn(np.pi * grid.ts / grid.T)[:, None]
    return Potential(grid, np.broadcast_to(vals, grid.field_shape).copy(), m=amp)


def _relative_tail_norm(grid, p_values):
    return periodic_sobolev_norm(zero_extend(grid, p_values), box_lengths(grid), -1)


# ---------------------------------------------------------------------------
# direction choice


def test_zero_frequency_keeps_the_base_direction():
    assert np.allclose(choose_direction(np.zeros(2)), [1.0, 0.0])
    assert np.allclose(choose_direction(np.zeros(1)), [1.0])


def test_one_dimensional_nonzero_frequency_has_no_direction():
    assert choose_direction(np.array([math.pi])) is None


def test_full_mode_rotates_an_axis_into_the_complement():
    d = choose_direction(np.array([math.pi, 0.0]))
    assert np.allclose(d, [0.0, 1.0])
    d = choose_direction(np.array([math.pi, math.pi]))
    assert np.allclose(d, [math.sqrt(0.5), -math.sqrt(0.5)])
    assert abs(d @ np.array([1.0, 1.0])) < 1e-14


def test_partial_mode_respects_the_cone():
    base = np.array([1.0, 0.0])
    d = choose_direction(np.array([0.0, math.pi]), "partial", base, 0.3)
    assert np.allclose(d, base)
    # frequency parallel to the base: projection collapses, no direction
    assert choose_direction(np.array([math.pi, 0.0]), "partial", base, 0.3) is None
    # diagonal frequency: projection has norm 1/sqrt(2), outside a 0.3 cone
    assert choose_direction(np.array([math.pi, math.pi]), "partial", base, 0.3) is None
    wide = choose_direction(np.array([math.pi, math.pi]), "partial", base, 1.2)
    assert wide is not None
    assert abs(np.linalg.norm(wide) - 1.0) < 1e-12


def test_direction_validation():
    with pytest.raises(ConfigError, match="unit"):
        choose_direction(np.array([0.0, math.pi]), "partial", [2.0, 0.0], 0.3)
    with pytest.raises(ConfigError, match="half-width"):
        choose_direction(np.array([0.0, math.pi]), "partial", [1.0, 0.0], 0.0)
    with pytest.raises(ConfigError, match="mode"):
        choose_direction(np.array([0.0, math.pi]), "nonsense")


# ---------------------------------------------------------------------------
# frequency lattice


def test_frequency_grid_counts_and_mirrors():
    g = build_grid(2, 9, 9, 1.0)
    freq = build_frequency_grid(g, 5.0)
    assert freq.padded_shape == (16, 16, 16)
    # |zeta| <= 5 on the lattice: the origin plus 18 signed unit nodes
    assert len(freq.nodes) == 19
    assert len(freq.canonical_nodes()) == 10
    by_index = {nd.index: nd for nd in freq.nodes}
    assert len(by_index) == len(freq.nodes)
    for nd in freq.nodes:
        if not nd.canonical:
            assert by_index[nd.mirror].canonical
    assert (3, 3, 3) not in by_index
    with pytest.raises(ConfigError):
        build_frequency_grid(g, -1.0)


def test_one_dimensional_partial_feasibility():
    # only tau-axis nodes admit a direction when the spatial dimension is one
    g = build_grid(1, 9, 9, 1.0)
    freq = build_frequency_grid(g, 7.0)
    for nd in freq.nodes:
        if np.linalg.norm(nd.xi) > 1e-12:
            assert not nd.feasible
        else:
            assert nd.feasible


def test_partial_mode_feasibility_pattern():
    g = build_grid(2, 13, 17, 1.0)
    freq = build_frequency_grid(g, 4.0, "partial", [1.0, 0.0], 0.3)
    by_key = {nd.index: nd for nd in freq.nodes}
    assert by_key[(0, 1, 0)].feasible is False     # xi along the base
    assert by_key[(0, 0, 1)].feasible is True      # xi orthogonal to the base
    assert by_key[(1, 0, 0)].feasible is True      # pure time frequency


def test_hermitian_fill_and_single_mode_inversion():
    # invert a single lattice coefficient and compare with the closed form
    g = build_grid(2, 9, 17, 1.0)
    freq = build_frequency_grid(g, 5.0)
    a = 0.7 - 0.2j
    for nd in freq.canonical_nodes():
        if abs(nd.tau - math.pi) < 1e-12 and abs(nd.xi[0] - math.pi) < 1e-12 \
                and abs(nd.xi[1]) < 1e-12:
            nd.value = a
    values, positions = freq.to_coefficients()
    est, residue = invert_written(g, values, positions)
    assert residue < 1e-12
    x, _ = g.space_coordinates()
    phase = np.exp(1j * (math.pi * g.ts[:, None, None] / g.T + math.pi * x[None]))
    expected = (2 * math.pi) ** 1.5 / (2 * g.T * 4) * 2 * np.real(a * phase)
    assert np.abs(est.values.real - expected).max() < 1e-12
    assert _scattered(g, values, positions)[freq.canonical_nodes()[0].index] == 0.0


def test_exact_slices_leave_only_the_parseval_tail():
    # filling feasible nodes with the exact lattice transform makes the
    # negative-order error equal to the tail sum outside those nodes
    g = build_grid(2, 9, 9, 0.5)
    rng = np.random.default_rng(12)
    p = rng.normal(size=g.field_shape)
    freq = build_frequency_grid(g, 9.0)
    exact_slice_values(g, p, freq)
    values, positions = freq.to_coefficients(hermitian=False)
    from cgolab.norms import lattice_frequencies, lattice_measure, torus_coefficients

    err = Hminus1Target(g, p).distance(values, positions)
    full = torus_coefficients(zero_extend(g, p), box_lengths(g))
    diff = full - _scattered(g, values, positions)
    freqs = lattice_frequencies(diff.shape, box_lengths(g))
    zsq = sum(np.broadcast_to(f, diff.shape) ** 2 for f in freqs)
    tail = math.sqrt(float(np.sum(np.abs(diff) ** 2 / (1.0 + zsq))) * lattice_measure(box_lengths(g)))
    assert err == pytest.approx(tail, rel=1e-12)
    # values that fit inside the padded lattice but not on the grid are refused
    for wrong in (p[:-1], p[:, :-1]):
        with pytest.raises(ValueError, match="do not match the grid"):
            exact_slice_values(g, wrong, freq)


# ---------------------------------------------------------------------------
# masks, caps, parameter rule


def test_partial_masks_drop_opposite_faces():
    g = build_grid(2, 13, 17, 1.0)
    support, obs = partial_masks(g, [1.0, 0.0], 0.3)
    minus_x = g.boundary_normals @ np.array([1.0, 0.0]) < -0.3
    plus_x = g.boundary_normals @ np.array([1.0, 0.0]) > 0.3
    assert support.count == g.n_boundary - int(minus_x.sum())
    assert obs.count == g.n_boundary - int(plus_x.sum())
    assert not np.any(support.values & minus_x)
    assert not np.any(obs.values & plus_x)
    assert np.all(support.values | minus_x)


def test_probe_rho_cap_combines_both_guards():
    g = build_grid(1, 65, 65, 1.0)
    assert probe_rho_cap(g) == pytest.approx(math.sqrt(5.0 * 64), rel=1e-12)
    # long horizon, fine time steps: the overflow guard takes over
    slow = build_grid(1, 9, 257, 40.0)
    cap = probe_rho_cap(slow)
    assert cap < math.sqrt(5.0 / slow.ht)
    assert cap ** 2 * slow.T + cap * 1.0 == pytest.approx(650.0, rel=1e-10)


def test_parameter_rule_trivial_and_balanced_branches():
    sel = select_parameters(math.exp(-1), 0.2, 1.0)
    assert sel.trivial and sel.rho == 0.0 and sel.R == 0.0
    sel = select_parameters(math.exp(-8), 0.2, 1.0)
    assert not sel.trivial
    assert sel.rho == pytest.approx(2.0, rel=1e-14)
    assert sel.R == pytest.approx(2.0 ** 0.2, rel=1e-14)
    capped = select_parameters(math.exp(-50), 0.2, 1.0, rho_cap=3.0)
    assert capped.saturated and capped.rho == 3.0
    with pytest.raises(ConfigError):
        select_parameters(-0.1, 0.2, 1.0)
    with pytest.raises(ConfigError):
        select_parameters(0.01, 1.5, 1.0)
    with pytest.raises(ConfigError):
        select_parameters(0.01, 0.2, 0.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        ReconstructionConfig(mode="both")
    with pytest.raises(ConfigError):
        ReconstructionConfig(s=0.0)
    with pytest.raises(ConfigError):
        ReconstructionConfig(rho=1.5)
    with pytest.raises(ConfigError):
        ReconstructionConfig(R=-1.0)
    cfg = ReconstructionConfig(base_direction=(1.0, 0.0))
    with pytest.raises(ConfigError):
        cfg.direction(1)


# ---------------------------------------------------------------------------
# slices and the pipeline


def test_slice_vanishes_when_truth_equals_reference():
    g = build_grid(1, 17, 17, 1.0)
    q = _sine_potential(g, 0.4, np.cos)
    oracle = DtnOracle(g, q)
    val = fourier_slice(oracle, q, np.zeros(1), 0.0, np.array([1.0]), 4.0)
    assert abs(val) < 1e-12


def test_slice_error_shrinks_with_rho():
    g = build_grid(1, 33, 129, 0.5)
    q = _sine_potential(g, 0.3)
    rep = slice_error_report(g, q, None, [0.0], 0.0, [4.0, 8.0, 16.0])
    assert rep["target"] == pytest.approx(0.009667, abs=2e-5)
    gaps = rep["gap"]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.15 * abs(rep["target"])
    with pytest.raises(ConfigError, match="lattice"):
        slice_error_report(g, q, None, [1.0], 0.0, [4.0])


def test_reconstruct_zero_difference_gives_zero_estimate():
    g = build_grid(1, 33, 33, 1.0)
    q = _sine_potential(g, 0.4, np.cos)
    cfg = ReconstructionConfig(rho=4.0, R=4.0, measure_delta=False, basis_k_max=2)
    res = reconstruct(DtnOracle(g, q), q, cfg, truth=q)
    assert np.abs(res.estimate.values).max() == 0.0
    assert res.error == 0.0
    assert res.rho == 4.0 and res.R == 4.0


def test_reconstruct_trivial_branch_on_large_data_distance():
    g = build_grid(1, 33, 33, 1.0)
    q = _sine_potential(g, 0.4, np.cos)
    oracle = DtnOracle(g, q, noise_delta=0.2, noise_seed=3,
                       noise_basis=DtnBasis(g, k_max=2))
    cfg = ReconstructionConfig(rho="auto", basis_k_max=2)
    res = reconstruct(oracle, None, cfg, truth=q)
    assert res.trivial
    assert res.delta > math.exp(-2)
    assert np.abs(res.estimate.values).max() == 0.0
    # the zero estimate's error is exactly the negative-order norm of the truth
    assert res.error == pytest.approx(_relative_tail_norm(g, q.values), rel=1e-12)


def test_reconstruct_rejects_rho_beyond_the_grid_cap():
    g = build_grid(1, 17, 17, 1.0)
    cfg = ReconstructionConfig(rho=50.0, R=4.0, measure_delta=False)
    with pytest.raises(ConfigError, match="cap"):
        reconstruct(DtnOracle(g, None), None, cfg)


def test_reconstruct_auto_needs_measured_distance():
    g = build_grid(1, 17, 17, 1.0)
    cfg = ReconstructionConfig(rho="auto", measure_delta=False)
    with pytest.raises(ConfigError, match="data distance"):
        reconstruct(DtnOracle(g, None), None, cfg)


def test_full_data_reconstruction_error_level():
    # separable truth on a 65x65 grid, explicit probe parameters; relative
    # negative-order error sits near 0.41, dominated by the frequencies the
    # one-dimensional sweep cannot visit
    g = build_grid(1, 65, 65, 1.0)
    q = _sine_potential(g, 0.3)
    cfg = ReconstructionConfig(rho=8.0, R=10.0, measure_delta=False)
    res = reconstruct(DtnOracle(g, q), None, cfg, truth=q)
    rel = res.error / _relative_tail_norm(g, q.values)
    assert rel == pytest.approx(0.413, abs=0.02)
    assert rel < 0.45
    assert res.imag_residue < 1e-10


def test_partial_mode_pipeline_runs_and_reports():
    g = build_grid(2, 13, 17, 1.0)
    x, _ = g.space_coordinates()
    q = Potential(g, 0.2 * np.sin(2 * np.pi * x)[None] * np.ones(g.field_shape), m=0.2)
    support, obs = partial_masks(g, [1.0, 0.0], 0.3)
    oracle = DtnOracle(g, q, support_mask=support, obs_mask=obs)
    cfg = ReconstructionConfig(mode="partial", rho=4.0, R=4.0, measure_delta=False,
                               basis_j_max=1, basis_k_max=1, base_direction=(1.0, 0.0))
    res = reconstruct(oracle, None, cfg, truth=q)
    # truth carries no mass at the feasible nodes, so every slice is tiny and
    # the error equals the truth's own norm
    feasible = [nd for nd in res.frequencies.canonical_nodes() if nd.feasible]
    assert len(feasible) == 3
    assert max(abs(nd.value) for nd in feasible) < 1e-3
    assert res.error / _relative_tail_norm(g, q.values) < 1.05


@pytest.mark.parametrize("n,nx,nt,mode,R", [
    (1, 33, 33, "full", 8.0), (2, 9, 17, "full", 6.0), (2, 9, 17, "partial", 6.0),
])
def test_non_hermitian_inverse_probes_every_node(n, nx, nt, mode, R):
    # without the conjugate fill every node of the ball is probed; a real
    # truth's mirror slices are the conjugates, so the estimate is unchanged
    g = build_grid(n, nx, nt, 1.0)
    xs = g.space_coordinates()[0]
    t = np.sin(np.pi * g.ts / g.T).reshape((-1,) + (1,) * n)
    q = Potential(g, np.broadcast_to(0.3 * np.sin(np.pi * xs)[None] * t,
                                     g.field_shape).copy())
    results = []
    for hermitian in (True, False):
        cfg = ReconstructionConfig(mode=mode, rho=6.0 if n == 1 else 4.0, R=R,
                                   measure_delta=False, basis_k_max=2,
                                   use_hermitian=hermitian)
        results.append(reconstruct(measurement_oracle(g, q, cfg), None, cfg))
    herm, full = results
    # every node of the ball holds a slice; the hermitian run probes and
    # writes only the canonical nodes
    assert all(nd.value is not None for nd in full.frequencies.nodes)
    assert len(herm.frequencies.probed(True)) < len(full.frequencies.nodes)
    assert all((nd.value is not None) == nd.canonical for nd in herm.frequencies.nodes)
    assert np.array_equal(full.estimate.values, herm.estimate.values)
    assert full.imag_residue < 1e-12


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _scattered(grid, values, positions):
    """The padded lattice holding `values` at `positions`, zeros elsewhere."""
    out = np.zeros(padded_shape(grid), dtype=np.complex128)
    out[positions] = values
    return out


def _plain_crop(grid, lattice):
    """The cylinder corner of one np.fft.ifftn of a padded lattice, scaled
    as torus_coefficients' inverse."""
    cell = np.prod([L / n for n, L in zip(lattice.shape, box_lengths(grid))])
    crop = np.fft.ifftn(lattice)[tuple(slice(0, s) for s in grid.field_shape)]
    return crop * (2 * math.pi) ** (lattice.ndim / 2) / cell


@pytest.mark.parametrize("n,nx,mode,hermitian,noise", [
    (1, 33, "full", True, 0.0), (2, 9, "full", False, 0.0),
    (2, 9, "partial", True, 0.0), (2, 9, "partial", False, 0.0),
    (1, 33, "full", True, 0.5),
])
def test_deferred_estimate_is_the_eager_inverse_bitwise(n, nx, mode, hermitian, noise):
    # a result inverts its coefficients when the estimate is first read;
    # that is the cropped inverse of the lattice its values are written into,
    # and the inverse of the frequency grid's values at that moment
    g = build_grid(n, nx, 17, 1.0)
    q = _sine_potential(g, 0.02) if n == 1 else Potential(
        g, 0.02 * np.sin(np.pi * g.space_coordinates()[0])[None] * np.ones(g.field_shape))
    cfg = ReconstructionConfig(mode=mode, rho="auto", basis_k_max=2, use_hermitian=hermitian)
    oracle = measurement_oracle(g, q, cfg, noise, 3, DtnBasis(g) if noise else None)
    res = reconstruct(oracle, None, cfg, truth=q)
    assert res.trivial == (noise > 0)
    crop = _plain_crop(g, _scattered(g, res.values, res.positions))
    assert _bits(res.estimate.values) == _bits(crop.real.astype(np.complex128))
    assert res.imag_residue == float(np.abs(crop.imag).max())
    if not res.trivial:
        values, positions = res.frequencies.to_coefficients(hermitian)
        assert _bits(values) == _bits(res.values)
        assert all(_bits(i) == _bits(j) for i, j in zip(positions, res.positions))
        estimate, residue = invert_written(g, values, positions)
        assert _bits(estimate.values) == _bits(res.estimate.values)
        assert residue == res.imag_residue
    assert res.estimate is res.estimate


def _node_lattice(freq, hermitian):
    """The coefficient array written node by node into the padded lattice:
    each canonical value and, for real fields, its conjugate at the mirror,
    or without the mirrors every other node's value."""
    out = np.zeros(freq.padded_shape, dtype=np.complex128)
    for nd in freq.canonical_nodes():
        if nd.value is None:
            continue
        out[nd.index] = nd.value
        if hermitian and nd.mirror != nd.index:
            out[nd.mirror] = np.conj(nd.value)
    if not hermitian:
        for nd in freq.nodes:
            if not nd.canonical and nd.value is not None:
                out[nd.index] = nd.value
    return out


# zeros of every sign: a complex zero leaves -0.0 at its mirror's imaginary
# part, the float zero of an infeasible node leaves +0.0
_NODE_VALUES = st.one_of(
    st.none(),
    st.sampled_from([0.0, 0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def _valued_frequency_grids(draw):
    n = draw(st.sampled_from([1, 2]))
    g = build_grid(n, draw(st.integers(3, 9 if n == 2 else 17)), draw(st.integers(3, 12)),
                   draw(st.floats(0.5, 2.0)))
    freq = build_frequency_grid(g, draw(st.floats(0.0, 12.0)))
    for nd in freq.nodes:
        nd.value = draw(_NODE_VALUES)
    return freq, draw(st.booleans())


@settings(max_examples=120, deadline=None)
@given(_valued_frequency_grids())
def test_written_values_scatter_to_the_node_lattice_bitwise(problem):
    # the values and positions the frequency grid hands out, scattered, are
    # the lattice written node by node, signed zeros included
    freq, hermitian = problem
    values, positions = freq.to_coefficients(hermitian)
    assert all(i.shape == values.shape == (values.size,) for i in positions)
    assert _bits(_scattered(freq.grid, values, positions)) == _bits(
        _node_lattice(freq, hermitian))


@pytest.mark.parametrize("hermitian", [True, False])
def test_zero_slices_leave_signed_zeros_at_their_mirrors(hermitian):
    g = build_grid(2, 9, 17, 1.0)
    freq = build_frequency_grid(g, 6.0)
    for nd in freq.nodes:
        nd.value = 0j if nd.feasible else 0.0
    coeffs = _scattered(g, *freq.to_coefficients(hermitian))
    assert _bits(coeffs) == _bits(_node_lattice(freq, hermitian))
    assert np.any(np.signbit(coeffs.imag)) == hermitian


@pytest.mark.parametrize("mode,hermitian,level", [
    ("full", True, 0.0), ("partial", True, 0.0), ("partial", False, 0.0), ("full", True, 0.5),
])
def test_result_coefficients_are_the_node_lattice_bitwise(mode, hermitian, level):
    g = build_grid(2, 9, 17, 1.0)
    q = Potential(g, 0.02 * np.sin(np.pi * g.space_coordinates()[0])[None]
                  * np.ones(g.field_shape))
    cfg = ReconstructionConfig(mode=mode, rho="auto", basis_k_max=2, use_hermitian=hermitian)
    oracle = measurement_oracle(g, q, cfg, level, 3, DtnBasis(g) if level else None)
    res = reconstruct(oracle, None, cfg, truth=q)
    assert res.trivial == (level > 0)
    assert res.values.shape == res.positions[0].shape == (len(res.positions[0]),)
    assert _bits(_scattered(g, res.values, res.positions)) == _bits(
        _node_lattice(res.frequencies, hermitian))


# ---------------------------------------------------------------------------
# sweeps


def test_noise_sweep_errors_scale_with_the_level():
    g = build_grid(1, 17, 17, 1.0)
    cfg = ReconstructionConfig(rho="auto", basis_k_max=2, s=0.2)
    mod = ModulusParams("single_log", 0.2, 1)
    out = stability_sweep(g, None, cfg, mod, noise_levels=[1e-2, 1e-3, 1e-4],
                          noise_seed=7)
    rec = out["records"]
    assert len(rec) == 3 and out["fit_used"] == 3
    # one seed drives every level, so distances and errors are proportional
    assert rec[0].delta / rec[1].delta == pytest.approx(10.0, rel=1e-10)
    assert rec[0].err / rec[1].err == pytest.approx(10.0, rel=1e-9)
    assert rec[0].delta == pytest.approx(0.0061912, abs=2e-6)
    # the selection rule lands below the floor here and gets clamped
    assert all(r.params["rho"] == pytest.approx(2.05) for r in rec)
    assert np.isfinite(out["fit_constant"])


def test_pair_sweep_excludes_trivial_records_from_the_fit():
    g = build_grid(1, 17, 17, 1.0)
    cfg = ReconstructionConfig(rho="auto", basis_k_max=2, s=0.2)
    mod = ModulusParams("single_log", 0.2, 1)
    truths = [_sine_potential(g, 0.2), _sine_potential(g, 0.05)]
    out = stability_sweep(g, None, cfg, mod, pair_truths=truths)
    rec = out["records"]
    assert rec[0].params["trivial"] is True
    assert rec[1].params["trivial"] is False
    assert out["fit_used"] == 1
    assert np.isfinite(out["fit_constant"])


def test_sweep_axis_validation():
    g = build_grid(1, 17, 17, 1.0)
    cfg = ReconstructionConfig(rho="auto", basis_k_max=2)
    mod = ModulusParams("single_log", 0.2, 1)
    with pytest.raises(ConfigError, match="exactly one"):
        stability_sweep(g, None, cfg, mod)
    with pytest.raises(ConfigError, match="exactly one"):
        stability_sweep(g, None, cfg, mod, pair_truths=[None], noise_levels=[0.1])
    with pytest.raises(ConfigError, match="degenerate"):
        stability_sweep(g, None, cfg, mod, pair_truths=[_sine_potential(g, 0.2)])
    with pytest.raises(ConfigError, match="degenerate"):
        stability_sweep(g, None, cfg, mod, noise_levels=[1e-3, 1e-3])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 5, 5), (1, 9, 17), (2, 5, 5), (2, 7, 9)]),
       st.integers(0, 2**32 - 1), st.integers(0, 12))
def test_written_inverse_is_the_scattered_lattices_bitwise(shape, seed, count):
    # the estimate and its residue, inverted from written values alone, are
    # those of the scattered lattice; some values are zeros of either sign,
    # some positions repeat (the last value stands) and the set may be empty
    grid = build_grid(*shape, T=1.0)
    rng = np.random.default_rng(seed)
    flat = rng.integers(math.prod(padded_shape(grid)), size=count)
    flat = np.concatenate([flat, flat[: count // 3]])
    values = rng.standard_normal(flat.size) + 1j * rng.standard_normal(flat.size)
    values[rng.uniform(size=flat.size) < 0.2] = 0.0
    values[rng.uniform(size=flat.size) < 0.2] = complex(-0.0, -0.0)
    positions = np.unravel_index(flat, padded_shape(grid))
    estimate, residue = invert_written(grid, values, positions)
    crop = _plain_crop(grid, _scattered(grid, values, positions))
    assert _bits(estimate.values) == _bits(crop.real.astype(np.complex128))
    assert residue == float(np.abs(crop.imag).max())


def test_estimate_at_the_nonlinearity_workloads_shape_forms_no_lattice():
    # the estimate is inverted from its written values: the padded lattice
    # (4 MiB at this shape) is never formed; what is held at the peak is the
    # one slab along the time axis (2 MiB) and the field cropped from it
    grid = build_grid(1, 65, 1025, 2.0)
    cfg = ReconstructionConfig(rho=16.0, R=2.0)
    freq = build_frequency_grid(grid, cfg.R, cfg.mode, cfg.direction(1), cfg.half_width)
    exact_slice_values(grid, np.ones(grid.field_shape), freq)
    values, positions = freq.to_coefficients(True)

    def result():
        return ReconstructionResult(values, positions, freq, True, None, cfg.rho, cfg.R,
                                    False, False, None)

    want = result().estimate
    res = result()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = res.estimate
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert _bits(got.values) == _bits(want.values)
    assert peak < 3.5 * 2**20
