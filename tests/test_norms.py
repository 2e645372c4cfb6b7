"""Padded-torus transforms, Sobolev norms, moduli of continuity."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgolab import ScalarField, build_grid, hminus1_norm, sobolev_norm
from cgolab.errors import ConfigError
from cgolab.norms import (
    Hminus1Target,
    ModulusParams,
    boundary_sobolev_weights,
    box_lengths,
    fit_modulus_constant,
    lattice_frequencies,
    lattice_measure,
    modulus_eval,
    periodic_sobolev_norm,
    torus_coefficients,
    written_to_field,
    zero_extend,
)


def _direct_dft_oracle(values, lengths):
    """O(N^2) left-endpoint quadrature of the transform, no FFT."""
    d = values.ndim
    cell = np.prod([L / n for n, L in zip(values.shape, lengths)])
    freqs = [2 * math.pi * np.fft.fftfreq(n, d=L / n) for n, L in zip(values.shape, lengths)]
    out = np.zeros(values.shape, dtype=complex)
    coords = [np.arange(n) * (L / n) for n, L in zip(values.shape, lengths)]
    it = np.ndindex(values.shape)
    for idx in it:
        zeta = [freqs[a][idx[a]] for a in range(d)]
        phase = np.zeros(values.shape)
        for a in range(d):
            sh = [1] * d
            sh[a] = -1
            phase = phase + zeta[a] * coords[a].reshape(sh)
        out[idx] = (values * np.exp(-1j * phase)).sum() * cell
    return (2 * math.pi) ** (-d / 2) * out


def _everywhere(coeffs):
    """(values, positions): every entry of the array, written at its index."""
    return coeffs.ravel(), np.unravel_index(np.arange(coeffs.size), coeffs.shape)


def _inverse(coeffs, lengths, corner=None):
    """written_to_field of the whole array."""
    return written_to_field(*_everywhere(coeffs), coeffs.shape, lengths, corner)


def test_torus_coefficients_match_direct_sum():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))
    lengths = (2.0, 3.0)
    got = torus_coefficients(values, lengths)
    want = _direct_dft_oracle(values, lengths)
    assert np.abs(got - want).max() < 1e-11


def test_transform_round_trip():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(8, 10)) + 1j * rng.normal(size=(8, 10))
    lengths = (1.5, 2.0)
    back = _inverse(torus_coefficients(values, lengths), lengths)
    assert np.abs(back - values).max() < 1e-12


def test_parseval_exact_on_lattice():
    rng = np.random.default_rng(6)
    values = rng.normal(size=(12, 8))
    lengths = (2.0, 2.0)
    coeffs = torus_coefficients(values, lengths)
    cell = np.prod([L / n for n, L in zip(values.shape, lengths)])
    lhs = (np.abs(coeffs) ** 2).sum() * lattice_measure(lengths)
    rhs = (np.abs(values) ** 2).sum() * cell
    assert lhs == pytest.approx(rhs, rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=2, max_size=3),
       st.lists(st.floats(0.2, 5.0), min_size=3, max_size=3),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_parseval_and_inversion_on_random_padded_lattices(halves, lengths, real, seed):
    # padded shapes are even along every axis: 2(nt-1) in time, 2(nx-1) in space
    shape = tuple(2 * h for h in halves)
    lengths = tuple(lengths[:len(shape)])
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape)
    if not real:
        values = values + 1j * rng.normal(size=shape)
    coeffs = torus_coefficients(values, lengths)
    cell = np.prod([L / n for n, L in zip(shape, lengths)])
    lhs = (np.abs(coeffs) ** 2).sum() * lattice_measure(lengths)
    rhs = (np.abs(values) ** 2).sum() * cell
    assert lhs == pytest.approx(rhs, rel=1e-12)
    back = _inverse(coeffs, lengths)
    assert np.abs(back - values).max() <= 1e-12 * np.abs(values).max()


def test_single_mode_sobolev_norm_closed_form():
    # pure lattice mode A e^{i zeta.z}: ||.||_s = |A| sqrt(vol) (1+|zeta|^2)^{s/2}
    lengths = (2.0, 4.0)
    shape = (16, 16)
    freqs = lattice_frequencies(shape, lengths)
    zt = freqs[0][3, 0]
    zx = freqs[1][0, 2]
    tt = np.arange(shape[0]) * (lengths[0] / shape[0])
    xx = np.arange(shape[1]) * (lengths[1] / shape[1])
    mode = 1.7 * np.exp(1j * (zt * tt[:, None] + zx * xx[None, :]))
    vol = lengths[0] * lengths[1]
    for order in (-1.0, 0.0, 2.0):
        want = 1.7 * math.sqrt(vol) * (1 + zt**2 + zx**2) ** (order / 2)
        assert periodic_sobolev_norm(mode, lengths, order) == pytest.approx(want, rel=1e-12)


def test_zero_extension_padding():
    g = build_grid(1, 5, 4, T=1.0)
    vals = np.ones(g.field_shape)
    ext = zero_extend(g, vals)
    assert ext.shape == (6, 8)
    assert ext[: g.nt, : g.nx].real.sum() == pytest.approx(g.nt * g.nx)
    assert np.abs(ext).sum() == pytest.approx(g.nt * g.nx)
    assert box_lengths(g) == (2.0, 2.0)


def test_sobolev_norm_orders_nested():
    g = build_grid(1, 33, 33, T=1.0)
    f = ScalarField.from_callable(g, lambda x, t: np.sin(np.pi * x) * np.sin(np.pi * t))
    n_minus = hminus1_norm(f)
    n_zero = sobolev_norm(f, 0.0)
    n_plus = sobolev_norm(f, 1.0)
    assert n_minus < n_zero < n_plus
    assert n_minus == pytest.approx(sobolev_norm(f, -1.0), rel=1e-13)


def test_hminus1_distance_is_parseval_tail():
    # drop one coefficient shell: the distance must equal its weighted mass
    g = build_grid(1, 9, 9, T=1.0)
    rng = np.random.default_rng(7)
    vals = rng.normal(size=g.field_shape)
    lengths = box_lengths(g)
    coeffs = torus_coefficients(zero_extend(g, vals), lengths)
    target = Hminus1Target(g, vals)
    assert target.distance(*_everywhere(coeffs)) < 1e-13

    cut = coeffs.copy()
    freqs = lattice_frequencies(cut.shape, lengths)
    zsq = freqs[0] ** 2 + freqs[1] ** 2
    drop = zsq > 40.0
    cut[drop] = 0.0
    tail = math.sqrt(
        float(((1 + zsq) ** (-1.0) * np.abs(coeffs) ** 2)[drop].sum())
        * lattice_measure(lengths)
    )
    kept = np.nonzero(cut)
    assert target.distance(cut[kept], kept) == pytest.approx(tail, rel=1e-12)


def test_hminus1_distance_shape_guard():
    # the distance is taken from cylinder values, which must fit the grid
    g = build_grid(1, 9, 9, T=1.0)
    with pytest.raises(ValueError, match="do not match the grid"):
        Hminus1Target(g, np.zeros((4, 4)))


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _cell(shape, lengths):
    return np.prod([L / n for n, L in zip(shape, lengths)])


def _plain_forward(values, lengths):
    """torus_coefficients as one np.fft.fftn of the whole lattice."""
    values = np.asarray(values, dtype=np.complex128)
    return (2 * math.pi) ** (-values.ndim / 2) * _cell(values.shape, lengths) * np.fft.fftn(
        values)


def _plain_inverse(coeffs, lengths, corner):
    """written_to_field as the corner of one np.fft.ifftn of the lattice."""
    crop = np.fft.ifftn(coeffs)[tuple(slice(0, c) for c in corner)]
    return crop * (2 * math.pi) ** (coeffs.ndim / 2) / _cell(coeffs.shape, lengths)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 10), min_size=2, max_size=3),
       st.lists(st.floats(0.2, 5.0), min_size=3, max_size=3),
       st.booleans(), st.integers(0, 2**32 - 1), st.data())
def test_cropped_inversion_is_the_crop_of_the_full_inverse(halves, lengths, sparse, seed,
                                                           data):
    # the cylinder is the leading corner of the padded box; each axis is
    # cropped as soon as its 1-D transforms are done, which must not change
    # a single bit of the corner
    shape = tuple(2 * h for h in halves)
    lengths = tuple(lengths[:len(shape)])
    corner = tuple(data.draw(st.integers(1, n)) for n in shape)
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if sparse:
        coeffs[rng.uniform(size=shape) > 0.1] = 0.0
    # written at the nonzero entries alone, as a reconstruction writes them
    positions = np.nonzero(coeffs)
    got = written_to_field(coeffs[positions], positions, shape, lengths, corner)
    assert got.shape == corner
    assert _bits(got) == _bits(_plain_inverse(coeffs, lengths, corner))


@st.composite
def _lattice_arrays(draw):
    """(array, lengths, corner) on an even lattice of one to three axes.
    Often one axis, a non-final one in more than one dimension, has length
    202, 214 or 254, where pocketfft turns an all-zero line into one with
    -0.0 entries.  The entries are all zero, a few values, -0.0 alone, or a few
    values among -0.0s."""
    d = draw(st.integers(1, 3))
    shape = [2 * draw(st.integers(1, 6)) for _ in range(d)]
    if d > 1 and draw(st.booleans()):
        shape[draw(st.integers(0, d - 2))] = draw(st.sampled_from([202, 214, 254]))
    else:
        shape[0] = draw(st.sampled_from([shape[0], 202, 214, 254]))
    shape = tuple(shape)
    lengths = tuple(draw(st.floats(0.2, 5.0)) for _ in shape)
    corner = tuple(draw(st.integers(1, n)) for n in shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.zeros(shape, dtype=np.complex128)
    kind = draw(st.sampled_from(["zero", "few", "signed_zeros", "few_among_signed_zeros"]))
    if kind in ("signed_zeros", "few_among_signed_zeros"):
        share = draw(st.sampled_from([0.01, 0.3, 1.0]))
        values.real[rng.uniform(size=shape) < share] = -0.0
        values.imag[rng.uniform(size=shape) < share] = -0.0
    if kind in ("few", "few_among_signed_zeros"):
        for _ in range(draw(st.integers(1, 4))):
            spot = tuple(int(rng.integers(n)) for n in shape)
            values[spot] = complex(rng.normal(), rng.normal())
    return values, lengths, corner


@settings(max_examples=150, deadline=None)
@given(_lattice_arrays())
# -0.0 entries alone: their lines transform to a -0.0 at frequency 0, which a
# blank line does not have
@example((np.full(4, complex(-0.0, -0.0)), (1.0,), (3,)))
@example((np.full((4, 6), complex(-0.0, -0.0)), (1.0, 2.0), (3, 4)))
# zeros alone: pocketfft's -0.0 entries must come out of the blank slab
@example((np.zeros((202, 4), dtype=np.complex128), (1.0, 2.0), (101, 3)))
def test_line_restricted_transforms_are_the_plain_transforms_bitwise(problem):
    # only the lines holding a nonzero bit pattern are transformed, and one
    # transformed blank line stands in for the rest; a -0.0 entry is not blank
    # the memory layout must match too: a sum over the array follows it
    values, lengths, corner = problem
    got, want = torus_coefficients(values, lengths), _plain_forward(values, lengths)
    assert _bits(got) == _bits(want) and got.strides == want.strides
    # the inverse writes every entry, so a line of -0.0 entries must count
    # as occupied; a real array inverts to complex values, as np.fft.ifftn's do
    for coeffs in (values, values.real):
        got, want = (_inverse(coeffs, lengths, corner),
                     _plain_inverse(coeffs, lengths, corner))
        assert _bits(got) == _bits(want) and got.strides == want.strides


@st.composite
def _node_problems(draw):
    """(array, lengths, nodes): a `_lattice_arrays` array and an index tuple
    of one to six nodes on it, repeats allowed."""
    values, lengths, _ = draw(_lattice_arrays())
    count = draw(st.integers(1, 6))
    at = tuple(np.array(draw(st.lists(st.integers(0, n - 1), min_size=count,
                                      max_size=count)))
               for n in values.shape)
    return values, lengths, at


@settings(max_examples=150, deadline=None)
@given(_node_problems())
# a blank line of length 254 has -0.0 entries at indices 12 to 19
@example((np.zeros((254, 4), dtype=np.complex128), (1.0, 2.0),
          (np.array([12, 0, 19, 12]), np.array([3, 0, 1, 3]))))
def test_node_restricted_coefficients_are_the_full_transform_bitwise(problem):
    # only the lines that lead to a wanted node are transformed; repeated
    # nodes, blank lines and -0.0 entries must not change a bit
    values, lengths, at = problem
    got = torus_coefficients(values, lengths, at)
    assert _bits(got) == _bits(_plain_forward(values, lengths)[at])


_SIGNED_ZEROS = {"+0": complex(0.0, 0.0), "-0": complex(-0.0, -0.0), "mixed": complex(0.0, -0.0)}


@st.composite
def _written_problems(draw):
    """(values, positions, shape, lengths, corner) on a `_lattice_arrays`
    lattice: up to a dozen values at random positions, repeats allowed, each
    random, +0.0, -0.0 or a zero of mixed signs, in random order; now and
    then one whole line along the last axis is written with -0.0 as well."""
    array, lengths, corner = draw(_lattice_arrays())
    shape = array.shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["value", *_SIGNED_ZEROS]), max_size=12))
    values = [_SIGNED_ZEROS[k] if k in _SIGNED_ZEROS else complex(rng.normal(), rng.normal())
              for k in kinds]
    flat = list(rng.integers(array.size, size=len(kinds)))
    if draw(st.booleans()):
        start = int(rng.integers(array.size // shape[-1])) * shape[-1]
        flat += range(start, start + shape[-1])
        values += [complex(-0.0, -0.0)] * shape[-1]
    order = rng.permutation(len(flat))
    positions = np.unravel_index(np.array(flat, dtype=np.intp)[order], shape)
    return np.array(values, dtype=np.complex128)[order], positions, shape, lengths, corner


@settings(max_examples=150, deadline=None)
@given(_written_problems())
# a whole line of -0.0 entries is occupied, not blank
@example((np.full(4, complex(-0.0, -0.0)), (np.arange(4),), (4,), (1.0,), (3,)))
@example((np.full(6, complex(-0.0, -0.0)), (np.full(6, 1), np.arange(6)), (4, 6),
          (1.0, 2.0), (3, 4)))
# a repeated position takes its last value
@example((np.array([1 + 1j, 2 - 1j]), (np.array([1, 1]), np.array([2, 2])), (4, 6),
          (1.0, 2.0), (3, 4)))
# nothing written: the blank lattice
@example((np.zeros(0, dtype=np.complex128), (np.zeros(0, dtype=np.intp),) * 2, (4, 6),
          (1.0, 2.0), (3, 4)))
def test_written_values_invert_as_their_scattered_lattice_bitwise(problem):
    # the inverse from written values gathers only the lines they reach and
    # forms no lattice; it is the written lattice's plain inverse, layout
    # included
    values, positions, shape, lengths, corner = problem
    lattice = np.zeros(shape, dtype=np.complex128)
    lattice[positions] = values
    got = written_to_field(values, positions, shape, lengths, corner)
    want = _plain_inverse(lattice, lengths, corner)
    assert _bits(got) == _bits(want) and got.strides == want.strides


def _plain_hminus1_distance(grid, values, coeffs):
    """The order -1 distance as one sum over the whole lattice."""
    lengths = box_lengths(grid)
    ref = _plain_forward(zero_extend(grid, values), lengths)
    freqs = lattice_frequencies(ref.shape, lengths)
    w = (1.0 + sum(f**2 for f in freqs)) ** -1.0
    return math.sqrt(float(np.sum(w * np.abs(ref - coeffs) ** 2)) * lattice_measure(lengths))


@st.composite
def _lattice_problems(draw):
    n = draw(st.sampled_from([1, 2]))
    grid = build_grid(n, draw(st.integers(3, 9 if n == 2 else 17)),
                      draw(st.integers(3, 12)), draw(st.floats(0.3, 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.zeros(grid.field_shape)
    if draw(st.booleans()):
        values = rng.normal(size=grid.field_shape)
    padded = (2 * (grid.nt - 1),) + (2 * (grid.nx - 1),) * n
    arrays = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = np.zeros(padded, dtype=np.complex128)
        kind = draw(st.sampled_from(["zero", "sparse", "dense", "signed_zeros"]))
        if kind != "zero":
            keep = rng.uniform(size=padded) < (1.0 if kind == "dense" else 0.1)
            coeffs[keep] = (rng.normal(size=padded) + 1j * rng.normal(size=padded))[keep]
        if kind == "signed_zeros":
            # -0.0 entries count as zero coefficients; so do mixed-sign zeros
            spots = rng.uniform(size=padded) < 0.2
            coeffs[spots] = complex(-0.0, -0.0)
            coeffs.real[rng.uniform(size=padded) < 0.05] = -0.0
        arrays.append(coeffs)
    return grid, values, arrays


@settings(max_examples=80, deadline=None)
@given(_lattice_problems())
def test_error_target_is_the_whole_lattice_sum_bitwise(problem):
    # the target keeps each entry's term against a zero coefficient and
    # patches in the occupied entries only; it serves several arrays in turn
    # and must come out of each distance unchanged
    grid, values, arrays = problem
    target = Hminus1Target(grid, values)
    for coeffs in arrays + arrays[:1]:
        want = _plain_hminus1_distance(grid, values, coeffs)
        positions = np.nonzero(coeffs)
        assert target.distance(coeffs[positions], positions) == want


@settings(max_examples=80, deadline=None)
@given(_lattice_problems(), st.integers(0, 2**32 - 1))
def test_error_target_at_written_positions_is_the_scanning_form_bitwise(problem, seed):
    # the positions a coefficient array was written at hold its nonzero
    # entries and may hold zeros of either sign, in any order and repeated;
    # patching a zero entry rewrites its kept term bitwise
    grid, values, arrays = problem
    target = Hminus1Target(grid, values)
    rng = np.random.default_rng(seed)
    for coeffs in arrays + arrays[:1]:
        bits = coeffs.view(np.uint64).reshape(coeffs.shape + (2,))
        signed_zero = (coeffs == 0) & bits.any(axis=-1)
        extra = signed_zero | (rng.uniform(size=coeffs.shape) < 0.05)
        flat = np.concatenate([np.flatnonzero(coeffs), np.flatnonzero(extra)])
        flat = rng.permutation(np.concatenate([flat, flat[:3]]))
        positions = np.unravel_index(flat, coeffs.shape)
        want = _plain_hminus1_distance(grid, values, coeffs)
        assert target.distance(coeffs[positions], positions) == want


def test_error_target_values_must_match_their_positions():
    grid = build_grid(1, 5, 5, T=1.0)
    target = Hminus1Target(grid, np.ones(grid.field_shape))
    positions = (np.array([0, 1]), np.array([2, 3]))
    with pytest.raises(ValueError):
        target.distance(np.ones(3, dtype=complex), positions)
    with pytest.raises(ValueError):
        target.distance(np.ones(2, dtype=complex), positions[:1])
    assert target.distance(np.zeros(2, dtype=complex), positions) == hminus1_norm(
        ScalarField(grid, np.ones(grid.field_shape)))


def test_boundary_weight_duality():
    xi_sq = np.array([0.0, 1.0, 9.0])
    tau = np.array([0.0, 2.0, -3.0])
    w = boundary_sobolev_weights(xi_sq, tau, 0.5, 0.25)
    dual = boundary_sobolev_weights(xi_sq, tau, -0.5, -0.25)
    assert np.allclose(w * dual, 1.0)
    with pytest.raises(ConfigError):
        boundary_sobolev_weights(xi_sq, tau, 0.5, -0.25)


def test_modulus_families_and_domains():
    p = ModulusParams("single_log", 0.15, 1)
    assert p.exponent == pytest.approx((1 - 2 * 0.15 * 2) / 8)
    assert modulus_eval(p, 0.0) == 0.0
    v = modulus_eval(p, 1e-3)
    assert v == pytest.approx(1e-3 + abs(math.log(1e-3)) ** (-p.exponent), rel=1e-12)
    with pytest.raises(ConfigError):
        modulus_eval(p, 0.5)  # above the validity threshold
    with pytest.raises(ConfigError):
        ModulusParams("single_log", 0.30, 1)  # s out of range for n=1
    with pytest.raises(ConfigError):
        ModulusParams("unknown", 0.15, 1)
    d = ModulusParams("double_log", 0.15, 2)
    vv = modulus_eval(d, 1e-3)
    assert vv == pytest.approx(1e-3 + abs(math.log(abs(math.log(1e-3)))) ** (-0.15), rel=1e-12)


def test_modulus_monotone_near_zero():
    p = ModulusParams("single_log", 0.2, 1)
    xs = np.logspace(-9, -1, 25)
    vals = modulus_eval(p, xs)
    assert np.all(np.diff(vals) > 0)


def test_fit_modulus_constant():
    p = ModulusParams("single_log", 0.15, 1)
    deltas = [1e-2, 1e-3, 1e-4]
    errors = [2.0 * modulus_eval(p, d) for d in deltas]
    c, used = fit_modulus_constant(deltas, errors, p)
    assert used == 3
    assert c == pytest.approx(2.0, rel=1e-12)
    # a record in the trivial branch is excluded from the fit
    c2, used2 = fit_modulus_constant([0.5] + deltas, [1.0] + errors, p)
    assert used2 == 3 and c2 == pytest.approx(2.0, rel=1e-12)
    c3, used3 = fit_modulus_constant([0.5], [1.0], p)
    assert used3 == 0 and math.isinf(c3)
