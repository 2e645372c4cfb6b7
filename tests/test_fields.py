import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgolab import BoundaryField, Potential, ScalarField, build_grid, direction_mask
from cgolab.fields import _sample


def test_scalar_field_from_callable_1d():
    g = build_grid(1, 17, 9, T=2.0)
    f = ScalarField.from_callable(g, lambda x, t: x**2 + t)
    want = g.xs[None, :] ** 2 + g.ts[:, None]
    assert np.allclose(f.values, want)


def test_scalar_field_from_callable_2d():
    g = build_grid(2, 9, 5, T=1.0)
    f = ScalarField.from_callable(g, lambda x, y, t: x + 2 * y + 3 * t)
    xs = g.space_coordinates()
    want = xs[0] + 2 * xs[1] + 3 * g.ts.reshape(-1, 1, 1)
    assert np.allclose(f.values, want)


@pytest.mark.parametrize("n", [1, 2])
def test_potential_from_callable_is_the_real_part_of_the_sampled_field(n):
    g = build_grid(n, 9, 5, T=1.0)

    def fn(*args):
        return np.sin(np.pi * args[0]) * np.cos(args[-1]) + args[-2] ** 2

    p = Potential.from_callable(g, fn, m=2.0)
    want = ScalarField.from_callable(g, fn).values.real
    assert p.values.tobytes() == np.ascontiguousarray(want).tobytes() and p.m == 2.0


def test_scalar_field_shape_and_finiteness_guard():
    g = build_grid(1, 9, 5, 1.0)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((5, 8)))
    bad = np.zeros(g.field_shape)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ScalarField(g, bad)


def test_l2_norm_closed_form():
    # ||sin(pi x) sin(pi t)||_{L2((0,1)x(0,1))} = 1/2; trapezoid converges to it
    g = build_grid(1, 129, 129, T=1.0)
    f = ScalarField.from_callable(g, lambda x, t: np.sin(np.pi * x) * np.sin(np.pi * t))
    assert f.l2_norm() == pytest.approx(0.5, rel=1e-3)


def test_max_abs_and_copy_independent():
    g = build_grid(1, 9, 5, 1.0)
    f = ScalarField(g, np.full(g.field_shape, 2.0 + 0j))
    c = ScalarField(g, f.values.copy())
    c.values[0, 0] = 99.0
    assert f.max_abs() == pytest.approx(2.0)
    assert c.max_abs() == pytest.approx(99.0)


def test_boundary_field_from_callable_and_norm():
    g = build_grid(1, 9, 65, T=1.0)
    b = BoundaryField.from_callable(g, lambda p, t: np.sin(np.pi * t) * np.ones(len(p)))
    # counting measure over two endpoints: ||b||^2 = 2 * int sin^2 = 2 * 1/2
    assert b.l2_norm() == pytest.approx(1.0, rel=1e-3)
    assert b.max_abs() == pytest.approx(1.0, abs=1e-3)


def test_boundary_field_restricted_zeroes_complement():
    g = build_grid(2, 9, 5, 1.0)
    b = BoundaryField.constant(g, 1.0)
    mask = direction_mask(g, np.array([1.0, 0.0]), 0.3, sign=1)
    r = BoundaryField(g, b.values * mask.values[None, :])
    assert np.all(r.values[:, mask.values] == 1.0)
    assert np.all(r.values[:, ~mask.values] == 0.0)


def test_potential_real_and_bound():
    g = build_grid(1, 9, 5, 1.0)
    q = Potential(g, np.full(g.field_shape, 0.25), m=0.5)
    assert q.m == pytest.approx(0.5)
    assert Potential(g, np.full(g.field_shape, 0.25)).m == pytest.approx(0.25)
    with pytest.raises(ValueError):
        Potential(g, np.full(g.field_shape, 0.8), m=0.5)
    with pytest.raises(ValueError):
        Potential(g, np.full(g.field_shape, 1j))


# field entries: zeros of either sign beside ordinary values
_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0]),
                     st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(st.lists(_ENTRIES, min_size=9, max_size=9), st.sampled_from([1, 2]),
       st.sampled_from([np.float64, np.float32, np.complex128, np.int64]))
def test_sampling_is_the_samples_plus_a_zero_array_bitwise(entries, n, dtype):
    # samples that vary along one space axis only, with signed zeros, of
    # every dtype a profile may return: bits, dtype and shape of adding a
    # zero array of the field's shape
    g = build_grid(n, 9, 5, T=1.0)
    line = np.array(entries).astype(dtype)

    def fn(*args):
        return line.reshape((1,) * n + (9,))

    want = fn() + np.zeros(g.field_shape)
    got = _sample(g, fn)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(_ENTRIES, min_size=45, max_size=45))
@example([-0.0] * 45)
@example([0.0] * 44 + [-0.0])
def test_potential_bound_is_the_largest_modulus_bitwise(entries):
    g = build_grid(1, 9, 5, 1.0)
    values = np.array(entries).reshape(g.field_shape)
    want = float(np.abs(values).max())
    assert np.float64(Potential(g, values).m).tobytes() == np.float64(want).tobytes()
