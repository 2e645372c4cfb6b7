"""Geometry of the space-time grid: boundary enumeration, quadrature, adjacency."""

import numpy as np
import pytest

from cgolab import (
    CgoParams,
    ConfigError,
    ReconstructionConfig,
    ScalarField,
    build_frequency_grid,
    build_grid,
    choose_direction,
    conjugated_apply,
    direction_mask,
    exp_weight,
)
from cgolab.grid import unit_direction


def test_basic_shapes():
    g = build_grid(1, 9, 17, T=2.0)
    assert g.field_shape == (17, 9)
    assert g.space_shape == (9,)
    assert g.hx == pytest.approx(1.0 / 8)
    assert g.ht == pytest.approx(2.0 / 16)
    g2 = build_grid(2, 9, 17, T=2.0)
    assert g2.field_shape == (17, 9, 9)
    assert g2.space_shape == (9, 9)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        build_grid(3, 9, 9, 1.0)
    with pytest.raises(ValueError):
        build_grid(1, 1, 9, 1.0)
    with pytest.raises(ValueError):
        build_grid(1, 9, 9, -1.0)


def test_boundary_single_counting():
    # 1-d: two endpoints; 2-d: the closed curve, corners counted once
    g1 = build_grid(1, 9, 9, 1.0)
    assert g1.n_boundary == 2
    g2 = build_grid(2, 9, 9, 1.0)
    assert g2.n_boundary == 4 * 9 - 4
    pts = {tuple(idx) for idx in zip(*g2.boundary_index)}
    assert len(pts) == g2.n_boundary


def test_boundary_weights_cover_perimeter():
    g = build_grid(2, 17, 9, 1.0)
    # weights accumulate both faces at the corners, so they tile the perimeter
    assert g.boundary_weights.sum() == pytest.approx(4.0)
    g1 = build_grid(1, 17, 9, 1.0)
    assert g1.boundary_weights.sum() == pytest.approx(2.0)  # counting measure


def test_normals_unit_outward():
    g = build_grid(2, 9, 9, 1.0)
    norms = np.linalg.norm(g.boundary_normals, axis=1)
    assert np.allclose(norms, 1.0)
    # outward: moving one step inward along -normal stays inside the index box
    for pt, nrm in zip(g.boundary_points, g.boundary_normals):
        inner = pt - 0.5 * g.hx * nrm
        assert np.all(inner > -1e-12) and np.all(inner < 1 + 1e-12)


def test_volume_quadrature_polynomial():
    # trapezoid rule integrates bilinear exactly: int t*x over (0,1)^2 x (0,2)
    g = build_grid(1, 33, 33, T=2.0)
    vals = g.ts[:, None] * g.xs[None, :]
    assert g.integrate_volume(vals) == pytest.approx(2.0 * 0.5, abs=1e-13)
    g2 = build_grid(2, 17, 9, T=1.0)
    xs = g2.space_coordinates()
    vals = g2.ts.reshape(-1, 1, 1) * xs[0] * xs[1]
    assert g2.integrate_volume(vals) == pytest.approx(0.5 * 0.25, abs=1e-13)


def test_boundary_quadrature_constant():
    g = build_grid(2, 13, 9, T=3.0)
    ones = np.ones((g.nt, g.n_boundary))
    assert g.integrate_boundary(ones) == pytest.approx(3.0 * 4.0)


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


def test_boundary_adjacency_matches_bruteforce():
    g = build_grid(2, 7, 5, 1.0)
    got = g.boundary_adjacency()
    want = _bfs_adjacency_oracle(g)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert set(a) == b
    # the 2-d boundary graph is a single closed curve: every degree is 2
    assert all(len(a) == 2 for a in got)


def test_boundary_adjacency_1d_isolated():
    g = build_grid(1, 7, 5, 1.0)
    assert [len(a) for a in g.boundary_adjacency()] == [0, 0]


def test_boundary_trace_selects_points():
    g = build_grid(2, 9, 5, 1.0)
    xs = g.space_coordinates()
    field = ScalarField(g, np.broadcast_to(xs[0] + 10.0 * xs[1], g.field_shape))
    tr = field.boundary_trace().values
    want = g.boundary_points[:, 0] + 10.0 * g.boundary_points[:, 1]
    assert np.allclose(tr, want[None])


def test_faces_partition_boundary():
    g = build_grid(2, 9, 5, 1.0)
    assert len(g.faces) == 4
    covered = set()
    for face in g.faces:
        covered |= set(zip(*(a.tolist() for a in face.indices)))
    assert len(covered) == g.n_boundary
    # face ownership is a function of the stored ids
    assert set(g.boundary_face) <= set(range(4))



# every entry point that takes a direction checks it through one validator
_DIRECTION_ENTRY_POINTS = {
    "direction_mask": lambda g, om: direction_mask(g, om, 0.2),
    "CgoParams": lambda g, om: CgoParams(1, om, np.zeros(g.n), 0.0, 4.0),
    "exp_weight": lambda g, om: exp_weight(g, 1, om, 3.0),
    "choose_direction": lambda g, om: choose_direction(np.array([0.0, np.pi]),
                                                       "partial", om, 0.3),
    "build_frequency_grid": lambda g, om: build_frequency_grid(g, 4.0, "full", om),
    "ReconstructionConfig.direction":
        lambda g, om: ReconstructionConfig(base_direction=om).direction(g.n),
    "conjugated_apply": lambda g, om: conjugated_apply("full", ScalarField.zeros(g),
                                                       om, 4.0),
}


@pytest.mark.parametrize("entry", sorted(_DIRECTION_ENTRY_POINTS))
@pytest.mark.parametrize("omega, message", [([2.0, 0.0], "unit vector"),
                                            ([1.0], "shape"),
                                            ([0.6, 0.8, 0.0], "shape")])
def test_direction_entry_points_reject_malformed_directions(entry, omega, message):
    g = build_grid(2, 9, 9, 1.0)
    with pytest.raises(ConfigError, match=message):
        _DIRECTION_ENTRY_POINTS[entry](g, np.array(omega))


def test_unit_direction_defaults_to_the_first_axis():
    assert np.array_equal(unit_direction(None, 2), [1.0, 0.0])
    assert np.array_equal(unit_direction(None, 1), [1.0])
    assert np.array_equal(unit_direction([0.6, 0.8], 2), [0.6, 0.8])


def test_lateral_weights_integrate_the_lateral_boundary():
    g = build_grid(2, 9, 17, T=2.0)
    assert g.lateral_weights.shape == (g.nt, g.n_boundary)
    assert np.array_equal(g.lateral_weights, g.time_weights[:, None] * g.boundary_weights)
    # perimeter 4 times the final time
    assert g.integrate_boundary(np.ones((g.nt, g.n_boundary))) == pytest.approx(8.0)
    assert not g.lateral_weights.flags.writeable
