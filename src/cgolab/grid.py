"""Uniform space-time grid on the unit box with direction-resolved boundary geometry.

The domain is the closed cylinder [0,1]^n x [0,T] with n in {1, 2}, sampled on a
uniform tensor grid (nx points per space axis, nt time levels, endpoints
included).  Boundary geometry is exposed two ways:

* geometric faces -- each face lists every grid point it touches, corners
  included, together with its own trapezoid quadrature weights;
* a single-counted enumeration of boundary points in which each point belongs
  to exactly one owning face.  Corner ownership follows face order (axis 0
  faces first, low side before high side), so set cardinalities stay additive.
  The quadrature weight of an owned point still collects contributions from
  every face that touches it, which keeps the boundary trapezoid rule second
  order despite single counting.

Outward normals are constant per face; an owned corner reports the normal of
its owning face (the ambiguity lives on a measure-zero set).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "Grid",
    "Face",
    "DirectionMask",
    "build_grid",
    "unit_direction",
    "direction_mask",
]


@dataclass(frozen=True)
class Face:
    """One face of the box boundary: the set {x_axis = 0 or 1}."""

    axis: int
    side: int  # 0 for the low face, 1 for the high face
    normal: np.ndarray
    indices: tuple  # tuple of index arrays covering all points of the face
    weights: np.ndarray  # face trapezoid weights aligned with `indices`


class Grid:
    """Tensor grid for the cylinder [0,1]^n x [0,T].

    Attributes
    ----------
    n : spatial dimension, 1 or 2
    nx, nt : number of points per space axis / time levels (endpoints included)
    hx, ht : mesh widths 1/(nx-1) and T/(nt-1)
    faces : list of Face, ordered axis-major with the low side first; this
        order also decides corner ownership
    boundary_index : tuple of index arrays selecting the single-counted
        boundary points from a space-shaped array
    boundary_normals : (nb, n) outward normals (owning face)
    boundary_points : (nb, n) coordinates
    boundary_weights : (nb,) surface quadrature weights (full, corner-aware)
    boundary_face : (nb,) owning face id
    lateral_weights : (nt, nb) trapezoid weights of the lateral boundary,
        time weight times surface weight (read-only)
    """

    def __init__(self, n: int, nx: int, nt: int, T: float):
        if n not in (1, 2):
            raise ValueError(f"spatial dimension must be 1 or 2, got {n}")
        if nx < 3:
            raise ValueError(f"need nx >= 3 points per axis, got {nx}")
        if nt < 3:
            raise ValueError(f"need nt >= 3 time levels, got {nt}")
        if not 0 < T < math.inf:
            raise ValueError(f"final time must be positive and finite, got {T}")
        self.n = n
        self.nx = int(nx)
        self.nt = int(nt)
        self.T = float(T)
        self.hx = 1.0 / (nx - 1)
        self.ht = T / (nt - 1)
        self.xs = np.linspace(0.0, 1.0, nx)
        self.ts = np.linspace(0.0, T, nt)
        self.space_shape = (nx,) * n
        self.field_shape = (nt,) + self.space_shape

        self.faces = self._build_faces()
        self._enumerate_boundary()
        self.lateral_weights = self.time_weights[:, None] * self.boundary_weights
        self.lateral_weights.flags.writeable = False

    # -- construction -------------------------------------------------------

    def _build_faces(self):
        faces = []
        last = self.nx - 1
        for axis in range(self.n):
            for side in (0, 1):
                normal = np.zeros(self.n)
                normal[axis] = -1.0 if side == 0 else 1.0
                fixed = 0 if side == 0 else last
                if self.n == 1:
                    indices = (np.array([fixed]),)
                    weights = np.array([1.0])  # counting measure on two points
                else:
                    free = np.arange(self.nx)
                    idx = [None, None]
                    idx[axis] = np.full(self.nx, fixed)
                    idx[1 - axis] = free
                    indices = (idx[0], idx[1])
                    weights = np.full(self.nx, self.hx)
                    weights[[0, -1]] = 0.5 * self.hx
                faces.append(Face(axis, side, normal, indices, weights))
        return faces

    def _enumerate_boundary(self):
        owner = {}
        weight = {}
        order = []
        for fid, face in enumerate(self.faces):
            pts = list(zip(*(a.tolist() for a in face.indices)))
            for local, pt in enumerate(pts):
                if pt not in owner:
                    owner[pt] = fid
                    weight[pt] = 0.0
                    order.append(pt)
                weight[pt] += face.weights[local]
        nb = len(order)
        self.boundary_index = tuple(
            np.array([pt[a] for pt in order]) for a in range(self.n)
        )
        self.boundary_face = np.array([owner[pt] for pt in order])
        self.boundary_normals = np.array(
            [self.faces[owner[pt]].normal for pt in order]
        )
        self.boundary_points = np.array(
            [[self.xs[pt[a]] for a in range(self.n)] for pt in order]
        )
        self.boundary_weights = np.array([weight[pt] for pt in order])
        self.n_boundary = nb

    # -- quadrature ---------------------------------------------------------

    @property
    def time_weights(self) -> np.ndarray:
        w = np.full(self.nt, self.ht)
        w[[0, -1]] = 0.5 * self.ht
        return w

    @property
    def space_weights(self) -> np.ndarray:
        w1 = np.full(self.nx, self.hx)
        w1[[0, -1]] = 0.5 * self.hx
        if self.n == 1:
            return w1
        return np.outer(w1, w1)

    @property
    def volume_weights(self) -> np.ndarray:
        return self.time_weights.reshape((self.nt,) + (1,) * self.n) * self.space_weights

    def integrate_volume(self, values: np.ndarray):
        """Trapezoid quadrature of a field over the whole cylinder."""
        return (self.volume_weights * values).sum()

    def integrate_boundary(self, values: np.ndarray):
        """Trapezoid quadrature over the lateral boundary of (nt, nb) samples."""
        return (self.lateral_weights * values).sum()

    def space_coordinates(self):
        """Coordinate arrays broadcastable to space_shape."""
        if self.n == 1:
            return (self.xs,)
        return (self.xs[:, None], self.xs[None, :])

    # -- misc ---------------------------------------------------------------

    def same_layout(self, other: "Grid") -> bool:
        return (self.n, self.nx, self.nt, self.T) == (
            other.n,
            other.nx,
            other.nt,
            other.T,
        )

    def __repr__(self):
        return f"Grid(n={self.n}, nx={self.nx}, nt={self.nt}, T={self.T})"


def build_grid(n: int, nx: int, nt: int, T: float) -> Grid:
    """Construct the uniform grid; see Grid for layout conventions."""
    return Grid(n, nx, nt, T)


@dataclass
class DirectionMask:
    """Indicator over the single-counted boundary points, constant in time."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=bool)
        if self.values.shape != (self.grid.n_boundary,):
            raise ValueError("mask shape does not match the boundary enumeration")

    @property
    def count(self) -> int:
        return int(self.values.sum())

    def complement(self) -> "DirectionMask":
        return DirectionMask(self.grid, ~self.values)


def unit_direction(omega, n: int) -> np.ndarray:
    """omega as a float vector, checked to have shape (n,) and unit norm; the
    first coordinate axis e_1 when omega is None.  Every direction the package
    accepts passes through here."""
    if omega is None:
        return np.eye(n)[0]
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (n,):
        raise ConfigError(f"direction must have shape ({n},), got {omega.shape}")
    if abs(np.linalg.norm(omega) - 1.0) > 1e-12:
        raise ConfigError(f"direction must be a unit vector, got {omega.tolist()}")
    return omega


def direction_mask(grid: Grid, omega, delta: float, sign: int = 1) -> DirectionMask:
    """Boundary points whose outward normal satisfies sign*(nu . omega) > delta.

    omega is a direction as `unit_direction` accepts it and 0 <= delta < 1.
    The indicator is constant in time because the lateral boundary geometry is.
    """
    omega = unit_direction(omega, grid.n)
    if not (0.0 <= delta < 1.0):
        raise ValueError(f"threshold must lie in [0, 1), got {delta}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    values = sign * (grid.boundary_normals @ omega) > delta
    return DirectionMask(grid, values)

