"""Grid functions on the space-time cylinder and on its lateral boundary."""

from __future__ import annotations

import numpy as np

from .grid import Grid

__all__ = ["ScalarField", "BoundaryField", "Potential"]


def _sample(grid: Grid, fn) -> np.ndarray:
    """fn(x, t) (1-d) or fn(x, y, t) (2-d) on every grid point, the
    arguments broadcast against each other."""
    t = grid.ts.reshape((grid.nt,) + (1,) * grid.n)
    coords = grid.space_coordinates()
    # adding a float64 zero to the broadcast samples gives the bits, the
    # dtype and the shape of adding a zero array, without reading one in
    return np.broadcast_to(fn(*(c[None] for c in coords), t), grid.field_shape) + np.float64(0.0)


class ScalarField:
    """Complex samples on every grid point of the closed cylinder.

    values has shape (nt, nx) in 1-d and (nt, nx, nx) in 2-d; time is axis 0.
    """

    def __init__(self, grid: Grid, values):
        values = np.asarray(values)
        if values.shape != grid.field_shape:
            raise ValueError(
                f"field shape {values.shape} does not match grid {grid.field_shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")
        self.grid = grid
        self.values = np.ascontiguousarray(values, dtype=np.complex128)

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "ScalarField":
        """Sample fn(x, t) (1-d) or fn(x, y, t) (2-d); arguments broadcast."""
        return cls(grid, _sample(grid, fn))

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.field_shape))

    def l2_norm(self) -> float:
        """Trapezoid L2 norm over the cylinder."""
        return float(np.sqrt(self.grid.integrate_volume(np.abs(self.values) ** 2).real))

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())

    def boundary_trace(self) -> "BoundaryField":
        vals = self.values[(slice(None),) + self.grid.boundary_index]
        return BoundaryField(self.grid, vals)


class BoundaryField:
    """Complex samples on the lateral boundary cylinder, shape (nt, nb).

    Points follow the grid's single-counted boundary enumeration.
    """

    def __init__(self, grid: Grid, values):
        values = np.asarray(values)
        if values.shape != (grid.nt, grid.n_boundary):
            raise ValueError(
                f"boundary field shape {values.shape} does not match "
                f"({grid.nt}, {grid.n_boundary})"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("boundary field contains non-finite values")
        self.grid = grid
        self.values = np.ascontiguousarray(values, dtype=np.complex128)

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "BoundaryField":
        """Sample fn(points, t) where points is the (nb, n) coordinate array."""
        vals = np.empty((grid.nt, grid.n_boundary), dtype=np.complex128)
        for k, t in enumerate(grid.ts):
            vals[k] = fn(grid.boundary_points, t)
        return cls(grid, vals)

    @classmethod
    def zeros(cls, grid: Grid) -> "BoundaryField":
        return cls(grid, np.zeros((grid.nt, grid.n_boundary)))

    @classmethod
    def constant(cls, grid: Grid, value) -> "BoundaryField":
        return cls(grid, np.full((grid.nt, grid.n_boundary), value, dtype=np.complex128))

    def l2_norm(self) -> float:
        return float(
            np.sqrt(self.grid.integrate_boundary(np.abs(self.values) ** 2).real)
        )

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())


class Potential:
    """Real bounded zero-order coefficient q(x, t) with certified bound m."""

    def __init__(self, grid: Grid, values, m: float | None = None):
        values = np.asarray(values)
        if values.shape != grid.field_shape:
            raise ValueError(
                f"potential shape {values.shape} does not match grid {grid.field_shape}"
            )
        if np.iscomplexobj(values):
            if np.abs(values.imag).max() > 0:
                raise ValueError("potential must be real-valued")
            values = values.real
        if not np.all(np.isfinite(values)):
            raise ValueError("potential contains non-finite values")
        # the largest modulus of finite values is that of their max or min
        sup = max(abs(float(values.max())), abs(float(values.min()))) if values.size else 0.0
        if m is None:
            m = sup
        elif sup > m + 1e-12:
            raise ValueError(f"potential exceeds its stated bound: sup={sup} > m={m}")
        self.grid = grid
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self.m = float(m)

    @classmethod
    def from_callable(cls, grid: Grid, fn, m: float | None = None) -> "Potential":
        """Sample the real fn(x, t) (1-d) or fn(x, y, t) (2-d); arguments
        broadcast."""
        return cls(grid, _sample(grid, fn), m)

    @classmethod
    def zero(cls, grid: Grid) -> "Potential":
        return cls(grid, np.zeros(grid.field_shape), m=0.0)
