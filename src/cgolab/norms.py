"""Discrete Sobolev machinery and the logarithmic moduli of continuity.

The negative-order target norm is realized on a padded periodic box: the field
on the closed cylinder is zero-extended to twice the length per axis, expanded
by DFT, and normed on the resulting frequency lattice.  With left-endpoint
quadrature the discrete Parseval identity is exact, which the tests pin to
1e-12.  Frequencies are physical: 2*pi*(integer index)/(box length), so the
time axis carries pi*k/T and each space axis pi*j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import Grid

__all__ = [
    "ModulusParams",
    "modulus_eval",
    "fit_modulus_constant",
    "zero_extend",
    "box_lengths",
    "padded_shape",
    "lattice_frequencies",
    "lattice_measure",
    "torus_coefficients",
    "coefficients_to_field",
    "periodic_sobolev_norm",
    "sobolev_norm",
    "hminus1_norm",
    "Hminus1Target",
    "hminus1_distance",
    "boundary_sobolev_weights",
]

MODULUS_FAMILIES = ("single_log", "double_log", "sup_log")


@dataclass(frozen=True)
class ModulusParams:
    """Parameters of one modulus-of-continuity family.

    single_log: rho + |ln rho|^{-(1-2s(n+1))/8}        (full-data rate)
    double_log: rho + |ln|ln rho||^{-s}                (partial-data rate)
    sup_log:    |ln rho|^{-(1-2s(n+1))/(n+3)} + rho    (sup-norm rate)

    The formulas degenerate as rho approaches 1 (and double_log already at
    1/e), so evaluation is restricted to [0, rho_max].
    """

    family: str
    s: float
    n: int
    rho_max: float = math.exp(-2)

    def __post_init__(self):
        if self.family not in MODULUS_FAMILIES:
            raise ConfigError(
                f"unknown modulus family {self.family!r}; expected one of {MODULUS_FAMILIES}"
            )
        if self.n not in (1, 2):
            raise ConfigError(f"dimension must be 1 or 2, got {self.n}")
        if self.family == "double_log":
            if not 0.0 < self.s < 0.5:
                raise ConfigError(
                    f"double_log needs s in (0, 1/2), got {self.s}"
                )
            if not 0.0 < self.rho_max < math.exp(-1):
                raise ConfigError(
                    "double_log is only defined on [0, rho_max] with rho_max < 1/e"
                )
        else:
            lo, hi = 1.0 / (2 * (self.n + 3)), 1.0 / (2 * (self.n + 1))
            if not lo < self.s < hi:
                raise ConfigError(
                    f"{self.family} needs s in ({lo:.4g}, {hi:.4g}) for n={self.n}, got {self.s}"
                )
            if not 0.0 < self.rho_max < 1.0:
                raise ConfigError("rho_max must lie in (0, 1)")

    @property
    def exponent(self) -> float:
        if self.family == "single_log":
            return (1.0 - 2 * self.s * (self.n + 1)) / 8.0
        if self.family == "sup_log":
            return (1.0 - 2 * self.s * (self.n + 1)) / (self.n + 3)
        return self.s


def modulus_eval(params: ModulusParams, rho):
    """Evaluate the modulus; continuous at 0 with value 0."""
    arr = np.asarray(rho, dtype=float)
    if arr.min() < 0 or arr.max() > params.rho_max:
        raise ConfigError(
            f"modulus argument must lie in [0, {params.rho_max:.6g}], "
            f"got range [{arr.min():.6g}, {arr.max():.6g}]"
        )
    out = np.zeros_like(arr)
    pos = arr > 0
    if np.any(pos):
        r = arr[pos]
        absln = np.abs(np.log(r))
        if params.family == "double_log":
            log_term = np.abs(np.log(absln)) ** (-params.exponent)
        else:
            log_term = absln ** (-params.exponent)
        out[pos] = r + log_term
    if np.isscalar(rho):
        return float(out)
    return out


def fit_modulus_constant(deltas, errors, params: ModulusParams):
    """Smallest C with err_i <= C * modulus(delta_i) over the usable records.

    Records with delta outside (0, rho_max] belong to the trivial large-noise
    branch and are excluded; the number used is returned alongside C.
    """
    deltas = np.asarray(deltas, dtype=float)
    errors = np.asarray(errors, dtype=float)
    usable = (deltas > 0) & (deltas <= params.rho_max)
    if not np.any(usable):
        return math.inf, 0
    vals = modulus_eval(params, deltas[usable])
    return float(np.max(errors[usable] / vals)), int(usable.sum())


# ---------------------------------------------------------------------------
# Padded-torus transforms


def box_lengths(grid: Grid):
    """Periods of the padded box, time axis first."""
    return (2.0 * grid.T,) + (2.0,) * grid.n


def padded_shape(grid: Grid) -> tuple:
    """Lattice shape of the padded box, time axis first: each axis of the
    closed cylinder is zero-extended to twice its length."""
    return (2 * (grid.nt - 1),) + (2 * (grid.nx - 1),) * grid.n


def zero_extend(grid: Grid, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if values.shape != grid.field_shape:
        raise ValueError("values do not match the grid")
    out = np.zeros(padded_shape(grid), dtype=np.complex128)
    sel = tuple(slice(0, s) for s in values.shape)
    out[sel] = values
    return out


def lattice_frequencies(shape, lengths):
    """Physical DFT frequencies per axis (open meshgrid order matches axes)."""
    axes = [
        2 * math.pi * np.fft.fftfreq(npts, d=length / npts)
        for npts, length in zip(shape, lengths)
    ]
    return np.meshgrid(*axes, indexing="ij", sparse=True)


def lattice_measure(lengths) -> float:
    return float(np.prod([2 * math.pi / L for L in lengths]))


def torus_coefficients(values: np.ndarray, lengths) -> np.ndarray:
    """Normalized Fourier coefficients (2pi)^{-d/2} * integral p e^{-i zeta.z}.

    The integral is the left-endpoint Riemann sum, which makes Parseval exact
    on the lattice: sum |coeff|^2 * lattice_measure == sum |p|^2 * cell volume.
    """
    values = np.asarray(values, dtype=np.complex128)
    d = values.ndim
    cell = np.prod([L / npts for npts, L in zip(values.shape, lengths)])
    return (2 * math.pi) ** (-d / 2) * cell * np.fft.fftn(values)


def coefficients_to_field(coeffs: np.ndarray, lengths, shape=None) -> np.ndarray:
    """Inverse of torus_coefficients; with `shape`, only the leading corner of
    that shape (the cylinder inside the padded box).

    The field is inverted axis by axis in the order np.fft.ifftn uses, last
    axis first, and each axis is cropped as soon as it is done.  That runs
    the same 1-D transforms on the same rows as the full inverse, so the
    corner is bitwise the crop of the full inverse, at about half the work.
    """
    d = coeffs.ndim
    cell = np.prod([L / npts for npts, L in zip(coeffs.shape, lengths)])
    shape = coeffs.shape if shape is None else shape
    field = coeffs
    for axis in reversed(range(d)):
        field = np.fft.ifft(field, axis=axis)
        field = field[(slice(None),) * axis + (slice(0, shape[axis]),)]
    return field * (2 * math.pi) ** (d / 2) / cell


def _weight_sq(shape, lengths, order: float) -> np.ndarray:
    freqs = lattice_frequencies(shape, lengths)
    zeta_sq = sum(f**2 for f in freqs)
    return (1.0 + zeta_sq) ** order


def periodic_sobolev_norm(values: np.ndarray, lengths, order: float) -> float:
    """Sobolev norm of a field living on the periodic box itself."""
    coeffs = torus_coefficients(values, lengths)
    w = _weight_sq(values.shape, lengths, order)
    return math.sqrt(float(np.sum(w * np.abs(coeffs) ** 2)) * lattice_measure(lengths))


def sobolev_norm(field_like, order: float) -> float:
    """Sobolev norm of the zero-extension on the padded box."""
    grid = field_like.grid
    padded = zero_extend(grid, field_like.values)
    return periodic_sobolev_norm(padded, box_lengths(grid), order)


def hminus1_norm(field_like) -> float:
    """The reconstruction-error norm: order -1 on the padded box."""
    return sobolev_norm(field_like, -1.0)


class Hminus1Target:
    """Order -1 distances from one cylinder field to lattice coefficient arrays.

    The field is zero-extended and transformed once, and the transform is
    kept with the lattice's order -1 weight, so each distance is one weighted
    sum over the lattice and no transform.
    """

    def __init__(self, grid: Grid, values):
        self.lengths = box_lengths(grid)
        self.transform = torus_coefficients(zero_extend(grid, values), self.lengths)
        self.weight = _weight_sq(self.transform.shape, self.lengths, -1.0)

    def distance(self, coeffs: np.ndarray) -> float:
        """Order -1 distance to a coefficient array on the padded lattice."""
        if coeffs.shape != self.transform.shape:
            raise ValueError("coefficient array does not match the padded lattice")
        diff2 = np.abs(self.transform - coeffs) ** 2
        return math.sqrt(float(np.sum(self.weight * diff2)) * lattice_measure(self.lengths))


def hminus1_distance(grid: Grid, values, coeffs: np.ndarray) -> float:
    """Order -1 distance between a cylinder field and a lattice coefficient array.

    The field is zero-extended and transformed; the coefficient array must
    already live on the padded lattice (as produced by the inversion sweep).
    Comparing on the lattice keeps Parseval exact, so with truncated exact
    coefficients the distance equals the tail norm to rounding.  Distances of
    one field to several arrays share one `Hminus1Target`.
    """
    return Hminus1Target(grid, values).distance(coeffs)


# ---------------------------------------------------------------------------
# Boundary weights


def boundary_sobolev_weights(xi_sq, tau, r: float, s: float) -> np.ndarray:
    """Diagonal anisotropic weights for boundary modes.

    Nonnegative (r, s) gives (1+|xi|^2)^{r/2} + (1+tau^2)^{s/2}; nonpositive
    pairs give the reciprocal of the dual pair's weight, so that the product
    of dual weights is exactly 1 (and 4 only at r=s=0, where both conventions
    meet).  Mixed signs are rejected.
    """
    xi_sq = np.asarray(xi_sq, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if r >= 0 and s >= 0:
        return (1.0 + xi_sq) ** (r / 2) + (1.0 + tau**2) ** (s / 2)
    if r <= 0 and s <= 0:
        return 1.0 / ((1.0 + xi_sq) ** (-r / 2) + (1.0 + tau**2) ** (-s / 2))
    raise ConfigError(f"mixed-sign weight exponents are not supported: r={r}, s={s}")
