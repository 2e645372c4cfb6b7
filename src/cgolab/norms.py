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
    "written_to_field",
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


def _occupied_lines(values: np.ndarray) -> np.ndarray:
    """Which lines along the last axis hold a nonzero bit pattern (a -0.0
    entry counts): a boolean array of the other axes' shape."""
    values = np.ascontiguousarray(values)
    words = values.view(np.uint64 if values.itemsize % 8 == 0 else np.uint8)
    return words.any(axis=-1)


def _scanned_lines(values: np.ndarray, n) -> tuple:
    """(rows, data) of `values` in the leading corner of a lattice of shape
    n: the occupied lines along the last axis, found by a scan, cast to
    complex and zero-extended to n[-1], and their flat indices over the
    lattice's other axes."""
    # flat indices, over the values' other axes, of the occupied lines along
    # the last, and the lines themselves, a copy already
    lines = np.flatnonzero(_occupied_lines(values))
    gathered = values.reshape(-1, values.shape[-1])[lines]
    if n == values.shape:
        return lines, gathered.astype(np.complex128, copy=False)
    # the same lines' flat indices over the lattice's other axes
    rows = np.ravel_multi_index(np.unravel_index(lines, values.shape[:-1]), n[:-1])
    data = np.zeros((lines.size, n[-1]), dtype=np.complex128)
    data[:, :values.shape[-1]] = gathered
    return rows, data


def _written_lines(values: np.ndarray, positions, n) -> tuple:
    """(rows, data) of the lattice of shape n that holds `values` at
    `positions`, an index tuple of integer arrays, and zeros elsewhere: the
    lines along the last axis that a scan of that lattice finds occupied,
    and their flat indices over the other axes.  Only the lines some
    position reaches are formed; a repeated position keeps its last value,
    as an assignment does, and a line whose values are all +0.0 is blank."""
    line, col = np.divmod(np.ravel_multi_index(positions, n), n[-1])
    touched, row = np.unique(line, return_inverse=True)
    data = np.zeros((touched.size, n[-1]), dtype=np.complex128)
    data[row, col] = values
    occupied = _occupied_lines(data)
    return touched[occupied], data[occupied]


def _lattice_transform(values: np.ndarray, transform, keep, shape=None,
                       positions=None) -> np.ndarray:
    """`transform` (np.fft.fft or np.fft.ifft) along every axis, last axis
    first as np.fft.fftn and ifftn run it.  Once an axis's 1-D transforms are
    done, only its indices `keep[axis]` are kept: a slice (the crop to a
    corner) or an integer array (the axis's coordinates of wanted nodes).
    The result is a complex128 array of the function's own (a view of it
    when cropped), which the caller may scale in place.  With `shape`, the
    lattice is that larger shape and the values fill its leading corner,
    zeros elsewhere, as `zero_extend` writes them; the zero-extended array
    is never formed.  With `positions` as well, an index tuple of integer
    arrays, `values` are written there instead, as an assignment writes
    them, and the lattice array is never formed either.

    Only the lines along the last axis that hold a nonzero bit pattern (a
    -0.0 entry counts) are cast to complex, zero-extended where the lattice
    is longer, and transformed: a scan of the values finds them, or the
    written positions do.  Before each further axis, every index tuple
    of the axes not yet transformed that leads to no such line carries the
    same slab, `blank`: what the earlier axes made of zeros.  So the slab is
    transformed once per axis and stands in for all of them; it is a
    transform's result, never literal zeros, since pocketfft returns -0.0
    entries from an all-zero line at some lengths (202, 214 and 254, for
    instance).  Every line that is transformed goes through the same 1-D
    transform as in the n-d one, so with NumPy 2's pocketfft the result is
    bitwise the kept part of the full transform.
    """
    n = values.shape if shape is None else tuple(shape)
    if positions is None:
        rows, data = _scanned_lines(values, n)
    else:
        rows, data = _written_lines(values, positions, n)
    data = transform(data, axis=-1, out=data)[:, keep[-1]]
    blank = transform(np.zeros(n[-1], dtype=np.complex128))[keep[-1]]
    for axis in reversed(range(len(n) - 1)):
        # the occupied index tuples of the axes before this one, and the
        # position of each row in their slabs
        outer, inner = np.divmod(rows, n[axis])
        prefixes, slab = np.unique(outer, return_inverse=True)
        slabs = np.empty((prefixes.size, n[axis]) + data.shape[1:], dtype=np.complex128)
        slabs[...] = blank
        slabs[slab, inner] = data
        data = transform(slabs, axis=1, out=slabs)[:, keep[axis]]
        if prefixes.size < math.prod(n[:axis]):
            # the broadcast input is read in place; the output is laid out in
            # C order, as the full transform's is, since sums over it follow
            # its memory order
            wide = np.broadcast_to(blank, (n[axis],) + blank.shape)
            blank = transform(wide, axis=0, out=np.empty(wide.shape, dtype=np.complex128))
            blank = blank[keep[axis]]
        rows = prefixes
    return data[0] if rows.size else blank


def _corner(shape) -> tuple:
    """`_lattice_transform`'s `keep` of the leading corner of `shape`."""
    return tuple(slice(0, s) for s in shape)


def torus_coefficients(values: np.ndarray, lengths, at=None, shape=None) -> np.ndarray:
    """Normalized Fourier coefficients (2pi)^{-d/2} * integral p e^{-i zeta.z}.

    The integral is the left-endpoint Riemann sum, which makes Parseval exact
    on the lattice: sum |coeff|^2 * lattice_measure == sum |p|^2 * cell volume.
    The transform is bitwise np.fft.fftn's of the values cast to complex128,
    but the lines holding only zero bits (all of a zero field) are
    transformed once per axis and the result is copied to the others.

    With `shape`, the lattice is that larger shape and the values fill its
    leading corner, zeros elsewhere, as `zero_extend` writes cylinder values
    into the padded box: the coefficients are bitwise those of the
    zero-extended array, which is never formed.

    With `at`, an index tuple of integer arrays (one per axis, as np.nonzero
    returns), only the coefficients at those nodes are returned, as a 1-d
    array: after each axis only the indices some node reaches are kept, so
    only the lines that lead to a node are transformed, each as in the full
    transform.
    """
    values = np.asarray(values)
    shape = values.shape if shape is None else tuple(shape)
    cell = np.prod([L / npts for npts, L in zip(shape, lengths)])
    if at is None:
        coeffs = _lattice_transform(values, np.fft.fft, _corner(shape), shape)
    else:
        keep = tuple(np.unique(i) for i in at)
        kept = _lattice_transform(values, np.fft.fft, keep, shape)
        coeffs = kept[tuple(np.searchsorted(k, i) for k, i in zip(keep, at))]
    return np.multiply((2 * math.pi) ** (-len(shape) / 2) * cell, coeffs, out=coeffs)


def coefficients_to_field(coeffs: np.ndarray, lengths, shape=None) -> np.ndarray:
    """Inverse of torus_coefficients; with `shape`, only the leading corner of
    that shape (the cylinder inside the padded box).

    The field is inverted axis by axis in the order np.fft.ifftn uses, last
    axis first, and each axis is cropped as soon as it is done.  Lines that
    hold only zero bits (all but the few that meet the frequency ball) are
    inverted once per axis and the result is copied to the others; every
    other line runs the same 1-D transform as the full inverse.  So the
    corner is bitwise the crop of np.fft.ifftn, at a fraction of the work.
    """
    return _to_field(coeffs, None, coeffs.shape, lengths, shape)


def written_to_field(values, positions, lattice, lengths, shape=None) -> np.ndarray:
    """`coefficients_to_field` of the array of shape `lattice` that holds
    `values` at `positions` (an index tuple of integer arrays, one per axis,
    as np.nonzero returns) and zeros elsewhere, bitwise.  A repeated position
    takes its last value, as an assignment does.  That array is never
    formed: only the lines along the last axis that a position reaches are
    gathered, and those that hold a nonzero bit pattern are transformed."""
    return _to_field(np.asarray(values), positions, tuple(lattice), lengths, shape)


def _to_field(values, positions, lattice, lengths, shape) -> np.ndarray:
    """The inverse of both functions above: `_lattice_transform` of the
    lattice (the values, or the values written at `positions`), scaled."""
    cell = np.prod([L / npts for npts, L in zip(lattice, lengths)])
    keep = _corner(lattice if shape is None else shape)
    # scaled into a new array, so that no slab the crop is a view of stays held
    field = (_lattice_transform(values, np.fft.ifft, keep, lattice, positions)
             * (2 * math.pi) ** (len(lattice) / 2))
    return np.divide(field, cell, out=field)


def _weight_sq(shape, lengths, order: float, index=None) -> np.ndarray:
    """(1 + |zeta|^2)^order over the lattice, or at the entries of an index
    tuple of integer arrays only (the same bits as the lattice's there).
    The squares are summed axis by axis as sum() adds them; the last sum
    makes the one array of the result's size, which the rest works in."""
    freqs = lattice_frequencies(shape, lengths)
    if index is not None:
        freqs = [f.ravel()[i] for f, i in zip(freqs, index)]
    squares = [f**2 for f in freqs]
    head = sum(squares[:-1])
    weight = np.add(head, squares[-1],
                    out=np.empty(np.broadcast_shapes(np.shape(head), squares[-1].shape)))
    weight += 1.0
    weight **= order
    return weight


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
    """Order -1 distances from one cylinder field to lattice coefficients.

    The field's zero-extension is transformed once, from the cylinder values
    (`torus_coefficients` with the padded shape), so the padded array is
    never formed.  The target keeps the transform and, in place of the
    lattice's order -1 weight, each entry's term of the weighted sum against
    a zero coefficient, weight * |transform|^2, formed in place.
    A distance recomputes only the entries at the positions it is given,
    patches them in, sums the same array the whole-lattice formula sums and
    restores it, so it is that formula bitwise, with no transform and no scan
    of the lattice.  Since a distance writes to the target while it sums,
    one target must not serve two threads at once.
    """

    def __init__(self, grid: Grid, values):
        values = np.asarray(values)
        if values.shape != grid.field_shape:
            raise ValueError("values do not match the grid")
        self.lengths = box_lengths(grid)
        self.transform = torus_coefficients(values, self.lengths, shape=padded_shape(grid))
        terms = np.abs(self.transform)
        terms **= 2
        terms *= _weight_sq(self.transform.shape, self.lengths, -1.0)
        self._terms = terms

    def distance(self, values, positions) -> float:
        """Order -1 distance to the padded-lattice coefficient array that
        holds `values` at `positions` and zeros elsewhere.  `positions` is an
        index tuple of integer arrays (one per axis, as np.nonzero returns);
        a repeated position takes its last value, as an assignment does.
        The values may hold zeros of either sign: patching one rewrites its
        kept term bitwise."""
        values = np.asarray(values)
        if len(positions) != self.transform.ndim or any(
                np.shape(i) != values.shape for i in positions):
            raise ValueError("values do not match their lattice positions")
        diff2 = np.abs(self.transform[positions] - values) ** 2
        kept = self._terms[positions]
        self._terms[positions] = _weight_sq(self.transform.shape, self.lengths, -1.0,
                                            positions) * diff2
        try:
            total = float(np.sum(self._terms))
        finally:
            self._terms[positions] = kept
        return math.sqrt(total * lattice_measure(self.lengths))


def hminus1_distance(grid: Grid, values, coeffs: np.ndarray) -> float:
    """Order -1 distance between a cylinder field and a lattice coefficient array.

    The field is zero-extended and transformed; the coefficient array must
    already live on the padded lattice (as produced by the inversion sweep),
    and may be any such array: its nonzero entries are found by a scan.
    Comparing on the lattice keeps Parseval exact, so with truncated exact
    coefficients the distance equals the tail norm to rounding.  Distances of
    one field to several coefficient sets share one `Hminus1Target`.
    """
    if coeffs.shape != padded_shape(grid):
        raise ValueError("coefficient array does not match the padded lattice")
    positions = np.nonzero(coeffs)
    return Hminus1Target(grid, values).distance(coeffs[positions], positions)


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
