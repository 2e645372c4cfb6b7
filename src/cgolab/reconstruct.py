"""Inversion pipeline: probe pairings to Fourier slices to a cutoff inverse.

The potential difference p = (truth - reference) is recovered one frequency
at a time.  For a lattice node zeta = (xi, tau) with an admissible direction
omega orthogonal to xi, the pairing of the measured-minus-simulated map
difference against a pair of opposite probes approximates the normalized
transform of p at zeta.  The pairing reads only the probes' Dirichlet traces,
which have a closed form (`cgo.probe_trace`), so no probe is marched.
Collecting slices over the ball |zeta| <= R on the padded-torus lattice and
inverting the transform gives the low-pass estimate; everything outside the
ball (and every infeasible node in partial mode) is zero-filled.

Frequencies live on the same lattice as the negative-order norm machinery,
so with exact slices substituted the reconstruction error IS the Parseval
tail, which the tests pin to rounding accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .cgo import CgoParams, probe_trace
from .dtn import (
    DtnBasis,
    DtnOracle,
    assemble_difference_matrix,
    faces_within,
    map_matrix,
    operator_norm,
    pairings,
    shared_maps,
)
from .errors import ConfigError, SolverError
from .fields import Potential, ScalarField
from .grid import Grid, direction_mask, unit_direction
from .norms import (
    Hminus1Target,
    ModulusParams,
    box_lengths,
    fit_modulus_constant,
    padded_shape,
    torus_coefficients,
    written_to_field,
)

__all__ = [
    "FrequencyNode",
    "FrequencyGrid",
    "ReconstructionConfig",
    "ReconstructionResult",
    "StabilityRecord",
    "choose_direction",
    "build_frequency_grid",
    "partial_masks",
    "measurement_oracle",
    "probe_rho_cap",
    "fourier_slice",
    "exact_slice_values",
    "select_parameters",
    "invert_written",
    "reconstruct",
    "reconstructions",
    "stability_sweep",
    "slice_error_report",
]


def choose_direction(xi, mode: str = "full", base_direction=None,
                     half_width: float = 0.0):
    """Unit direction orthogonal to xi, or None when none is admissible.

    Full mode rotates the lexicographically smallest coordinate axis that is
    not parallel to xi into the orthogonal complement.  Partial mode projects
    the base direction onto the complement and accepts the result only when
    it stays within the cone of the given half-width around the base, which
    at unit length means a projection of norm >= 1 - half_width^2/2.
    """
    xi = np.asarray(xi, dtype=float)
    n = xi.size
    base = unit_direction(base_direction, n)
    norm_xi = np.linalg.norm(xi)
    if norm_xi < 1e-14:
        return base
    if n == 1:
        return None
    hat = xi / norm_xi
    if mode == "full":
        axis = np.zeros(n)
        first_not_parallel = 0 if abs(abs(hat[0]) - 1.0) > 1e-12 else 1
        axis[first_not_parallel] = 1.0
        proj = axis - (axis @ hat) * hat
        return proj / np.linalg.norm(proj)
    if mode == "partial":
        if not 0.0 < half_width < math.sqrt(2.0):
            raise ConfigError(f"cone half-width must lie in (0, sqrt(2)), got {half_width}")
        proj = base - (base @ hat) * hat
        pn = np.linalg.norm(proj)
        if pn < 1.0 - half_width**2 / 2.0 - 1e-12:
            return None
        return proj / pn
    raise ConfigError(f"mode must be 'full' or 'partial', got {mode!r}")


@dataclass
class FrequencyNode:
    index: tuple          # FFT array index on the padded lattice (time first)
    xi: np.ndarray
    tau: float
    omega: np.ndarray | None
    feasible: bool
    canonical: bool
    mirror: tuple
    value: complex | None = None


@dataclass
class FrequencyGrid:
    grid: Grid
    R: float
    mode: str
    base_direction: np.ndarray
    half_width: float
    nodes: list

    @property
    def padded_shape(self) -> tuple:
        return padded_shape(self.grid)

    def canonical_nodes(self):
        return [nd for nd in self.nodes if nd.canonical]

    def probed(self, hermitian: bool) -> list:
        """The nodes a reconstruction probes: for a hermitian inverse, which
        fills each mirror with the conjugate of its canonical node, the
        canonical ones; otherwise every node of the ball."""
        return self.canonical_nodes() if hermitian else self.nodes

    def to_coefficients(self, hermitian: bool = True):
        """(values, positions): the canonical values, their conjugate mirrors
        (for real fields) and, without the mirrors, the other nodes' values,
        and the index tuple (one integer array per axis) of the padded-lattice
        entry each is written to, zero values and mirrors included."""
        values, written = [], []
        for nd in self.canonical_nodes():
            if nd.value is None:
                continue
            values.append(nd.value)
            written.append(nd.index)
            if hermitian and nd.mirror != nd.index:
                values.append(np.conj(nd.value))
                written.append(nd.mirror)
        if not hermitian:
            for nd in self.nodes:
                if not nd.canonical and nd.value is not None:
                    values.append(nd.value)
                    written.append(nd.index)
        positions = np.array(written, dtype=np.intp).reshape(-1, len(self.padded_shape))
        return np.array(values, dtype=np.complex128), tuple(positions.T)


def build_frequency_grid(grid: Grid, R: float, mode: str = "full",
                         base_direction=None, half_width: float = 0.0) -> FrequencyGrid:
    """All lattice nodes with |zeta| <= R, with directions attached."""
    if R < 0:
        raise ConfigError(f"cutoff radius must be nonnegative, got {R}")
    base = unit_direction(base_direction, grid.n)
    shape = padded_shape(grid)
    nt2, nx2 = shape[:2]
    tau_of = lambda s: math.pi * s / grid.T
    xi_of = lambda s: math.pi * s

    max_kt = min(nt2 // 2, int(math.floor(R * grid.T / math.pi)))
    max_kx = min(nx2 // 2, int(math.floor(R / math.pi)))
    t_range = range(-max_kt, max_kt + 1)
    x_range = range(-max_kx, max_kx + 1)

    nodes = []
    if grid.n == 1:
        signed_tuples = [(st, sx) for st in t_range for sx in x_range]
    else:
        signed_tuples = [
            (st, sx, sy) for st in t_range for sx in x_range for sy in x_range
        ]
    for signed in signed_tuples:
        st, sxs = signed[0], signed[1:]
        tau = tau_of(st)
        xi = np.array([xi_of(s) for s in sxs], dtype=float)
        if math.hypot(float(np.linalg.norm(xi)), tau) > R + 1e-12:
            continue
        index = tuple([st % nt2] + [s % nx2 for s in sxs])
        mirror = tuple((-i) % npts for i, npts in zip(index, shape))
        nonzero = [s for s in signed if s != 0]
        canonical = (not nonzero) or nonzero[0] > 0 or mirror == index
        omega = choose_direction(xi, mode, base, half_width) if mode == "partial" else (
            choose_direction(xi, "full", base)
        )
        nodes.append(
            FrequencyNode(
                index=index,
                xi=xi,
                tau=tau,
                omega=omega,
                feasible=omega is not None,
                canonical=canonical,
                mirror=mirror,
            )
        )
    return FrequencyGrid(grid, float(R), mode, base, float(half_width), nodes)


def partial_masks(grid: Grid, base_direction, mask_delta: float):
    """(support, observation) masks: everything except the far faces.

    Inputs may live anywhere except where the outward normal opposes the base
    direction beyond mask_delta; observations anywhere except where it
    follows the base direction beyond mask_delta.  Each is a neighborhood of
    the corresponding open half of the boundary.
    """
    support = direction_mask(grid, base_direction, mask_delta, sign=-1).complement()
    obs = direction_mask(grid, base_direction, mask_delta, sign=1).complement()
    return support, obs


def probe_rho_cap(grid: Grid) -> float:
    """Largest rho the grid can host: resolution (rho^2 ht <= 5) and weight
    overflow (rho sqrt(n) + rho^2 T <= 650) guards combined."""
    res = math.sqrt(5.0 / grid.ht)
    rn = math.sqrt(grid.n)
    overflow = (-rn + math.sqrt(rn**2 + 4.0 * 650.0 * grid.T)) / (2.0 * grid.T)
    return min(res, overflow)


def measurement_oracle(grid: Grid, truth: Potential | None, cfg: ReconstructionConfig,
                       noise_delta: float = 0.0, noise_seed: int = 0,
                       noise_basis: DtnBasis | None = None, maps=()) -> DtnOracle:
    """The measurement oracle of cfg's data setting: the masks of partial
    mode, cfg.theta, optional calibrated noise and the maps it may share."""
    support = obs = None
    if cfg.mode == "partial":
        support, obs = partial_masks(grid, cfg.direction(grid.n), cfg.mask_delta)
    return DtnOracle(grid, truth, support_mask=support, obs_mask=obs, theta=cfg.theta,
                     noise_delta=noise_delta, noise_seed=noise_seed,
                     noise_basis=noise_basis, maps=maps)


def fourier_slice(oracle: DtnOracle, q_ref: Potential | None, xi, tau: float,
                  omega, rho: float, *, probe_delta: float = 0.25) -> complex:
    """One normalized transform sample of (truth - reference) at (xi, tau).

    The forward probe carries the oscillation, the backward one does not.
    The value is (2 pi)^{-(n+1)/2} times the pairing of the map difference,
    which reads only the probes' Dirichlet traces: those do not depend on any
    potential, so no probe is marched.
    """
    _, values = _slice_values(oracle, q_ref, [(xi, tau, omega)], rho,
                              probe_delta=probe_delta, vanish_plus=None, vanish_minus=None)
    return complex(values[0])


def _slice_values(oracle: DtnOracle, q_ref: Potential | None, nodes, rho: float, *,
                  probe_delta, vanish_plus, vanish_minus, bases=None):
    """fourier_slice at every (xi, tau, omega) node, and with measurement
    bases (in, out), or a callable that builds them, the data distance too:
    (delta or None, values).

    The forward probe traces of all nodes form one question, paired against
    the map difference as one block.  rho is fixed, so the backward trace
    depends on omega alone and is formed once per direction, once the
    difference is at hand.  The basis inputs go to the oracle in the same
    request as the probe question, which the oracle forms only when it asks
    it: a map that refactors every step marches both as one block, and
    otherwise the distance is measured first and the bases are dropped
    before the probe block is formed.
    """
    grid = oracle.grid
    # each distinct direction's row in the backward block, and its omega
    directions, which = {}, []
    for _, _, omega in nodes:
        key = np.asarray(omega, dtype=float).tobytes()
        if key not in directions:
            directions[key] = (len(directions), omega)
        which.append(directions[key][0])

    def probes():
        g = np.empty((len(nodes), grid.nt, grid.n_boundary), dtype=np.complex128)
        for i, (xi, tau, omega) in enumerate(nodes):
            par_plus = CgoParams(1, omega, xi, tau, rho, probe_delta)
            g[i] = probe_trace(grid, par_plus, vanish_plus).values
        return g, None

    if callable(bases):
        bases = bases()
    answers = oracle.differences(
        q_ref, ([] if bases is None else [bases[0]]) + ([probes] if nodes else []))
    delta = None
    if bases is not None:
        delta = operator_norm(map_matrix(next(answers), *bases))
        bases = None
    values = np.empty(0, dtype=np.complex128)
    if nodes:
        diff = next(answers)
        backward = np.empty((len(directions), grid.nt, grid.n_boundary), dtype=np.complex128)
        for row, omega in directions.values():
            par_minus = CgoParams(-1, omega, np.zeros(grid.n), 0.0, rho, probe_delta)
            backward[row] = probe_trace(grid, par_minus, vanish_minus).values
        pairs = pairings(grid, diff, backward)
        values = (2 * math.pi) ** (-(grid.n + 1) / 2) * pairs[np.arange(len(nodes)), which]
    return delta, values


def exact_slice_values(grid: Grid, p_values: np.ndarray, freq: FrequencyGrid) -> None:
    """Fill feasible nodes with the exact lattice transform of p (bypassing
    the measurement maps entirely); infeasible nodes get zero.  The values
    are transformed from the cylinder, and only the lattice lines that lead
    to a feasible node, so they are bitwise the full transform's of the
    zero-extended values at the nodes."""
    if np.shape(p_values) != grid.field_shape:
        raise ValueError("values do not match the grid")
    feasible = [nd for nd in freq.nodes if nd.feasible]
    for nd in freq.nodes:
        nd.value = 0.0
    if feasible:
        at = tuple(np.array([nd.index for nd in feasible], dtype=np.intp).T)
        coeffs = torus_coefficients(p_values, box_lengths(grid), at, padded_shape(grid))
        for nd, value in zip(feasible, coeffs):
            nd.value = complex(value)


@dataclass
class SelectionResult:
    trivial: bool
    rho: float
    R: float
    saturated: bool = False


def select_parameters(delta: float, s: float, c: float,
                      rho_cap: float | None = None) -> SelectionResult:
    """Noise-balancing parameter rule.

    Small data distance: rho = sqrt(|ln delta| / (2c)) so the amplification
    e^{c rho^2} turns delta into sqrt(delta); cutoff R = rho^s.  Large
    distance (delta >= e^{-2}): the trivial branch, where the a-priori bound
    beats anything the data can add and the estimate is zero.
    """
    if delta < 0:
        raise ConfigError(f"data distance must be nonnegative, got {delta}")
    if not 0 < s < 1:
        raise ConfigError(f"s must lie in (0, 1), got {s}")
    if c <= 0:
        raise ConfigError(f"exponent constant must be positive, got {c}")
    if delta >= math.exp(-2):
        return SelectionResult(trivial=True, rho=0.0, R=0.0)
    if delta == 0.0:
        # perfect data: the rule's limit is rho -> infinity, so hand back the cap
        if rho_cap is None:
            raise ConfigError("zero data distance needs a rho cap")
        return SelectionResult(trivial=False, rho=rho_cap, R=rho_cap**s,
                               saturated=True)
    rho = math.sqrt(abs(math.log(delta)) / (2.0 * c))
    saturated = False
    if rho_cap is not None and rho > rho_cap:
        rho = rho_cap
        saturated = True
    return SelectionResult(trivial=False, rho=rho, R=rho**s, saturated=saturated)


def invert_written(grid: Grid, values, positions) -> tuple:
    """(real-part estimate, imaginary residue) of coefficient values written
    at padded-lattice positions, as `FrequencyGrid.to_coefficients` returns
    them: the inverse transform of the lattice that holds them, zeros
    elsewhere, restricted to the cylinder.  Only the lattice lines that the
    values occupy are formed (`written_to_field`), never the lattice."""
    crop = written_to_field(values, positions, padded_shape(grid), box_lengths(grid),
                            grid.field_shape)
    imag_residue = float(np.abs(crop.imag).max())
    # the real part as complex, +0.0 imaginary parts, in the crop's own array
    crop.imag = 0.0
    return ScalarField(grid, crop), imag_residue


@dataclass
class ReconstructionConfig:
    s: float = 0.15
    mode: str = "full"
    rho: float | str = "auto"
    R: float | None = None
    c: float | None = None
    rho_floor: float = 2.05
    probe_delta: float = 0.25
    base_direction: tuple | None = None
    half_width: float = 0.3
    mask_delta: float = 0.3
    basis_j_max: int | None = None
    basis_k_max: int | None = None
    use_hermitian: bool = True
    theta: float = 0.5
    measure_delta: bool = True

    def __post_init__(self):
        if self.mode not in ("full", "partial"):
            raise ConfigError(f"mode must be 'full' or 'partial', got {self.mode!r}")
        if not 0 < self.s < 1:
            raise ConfigError(f"s must lie in (0, 1), got {self.s}")
        if self.rho != "auto":
            self.rho = float(self.rho)
            if self.rho <= 2.0:
                raise ConfigError(f"explicit rho must exceed 2, got {self.rho}")
        if self.R is not None and self.R < 0:
            raise ConfigError("cutoff radius must be nonnegative")

    def direction(self, n: int) -> np.ndarray:
        return unit_direction(self.base_direction, n)


@dataclass
class ReconstructionResult:
    """One reconstruction: the coefficient values it wrote and their
    padded-lattice positions (`FrequencyGrid.to_coefficients`), the
    frequencies, whose probed nodes (`FrequencyGrid.probed`) hold the
    slices, and the chosen parameters.  It holds no lattice array.

    The estimate on the cylinder and its imaginary residue are computed on
    first access, by `invert_written` of the written values (the zero field
    and 0.0 on the trivial branch), so a run that reads only the values,
    such as a stability sweep, inverts nothing.
    """

    values: np.ndarray
    positions: tuple
    frequencies: FrequencyGrid
    hermitian: bool
    delta: float | None
    rho: float
    R: float
    trivial: bool
    saturated: bool
    error: float | None

    @cached_property
    def _inverse(self) -> tuple:
        grid = self.frequencies.grid
        if self.trivial:
            return ScalarField.zeros(grid), 0.0
        return invert_written(grid, self.values, self.positions)

    @property
    def estimate(self) -> ScalarField:
        return self._inverse[0]

    @property
    def imag_residue(self) -> float:
        return self._inverse[1]


def _measurement_bases(grid: Grid, oracle: DtnOracle, cfg: ReconstructionConfig):
    faces_in = None
    faces_out = None
    if oracle.support_mask is not None:
        faces_in = faces_within(grid, oracle.support_mask)
    if oracle.obs_mask is not None:
        faces_out = faces_within(grid, oracle.obs_mask)
    basis_in = DtnBasis(grid, cfg.basis_j_max, cfg.basis_k_max, faces_in)
    if faces_out == faces_in:
        return basis_in, basis_in
    return basis_in, DtnBasis(grid, cfg.basis_j_max, cfg.basis_k_max, faces_out)


def reconstruct(oracle: DtnOracle, q_ref: Potential | None, cfg: ReconstructionConfig,
                truth: Potential | None = None) -> ReconstructionResult:
    """Full pipeline: measure the data distance, pick (rho, R), sweep the
    admissible frequency ball, invert.  With truth given, reports the
    negative-order error of the estimate against (truth - reference)."""
    res = _estimate(oracle, q_ref, cfg)
    if truth is not None:
        res.error = _error_target(oracle.grid, truth, q_ref).distance(res.values,
                                                                      res.positions)
    return res


def _error_target(grid: Grid, truth: Potential, q_ref: Potential | None) -> Hminus1Target:
    """The order -1 error target of the difference truth - reference."""
    return Hminus1Target(grid, truth.values - (0.0 if q_ref is None else q_ref.values))


def _estimate(oracle: DtnOracle, q_ref: Potential | None, cfg: ReconstructionConfig,
              bases=None) -> ReconstructionResult:
    """`reconstruct` without the error, which is left None.  `bases` are the
    measurement bases of the oracle's masks where the caller has them;
    otherwise they are built where the distance is measured and held only
    there, so they are gone before the probes are formed."""
    grid = oracle.grid
    base = cfg.direction(grid.n)
    cap = probe_rho_cap(grid)
    delta = None
    trivial = False
    saturated = False
    if cfg.rho == "auto":
        if not cfg.measure_delta:
            raise ConfigError("auto parameter rule needs the measured data distance")
        # rho depends on the data distance, so the probes are asked in a
        # march of their own once it is known
        delta = operator_norm(assemble_difference_matrix(
            oracle, q_ref, *(bases or _measurement_bases(grid, oracle, cfg))))
        c = cfg.c if cfg.c is not None else grid.T + math.sqrt(grid.n)
        sel = select_parameters(delta, cfg.s, c, rho_cap=cap)
        trivial, saturated = sel.trivial, sel.saturated
        rho, radius = sel.rho, sel.R
        if not trivial and rho < cfg.rho_floor:
            rho = cfg.rho_floor
            radius = rho**cfg.s
    else:
        rho = float(cfg.rho)
        if rho > cap:
            raise ConfigError(
                f"rho={rho:.3g} exceeds what this grid can host (cap {cap:.3g})"
            )
        radius = cfg.R if cfg.R is not None else rho**cfg.s

    if trivial:
        freq = FrequencyGrid(grid, 0.0, cfg.mode, base, cfg.half_width, [])
        values, positions = freq.to_coefficients(cfg.use_hermitian)
        return ReconstructionResult(values, positions, freq, cfg.use_hermitian, delta,
                                    0.0, 0.0, True, False, None)

    freq = build_frequency_grid(grid, radius, cfg.mode, base, cfg.half_width)
    vanish_plus = vanish_minus = None
    if cfg.mode == "partial":
        # each probe vanishes where its side of the data is hidden
        support, obs = partial_masks(grid, base, cfg.mask_delta)
        vanish_plus, vanish_minus = support.complement(), obs.complement()

    nodes = freq.probed(cfg.use_hermitian)
    feasible = [nd for nd in nodes if nd.feasible]
    # an explicit rho is known before the data distance, which is then
    # measured here, in one request with the slices; bases the run does not
    # share are built inside that request and held by it alone
    measure = None
    if cfg.measure_delta and cfg.rho != "auto":
        measure = bases or partial(_measurement_bases, grid, oracle, cfg)
    measured, values = _slice_values(
        oracle, q_ref, [(nd.xi, nd.tau, nd.omega) for nd in feasible], rho,
        probe_delta=cfg.probe_delta, vanish_plus=vanish_plus, vanish_minus=vanish_minus,
        bases=measure,
    )
    if measured is not None:
        delta = measured
    if not np.all(np.isfinite(values)):
        raise SolverError(f"{np.count_nonzero(~np.isfinite(values))} of {values.size} "
                          "Fourier slices are not finite")
    for nd, value in zip(feasible, values):
        nd.value = complex(value)
    for nd in nodes:
        if not nd.feasible:
            nd.value = 0.0
    values, positions = freq.to_coefficients(cfg.use_hermitian)
    return ReconstructionResult(values, positions, freq, cfg.use_hermitian, delta, rho,
                                radius, False, saturated, None)


@dataclass
class StabilityRecord:
    delta: float
    err: float
    params: dict

    def __post_init__(self):
        if self.delta < 0 or self.err < 0:
            raise ValueError("distance and error must be nonnegative")


def reconstructions(grid: Grid, runs, cfg: ReconstructionConfig, noise_seed: int = 0):
    """`_estimate`'s result for each run (truth, reference, noise level), in
    turn; a run's oracle is made when the run is reached.  This is the one
    place where the maps of a loop of runs are made.

    The runs share one noiseless map per distinct potential, which keeps its
    answers where several runs ask it, so each distinct question marches
    once.  The noise is added after the march and its draw depends on the
    seed and the basis size only, so one lateral noise basis serves every
    noisy run.  Every run's oracle masks alike, so one set of measurement
    bases serves them all and their question is hashed once.
    """
    runs = list(runs)
    maps = shared_maps(grid, [q for truth, ref, _ in runs for q in (truth, ref)], cfg.theta)
    noise_basis = DtnBasis(grid) if any(level != 0 for *_, level in runs) else None
    bases = None
    for truth, q_ref, level in runs:
        oracle = measurement_oracle(grid, truth, cfg, float(level), noise_seed,
                                    noise_basis, maps)
        if bases is None and cfg.measure_delta:
            bases = _measurement_bases(grid, oracle, cfg)
        yield _estimate(oracle, q_ref, cfg, bases)


def stability_sweep(grid: Grid, q_ref: Potential | None, cfg: ReconstructionConfig,
                    modulus: ModulusParams, *, pair_truths=None, noise_levels=None,
                    noise_truth: Potential | None = None, noise_seed: int = 7) -> dict:
    """(data distance, reconstruction error) records against a modulus fit.

    Two sweep axes: a list of truth potentials at zero noise (pair mode), or
    a list of calibrated noise levels at a fixed truth.  Either way each
    record runs the full pipeline through `reconstructions` and the smallest
    constant C with err <= C * modulus(delta) over the usable records is
    fitted.  The error targets are built after the levels have run, once
    their maps, noise basis and measurement bases are gone, and records of
    one truth share its target, so its difference to the reference is
    transformed once.
    """
    if (pair_truths is None) == (noise_levels is None):
        raise ConfigError("provide exactly one of pair_truths or noise_levels")
    if pair_truths is not None:
        if len(pair_truths) < 2:
            raise ConfigError("degenerate sweep: need at least 2 levels")
        runs = [(q_true, q_ref, 0.0) for q_true in pair_truths]
    else:
        levels = list(noise_levels)
        if len(levels) < 2 or min(levels) == max(levels):
            raise ConfigError("degenerate sweep: need at least 2 distinct levels")
        runs = [(noise_truth, q_ref, lvl) for lvl in levels]

    results = list(reconstructions(grid, runs, cfg, noise_seed))
    records = []
    zero_truth = Potential(grid, np.zeros(grid.field_shape))
    target = target_truth = None
    for (q_true, _, _), res in zip(runs, results):
        if q_true is None:
            q_true = q_ref if q_ref is not None else zero_truth
        if target is None or not np.array_equal(target_truth.values, q_true.values):
            target, target_truth = _error_target(grid, q_true, q_ref), q_true
        res.error = target.distance(res.values, res.positions)
        records.append(
            StabilityRecord(
                delta=float(res.delta),
                err=float(res.error),
                params={
                    "rho": res.rho,
                    "R": res.R,
                    "trivial": res.trivial,
                    "saturated": res.saturated,
                    "mode": cfg.mode,
                },
            )
        )
    deltas = [r.delta for r in records]
    errs = [r.err for r in records]
    c_fit, used = fit_modulus_constant(deltas, errs, modulus)
    return {
        "records": records,
        "fit_constant": c_fit,
        "fit_used": used,
        "modulus_family": modulus.family,
        "modulus_s": modulus.s,
    }


def slice_error_report(grid: Grid, q: Potential, q_ref: Potential | None,
                       xi, tau: float, rhos, *, probe_delta: float = 0.25,
                       theta: float = 0.5) -> dict:
    """Gap between measured slices and the exact lattice transform across rho.

    The frequency must sit on the padded lattice.  The pairing reads only the
    probes' Dirichlet traces, which no potential changes, so the gap is the
    probe-estimate error the slice bound describes.
    """
    xi = np.asarray(xi, dtype=float)
    jt = round(tau * grid.T / math.pi)
    jx = [round(x / math.pi) for x in xi]
    if abs(jt * math.pi / grid.T - tau) > 1e-10 or any(
        abs(j * math.pi - x) > 1e-10 for j, x in zip(jx, xi)
    ):
        raise ConfigError("frequency is not on the padded lattice")
    p = q.values - (0.0 if q_ref is None else q_ref.values)
    shape = padded_shape(grid)
    index = tuple(np.array([j % m]) for j, m in zip([jt] + jx, shape))
    target = complex(torus_coefficients(p, box_lengths(grid), index, shape)[0])

    omega = choose_direction(xi)
    if omega is None:
        raise ConfigError("no admissible direction for this frequency")
    oracle = DtnOracle(grid, q, theta=theta)
    gaps, values = [], []
    for rho in rhos:
        val = fourier_slice(oracle, q_ref, xi, tau, omega, float(rho),
                            probe_delta=probe_delta)
        values.append(val)
        gaps.append(abs(val - target))
    return {
        "rho": [float(r) for r in rhos],
        "value": values,
        "target": target,
        "gap": gaps,
    }
