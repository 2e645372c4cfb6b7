"""Boundary measurement maps: full, partial, and initial-data-extended.

The Dirichlet-to-Neumann action is a forward solve plus a normal-derivative
trace.  Two layers answer every question put to a map.  A `DtnMap` is the
noiseless map of one potential: k data columns march as one block through
its `ThetaScheme`, and the map hands the traces, level by level or as a
stored answer, to a plain list of consumers, one per question.  A
`DtnOracle` holds the masks and the calibrated noise and asks maps:
`DtnOracle.differences` is the column engine under every matrix assembly and
pairing.  Its measuring consumer starts its block, the question's noise, on
its first call and writes the noisy, masked measurement into it; the masked
reference traces are subtracted from it as they come.  So a difference holds
one answer-sized block, and a stored answer is formed before any block.  A
sweep shares one map per distinct potential among its oracles, so each
distinct question marches once, and one noise basis, which projects each
distinct question once.  For operator-level work (norm estimation,
calibrated noise) the map is discretized in an orthonormal boundary basis:
per-face sine profiles in space tensored with Fourier modes in time, which
the trapezoid quadrature keeps exactly orthonormal and which diagonalize the
anisotropic Sobolev weights.  A basis holds its lateral modes as the rows of one dense
matrix, so projection and synthesis are one matrix product each.  Matrices
and fields serialize to one container: a JSON header line, complex64 bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigError
from .fields import BoundaryField, Potential, ScalarField
from .forward import ThetaScheme, solve_backward, solve_forward
from .grid import DirectionMask, Grid, build_grid
from .norms import boundary_sobolev_weights

__all__ = [
    "DtnBasis",
    "DtnMatrix",
    "DtnMap",
    "DtnOracle",
    "shared_maps",
    "pairings",
    "pairing_volume",
    "map_matrix",
    "assemble_dtn_matrix",
    "assemble_difference_matrix",
    "operator_norm",
    "add_noise",
    "faces_within",
    "save_field",
    "load_field",
]

# (r_in, s_in, r_out, s_out): data space smoothness -1/2,-1/4, difference
# output measured in the smoother 1/2,1/4 scale
DEFAULT_WEIGHTS = (-0.5, -0.25, 0.5, 0.25)

# The masked reference traces a difference subtracts are formed in a scratch
# array of at most this size, or of one column where a column is larger.
_SCRATCH_BYTES = 1 << 19


def faces_within(grid: Grid, mask: DirectionMask) -> list:
    """Face ids whose every owned boundary point lies in the mask."""
    out = []
    for fid in range(len(grid.faces)):
        pts = grid.boundary_face == fid
        if pts.any() and bool(mask.values[pts].all()):
            out.append(fid)
    return out


class DtnBasis:
    """Orthonormal lateral-boundary basis, optionally extended by initial modes.

    Lateral mode (face, j, k): sine profile of index j along the face (the
    constant profile on point faces in one dimension) times e^{2 pi i k t/T},
    normalized to unit discrete Sigma-norm.  Initial modes are interior sine
    products on the spatial box, used only as inputs of the extended map.
    """

    def __init__(self, grid: Grid, j_max: int | None = None, k_max: int | None = None,
                 faces=None, initial_modes: int = 0):
        self.grid = grid
        if faces is None:
            faces = list(range(len(grid.faces)))
        self.faces = list(faces)
        if grid.n == 1:
            if j_max is not None:
                raise ConfigError(f"a 1-d basis has no j_max (point faces), got {j_max}")
            self.j_max = 0
            js = [0]
        else:
            if j_max is None:
                j_max = min(4, grid.nx - 2)
            if not 1 <= j_max <= grid.nx - 2:
                raise ConfigError(f"j_max must lie in [1, {grid.nx - 2}], got {j_max}")
            self.j_max = j_max
            js = list(range(1, j_max + 1))
        if k_max is None:
            k_max = min(4, (grid.nt - 2) // 2)
        if not 0 <= 2 * k_max < grid.nt - 1:
            raise ConfigError(
                f"k_max must satisfy 2*k_max < nt-1 = {grid.nt - 1}, got {k_max}"
            )
        self.k_max = k_max
        self.initial_modes = int(initial_modes)

        self.lateral_modes = [
            (fid, j, k)
            for fid in self.faces
            for j in js
            for k in range(-k_max, k_max + 1)
        ]
        self.init_modes = self._initial_mode_indices(self.initial_modes)

        xi_sq, tau = [], []
        for fid, j, k in self.lateral_modes:
            xi_sq.append((j * np.pi) ** 2)
            tau.append(2 * np.pi * k / grid.T)
        for js_tuple in self.init_modes:
            xi_sq.append(sum((j * np.pi) ** 2 for j in js_tuple))
            tau.append(0.0)
        self.xi_sq = np.asarray(xi_sq)
        self.tau = np.asarray(tau)

        # every input mode as one column of a block: its lateral data and,
        # with initial modes, its initial slice, zero where the mode has none
        self._lateral = np.zeros((self.size, grid.nt, grid.n_boundary), dtype=np.complex128)
        face_points = {fid: np.flatnonzero(grid.boundary_face == fid) for fid in self.faces}
        for row, (fid, j, k) in zip(self._lateral, self.lateral_modes):
            pts = face_points[fid]
            if grid.n == 1:
                profile = np.ones(pts.size)
                norm = 1.0 / np.sqrt(grid.T)
            else:
                s = grid.xs[grid.boundary_index[1 - grid.faces[fid].axis][pts]]
                profile = np.sin(j * np.pi * s)
                norm = 1.0 / np.sqrt(grid.T / 2.0)
            tfac = np.exp(2j * np.pi * k * grid.ts / grid.T)
            row[:, pts] = norm * tfac[:, None] * profile[None, :]
        self._initial = None
        if self.init_modes:
            self._initial = np.zeros((self.size,) + grid.space_shape)
            coords = [np.broadcast_to(c, grid.space_shape) for c in grid.space_coordinates()]
            for slice_, js_tuple in zip(self._initial[self.lateral_size:], self.init_modes):
                slice_[...] = 1.0
                for c, j in zip(coords, js_tuple):
                    slice_ *= np.sin(j * np.pi * c)
                slice_ *= np.sqrt(2.0) ** grid.n
            self._initial.flags.writeable = False
        # the input blocks never change, so their digest is taken once
        self._lateral.flags.writeable = False
        self._inputs_digest = None
        # the lateral modes as the rows of one dense (modes, nt*nb) matrix
        self._modes = self._lateral[:self.lateral_size].reshape(self.lateral_size, -1)
        self._weights = grid.lateral_weights.ravel()
        self._projections = {}
        self._noise_draws = {}
        self._supports = set()

    def _initial_mode_indices(self, count: int):
        if count < 0:
            raise ConfigError(f"initial_modes must be >= 0, got {count}")
        if count == 0:
            return []
        if self.grid.n == 1:
            pool = [(j,) for j in range(1, self.grid.nx - 1)]
        else:
            lim = self.grid.nx - 2
            pool = sorted(
                ((j, k) for j in range(1, lim + 1) for k in range(1, lim + 1)),
                key=lambda p: (p[0] ** 2 + p[1] ** 2, p),
            )
        if count > len(pool):
            raise ConfigError(f"at most {len(pool)} initial modes fit this grid")
        return pool[:count]

    @property
    def size(self) -> int:
        return len(self.lateral_modes) + len(self.init_modes)

    @property
    def lateral_size(self) -> int:
        return len(self.lateral_modes)

    def inputs(self):
        """Every input mode as a column of one block: (lateral data
        (size, nt, nb), initial slices (size, *space_shape) or None), both
        read-only."""
        return self._lateral, self._initial

    def digest(self) -> str:
        """`_digest` of the `inputs` question: the blocks are read-only, so
        the basis hashes them once, when first asked."""
        if self._inputs_digest is None:
            self._inputs_digest = _digest(*self.inputs())
        return self._inputs_digest

    def project(self, f):
        """Coefficients of the lateral modes (orthonormal, so inner products):
        (modes,) of a BoundaryField, or (k, modes) of a (k, nt, nb) block.
        f is left as it is: `_project_block` works on a copy."""
        single = isinstance(f, BoundaryField)
        values = np.asarray(f.values[None] if single else f)
        coeffs = self._project_block(values.astype(np.result_type(values, self._weights)))
        return coeffs[0] if single else coeffs

    def _project_block(self, block) -> np.ndarray:
        """`project` of a (k, nt, nb) block that is not kept: the block is
        weighted and conjugated in place."""
        flat = np.asarray(block).reshape(len(block), -1)
        flat *= self._weights
        # conj(conj(w f) M^T) is the conjugated product without a conjugated
        # copy of M; the weighted data is conjugated in place
        coeffs = np.conjugate(flat, out=flat) @ self._modes.T
        return np.conjugate(coeffs, out=coeffs)

    def projection(self, g, key: str | None):
        """`project` of a (k, nt, nb) block g whose question digest is key.
        Projections of digested questions are kept, read-only, so a basis
        shared by several oracles projects each distinct question once; a
        question without a digest is projected afresh."""
        if key is None:
            return self.project(g)
        if key not in self._projections:
            self._projections[key] = self.project(g)
            self._projections[key].flags.writeable = False
        return self._projections[key]

    def check_support(self, support_mask: DirectionMask) -> None:
        """`_check_support` of the lateral input block against a mask.  The
        block is read-only, so each mask it passes is checked once."""
        key = support_mask.values.tobytes()
        if key not in self._supports:
            _check_support(self._lateral, support_mask)
            self._supports.add(key)

    def noise(self, delta: float, seed: int) -> np.ndarray:
        """The calibrated noise matrix (modes, modes) of level delta and
        seed on the lateral modes: bitwise the perturbation `add_noise` puts
        on their zero matrix.  Each seed's draw and its weighted norm are
        kept, so oracles sharing the basis draw each seed once."""
        _check_noise_level(delta)
        if seed not in self._noise_draws:
            size = self.lateral_size
            zero = DtnMatrix(np.zeros((size, size)), self.xi_sq[:size], self.tau[:size],
                             self.xi_sq[:size], self.tau[:size])
            self._noise_draws[seed] = _noise_draw(zero, seed)
        draw, norm = self._noise_draws[seed]
        return 0.0 + (delta / norm) * draw

    def synthesize(self, coeffs):
        """Lateral data of mode coefficients: a BoundaryField of a (modes,)
        vector, or a (k, nt, nb) block of a (k, modes) array."""
        coeffs = np.asarray(coeffs)
        if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != self.lateral_size:
            raise ValueError("coefficient vector does not match the lateral basis")
        grid = self.grid
        vals = (coeffs @ self._modes).reshape(coeffs.shape[:-1] + (grid.nt, -1))
        return BoundaryField(grid, vals) if coeffs.ndim == 1 else vals

    def descriptor(self) -> dict:
        return {
            "n": self.grid.n,
            "nx": self.grid.nx,
            "nt": self.grid.nt,
            "T": self.grid.T,
            "j_max": self.j_max,
            "k_max": self.k_max,
            "faces": self.faces,
            "initial_modes": self.initial_modes,
        }

    @classmethod
    def from_descriptor(cls, d: dict) -> "DtnBasis":
        grid = build_grid(d["n"], d["nx"], d["nt"], d["T"])
        return cls(grid, d["j_max"] or None, d["k_max"], d["faces"], d["initial_modes"])


@dataclass
class DtnMatrix:
    """Basis-coefficient matrix of a boundary map (or map difference)."""

    matrix: np.ndarray
    xi_sq_in: np.ndarray
    tau_in: np.ndarray
    xi_sq_out: np.ndarray
    tau_out: np.ndarray
    weights: tuple = DEFAULT_WEIGHTS
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.complex128)
        if self.matrix.shape != (self.xi_sq_out.size, self.xi_sq_in.size):
            raise ValueError("matrix shape does not match the basis descriptors")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("matrix has non-finite entries")

    def weighted(self) -> np.ndarray:
        r_in, s_in, r_out, s_out = self.weights
        w_in = boundary_sobolev_weights(self.xi_sq_in, self.tau_in, r_in, s_in)
        w_out = boundary_sobolev_weights(self.xi_sq_out, self.tau_out, r_out, s_out)
        return w_out[:, None] * self.matrix / w_in[None, :]

    def __sub__(self, other: "DtnMatrix") -> "DtnMatrix":
        if self.matrix.shape != other.matrix.shape:
            raise ValueError("matrix shapes differ")
        return DtnMatrix(
            self.matrix - other.matrix,
            self.xi_sq_in,
            self.tau_in,
            self.xi_sq_out,
            self.tau_out,
            self.weights,
            dict(self.meta),
        )

    def save(self, path) -> None:
        _write_container(path, {
            "format": "dtn-matrix-v1",
            "rows": int(self.matrix.shape[0]),
            "cols": int(self.matrix.shape[1]),
            "order": "row-major",
            "weights": list(self.weights),
            "xi_sq_in": self.xi_sq_in.tolist(),
            "tau_in": self.tau_in.tolist(),
            "xi_sq_out": self.xi_sq_out.tolist(),
            "tau_out": self.tau_out.tolist(),
            "meta": self.meta,
        }, self.matrix)

    @classmethod
    def load(cls, path) -> "DtnMatrix":
        header, payload = _read_container(path, "dtn-matrix-v1")
        return cls(
            _payload_array(path, payload, (header["rows"], header["cols"])),
            np.asarray(header["xi_sq_in"]),
            np.asarray(header["tau_in"]),
            np.asarray(header["xi_sq_out"]),
            np.asarray(header["tau_out"]),
            tuple(header["weights"]),
            header.get("meta", {}),
        )


def operator_norm(m: DtnMatrix) -> float:
    """Largest singular value of the Sobolev-weighted matrix."""
    return float(np.linalg.svd(m.weighted(), compute_uv=False)[0])


def _check_noise_level(delta: float) -> None:
    if not delta >= 0:
        raise ConfigError(f"noise level must be nonnegative, got {delta}")


def _noise_draw(m: DtnMatrix, seed: int):
    """The complex Gaussian draw of seed shaped like m, and its weighted norm
    in m's bases and weights."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(m.matrix.shape) + 1j * rng.standard_normal(m.matrix.shape)
    probe = DtnMatrix(
        noise, m.xi_sq_in, m.tau_in, m.xi_sq_out, m.tau_out, m.weights
    )
    return noise, operator_norm(probe)


def add_noise(m: DtnMatrix, delta: float, seed: int) -> DtnMatrix:
    """Additive complex Gaussian perturbation with weighted norm exactly delta."""
    _check_noise_level(delta)
    out = DtnMatrix(
        m.matrix.copy(), m.xi_sq_in, m.tau_in, m.xi_sq_out, m.tau_out,
        m.weights, dict(m.meta),
    )
    if delta == 0:
        return out
    noise, norm = _noise_draw(m, seed)
    out.matrix = out.matrix + (delta / norm) * noise
    out.meta = dict(out.meta, noise_delta=delta, noise_seed=seed)
    return out


# ---------------------------------------------------------------------------
# Map actions


def _check_support(values, support_mask: DirectionMask) -> None:
    """Every (nt, nb) data column in values must vanish outside the mask."""
    outside = ~support_mask.values
    if not np.any(outside):
        return
    mag = np.abs(values)
    peak = np.maximum(mag.max(axis=(-2, -1)), 1.0)
    stray = mag[..., outside].max(axis=(-2, -1))
    if np.any(stray > 1e-12 * peak):
        raise ConfigError(
            "input data does not vanish outside the support mask "
            f"(max magnitude {float(np.max(stray)):.3e})"
        )


def pairing_volume(grid: Grid, q: Potential | None, q_ref: Potential | None,
                   g: BoundaryField, h: BoundaryField, theta: float = 0.5) -> complex:
    """Volume side of the pairing `DtnOracle.pair_against` forms on the
    boundary: integral of (q - q_ref) u+ u- with u+ the forward solution for
    (q, g) and u- the backward one for (q_ref, h).  Independent code path used
    to verify the boundary identity."""
    qv = 0.0 if q is None else q.values
    rv = 0.0 if q_ref is None else q_ref.values
    u_fwd = solve_forward(grid, q, g, None, None, theta)
    u_bwd = solve_backward(grid, q_ref, h, None, None, theta)
    return complex(grid.integrate_volume((qv - rv) * u_fwd.values * u_bwd.values))


# ---------------------------------------------------------------------------
# Noiseless maps, the measurement oracle and the matrix assemblies built on it


def _same_potential(a: Potential | None, b: Potential | None) -> bool:
    """Equal values, or both None."""
    if a is None or b is None:
        return a is b
    return np.array_equal(a.values, b.values)


def _digest(*arrays) -> str:
    """SHA-256 over each array's dtype, shape and values (None marked apart)."""
    h = hashlib.sha256()
    for a in arrays:
        if a is None:
            h.update(b"none")
            continue
        a = np.ascontiguousarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a)
    return h.hexdigest()


class DtnMap:
    """The noiseless boundary map of one potential at one theta.

    `answer` hands each question's Neumann traces to a consumer level by
    level, from one march of the map's `ThetaScheme`.  A map shared by
    several oracles keeps its answers, keyed by a digest of the question, so
    each distinct question marches once; a map that one oracle owns alone
    keeps nothing, and its march holds no block of traces.
    """

    def __init__(self, grid: Grid, q: Potential | None, theta: float = 0.5, *,
                 keep_answers: bool = False):
        self.grid = grid
        self.q = q
        self.theta = theta
        self.scheme = ThetaScheme(grid, q, theta)
        self._answers = {} if keep_answers else None

    def is_map_of(self, grid: Grid, q: Potential | None, theta: float) -> bool:
        return (self.theta == theta and self.grid.same_layout(grid)
                and _same_potential(self.q, q))

    @property
    def keeps_answers(self) -> bool:
        return self._answers is not None

    def stacks(self, count: int) -> bool:
        """Whether `answer` marches `count` questions as one stacked block.
        A time-varying scheme factors every step of every march, so where
        each column marches independently of the block it is in, the
        questions march together.  Otherwise each question marches alone,
        which holds fewer columns in memory at once."""
        scheme = self.scheme
        return count > 1 and not scheme.time_invariant and scheme.columns_independent

    def answer(self, questions, consumers) -> None:
        """Hand each (g, u0, key) question's traces to its consumer in the
        list `consumers`, read-only and valid during the call only:
        consume(levels, traces) gets the traces at some time levels, (k, nb)
        at one level or (k, L, nb) at a slice of them.  key is the digest
        `_digest(g, u0)` of the question, or None.  A private map hands over
        each level of its march in turn.  A map that keeps its answers first
        forms every stored answer it lacks, read-only and keyed by the
        digest, then hands over each at once, as the slice of every level;
        so no consumer is called before the last stored answer is formed.
        Where the map `stacks` the questions, they march as one block, whose
        key comes from its parts' digests so no block is hashed twice, and
        each level is split among the consumers."""
        if self.stacks(len(questions)):
            g = np.concatenate([g for g, _, _ in questions])
            u0 = None
            if any(u is not None for _, u, _ in questions):
                u0 = np.concatenate([
                    np.zeros((len(gi),) + self.grid.space_shape) if u is None else u
                    for gi, u, _ in questions
                ])
            keys = [key for _, _, key in questions]
            key = None if None in keys else hashlib.sha256("".join(keys).encode()).hexdigest()
            bounds = np.cumsum([0] + [len(gi) for gi, _, _ in questions])
            parts = list(zip(consumers, bounds[:-1], bounds[1:]))

            def split(levels, traces):
                for consume, start, stop in parts:
                    consume(levels, traces[start:stop])

            consumers, questions = [split], [(g, u0, key)]
        if self._answers is None:
            for (g, u0, _), consume in zip(questions, consumers):
                self.scheme.trace_levels(g, u0, consume)
            return
        keys = []
        for g, u0, key in questions:
            key = _digest(g, u0) if key is None else key
            if key not in self._answers:
                answer = self.scheme.neumann_traces(g, u0)
                answer.flags.writeable = False
                self._answers[key] = answer
            keys.append(key)
        for key, consume in zip(keys, consumers):
            consume(slice(None), self._answers[key])


class DtnOracle:
    """Measurement interface handed to the inversion pipeline.

    Wraps the hidden truth potential behind an apply() action, with optional
    support/observation masks and an optional calibrated noise operator that
    perturbs responses consistently with the noisy matrix it reports.  The
    noiseless responses come from `DtnMap`s: the oracle asks the map of its
    truth, and for a reference potential the map whose potential has the same
    values, so a reference equal to the truth marches nothing of its own.
    `maps` are maps the oracle may ask; a potential without one among them
    gets a private map.  The support check, the noise and the mask run on
    every answer.
    """

    def __init__(self, grid: Grid, q: Potential | None, *,
                 support_mask: DirectionMask | None = None,
                 obs_mask: DirectionMask | None = None,
                 theta: float = 0.5,
                 noise_delta: float = 0.0, noise_seed: int = 0,
                 noise_basis: DtnBasis | None = None,
                 maps=()):
        self.grid = grid
        self.support_mask = support_mask
        self.obs_mask = obs_mask
        self.theta = theta
        self.noise_delta = float(noise_delta)
        self.noise_seed = int(noise_seed)
        self._maps = list(maps)
        self.map = self._map_of(q)
        self._noise_basis = None
        self._noise_matrix = None
        if self.noise_delta != 0:
            if noise_basis is None:
                noise_basis = DtnBasis(grid)
            if noise_basis.initial_modes:
                raise ConfigError("noise basis must be lateral-only")
            self._noise_basis = noise_basis
            self._noise_matrix = noise_basis.noise(self.noise_delta, self.noise_seed)

    def _map_of(self, q: Potential | None) -> DtnMap:
        for m in self._maps:
            if m.is_map_of(self.grid, q, self.theta):
                return m
        self._maps.append(DtnMap(self.grid, q, self.theta))
        return self._maps[-1]

    def _question(self, question, keyed: bool):
        """(g, u0, key) of a question: a (g, u0) pair, a `DtnBasis`, which
        asks about its input modes, or a callable that returns a pair.  g is
        checked against the support mask (a basis's block once per mask), and
        key is its digest where `keyed` (a basis's only once in its life),
        else None."""
        if callable(question):
            question = question()
        if isinstance(question, DtnBasis):
            g, u0 = question.inputs()
            if self.support_mask is not None:
                question.check_support(self.support_mask)
            return g, u0, question.digest() if keyed else None
        g, u0 = question
        g = np.asarray(g)
        if self.support_mask is not None:
            _check_support(g, self.support_mask)
        return g, u0, _digest(g, u0) if keyed else None

    def _mask(self):
        """The observation mask at every time level, (nt, nb) complex128, or
        None.  Indexed by the levels a consumer gets, it broadcasts against
        their traces without a broadcast axis of its own, and a complex
        product casts the boolean mask to these very values, so multiplying
        by it is bitwise the same."""
        if self.obs_mask is None:
            return None
        return np.tile(self.obs_mask.values.astype(np.complex128), (self.grid.nt, 1))

    def apply_many(self, g, u0=None) -> np.ndarray:
        """Measured responses (k, nt, nb) of data columns g (k, nt, nb) and
        initial slices u0 (k, *space_shape) or None, in a new array."""
        question = self._question((g, u0), self.map.keeps_answers)
        measure = _Measurement(self, question, self._mask())
        self.map.answer([question], [measure])
        return measure.block

    def apply(self, g: BoundaryField, u0=None) -> BoundaryField:
        u0 = None if u0 is None else np.asarray(u0)[None]
        return BoundaryField(self.grid, self.apply_many(g.values[None], u0)[0])

    def differences(self, q_ref: Potential | None, questions):
        """(measured map - simulated reference map) responses (k, nt, nb) to
        every question, in turn, each in a new array the caller owns.  A
        question is a (g, u0) pair, a `DtnBasis`, which asks about its input
        modes, or a callable returning a pair, called only when its question
        is asked.

        Each question is asked alone, and dropped before its difference is
        handed over, unless a map `stacks` the questions: then all of them
        are asked at once.  The truth's map hands its traces to one
        `_Measurement` per question, which starts the difference block on
        its first call and writes the measurement into it, and the
        reference's map hands over its traces level by level too, which are
        masked and subtracted as they come (`_Measurement.subtract`), so no
        reference block is formed or copied.  When the reference is the truth, one
        march serves both sides.  Each question is hashed at most once (a basis's only
        once in its life), and only where a map asked keeps its answers; its
        digest keys both the stored answers of the maps and the noise basis's
        projections."""
        reference_map = self._map_of(q_ref)
        same = reference_map is self.map
        maps = [self.map] if same else [self.map, reference_map]
        keyed = any(m.keeps_answers for m in maps)
        mask = self._mask()
        pending = list(questions)[::-1]
        del questions
        while pending:
            count = len(pending) if any(m.stacks(len(pending)) for m in maps) else 1
            asked = [self._question(pending.pop(), keyed) for _ in range(count)]
            measures = [_Measurement(self, question, mask, same) for question in asked]
            self.map.answer(asked, measures)
            if not same:
                reference_map.answer(asked, [m.subtract for m in measures])
            blocks = [m.block for m in reversed(measures)]
            del asked, measures
            while blocks:
                yield blocks.pop()

    def pair_against(self, q_ref: Potential | None, g: BoundaryField,
                     h: BoundaryField) -> complex:
        """Pairing of (measured map - simulated reference map) g against h:
        the lateral integral of [(map_q - map_ref) g] * h."""
        diff = next(self.differences(q_ref, [(g.values[None], None)]))
        return complex(pairings(self.grid, diff, h.values[None])[0, 0])


class _Measurement:
    """A consumer, consume(levels, traces), that writes the measurement of
    one (g, u0, key) question of an oracle at those levels into its `block`:
    the traces are added to the noise block already there and the sum is
    masked, or without noise the masked traces are written.  The first call
    starts the block, the question's noise synthesized then or an empty
    block without noise; a map that keeps its answers forms them all before
    it calls a consumer, so the march of a stored answer never holds a block
    beside it.  `subtract` is the reference's consumer; with `same`, the
    traces are also the reference's, and it takes them off again."""

    def __init__(self, oracle: DtnOracle, question, mask, same: bool = False):
        self._oracle = oracle
        self._g, _, self._key = question
        self._mask = mask
        self._same = same
        self.block = self._scratch = None

    def _start(self) -> None:
        oracle = self._oracle
        if oracle._noise_matrix is None:
            self.block = np.empty(self._g.shape, dtype=np.complex128)
        else:
            coeffs = oracle._noise_basis.projection(self._g, self._key) @ oracle._noise_matrix.T
            self.block = oracle._noise_basis.synthesize(coeffs)

    def __call__(self, levels, traces) -> None:
        if self.block is None:
            self._start()
        rows, mask = self.block[:, levels], self._mask
        if self._oracle._noise_matrix is not None:
            rows += traces
            if mask is not None:
                rows *= mask[levels]
        elif mask is None:
            rows[...] = traces
        else:
            np.multiply(traces, mask[levels], out=rows)
        if self._same:
            self.subtract(levels, traces)

    def subtract(self, levels, traces) -> None:
        """Subtract the observed reference traces at those levels from the
        started block.  The masked traces are formed a few columns at a
        time, in one scratch array of at most _SCRATCH_BYTES (or one column),
        so no reference block is formed."""
        rows, mask = self.block[:, levels], self._mask
        if mask is None:
            rows -= traces
            return
        weight = mask[levels]
        if self._scratch is None:
            column = traces.itemsize * math.prod(traces.shape[1:])
            step = max(1, min(_SCRATCH_BYTES // column, len(traces)))
            self._scratch = np.empty((step,) + traces.shape[1:], dtype=np.complex128)
        scratch = self._scratch
        for start in range(0, len(traces), len(scratch)):
            part = traces[start:start + len(scratch)]
            rows[start:start + len(part)] -= np.multiply(part, weight,
                                                         out=scratch[:len(part)])


def shared_maps(grid: Grid, potentials, theta: float = 0.5) -> list:
    """One `DtnMap` per distinct potential of `potentials`, which lists a
    potential once for every oracle that will ask its map.  A map asked more
    than once keeps its answers."""
    distinct = []
    for q in potentials:
        for entry in distinct:
            if _same_potential(entry[0], q):
                entry[1] += 1
                break
        else:
            distinct.append([q, 1])
    return [DtnMap(grid, q, theta, keep_answers=uses > 1) for q, uses in distinct]


def pairings(grid: Grid, responses, h) -> np.ndarray:
    """Lateral integrals (k, m) of responses[i] * h[j] for blocks (k, nt, nb)
    and (m, nt, nb).  The lateral weights are applied to `responses` in
    place, so it must be a block the caller need not keep, such as a
    difference block."""
    flat = np.asarray(responses).reshape(len(responses), -1)
    flat *= grid.lateral_weights.ravel()
    return flat @ np.asarray(h).reshape(len(h), -1).T


def map_matrix(responses, basis_in: DtnBasis, basis_out: DtnBasis | None = None) -> DtnMatrix:
    """Matrix of a map in the given bases, from its responses (size, nt, nb)
    to the input modes of basis_in.  The responses are projected as
    `DtnBasis.project` does, but weighted in place, so they must be a block
    the caller need not keep, such as a difference block."""
    if basis_out is None:
        basis_out = basis_in
    if basis_out.initial_modes:
        raise ConfigError("output basis cannot carry initial modes")
    return DtnMatrix(
        basis_out._project_block(responses).T,
        basis_in.xi_sq,
        basis_in.tau,
        basis_out.xi_sq,
        basis_out.tau,
        DEFAULT_WEIGHTS,
        {"basis_in": basis_in.descriptor(), "basis_out": basis_out.descriptor()},
    )


def assemble_dtn_matrix(grid: Grid, q: Potential | None, basis_in: DtnBasis,
                        basis_out: DtnBasis | None = None, theta: float = 0.5) -> DtnMatrix:
    """The map in the given bases, probed with every input mode at once."""
    oracle = DtnOracle(grid, q, theta=theta)
    return map_matrix(oracle.apply_many(*basis_in.inputs()), basis_in, basis_out)


def assemble_difference_matrix(oracle: DtnOracle, q_ref: Potential | None,
                               basis_in: DtnBasis,
                               basis_out: DtnBasis | None = None) -> DtnMatrix:
    """Matrix of (measured map - simulated reference map) in the given bases.

    The operator norm of this matrix is the measured data-distance fed to
    parameter selection.
    """
    return map_matrix(next(oracle.differences(q_ref, [basis_in])), basis_in, basis_out)


# ---------------------------------------------------------------------------
# The file container of matrices and fields


# format tag: (what the file holds, the header keys a reader needs and their types)
_FORMATS = {
    "dtn-matrix-v1": ("dtn matrix", {"rows": int, "cols": int, "weights": list,
                                     "xi_sq_in": list, "tau_in": list,
                                     "xi_sq_out": list, "tau_out": list}),
    "dtn-field-v1": ("field dump", {"n": int, "nx": int, "nt": int, "T": (int, float)}),
}


def _write_container(path, header: dict, values: np.ndarray) -> None:
    """One JSON line of header (sorted keys, the dtype added), then the
    complex64 bytes of values in C order."""
    with open(path, "wb") as fh:
        fh.write(json.dumps(dict(header, dtype="complex64"), sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(values.astype(np.complex64)).tobytes())


def _read_container(path, fmt: str):
    """(header, payload bytes) of a container file of format fmt whose header
    holds every key the format needs, each with a value of its type; anything
    else raises ConfigError."""
    what, keys = _FORMATS[fmt]
    with open(path, "rb") as fh:
        line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{path}: header is not a JSON line") from exc
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise ConfigError(f"not a {what} file: {path}")
    for key, kind in keys.items():
        if key not in header:
            raise ConfigError(f"{path}: header has no {key!r}")
        if isinstance(header[key], bool) or not isinstance(header[key], kind):
            raise ConfigError(f"{path}: header {key!r} has the wrong type: {header[key]!r}")
    return header, payload


def _payload_array(path, payload: bytes, shape) -> np.ndarray:
    """The complex64 payload as a complex128 array of the header's shape."""
    expected = int(np.prod(shape)) * np.dtype(np.complex64).itemsize
    if len(payload) != expected:
        raise ConfigError(
            f"{path}: payload has {len(payload)} bytes, a {shape} array of "
            f"complex64 samples needs {expected}"
        )
    return np.frombuffer(payload, dtype=np.complex64).reshape(shape).astype(np.complex128)


def save_field(path, field: ScalarField) -> None:
    """Field dump: the container with the grid layout in its header."""
    grid = field.grid
    _write_container(path, {
        "format": "dtn-field-v1",
        "n": grid.n,
        "nx": grid.nx,
        "nt": grid.nt,
        "T": grid.T,
        "order": "C",
    }, field.values)


def load_field(path) -> ScalarField:
    header, payload = _read_container(path, "dtn-field-v1")
    grid = build_grid(header["n"], header["nx"], header["nt"], header["T"])
    return ScalarField(grid, _payload_array(path, payload, grid.field_shape))
