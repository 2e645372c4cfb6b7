"""Linearized boundary maps for the semilinear problem and recovery of the
nonlinearity along constant data levels.

The boundary map of (d_t - Laplacian) u + a(x,t,u) = 0 is differentiable in
the data, and its derivative at g is the linear map with frozen potential
p(x,t) = da/du evaluated along the semilinear solution.  Probing around
constant levels g = s makes p(x,0) = a'(s), so running the linear inversion
pipeline on the linearized difference map and reading the estimate near the
initial slice recovers a' level by level; integrating in s with the anchor
a(0) = 0 rebuilds a itself on the probed range.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, SolverError
from .fields import BoundaryField, Potential, ScalarField
from .forward import neumann_trace, solve_forward, solve_semilinear_many
from .grid import Grid
from .norms import ModulusParams, fit_modulus_constant
from .reconstruct import (
    ReconstructionConfig,
    build_frequency_grid,
    exact_slice_values,
    invert_written,
    reconstructions,
)

__all__ = [
    "Nonlinearity",
    "SemilinearOracle",
    "semilinear_solution",
    "semilinear_solutions",
    "linearized_potential",
    "frechet_dtn",
    "fd_frechet_report",
    "recover_nonlinearity",
    "semilinear_stability_sweep",
]


class Nonlinearity:
    """a(x, t, u) with its u-derivative, both vectorized over (*x, t, u).

    monotone flags membership in the class {a(0)=0, a nondecreasing}; when
    set, both properties are spot-checked before a solve.  level_bound is the
    largest admissible constant data level, sup_bound an a-priori ceiling on
    |u| that computed solutions must respect.
    """

    def __init__(self, value, du, *, name: str = "",
                 monotone: bool = False, level_bound: float = 1.0,
                 sup_bound: float | None = None):
        self._value = value
        self._du = du
        self.name = name
        self.monotone = bool(monotone)
        self.level_bound = float(level_bound)
        self.sup_bound = None if sup_bound is None else float(sup_bound)

    def value(self, *args):
        return np.asarray(self._value(*args), dtype=float)

    def du(self, *args):
        """da/du with the shape of u: the callable's own float array where it
        already has that shape, which the caller does not write into, and a
        read-only broadcast view of it where it does not."""
        d = np.asarray(self._du(*args), dtype=float)
        shape = np.shape(args[-1])
        return d if d.shape == shape else np.broadcast_to(d, shape)

    @classmethod
    def from_u(cls, f, fprime, **kw) -> "Nonlinearity":
        """Wrap pure-u callables a(u) and a'(u)."""
        value = lambda *args: np.asarray(f(args[-1]), dtype=float) + 0.0 * args[-1]
        return cls(value, lambda *args: fprime(args[-1]), **kw)

    def check_class(self, n: int, u_range=None, samples: int = 101) -> None:
        """Spot-check the monotone-class properties on the probed range."""
        if not self.monotone:
            return
        lo, hi = (-self.level_bound, self.level_bound) if u_range is None else u_range
        us = np.linspace(lo, hi, samples)
        probe = tuple(np.full(samples, 0.5) for _ in range(n)) + (0.0, us)
        at_zero = tuple(np.full(1, 0.5) for _ in range(n)) + (0.0, np.zeros(1))
        if np.abs(self.value(*at_zero)).max() > 1e-12:
            raise ConfigError(f"nonlinearity {self.name!r} violates a(0)=0")
        if self.du(*probe).min() < -1e-12:
            raise ConfigError(
                f"nonlinearity {self.name!r} is not nondecreasing on "
                f"[{lo:.3g}, {hi:.3g}]"
            )


def _data_range(bdata: BoundaryField, u0) -> tuple:
    vals = [bdata.values.real]
    if u0 is not None:
        vals.append(np.asarray(u0).real.ravel())
    flat = np.concatenate([v.ravel() for v in vals])
    return float(flat.min()), float(flat.max())


def _check_solution(a: Nonlinearity, u: np.ndarray, bdata: BoundaryField, u0) -> None:
    """The a-priori checks of one computed solution (real values u)."""
    scale = 1.0 + float(np.abs(bdata.values).max())
    tol = 1e-6 * scale
    if a.sup_bound is not None and np.abs(u).max() > a.sup_bound + tol:
        raise SolverError(
            f"solution magnitude {np.abs(u).max():.3e} exceeds the a-priori "
            f"bound {a.sup_bound:.3e}"
        )
    if a.monotone:
        lo, hi = _data_range(bdata, u0)
        lo, hi = min(lo, 0.0), max(hi, 0.0)
        if u.min() < lo - tol or u.max() > hi + tol:
            raise SolverError(
                f"solution range [{u.min():.3e}, {u.max():.3e}] leaves the "
                f"data range [{lo:.3e}, {hi:.3e}]"
            )


def semilinear_solutions(grid: Grid, nonlinearities, bdatas, u0s=None,
                         theta: float = 0.5) -> tuple:
    """Semilinear solves of k data columns, one nonlinearity per column, as
    one Newton block, plus the class and a-priori checks.

    Every distinct nonlinearity passes its class check before the solve.
    For a monotone-class nonlinearity a solution's range may not leave its
    data range (up to a solver tolerance); a configured sup_bound is enforced
    unconditionally.  Violations raise rather than warn: they mean the
    computed solution left the regime the estimates cover.  Returns
    `solve_semilinear_many`'s (solutions, iterations): the real block of the
    k solutions, one row per column, and each column's Newton iterations.
    """
    nonlinearities = list(nonlinearities)
    for a in {id(a): a for a in nonlinearities}.values():
        a.check_class(grid.n)
    bdatas = list(bdatas)
    u0s = [None] * len(bdatas) if u0s is None else list(u0s)
    solutions, iterations = solve_semilinear_many(grid, nonlinearities, bdatas, u0s, theta,
                                                  warn_incompatible=False)
    for a, bdata, u0, u in zip(nonlinearities, bdatas, u0s, solutions):
        _check_solution(a, u, bdata, u0)
    return solutions, iterations


def semilinear_solution(grid: Grid, a: Nonlinearity, bdata: BoundaryField,
                        u0=None, theta: float = 0.5) -> ScalarField:
    """Semilinear solve plus the class and a-priori checks: the one-column
    call of `semilinear_solutions`."""
    return ScalarField(grid, semilinear_solutions(grid, [a], [bdata], [u0], theta)[0][0])


def _space_time(grid: Grid) -> tuple:
    """The coordinates (*x, t) of the field's points, broadcastable to its
    shape."""
    coords = tuple(c[None] for c in grid.space_coordinates())
    return coords + (grid.ts.reshape((grid.nt,) + (1,) * grid.n),)


def linearized_potential(grid: Grid, a: Nonlinearity, bdata: BoundaryField,
                         u0=None, theta: float = 0.5,
                         solution: ScalarField | None = None) -> Potential:
    """da/du along the semilinear solution: the frozen potential of the
    derivative map."""
    if solution is None:
        solution = semilinear_solution(grid, a, bdata, u0, theta)
    return Potential(grid, np.array(a.du(*_space_time(grid), solution.values.real)))


def frechet_dtn(grid: Grid, a: Nonlinearity, bdata: BoundaryField,
                h: BoundaryField, u0=None, h0=None, theta: float = 0.5,
                solution: ScalarField | None = None) -> BoundaryField:
    """Derivative of the semilinear boundary map at bdata, in direction h.

    Solves the linear problem with the frozen potential and data (h0, h) and
    returns its Neumann trace.
    """
    p = linearized_potential(grid, a, bdata, u0, theta, solution)
    v = solve_forward(grid, p, h, h0, None, theta, warn_incompatible=False)
    return neumann_trace(v)


def fd_frechet_report(grid: Grid, a: Nonlinearity, bdata: BoundaryField,
                      h: BoundaryField, epsilons, u0=None, h0=None,
                      theta: float = 0.5) -> dict:
    """Finite-difference consistency of the derivative map.

    err(eps) = max |(N(g + eps h) - N(g))/eps - N'(g)h| should shrink at
    first order; the fitted log-log slope is returned alongside the table.
    """
    epsilons = [float(e) for e in epsilons]
    if len(epsilons) < 2:
        raise ConfigError("need at least two step sizes")
    perturbed, perturbed0 = [], []
    for eps in epsilons:
        perturbed.append(BoundaryField(grid, bdata.values + eps * h.values))
        pu0 = None
        if u0 is not None or h0 is not None:
            base0 = np.zeros(grid.space_shape) if u0 is None else np.asarray(u0)
            dir0 = np.zeros(grid.space_shape) if h0 is None else np.asarray(h0)
            pu0 = base0 + eps * dir0
        perturbed0.append(pu0)
    # the base datum and every perturbed datum share a: one Newton block
    base_solution, *solutions = (ScalarField(grid, u) for u in semilinear_solutions(
        grid, [a] * (1 + len(perturbed)), [bdata] + perturbed, [u0] + perturbed0, theta)[0])
    base_trace = neumann_trace(base_solution)
    deriv = frechet_dtn(grid, a, bdata, h, u0, h0, theta, solution=base_solution)
    errs = []
    for eps, solution in zip(epsilons, solutions):
        fd = (neumann_trace(solution).values - base_trace.values) / eps
        errs.append(float(np.abs(fd - deriv.values).max()))
    slope = float(np.polyfit(np.log(epsilons), np.log(errs), 1)[0])
    return {"eps": epsilons, "err": errs, "slope": slope}


class SemilinearOracle:
    """Measurement side of nonlinearity recovery.

    Holds the hidden nonlinearity and hands out the potentials of constant
    data levels s (da/du along the level-s solution), solved at theta.  The
    recovery measures the derivative map around g = s through
    `reconstruct.reconstructions`, whose oracles add this calibrated noise
    at every level.
    """

    def __init__(self, grid: Grid, a: Nonlinearity, theta: float = 0.5,
                 noise_delta: float = 0.0, noise_seed: int = 0):
        self.grid = grid
        self._a = a
        self.theta = theta
        self.noise_delta = float(noise_delta)
        self.noise_seed = int(noise_seed)

    def level_potentials(self, levels, reference: Nonlinearity | None = None) -> list:
        """The potentials of the hidden nonlinearity at the levels and then,
        given a reference nonlinearity, the reference's at the same levels,
        all solved as one block."""
        columns = [(self._a, s) for s in levels]
        if reference is not None:
            columns += [(reference, s) for s in levels]
        return _level_potentials(self.grid, columns, self.theta)


def _level_potentials(grid: Grid, columns, theta: float) -> list:
    """linearized_potential of a at the constant level s for each column
    (a, s), the columns solved as one block.  Every level is checked against
    its nonlinearity's level_bound before any solve.  The solutions fill one
    real block, and each row becomes its column's potential in place: a'(u)
    is written over u, and the potential wraps the row."""
    for a, s in columns:
        if abs(s) > a.level_bound + 1e-12:
            raise ConfigError(f"level {s} outside the admissible range "
                              f"[-{a.level_bound}, {a.level_bound}] of {a.name!r}")
    nonlinearities = [a for a, _ in columns]
    bdatas = [BoundaryField.constant(grid, float(s)) for _, s in columns]
    u0s = [np.full(grid.space_shape, float(s)) for _, s in columns]
    block, _ = semilinear_solutions(grid, nonlinearities, bdatas, u0s, theta)
    where = _space_time(grid)
    potentials = []
    for a, row in zip(nonlinearities, block):
        row[...] = a.du(*where, row)
        potentials.append(Potential(grid, row))
    return potentials


def _window_average(grid: Grid, values: np.ndarray, layers: int) -> float:
    """Average over the earliest time window [0, layers*ht] and all of space."""
    k_hi = min(layers, grid.nt - 1)
    wt = np.full(k_hi + 1, grid.ht)
    wt[0] *= 0.5
    wt[-1] *= 0.5
    wx = grid.space_weights
    window = values[: k_hi + 1].real
    total = float((wt.reshape((-1,) + (1,) * grid.n) * wx[None] * window).sum())
    return total / (wt.sum() * wx.sum())


def _cutoff_gain(grid: Grid, cfg: ReconstructionConfig, radius: float,
                 layers: int) -> float:
    """Window average of the pipeline's own low-pass applied to the constant
    1 field: the normalization for reading constants off an estimate."""
    freq = build_frequency_grid(grid, radius, cfg.mode, cfg.direction(grid.n),
                                cfg.half_width)
    exact_slice_values(grid, np.ones(grid.field_shape), freq)
    low, _ = invert_written(grid, *freq.to_coefficients(cfg.use_hermitian))
    gain = _window_average(grid, low.values, layers)
    if abs(gain) < 1e-8:
        raise SolverError("cutoff annihilates constants; widen the frequency ball")
    return gain


def _level_args(n: int, s: float) -> tuple:
    return tuple(np.full(1, 0.5) for _ in range(n)) + (0.0, np.full(1, float(s)))


def recover_nonlinearity(data: SemilinearOracle, a_ref: Nonlinearity, levels,
                         cfg: ReconstructionConfig, *,
                         truth: Nonlinearity | None = None,
                         window_layers: int = 3) -> dict:
    """Level-by-level recovery of the nonlinearity against a known reference.

    Per level s: reconstruct the difference of linearized potentials on the
    cylinder, average it over the earliest reliable window, and normalize by
    the cutoff's gain on constants.  The result estimates a'(s) - ref'(s);
    adding ref' and integrating in s from the anchor a(0)=0 yields the value
    table.  With the truth supplied, sup errors over the levels are reported.
    The data's theta, at which the levels are solved, must be cfg.theta.
    """
    grid = data.grid
    levels = [float(s) for s in levels]
    if not levels:
        raise ConfigError("need at least one level")
    if data.theta != cfg.theta:
        raise ConfigError(f"data theta {data.theta} differs from cfg.theta {cfg.theta}")
    if window_layers < 0:
        raise ConfigError(f"window_layers must be >= 0, got {window_layers}")
    # the truth's and the reference's levels form one Newton block
    potentials = data.level_potentials(levels, a_ref)
    runs = [(p_true, p_ref, data.noise_delta)
            for p_true, p_ref in zip(potentials[:len(levels)], potentials[len(levels):])]
    rows = []
    gain = None
    for s, res in zip(levels, reconstructions(grid, runs, cfg, data.noise_seed)):
        if res.trivial:
            raw, d_prime = 0.0, 0.0
        else:
            if gain is None:
                gain = _cutoff_gain(grid, cfg, res.R, window_layers)
            raw = _window_average(grid, res.estimate.values, window_layers)
            d_prime = raw / gain
        ref_prime = float(a_ref.du(*_level_args(grid.n, s))[0])
        row = {
            "s": s,
            "d_prime": d_prime,
            "a_prime": ref_prime + d_prime,
            "raw_window": raw,
            "gain": gain if gain is not None else 1.0,
            "delta": res.delta,
            "rho": res.rho,
            "R": res.R,
        }
        if truth is not None:
            row["truth_prime"] = float(truth.du(*_level_args(grid.n, s))[0])
            row["truth_value"] = float(truth.value(*_level_args(grid.n, s))[0])
        rows.append(row)

    # integrate a' from the anchor a(0)=0 along the sorted levels
    order = np.argsort(levels)
    s_sorted = np.array(levels)[order]
    prime_sorted = np.array([rows[i]["a_prime"] for i in order])
    if 0.0 in s_sorted:
        s_nodes, p_nodes = s_sorted, prime_sorted
    else:
        at_zero = float(np.interp(0.0, s_sorted, prime_sorted))
        augmented = np.argsort(np.append(s_sorted, 0.0))
        s_nodes = np.append(s_sorted, 0.0)[augmented]
        p_nodes = np.append(prime_sorted, at_zero)[augmented]
    cumulative = np.concatenate(
        [[0.0], np.cumsum(0.5 * (p_nodes[1:] + p_nodes[:-1]) * np.diff(s_nodes))]
    )
    anchor = cumulative[np.where(s_nodes == 0.0)[0][0]]
    values_at = {s: c - anchor for s, c in zip(s_nodes, cumulative)}
    for row in rows:
        row["a_value"] = float(values_at[row["s"]])

    report = {"rows": rows, "window_layers": window_layers}
    if truth is not None:
        report["sup_prime_error"] = max(
            abs(r["a_prime"] - r["truth_prime"]) for r in rows
        )
        report["sup_value_error"] = max(
            abs(r["a_value"] - r["truth_value"]) for r in rows
        )
    return report


def semilinear_stability_sweep(grid: Grid, family, a_ref: Nonlinearity,
                               level: float, cfg: ReconstructionConfig,
                               modulus: ModulusParams, *, initial_modes: int = 2) -> dict:
    """Sup-norm recovery error of the linearized-potential difference vs the
    measured distance of the extended derivative maps, fitted to a modulus.

    The extended-map distance includes initial-data modes in the input basis.
    Its weighted-basis operator norm stands in for a quotient norm that has
    no computable form; every report carries the weighted_surrogate flag to
    make the substitution explicit.  Solves and maps run at cfg.theta and the
    bases take cfg's sizes.  Each member is a run (p_true, p_ref, 0.0) of
    `reconstruct.reconstructions`, whose oracle carries cfg's masks and is
    asked the extended question, on the faces within the masks, beside its
    estimate; the extended distance is the result's `extended_delta`.
    """
    if len(family) < 2:
        raise ConfigError("degenerate sweep: need at least 2 family members")
    # the reference's level and every member's level form one Newton block
    p_ref, *p_trues = _level_potentials(
        grid, [(a, level) for a in [a_ref, *family]], cfg.theta)
    records = []
    runs = [(p_true, p_ref, 0.0) for p_true in p_trues]
    for p_true, res in zip(p_trues, reconstructions(grid, runs, cfg,
                                                    initial_modes=initial_modes)):
        err = float(np.abs(res.estimate.values.real
                           - (p_true.values - p_ref.values)).max())
        records.append({"delta": res.extended_delta, "err": err, "rho": res.rho, "R": res.R})
    c_fit, used = fit_modulus_constant([r["delta"] for r in records],
                                       [r["err"] for r in records], modulus)
    return {
        "records": records,
        "fit_constant": c_fit,
        "fit_used": used,
        "modulus_family": modulus.family,
        "modulus_s": modulus.s,
        "weighted_surrogate": True,
    }
