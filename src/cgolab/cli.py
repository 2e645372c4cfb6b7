"""Batch experiment runner.

Every subcommand reads one JSON config (strict schema: unknown keys are
rejected, defaults fill the rest), computes with seeds derived from the
config, and writes CSV/JSON/SVG artifacts plus a manifest naming every
emitted file with its SHA-256.  Identical (config, seed) gives byte-identical
outputs.  Exit codes: 0 success, 2 config problems, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from ._svg import write_line_chart
from .carleman import carleman_report, sample_family
from .cgo import remainder_decay_report
from .dtn import (
    DtnBasis,
    DtnOracle,
    assemble_dtn_matrix,
    operator_norm,
    pairing_volume,
    save_field,
)
from .errors import ConfigError, SolverError
from .fields import BoundaryField, Potential, ScalarField
from .forward import neumann_trace, solve_forward
from .grid import Grid, build_grid, unit_direction
from .norms import ModulusParams
from .reconstruct import (
    ReconstructionConfig,
    measurement_oracle,
    reconstruct,
    stability_sweep,
)
from .semilinear import (Nonlinearity, SemilinearOracle, recover_nonlinearity,
                         semilinear_solutions)

__all__ = ["ExperimentConfig", "main", "run"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# field spec: (type tag, default).  Tags: int, "positive_int", float, bool,
# str, "number_or_auto", "<tag>_list" for a list whose every entry has that
# tag, "nonempty_<tag>_list", and "opt_<tag>" for nullable.
SCHEMA = {
    "seed": ("int", 0),
    "out_dir": ("str", "cgolab-out"),
    "threads": ("positive_int", 1),
    "grid": {
        "n": ("int", 1),
        "nx": ("int", 33),
        "nt": ("int", 33),
        "T": ("float", 1.0),
    },
    "potential": {
        "family": ("str", "sine"),
        "amplitude": ("float", 0.3),
        "value": ("float", 0.0),
        "space": ("int_list", [1]),
        "time": ("int", 1),
        "bound": ("opt_float", None),
    },
    "potential_ref": {
        "family": ("str", "zero"),
        "amplitude": ("float", 0.0),
        "value": ("float", 0.0),
        "space": ("int_list", [1]),
        "time": ("int", 0),
        "bound": ("opt_float", None),
    },
    "data": {
        "family": ("str", "time_sine"),
        "amplitude": ("float", 1.0),
        "time": ("int", 1),
        "face": ("int", 0),
        "space": ("int", 1),
        "value": ("float", 0.0),
    },
    "reconstruct": {
        "s": ("float", 0.15),
        "mode": ("str", "full"),
        "rho": ("number_or_auto", "auto"),
        "R": ("opt_float", None),
        "c": ("opt_float", None),
        "rho_floor": ("float", 2.05),
        "probe_delta": ("float", 0.25),
        "base_direction": ("opt_float_list", None),
        "half_width": ("float", 0.3),
        "mask_delta": ("float", 0.3),
        "basis_j_max": ("opt_int", None),
        "basis_k_max": ("opt_int", None),
        "use_hermitian": ("bool", True),
        "theta": ("float", 0.5),
        "measure_delta": ("bool", True),
    },
    "noise": {
        "delta": ("float", 0.0),
        "seed": ("opt_int", None),
    },
    "sweep": {
        "kind": ("str", "noise"),
        "noise_levels": ("float_list", [5e-2, 1.3e-2, 3.6e-3, 9.6e-4, 2.6e-4, 5e-5]),
        "pair_scales": ("float_list", [1.0, 0.5, 0.25, 0.125, 0.0625]),
        "modulus_family": ("str", "single_log"),
        "modulus_s": ("float", 0.15),
        "modulus_rho_max": ("float", math.exp(-2)),
    },
    "carleman": {
        "rhos": ("nonempty_float_list", [4.0, 8.0, 16.0, 32.0]),
        "samples": ("positive_int", 20),
        "epsilon": ("int", 1),
        "omega": ("opt_float_list", None),
    },
    "cgo": {
        "xi": ("opt_float_list", None),
        "tau": ("float", 0.0),
        "rhos": ("float_list", [4.0, 6.0, 8.0, 10.0]),
        "delta": ("float", 0.25),
        "omega": ("opt_float_list", None),
    },
    "pairing": {
        "cases": ("positive_int", 10),
        "bound": ("float", 1.0),
        "threshold": ("float", 0.05),
    },
    "dtn": {
        "j_max": ("opt_int", None),
        "k_max": ("opt_int", None),
        "initial_modes": ("int", 0),
    },
    "semilinear": {
        "family": ("str", "linear"),
        "slope": ("float", 1.0),
        "cubic": ("float", 0.0),
        "ref_family": ("str", "linear"),
        "ref_slope": ("float", 0.5),
        "ref_cubic": ("float", 0.0),
        "levels": ("float_list", [-0.5, 0.0, 0.5]),
        "level_bound": ("float", 1.0),
        "window_layers": ("int", 3),
    },
}


def _check_leaf(tag: str, value, path: str):
    if tag.startswith("opt_"):
        if value is None:
            return None
        tag = tag[4:]
    if tag in ("int", "positive_int"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        if tag == "positive_int" and value < 1:
            raise ConfigError(f"{path}: expected an integer >= 1, got {value!r}")
        return value
    if tag == "number_or_auto" and value == "auto":
        return "auto"
    if tag in ("float", "number_or_auto"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            what = "a number" if tag == "float" else "a number or 'auto'"
            raise ConfigError(f"{path}: expected {what}, got {value!r}")
        # json reads NaN and Infinity, and a comparison with NaN is never true;
        # an integer past float's range is as unusable
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return number
    if tag == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true/false, got {value!r}")
        return value
    if tag == "str":
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    if tag.endswith("_list"):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        if tag.startswith("nonempty_") and not value:
            raise ConfigError(f"{path}: expected at least one entry")
        # each entry is checked, and kept as it was given
        entry = tag.removeprefix("nonempty_").removesuffix("_list")
        for i, item in enumerate(value):
            _check_leaf(entry, item, f"{path}[{i}]")
        return list(value)
    raise AssertionError(f"unknown schema tag {tag}")


def _filled(spec, given: dict, key: str, path: str):
    """given[key] checked against the (tag, default) spec, or a copy of the
    default, which no config may share with the schema or another config."""
    tag, default = spec
    return _check_leaf(tag, given[key], path) if key in given else copy.deepcopy(default)


class ExperimentConfig:
    """Validated, default-filled experiment description."""

    def __init__(self, raw: dict | None = None):
        raw = {} if raw is None else raw
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        data = {}
        for key in raw:
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
        for key, spec in SCHEMA.items():
            if isinstance(spec, dict):
                section = raw.get(key, {})
                if not isinstance(section, dict):
                    raise ConfigError(f"{key}: expected an object")
                for sub in section:
                    if sub not in spec:
                        raise ConfigError(f"unknown config key {key}.{sub!r}")
                data[key] = {sub: _filled(leaf, section, sub, f"{key}.{sub}")
                             for sub, leaf in spec.items()}
            else:
                data[key] = _filled(spec, raw, key, key)
        self.data = data

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls(raw)

    def __getitem__(self, key):
        return self.data[key]


def _build_grid(cfg: ExperimentConfig) -> Grid:
    g = cfg["grid"]
    return build_grid(g["n"], g["nx"], g["nt"], g["T"])


def _build_potential(grid: Grid, section: dict) -> Potential:
    fam = section["family"]
    if fam == "zero":
        return Potential.zero(grid)
    if fam == "constant":
        return Potential(grid, np.full(grid.field_shape, section["value"]))
    if fam == "sine":
        space = [int(j) for j in section["space"]]
        if len(space) != grid.n:
            raise ConfigError(
                f"potential.space needs {grid.n} entries, got {len(space)}"
            )
        k = int(section["time"])

        def profile(*args):
            if grid.n == 1:
                x, t = args
                out = np.sin(space[0] * math.pi * x) if space[0] else np.ones_like(x)
            else:
                x, y, t = args
                out = np.sin(space[0] * math.pi * x) if space[0] else np.ones_like(x)
                out = out * (np.sin(space[1] * math.pi * y) if space[1] else 1.0)
            if k:
                out = out * np.sin(k * math.pi * t / grid.T)
            return section["amplitude"] * out

        return Potential.from_callable(grid, profile, m=section["bound"])
    raise ConfigError(f"unknown potential family {fam!r}")


def _build_bdata(grid: Grid, section: dict) -> BoundaryField:
    fam = section["family"]
    if fam == "zero":
        return BoundaryField.zeros(grid)
    if fam == "constant":
        return BoundaryField.constant(grid, section["value"])
    if fam == "time_sine":
        k = max(1, int(section["time"]))
        vals = section["amplitude"] * np.sin(
            k * math.pi * grid.ts / grid.T
        )[:, None] * np.ones((1, grid.n_boundary))
        return BoundaryField(grid, vals)
    if fam == "face_sine":
        fid = int(section["face"])
        if not 0 <= fid < len(grid.faces):
            raise ConfigError(f"data.face {fid} out of range")
        j = max(1, int(section["space"]))
        k = max(1, int(section["time"]))
        on_face = grid.boundary_face == fid
        axis = grid.faces[fid].axis
        profile = np.ones(grid.n_boundary)
        if grid.n == 2:
            along = grid.boundary_points[:, 1 - axis]
            profile = np.sin(j * math.pi * along)
        tfac = np.sin(k * math.pi * grid.ts / grid.T)
        vals = section["amplitude"] * tfac[:, None] * (profile * on_face)[None, :]
        return BoundaryField(grid, vals)
    raise ConfigError(f"unknown data family {fam!r}")


def _build_nonlinearity(section: dict, which: str) -> Nonlinearity:
    fam = section[f"{which}family" if which else "family"]
    slope = section[f"{which}slope" if which else "slope"]
    cubic = section[f"{which}cubic" if which else "cubic"]
    bound = section["level_bound"]
    if fam == "zero":
        return Nonlinearity.from_u(
            lambda u: 0.0 * u, lambda u: 0.0 * u,
            name="zero", monotone=True, level_bound=bound,
        )
    if fam == "linear":
        return Nonlinearity.from_u(
            lambda u: slope * u, lambda u: slope + 0.0 * u,
            name=f"linear({slope:g})", monotone=slope >= 0, level_bound=bound,
        )
    if fam == "cubic":
        return Nonlinearity.from_u(
            lambda u: slope * u + cubic * u**3,
            lambda u: slope + 3 * cubic * u**2,
            name=f"cubic({slope:g},{cubic:g})",
            monotone=slope >= 0 and cubic >= 0,
            level_bound=bound,
        )
    raise ConfigError(f"unknown nonlinearity family {fam!r}")


def _recon_config(cfg: ExperimentConfig) -> ReconstructionConfig:
    sec = dict(cfg["reconstruct"])
    if sec["base_direction"] is not None:
        sec["base_direction"] = tuple(float(v) for v in sec["base_direction"])
    return ReconstructionConfig(**sec)


def _modulus(cfg: ExperimentConfig, grid: Grid) -> ModulusParams:
    s = cfg["sweep"]
    return ModulusParams(s["modulus_family"], s["modulus_s"], grid.n,
                         s["modulus_rho_max"])


def _fmt_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12e" % float(value)
    return str(value)


class _Emitter:
    """Collects artifacts; creates the output directory on first write.

    The first write also removes a manifest left in the directory by an
    earlier run, so a run that fails part way leaves no manifest vouching for
    its partial files."""

    def __init__(self, out_dir: Path):
        self.out = Path(out_dir)
        self.files = []

    def _path(self, name: str) -> Path:
        if not self.files:
            self.out.mkdir(parents=True, exist_ok=True)
            (self.out / "manifest.json").unlink(missing_ok=True)
        self.files.append(name)
        return self.out / name

    def csv(self, name: str, header, rows) -> None:
        with open(self._path(name), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt_cell(v) for v in row])

    def json(self, name: str, payload) -> None:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        self._path(name).write_text(text, encoding="utf-8")

    def svg(self, name: str, series, **kwargs) -> None:
        write_line_chart(self._path(name), series, **kwargs)

    def field(self, name: str, fld: ScalarField) -> None:
        save_field(self._path(name), fld)

    def raw(self, name: str, writer) -> None:
        writer(self._path(name))

    def manifest(self, command: str, cfg: ExperimentConfig) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        hashes = {}
        for rel in sorted(self.files):
            digest = hashlib.sha256((self.out / rel).read_bytes()).hexdigest()
            hashes[rel] = digest
        payload = {"command": command, "config": cfg.data, "files": hashes}
        (self.out / "manifest.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def _emit_solution(emit: _Emitter, u: ScalarField) -> None:
    """A solution's field and the real part of its Neumann trace by time."""
    grid = u.grid
    trace = neumann_trace(u)
    emit.field("solution.field", u)
    emit.csv(
        "neumann_trace.csv",
        ["t"] + [f"p{i:04d}" for i in range(grid.n_boundary)],
        [[t] + list(trace.values[k].real) for k, t in enumerate(grid.ts)],
    )


def _cmd_forward(cfg: ExperimentConfig, emit: _Emitter) -> dict:
    grid = _build_grid(cfg)
    q = _build_potential(grid, cfg["potential"])
    g = _build_bdata(grid, cfg["data"])
    theta = cfg["reconstruct"]["theta"]
    u = solve_forward(grid, q, g, None, None, theta)
    _emit_solution(emit, u)
    return {"max_abs": u.max_abs(), "l2": u.l2_norm()}


def _cmd_dtn(cfg: ExperimentConfig, emit: _Emitter) -> dict:
    grid = _build_grid(cfg)
    q = _build_potential(grid, cfg["potential"])
    sec = cfg["dtn"]
    basis = DtnBasis(grid, sec["j_max"], sec["k_max"],
                     initial_modes=sec["initial_modes"])
    out_basis = basis
    if sec["initial_modes"]:
        out_basis = DtnBasis(grid, sec["j_max"], sec["k_max"])
    theta = cfg["reconstruct"]["theta"]
    matrix = assemble_dtn_matrix(grid, q, basis, out_basis, theta)
    emit.raw("dtn_matrix.dtn", matrix.save)
    return {
        "rows": matrix.matrix.shape[0],
        "cols": matrix.matrix.shape[1],
        "operator_norm": operator_norm(matrix),
    }


def _random_potential(grid: Grid, rng, bound: float) -> Potential:
    coeffs = rng.uniform(-1.0, 1.0, size=3)
    modes = [(1, 1), (2, 1), (1, 2)]

    def profile(*args):
        t = args[-1]
        out = 0.0
        for c, (jx, kt) in zip(coeffs, modes):
            space = np.sin(jx * math.pi * args[0])
            if grid.n == 2:
                space = space * np.sin(jx * math.pi * args[1])
            out = out + c * space * np.sin(kt * math.pi * t / grid.T)
        return out

    f = ScalarField.from_callable(grid, profile)
    peak = max(np.abs(f.values.real).max(), 1e-12)
    return Potential(grid, bound * f.values.real / peak, m=bound)


def _random_bdata(grid: Grid, rng) -> BoundaryField:
    basis = DtnBasis(grid)
    coeffs = rng.standard_normal(basis.lateral_size) / math.sqrt(basis.lateral_size)
    return basis.synthesize(coeffs)


def _cmd_pairing_check(cfg: ExperimentConfig, emit: _Emitter) -> dict:
    grid = _build_grid(cfg)
    sec = cfg["pairing"]
    theta = cfg["reconstruct"]["theta"]
    rng = np.random.default_rng(cfg["seed"])
    # draw all inputs up front so the worker pool cannot disturb the stream
    cases = [
        (
            _random_potential(grid, rng, sec["bound"]),
            _random_potential(grid, rng, sec["bound"]),
            _random_bdata(grid, rng),
            _random_bdata(grid, rng),
        )
        for _ in range(sec["cases"])
    ]

    def evaluate(inputs):
        q, q_ref, g, h = inputs
        lhs = DtnOracle(grid, q, theta=theta).pair_against(q_ref, g, h)
        rhs = pairing_volume(grid, q, q_ref, g, h, theta)
        return lhs, rhs, abs(lhs - rhs) / max(abs(rhs), 1e-300)

    workers = cfg["threads"]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(evaluate, cases))
    else:
        results = [evaluate(c) for c in cases]
    rows = [
        [case, lhs.real, lhs.imag, rhs.real, rhs.imag, gap]
        for case, (lhs, rhs, gap) in enumerate(results)
    ]
    worst = max(r[5] for r in rows)
    emit.csv(
        "pairing.csv",
        ["case", "boundary_re", "boundary_im", "volume_re", "volume_im", "rel_gap"],
        rows,
    )
    if worst > sec["threshold"]:
        raise SolverError(
            f"pairing identity violated: worst relative gap {worst:.3e} exceeds "
            f"{sec['threshold']:.3e}"
        )
    return {"cases": sec["cases"], "worst_rel_gap": worst}


def _cmd_cgo_check(cfg: ExperimentConfig, emit: _Emitter) -> dict:
    grid = _build_grid(cfg)
    q = _build_potential(grid, cfg["potential"])
    sec = cfg["cgo"]
    xi = np.zeros(grid.n) if sec["xi"] is None else np.asarray(sec["xi"], float)
    omega = None if sec["omega"] is None else np.asarray(sec["omega"], float)
    report = remainder_decay_report(
        grid, q, xi, sec["tau"], sec["rhos"], omega, sec["delta"],
        cfg["reconstruct"]["theta"],
    )
    emit.csv(
        "cgo_decay.csv",
        ["rho", "w_plus", "w_minus", "residual_plus", "residual_minus"],
        list(
            zip(
                report["rho"], report["w_plus"], report["w_minus"],
                report["residual_plus"], report["residual_minus"],
            )
        ),
    )
    emit.svg(
        "cgo_decay.svg",
        [
            {"label": "forward remainder", "x": report["rho"], "y": report["w_plus"]},
            {"label": "backward remainder", "x": report["rho"], "y": report["w_minus"]},
        ],
        title="remainder decay",
        x_label="rho",
        y_label="L2 norm",
        log_x=True,
        log_y=True,
    )
    return {"slope_plus": report["slope_plus"], "slope_minus": report["slope_minus"]}


def _cmd_carleman_check(cfg: ExperimentConfig, emit: _Emitter) -> dict:
    grid = _build_grid(cfg)
    q = _build_potential(grid, cfg["potential"])
    sec = cfg["carleman"]
    omega = unit_direction(sec["omega"], grid.n)
    samples = sample_family(grid, sec["samples"], cfg["seed"], sec["epsilon"])
    report = carleman_report(grid, q, omega, sec["rhos"], samples, sec["epsilon"])
    emit.raw("carleman.csv", report.to_csv)
    emit.raw("poincare.csv", report.poincare_to_csv)
    maxima = [report.max_ratio_at(float(r)) for r in sec["rhos"]]
    emit.svg(
        "carleman.svg",
        [{"label": "max ratio", "x": [float(r) for r in sec["rhos"]], "y": maxima}],
        title="weighted-inequality ratio",
        x_label="rho",
        y_label="max lhs/rhs",
        log_x=True,
    )
    return {"max_ratio": report.max_ratio, "max_by_rho": maxima}


def _noise_seed(cfg: ExperimentConfig) -> int:
    """The noise seed, by default the config seed."""
    seed = cfg["noise"]["seed"]
    return cfg["seed"] if seed is None else seed


def _truth_and_reference(grid: Grid, cfg: ExperimentConfig) -> tuple:
    """The truth and reference potentials; a reference section equal to the
    truth's is the truth, built once."""
    truth = _build_potential(grid, cfg["potential"])
    if cfg["potential_ref"] == cfg["potential"]:
        return truth, truth
    return truth, _build_potential(grid, cfg["potential_ref"])


def _cmd_reconstruct(cfg: ExperimentConfig, emit: _Emitter) -> dict:
    grid = _build_grid(cfg)
    truth, ref = _truth_and_reference(grid, cfg)
    rcfg = _recon_config(cfg)
    oracle = measurement_oracle(grid, truth, rcfg, cfg["noise"]["delta"], _noise_seed(cfg))
    res = reconstruct(oracle, ref, rcfg, truth=truth)
    emit.field("estimate.field", res.estimate)
    emit.csv(
        "slices.csv",
        ["index", "xi", "tau", "feasible", "value_re", "value_im"],
        [
            [
                " ".join(str(i) for i in nd.index),
                " ".join("%.12e" % v for v in nd.xi.tolist()),
                nd.tau,
                nd.feasible,
                complex(nd.value).real,
                complex(nd.value).imag,
            ]
            for nd in res.frequencies.probed(res.hermitian)
        ],
    )
    return {
        "delta": res.delta,
        "rho": res.rho,
        "R": res.R,
        "trivial": res.trivial,
        "saturated": res.saturated,
        "imag_residue": res.imag_residue,
        "error": res.error,
    }


def _cmd_stability_sweep(cfg: ExperimentConfig, emit: _Emitter) -> dict:
    grid = _build_grid(cfg)
    truth, ref = _truth_and_reference(grid, cfg)
    rcfg = _recon_config(cfg)
    modulus = _modulus(cfg, grid)
    sec = cfg["sweep"]
    if sec["kind"] == "noise":
        result = stability_sweep(
            grid, ref, rcfg, modulus,
            noise_levels=[float(v) for v in sec["noise_levels"]],
            noise_truth=truth, noise_seed=_noise_seed(cfg),
        )
    elif sec["kind"] == "pairs":
        scales = [float(v) for v in sec["pair_scales"]]
        base = truth.values - ref.values
        truths = [
            Potential(grid, ref.values + s * base, m=None) for s in scales
        ]
        result = stability_sweep(grid, ref, rcfg, modulus, pair_truths=truths)
    else:
        raise ConfigError(f"unknown sweep kind {sec['kind']!r}")
    records = result["records"]
    emit.csv(
        "sweep.csv",
        ["delta", "err", "rho", "R", "trivial"],
        [
            [r.delta, r.err, r.params["rho"], r.params["R"], r.params["trivial"]]
            for r in records
        ],
    )
    positive = [(r.delta, r.err) for r in records if r.delta > 0 and r.err > 0]
    if positive:
        emit.svg(
            "sweep.svg",
            [
                {
                    "label": "reconstruction error",
                    "x": [p[0] for p in positive],
                    "y": [p[1] for p in positive],
                }
            ],
            title="stability sweep",
            x_label="data distance",
            y_label="negative-order error",
            log_x=True,
            log_y=True,
        )
    return {
        "fit_constant": result["fit_constant"],
        "fit_used": result["fit_used"],
        "modulus_family": result["modulus_family"],
    }


def _cmd_semilinear(cfg: ExperimentConfig, emit: _Emitter) -> dict:
    grid = _build_grid(cfg)
    a = _build_nonlinearity(cfg["semilinear"], "")
    g = _build_bdata(grid, cfg["data"])
    solutions, iterations = semilinear_solutions(grid, [a], [g], None,
                                                 cfg["reconstruct"]["theta"])
    u = ScalarField(grid, solutions[0])
    _emit_solution(emit, u)
    return {"max_abs": u.max_abs(), "max_newton_iterations": max(iterations[0], default=0)}


def _cmd_recover_nonlinearity(cfg: ExperimentConfig, emit: _Emitter) -> dict:
    grid = _build_grid(cfg)
    sec = cfg["semilinear"]
    a_true = _build_nonlinearity(sec, "")
    a_ref = _build_nonlinearity(sec, "ref_")
    rcfg = _recon_config(cfg)
    data = SemilinearOracle(grid, a_true, theta=rcfg.theta,
                            noise_delta=cfg["noise"]["delta"],
                            noise_seed=_noise_seed(cfg))
    report = recover_nonlinearity(
        data, a_ref, [float(s) for s in sec["levels"]], rcfg,
        truth=a_true, window_layers=sec["window_layers"],
    )
    rows = report["rows"]
    emit.csv(
        "nonlinearity.csv",
        ["s", "a_prime", "a_value", "truth_prime", "truth_value", "d_prime",
         "raw_window", "gain"],
        [
            [r["s"], r["a_prime"], r["a_value"], r["truth_prime"],
             r["truth_value"], r["d_prime"], r["raw_window"], r["gain"]]
            for r in rows
        ],
    )
    emit.svg(
        "nonlinearity.svg",
        [
            {"label": "recovered a'", "x": [r["s"] for r in rows],
             "y": [r["a_prime"] for r in rows]},
            {"label": "true a'", "x": [r["s"] for r in rows],
             "y": [r["truth_prime"] for r in rows]},
        ],
        title="recovered derivative by level",
        x_label="level s",
        y_label="a'(s)",
    )
    return {
        "sup_prime_error": report["sup_prime_error"],
        "sup_value_error": report["sup_value_error"],
    }


HANDLERS = {
    "forward": _cmd_forward,
    "dtn": _cmd_dtn,
    "pairing-check": _cmd_pairing_check,
    "cgo-check": _cmd_cgo_check,
    "carleman-check": _cmd_carleman_check,
    "reconstruct": _cmd_reconstruct,
    "stability-sweep": _cmd_stability_sweep,
    "semilinear": _cmd_semilinear,
    "recover-nonlinearity": _cmd_recover_nonlinearity,
}


def _module_tag(exc: BaseException) -> str:
    tag = "cli"
    tb = exc.__traceback__
    while tb is not None:
        parts = Path(tb.tb_frame.f_code.co_filename).parts
        if "cgolab" in parts:
            tag = Path(tb.tb_frame.f_code.co_filename).stem
        tb = tb.tb_next
    return tag


def run(command: str, cfg: ExperimentConfig, out_dir=None) -> dict:
    """Run one subcommand programmatically; returns its summary dict."""
    if command not in HANDLERS:
        raise ConfigError(f"unknown subcommand {command!r}")
    emit = _Emitter(Path(out_dir if out_dir is not None else cfg["out_dir"]))
    summary = HANDLERS[command](cfg, emit)
    emit.json("summary.json", summary)
    emit.manifest(command, cfg)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cgolab",
        description="experiment runner for the parabolic coefficient-recovery lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="override worker count")
    args = parser.parse_args(argv)

    try:
        cfg = (
            ExperimentConfig.from_file(args.config)
            if args.config is not None
            else ExperimentConfig()
        )
        if args.seed is not None:
            cfg.data["seed"] = int(args.seed)
        if args.out is not None:
            cfg.data["out_dir"] = str(args.out)
        if args.threads is not None:
            cfg.data["threads"] = _check_leaf(SCHEMA["threads"][0], args.threads, "threads")
    except ConfigError as exc:
        print(f"config error [cli]: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        run(args.command, cfg)
    except (ConfigError, ValueError) as exc:
        print(f"config error [{_module_tag(exc)}]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure [{_module_tag(exc)}]: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
