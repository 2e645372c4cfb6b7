"""Config schema, artifact emission, exit codes, and determinism."""

import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import cgolab
from cgolab import ConfigError, SolverError, build_grid, cli, semilinear
from cgolab.cli import SCHEMA, ExperimentConfig, main, run
from cgolab.dtn import DtnMatrix, load_field
from cgolab.reconstruct import build_frequency_grid

SMALL_GRID = {"grid": {"n": 1, "nx": 17, "nt": 17, "T": 1.0}}


def _write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# schema


def test_defaults_fill_and_round_trip():
    cfg = ExperimentConfig()
    assert cfg["grid"]["nx"] == 33
    assert cfg["reconstruct"]["rho"] == "auto"
    assert cfg["noise"]["seed"] is None
    text = json.dumps(cfg.data, sort_keys=True)
    clone = ExperimentConfig(json.loads(text))
    assert json.dumps(clone.data, sort_keys=True) == text


def test_a_config_owns_its_default_lists():
    cfg = ExperimentConfig()
    cfg["carleman"]["rhos"].append(64.0)
    assert SCHEMA["carleman"]["rhos"][1] == [4.0, 8.0, 16.0, 32.0]
    assert ExperimentConfig()["carleman"]["rhos"] == [4.0, 8.0, 16.0, 32.0]


def test_threads_below_one_are_rejected_where_the_config_is_read(tmp_path):
    for bad in (0, -3):
        with pytest.raises(ConfigError, match="threads: expected an integer >= 1"):
            ExperimentConfig({"threads": bad})
    path = _write_config(tmp_path, {**SMALL_GRID, "pairing": {"cases": 1}, "threads": 0})
    assert main(["pairing-check", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_unknown_keys_are_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        ExperimentConfig({"gird": {}})
    with pytest.raises(ConfigError, match="nxx"):
        ExperimentConfig({"grid": {"nxx": 33}})


def test_leaf_type_validation():
    with pytest.raises(ConfigError, match="expected an integer"):
        ExperimentConfig({"seed": 1.5})
    with pytest.raises(ConfigError, match="expected an integer"):
        ExperimentConfig({"seed": True})
    with pytest.raises(ConfigError, match="expected a number"):
        ExperimentConfig({"grid": {"T": "one"}})
    with pytest.raises(ConfigError, match="expected true/false"):
        ExperimentConfig({"reconstruct": {"use_hermitian": "yes"}})
    with pytest.raises(ConfigError, match="number or 'auto'"):
        ExperimentConfig({"reconstruct": {"rho": "big"}})
    assert ExperimentConfig({"reconstruct": {"rho": 8}})["reconstruct"]["rho"] == 8.0
    assert ExperimentConfig({"noise": {"seed": None}})["noise"]["seed"] is None
    with pytest.raises(ConfigError, match="root"):
        ExperimentConfig([1, 2])


# ---------------------------------------------------------------------------
# artifacts


def test_forward_emits_artifacts_and_valid_manifest(tmp_path):
    cfg = ExperimentConfig(SMALL_GRID)
    summary = run("forward", cfg, tmp_path / "out")
    assert summary["max_abs"] == pytest.approx(1.0)
    out = tmp_path / "out"
    names = {p.name for p in out.iterdir()}
    assert names == {"solution.field", "neumann_trace.csv", "summary.json",
                     "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "forward"
    assert manifest["config"]["grid"]["nx"] == 17
    for name, digest in manifest["files"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert actual == digest
    field = load_field(out / "solution.field")
    assert field.grid.nx == 17
    header = (out / "neumann_trace.csv").read_text().splitlines()[0]
    assert header == "t,p0000,p0001"


def test_semilinear_writes_the_checked_solution_row_bitwise(tmp_path):
    # the command's field file holds the complex64 cast of its one-column
    # solution row, and its iteration count is the most Newton iterations of
    # any step
    cfg = ExperimentConfig({**SMALL_GRID, "semilinear": {"family": "cubic", "cubic": 2.0}})
    summary = run("semilinear", cfg, tmp_path / "out")
    grid = cli._build_grid(cfg)
    solutions, iterations = semilinear.semilinear_solutions(
        grid, [cli._build_nonlinearity(cfg["semilinear"], "")],
        [cli._build_bdata(grid, cfg["data"])], None, cfg["reconstruct"]["theta"])
    payload = (tmp_path / "out" / "solution.field").read_bytes().split(b"\n", 1)[1]
    assert payload == solutions[0].astype(np.complex64).tobytes()
    assert summary["max_newton_iterations"] == max(iterations[0]) >= 2


def test_failed_rerun_leaves_no_stale_manifest(tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg = ExperimentConfig(SMALL_GRID)
    run("forward", cfg, out)
    assert (out / "manifest.json").exists()

    def fails_after_first_artifact(cfg, emit):
        emit.csv("partial.csv", ["x"], [[1.0]])
        raise SolverError("failed part way")

    monkeypatch.setitem(cli.HANDLERS, "forward", fails_after_first_artifact)
    with pytest.raises(SolverError, match="part way"):
        run("forward", cfg, out)
    assert (out / "partial.csv").exists()
    assert not (out / "manifest.json").exists()


def test_dtn_matrix_artifact_is_loadable(tmp_path):
    cfg = ExperimentConfig({**SMALL_GRID, "dtn": {"k_max": 2}})
    summary = run("dtn", cfg, tmp_path / "out")
    m = DtnMatrix.load(tmp_path / "out" / "dtn_matrix.dtn")
    assert m.matrix.shape == (summary["rows"], summary["cols"]) == (10, 10)
    assert summary["operator_norm"] == pytest.approx(38.556, abs=0.01)


def test_pairing_check_passes_at_small_scale(tmp_path):
    cfg = ExperimentConfig({**SMALL_GRID, "pairing": {"cases": 3, "threshold": 0.2}})
    summary = run("pairing-check", cfg, tmp_path / "out")
    assert summary["worst_rel_gap"] < 0.05
    rows = (tmp_path / "out" / "pairing.csv").read_text().splitlines()
    assert rows[0] == "case,boundary_re,boundary_im,volume_re,volume_im,rel_gap"
    assert len(rows) == 4


def test_cgo_check_reports_decay_and_svg(tmp_path):
    cfg = ExperimentConfig({"grid": {"n": 1, "nx": 17, "nt": 65, "T": 1.0}})
    summary = run("cgo-check", cfg, tmp_path / "out")
    assert summary["slope_minus"] < -0.15
    svg = (tmp_path / "out" / "cgo_decay.svg").read_text()
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


@pytest.mark.parametrize("hermitian", [True, False])
def test_reconstruct_emits_slice_table(tmp_path, hermitian):
    cfg = ExperimentConfig({**SMALL_GRID, "reconstruct": {
        "rho": 4.0, "R": 4.0, "measure_delta": False, "basis_k_max": 2,
        "use_hermitian": hermitian}})
    summary = run("reconstruct", cfg, tmp_path / "out")
    assert summary["error"] == pytest.approx(0.0473, abs=2e-3)
    assert summary["delta"] is None
    rows = (tmp_path / "out" / "slices.csv").read_text().splitlines()
    assert rows[0] == "index,xi,tau,feasible,value_re,value_im"
    # one row per probed node, in the nodes' order; an infeasible slice is zero
    freq = build_frequency_grid(build_grid(1, 17, 17, 1.0), 4.0)
    probed = freq.probed(hermitian)
    assert (len(probed) < len(freq.nodes)) == hermitian
    cells = [row.split(",") for row in rows[1:]]
    assert [c[0] for c in cells] == [" ".join(map(str, nd.index)) for nd in probed]
    assert [c[3] for c in cells] == [str(nd.feasible).lower() for nd in probed]
    assert {c[3] for c in cells} == {"true", "false"}
    assert all(float(c[4]) == float(c[5]) == 0.0 for c in cells if c[3] == "false")
    load_field(tmp_path / "out" / "estimate.field")


def test_stability_sweep_and_recovery_summaries(tmp_path):
    cfg = ExperimentConfig({**SMALL_GRID, "potential": {"family": "zero"},
                            "sweep": {"kind": "noise", "noise_levels": [1e-2, 1e-3]},
                            "reconstruct": {"basis_k_max": 2}})
    summary = run("stability-sweep", cfg, tmp_path / "a")
    assert summary["fit_used"] == 2
    assert (tmp_path / "a" / "sweep.svg").exists()

    cfg2 = ExperimentConfig({**SMALL_GRID, "semilinear": {
        "family": "linear", "slope": 1.0, "ref_family": "linear",
        "ref_slope": 1.0, "levels": [0.0, 0.5]},
        "reconstruct": {"basis_k_max": 2}})
    summary2 = run("recover-nonlinearity", cfg2, tmp_path / "b")
    assert summary2["sup_prime_error"] == 0.0
    header = (tmp_path / "b" / "nonlinearity.csv").read_text().splitlines()[0]
    assert header == ("s,a_prime,a_value,truth_prime,truth_value,d_prime,"
                      "raw_window,gain")


def test_a_reference_section_equal_to_the_truth_is_built_once(tmp_path, monkeypatch):
    built = []
    build = cli._build_potential

    def counting(grid, section):
        built.append(section["family"])
        return build(grid, section)

    monkeypatch.setattr(cli, "_build_potential", counting)
    truth = {"family": "sine", "amplitude": 0.05, "space": [1], "time": 1}
    base = {**SMALL_GRID, "potential": truth,
            "sweep": {"kind": "noise", "noise_levels": [1e-2, 1e-3]},
            "reconstruct": {"basis_k_max": 2}}
    run("stability-sweep", ExperimentConfig({**base, "potential_ref": dict(truth)}),
        tmp_path / "same")
    assert built == ["sine"]
    run("stability-sweep", ExperimentConfig(base), tmp_path / "zero")
    assert built == ["sine", "sine", "zero"]


def test_identical_configs_give_identical_bytes(tmp_path):
    payload = {**SMALL_GRID, "seed": 5, "pairing": {"cases": 2, "threshold": 0.2}}
    run("pairing-check", ExperimentConfig(payload), tmp_path / "one")
    run("pairing-check", ExperimentConfig(payload), tmp_path / "two")
    for name in ("pairing.csv", "summary.json", "manifest.json"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes()
    # a different seed must change the seeded sample draws
    carleman = {**SMALL_GRID, "carleman": {"samples": 7, "rhos": [4.0]}}
    run("carleman-check", ExperimentConfig({**carleman, "seed": 5}), tmp_path / "c5")
    run("carleman-check", ExperimentConfig({**carleman, "seed": 6}), tmp_path / "c6")
    assert (tmp_path / "c5" / "carleman.csv").read_bytes() != \
        (tmp_path / "c6" / "carleman.csv").read_bytes()


def test_run_rejects_unknown_command(tmp_path):
    with pytest.raises(ConfigError, match="subcommand"):
        run("fit-everything", ExperimentConfig(), tmp_path)


# ---------------------------------------------------------------------------
# exit codes


def test_main_success_and_seed_override(tmp_path):
    path = _write_config(tmp_path, {**SMALL_GRID,
                                    "pairing": {"cases": 2, "threshold": 0.2}})
    rc = main(["pairing-check", "--config", path, "--out", str(tmp_path / "out"),
               "--seed", "5"])
    assert rc == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 5


def test_main_config_errors_exit_2(tmp_path, capsys):
    rc = main(["forward", "--config", str(tmp_path / "missing.json")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert main(["forward", "--config", str(bad_json)]) == 2

    unknown = _write_config(tmp_path, {"grid": {"nxx": 17}}, "unknown.json")
    assert main(["forward", "--config", unknown]) == 2

    bad_grid = _write_config(tmp_path, {"grid": {"n": 5}}, "badgrid.json")
    rc = main(["forward", "--config", bad_grid, "--out", str(tmp_path / "g")])
    assert rc == 2

    path = _write_config(tmp_path, SMALL_GRID, "ok.json")
    assert main(["forward", "--config", path, "--threads", "0"]) == 2


def test_main_rejects_a_negative_noise_level(tmp_path, capsys):
    path = _write_config(tmp_path, {**SMALL_GRID, "noise": {"delta": -0.5},
                                    "reconstruct": {"rho": 4.0, "R": 4.0,
                                                    "measure_delta": False}})
    rc = main(["reconstruct", "--config", path, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "nonnegative" in capsys.readouterr().err


def test_main_rejects_empty_carleman_rhos_before_writing(tmp_path, capsys):
    # before the schema knew the list must not be empty, the run wrote both
    # CSVs and a 0-byte chart and only then failed in the chart writer
    path = _write_config(tmp_path, {**SMALL_GRID, "carleman": {"rhos": []}})
    out = tmp_path / "out"
    rc = main(["carleman-check", "--config", path, "--out", str(out)])
    assert rc == 2
    assert "carleman.rhos" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key, count", [
    # a count below one is no check: pairing-check would report a worst gap
    # of 0.0 over no cases, and a negative sample count would slice the
    # structured samples from the end
    ("pairing-check", "pairing.cases", 0),
    ("pairing-check", "pairing.cases", -3),
    ("carleman-check", "carleman.samples", 0),
    ("carleman-check", "carleman.samples", -1),
])
def test_main_rejects_a_count_below_one_before_writing(tmp_path, capsys, command, key, count):
    section, leaf = key.split(".")
    path = _write_config(tmp_path, {**SMALL_GRID, section: {leaf: count}})
    out = tmp_path / "out"
    rc = main([command, "--config", path, "--out", str(out)])
    assert rc == 2
    assert f"config error [cli]: {key}: expected an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, section, where", [
    # a string rho used to pass the schema and die in carleman.py with a
    # TypeError traceback and exit 1
    ("carleman-check", {"carleman": {"rhos": [4.0, "x"]}}, "carleman.rhos[1]"),
    ("carleman-check", {"carleman": {"rhos": [True]}}, "carleman.rhos[0]"),
    ("forward", {"potential": {"family": "sine", "space": ["a"]}}, "potential.space[0]"),
    ("forward", {"potential": {"family": "sine", "space": [1.5]}}, "potential.space[0]"),
])
def test_main_rejects_bad_list_entries_where_the_config_is_read(tmp_path, capsys, command,
                                                                section, where):
    path = _write_config(tmp_path, {**SMALL_GRID, **section})
    out = tmp_path / "out"
    rc = main([command, "--config", path, "--out", str(out)])
    assert rc == 2
    assert where in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match=re.escape(where)):
        ExperimentConfig(section)


@pytest.mark.parametrize("j_max", [-1, 0, 1])
def test_main_rejects_j_max_on_a_1d_grid(tmp_path, capsys, j_max):
    # a 1-d boundary has point faces, so there is no profile index to bound
    path = _write_config(tmp_path, {**SMALL_GRID, "dtn": {"j_max": j_max, "k_max": 1}})
    out = tmp_path / "out"
    rc = main(["dtn", "--config", path, "--out", str(out)])
    assert rc == 2
    assert "j_max" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count", [-1, -5])
def test_main_rejects_negative_initial_modes_before_writing(tmp_path, capsys, count):
    # a negative count used to slice the mode pool from its end and write an
    # 18x32 (-1) or 18x28 (-5) matrix on this grid
    path = _write_config(tmp_path, {**SMALL_GRID, "dtn": {"initial_modes": count}})
    out = tmp_path / "out"
    rc = main(["dtn", "--config", path, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config error [dtn]: initial_modes must be >= 0, got {count}" in err
    assert not out.exists()


@pytest.mark.parametrize("command, section, message", [
    # the xi of a 1-d frequency on a 2-d grid used to crash with IndexError
    ("cgo-check", {"cgo": {"xi": [3.0]}}, "xi must have shape (2,)"),
    # a non-unit weight direction used to pass and write uncovered ratios
    ("carleman-check", {"carleman": {"omega": [2.0, 0.0]}}, "unit vector"),
    ("carleman-check", {"carleman": {"omega": [1.0]}}, "shape (2,)"),
])
def test_main_rejects_malformed_directions_before_writing(tmp_path, capsys, command,
                                                          section, message):
    path = _write_config(tmp_path, {"grid": {"n": 2, "nx": 9, "nt": 33, "T": 1.0},
                                    "potential": {"family": "zero"}, **section})
    out = tmp_path / "out"
    rc = main([command, "--config", path, "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_main_numerical_failure_exits_3(tmp_path, capsys):
    path = _write_config(tmp_path, {**SMALL_GRID,
                                    "pairing": {"cases": 2, "threshold": 1e-12}})
    rc = main(["pairing-check", "--config", path, "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command,section", [
    ("reconstruct", {"reconstruct": {"rho": 4.0, "R": 4.0, "basis_k_max": 2}}),
    ("stability-sweep", {"reconstruct": {"basis_k_max": 2},
                         "sweep": {"kind": "noise", "noise_levels": [1e-2, 1e-3]}}),
])
def test_main_non_finite_slice_exits_3(tmp_path, capsys, monkeypatch, command, section):
    # a sweep never inverts its estimate, so the slices are checked where
    # they are collected, before any record or artifact is written
    pipeline = importlib.import_module("cgolab.reconstruct")
    slice_values = pipeline._slice_values

    def poisoned(*args, **kwargs):
        delta, values = slice_values(*args, **kwargs)
        values[0] = complex("nan")
        return delta, values

    monkeypatch.setattr(pipeline, "_slice_values", poisoned)
    path = _write_config(tmp_path, {**SMALL_GRID, "potential": {
        "family": "sine", "amplitude": 0.05, "space": [1], "time": 1}, **section})
    out = tmp_path / "out"
    rc = main([command, "--config", path, "--out", str(out)])
    assert rc == 3
    assert "Fourier slices are not finite" in capsys.readouterr().err
    assert not out.exists()


def _constant_potential(value):
    return {"grid": {"n": 1, "nx": 17, "nt": 17},
            "potential": {"family": "constant", "value": value}}


@pytest.mark.parametrize("command", ["reconstruct", "stability-sweep"])
def test_main_non_finite_error_exits_3(tmp_path, capsys, command):
    # the truth's order -1 norm overflows; reconstruct used to exit 0 with
    # "error": Infinity in its summary, and the sweep wrote inf errors to its
    # CSV and then exited 1 with an OverflowError from the chart writer
    path = _write_config(tmp_path, {**_constant_potential(1e300),
                                    "reconstruct": {"rho": 4.0}})
    out = tmp_path / "out"
    rc = main([command, "--config", path, "--out", str(out)])
    assert rc == 3
    assert "numerical failure [norms]" in capsys.readouterr().err
    assert not out.exists()


def test_main_non_finite_carleman_side_exits_3(tmp_path, capsys):
    # the right-hand side overflows; every ratio used to read 0 and the run
    # exited 0 with a max_ratio of 0.0
    path = _write_config(tmp_path, _constant_potential(-1e300))
    out = tmp_path / "out"
    rc = main(["carleman-check", "--config", path, "--out", str(out)])
    assert rc == 3
    assert "numerical failure [carleman]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,payload", [
    # a NaN threshold passed every identity check: the run exited 0
    ("pairing-check", {"grid": {"n": 1, "nx": 9, "nt": 9},
                       "pairing": {"cases": 1, "threshold": float("nan")}}),
    # a NaN slope exited 3 as a numerical failure of the solve
    ("semilinear", {**SMALL_GRID, "semilinear": {"slope": float("nan")}}),
    ("stability-sweep", {**SMALL_GRID, "sweep": {"noise_levels": [float("nan"), 0.01]}}),
    ("reconstruct", {**SMALL_GRID, "reconstruct": {"rho": float("inf")}}),
    # an integer past float's range exited 1 with an OverflowError
    ("reconstruct", {**SMALL_GRID, "reconstruct": {"R": 10**400}}),
], ids=["threshold-nan", "slope-nan", "noise-level-nan", "rho-inf", "huge-integer"])
def test_main_non_finite_config_number_exits_2(tmp_path, capsys, command, payload):
    # json reads NaN and Infinity, so the config check must turn them away
    path = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    rc = main([command, "--config", path, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error [cli]" in err and "expected a finite number" in err
    assert not out.exists()


def test_main_semilinear_solve_leaving_its_data_range_exits_3(tmp_path, capsys):
    # two time steps are too coarse for the Crank-Nicolson step to keep the
    # maximum principle: constant data 1 from a zero start overshoots to about
    # 1.9, which the command's checked solve rejects before writing anything
    path = _write_config(tmp_path, {"grid": {"n": 1, "nx": 33, "nt": 3, "T": 1.0},
                                    "semilinear": {"family": "zero"},
                                    "data": {"family": "constant", "value": 1.0}})
    out = tmp_path / "out"
    rc = main(["semilinear", "--config", path, "--out", str(out)])
    assert rc == 3
    assert "leaves the data range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("layers", [-1, -3])
def test_main_rejects_negative_window_layers_before_any_solve(tmp_path, capsys, monkeypatch,
                                                              layers):
    # -1 used to exit 1 with an IndexError once every level was solved and
    # reconstructed; -3 exited 2 only through numpy's negative dimensions
    solves = []
    monkeypatch.setattr(semilinear, "solve_semilinear_many",
                        lambda *args, **kwargs: solves.append(1))
    path = _write_config(tmp_path, {**SMALL_GRID, "semilinear": {"window_layers": layers}})
    out = tmp_path / "out"
    rc = main(["recover-nonlinearity", "--config", path, "--out", str(out)])
    assert rc == 2
    assert "config error [semilinear]: window_layers" in capsys.readouterr().err
    assert solves == []
    assert not out.exists()


def test_main_accepts_zero_window_layers(tmp_path):
    path = _write_config(tmp_path, {**SMALL_GRID, "semilinear": {"window_layers": 0},
                                    "reconstruct": {"basis_k_max": 2}})
    assert main(["recover-nonlinearity", "--config", path, "--out", str(tmp_path / "out")]) == 0


def test_main_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        main(["does-not-exist"])


def test_cli_import_leaves_scipy_optimize_out():
    # the nonnegative envelope fit is solved in closed form, so the CLI never
    # pays for importing scipy.optimize
    src = str(Path(cgolab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, cgolab.cli; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True, timeout=120)
    assert out.stdout.strip() == "False"
