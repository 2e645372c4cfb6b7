"""Check that the tests still catch the faults they were written against.

    python3 tools/mutants.py [TREE]

Each entry of MUTANTS names a file of the package, an exact source snippet
that must occur in it once, the mutation that replaces it, and the tests
that must fail once it is applied.  The tool copies TREE's src/ and tests/
(default: the tree holding this script) to a temporary directory, runs every
named test there once unmutated, which must pass, and then applies each
mutant in turn and runs only its tests (one BLAS thread, no bytecode
written).  Each mutant is reported as

    killed    its tests fail, as they should;
    survived  its tests pass;
    stale     its snippet does not occur exactly once: the code it targets
              has changed, and the entry must change with it;
    error     its tests did not run (a test it names is gone, say).

An entry with a `survives` reason records a fault its tests cannot see, and
why; it is expected to survive, and a kill means the table is out of date.

Exit status: 0 when every mutant ends as expected, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str           # relative to src/cgolab
    snippet: str
    mutation: str
    tests: tuple        # pytest node ids, relative to the tree
    survives: str = ""  # why the tests cannot see it, for an expected survivor


_STENCIL = "coeffs = np.repeat(np.array([3.0, -4.0, 1.0]) / (2 * grid.hx), nb)"
_PAIRING_SIZES = ("tests/test_difference_stream.py::"
                  "test_two_dimensional_pairing_gap_falls_under_refinement")
_LINES = ("tests/test_norms.py::"
          "test_line_restricted_transforms_are_the_plain_transforms_bitwise")
_WRITTEN = ("tests/test_norms.py::"
            "test_written_values_invert_as_their_scattered_lattice_bitwise")
_PLAIN_NEWTON = ("tests/test_stepping_kernel.py::"
                 "test_newton_block_is_the_plain_newton_loop_bitwise")
_TAPER = ("tests/test_cgo.py::"
          "test_taper_is_the_mask_and_half_on_its_brute_force_neighbours")
_STREAM = ("tests/test_difference_stream.py::"
           "test_streamed_difference_is_the_masked_difference_of_whole_blocks_bitwise")
_LOCK_STEP = ("tests/test_stepping_kernel.py::"
              "test_lock_step_march_is_each_schemes_plain_march_bitwise")
_LOADED = ("tests/test_dtn.py::"
           "test_a_loaded_file_is_what_its_writer_wrote_or_a_config_error")
_SAME_REFERENCE = ("tests/test_shared_maps.py::"
                   "test_a_reference_that_is_the_truth_marches_each_question_once")

MUTANTS = [
    # the map difference, streamed level by level
    Mutant("negated-copy-flips-zero", "forward.py",
           "np.subtract(0.0, copied, out=copied, where=negated)",
           "np.negative(copied, out=copied, where=negated)",
           (_STREAM,)),
    Mutant("unmasked-reference-level", "dtn.py",
           "if mask is None:\n            rows -= traces",
           "if True:\n            rows -= traces",
           (_STREAM,)),
    Mutant("same-reference-not-subtracted", "dtn.py",
           "merged.setdefault(id(m), (m, []))[1].append(consumers)",
           "merged.setdefault(id(m), (m, [consumers]))",
           (_SAME_REFERENCE,)),
    Mutant("no-per-level-finite-check", "forward.py",
           "if not np.isfinite(parts).all():",
           "if False:",
           ("tests/test_difference_stream.py::"
            "test_a_non_finite_reference_level_fails_at_the_level_the_block_path_names",)),
    Mutant("eager-measurement-bases", "reconstruct.py",
           "measure = bases or partial(_measurement_bases, grid, oracle, cfg)",
           "measure = bases or _measurement_bases(grid, oracle, cfg)",
           ("tests/test_difference_stream.py::"
            "test_explicit_rho_reconstruct_drops_its_measurement_bases_before_the_probes",)),
    Mutant("exact-slices-without-shape-check", "reconstruct.py",
           "if np.shape(p_values) != grid.field_shape:",
           "if False:",
           ("tests/test_reconstruct.py::test_exact_slices_leave_only_the_parseval_tail",)),
    Mutant("whole-block-private-answer", "dtn.py",
           "ThetaScheme.trace_levels([(m.scheme, consumers[i])\n"
           "                                              for m, consumers in zip(maps, handed)],"
           " g, u0)",
           "for m, consumers in zip(maps, handed):\n"
           "                        consumers[i](slice(None),\n"
           "                                     ThetaScheme.neumann_traces([m.scheme], g, u0)[0])",
           ("tests/test_difference_stream.py::test_a_difference_holds_one_answer_block",)),
    # a map listed twice (a reference that is the truth) marches once, and
    # maps that lack a stored answer form it in one march
    Mutant("map-listed-twice-marches-twice", "dtn.py",
           "merged.setdefault(id(m), (m, []))",
           "merged.setdefault(len(merged), (m, []))",
           (_SAME_REFERENCE,)),
    Mutant("lacking-answers-marched-apart", "dtn.py",
           "answers = ThetaScheme.neumann_traces([m.scheme for m in lacking], g, u0)",
           "answers = [ThetaScheme.neumann_traces([m.scheme], g, u0)[0] for m in lacking]",
           ("tests/test_shared_maps.py::"
            "test_maps_that_lack_a_stored_answer_form_it_in_one_march",)),
    Mutant("measurement-kept-across-yield", "dtn.py",
           "del asked, measures",
           "del asked",
           ("tests/test_difference_stream.py::"
            "test_no_distance_block_is_alive_when_the_probes_are_formed",)),
    Mutant("map-matrix-weights-a-copy", "dtn.py",
           "basis_out._project_block(responses).T",
           "basis_out.project(responses).T",
           ("tests/test_difference_stream.py::test_a_difference_holds_one_answer_block",)),
    Mutant("writeable-stored-answers", "dtn.py",
           "answer.flags.writeable = False",
           "answer.flags.writeable = True",
           ("tests/test_difference_stream.py::"
            "test_stored_answers_stay_read_only_and_unchanged_through_differences",)),
    Mutant("block-before-stored-answer", "dtn.py",
           "self.block = self._scratch = None\n",
           "self.block = self._scratch = None\n        self._start()\n",
           ("tests/test_difference_stream.py::"
            "test_a_stored_answer_is_formed_before_the_blocks_it_is_read_into",)),
    Mutant("support-check-kept-without-its-mask", "dtn.py",
           "key = support_mask.values.tobytes()",
           "key = b'checked'",
           ("tests/test_dtn.py::test_a_basis_block_is_checked_against_each_support_mask",)),
    Mutant("initial-values-kept-through-the-march", "forward.py",
           "x = np.asfortranarray(block(start.pop().T))",
           "x = np.asfortranarray(block(start[0].T))",
           ("tests/test_difference_stream.py::"
            "test_the_initial_values_are_freed_before_the_first_step",)),
    # schemes in lock-step: each steps from its own state, the +0.0 pass
    # stands in for the lift's rows the data never reaches, and the levels go
    # out in list order
    Mutant("partner-steps-from-first-state", "forward.py",
           "x = states[i]",
           "x = states[0]",
           (_LOCK_STEP,)),
    Mutant("lift-without-zero-pass", "forward.py",
           "rhs += 0.0\n                        rhs[rows] += lifted",
           "rhs[rows] += lifted",
           (_LOCK_STEP,)),
    Mutant("reference-level-before-measurement", "forward.py",
           "zip(steppers, states):\n                    emit(level",
           "zip(steppers[::-1], states[::-1]):\n                    emit(level",
           (_LOCK_STEP,)),
    # a loaded file is what its writer wrote, or a ConfigError
    Mutant("container-dtype-unchecked", "dtn.py",
           '(("dtype", "complex64"), ("order", order))', '(("order", order),)', (_LOADED,)),
    Mutant("container-order-unchecked", "dtn.py",
           '(("dtype", "complex64"), ("order", order))', '(("dtype", "complex64"),)', (_LOADED,)),
    Mutant("header-list-length-unchecked", "dtn.py",
           "if len(values) != size or not all(", "if not all(", (_LOADED,)),
    Mutant("header-weights-unchecked", "dtn.py",
           'tuple(_numbers(path, header, "weights", len(DEFAULT_WEIGHTS)).tolist())',
           'tuple(header["weights"])', (_LOADED,)),
    Mutant("negative-xi-sq-loaded", "dtn.py",
           "if nonnegative and (out < 0).any():", "if False:", (_LOADED,)),
    Mutant("non-finite-header-number-loaded", "dtn.py",
           "if not np.isfinite(out).all():", "if False:", (_LOADED,)),
    Mutant("grid-error-escapes-the-loader", "dtn.py",
           "except ValueError as exc:\n        raise ConfigError(f\"{path}: {exc}\") from exc",
           "except KeyError as exc:\n        raise ConfigError(f\"{path}: {exc}\") from exc",
           (_LOADED,)),
    Mutant("infinite-final-time", "grid.py",
           "if not 0 < T < math.inf:", "if not T > 0:", (_LOADED,)),
    Mutant("non-finite-sample-loaded", "dtn.py",
           "if not np.isfinite(values).all():", "if False:", (_LOADED,)),
    # the stepping kernel and the sampled fields
    Mutant("newton-store-one-level-back", "forward.py",
           "interior[:, level] = v.reshape(rows_shape)\n        explicit = implicit",
           "interior[:, level - 1] = v.reshape(rows_shape)\n        explicit = implicit",
           ("tests/test_stepping_kernel.py::test_semilinear_matches_plain_newton",)),
    Mutant("level-rows-without-boundary-values", "forward.py",
           "    solutions[(slice(None), slice(None), *grid.boundary_index)] = bvals\n",
           "",
           ("tests/test_stepping_kernel.py::test_semilinear_matches_plain_newton",
            _PLAIN_NEWTON)),
    Mutant("carried-product-not-row-updated", "forward.py",
           "v[took], product[took] = trial[took], trial_product[took]",
           "v[took] = trial[took]",
           (_PLAIN_NEWTON,)),
    Mutant("lift-reused-without-comparing-data", "forward.py",
           "if not same_data[level]:",
           "if False:",
           (_PLAIN_NEWTON,)),
    Mutant("window-layers-unchecked", "semilinear.py",
           "if window_layers < 0:",
           "if False:",
           ("tests/test_cli.py::test_main_rejects_negative_window_layers_before_any_solve",)),
    Mutant("factor-keyed-by-level", "forward.py",
           "key = du[c].tobytes()",
           "key = level",
           ("tests/test_stepping_kernel.py::"
            "test_semilinear_block_equals_single_column_solves",)),
    Mutant("sampling-without-the-zero", "fields.py",
           "grid.field_shape) + np.float64(0.0)",
           "grid.field_shape)",
           ("tests/test_fields.py::test_sampling_is_the_samples_plus_a_zero_array_bitwise",)),
    # the lattice transforms
    Mutant("blank-lines-as-literal-zeros", "norms.py",
           "blank = transform(np.zeros(n[-1], dtype=np.complex128))[keep[-1]]",
           "blank = np.zeros(n[-1], dtype=np.complex128)[keep[-1]]",
           (_LINES, "tests/test_norms.py::"
                    "test_node_restricted_coefficients_are_the_full_transform_bitwise")),
    Mutant("negative-zero-counted-as-empty", "norms.py",
           "return words.any(axis=-1)",
           "return (values != 0).any(axis=-1)",
           (_LINES,)),
    Mutant("written-gather-drops-negative-zero", "norms.py",
           "occupied = _occupied_lines(data)",
           "occupied = (data != 0).any(axis=-1)",
           (_WRITTEN,)),
    Mutant("written-gather-keeps-first-value", "norms.py",
           "data[row, col] = values",
           "data[row[::-1].copy(), col[::-1].copy()] = values[::-1].copy()",
           (_WRITTEN,)),
    # counts below their least value are config errors, and the probe
    # vanishes on its mask, tapered over one index step
    Mutant("pairing-cases-any-int", "cli.py",
           '"cases": ("positive_int", 10),',
           '"cases": ("int", 10),',
           ("tests/test_cli.py::test_main_rejects_a_count_below_one_before_writing",)),
    Mutant("carleman-samples-any-int", "cli.py",
           '"samples": ("positive_int", 20),',
           '"samples": ("int", 20),',
           ("tests/test_cli.py::test_main_rejects_a_count_below_one_before_writing",)),
    Mutant("vanish-mask-flipped", "cgo.py",
           "direction_mask(grid, params.omega, params.delta, sign=-params.epsilon)",
           "direction_mask(grid, params.omega, params.delta, sign=params.epsilon)",
           ("tests/test_cgo.py::test_probe_vanishes_on_mask_exactly",)),
    Mutant("taper-ring-two-steps", "cgo.py",
           "near[upper] |= on[lower]",
           "near[upper] |= on[lower]\n        near[lower] |= near[upper]",
           (_TAPER,)),
    Mutant("taper-ring-dropped", "cgo.py",
           "w = np.where(near[grid.boundary_index], 0.5, 0.0)",
           "w = np.where(on[grid.boundary_index], 0.5, 0.0)",
           (_TAPER,)),
    # the backward Carleman parts are the reflected forward ones, and the
    # energy cross term holds with its sign
    Mutant("backward-drift-sign-flipped", "carleman.py",
           ") + 2.0 * rho * sum(",
           ") - 2.0 * rho * sum(",
           ("tests/test_carleman.py::test_backward_parts_match_reflected_forward_parts",)),
    Mutant("cross-term-sign-flipped", "carleman.py",
           "lhs = -2.0 * grid.integrate_volume(lap * vt)",
           "lhs = 2.0 * grid.integrate_volume(lap * vt)",
           ("tests/test_carleman.py::test_energy_cross_term_identity",)),
    Mutant("initial-modes-any-int", "dtn.py",
           "if count < 0:",
           "if False:",
           ("tests/test_cli.py::test_main_rejects_negative_initial_modes_before_writing",)),
    # non-finite results fail as numerical failures, non-finite config numbers
    # as config errors
    Mutant("distance-not-checked-finite", "norms.py",
           "if not math.isfinite(total):",
           "if False:",
           ("tests/test_cli.py::test_main_non_finite_error_exits_3",)),
    Mutant("carleman-sides-not-checked-finite", "carleman.py",
           "if not (math.isfinite(lhs) and math.isfinite(rhs)):",
           "if False:",
           ("tests/test_cli.py::test_main_non_finite_carleman_side_exits_3",)),
    Mutant("remainder-norm-not-checked-finite", "cgo.py",
           "if not np.isfinite([norms[1], norms[-1], residuals[1], residuals[-1]]).all():",
           "if False:",
           ("tests/test_cli.py::test_main_non_finite_probe_norm_exits_3",)),
    Mutant("config-numbers-not-checked-finite", "cli.py",
           "if not math.isfinite(number):",
           "if False:",
           ("tests/test_cli.py::test_main_non_finite_config_number_exits_2",)),
    # the trace stencil (3, -4, 1)/(2h) of the march
    Mutant("stencil-middle-1pct", "forward.py", _STENCIL,
           _STENCIL.replace("-4.0", "-4.04"), (_PAIRING_SIZES,)),
    Mutant("stencil-last-1pct", "forward.py", _STENCIL,
           _STENCIL.replace("1.0]", "1.01]"), (_PAIRING_SIZES,)),
    Mutant("stencil-all-1pct", "forward.py", _STENCIL,
           _STENCIL.replace("]) /", "]) * 1.01 /"), (_PAIRING_SIZES,)),
    Mutant("stencil-first-1pct", "forward.py", _STENCIL,
           _STENCIL.replace("3.0,", "3.03,"),
           ("tests/test_batched_maps.py::"
            "test_single_column_apply_and_pairings_match_column_path",)),
    Mutant("stencil-first-1pct-in-pairings", "forward.py", _STENCIL,
           _STENCIL.replace("3.0,", "3.03,"),
           ("tests/test_dtn.py::test_boundary_pairing_equals_volume_pairing", _PAIRING_SIZES),
           survives="the first coefficient weighs the boundary value, which both maps of a "
                    "difference share, so its error cancels in every pairing of a map "
                    "difference; the column-path comparison kills it"),
]


def _run_tests(tree: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def _check(copy: Path, mutant: Mutant) -> str:
    """killed, survived, stale or error (the tests did not run)."""
    path = copy / "src" / "cgolab" / mutant.path
    source = path.read_text()
    if source.count(mutant.snippet) != 1:
        return "stale"
    path.write_text(source.replace(mutant.snippet, mutant.mutation))
    try:
        code = _run_tests(copy, mutant.tests).returncode
    finally:
        path.write_text(source)
    return {0: "survived", 1: "killed"}.get(code, "error")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", default=str(ROOT))
    args = parser.parse_args(argv)
    failed = 0
    with tempfile.TemporaryDirectory(prefix="cgolab-mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(Path(args.tree) / part, copy / part, ignore=ignore)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        clean = _run_tests(copy, tests)
        if clean.returncode != 0:
            print(clean.stdout)
            print("the named tests fail on the unmutated tree")
            return 1
        for m in MUTANTS:
            start = time.perf_counter()
            result = _check(copy, m)
            expected = "survived" if m.survives else "killed"
            ok = result == expected
            failed += not ok
            note = f"  (expected: {m.survives})" if m.survives else ""
            print(f"{m.name:38s} {result:9s} {'ok' if ok else 'FAIL':4s} "
                  f"{time.perf_counter() - start:6.1f}s{note}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
