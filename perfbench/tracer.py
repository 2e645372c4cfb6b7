"""Spans and counters for one traced benchmark repetition.

The tracer lives only in the process of a traced repetition.  `install`
replaces the public functions of the cgolab modules with wrappers that
record a span per call.  A function imported elsewhere with
`from .x import y` is replaced under every name that refers to it, so calls
are traced whichever module makes them.  Spans stay in memory and are
written out once the run ends; `layer_metrics` turns them into the per-layer
figures.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# Modules whose public functions (their `__all__`) are wrapped.
TRACED_MODULES = ("grid", "fd", "forward", "norms", "cgo", "dtn", "reconstruct", "semilinear")

# Methods wrapped on their class, by module.
TRACED_METHODS = {
    "forward": [("ThetaScheme", "solve")],
    "dtn": [
        ("DtnBasis", "project"),
        ("DtnBasis", "synthesize"),
        ("DtnOracle", "apply"),
        ("DtnOracle", "pair_against"),
    ],
}

# Span names the metrics read.
ROOT = "cli.run"
SPLU = "forward.splu"
FACTOR_SOLVE = "forward.factor.solve"
BOOKKEEPING = "trace.bookkeeping"

SPAN_MARK = "_perfbench_span"


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        if a is None:
            h.update(b"none")
        else:
            h.update(repr((a.dtype.str, a.shape)).encode())
            h.update(a.tobytes())
    return h.hexdigest()


class _Factor:
    """Stands in for a SuperLU object so that each `solve` is a span."""

    __slots__ = ("_lu", "_tracer")

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        tr = self._tracer
        tr.counters["step_solves"] += 2 if np.iscomplexobj(rhs) else 1
        idx = tr._open(FACTOR_SOLVE)
        try:
            return self._lu.solve(rhs, *args, **kwargs)
        finally:
            tr._close(idx)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.counters = defaultdict(int)
        self.factor_keys = set()
        self.nnz_by_key = {}
        self.backward_keys = set()

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, pre=None, post=None):
        """Wrapper recording a span named `name` around each call of fn.

        `pre(args, kwargs)` and `post(result)` run in their own bookkeeping
        spans, so the tracer's own work is kept out of the layer's time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                b = self._open(BOOKKEEPING)
                try:
                    pre(args, kwargs)
                finally:
                    self._close(b)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if post is not None:
                b = self._open(BOOKKEEPING)
                try:
                    post(result)
                finally:
                    self._close(b)
            return result

        setattr(traced, SPAN_MARK, name)
        return traced

    # -- hooks ------------------------------------------------------------
    def _wrap_splu(self, splu):
        traced_splu = self.wrap(splu, SPLU)

        def splu_counted(A, *args, **kwargs):
            lu = traced_splu(A, *args, **kwargs)
            b = self._open(BOOKKEEPING)
            try:
                key = _digest(A.data, A.indices, A.indptr) + repr(A.shape)
                self.factor_keys.add(key)
                nnz = self.nnz_by_key.get(key)
                if nnz is None:
                    # a given matrix always factors the same way, so L+U is
                    # extracted once per distinct matrix
                    nnz = int(lu.L.nnz + lu.U.nnz)
                    self.nnz_by_key[key] = nnz
                self.counters["factor_nnz"] += nnz
            finally:
                self._close(b)
            return _Factor(lu, self)

        setattr(splu_counted, SPAN_MARK, SPLU)
        return splu_counted

    def _backward_probe_hook(self, build_cgo):
        sig = inspect.signature(build_cgo)

        def pre(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            params = bound.arguments["params"]
            if params.epsilon != -1:
                return
            self.counters["backward_builds"] += 1
            q = bound.arguments["q"]
            mask = bound.arguments["vanish_mask"]
            self.backward_keys.add((
                _digest(params.omega), float(params.rho), float(params.delta),
                None if q is None else _digest(q.values),
                None if mask is None else _digest(mask.values),
            ))

        return pre

    def _newton_hook(self, result):
        self.counters["newton_iterations"] += int(sum(result.newton_iterations))

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Wrap every traced function under every name that refers to it."""
        import cgolab  # noqa: F401  (loads every submodule)

        namespaces = [m for n, m in sys.modules.items()
                      if n == "cgolab" or n.startswith("cgolab.")]
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"cgolab.{short}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                pre = post = None
                if (short, attr) == ("cgo", "build_cgo"):
                    pre = self._backward_probe_hook(fn)
                if (short, attr) == ("forward", "solve_semilinear"):
                    post = self._newton_hook
                wrapped = self.wrap(fn, f"{short}.{attr}", pre=pre, post=post)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapped)
            for cls_name, meth in TRACED_METHODS.get(short, ()):
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), f"{short}.{cls_name}.{meth}"))
        forward = sys.modules["cgolab.forward"]
        forward.splu = self._wrap_splu(forward.splu)

    def run_root(self, fn, *args, **kwargs):
        """Call fn inside the root span."""
        idx = self._open(ROOT)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def dump(self) -> dict:
        counters = dict(self.counters)
        counters["distinct_matrices"] = len(self.factor_keys)
        counters["backward_distinct"] = len(self.backward_keys)
        return {
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent", "run_id"],
            "spans": [[n, s, e, p, self.run_id] for n, s, e, p in self.spans],
            "counters": counters,
        }


def installed_wrappers() -> list:
    """Names in the cgolab namespaces that hold a tracer wrapper.

    Empty in an untraced run: there every call reaches the original function."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "cgolab" and not mod_name.startswith("cgolab."):
            continue
        for key, value in vars(mod).items():
            if hasattr(value, SPAN_MARK):
                found.append(f"{mod_name}.{key}")
            elif inspect.isclass(value) and value.__module__ == mod_name:
                found.extend(f"{mod_name}.{key}.{m}" for m, v in vars(value).items()
                             if hasattr(v, SPAN_MARK))
    return found


# ---------------------------------------------------------------------------
# Aggregation


def self_times(spans) -> list:
    """Each span's duration minus the durations of its child spans.

    Spans open and close on one stack in one thread, so children nest
    inside their parent and never overlap one another."""
    out = [sp[2] - sp[1] for sp in spans]
    for sp in spans:
        if sp[3] >= 0:
            out[sp[3]] -= sp[2] - sp[1]
    return out


# (metric, unit, what it is)
LAYER_METRICS = [
    ("forward.factorizations", "count", "calls into the splu name forward.py uses"),
    ("forward.distinct_matrices", "count", "distinct CSC step matrices factored"),
    ("forward.factor_useful_ratio", "ratio", "distinct matrices / factorizations"),
    ("forward.factor_s", "s", "time in splu"),
    ("forward.factor_nnz", "count", "computed: L+U nonzeros summed over factorizations"),
    ("forward.marches", "count", "ThetaScheme.solve calls"),
    ("forward.march_self_s", "s", "self time of ThetaScheme.solve"),
    ("forward.step_solves", "count", "factor solve calls, complex counted twice"),
    ("forward.step_solve_s", "s", "time in factor solves"),
    ("forward.semilinear_s", "s", "time in solve_semilinear"),
    ("forward.newton_iterations", "count", "sum of SemilinearResult.newton_iterations"),
    ("forward.neumann_trace_s", "s", "time in neumann_trace"),
    ("cgo.builds", "count", "build_cgo calls"),
    ("cgo.build_self_s", "s", "self time of build_cgo"),
    ("cgo.backward_builds", "count", "build_cgo calls for backward probes"),
    ("cgo.backward_distinct", "count", "distinct backward probes"),
    ("cgo.backward_useful_ratio", "ratio", "distinct backward probes / backward builds"),
    ("dtn.oracle_applies", "count", "DtnOracle.apply calls"),
    ("dtn.oracle_apply_s", "s", "time in DtnOracle.apply"),
    ("dtn.reference_applies", "count", "dtn_apply calls not made by DtnOracle.apply"),
    ("dtn.reference_s", "s", "time in those dtn_apply calls"),
    ("dtn.projects", "count", "DtnBasis.project calls"),
    ("dtn.project_s", "s", "time in DtnBasis.project"),
    ("dtn.synthesize_s", "s", "time in DtnBasis.synthesize"),
    ("dtn.difference_matrix_s", "s", "time in assemble_difference_matrix"),
    ("dtn.operator_norm_s", "s", "time in operator_norm"),
    ("reconstruct.slices", "count", "fourier_slice calls"),
    ("reconstruct.slice_s", "s", "time in fourier_slice"),
    ("reconstruct.invert_s", "s", "time in invert_cutoff"),
    ("reconstruct.frequency_grid_s", "s", "time in build_frequency_grid"),
    ("norms.fft_s", "s", "time in torus_coefficients and coefficients_to_field"),
    ("norms.hminus1_s", "s", "time in hminus1_distance"),
    ("semilinear.solutions", "count", "semilinear_solution calls"),
    ("semilinear.level_potential_s", "s", "time in linearized_potential"),
    ("cli.artifact_files", "count", "files in the run's output directory"),
    ("cli.artifact_bytes", "B", "bytes in the run's output directory"),
    ("cli.unattributed_s", "s", "traced run time no library span covers"),
    ("trace.wall_s", "s", "traced run time, call into cli.run to return"),
    ("trace.overhead_s", "s", "traced wall_s minus the untraced median"),
]

# Counts that must repeat exactly across runs and seeds.  (Artifact bytes do
# not: numbers printed in the CSVs and the config carry seed-drawn digits.)
COUNT_METRICS = [m for m, unit, _ in LAYER_METRICS if unit == "count"]


def layer_metrics(dump: dict) -> dict:
    """Per-layer figures from one traced run's spans and counters.

    Returns (metrics, attribution).  The metrics lack cli.artifact_* and
    trace.overhead_s, which need figures from outside the trace."""
    spans = dump["spans"]
    counters = dump["counters"]
    selfs = self_times(spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    for sp, own in zip(spans, selfs):
        name = sp[0]
        total[name] += sp[2] - sp[1]
        self_total[name] += own
        calls[name] += 1
    reference_applies = 0
    reference_s = 0.0
    for sp in spans:
        if sp[0] == "dtn.dtn_apply" and (sp[3] < 0 or spans[sp[3]][0] != "dtn.DtnOracle.apply"):
            reference_applies += 1
            reference_s += sp[2] - sp[1]
    roots = [i for i, sp in enumerate(spans) if sp[0] == ROOT]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT} span, found {len(roots)}")
    root = spans[roots[0]]

    def ratio(num, den):
        return num / den if den else 0.0

    factorizations = calls[SPLU]
    backward = counters.get("backward_builds", 0)
    metrics = {
        "forward.factorizations": factorizations,
        "forward.distinct_matrices": counters["distinct_matrices"],
        "forward.factor_useful_ratio": ratio(counters["distinct_matrices"], factorizations),
        "forward.factor_s": total[SPLU],
        "forward.factor_nnz": counters.get("factor_nnz", 0),
        "forward.marches": calls["forward.ThetaScheme.solve"],
        "forward.march_self_s": self_total["forward.ThetaScheme.solve"],
        "forward.step_solves": counters.get("step_solves", 0),
        "forward.step_solve_s": total[FACTOR_SOLVE],
        "forward.semilinear_s": total["forward.solve_semilinear"],
        "forward.newton_iterations": counters.get("newton_iterations", 0),
        "forward.neumann_trace_s": total["forward.neumann_trace"],
        "cgo.builds": calls["cgo.build_cgo"],
        "cgo.build_self_s": self_total["cgo.build_cgo"],
        "cgo.backward_builds": backward,
        "cgo.backward_distinct": counters["backward_distinct"],
        "cgo.backward_useful_ratio": ratio(counters["backward_distinct"], backward),
        "dtn.oracle_applies": calls["dtn.DtnOracle.apply"],
        "dtn.oracle_apply_s": total["dtn.DtnOracle.apply"],
        "dtn.reference_applies": reference_applies,
        "dtn.reference_s": reference_s,
        "dtn.projects": calls["dtn.DtnBasis.project"],
        "dtn.project_s": total["dtn.DtnBasis.project"],
        "dtn.synthesize_s": total["dtn.DtnBasis.synthesize"],
        "dtn.difference_matrix_s": total["dtn.assemble_difference_matrix"],
        "dtn.operator_norm_s": total["dtn.operator_norm"],
        "reconstruct.slices": calls["reconstruct.fourier_slice"],
        "reconstruct.slice_s": total["reconstruct.fourier_slice"],
        "reconstruct.invert_s": total["reconstruct.invert_cutoff"],
        "reconstruct.frequency_grid_s": total["reconstruct.build_frequency_grid"],
        "norms.fft_s": total["norms.torus_coefficients"] + total["norms.coefficients_to_field"],
        "norms.hminus1_s": total["norms.hminus1_distance"],
        "semilinear.solutions": calls["semilinear.semilinear_solution"],
        "semilinear.level_potential_s": total["semilinear.linearized_potential"],
        "cli.unattributed_s": selfs[roots[0]],
        "trace.wall_s": root[2] - root[1],
    }
    attribution = {"self_sum_s": sum(selfs), "spans": len(spans)}
    return metrics, attribution
