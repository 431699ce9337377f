"""Span tracing for the benchmark's traced run.

The tracer times calls into each ``triwedge`` module from outside the
package: it replaces every module-level name that binds a timed function
(``from .exact_scalar import rank_kernel`` makes a second binding that a
wrapper on ``exact_scalar`` alone would miss) and patches timed methods once
on their class.  ``remove()`` puts every original back.

Each span records its name, start, end, parent span and the operation id of
the suite, form or table it belongs to.  Spans are appended to in-memory
arrays and written out only by ``write()``.  A layer is a module: a span's
self time is its duration minus the time covered by its child spans, and a
module's self time is the sum over its spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

from workloads import SUITE_PARTS

# (module, attribute path, reported time): "self" reports calls and self_s,
# "total" reports calls and total_s, "calls" reports calls only.
SPANS = (
    ("exact_scalar", "_rref_prime", "self"),
    ("exact_scalar", "_rref", "self"),
    ("exact_scalar", "rank_kernel", "self"),
    ("exact_scalar", "pfaffian", "self"),
    ("exact_scalar", "Matrix.det", "self"),
    ("exact_scalar", "interpolate", "self"),
    ("exact_scalar", "poly_gcd", "self"),
    ("exterior_core", "AlternatingTensor.make", "self"),
    ("exterior_core", "wedge", "self"),
    ("exterior_core", "contract", "self"),
    ("exterior_core", "reduced_square", "self"),
    ("exterior_core", "random_tensor", "self"),
    ("form_analysis", "point_contraction_rank", "self"),
    ("form_analysis", "genericity", "total"),
    ("form_analysis", "span_lattice", "total"),
    ("form_analysis", "quadric_of", "total"),
    ("form_analysis", "j_rank", "total"),
    ("degeneracy", "build_M", "self"),
    ("degeneracy", "SkewLinearMatrix.evaluate", "self"),
    ("degeneracy", "rank_at", "calls"),
    ("degeneracy", "stratify", "total"),
    ("degeneracy", "hypersurface_degree", "total"),
    ("degeneracy", "secant_pencil", "total"),
    ("degeneracy", "exhaustive_strata", "total"),
    ("degeneracy", "_poly_roots_prime", "self"),
    ("congruence", "order", "total"),
    ("congruence", "lines_through", "total"),
    ("congruence", "member_X", "total"),
    ("congruence", "sample_line_on_X", "total"),
    ("congruence", "quadrics_through_span", "total"),
    ("congruence", "recover_forms", "total"),
    ("congruence", "classify_linear_section", "total"),
    ("residual", "sample_line_on_Y", "total"),
    ("residual", "member_Y", "total"),
    ("residual", "line_system", "total"),
    ("residual", "G_degree_odd", "total"),
    ("residual", "Y_secancy_even", "total"),
    ("residual", "sing_Y_dimension", "total"),
    ("enumerative", "tables_rows", "self"),
    ("enumerative", "triangle", "self"),
    ("enumerative", "multidegrees", "self"),
    ("enumerative", "chern", "self"),
    ("enumerative", "stratum_class_degree", "self"),
    ("enumerative", "fundamental_locus_degrees", "self"),
    ("catalog", "get", "self"),
)

MODULES = (
    "catalog",
    "cli",
    "congruence",
    "degeneracy",
    "enumerative",
    "exact_scalar",
    "exterior_core",
    "form_analysis",
    "residual",
)

# Spans the benchmark opens itself around its calls into ``cli``.
CLI_SPANS = tuple(f"cli.run_suite.{part}" for part in SUITE_PARTS) + ("cli.analyze",)

COUNTS = (
    "exterior_core.AlternatingTensor.validations",
    "degeneracy._poly_roots_prime.elements_scanned",
    "congruence.line_attempts",
)

# Line attempts return a bivector or None; both functions share one counter.
_LINE_ATTEMPTS = ("_odd_line_attempt", "_even_line_attempt")


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in reporting order."""
    specs = []
    for module, attr, kind in SPANS:
        name = f"{module}.{attr}"
        specs.append((f"{name}.calls", "count", "lower"))
        if kind != "calls":
            specs.append((f"{name}.{kind}_s", "s", "lower"))
    specs += [(f"{name}.total_s", "s", "lower") for name in CLI_SPANS]
    specs += [(name, "count", "lower") for name in COUNTS]
    specs.append(("congruence.lines_per_attempt", "ratio", "higher"))
    specs += [(f"{module}.self_s", "s", "lower") for module in MODULES]
    specs += [
        ("trace.spans", "count", "lower"),
        ("traced_wall_s", "s", "lower"),
        ("tracing_overhead_s", "s", "lower"),
    ]
    return specs


class Tracer:
    """In-memory span recorder; ``install()`` patches, ``remove()`` restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One entry per span; a nested span of a name already open is stored
        # with its name id bit-inverted so total time counts it once.
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.op_labels: list[str] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.line_successes = 0
        self._op = -1
        self._stack: list[int] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def _enter(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid if self._open[nid] == 0 else ~nid)
        self._open[nid] += 1
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self._op)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _exit(self, idx: int, nid: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._open[nid] -= 1

    @contextmanager
    def span(self, name: str):
        nid = self._name_id(name)
        idx = self._enter(nid)
        try:
            yield
        finally:
            self._exit(idx, nid)

    @contextmanager
    def operation(self, label: str):
        """Tag every span opened inside with one operation id."""
        previous = self._op
        self._op = len(self.op_labels)
        self.op_labels.append(label)
        try:
            yield
        finally:
            self._op = previous

    def _timed(self, name: str, fn, on_call=None):
        nid = self._name_id(name)
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx, nid)

        return wrapper

    def _counted_validation(self, fn):
        counts = self.counts
        key = "exterior_core.AlternatingTensor.validations"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_attempt(self, fn):
        def wrapper(*args, **kwargs):
            line = fn(*args, **kwargs)
            self.counts["congruence.line_attempts"] += 1
            if line is not None:
                self.line_successes += 1
            return line

        return wrapper

    def _count_roots_scan(self, args, kwargs) -> None:
        p = kwargs["p"] if "p" in kwargs else args[1]
        self.counts["degeneracy._poly_roots_prime.elements_scanned"] += p

    # -- patching -----------------------------------------------------------

    def _rebind_everywhere(self, original, replacement) -> None:
        """Replace every module-level binding of ``original`` in the package."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "triwedge" and not mod_name.startswith("triwedge."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch_class(self, cls, attr: str, replacement) -> None:
        raw = cls.__dict__[attr]
        self._patches.append((cls, attr, raw))
        if isinstance(raw, staticmethod):
            replacement = staticmethod(replacement)
        setattr(cls, attr, replacement)

    def install(self) -> None:
        """Wrap every timed function and counter.  Call remove() before
        installing again."""
        import triwedge.cli  # noqa: F401  (loads every package module)
        from triwedge import congruence, exterior_core

        for module_name, attr, _ in SPANS:
            module = sys.modules[f"triwedge.{module_name}"]
            name = f"{module_name}.{attr}"
            hook = self._count_roots_scan if attr == "_poly_roots_prime" else None
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                self._patch_class(cls, method, self._timed(name, fn, hook))
            else:
                fn = getattr(module, attr)
                self._rebind_everywhere(fn, self._timed(name, fn, hook))
        self._patch_class(
            exterior_core.AlternatingTensor,
            "__post_init__",
            self._counted_validation(exterior_core.AlternatingTensor.__post_init__),
        )
        for attr in _LINE_ATTEMPTS:
            fn = getattr(congruence, attr)
            self._rebind_everywhere(fn, self._counted_attempt(fn))
        for name in CLI_SPANS:
            self._name_id(name)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s and total_s (outermost spans only)."""
        n_names = len(self.names)
        calls = [0] * n_names
        self_ns = [0] * n_names
        total_ns = [0] * n_names
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        child_ns = [0] * len(durations)
        for parent, dur in zip(self.span_parent, durations):
            if parent >= 0:
                child_ns[parent] += dur
        for coded, dur, inner in zip(self.span_name, durations, child_ns):
            nid = coded if coded >= 0 else ~coded
            calls[nid] += 1
            self_ns[nid] += dur - inner
            if coded >= 0:
                total_ns[nid] += dur
        return {
            name: {
                "calls": calls[i],
                "self_s": self_ns[i] / 1e9,
                "total_s": total_ns[i] / 1e9,
            }
            for i, name in enumerate(self.names)
        }

    def count_metrics(self) -> dict[str, int]:
        """Every calls and count value; these must repeat exactly per seed."""
        values = {f"{name}.calls": agg["calls"] for name, agg in self.aggregate().items()}
        values.update(self.counts)
        values["trace.spans"] = len(self.span_name)
        return values

    def metrics(self) -> dict[str, float]:
        """Per-layer values named as in ``metric_specs()``, timing metrics
        excluded (``traced_wall_s`` and ``tracing_overhead_s``)."""
        agg = self.aggregate()
        out: dict[str, float] = {}
        for module, attr, kind in SPANS:
            name = f"{module}.{attr}"
            out[f"{name}.calls"] = agg[name]["calls"]
            if kind != "calls":
                out[f"{name}.{kind}_s"] = agg[name][f"{kind}_s"]
        for name in CLI_SPANS:
            out[f"{name}.total_s"] = agg[name]["total_s"]
        out.update(self.counts)
        attempts = self.counts["congruence.line_attempts"]
        out["congruence.lines_per_attempt"] = (
            self.line_successes / attempts if attempts else 0.0
        )
        for module in MODULES:
            out[f"{module}.self_s"] = sum(
                a["self_s"] for n, a in agg.items() if n.split(".")[0] == module
            )
        out["trace.spans"] = len(self.span_name)
        return out

    def write(self, stem: Path) -> None:
        """Write the spans: ``stem.json`` describes ``stem.bin`` (five int64
        columns one after another: name id, start ns, end ns, parent, op)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "columns": ["name", "start_ns", "end_ns", "parent", "op"],
            "dtype": "int64",
            "byteorder": sys.byteorder,
            "spans": len(self.span_name),
            "nested_name_encoding": "~id for a span nested in one of the same name",
            "names": self.names,
            "ops": self.op_labels,
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
        with open(stem.with_suffix(".bin"), "wb") as handle:
            for column in (
                self.span_name,
                self.span_start,
                self.span_end,
                self.span_parent,
                self.span_op,
            ):
                column.tofile(handle)
