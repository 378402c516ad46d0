"""In-memory span tracer for the pell3 layers.

The tracer wraps pell3's public functions and methods at each module
boundary from outside the package: it replaces the module (or class)
attribute with a wrapper that records one span per call, and puts the
original back on ``uninstall``.  A span is (name, start, end, parent).
Spans are kept in flat arrays while the workload runs and written
out at the end; a layer's self time is its span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

#: The package modules are the layers.  For each: the functions and the
#: ``Class.method`` names wrapped at its boundary.
TARGETS = {
    "cli": ("main",),
    "verify": (
        "run_suite",
        "run_closed_form",
        "run_binet",
        "run_xi",
        "run_roots",
        "run_lagrange",
    ),
    "pell": ("recurrence_gen", "closed_form", "coefficient_triangle", "triangle_csv"),
    "poly": (
        "CompactPell.to_json_dict",
        "CompactPell.to_dense",
        "CompactPell.eval_in_z",
        "DensePoly.format_plain",
        "DensePoly.__call__",
        "DensePoly.__add__",
        "DensePoly.__sub__",
        "DensePoly.__neg__",
        "DensePoly.__mul__",
        "DensePoly.__rmul__",
    ),
    "binet": (
        "substitution_chain",
        "sample_points",
        "roots",
        "solve_coefficients",
        "closed_form_coefficients",
        "binet_eval",
        "radical_cancellation",
        "radical_cancellation_binomial",
        "power_sums",
        "char_root_residuals",
    ),
    "exactnum": ("gen_binomial",)
    + tuple(
        f"QuadExt.{m}"
        for m in (
            "__init__",
            "__add__",
            "__radd__",
            "__sub__",
            "__rsub__",
            "__neg__",
            "__mul__",
            "__rmul__",
            "__truediv__",
            "__rtruediv__",
            "__pow__",
            "conjugate",
            "norm",
            "is_rational",
            "__eq__",
        )
    ),
    "series": tuple(
        f"RatSeries.{m}"
        for m in (
            "__add__",
            "__radd__",
            "__sub__",
            "__rsub__",
            "__neg__",
            "__mul__",
            "__rmul__",
            "__pow__",
            "reciprocal",
            "compose",
        )
    ),
    "lagrange": (
        "inversion_coefficient",
        "inversion_series",
        "verify_inversion",
        "first_term_coefficient",
        "first_term_series",
        "truncation_bridge",
        "radius_estimate",
    ),
}

_QUADEXT = [f"exactnum.{t}" for t in TARGETS["exactnum"] if t.startswith("QuadExt.")]
_QUADEXT_OPS = [n for n in _QUADEXT if n != "exactnum.QuadExt.__init__"]

#: Per-layer metric -> (aggregate, span names).  ``self`` sums self time in
#: seconds, ``calls`` counts spans.  Every ``_s`` metric also has a ``_pct``
#: twin: the same self time as a percentage of the traced batch.
LAYER_METRICS = {
    "cli.self_s": ("self", ["cli.main"]),
    "cli.calls": ("calls", ["cli.main"]),
    "verify.closed_form_s": ("self", ["verify.run_closed_form"]),
    "verify.binet_s": ("self", ["verify.run_binet"]),
    "verify.xi_s": ("self", ["verify.run_xi"]),
    "verify.roots_s": ("self", ["verify.run_roots"]),
    "verify.lagrange_s": ("self", ["verify.run_lagrange"]),
    "pell.recurrence_s": ("self", ["pell.recurrence_gen"]),
    "pell.recurrence_calls": ("calls", ["pell.recurrence_gen"]),
    "pell.closed_form_s": ("self", ["pell.closed_form"]),
    "pell.closed_form_calls": ("calls", ["pell.closed_form"]),
    "pell.triangle_s": ("self", ["pell.coefficient_triangle", "pell.triangle_csv"]),
    "poly.render_s": (
        "self",
        ["poly.CompactPell.to_json_dict", "poly.CompactPell.to_dense", "poly.DensePoly.format_plain"],
    ),
    "poly.eval_in_z_s": ("self", ["poly.CompactPell.eval_in_z"]),
    "poly.eval_in_z_calls": ("calls", ["poly.CompactPell.eval_in_z"]),
    "binet.solve_coefficients_s": ("self", ["binet.solve_coefficients"]),
    "binet.closed_form_coefficients_s": ("self", ["binet.closed_form_coefficients"]),
    "binet.binet_eval_s": ("self", ["binet.binet_eval"]),
    "binet.roots_s": ("self", ["binet.roots"]),
    "binet.radical_cancellation_s": ("self", ["binet.radical_cancellation"]),
    "binet.radical_cancellation_binomial_s": ("self", ["binet.radical_cancellation_binomial"]),
    "binet.power_sums_s": ("self", ["binet.power_sums"]),
    "exactnum.quadext_ops": ("calls", _QUADEXT_OPS),
    "exactnum.quadext_created": ("calls", ["exactnum.QuadExt.__init__"]),
    "exactnum.quadext_s": ("self", _QUADEXT),
    "series.mul_calls": ("calls", ["series.RatSeries.__mul__", "series.RatSeries.__rmul__"]),
    "series.mul_s": ("self", ["series.RatSeries.__mul__", "series.RatSeries.__rmul__"]),
    "series.reciprocal_s": ("self", ["series.RatSeries.reciprocal"]),
    "series.compose_s": ("self", ["series.RatSeries.compose"]),
    "lagrange.verify_inversion_s": ("self", ["lagrange.verify_inversion"]),
    "lagrange.first_term_series_s": ("self", ["lagrange.first_term_series"]),
    "lagrange.truncation_bridge_s": ("self", ["lagrange.truncation_bridge"]),
}


#: The span that encloses one traced batch; ``_pct`` metrics are shares of it.
BATCH_SPAN = "bench.batch"


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, name in (("_s", "s"), ("_pct", "%"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return name
    return "count"


def metric_names() -> list:
    """Every per-layer metric ``layer_metrics`` returns."""
    out = list(LAYER_METRICS)
    out += [m.removesuffix("_s") + "_pct" for m, (kind, _) in LAYER_METRICS.items() if kind == "self"]
    return out


class Tracer:
    """Records spans for wrapped calls while installed and not paused."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.outer = array("b")
        self._active: list[int] = []
        self._stack: list[int] = []
        self._paused = False
        self._patched: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(self._active[name_id] == 0)
        self._active[name_id] += 1
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._active[self.name[idx]] -= 1
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        if self._paused:
            yield
            return
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Call the program without recording, e.g. from a correctness check."""
        before, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = before

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self) -> None:
        """Wrap every target.  A module-level function is replaced in every
        pell3 module that holds a reference to it (``from x import f``
        copies the reference), so calls through any of them are seen."""
        modules = [importlib.import_module("pell3")] + [
            importlib.import_module(f"pell3.{layer}") for layer in TARGETS
        ]
        for layer, targets in TARGETS.items():
            home = importlib.import_module(f"pell3.{layer}")
            for target in targets:
                owner_name, _, attr = target.rpartition(".")
                if owner_name:
                    owner = getattr(home, owner_name)
                    self._patch(owner, attr, self._wrap(f"{layer}.{target}", owner.__dict__[attr]))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(f"{layer}.{target}", original)
                for module in modules:
                    if vars(module).get(attr) is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def table(self, lo: int = 0) -> dict:
        """Per span name over the spans from index lo on: calls, self seconds
        and total seconds (total counts only spans not nested in a span of
        the same name, so recursion is not counted twice).  Spans from lo on
        must hold whole trees: no parent of theirs lies before lo."""
        hi = len(self.name)
        child = [0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}
        for i in range(lo, hi):
            nid = self.name[i]
            row = out.setdefault(self.names[nid], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += (dur - child[i - lo]) / 1e9
            if self.outer[i]:
                row["total_s"] += dur / 1e9
        return out

    def write(self, path) -> None:
        """Write every span as gzipped CSV: id, parent, name, start_ns,
        end_ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                    f"{self.start[i]},{self.end[i]}\n"
                )


def layer_metrics(table: dict) -> dict:
    """The named per-layer metrics from the span table of one traced batch
    (zero where the workload never reaches the layer)."""
    out = {}
    batch_s = table[BATCH_SPAN]["total_s"]
    for metric, (kind, names) in LAYER_METRICS.items():
        rows = [table[n] for n in names if n in table]
        if kind == "calls":
            out[metric] = sum(r["calls"] for r in rows)
            continue
        out[metric] = sum(r["self_s"] for r in rows)
        out[metric.removesuffix("_s") + "_pct"] = 100 * out[metric] / batch_s
    return out
