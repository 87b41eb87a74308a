"""Span tracing installed from outside the package, for the ``--trace 1`` run.

``Tracer.install`` replaces public functions of the qfano modules with
wrappers that record one span per call: name, start, end, parent and
whether it raised. A name that another module bound with ``from ... import``
(``wps.expand_product``, ``riemann_roch.series_equal_upto``) is the same
function object, so every binding of it is replaced too. Spans stay in
memory; ``write`` saves them when the run ends, and ``layer_metrics``
turns them into self times (span minus its children), call counts and
the ratios the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter

# (module, function) pairs wrapped in the traced run. ``install`` fails when
# the package no longer defines one, so a renamed layer cannot read as 0.
TARGETS = (
    ("wps", "monomials"),
    ("wps", "well_formed"),
    ("wps", "analyze"),
    ("wps", "basket"),
    ("wps", "vertex_singularity"),
    ("wps", "edge_singularities"),
    ("wps", "hilbert"),
    ("wps", "genus"),
    ("series", "expand_product"),
    ("series", "series_equal_upto"),
    ("riemann_roch", "calibrate"),
    ("riemann_roch", "chi"),
    ("riemann_roch", "hilbert_rr"),
    ("sarkisov", "run_case"),
    ("sarkisov", "enumerate_bare"),
    ("sarkisov", "apply_filters"),
    ("sarkisov", "second_contraction"),
    ("normal_form", "parse"),
    ("normal_form", "substitute"),
    ("normal_form", "normalize"),
    ("normal_form", "corner_check"),
    ("fixtures", "verify"),
    ("cli", "main"),
)


def _eliminations(events):
    return [(f"sarkisov.eliminated.{ev.filter_id}", 1) for ev in events if ev.verdict == "eliminated"]


# work counted from a call's result: name -> result -> [(counter, amount)]
RESULT_COUNTS = {
    "wps.monomials": lambda r: [("wps.monomials.vectors", len(r))],
    "series.expand_product": lambda r: [("series.expand_product.coeffs", len(r.coefficients))],
    "normal_form.substitute": lambda r: [("normal_form.substitute.terms", len(r.terms))],
    "normal_form.normalize": lambda r: [("normal_form.normalize.steps", len(r.steps))],
    "sarkisov.enumerate_bare": lambda r: [("sarkisov.candidates", len(r))],
    "sarkisov.apply_filters": _eliminations,
    "sarkisov.run_case": lambda r: [("sarkisov.bare", len(r.bare)), ("sarkisov.final", len(r.final))],
}


class Tracer:
    """Records spans inside operation spans (``span``), never during the checks."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # one entry per span, in flat arrays so that recording allocates no
        # objects for the garbage collector to walk
        self.name_ids, self.parents, self.raised = array("i"), array("i"), array("b")
        self.starts, self.ends = array("q"), array("q")
        self.counts: Counter = Counter()
        self.enabled = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, modules: dict) -> None:
        """Wrap every target in ``modules`` (short name -> module object).

        Raises LookupError, naming them, when targets are missing.
        """
        missing = [f"{m}.{fn}" for m, fn in TARGETS if not callable(getattr(modules.get(m), fn, None))]
        if missing:
            raise LookupError(f"traced functions not found in qfano: {', '.join(missing)}")
        for mod_name, fn_name in TARGETS:
            original = getattr(modules[mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for other in modules.values():
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._restore.append((other, attr, value))
                        setattr(other, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counted = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span_id, True)
                raise
            self._close(span_id, False)
            if counted is not None:
                for counter, amount in counted(result):
                    self.counts[counter] += amount
            return result

        return wrapper

    def _open(self, name_id: int) -> int:
        span_id = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.raised.append(0)
        self.ends.append(0)
        self._stack.append(span_id)
        self.starts.append(time.perf_counter_ns())
        return span_id

    def _close(self, span_id: int, raised: bool) -> None:
        self.ends[span_id] = time.perf_counter_ns()
        self._stack.pop()
        self.raised[span_id] = raised

    def span(self, name: str) -> "_HarnessSpan":
        """A span opened by the harness around one workload operation."""
        if name not in self.names:
            self.names.append(name)
        return _HarnessSpan(self, self.names.index(name))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "raised"],
                    "names": self.names,
                    "spans": list(zip(self.name_ids, self.starts, self.ends, self.parents, self.raised)),
                    "counts": dict(self.counts),
                },
                fh,
                separators=(",", ":"),
            )

    def summary(self) -> tuple[dict[str, dict], int, int]:
        """Per name: calls, errors, self_ns; plus op time and op time in spans."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_ns = [0] * len(durations)
        for parent, dur in zip(self.parents, durations):
            if parent >= 0:
                child_ns[parent] += dur
        per: dict[str, dict] = {}
        op_ns = covered_ns = 0
        for i, dur in enumerate(durations):
            name = self.names[self.name_ids[i]]
            if name.startswith("op."):
                op_ns += dur
                covered_ns += child_ns[i]
            row = per.setdefault(name, {"calls": 0, "errors": 0, "self_ns": 0})
            row["calls"] += 1
            row["errors"] += self.raised[i]
            row["self_ns"] += dur - child_ns[i]
        return per, op_ns, covered_ns

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with an ``ancestor`` span above them."""
        names, name_ids, parents = self.names, self.name_ids, self.parents
        total = 0
        for i, nid in enumerate(name_ids):
            if names[nid] != name:
                continue
            parent = parents[i]
            while parent >= 0:
                if names[name_ids[parent]] == ancestor:
                    total += 1
                    break
                parent = parents[parent]
        return total


class _HarnessSpan:
    """Root span of one operation; spans are recorded only inside one."""

    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.tracer.enabled = True
        self.span_id = self.tracer._open(self.name_id)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self.span_id, exc_type is not None)
        self.tracer.enabled = False
        return False


SCAN_OUTCOMES = ("family", "empty", "not_well_formed", "warned", "raised")


def layer_metrics(tracer: Tracer, spanned, plain) -> dict[str, float]:
    """Per-layer values from the spans of the traced phase.

    ``<module>.<function>.calls|errors|self_ms`` come straight from the
    spans; other names are result counts or the ratios built here.
    ``spanned`` and ``plain`` are the tallies of the traced pass and of the
    untraced pass over the same operations before it.
    """
    per, op_ns, covered_ns = tracer.summary()
    values = LayerValues(tracer.counts)
    for name, row in per.items():
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.errors"] = row["errors"]
        values[f"{name}.self_ms"] = row["self_ns"] / 1e6
    assignments = tracer.calls_under("riemann_roch.hilbert_rr", "riemann_roch.calibrate")
    calibrate = per.get("riemann_roch.calibrate", {"calls": 0, "errors": 0})
    values["riemann_roch.calibrate.assignments"] = assignments
    values["riemann_roch.calibrate.match_ratio"] = (
        (calibrate["calls"] - calibrate["errors"]) / assignments if assignments else 0.0
    )
    bare = tracer.counts.get("sarkisov.bare", 0)
    values["sarkisov.final_ratio"] = tracer.counts.get("sarkisov.final", 0) / bare if bare else 0.0
    for label in SCAN_OUTCOMES:
        values[f"scan.outcome.{label}"] = spanned.labels[label]
    scanned = spanned.kinds["scan"]
    values["scan.accept_ratio"] = spanned.labels["family"] / scanned if scanned else 0.0
    traced_ns, plain_ns = spanned.total_ns(), plain.total_ns()
    values["trace.overhead_pct"] = 100 * (traced_ns / plain_ns - 1) if plain_ns else 0.0
    values["trace.accounted_pct"] = 100 * covered_ns / op_ns if op_ns else 0.0
    return values


class LayerValues(dict):
    """Layer values; a metric nothing produced reads 0.

    Every target exists (``Tracer.install`` checks), so 0 means the layer
    was not called in this workload.
    """

    def __missing__(self, key):
        return 0
