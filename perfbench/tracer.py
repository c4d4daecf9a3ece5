"""Outside-in tracer for the torusvass package.

The tracer never edits the package.  ``install`` replaces each traced function
with a timing wrapper at every place the function object is bound: module
globals of every loaded ``torusvass.*`` module (``extract`` imports
``normalized_series`` by name, so patching the home module alone would miss
calls), class dictionaries (``TruncSeries.__radd__`` is an alias of
``__add__``) and module-level dicts (``suites.SUITES``).  ``uninstall`` puts
every original back.

Each call records a span: name, start, end and parent span.  Spans stay in
memory in flat arrays and are written once, by ``write_spans``.  Self time is
the span's duration minus the time its child spans cover; it and the total
(inclusive) time are accumulated as spans close, so the summary needs no
second pass.  For the functions marked in ``TRACED`` the tracer also keeps
the set of distinct argument tuples, which gives the ratio of distinct inputs
to calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

SUITE_NAMES = ("closed-forms", "alpha", "g-tables", "trefoil", "relations",
               "distinguishing", "integrality", "v3", "cross-family",
               "unit-symmetry")

#: (span name, home module, attribute path, track distinct inputs)
TRACED = (
    ("series.new", "torusvass.series", "TruncSeries.__init__", False),
    ("series.mul", "torusvass.series", "TruncSeries.__mul__", False),
    ("series.add", "torusvass.series", "TruncSeries.__add__", False),
    ("series.div", "torusvass.series", "series_div", False),
    ("series.exp", "torusvass.series", "series_exp_linear", False),
    ("invariants.homfly", "torusvass.invariants", "homfly_normalized", True),
    ("invariants.kauffman", "torusvass.invariants", "kauffman_normalized", True),
    ("invariants.akutsu_wadati", "torusvass.invariants", "akutsu_wadati_normalized", True),
    ("invariants.unknot_factor", "torusvass.invariants", "unknot_factor", True),
    ("invariants.qpower", "torusvass.invariants", "qpower", True),
    ("groups.group_factors", "torusvass.groups", "group_factors", True),
    ("linalg.solve_exact", "torusvass.linalg", "solve_exact", False),
    ("linalg.interpolate_poly", "torusvass.linalg", "interpolate_poly", False),
    ("extract.assemble_system", "torusvass.extract", "assemble_system", False),
    ("extract.extract_alpha_tilde", "torusvass.extract", "extract_alpha_tilde", False),
    ("extract.extract_alpha", "torusvass.extract", "extract_alpha", False),
    ("extract.fit_ansatz", "torusvass.extract", "fit_ansatz", False),
    ("tables.closed_form_beta", "torusvass.tables", "closed_form_beta", True),
    ("tables.closed_form_alpha_tilde", "torusvass.tables", "closed_form_alpha_tilde", True),
    ("tables.closed_form_alpha", "torusvass.tables", "closed_form_alpha", True),
    ("analysis.distinguishing_check", "torusvass.analysis", "distinguishing_check", False),
    ("analysis.integrality_scan", "torusvass.analysis", "integrality_scan", False),
    ("analysis.dependency_relations_check", "torusvass.analysis",
     "dependency_relations_check", False),
    ("analysis.noncoprime_witnesses", "torusvass.analysis", "noncoprime_witnesses", False),
    ("analysis.auxiliary_scalars", "torusvass.analysis", "auxiliary_scalars", False),
    ("analysis.lissajous_obstruction", "torusvass.analysis", "lissajous_obstruction", False),
    ("knots.canonical_knots", "torusvass.knots", "canonical_knots", False),
    ("knots.canonicalize", "torusvass.knots", "canonicalize", False),
) + tuple(
    (f"suites.{name}", "torusvass.suites", "suite_" + name.replace("-", "_"), False)
    for name in SUITE_NAMES
) + (
    ("cli.main", "torusvass.cli", "main", False),
    ("cli.build_parser", "torusvass.cli", "build_parser", False),
)

#: counters computed from a traced call's arguments: span name -> (counter, fn)
COMPUTED = {
    # computed from operand lengths, not counted inside the product loop
    "series.mul": ("series.mul.coeff_products",
                   lambda args: len(args[0].coefficients) * len(args[1].coefficients)
                   if hasattr(args[1], "coefficients") else 0),
    "linalg.solve_exact": ("linalg.solve_exact.rows", lambda args: len(args[0].entries)),
}

#: the kinds of request in the requests workload, whose share of job time a
#: traced run reports (the mix itself is an assumption; see NOTES.md)
REQUEST_KINDS = ("invariants", "expand", "scan", "invalid")


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for span, _module, _attr, distinct in TRACED:
        names += [f"{span}.calls", f"{span}.self_s"]
        if span.startswith("suites."):  # a suite's own time is ~0; its total shows reuse
            names.append(f"{span}.total_s")
        if distinct:
            names.append(f"{span}.distinct_ratio")
        if span in COMPUTED:
            names.append(COMPUTED[span][0])
    return names + ["cli.bytes_out", "cli.verify.payload_mismatch",
                    "trace.overhead_ratio", "trace.accounted_ratio"] + [
                        f"requests.{kind}.time_share" for kind in REQUEST_KINDS]


def _key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items()))) if kwargs else args
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


def _resolve(module_name: str, attr_path: str):
    """The object at module.attr_path, or None if the package lacks it."""
    owner = sys.modules.get(module_name)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    return vars(owner).get(attr) if owner is not None else None


class Tracer:
    """Spans and counters for one traced run; install/uninstall patch the package."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.distinct: list = []
        self.counters: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.paused = False
        self._stack: list = []  # [span index, time covered by children]
        self._patches: list = []
        self._ids: dict[str, int] = {}

    def _id(self, name: str, distinct: bool = False) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.distinct.append(set() if distinct else None)
        return self._ids[name]

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def _open(self, sid: int) -> list:
        index = len(self.span_name)
        self.span_name.append(sid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [index, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, sid: int, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        self.self_s[sid] += duration - frame[1]
        self.total_s[sid] += duration
        if self._stack:
            self._stack[-1][1] += duration
        self.span_start[frame[0]] = start
        self.span_end[frame[0]] = end

    @contextmanager
    def span(self, name: str):
        """A harness span; calls into the package nest under it."""
        sid = self._id(name)
        self.calls[sid] += 1
        frame = self._open(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, frame, start, time.perf_counter())

    @contextmanager
    def pause(self):
        """Calls made inside (output checks) record nothing."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def _wrap(self, name: str, fn, distinct: bool):
        sid = self._id(name, distinct)
        seen = self.distinct[sid]
        computed = COMPUTED.get(name)
        perf = time.perf_counter
        calls = self.calls
        counters = self.counters

        def record_call(args, kwargs):
            calls[sid] += 1
            if seen is not None:
                seen.add(_key(args, kwargs))
            if computed is not None:
                counters[computed[0]] = counters.get(computed[0], 0) + computed[1](args)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if self.paused:
                    yield from fn(*args, **kwargs)
                    return
                record_call(args, kwargs)
                iterator = fn(*args, **kwargs)
                while True:  # each resume of the generator is one span
                    frame = self._open(sid)
                    start = perf()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        self._close(sid, frame, start, perf())
                        return
                    self._close(sid, frame, start, perf())
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            record_call(args, kwargs)
            frame = self._open(sid)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, frame, start, perf())
        return traced

    def install(self) -> None:
        """Wrap every traced function at every binding site in the package.

        A traced function the package no longer has is skipped: its metrics
        then read 0, the same as a layer that did no work.
        """
        wrappers = {}  # id(original) -> wrapper; the originals stay bound, so ids are stable
        for name, module_name, attr_path, distinct in TRACED:
            original = _resolve(module_name, attr_path)
            if original is not None:
                wrappers[id(original)] = self._wrap(name, original, distinct)
        for module_name, module in sorted(sys.modules.items()):
            if module_name != "torusvass" and not module_name.startswith("torusvass."):
                continue
            sites = [(functools.partial(setattr, module), vars(module))]
            for value in vars(module).values():
                if isinstance(value, dict):
                    sites.append((value.__setitem__, value))
                elif isinstance(value, type) and value.__module__ == module_name:
                    sites.append((functools.partial(setattr, value), vars(value)))
            for setter, namespace in sites:
                for key, value in list(namespace.items()):
                    if id(value) in wrappers:
                        self._patches.append((setter, key, value))
                        setter(key, wrappers[id(value)])

    def uninstall(self) -> None:
        for setter, key, original in reversed(self._patches):
            setter(key, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """Counts, self times and distinct-input counts by span name."""
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "total_s": dict(zip(self.names, self.total_s)),
            "distinct": {name: len(seen) for name, seen in zip(self.names, self.distinct)
                         if seen is not None},
            "counters": dict(self.counters),
            "spans": len(self.span_name),
        }

    def write_spans(self, path) -> None:
        """One JSON header line, then the four span columns as raw arrays
        (name index int32, parent span int32, start float64, end float64)."""
        header = {"names": self.names, "count": len(self.span_name),
                  "columns": ["name:i4", "parent:i4", "start:f8", "end:f8"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for column in (self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(handle)
