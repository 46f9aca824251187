"""Per-layer spans for the traced benchmark passes.

The tracer wraps public functions of the thadc modules from outside, so
the program under test is unchanged: each wrapped call records a span
(name, start, end, parent) tagged with the id of the check it belongs
to, and keeps the call's arguments and result until the check ends, when
the layer counts are read off them.  Spans stay in memory until the
benchmark writes them out.

With ``memory=True`` each wrapped call also records how far the heap
grew above its level at entry, from ``tracemalloc``.  The peak counter
is reset around every call, so the caller's running peak is carried in
the span stack instead.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Optional

# (module, attribute) -> layer name.  The first group is what the CLI
# calls; the rest are called from inside ``preprocess`` and ``check``.
WRAPPED = {
    ("thadc.cli", "load_spec"): "specio.load",
    ("thadc.cli", "parse_source"): "minic.parse",
    ("thadc.cli", "build_model"): "cfg.build",
    ("thadc.cli", "preprocess"): "passes.preprocess",
    ("thadc.cli", "check"): "checker.check",
    ("thadc.cli", "build_report"): "report.build",
    ("thadc.cli", "render_json"): "report.render",
    ("thadc.passes", "inline_calls"): "passes.inline",
    ("thadc.passes", "resolve_discriminators"): "passes.resolve",
    ("thadc.passes", "build_token_flow"): "passes.token_flow",
    ("thadc.checker", "dataflow_fixpoint"): "checker.fixpoint",
    ("thadc.checker", "find_witness"): "checker.witness",
}
ROOT_SPAN = "cli"

# Per-layer metric -> the layer whose self time it reports.
TIME_METRICS = {
    "specio.load_ms": "specio.load",
    "minic.parse_ms": "minic.parse",
    "cfg.build_ms": "cfg.build",
    "passes.inline_ms": "passes.inline",
    "passes.resolve_ms": "passes.resolve",
    "passes.token_flow_ms": "passes.token_flow",
    "checker.fixpoint_ms": "checker.fixpoint",
    "checker.check_self_ms": "checker.check",
    "checker.witness_ms": "checker.witness",
    "report.build_ms": "report.build",
    "report.render_ms": "report.render",
    "cli.self_ms": ROOT_SPAN,
}
# Per-layer metric -> the layer whose heap growth it reports.
MEMORY_METRICS = {
    "passes.resolve_peak_mb": "passes.resolve",
    "passes.token_flow_peak_mb": "passes.token_flow",
}
# Per-layer count -> the layer it is read from.
COUNT_METRICS = {
    "minic.source_lines": "minic.parse",
    "cfg.nodes": "cfg.build",
    "passes.inline_nodes": "passes.inline",
    "passes.flat_nodes": "passes.inline",
    "checker.facts": "checker.fixpoint",
    "checker.witness_calls": "checker.witness",
    "checker.violated": "checker.check",
    "checker.hal_sites": "checker.check",
    "report.bytes": "report.render",
}


@dataclass
class Span:
    check: int
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    heap_mb: Optional[float] = None


@dataclass
class _Frame:
    span: Span
    base: int = 0  # traced bytes at entry
    peak: int = 0  # highest traced bytes seen so far within the call


@dataclass
class Tracer:
    memory: bool = False
    spans: list[Span] = field(default_factory=list)
    absent: set[str] = field(default_factory=set)
    _stack: list[_Frame] = field(default_factory=list)
    _calls: list[tuple[str, tuple, Any]] = field(default_factory=list)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)
    _check: int = -1

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every name in WRAPPED that exists; note the rest absent."""
        for (module_name, attr), layer in WRAPPED.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.add(layer)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            self._calls.append((layer, args, result))
            return result
        traced.__wrapped__ = fn
        return traced

    def _enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        frame = _Frame(Span(self._check, len(self.spans),
                            parent.span.id if parent else None, name, 0.0))
        self.spans.append(frame.span)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            frame.base = frame.peak = current
        self._stack.append(frame)
        frame.span.start = time.perf_counter()

    def _exit(self) -> None:
        end = time.perf_counter()
        frame = self._stack.pop()
        frame.span.end = end
        if self.memory:
            frame.peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
            frame.span.heap_mb = (frame.peak - frame.base) / 2**20
            if self._stack:
                self._stack[-1].peak = max(self._stack[-1].peak, frame.peak)
            tracemalloc.reset_peak()

    # -- one check ---------------------------------------------------------

    def run_check(self, call):
        """Run ``call()`` as one check under a root span.

        Returns the call's result and the check's per-layer values: self
        time in ms per layer (heap growth in MB with ``memory``) plus the
        layer counts.  Layers that were installed but not called in this
        check read 0; layers that were absent are left out.
        """
        self._check += 1
        first = len(self.spans)
        self._calls.clear()
        self._enter(ROOT_SPAN)
        try:
            result = call()
        finally:
            self._exit()
        values = _counts(self._calls)
        self._calls.clear()
        per_layer = self._per_layer(self.spans[first:])
        metrics = MEMORY_METRICS if self.memory else TIME_METRICS
        for metric, layer in metrics.items():
            values[metric] = per_layer.get(layer, 0.0)
        for metric, layer in {**metrics, **COUNT_METRICS}.items():
            if layer in self.absent:
                values.pop(metric, None)
        return result, values

    def _per_layer(self, spans: list[Span]) -> dict[str, float]:
        if self.memory:
            heap: dict[str, float] = {}
            for s in spans:
                heap[s.name] = max(heap.get(s.name, 0.0), s.heap_mb or 0.0)
            return heap
        child_time: dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] = (child_time.get(s.parent, 0.0)
                                        + s.end - s.start)
        own: dict[str, float] = {}
        for s in spans:
            own[s.name] = own.get(s.name, 0.0) + 1000 * (
                s.end - s.start - child_time.get(s.id, 0.0))
        return own


def _counts(calls: list[tuple[str, tuple, Any]]) -> dict[str, int]:
    """Layer counts of one check, read off the wrapped calls' arguments
    and results after the check has finished."""
    counts: dict[str, int] = {"checker.witness_calls": 0}
    for layer, args, result in calls:
        if layer == "minic.parse":
            counts["minic.source_lines"] = len(args[0].splitlines())
        elif layer == "cfg.build":
            counts["cfg.nodes"] = sum(len(f.cfg.nodes)
                                      for f in result.functions.values())
        elif layer == "passes.inline":
            counts["passes.inline_nodes"] = len(result.entry_body.cfg.nodes)
            counts["passes.flat_nodes"] = sum(
                len(f.cfg.nodes) for f in result.functions.values())
        elif layer == "checker.fixpoint":
            keys: set = set()
            for state in result.values():
                keys |= state.completed
            counts["checker.facts"] = len(keys)
        elif layer == "checker.witness":
            counts["checker.witness_calls"] += 1
        elif layer == "checker.check":
            model, thad_set = args[0], args[1]
            names = {r.name for r in thad_set.routines}
            counts["checker.violated"] = sum(
                v.status.name == "VIOLATED" for v in result)
            counts["checker.hal_sites"] = sum(
                n.callee in names for n in model.entry_body.cfg.call_nodes())
        elif layer == "report.render":
            counts["report.bytes"] = len(result.encode("utf-8"))
    return counts
