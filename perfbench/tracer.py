"""Span tracer that times calls into cmclab's public functions from outside.

The package's modules import each other's functions by name, so tracing a
function means replacing every binding of it in every loaded ``cmclab.*``
module.  ``Tracer.installed()`` does that for the functions in TRACED and
puts every original back on exit.  Spans stay in memory; ``write_jsonl``
writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# (module, attribute) of every traced callable; the span name is
# "<module>.<function>", e.g. "diagnostics.add" for DiagnosticsCollector.add.
TRACED = (
    ("lapse", "solve_lapse"),
    ("evolution", "time_step"),
    ("evolution", "evolution_rhs"),
    ("geometry", "ricci"),
    ("geometry", "weyl_parts"),
    ("geometry", "br_components"),
    ("geometry", "constraint_norms"),
    ("tensor", "christoffels"),
    ("tensor", "cross"),
    ("tensor", "inner"),
    ("tensor", "wedge"),
    ("tensor", "curl"),
    ("tensor", "hessian"),
    ("grid", "inverse_metric"),
    ("grid", "diff_array"),
    ("diagnostics", "DiagnosticsCollector.add"),
    ("diagnostics", "br_energy"),
    ("diagnostics", "br_flux"),
    ("diagnostics", "emit_records"),
    ("diagnostics", "parse_records"),
    ("diagnostics", "continuation_monitor"),
    ("snapshot", "save_state"),
    ("snapshot", "load_state"),
)

# Called once per round, outside the timed operations: reported per round.
PER_ROUND = frozenset({
    "snapshot.save_state",
    "snapshot.load_state",
    "diagnostics.emit_records",
    "diagnostics.parse_records",
    "diagnostics.continuation_monitor",
})

_MARK = "__perfbench_span__"


def span_name(module: str, attribute: str) -> str:
    return f"{module}.{attribute.rpartition('.')[2]}"


def _lapse_probe(args, kwargs, result):
    report = result[1]
    return {"iters": report.iterations, "r0": report.residual_history[0]}


def _save_probe(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# Extra numbers read from a traced call's arguments and result.
PROBES = {
    "lapse.solve_lapse": _lapse_probe,
    "grid.diff_array": lambda args, kwargs, result: {"bytes": result.nbytes},
    "snapshot.save_state": _save_probe,
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index of the enclosing span in Tracer.spans
    op: int | None = None  # index of the operation span this span belongs to
    attrs: dict | None = None


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        op = index if parent is None else self.spans[parent].op
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=op, attrs=attrs))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        index = self.open(name, attrs)
        try:
            yield index
        finally:
            self.close(index)

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.spans[index].attrs = {"error": type(exc).__name__}
                report = getattr(exc, "report", None)
                if report is not None:
                    self.spans[index].attrs["iters"] = report.iterations
                raise
            finally:
                self.close(index)
            if probe is not None:
                self.spans[index].attrs = probe(args, kwargs, result)
            return result

        setattr(traced, _MARK, name)
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module, attribute in TRACED:
            owner_name, _, attr = attribute.rpartition(".")
            mod = importlib.import_module(f"cmclab.{module}")
            if owner_name:
                owner = getattr(mod, owner_name)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span_name(module, attribute), original))
            else:
                original = getattr(mod, attr)
                wrappers[original] = self._wrap(span_name(module, attribute), original)
        for module in _cmclab_modules():
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _cmclab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cmclab" or name.startswith("cmclab."))]


def wrapped_bindings() -> list[str]:
    """Every binding in the loaded cmclab modules that is still a tracer wrapper."""
    left = []
    for module in _cmclab_modules():
        for attr, value in vars(module).items():
            if hasattr(value, _MARK):
                left.append(f"{module.__name__}.{attr}")
            if isinstance(value, type):
                left.extend(f"{module.__name__}.{attr}.{name}"
                            for name, member in vars(value).items() if hasattr(member, _MARK))
    return left


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[index], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


def layer_metrics(spans: list[Span], ops: list[int], rounds: int) -> dict:
    """Per-layer numbers from one traced run.

    ops are the indices of the traced timed-operation spans.  Self time,
    calls and bytes are per timed operation, counting spans inside those
    operations; the PER_ROUND functions count every span and are per round.
    """
    selfs = self_times(spans)
    op_set = set(ops)
    per_op = max(len(ops), 1)
    per_round = max(rounds, 1)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    nbytes = defaultdict(int)
    iters, residuals, diverged = [], [], 0
    for span, own in zip(spans, selfs):
        if span.op not in op_set and span.name not in PER_ROUND:
            continue
        self_s[span.name] += own
        calls[span.name] += 1
        attrs = span.attrs or {}
        nbytes[span.name] += attrs.get("bytes", 0)
        if span.name == "lapse.solve_lapse":
            iters.append(attrs.get("iters", 0))
            if "r0" in attrs:
                residuals.append(attrs["r0"])
            diverged += attrs.get("error") == "SolverDiverged"

    names = [span_name(module, attr) for module, attr in TRACED]
    out = {}
    for name in names:
        scale = per_round if name in PER_ROUND else per_op
        out[f"{name}.self_s"] = self_s[name] / scale
        out[f"{name}.calls"] = calls[name] / scale
    out["grid.diff_array.bytes_computed"] = nbytes["grid.diff_array"] / per_op
    out["snapshot.bytes"] = nbytes["snapshot.save_state"] / per_round
    out["lapse.cg_iters_per_solve"] = sum(iters) / len(iters) if iters else 0.0
    out["lapse.initial_residual.p50"] = statistics.median(residuals) if residuals else 0.0
    out["lapse.diverged"] = diverged / per_op

    # The share of an operation's time that lies in spans below its entry
    # functions (time_step, DiagnosticsCollector.add, br_energy, ...): the
    # self time of the operation span and of its direct children is work
    # that no inner layer's span accounts for.
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    coverage = []
    for index in ops:
        op = spans[index]
        unattributed = selfs[index] + sum(selfs[c] for c in children[index])
        coverage.append(1.0 - unattributed / (op.end - op.start))
    out["trace.coverage"] = statistics.fmean(coverage) if coverage else 0.0
    return out
