"""Span tracing of gemxpm's public functions, installed from outside.

The tracer replaces every module-global binding of a traced function in
the imported ``gemxpm`` modules with one wrapper, so calls made through
``from .gem import propagate`` in ``cli`` and ``xpm`` are seen as well as
calls made through the defining module's globals.  Each call becomes a
span (name, start, end, parent span, request id) kept in memory; the
aggregation into per-layer metrics happens after the run.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from collections import defaultdict
from functools import partial, wraps
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

# (defining module, function name).  The span name is "<module>.<name>"
# with the package prefix dropped, which is also the per-layer metric stem.
TRACED = (
    ("config", "parse_config"),
    ("gem", "propagate"),
    ("gem", "polariton_transform"),
    ("gem", "peak_k_trajectory"),
    ("gem", "verify_fourier_relation"),
    ("gem", "excitation_balance"),
    ("xpm", "double_storage_run"),
    ("gate", "build_hamiltonian"),
    ("gate", "evolve"),
    ("gate", "phase_trace"),
    ("gate", "liouvillian_matrix"),
    ("gate", "propagator"),
    ("tomography", "channel_from_gate"),
    ("tomography", "choi_matrix"),
    ("tomography", "process_fidelity"),
    ("reporting", "write_summary"),
    ("reporting", "choi_export"),
    ("cli", "run_config"),
)
# Methods are bound on the class, once.
TRACED_METHODS = (("reporting", "ResultTable", "write_csv"),)


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name)


def _grid_work(index: int, args: tuple, kwargs: dict) -> Dict[str, float]:
    grid = _arg(args, kwargs, index, "grid")
    return {"steps": grid.nt - 1, "step_points": (grid.nt - 1) * grid.nz,
            "record_bytes": 2 * grid.nt * grid.nz * 16}


def _evolve_work(args: tuple, kwargs: dict) -> Dict[str, float]:
    t_end = _arg(args, kwargs, 3, "t_end")
    dt = _arg(args, kwargs, 4, "dt")
    return {"steps": math.ceil(t_end / dt)}


def _csv_bytes(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"bytes": Path(result).stat().st_size}


# Work computed from a call's arguments (before the call) or its result.
ARG_WORK: Dict[str, Callable[[tuple, dict], Dict[str, float]]] = {
    "gem.propagate": partial(_grid_work, 3),
    "xpm.double_storage_run": partial(_grid_work, 4),
    "gate.evolve": _evolve_work,
}
RESULT_WORK = {"reporting.write_csv": _csv_bytes}


class Span:
    __slots__ = ("sid", "name", "parent", "request", "start", "end",
                 "child_s", "error", "work")

    def __init__(self, sid: int, name: str, parent: Optional["Span"],
                 request: str):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.request = request
        self.start = time.perf_counter()
        self.end = math.nan
        self.child_s = 0.0
        self.error: Optional[str] = None
        self.work: Dict[str, float] = {}

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def as_dict(self) -> Dict[str, Any]:
        return {"id": self.sid, "name": self.name,
                "parent": None if self.parent is None else self.parent.sid,
                "request": self.request, "start": self.start,
                "end": self.end, "self_s": self.self_s,
                "error": self.error, "work": self.work}


class Tracer:
    """Records spans while ``active``; inactive wrappers call straight through."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        self.request = "setup"
        self._stack: List[Span] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        arg_work = ARG_WORK.get(name)
        result_work = RESULT_WORK.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(len(tracer.spans), name, parent, tracer.request)
            tracer.spans.append(span)
            if arg_work is not None:
                span.work.update(arg_work(args, kwargs))
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            if result_work is not None:
                span.work.update(result_work(args, kwargs, result))
            return result

        return traced

    def install(self) -> List[str]:
        """Wrap every binding site; return the names of functions not found."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == "gemxpm" or n.startswith("gemxpm.")}
        missing = []
        originals = {}
        for mod, fname in TRACED:
            fn = getattr(modules.get(f"gemxpm.{mod}"), fname, None)
            if fn is None:
                missing.append(f"{mod}.{fname}")
                continue
            originals[id(fn)] = (fn, self._wrap(f"{mod}.{fname}", fn))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(module, attr, originals[id(value)][1])
        for mod, cls_name, meth in TRACED_METHODS:
            cls = getattr(modules.get(f"gemxpm.{mod}"), cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is None:
                missing.append(f"{mod}.{meth}")
                continue
            setattr(cls, meth, self._wrap(f"{mod}.{meth}", fn))
        return missing

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


Totals = Dict[str, Dict[str, float]]


def layer_totals(spans: List[Span]) -> Totals:
    """Per-span-name totals: calls, errors, self seconds and work counters."""
    out: Totals = defaultdict(lambda: defaultdict(float))
    for span in spans:
        tot = out[span.name]
        tot["calls"] += 1
        tot["errors"] += span.error is not None
        tot["s"] += span.self_s
        for key, val in span.work.items():
            if key == "record_bytes":
                tot[key] = max(tot[key], val)
            else:
                tot[key] += val
    return out


def _median_totals(groups: List[Totals]) -> Totals:
    out: Totals = defaultdict(lambda: defaultdict(float))
    for name in {n for g in groups for n in g}:
        for key in {k for g in groups for k in g.get(name, {})}:
            out[name][key] = statistics.median(
                g.get(name, {}).get(key, 0.0) for g in groups)
    return out


def _ratio(num: float, den: float, scale: float) -> float:
    return scale * num / den if den else 0.0


def combined_totals(setup: List[Span], passes: List[List[Span]]) -> Totals:
    """Set-up spans plus the median traced pass, per span name."""
    tot: Totals = defaultdict(lambda: defaultdict(float))
    rest = _median_totals([layer_totals(p) for p in passes])
    for group in (layer_totals(setup), rest):
        for name, vals in group.items():
            for key, val in vals.items():
                if key == "record_bytes":
                    tot[name][key] = max(tot[name][key], val)
                else:
                    tot[name][key] += val
    return tot


def layer_value(totals: Totals, metric: str) -> float:
    """One per-layer metric, ``<module>.<function>.<key>``, from totals.

    ``.s`` is self time; functions never called read zero.
    """
    name, key = metric.rsplit(".", 1)
    vals = totals.get(name, {})
    if key == "ns_per_step_point":
        return _ratio(vals.get("s", 0.0), vals.get("step_points", 0.0), 1e9)
    if key == "us_per_step":
        return _ratio(vals.get("s", 0.0), vals.get("steps", 0.0), 1e6)
    if key == "record_mb":
        return vals.get("record_bytes", 0.0) / 1e6
    return vals.get(key, 0.0)
