"""Spans and call counters recorded from outside the program.

``Tracer.install()`` replaces module attributes of ``hypermap`` with timing
wrappers for the duration of a ``with`` block and restores them after; no
source is patched.  Coarse functions get one span per call (name, start,
end, parent span, job id).  Scalar functions called once per point only
add to a per-name count and summed time.  Every wrapper charges its
duration to the enclosing wrapper, so a span's self time is its duration
minus that of its children.

Only the main thread calls wrapped names: ``verify_cones`` hands its pool
threads the private chunk function, which is not wrapped.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import hypermap
import hypermap.cli
import hypermap.coordinates
import hypermap.svgrender
import hypermap.tangency

#: Spans: one record per call.
SPAN_NAMES = {
    "trace_leaf", "closed_leaves", "tangency_curve", "tangency_landmarks", "no_tangency_scan",
    "verify_cones", "delta_strip", "orbit_expansion", "hyperbolic_frame", "document",
}

#: (module, attribute, metric name).  The public names ``hypermap.cli``
#: imports, the svgrender functions, the library entry points the benchmark
#: calls through the package, and the callees inside those entry points that
#: per-layer metrics need (gamma and the strip constants inside
#: tangency_curve; svd2 and the orbit product inside hyperbolic_frame).
TARGETS = [
    (hypermap.cli, name, name) for name in (
        "critical_constants", "phi", "phi_tilde", "theta_field", "closed_leaves", "trace_leaf",
        "delta_strip", "push_vector", "verify_cones", "svd2", "angle_dist_mod_pi", "jacobian",
        "map_forward", "map_inverse", "phi_inverse", "tangency_curve", "tangency_landmarks",
    )
] + [
    (hypermap.svgrender, name, name) for name in ("polyline", "line", "hband", "circle", "document")
] + [
    (hypermap, name, name) for name in (
        "no_tangency_scan", "tangency_landmarks", "orbit_expansion", "hyperbolic_frame",
    )
] + [
    (hypermap.tangency, "gamma", "gamma"),
    (hypermap.tangency, "critical_constants", "critical_constants"),
    (hypermap.coordinates, "svd2", "svd2"),
    (hypermap.coordinates, "orbit_jacobian", "orbit_jacobian"),
]


@dataclass
class Aggregate:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


@dataclass
class Tracer:
    """In-memory spans, per-name aggregates and result hooks of one traced pass."""

    hooks: dict[str, Callable[[tuple, dict, Any], None]] = field(default_factory=dict)
    spans: list[tuple[str, float, float, int, int]] = field(default_factory=list)
    aggregates: dict[str, Aggregate] = field(default_factory=dict)
    #: Open frames: [child seconds, span index or -1].
    _stack: list[list] = field(default_factory=list)
    job_id: int = -1

    def _enter(self, span_index: int) -> None:
        self._stack.append([0.0, span_index])

    def _exit(self, elapsed: float) -> float:
        child = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        return child

    def _parent_span(self) -> int:
        for frame in reversed(self._stack):
            if frame[1] >= 0:
                return frame[1]
        return -1

    def span(self, name: str, fn: Callable) -> Callable:
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self._parent_span(), self.job_id))
            self._enter(index)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                child = self._exit(t1 - t0)
                self.spans[index] = (name, t0, t1, self.spans[index][3], self.job_id)
                agg = self.aggregates.setdefault(name, Aggregate())
                agg.calls += 1
                agg.seconds += t1 - t0
                agg.self_seconds += t1 - t0 - child
            if hook is not None:
                self._run_hook(hook, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        agg = self.aggregates.setdefault(name, Aggregate())
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(-1)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child = self._exit(elapsed)
                agg.calls += 1
                agg.seconds += elapsed
                agg.self_seconds += elapsed - child
            if hook is not None:
                self._run_hook(hook, args, kwargs, result)
            return result

        return wrapper

    def _run_hook(self, hook: Callable, args: tuple, kwargs: dict, result: Any) -> None:
        # Bookkeeping is charged to no layer: it counts as a child of the caller.
        t0 = time.perf_counter()
        hook(args, kwargs, result)
        if self._stack:
            self._stack[-1][0] += time.perf_counter() - t0

    def wrap(self, name: str, fn: Callable) -> Callable:
        return (self.span if name in SPAN_NAMES else self.counter)(name, fn)

    @contextmanager
    def install(self) -> Iterator[None]:
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        wrapped: dict[int, Callable] = {}
        try:
            for (mod, attr, name), (_, _, original) in zip(TARGETS, saved):
                # One wrapper per function object, shared by every namespace.
                if id(original) not in wrapped:
                    wrapped[id(original)] = self.wrap(name, original)
                setattr(mod, attr, wrapped[id(original)])
            yield
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def root(self, name: str, job_id: int, fn: Callable, *args) -> tuple[Any, float, float]:
        """Run one job under a root span; returns (result, seconds, self seconds)."""
        self.job_id = job_id
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, -1, job_id))
        self._enter(index)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = time.perf_counter()
            child = self._exit(t1 - t0)
            self.spans[index] = (name, t0, t1, -1, job_id)
        return result, t1 - t0, t1 - t0 - child

    def total(self, name: str) -> float:
        agg = self.aggregates.get(name)
        return agg.seconds if agg else 0.0

    def calls(self, name: str) -> int:
        agg = self.aggregates.get(name)
        return agg.calls if agg else 0

    def mean(self, name: str) -> float:
        """Mean seconds per call; 0 when the name was never called."""
        agg = self.aggregates.get(name)
        return agg.seconds / agg.calls if agg and agg.calls else 0.0

    def dump(self, path) -> None:
        """Write spans (JSON lines) and aggregates at the end of the run."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "job": job}) + "\n")
            for name, agg in sorted(self.aggregates.items()):
                fh.write(json.dumps({"aggregate": name, "calls": agg.calls,
                                     "seconds": agg.seconds,
                                     "self_seconds": agg.self_seconds}) + "\n")
