"""Measurement helpers shared by the workloads.

Everything here is plain Python over raw samples: percentiles are
computed from the samples themselves (never from bucketed histograms),
spans live in memory until the run ends, and a layer's self time is its
span duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """The ``q``-quantile (0 <= q <= 1) of raw samples, linearly
    interpolated between closest ranks (numpy's default method)."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-quantile's rank."""
    return n - 1 - math.floor(q * (n - 1) + 1e-9) if n else 0


def reportable(n: int, q: float) -> bool:
    """Whether the ``q``-quantile of ``n`` samples may be reported: at
    least :data:`MIN_BEYOND` samples must lie beyond it."""
    return beyond(n, q) >= MIN_BEYOND


def tail_quantile(n: int) -> float:
    """The highest quantile of ``n`` samples that is reportable, in steps
    of 0.05 from 0.99 down; 0.5 when even the median is not (the median
    is then reported anyway, with its sample count)."""
    for q in (0.99, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6, 0.55):
        if reportable(n, q):
            return q
    return 0.5


def median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


# -- spans ----------------------------------------------------------------


@dataclass
class Span:
    """One timed call into a layer, recorded from outside the layer."""

    span_id: int
    name: str
    layer: str
    start_ns: int
    end_ns: int = 0
    parent: int | None = None
    request: int | None = None
    args: dict = field(default_factory=dict)


def covered_ns(start: int, end: int, intervals) -> int:
    """Nanoseconds of ``[start, end)`` covered by the union of
    ``intervals`` (pairs that may overlap and may stick out)."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if b > start and a < end)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[str, float]:
    """Seconds per layer that no child span covers, summed over spans."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start_ns, sp.end_ns))
    out: dict[str, float] = {}
    for sp in spans:
        inside = children.get(sp.span_id, ())
        own = (sp.end_ns - sp.start_ns
               - covered_ns(sp.start_ns, sp.end_ns, inside))
        out[sp.layer] = out.get(sp.layer, 0.0) + max(0, own) / 1e9
    return out


class SpanRecorder:
    """In-memory span log. ``enabled=False`` makes every call a no-op
    apart from the clock reads the caller would do anyway."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._next = 1
        self._local = threading.local()

    def _new_id(self) -> int:
        with self._lock:
            span_id = self._next
            self._next += 1
        return span_id

    def begin(self, name: str, layer: str, request: int | None = None,
              parent: int | None = None, **args) -> Span | None:
        """Open a span; the parent defaults to this thread's open span."""
        if not self.enabled:
            return None
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].span_id
            if request is None:
                request = stack[-1].request
        sp = Span(self._new_id(), name, layer, time.time_ns(), parent=parent,
                  request=request, args=args)
        stack.append(sp)
        return sp

    def end(self, sp: Span | None, end_ns: int | None = None) -> None:
        if sp is None:
            return
        sp.end_ns = time.time_ns() if end_ns is None else end_ns
        stack = self._stack()
        if sp in stack:
            stack.remove(sp)
        with self._lock:
            self.spans.append(sp)

    def detached(self, name: str, layer: str, start_ns: int, end_ns: int,
                 request: int | None = None, parent: int | None = None,
                 **args) -> None:
        """Record a span whose interval was measured elsewhere (a request
        submitted on one thread and completed on another)."""
        if not self.enabled:
            return
        sp = Span(self._new_id(), name, layer, start_ns, end_ns,
                  parent=parent, request=request, args=args)
        with self._lock:
            self.spans.append(sp)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, layer: str, **kwargs):
        return _SpanContext(self, name, layer, kwargs)


class _SpanContext:
    __slots__ = ("recorder", "name", "layer", "kwargs", "sp")

    def __init__(self, recorder, name, layer, kwargs) -> None:
        self.recorder, self.name, self.layer = recorder, name, layer
        self.kwargs = kwargs
        self.sp = None

    def __enter__(self):
        self.sp = self.recorder.begin(self.name, self.layer, **self.kwargs)
        return self.sp

    def __exit__(self, *_exc) -> None:
        self.recorder.end(self.sp)


# -- host -----------------------------------------------------------------


def available_cores() -> int:
    """CPUs this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def host_info() -> dict:
    """Cores plus a short fingerprint of the host and toolchain.

    Nothing here may start a process (``platform.processor()`` runs
    ``uname``): a child would count in :func:`peak_rss_mb`.
    """
    import numpy

    info = {
        "cores": available_cores(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    blob = repr(sorted(info.items())).encode()
    info["fingerprint"] = hashlib.sha256(blob).hexdigest()[:12]
    return info


def peak_rss_mb() -> tuple[float, float]:
    """Peak resident set of this process and of its largest reaped child
    (a pool worker), in MB."""
    scale = 1.0 if sys.platform == "darwin" else 1024.0  # bytes vs KiB
    return tuple(resource.getrusage(who).ru_maxrss * scale / 2**20
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
