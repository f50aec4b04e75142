"""Named counters and latency histograms with one merge rule.

:class:`MetricsRegistry` is the measurement substrate of the whole
stack: the render server's request counters, the worker pool's task
counters, the engines' per-phase timings, and the campaign's per-config
costs all land in registries of this one type, so there is exactly one
snapshot format and one cross-process aggregation rule.

Design points:

* **Lock-free fast path.**  Each thread increments into its own private
  shard (a per-thread dict registered once under the registry lock), so
  ``add()``/``observe()`` never take a lock and never contend.  Readers
  (:meth:`~MetricsRegistry.snapshot`) sum across shards under the lock;
  per-shard values only ever grow, so successive snapshots of a counter
  are monotonically non-decreasing even while writers are running.
* **Explicit-bucket histograms.**  :class:`Histogram` keeps counts per
  fixed upper-bound bucket plus exact ``count``/``sum``/``min``/``max``;
  p50/p95/p99 are interpolated within the winning bucket and clamped to
  the observed range.  Two histograms over the same buckets merge by
  adding bucket counts — which is what makes worker-side measurements
  foldable into the parent without shipping raw samples.
* **Cross-process aggregation.**  A worker calls
  :meth:`~MetricsRegistry.collect` (``reset=True``) after each task and
  ships the plain-dict delta with its result; the parent folds it in
  with :meth:`~MetricsRegistry.merge`.  Deltas are additive, so metrics
  survive any interleaving of workers and tasks.

Instantaneous values (queue depth, utilization) are not registry state:
:class:`~repro.serve.server.ServerMetrics` reads them from a provider
at snapshot time.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

#: Default histogram buckets: latency seconds, roughly exponential from
#: 50 microseconds to one minute.  Everything above the last bound lands
#: in the implicit +inf bucket.
DEFAULT_BUCKETS: tuple[float, ...] = (
    5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_INF = float("inf")


class Histogram:
    """An explicit-bucket histogram with exact count/sum/min/max.

    ``buckets`` are ascending upper bounds; values above the last bound
    fall into an implicit overflow bucket.  Instances are not
    thread-safe on their own — the registry gives each thread its own.
    """

    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("buckets must be non-empty and strictly ascending")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = _INF
        self.max = -_INF

    def observe(self, value: float) -> None:
        v = float(value)
        self.counts[bisect_left(self.buckets, v)] += 1
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    # -- aggregation ----------------------------------------------------

    def merge(self, other: "Histogram | dict") -> None:
        """Fold another histogram (or its :meth:`state` dict) into this
        one.  Bucket layouts must match — both sides of the pool wire
        are this module, so they do by construction."""
        if isinstance(other, dict):
            buckets = tuple(other["buckets"])
            counts = other["counts"]
            count = other["count"]
            total = other["sum"]
            lo = other["min"]
            hi = other["max"]
            lo = _INF if lo is None else lo
            hi = -_INF if hi is None else hi
        else:
            buckets, counts = other.buckets, other.counts
            count, total, lo, hi = other.count, other.sum, other.min, other.max
        if buckets != self.buckets:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(counts):
            self.counts[i] += c
        self.count += count
        self.sum += total
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi

    def copy(self) -> "Histogram":
        dup = Histogram(self.buckets)
        dup.merge(self)
        return dup

    # -- derived values -------------------------------------------------

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) by linear
        interpolation inside the winning bucket, clamped to the observed
        ``[min, max]`` range (so a one-sample histogram reports that
        sample for every quantile)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if cumulative + c >= rank:
                lo = self.buckets[i - 1] if i > 0 else min(self.min, self.buckets[0])
                hi = self.buckets[i] if i < len(self.buckets) else self.max
                frac = (rank - cumulative) / c
                value = lo + (hi - lo) * max(0.0, min(1.0, frac))
                return max(self.min, min(self.max, value))
            cumulative += c
        return self.max

    def percentiles(self) -> dict[str, float]:
        return {"p50": self.quantile(0.50), "p95": self.quantile(0.95),
                "p99": self.quantile(0.99)}

    # -- wire formats ---------------------------------------------------

    def state(self) -> dict:
        """Mergeable plain-dict form (what worker deltas ship)."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    def summary(self) -> dict:
        """Human-facing form: state plus mean and percentiles."""
        data = self.state()
        data["mean"] = self.mean
        data.update(self.percentiles())
        return data


class _Shard:
    """One thread's (or one merged-delta) private metric store."""

    __slots__ = ("counters", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}


class MetricsRegistry:
    """A set of named counters and histograms.

    One registry is the process-wide default (:func:`get_registry`);
    subsystems with per-instance counters (e.g. one
    :class:`~repro.serve.server.RenderServer`) own private registries of
    the same type and can be merged into the global view.
    """

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self._buckets = tuple(buckets)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._shards: list[_Shard] = []
        # Cross-process deltas folded in via merge() accumulate here
        # (under the lock; merges are rare relative to increments).
        self._merged = _Shard()

    # -- write fast path (lock-free: per-thread shards) -----------------

    def _shard(self) -> _Shard:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = _Shard()
            with self._lock:
                self._shards.append(shard)
            self._local.shard = shard
        return shard

    def add(self, name: str, amount: float = 1) -> None:
        """Increment a counter (floats allowed: seconds accumulate)."""
        counters = self._shard().counters
        counters[name] = counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        """Record one value into the named histogram."""
        histograms = self._shard().histograms
        hist = histograms.get(name)
        if hist is None:
            hist = histograms[name] = Histogram(self._buckets)
        hist.observe(value)

    # -- read side ------------------------------------------------------

    def _all_shards(self) -> list[_Shard]:
        with self._lock:
            return [*self._shards, self._merged]

    def counter_value(self, name: str) -> float:
        return sum(shard.counters.get(name, 0) for shard in self._all_shards())

    def histogram(self, name: str) -> Histogram | None:
        """A merged copy of the named histogram (None when unobserved)."""
        merged: Histogram | None = None
        for shard in self._all_shards():
            hist = shard.histograms.get(name)
            if hist is None:
                continue
            if merged is None:
                merged = Histogram(hist.buckets)
            merged.merge(hist)
        return merged

    def collect(self, reset: bool = False) -> dict:
        """Counters + histogram states as one additive plain dict.

        With ``reset`` the shards are cleared after collection — the
        worker-side delta-shipping primitive.  Resetting is only exact
        when no other thread is writing concurrently (worker processes
        execute one task at a time, which is exactly that case); the
        parent side never resets.
        """
        counters: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        with self._lock:
            shards = [*self._shards, self._merged]
            for shard in shards:
                for name, value in list(shard.counters.items()):
                    counters[name] = counters.get(name, 0) + value
                for name, hist in list(shard.histograms.items()):
                    if name in histograms:
                        merged = Histogram(tuple(histograms[name]["buckets"]))
                        merged.merge(histograms[name])
                        merged.merge(hist)
                        histograms[name] = merged.state()
                    else:
                        histograms[name] = hist.copy().state()
                if reset:
                    shard.counters.clear()
                    shard.histograms.clear()
        return {"counters": counters, "histograms": histograms}

    def merge(self, delta: dict | None) -> None:
        """Fold a :meth:`collect`-shaped delta (e.g. shipped back from a
        pool worker) into this registry.  Unknown keys are ignored, so
        deltas may carry side-channel payloads (trace events)."""
        if not delta:
            return
        counters = delta.get("counters") or {}
        histograms = delta.get("histograms") or {}
        with self._lock:
            target = self._merged
            for name, value in counters.items():
                target.counters[name] = target.counters.get(name, 0) + value
            for name, state in histograms.items():
                hist = target.histograms.get(name)
                if hist is None:
                    hist = target.histograms[name] = Histogram(
                        tuple(state["buckets"]))
                hist.merge(state)

    def snapshot(self) -> dict:
        """One self-describing dict: counters and histograms.

        Counter values are monotonically non-decreasing across
        successive snapshots (per-shard values only grow and shards are
        never dropped).
        """
        data = self.collect(reset=False)
        histograms = {}
        for name, state in data["histograms"].items():
            hist = Histogram(tuple(state["buckets"]))
            hist.merge(state)
            histograms[name] = hist.summary()
        return {
            "counters": {k: data["counters"][k] for k in sorted(data["counters"])},
            "histograms": {k: histograms[k] for k in sorted(histograms)},
        }

    def reset(self) -> None:
        """Drop every recorded value (tests)."""
        with self._lock:
            for shard in [*self._shards, self._merged]:
                shard.counters.clear()
                shard.histograms.clear()


# ---------------------------------------------------------------------------
# The process-wide default registry: process-scoped subsystems (engines,
# pool, tile scheduler, replay, campaign) all record here, and worker
# deltas are folded into the parent's instance.

_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry

