"""Per-phase profiling helpers for the engines and the hwsim replay.

Engine inner loops are too hot for a context manager per phase; they
accumulate raw seconds into a :class:`PhaseAccumulator` (a plain dict
add per phase) and flush once per bundle/replay into histogram metrics
(``rt.phase.traversal``, ``replay.phase.decode``, ...).
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry, get_registry


class PhaseAccumulator:
    """Accumulates seconds per named phase; flushes into histograms.

    One accumulator covers one unit of work (a ray bundle, one replay);
    ``flush()`` records each phase total as a single histogram sample,
    so the histogram's distribution is *per unit of work*, which is the
    granularity the bench reports want.
    """

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    def add(self, phase: str, seconds: float) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds

    def flush(self, prefix: str, registry: MetricsRegistry | None = None) -> None:
        """Record each phase total as one sample of ``prefix.<phase>``
        and clear the accumulator. No-op when nothing was recorded."""
        if not self.seconds:
            return
        reg = registry if registry is not None else get_registry()
        for phase, seconds in self.seconds.items():
            reg.observe(f"{prefix}.{phase}", seconds)
        self.seconds.clear()
