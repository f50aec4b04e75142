"""Registry snapshot files and the pretty-printer behind ``repro stats``.

A snapshot file is one JSON document: ``{"schema": "repro.obs/v1",
"created_unix": ..., "snapshot": <MetricsRegistry.snapshot()>}``. The
``render`` CLI writes one with ``--stats-out``; ``repro stats``
loads and pretty-prints it (or dumps the raw JSON back with
``--json``).
"""

from __future__ import annotations

import json
import time

from repro.obs.metrics import MetricsRegistry, get_registry

SNAPSHOT_SCHEMA = "repro.obs/v1"
DEFAULT_SNAPSHOT_PATH = "obs_stats.json"


def write_snapshot(path: str, registry: MetricsRegistry | None = None) -> dict:
    """Write the registry snapshot to ``path``; returns the document."""
    reg = registry if registry is not None else get_registry()
    document = {
        "schema": SNAPSHOT_SCHEMA,
        "created_unix": time.time(),  # repro: lint-ok[parity-nondeterminism] snapshot provenance metadata; compared by no gate, feeds no image
        "snapshot": reg.snapshot(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return document


def load_snapshot(path: str) -> dict:
    """Load a snapshot document; accepts bare snapshots too (a dict with
    ``counters``/``histograms`` at top level)."""
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    if "snapshot" not in document and "counters" in document:
        document = {"schema": SNAPSHOT_SCHEMA, "snapshot": document}
    return document


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or float(value).is_integer():
            return f"{value:,.0f}"
        if abs(value) >= 0.01:
            return f"{value:.4g}"
        return f"{value:.3e}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_snapshot(document: dict) -> str:
    """Pretty-print a snapshot document as aligned text tables."""
    snapshot = document.get("snapshot", document)
    lines: list[str] = []
    created = document.get("created_unix")
    if created is not None:
        stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(created))
        lines.append(f"snapshot taken {stamp}")
        lines.append("")

    counters = snapshot.get("counters") or {}
    histograms = snapshot.get("histograms") or {}

    if counters:
        width = max(len(k) for k in counters)
        lines.append("counters")
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {_fmt(counters[name])}")
        lines.append("")
    if histograms:
        width = max(len(k) for k in histograms)
        header = (f"  {'':<{width}}  {'count':>8} {'mean':>10} {'p50':>10} "
                  f"{'p95':>10} {'p99':>10} {'max':>10}")
        lines.append("histograms (seconds)")
        lines.append(header)
        for name in sorted(histograms):
            h = histograms[name]
            mx = h.get("max")
            lines.append(
                f"  {name:<{width}}  {h.get('count', 0):>8,} "
                f"{_fmt(h.get('mean', 0.0)):>10} {_fmt(h.get('p50', 0.0)):>10} "
                f"{_fmt(h.get('p95', 0.0)):>10} {_fmt(h.get('p99', 0.0)):>10} "
                f"{_fmt(mx if mx is not None else 0.0):>10}")
        lines.append("")
    if not (counters or histograms):
        lines.append("(snapshot is empty)")
    return "\n".join(lines).rstrip() + "\n"
