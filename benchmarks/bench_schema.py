"""One JSON shape for every ``BENCH_*.json`` results document.

The standalone bench scripts (``bench_obs``, ``bench_pool``,
``bench_packet_vs_scalar``, ``bench_replay``, ``bench_chaos``) each used
to invent their own top-level layout, which made the committed results
impossible to diff across PRs or tabulate together. They now all write::

    {
      "schema": "repro.bench/v1",
      "benchmark": "<name>",            # e.g. "pool", "wavefront_tlas"
      "created_unix": <float>,
      "host": {python, platform, machine, cpus},
      "config": {<the argparse knobs that shaped the run>},
      "sections": {<benchmark-specific measurement groups>}
    }

``make_experiments_md.py`` renders the committed documents into a
bench-trajectory table, and headline numbers are registered here (in
:data:`HEADLINES`) rather than guessed from each document's innards.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

BENCH_SCHEMA = "repro.bench/v1"

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: benchmark name -> (headline label, dotted path into sections,
#: format). ``make_experiments_md`` uses this to pull one comparable
#: number per committed document.
HEADLINES: dict[str, tuple[str, str, str]] = {
    "obs": ("tracing overhead", "overhead.overhead_pct", "{:+.2f}%"),
    "chaos": ("chaos armed-idle overhead", "overhead.overhead_pct",
              "{:+.2f}%"),
    "pool": ("persistent-pool speedup", "pool_reuse.speedup", "{:.2f}x"),
    # Mode-keyed paths: measurements.0.* depends on --modes order, so
    # the headlines resolve through the summary section instead.
    "wavefront_mono": ("wavefront speedup vs scalar (mono)",
                       "summary.multiround.speedup", "{:.2f}x"),
    "wavefront_tlas": ("wavefront speedup vs scalar (tlas)",
                       "summary.multiround.speedup", "{:.2f}x"),
    "replay": ("campaign e2e speedup",
               "campaign.e2e_speedup", "{:.2f}x"),
}


def host_info() -> dict:
    """The machine fingerprint stamped into every document."""
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def bench_document(benchmark: str, config: dict, sections: dict) -> dict:
    """Assemble one schema-conforming results document."""
    return {
        "schema": BENCH_SCHEMA,
        "benchmark": benchmark,
        "created_unix": time.time(),
        "host": host_info(),
        "config": config,
        "sections": sections,
    }


def write_bench_json(path: Path | str, benchmark: str, config: dict,
                     sections: dict) -> Path:
    """Write one document; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = bench_document(benchmark, config, sections)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def resolve(sections: dict, dotted: str):
    """Walk ``sections`` by a dotted path (ints index into lists);
    returns None when any hop is missing."""
    node = sections
    for hop in dotted.split("."):
        if isinstance(node, list):
            try:
                node = node[int(hop)]
            except (ValueError, IndexError):
                return None
        elif isinstance(node, dict):
            if hop not in node:
                return None
            node = node[hop]
        else:
            return None
    return node


def headline(document: dict) -> tuple[str, str] | None:
    """(label, formatted value) for one document, or None."""
    spec = HEADLINES.get(document.get("benchmark", ""))
    if spec is None:
        return None
    label, dotted, fmt = spec
    value = resolve(document.get("sections", {}), dotted)
    if value is None:
        return label, "n/a"
    try:
        return label, fmt.format(value)
    except (ValueError, TypeError):
        return label, str(value)
