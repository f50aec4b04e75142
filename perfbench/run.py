"""The repository benchmark: one command, two workloads.

Run from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # each in a fresh process
    python3 perfbench/run.py --manifest          # rewrite BENCHMARK.json
    python3 perfbench/run.py --list-metrics      # metrics and what they move

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Each workload
sets up ``SETUPS`` times and ``setup_s`` is the median. A traced run sets
up and measures once untraced, then again with ``repro.obs`` tracing on
and the benchmark's own spans recorded; per-layer numbers come from the
traced measurement, and its spans are written to ``perfbench/out/`` when
the run ends. The exit code is non-zero when an
output check fails or the program cannot be imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import catalog  # noqa: E402
from stats import (  # noqa: E402
    SpanRecorder,
    host_info,
    median,
    peak_rss_mb,
    self_times,
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [name for name, _ in catalog.WORKLOADS]
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(catalog.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true",
                        help="write BENCHMARK.json from perfbench/catalog.py")
    parser.add_argument("--list-metrics", action="store_true")
    parser.add_argument("--write-reference", action="store_true",
                        help="campaign: store this run's simulated "
                             "statistics as the reference instead of "
                             "checking them")
    args = parser.parse_args(argv)
    if not (args.workload or args.manifest or args.list_metrics):
        parser.error("give --workload, --manifest or --list-metrics")
    if args.write_reference and args.workload != "campaign":
        parser.error("--write-reference applies to --workload campaign")
    return args


def _run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    status = 0
    for name, _ in catalog.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status = subprocess.run(cmd, check=False).returncode or status
    return status


def _traced(module, seed: int, seconds: float):
    """Set up afresh and measure with ``repro.obs`` tracing on.

    Returns the context, the measurement, the layers' self times (set-up
    spans in total, measured spans per unit of work) and the program's own
    trace events.
    """
    from repro.obs import BufferTraceSink, install_sink, stop_tracing

    recorder = SpanRecorder(enabled=True)
    sink = BufferTraceSink()
    install_sink(sink)
    try:
        with recorder.span("setup", "bench"):
            ctx, _ = module.setup(seed, recorder)
        n_setup = len(recorder.spans)
        with recorder.span("measure", "bench"):
            m = module.measure(ctx, seconds, recorder)
    finally:
        events = sink.drain()
        stop_tracing()
    own = self_times(recorder.spans[:n_setup])
    for layer, total in self_times(recorder.spans[n_setup:]).items():
        own[layer] = own.get(layer, 0.0) + total / max(len(m.units), 1)
    return ctx, m, own, recorder.spans, events


def run(args) -> int:
    try:
        if not (ROOT / "src" / "repro").is_dir():
            raise ImportError("no src/repro directory")
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'} "
              f"({exc}); run from a full checkout", file=sys.stderr)
        return 2
    module = importlib.import_module(args.workload)
    host = host_info()
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")

    off = SpanRecorder(enabled=False)
    setup_s, setup_layers, ctx = [], [], None
    setups = 1 if args.trace else module.SETUPS
    for _ in range(setups):
        if ctx is not None:
            module.close(ctx)
        t0 = time.perf_counter()
        ctx, layer = module.setup(args.seed, off)
        setup_s.append(time.perf_counter() - t0)
        setup_layers.append(layer)
    m = module.measure(ctx, args.seconds, off)
    if args.trace:
        module.close(ctx)
        untraced = m
        ctx, m, own, spans, events = _traced(module, args.seed, args.seconds)
    if args.write_reference:
        print(f"wrote {module.write_reference(m)}")
    module.check(ctx, m)
    module.close(ctx)

    p50_ms = median(m.units) * 1e3
    rss_own, rss_child = peak_rss_mb()
    e2e = {
        "setup_s": (median(setup_s), "s"),
        "peak_rss_mb": (rss_own + rss_child, "MB"),
        "p50_ms": (p50_ms, "ms"),
        "goodput_per_s": (m.good / m.seconds if m.seconds else 0.0, "1/s"),
    }
    if not args.trace:
        for name, (value, unit) in e2e.items():
            print(f"{name:<16} {value:.6g} {unit}")
    error_frac = m.failed / max(m.attempted, 1)
    print(f"p50_ms over {len(m.units)} unit(s) of work; setup_s over "
          f"{setups} set-up(s); error_frac {error_frac:.4g}"
          f" ({m.failed} of {m.attempted}); peak RSS {rss_own:.1f} MB here"
          f" + {rss_child:.1f} MB in the largest worker")
    for note in m.notes:
        print(note)

    if args.trace:
        layer = dict.fromkeys((n for n, _, _, _ in catalog.PER_LAYER), 0.0)
        for key in setup_layers[0]:
            layer[key] = median([sl[key] for sl in setup_layers])
        layer.update(m.layer)
        for name, seconds in own.items():
            layer[f"self_s.{name}"] = seconds
        base = median(untraced.units)
        layer["obs.tracing_overhead"] = median(m.units) / base if base else 0.0
        metrics = {n: {"value": layer[n], "unit": u}
                   for n, u, _, _ in catalog.PER_LAYER}
        for name, entry in metrics.items():
            print(f"{name:<34} {entry['value']:.6g} {entry['unit']}")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"{args.workload}-seed{args.seed}-spans.json"
        doc = {"host": host, "spans": [asdict(sp) for sp in spans],
               "program_events": events}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        print(f"spans: {path.relative_to(ROOT)}")
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in e2e.items()}

    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0 if m.failed == 0 else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.manifest:
        print(f"wrote {catalog.write_manifest(ROOT)}")
    if args.list_metrics:
        print(catalog.metric_table())
    if not args.workload:
        return 0
    if args.workload == "all":
        return _run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
