"""Timing-pipeline benchmark: frontier-recorded traces + vectorized replay.

Measures the paper campaign's measurement pipeline — fetch-trace
production plus :func:`repro.hwsim.replay` — on the fig13/14 trace
configurations (Baseline = monolithic 20-tri, GRTX-SW = tlas+20-tri),
comparing the pre-refactor path (scalar tracer + the per-event
``replay_reference`` loop of ``tests/replay_oracle.py``) with the new
one (the wavefront engine's trace recorder + batched replay).  Unlike the figure benchmarks in this
directory (which run under ``pytest --benchmark-only``), this is a
plain script::

    python benchmarks/bench_replay.py [--size 20] [--check]

Four sections, written to ``benchmarks/results/BENCH_replay.json``:

* **recording** — the wavefront recorded render's time next to the
  scalar tracer's, and which round-walk ``kernel`` its
  ``rt.wavefront.record`` span reports (the worst config's
  scalar-vs-wavefront ratio is gated by ``--min-record-speedup``, and
  ``--check`` fails unless every config recorded with the compiled
  ``"c"`` walk);
* **trace parity** — per-ray fetch multisets plus the replayed
  ``node_fetches`` / ``l1_hits`` / ``l2_accesses`` / ``cycles`` must be
  identical between engines (always fatal on mismatch, ``--check`` or
  not: identical timing figures are the recorder's contract);
* **replay throughput** — events/s of the batched replay vs the golden
  reference loop on the same traces, and which cache-walk ``kernel``
  the replay's ``hwsim.replay`` span reports (the worst config's
  speedup is gated by ``--min-replay-speedup``, default 3x, and
  ``--check`` fails unless every config ran the compiled ``"c"``
  walk);
* **end-to-end** — trace+replay wall-clock, old path vs new path, per
  config and total (gated by ``--min-e2e-speedup``, default 1.3x
  overall; the recorded ratios are the honest measurement — the
  two-level GRTX-SW config lands ~3-4x on the CI scene while the
  monolithic baseline hovers near parity, its traversal being exactly
  the dense-geometry case the scalar tracer's inline hot loops were
  tuned for);
* **replay memory** — per config, how far the batched replay lifts the
  process's peak RSS above its RSS just before it (Linux: the peak,
  ``VmHWM``, is reset through ``/proc/self/clear_refs``), gated by
  ``--max-replay-mb`` when given. Replay streams whole (round, warp)
  segments in fixed-size chunks, so this stays flat as frames grow.
* **recording memory** — per config, the same peak-RSS growth over the
  wavefront engine's recorded render (``record_rss_growth_mb``), gated
  by ``--max-record-mb`` when given. Recording builds templates and hit
  tables for one 32-ray chunk at a time, so only the finished traces
  grow with the frame.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

# Allow running straight from a checkout without installing the package.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
if str(Path(__file__).resolve().parent) not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
# The per-event replay oracle lives with the tests.
if str(_SRC.parent) not in sys.path:
    sys.path.append(str(_SRC.parent))

from bench_schema import write_bench_json

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Replayed aggregates that must match between engines (the fig14-17
#: quantities plus the headline cycle count).
PARITY_FIELDS = ("node_fetches", "merged_requests", "l1_accesses",
                 "l1_hits", "l2_accesses", "dram_accesses", "prefetches",
                 "cycles", "fetch_latency_sum")

CONFIGS = (("Baseline", "20-tri"), ("GRTX-SW", "tlas+20-tri"))


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="trace recording + replay: old pipeline vs new")
    parser.add_argument("--scene", default="train")
    parser.add_argument("--size", type=int, default=20,
                        help="image width=height (default 20)")
    parser.add_argument("--scale", type=float, default=1 / 2000.0)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--replay-reps", type=int, default=3,
                        help="replay timing repetitions (min is reported)")
    parser.add_argument("--min-replay-speedup", type=float, default=3.0,
                        help="batched-vs-reference replay bar for --check")
    parser.add_argument("--min-record-speedup", type=float, default=None,
                        help="worst-config scalar-vs-wavefront recording "
                             "bar for --check (default: not gated)")
    parser.add_argument("--min-e2e-speedup", type=float, default=1.3,
                        help="overall trace+replay bar for --check")
    parser.add_argument("--max-replay-mb", type=float, default=None,
                        help="per-config replay peak-RSS growth ceiling "
                             "for --check (MB; default: not gated)")
    parser.add_argument("--max-record-mb", type=float, default=None,
                        help="per-config recorded-render peak-RSS growth "
                             "ceiling for --check (MB; default: not gated)")
    parser.add_argument("--check", action="store_true",
                        help="gate on the speed bars (trace/replay parity "
                             "failures exit non-zero regardless)")
    return parser.parse_args(argv)


def _trace_multisets(traces):
    return sorted(tuple(sorted(t.fetch_multiset().items())) for t in traces)


def _status_mb(field: str) -> float:
    """One ``kB`` field of ``/proc/self/status``, in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no {field} in /proc/self/status")


def _reset_peak_rss() -> float | None:
    """Reset the peak RSS (``VmHWM``) to the current RSS and return the
    latter in MB; ``None`` where the kernel offers no reset."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
        return _status_mb("VmRSS")
    except OSError:
        return None


def _mb(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.0f}"


def _span_kernel(name: str, fn):
    """``fn()`` plus the ``kernel`` its first ``name`` span reports."""
    from repro.obs.tracing import BufferTraceSink, current_sink, install_sink

    previous = current_sink()
    sink = BufferTraceSink()
    install_sink(sink)
    try:
        out = fn()
    finally:
        install_sink(previous)
    return out, next((event["args"].get("kernel") for event in sink.drain()
                      if event["name"] == name), None)


def run_config(cloud, structure, camera, k: int, reps: int) -> dict:
    """Measure one configuration end to end on both pipelines."""
    from repro.hwsim import GpuConfig, replay
    from repro.render import GaussianRayTracer
    from repro.rt import TraceConfig
    from tests.replay_oracle import replay_reference

    config = TraceConfig(k=k)
    gpu = GpuConfig.rtx_like()

    t0 = time.perf_counter()
    scalar = GaussianRayTracer(cloud, structure, config,
                               engine="scalar").render(
        camera, keep_traces=True)
    t_scalar_trace = time.perf_counter() - t0

    rss_before = _reset_peak_rss()
    t0 = time.perf_counter()
    batched, record_kernel = _span_kernel(
        "rt.wavefront.record",
        lambda: GaussianRayTracer(cloud, structure, config,
                                  engine="wavefront").render(
            camera, keep_traces=True))
    t_batched_trace = time.perf_counter() - t0
    record_rss_growth = (None if rss_before is None
                         else _status_mb("VmHWM") - rss_before)

    t0 = time.perf_counter()
    plain = GaussianRayTracer(cloud, structure, config,
                              engine="wavefront").render(
        camera, keep_traces=False)
    t_batched_plain = time.perf_counter() - t0
    del plain

    n_events = sum(r.n_fetches for t in scalar.traces for r in t.rounds)

    # Replay throughput: batched vs the golden reference loop.
    # Replay memory: peak RSS growth over the batched replay, worst rep.
    ref_times, new_times, rss_growths = [], [], []
    for _ in range(max(reps, 1)):
        t0 = time.perf_counter()
        ref_report = replay_reference(scalar.traces, gpu)
        ref_times.append(time.perf_counter() - t0)
        rss_before = _reset_peak_rss()
        t0 = time.perf_counter()
        new_report = replay(batched.traces, gpu)
        new_times.append(time.perf_counter() - t0)
        if rss_before is not None:
            rss_growths.append(_status_mb("VmHWM") - rss_before)
    t_ref_replay = min(ref_times)
    t_new_replay = min(new_times)
    _, kernel = _span_kernel("hwsim.replay",
                             lambda: replay(batched.traces, gpu))

    parity = {
        "multisets": _trace_multisets(scalar.traces)
                     == _trace_multisets(batched.traces),
        "stats": scalar.stats == batched.stats,
    }
    for field in PARITY_FIELDS:
        parity[field] = getattr(ref_report, field) == getattr(
            new_report, field)

    old_total = t_scalar_trace + t_ref_replay
    new_total = t_batched_trace + t_new_replay
    return {
        "n_events": n_events,
        "scalar_trace_s": t_scalar_trace,
        "wavefront_trace_s": t_batched_trace,
        "wavefront_plain_s": t_batched_plain,
        "record_overhead": t_batched_trace / t_batched_plain,
        "trace_speedup": t_scalar_trace / t_batched_trace,
        "ref_replay_s": t_ref_replay,
        "new_replay_s": t_new_replay,
        "replay_speedup": t_ref_replay / t_new_replay,
        "replay_events_per_s": n_events / t_new_replay,
        "kernel": kernel,
        "record_kernel": record_kernel,
        "old_total_s": old_total,
        "new_total_s": new_total,
        "e2e_speedup": old_total / new_total,
        "replay_rss_growth_mb": max(rss_growths, default=None),
        "record_rss_growth_mb": record_rss_growth,
        "parity": parity,
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    from repro.eval.harness import build_structure_for
    from repro.eval.report import format_table
    from repro.gaussians import make_workload
    from repro.render import default_camera_for

    cloud = make_workload(args.scene, scale=args.scale)
    camera = default_camera_for(cloud, args.size, args.size)

    rows = []
    measurements = {}
    for name, proxy in CONFIGS:
        structure = build_structure_for(cloud, proxy)
        m = run_config(cloud, structure, camera, args.k, args.replay_reps)
        measurements[name] = m
        rows.append([
            name,
            f"{m['n_events']}",
            f"{m['trace_speedup']:.2f}x",
            str(m["record_kernel"]),
            f"{m['record_overhead']:.1f}x",
            f"{m['replay_speedup']:.2f}x",
            f"{m['replay_events_per_s']:,.0f}",
            str(m["kernel"]),
            f"{m['e2e_speedup']:.2f}x",
            _mb(m["record_rss_growth_mb"]),
            _mb(m["replay_rss_growth_mb"]),
            "ok" if all(m["parity"].values()) else "MISMATCH",
        ])

    old_total = sum(m["old_total_s"] for m in measurements.values())
    new_total = sum(m["new_total_s"] for m in measurements.values())
    total_e2e = old_total / new_total
    # Every config replays through the same compiled walk, so the
    # replay bar applies to the worst one.
    replay_speedup = min(m["replay_speedup"] for m in measurements.values())
    record_speedup = min(m["trace_speedup"] for m in measurements.values())
    rows.append(["TOTAL", "", "", "", "", "", "", "", f"{total_e2e:.2f}x",
                 "", "", ""])

    report = format_table(
        f"trace+replay pipeline: {args.scene} {args.size}x{args.size} "
        f"k={args.k} ({len(cloud)} gaussians)",
        ["config", "events", "trace speedup", "record kernel",
         "record cost",
         "replay speedup", "replay ev/s", "replay kernel", "e2e speedup",
         "record MB",
         "replay MB", "parity"],
        rows,
        notes="old = scalar trace + reference replay; "
              "new = wavefront recorder + batched replay",
    )
    print(report)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "replay_pipeline.txt").write_text(report + "\n")
    write_bench_json(
        RESULTS_DIR / "BENCH_replay.json", "replay",
        config={"scene": args.scene, "size": args.size,
                "scale": args.scale, "k": args.k,
                "replay_reps": args.replay_reps,
                "min_record_speedup": args.min_record_speedup,
                "max_replay_mb": args.max_replay_mb,
                "max_record_mb": args.max_record_mb,
                "n_gaussians": len(cloud)},
        sections={"configs": measurements,
                  "campaign": {"old_total_s": old_total,
                               "new_total_s": new_total,
                               "e2e_speedup": total_e2e}})

    failures = []
    for name, m in measurements.items():
        bad = [k for k, ok in m["parity"].items() if not ok]
        if bad:
            failures.append(f"{name}: trace/replay parity mismatch on {bad}")
    if args.check:
        if replay_speedup < args.min_replay_speedup:
            failures.append(
                f"worst-config replay speedup {replay_speedup:.2f}x below "
                f"{args.min_replay_speedup}x")
        if (args.min_record_speedup is not None
                and record_speedup < args.min_record_speedup):
            failures.append(
                f"worst-config record speedup {record_speedup:.2f}x below "
                f"{args.min_record_speedup}x")
        for name, m in measurements.items():
            for stage, key in (("replay", "kernel"),
                               ("recording", "record_kernel")):
                if m[key] != "c":
                    failures.append(
                        f"{name}: {stage} ran the {m[key]!r} kernel, not "
                        "the compiled 'c' walk")
        if total_e2e < args.min_e2e_speedup:
            failures.append(
                f"end-to-end speedup {total_e2e:.2f}x below "
                f"{args.min_e2e_speedup}x")
        for stage, ceiling in (("record", args.max_record_mb),
                               ("replay", args.max_replay_mb)):
            if ceiling is None:
                continue
            for name, m in measurements.items():
                growth = m[f"{stage}_rss_growth_mb"]
                if growth is None:
                    failures.append(
                        f"{name}: {stage} peak RSS not measurable here "
                        "(needs /proc/self/clear_refs)")
                elif growth > ceiling:
                    failures.append(
                        f"{name}: {stage} peak RSS growth {growth:.0f} MB "
                        f"above {ceiling:.0f} MB")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
