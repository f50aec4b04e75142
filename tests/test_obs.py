"""The observability layer: metrics registry, tracing, worker ride-back.

Covers the contracts the rest of the stack leans on: exact counter
totals under thread contention (sharded fast path), mergeable bucketed
histograms, monotonic snapshots, Chrome-tracing-valid span files, and —
the regression this subsystem exists for — worker-process metrics
(counters, per-tile timings) reaching the parent registry with
task results instead of dying with the worker.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.obs import (
    Histogram,
    MetricsRegistry,
    get_registry,
    load_snapshot,
    span,
    start_tracing,
    stop_tracing,
    validate_trace_file,
    write_snapshot,
)

SCALE = 1.0 / 10000.0


# -- module-level task functions (picklable under any start method) ------

def _bump_counters(n):
    """Worker-side: add to a counter and a histogram, return n."""
    registry = get_registry()
    registry.add("test.worker_bumps", n)
    registry.observe("test.worker_hist", 0.25)
    return n


# -- histograms ----------------------------------------------------------

class TestHistogram:
    def test_observe_count_sum_min_max(self):
        hist = Histogram()
        for value in (0.001, 0.002, 0.004):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(0.007)
        assert hist.min == pytest.approx(0.001)
        assert hist.max == pytest.approx(0.004)

    def test_percentiles_ordered_and_clamped(self):
        hist = Histogram()
        for i in range(1, 101):
            hist.observe(i / 1000.0)  # 1ms .. 100ms
        p = hist.percentiles()
        assert p["p50"] <= p["p95"] <= p["p99"]
        assert hist.min <= p["p50"] and p["p99"] <= hist.max

    def test_empty_percentiles_are_zero(self):
        assert Histogram().percentiles() == {"p50": 0.0, "p95": 0.0,
                                             "p99": 0.0}

    def test_merge_equals_combined_observe(self):
        a, b, c = Histogram(), Histogram(), Histogram()
        for i in range(50):
            a.observe(i / 100.0)
            c.observe(i / 100.0)
        for i in range(50, 100):
            b.observe(i / 100.0)
            c.observe(i / 100.0)
        a.merge(b)
        assert a.count == c.count
        assert a.sum == pytest.approx(c.sum)
        assert a.percentiles() == c.percentiles()

    def test_merge_accepts_state_dict(self):
        """Cross-process merge: the wire format is the state() dict."""
        a, b = Histogram(), Histogram()
        b.observe(0.5)
        a.merge(b.state())
        assert a.count == 1
        assert a.max == pytest.approx(0.5)


# -- the registry under contention ---------------------------------------

class TestRegistryConcurrency:
    def test_exact_totals_under_thread_hammer(self):
        registry = MetricsRegistry()
        threads, per_thread = 8, 10_000

        def hammer():
            for _ in range(per_thread):
                registry.add("hammer.count")
                registry.observe("hammer.hist", 0.001)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert registry.counter_value("hammer.count") == threads * per_thread
        assert registry.histogram("hammer.hist").count == threads * per_thread

    def test_snapshots_monotonic_while_hammered(self):
        """Counters read mid-hammer never decrease between snapshots."""
        registry = MetricsRegistry()
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                registry.add("mono.count")

        workers = [threading.Thread(target=hammer) for _ in range(4)]
        for t in workers:
            t.start()
        try:
            last = 0
            for _ in range(200):
                value = registry.counter_value("mono.count")
                assert value >= last
                last = value
        finally:
            stop.set()
            for t in workers:
                t.join()
        assert registry.counter_value("mono.count") >= last

    def test_collect_reset_then_merge_roundtrip(self):
        source, sink = MetricsRegistry(), MetricsRegistry()
        source.add("rt.count", 3)
        source.observe("rt.hist", 0.5)
        delta = source.collect(reset=True)
        sink.merge(delta)
        assert sink.counter_value("rt.count") == 3
        assert sink.histogram("rt.hist").count == 1
        # Reset really cleared the source; a second collect is empty.
        assert source.collect().get("counters", {}) in ({}, {"rt.count": 0})

    def test_merge_ignores_unknown_keys(self):
        """Worker deltas carry extra keys (trace_events) — harmless."""
        registry = MetricsRegistry()
        registry.merge({"counters": {"x": 1}, "trace_events": [{"ph": "X"}]})
        assert registry.counter_value("x") == 1


# -- ServerMetrics (ported + the shadowing regression) -------------------

class TestServerMetrics:
    def _metrics(self):
        from repro.serve import ServerMetrics

        return ServerMetrics()

    def test_counters_via_count_and_attributes(self):
        metrics = self._metrics()
        metrics.count("requests")
        metrics.count("requests")
        metrics.count("rendered")
        snapshot = metrics.snapshot()
        assert snapshot["requests"] == 2
        assert snapshot["rendered"] == 1
        assert snapshot["rejected"] == 0
        assert snapshot["frame_hit_rate"] == 0.0

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            self._metrics().not_a_metric

    def test_latency_percentiles_in_snapshot(self):
        metrics = self._metrics()
        for ms in (1, 2, 3, 50):
            metrics.observe("latency", ms / 1000.0)
        snapshot = metrics.snapshot()
        assert snapshot["latency_p50"] <= snapshot["latency_p95"]
        assert snapshot["latency_p99"] <= 0.05 + 1e-9

    def test_gauge_cannot_shadow_counter(self):
        """Regression: a gauge provider key equal to a counter name used
        to overwrite the counter in snapshot(); now it lands under the
        gauge. namespace and both survive."""
        metrics = self._metrics()
        metrics.count("rejected")
        metrics.gauges = lambda: {"rejected": 99, "queue_depth": 7}
        snapshot = metrics.snapshot()
        assert snapshot["rejected"] == 1
        assert snapshot["gauge.rejected"] == 99
        assert snapshot["gauge.queue_depth"] == 7


# -- worker ride-back ----------------------------------------------------

class TestWorkerDeltaRideBack:
    def test_call_task_metrics_reach_parent(self):
        from repro.pool import WorkerPool

        registry = get_registry()
        before = registry.counter_value("test.worker_bumps")
        with WorkerPool(workers=2, start_method="fork") as pool:
            results = [pool.submit(_bump_counters, 5).result(timeout=60)
                       for _ in range(4)]
        assert results == [5, 5, 5, 5]
        assert registry.counter_value("test.worker_bumps") == before + 20
        hist = registry.histogram("test.worker_hist")
        assert hist is not None and hist.count >= 4
        # The pool also times every remote call.
        assert registry.histogram("worker.call_seconds").count >= 4

    def test_pooled_tile_render_ships_tile_timings(self):
        from repro.eval.harness import build_structure_for
        from repro.gaussians import make_workload
        from repro.render import default_camera_for
        from repro.rt import TraceConfig
        from repro.serve.tiles import TileScheduler

        registry = get_registry()
        hist = registry.histogram("worker.tile_seconds")
        before = hist.count if hist is not None else 0
        cloud = make_workload("train", scale=SCALE)
        structure = build_structure_for(cloud, "tlas+sphere")
        camera = default_camera_for(cloud, 12, 12)
        with TileScheduler(tile_size=(6, 6), workers=2) as scheduler:
            result = scheduler.render(cloud, structure, TraceConfig(k=4),
                                      camera)
        assert result.image.shape == (12, 12, 3)
        assert registry.histogram("worker.tile_seconds").count >= before + 4


# -- tracing -------------------------------------------------------------

class TestTracing:
    def test_span_noop_when_tracing_off(self):
        with span("off.region", detail=1):
            pass  # must not raise, allocate a sink, or write anywhere

    def test_trace_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        start_tracing(str(path))
        try:
            with span("test.outer", scene="train"):
                with span("test.inner"):
                    time.sleep(0.001)
        finally:
            stop_tracing()
        report = validate_trace_file(str(path))
        assert report["errors"] == []
        assert report["events"] == 2
        assert {"test.outer", "test.inner"} <= report["names"]
        events = [json.loads(line) for line in
                  path.read_text().splitlines()]
        outer = next(e for e in events if e["name"] == "test.outer")
        assert outer["ph"] == "X" and outer["dur"] >= 0
        assert outer["args"]["scene"] == "train"

    def test_validate_flags_bad_events(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "x", "ph": "X", "ts": 1}\nnot json\n')
        report = validate_trace_file(str(path))
        assert report["errors"]  # missing pid/tid/dur + parse failure


# -- snapshots and the stats CLI -----------------------------------------

class TestSnapshotAndCli:
    def test_write_load_format(self, tmp_path):
        registry = MetricsRegistry()
        registry.add("cli.count", 2)
        registry.observe("cli.hist", 0.125)
        path = tmp_path / "stats.json"
        write_snapshot(str(path), registry=registry)
        document = load_snapshot(str(path))
        assert document["snapshot"]["counters"]["cli.count"] == 2
        assert document["snapshot"]["histograms"]["cli.hist"]["count"] == 1

    def test_cli_stats_pretty_and_json(self, tmp_path, capsys):
        from repro.cli import main

        registry = MetricsRegistry()
        registry.add("cli.count", 3)
        path = tmp_path / "stats.json"
        write_snapshot(str(path), registry=registry)
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cli.count" in out and "3" in out
        assert main(["stats", str(path), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["snapshot"]["counters"]["cli.count"] == 3

    def test_cli_stats_missing_file_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["stats", str(tmp_path / "nope.json")]) == 2
        assert "cannot read snapshot" in capsys.readouterr().err
