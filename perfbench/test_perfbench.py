"""Tests for the benchmark's own helpers: percentiles, self time, manifest.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import catalog  # noqa: E402
from common import PHASES, Measurement, RenderTally  # noqa: E402
from stats import (  # noqa: E402
    Span,
    SpanRecorder,
    beyond,
    covered_ns,
    percentile,
    reportable,
    self_times,
    tail_quantile,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_percentile_interpolates_between_ranks():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 0.5) == 3.0
    assert percentile(samples, 0.0) == 1.0
    assert percentile(samples, 1.0) == 5.0
    assert percentile(samples, 0.25) == 2.0
    assert percentile([1.0, 2.0], 0.5) == 1.5
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_percentile_matches_statistics_median():
    import statistics

    samples = [0.3, 9.1, 2.2, 7.5, 1.0, 4.4]
    assert percentile(samples, 0.5) == pytest.approx(
        statistics.median(samples))


def test_p95_needs_ten_samples_beyond_it():
    # p95 of n samples sits at rank 0.95 * (n - 1); count what is past it.
    assert beyond(201, 0.95) == 10
    assert reportable(182, 0.95)
    assert not reportable(181, 0.95)
    assert not reportable(100, 0.95)
    assert reportable(100, 0.9)
    assert tail_quantile(201) == 0.95
    assert tail_quantile(1001) == 0.99
    assert tail_quantile(40) == 0.75
    assert tail_quantile(16) == 0.5


def test_covered_ns_merges_overlaps_and_clips():
    assert covered_ns(0, 100, []) == 0
    assert covered_ns(0, 100, [(10, 20), (15, 30)]) == 20
    assert covered_ns(0, 100, [(-50, 10), (90, 200)]) == 20
    assert covered_ns(0, 100, [(10, 20), (40, 50)]) == 20
    assert covered_ns(0, 100, [(200, 300)]) == 0


def test_self_time_subtracts_children_once():
    spans = [
        Span(1, "config", "eval", 0, 100),
        Span(2, "render", "render", 10, 60, parent=1),
        Span(3, "replay", "hwsim", 50, 90, parent=1),  # overlaps render
        Span(4, "kernel", "render", 20, 30, parent=2),
    ]
    own = self_times(spans)
    assert own["eval"] == pytest.approx(20e-9)  # 100 - union(10..90)
    assert own["render"] == pytest.approx((40 + 10) * 1e-9)  # both spans
    assert own["hwsim"] == pytest.approx(40e-9)


def test_recorder_nests_by_thread_and_disables():
    rec = SpanRecorder(enabled=True)
    with rec.span("outer", "bench", request=7) as outer:
        with rec.span("inner", "render") as inner:
            pass
    assert inner.parent == outer.span_id
    assert inner.request == 7
    assert {sp.name for sp in rec.spans} == {"outer", "inner"}
    off = SpanRecorder(enabled=False)
    with off.span("x", "bench") as sp:
        assert sp is None
    off.detached("y", "serve", 0, 1)
    assert off.spans == []


def test_goodput_leaves_out_units_that_failed_a_check():
    m = Measurement(units=[1.0, 1.0, 1.0, 1.0], on_time={0, 1, 2})
    assert m.good == 3
    m.fail("wrong image", units=[1])
    m.fail("a failure no unit owns")
    assert (m.good, m.failed) == (2, 2)


def _counters(tasks: int, pool: bool = True) -> dict:
    out = {f"phase.{p}": 0.0 for p in PHASES}
    out.update({"tiles.sum": 0.0, "tiles.count": 0, "server.requests": 3,
                "registry.builds": 0})
    if pool:
        out["pool.tasks_completed"] = tasks
    return out


@pytest.mark.parametrize("after, failed", [
    (_counters(12), 0),
    (_counters(0), 1),               # nothing ran on the pool
    (_counters(12, pool=False), 1),  # counters read after the pool closed
])
def test_serve_requires_pool_tasks(after, failed):
    import serve

    plan = [(i / serve.RATE, serve._request(serve.BASE, "pooled-packet", 4))
            for i in range(3)]
    m = Measurement(units=[0.5, 0.5, 0.5])
    serve._serve_layer(m, plan, _counters(0), after,
                       RenderTally(in_process=False), [0.4] * 3, [0.1] * 3,
                       [0.0, 1.25, 2.5], 0.0, [0, 0, 0])
    assert m.failed == failed
    assert m.layer["pool.tasks"] == after.get("pool.tasks_completed", 0)


def test_manifest_fits_the_schema():
    doc = catalog.manifest()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"]]
             + [m["name"] for m in doc["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_committed_manifest_is_generated_from_the_catalog():
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    assert json.loads(path.read_text(encoding="utf-8")) == catalog.manifest()
