"""Tests for the fetch-trace recorder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rt import (
    FETCH_INTERNAL,
    FETCH_LEAF,
    PRIM_SPHERE,
    PRIM_TRI,
    RayTrace,
    RoundTrace,
)
from repro.rt.recorder import unique_fetch_counts


class TestRoundTrace:
    def test_event_roundtrip(self):
        rt = RoundTrace()
        rt.fetch(1000, 208, FETCH_INTERNAL, box_tests=6,
                 prefetch=[(2000, 144), (3000, 208)])
        rt.fetch(2000, 144, FETCH_LEAF, prim_tests=4, prim_kind=PRIM_TRI)
        events = list(rt.iter_events())
        assert events[0] == (1000, 208, FETCH_INTERNAL, 6, 0, 0, [(2000, 144), (3000, 208)])
        assert events[1] == (2000, 144, FETCH_LEAF, 0, 4, PRIM_TRI, [])
        assert rt.n_fetches == 2

    def test_no_prefetch_is_compact(self):
        rt = RoundTrace()
        rt.fetch(0, 128, FETCH_LEAF, prim_tests=1, prim_kind=PRIM_SPHERE)
        assert len(rt.stream) == 7

    def test_counters_default_zero(self):
        rt = RoundTrace()
        assert rt.anyhit_calls == 0
        assert rt.false_positives == 0
        assert rt.blended == 0


class TestRayTrace:
    def test_unique_vs_total(self):
        """Totals count every noted fetch; unique counts are the distinct
        addresses per kind in the rounds' event streams, across rounds."""
        trace = RayTrace()
        fetches = ((10, FETCH_INTERNAL), (20, FETCH_INTERNAL),
                   (10, FETCH_INTERNAL), (30, FETCH_LEAF), (30, FETCH_LEAF))
        for i, (addr, kind) in enumerate(fetches):
            rnd = trace.begin_round() if i in (0, 2) else trace.rounds[-1]
            rnd.fetch(addr, 64, kind)
            trace.note_fetch(addr, kind)
        assert trace.total_internal == 3
        assert trace.total_leaf == 2
        assert trace.unique_counts() == (2, 1)
        assert trace.total_fetches == 5
        assert trace.unique_fetches == 3
        assert RayTrace().unique_counts() == (0, 0)

    def test_bundle_unique_counts_match_per_trace(self):
        """The bundle count equals each trace's own distinct addresses
        per kind, across several sort slices, with empty traces, rounds
        without fetches and the same address under both kinds."""
        rng = np.random.default_rng(3)
        traces = []
        for i in range(75):
            trace = RayTrace()
            for _ in range(i % 4):
                rnd = trace.begin_round()
                for addr in rng.integers(0, 40, rng.integers(0, 9)):
                    rnd.fetch(int(addr) * 64 + (1 << 40) * (i % 3), 64,
                              FETCH_INTERNAL if addr % 3 else FETCH_LEAF)
            traces.append(trace)
        want = [[len({e[0] for r in t.rounds for e in r.iter_events()
                      if (e[2] == FETCH_LEAF) == leaf})
                 for leaf in (False, True)] for t in traces]
        assert unique_fetch_counts(traces).tolist() == want
        assert unique_fetch_counts([]).shape == (0, 2)

    def test_rounds_accumulate(self):
        trace = RayTrace()
        r1 = trace.begin_round()
        r2 = trace.begin_round()
        assert trace.n_rounds == 2
        assert trace.rounds == [r1, r2]

    def test_label_default_primary(self):
        assert RayTrace().label == "primary"
        assert RayTrace(label="secondary").label == "secondary"
