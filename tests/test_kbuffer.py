"""Tests for the scalar oracle's k-buffer / eviction buffer (Listing 1
semantics) and the paper's serialized entry sizes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hwsim.rtunit import CHECKPOINT_ENTRY_BYTES, EVICTION_ENTRY_BYTES

from tests.scalar_oracle import EvictionBuffer, KBuffer, KBufferEntry


def entry(t: float, gid: int = 0, alpha: float = 0.5) -> KBufferEntry:
    return KBufferEntry(t=t, gaussian_id=gid, alpha=alpha)


class TestKBuffer:
    def test_entry_sizes_match_paper(self):
        assert CHECKPOINT_ENTRY_BYTES == 20
        assert EVICTION_ENTRY_BYTES == 8

    def test_insert_keeps_sorted(self):
        buf = KBuffer(4)
        for t in (3.0, 1.0, 2.0):
            assert buf.insert(entry(t, int(t))) is None
        assert [e.t for e in buf.peek()] == [1.0, 2.0, 3.0]

    def test_not_full_never_rejects(self):
        buf = KBuffer(8)
        for i in range(8):
            assert buf.insert(entry(float(i), i)) is None
        assert buf.full

    def test_full_closer_hit_evicts_farthest(self):
        """Listing 1 / Figure 11 walkthrough: a closer hit displaces the
        old farthest, which is returned for the eviction buffer."""
        buf = KBuffer(4)
        for i, t in enumerate((2.34, 2.53, 2.68, 2.85)):
            buf.insert(entry(t, i))
        rejected = buf.insert(entry(2.6, 99))
        assert rejected is not None
        assert rejected.t == 2.85
        assert 99 in buf
        assert rejected.gaussian_id not in buf

    def test_full_farther_hit_is_its_own_rejection(self):
        """Figure 11: new hit at t=3.2 beyond the k-th (2.85) is rejected
        itself — the shader then *reports* the hit so t_max := 3.2."""
        buf = KBuffer(4)
        for i, t in enumerate((2.34, 2.53, 2.68, 2.85)):
            buf.insert(entry(t, i))
        rejected = buf.insert(entry(3.2, 5))
        assert rejected is not None
        assert rejected.gaussian_id == 5
        assert rejected.t == 3.2
        assert 5 not in buf

    def test_farthest_t(self):
        buf = KBuffer(3)
        assert buf.farthest_t == float("inf")
        buf.insert(entry(1.5, 1))
        assert buf.farthest_t == 1.5

    def test_drain_resets(self):
        buf = KBuffer(4)
        buf.insert(entry(1.0, 1))
        drained = buf.drain()
        assert len(drained) == 1
        assert len(buf) == 0
        assert 1 not in buf

    def test_membership_follows_eviction(self):
        buf = KBuffer(2)
        buf.insert(entry(1.0, 10))
        buf.insert(entry(2.0, 20))
        buf.insert(entry(1.5, 30))  # evicts 20
        assert 30 in buf and 10 in buf and 20 not in buf

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            KBuffer(0)

    def test_insertions_counter(self):
        buf = KBuffer(2)
        for i in range(5):
            buf.insert(entry(float(i), i))
        assert buf.insertions == 5

    @given(st.lists(st.floats(0.01, 100, allow_nan=False), min_size=1, max_size=60),
           st.integers(1, 16))
    @settings(max_examples=60)
    def test_property_keeps_k_closest(self, ts, k):
        """After any insertion sequence, the buffer holds exactly the k
        smallest distances (ties broken by arrival)."""
        buf = KBuffer(k)
        for i, t in enumerate(ts):
            buf.insert(entry(t, i))
        expected = sorted(ts)[:k]
        got = [e.t for e in buf.peek()]
        assert got == sorted(got)
        assert len(got) == min(k, len(ts))
        np.testing.assert_allclose(got, expected)


class TestEvictionBuffer:
    def test_high_water(self):
        buf = EvictionBuffer()
        for i in range(5):
            buf.push(entry(float(i), i))
        buf.drain_sorted(t_min=-1.0)
        assert buf.high_water == 5
        assert len(buf) == 0

    def test_drain_sorted_orders_and_filters(self):
        buf = EvictionBuffer()
        buf.push(entry(5.0, 1))
        buf.push(entry(2.0, 2))
        buf.push(entry(3.0, 3))
        out = buf.drain_sorted(t_min=2.5)
        assert [e.gaussian_id for e in out] == [3, 1]

    def test_drain_dedups_by_gaussian_keeping_closest(self):
        """The same Gaussian can be evicted twice (e.g. found again via a
        different proxy triangle); replay must blend it once, at the
        nearer depth."""
        buf = EvictionBuffer()
        buf.push(entry(4.0, 7))
        buf.push(entry(3.0, 7))
        out = buf.drain_sorted(t_min=0.0)
        assert len(out) == 1
        assert out[0].t == 3.0

    def test_entries_at_tmin_kept_unless_blended(self):
        """An entry exactly at t_min is only dropped when its Gaussian was
        blended at that depth (double-blend guard); a *different* Gaussian
        whose t ties the round boundary must survive into the next round —
        dropping it made multiround diverge from singleround on tied
        depths."""
        buf = EvictionBuffer()
        buf.push(entry(2.0, 1))
        buf.push(entry(2.0, 2))
        out = buf.drain_sorted(t_min=2.0, blended_at_t_min=frozenset({1}))
        assert [e.gaussian_id for e in out] == [2]
        buf.push(entry(1.5, 3))
        assert buf.drain_sorted(t_min=2.0) == []
