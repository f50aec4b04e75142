"""Fetch-trace recording for the timing model.

The functional tracers emit, per ray and per tracing round, the exact
sequence of BVH node fetches (byte address, size, kind) together with the
intersection-test work done at each node. :mod:`repro.hwsim` replays these
streams through its cache hierarchy and RT-unit model.

A round's events live in two flat ``array('q')`` streams so that millions
of events stay cheap to store *and* cheap to consume:

* ``stream`` — one fixed-width record of :data:`RECORD_FIELDS` int64
  words per fetch::

      [addr, nbytes, kind, box_tests, prim_tests, prim_kind, n_prefetch]

* ``pf`` — the prefetch ``(addr, nbytes)`` pairs of all records,
  concatenated in record order (record ``i`` owns the next
  ``n_prefetch[i]`` pairs).

The fixed-width layout is what makes zero-copy consumption possible:
:meth:`RoundTrace.events_view` and :meth:`RoundTrace.prefetch_view`
reinterpret the buffers as numpy arrays (``np.frombuffer``) without
copying or per-event Python iteration — the vectorized replay in
:mod:`repro.hwsim.replay` is built on these views. :meth:`iter_events`
remains as the per-event compatibility API.

``prefetch`` entries model the sibling-node prefetcher the paper adds to
Vulkan-Sim to match real-GPU L1 hit rates (Section V-A): when an internal
node's box tests identify the intersected children, those children's
addresses are staged into the L1.
"""

from __future__ import annotations

from array import array

import numpy as np

FETCH_INTERNAL = 1
FETCH_LEAF = 2

PRIM_NONE = 0
PRIM_TRI = 1
PRIM_SPHERE = 2
PRIM_CUSTOM = 3
PRIM_TRANSFORM = 4

#: int64 words per fixed-width fetch record in ``RoundTrace.stream``.
RECORD_FIELDS = 7

_EMPTY_EVENTS = np.empty((0, RECORD_FIELDS), dtype=np.int64)
_EMPTY_PAIRS = np.empty((0, 2), dtype=np.int64)


class RoundTrace:
    """Events and counters for one ray x one tracing round."""

    __slots__ = (
        "stream",
        "pf",
        "anyhit_calls",
        "kbuffer_ops",
        "false_positives",
        "blended",
        "checkpoints_written",
        "evictions_written",
        "_ev_cache",
        "_pf_cache",
    )

    def __init__(self) -> None:
        self.stream = array("q")
        self.pf = array("q")
        self._ev_cache: np.ndarray | None = None
        self._pf_cache: np.ndarray | None = None
        self.anyhit_calls = 0
        self.kbuffer_ops = 0
        self.false_positives = 0
        self.blended = 0
        self.checkpoints_written = 0
        self.evictions_written = 0

    def fetch(
        self,
        addr: int,
        nbytes: int,
        kind: int,
        box_tests: int = 0,
        prim_tests: int = 0,
        prim_kind: int = PRIM_NONE,
        prefetch: list[tuple[int, int]] | None = None,
    ) -> None:
        """Record one node fetch and the work performed at that node."""
        if prefetch:
            self.stream.extend((addr, nbytes, kind, box_tests, prim_tests,
                                prim_kind, len(prefetch)))
            pf = self.pf
            for pair in prefetch:
                pf.extend(pair)
        else:
            self.stream.extend((addr, nbytes, kind, box_tests, prim_tests,
                                prim_kind, 0))

    def __getstate__(self):
        # Ship only the streams and counters: the memoized views are
        # per-process buffer aliases (pickling would copy them), and a
        # fresh instance re-derives them on first use.
        return (self.stream, self.pf, self.anyhit_calls, self.kbuffer_ops,
                self.false_positives, self.blended,
                self.checkpoints_written, self.evictions_written)

    def __setstate__(self, state):
        (self.stream, self.pf, self.anyhit_calls, self.kbuffer_ops,
         self.false_positives, self.blended,
         self.checkpoints_written, self.evictions_written) = state
        self._ev_cache = None
        self._pf_cache = None

    def events_view(self) -> np.ndarray:
        """Zero-copy ``(n_fetches, RECORD_FIELDS)`` int64 view of the
        record stream (columns: addr, nbytes, kind, box_tests,
        prim_tests, prim_kind, n_prefetch).

        Memoized: traces are write-then-read, and the first view pins
        the underlying buffer — a later :meth:`fetch` on a viewed round
        raises ``BufferError`` rather than silently going stale.
        """
        if not len(self.stream):
            return _EMPTY_EVENTS
        cached = self._ev_cache
        if cached is not None:
            return cached
        view = np.frombuffer(self.stream, dtype=np.int64).reshape(
            -1, RECORD_FIELDS)
        self._ev_cache = view
        return view

    def prefetch_view(self) -> np.ndarray:
        """Zero-copy ``(n_pairs, 2)`` int64 view of the prefetch pairs,
        in record order; record ``i``'s pairs start at
        ``events_view()[:i, 6].sum()``. Memoized like
        :meth:`events_view`."""
        if not len(self.pf):
            return _EMPTY_PAIRS
        cached = self._pf_cache
        if cached is not None:
            return cached
        view = np.frombuffer(self.pf, dtype=np.int64).reshape(-1, 2)
        self._pf_cache = view
        return view

    def iter_events(self):
        """Yield ``(addr, nbytes, kind, box, prim, prim_kind, prefetch)``."""
        stream = self.stream
        pf = self.pf
        j = 0
        for i in range(0, len(stream), RECORD_FIELDS):
            addr, nbytes, kind, box, prim, prim_kind, n_pf = (
                stream[i : i + RECORD_FIELDS])
            prefetch = []
            for _ in range(n_pf):
                prefetch.append((pf[j], pf[j + 1]))
                j += 2
            yield addr, nbytes, kind, box, prim, prim_kind, prefetch

    @property
    def n_fetches(self) -> int:
        return len(self.stream) // RECORD_FIELDS


class RayTrace:
    """Whole-render trace for one ray.

    Counts the ray's total node fetches across rounds (with
    :meth:`unique_counts`, Figure 7's unique vs total redundancy
    measurement) plus checkpoint/eviction high-water marks (Figure 20's
    buffer sizing).
    """

    __slots__ = (
        "rounds",
        "total_internal",
        "total_leaf",
        "ckpt_high_water",
        "evict_high_water",
        "label",
    )

    def __init__(self, label: str = "primary") -> None:
        self.rounds: list[RoundTrace] = []
        self.total_internal = 0
        self.total_leaf = 0
        self.ckpt_high_water = 0
        self.evict_high_water = 0
        self.label = label

    def begin_round(self) -> RoundTrace:
        trace = RoundTrace()
        self.rounds.append(trace)
        return trace

    def note_fetch(self, addr: int, kind: int) -> None:
        """Count one fetch in the total visit statistics (the fetch
        itself enters a round's stream, where :meth:`unique_counts`
        finds its address)."""
        if kind == FETCH_INTERNAL:
            self.total_internal += 1
        else:
            self.total_leaf += 1

    def unique_counts(self) -> tuple[int, int]:
        """``(internal, leaf)``: the distinct fetch addresses of each
        kind over all rounds' event streams."""
        return tuple(unique_fetch_counts([self])[0].tolist())

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_fetches(self) -> int:
        return self.total_internal + self.total_leaf

    @property
    def unique_fetches(self) -> int:
        return sum(self.unique_counts())

    def fetch_multiset(self) -> dict[tuple[int, int], int]:
        """Whole-ray ``(addr, kind) -> count`` fetch multiset (the
        engine-parity invariant the trace tests compare)."""
        counts: dict[tuple[int, int], int] = {}
        for rnd in self.rounds:
            events = rnd.events_view()
            for addr, kind in zip(events[:, 0].tolist(),
                                  events[:, 2].tolist()):
                key = (addr, kind)
                counts[key] = counts.get(key, 0) + 1
        return counts


#: Traces per sort in :func:`unique_fetch_counts` (a recording chunk):
#: bounds its temporaries to a few int64 words per event of a slice.
_UNIQUE_SLICE = 32


def unique_fetch_counts(traces) -> np.ndarray:
    """Each trace's ``(internal, leaf)`` distinct fetch addresses over
    all its rounds, as an ``(n, 2)`` int64 array: one sort of ``(trace,
    is_leaf, addr)`` keys per :data:`_UNIQUE_SLICE` traces."""
    counts = np.zeros((len(traces), 2), dtype=np.int64)
    for s0 in range(0, len(traces), _UNIQUE_SLICE):
        part = traces[s0:s0 + _UNIQUE_SLICE]
        rounds = [(i, rnd.events_view()) for i, trace in enumerate(part)
                  for rnd in trace.rounds]
        if not any(len(ev) for _, ev in rounds):
            continue
        addr = np.concatenate([ev[:, 0] for _, ev in rounds])
        addr -= addr.min()
        span = int(addr.max()) + 1
        if 2 * len(part) * span > np.iinfo(np.int64).max:
            raise OverflowError("fetch addresses span too wide to count")
        key = np.repeat([2 * i for i, _ in rounds],
                        [len(ev) for _, ev in rounds])
        key += np.concatenate([ev[:, 2] for _, ev in rounds]) != FETCH_INTERNAL
        key *= span
        key += addr
        del addr
        key.sort()
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        counts[s0:s0 + len(part)] = np.bincount(
            key[first] // span, minlength=2 * len(part)).reshape(-1, 2)
    return counts
