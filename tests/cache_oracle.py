"""Set-associative LRU cache model of the per-event replay oracle
(``tests/replay_oracle.py``); :func:`repro.hwsim.replay` walks the same
LRU sets in its compiled kernel.

Dict insertion order doubles as the LRU chain: a hit deletes and
re-inserts its line (most recently used at the back); an insertion that
overflows the set evicts the front (least recently used). This keeps the
per-access cost at a couple of dict operations, which matters when
replaying millions of fetch events in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    """Access counters for one cache level."""

    accesses: int = 0
    hits: int = 0
    prefetch_fills: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """An LRU set-associative cache over line addresses."""

    __slots__ = ("line_bytes", "ways", "n_sets", "_sets", "stats", "name")

    def __init__(self, size_bytes: int, line_bytes: int, ways: int, name: str = "cache") -> None:
        if size_bytes % (line_bytes * ways) != 0:
            raise ValueError("cache size must be a multiple of line_bytes * ways")
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = size_bytes // (line_bytes * ways)
        self._sets: list[dict[int, None]] = [dict() for _ in range(self.n_sets)]
        self.stats = CacheStats()
        self.name = name

    def line_of(self, addr: int) -> int:
        return addr // self.line_bytes

    def lines_of(self, addr: int, nbytes: int) -> range:
        """All line addresses a ``nbytes`` fetch at ``addr`` touches."""
        first = addr // self.line_bytes
        last = (addr + max(nbytes, 1) - 1) // self.line_bytes
        return range(first, last + 1)

    def access(self, line: int) -> bool:
        """Demand access one line; returns True on hit, fills on miss."""
        self.stats.accesses += 1
        cache_set = self._sets[line % self.n_sets]
        if line in cache_set:
            self.stats.hits += 1
            del cache_set[line]
            cache_set[line] = None
            return True
        self._fill(cache_set, line)
        return False

    def contains(self, line: int) -> bool:
        """Presence check without touching LRU state or counters."""
        return line in self._sets[line % self.n_sets]

    def fill(self, line: int) -> None:
        """Prefetch fill: install a line without a demand access."""
        cache_set = self._sets[line % self.n_sets]
        if line in cache_set:
            return
        self.stats.prefetch_fills += 1
        self._fill(cache_set, line)

    def _fill(self, cache_set: dict[int, None], line: int) -> None:
        cache_set[line] = None
        if len(cache_set) > self.ways:
            evict = next(iter(cache_set))
            del cache_set[evict]

    def reset_stats(self) -> None:
        self.stats = CacheStats()
