"""Trace replay: turn recorded fetch traces into cycles and cache stats.

The model follows Figure 9's architecture at a trace-driven level of
detail:

* rays are grouped into 32-wide warps; warps are distributed round-robin
  over SMs, each with a private L1 and one RT unit; all SMs share the L2;
* within one (warp, round), duplicate node requests from different rays
  are merged (the coalescing the paper credits for part of GRTX-SW's
  fetch reduction) — the first request is a *node fetch*, the rest cost a
  fraction of an issue slot;
* event streams of the rays in the warps of one SM are interleaved
  round-robin, so the L1 sees the real contention between divergent rays;
* a fetch's stall contribution is its memory latency divided by the warp
  buffer depth (8 resident warps hide each other's latency);
* intersection-test work occupies the RT unit per its fixed-function
  throughput; any-hit sorting, blending and software intersection shaders
  occupy the programmable cores;
* each (warp, round) pays a traceRayEXT relaunch overhead — the straggler
  cost that makes very small k values lose in Figure 18.

The absolute cycle counts are a model, not RTL truth; the paper's claims
are relative (speedups, fetch ratios, hit rates), which is what this
reproduces.

Implementation: :func:`replay` streams the (round, warp) segments in
their global replay order, in chunks of whole segments holding at most
:data:`CHUNK_EVENTS` events (a larger segment is a chunk of its own).
Each chunk is decoded from the recorder's zero-copy event views, costed
and tag-walked before the next is read: the round-robin interleave
order, per-event line spans and RT-unit compute costs are derived with
numpy, and only the inherently sequential part (the MSHR-like merge
window and the LRU tag updates, whose state feeds back into what the
next event sees) remains a Python loop over the chunk's flat lists. So
replay's transient memory follows the chunk, not the frame. Merge
windows and per-segment sums reset at segment boundaries; only the
caches, the DRAM model and the demand footprint cross a chunk edge.
While every chunk's candidate lines, carried plus new, fit their sets'
associativity, LRU never evicts and the tag walk is a vectorized
first-occurrence pass; the first chunk that could overflow hands the
caches, rebuilt in exact LRU order, to the sequential walk for the rest
of the replay. The original one-event-at-a-time implementation is kept
verbatim as :func:`replay_reference`: it is the semantic golden model
the test suite holds :func:`replay` bit-compatible with, and the
baseline ``benchmarks/bench_replay.py`` measures the vectorization
speedup against.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from repro.hwsim.cache import SetAssociativeCache
from repro.hwsim.config import GpuConfig
from repro.hwsim.dram import DramModel
from repro.obs import PhaseAccumulator, emit_span
from repro.render.raster import RasterResult
from repro.rt.recorder import (
    PRIM_CUSTOM,
    PRIM_SPHERE,
    PRIM_TRANSFORM,
    PRIM_TRI,
    RayTrace,
)

#: Fetch events per replay chunk. Whole (round, warp) segments are packed
#: into chunks of at most this many events (a larger segment is a chunk
#: of its own) and each chunk is decoded, costed and tag-walked before the
#: next is read, so replay's transient memory is bounded by the chunk,
#: not the frame.
CHUNK_EVENTS = 1 << 16


@dataclass
class TimingReport:
    """Everything the evaluation figures need from one replay."""

    cycles: float = 0.0
    time_ms: float = 0.0
    node_fetches: int = 0
    merged_requests: int = 0
    fetch_latency_sum: float = 0.0
    l1_accesses: int = 0
    l1_hits: int = 0
    l2_accesses: int = 0
    dram_accesses: int = 0
    prefetches: int = 0
    traversal_cycles: float = 0.0
    sorting_cycles: float = 0.0
    blending_cycles: float = 0.0
    rounds_total: int = 0
    footprint_bytes: int = 0
    sm_cycles: list[float] = field(default_factory=list)
    label_cycles: dict[str, float] = field(default_factory=dict)
    #: DRAM row-buffer hit rate; populated only under the banked model.
    dram_row_hit_rate: float = 0.0

    @property
    def avg_fetch_latency(self) -> float:
        return self.fetch_latency_sum / self.node_fetches if self.node_fetches else 0.0

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_hits / self.l1_accesses if self.l1_accesses else 0.0


class _WarpRoundCost:
    """Accumulates the cost of one (warp, round)."""

    __slots__ = ("mem", "issue", "ray_compute", "shader")

    def __init__(self, n_rays: int) -> None:
        self.mem = 0.0
        self.issue = 0.0
        self.ray_compute = [0.0] * n_rays
        self.shader = 0.0


def _group_warps(traces: list[RayTrace], warp_size: int) -> list[list[RayTrace]]:
    """Chunk rays into warps, keeping primary and secondary rays apart
    (secondary rays are spawned as separate warps, and Figure 23 needs
    their cycles attributed separately)."""
    warps: list[list[RayTrace]] = []
    for label in ("primary", "secondary"):
        rays = [t for t in traces if t.label == label]
        for i in range(0, len(rays), warp_size):
            warps.append(rays[i : i + warp_size])
    return warps


def _build_caches(config):
    """The modeled cache hierarchy: per-SM L1 tags plus the shared L2."""
    l1s = [
        SetAssociativeCache(config.l1_bytes, config.l1_line_bytes, config.l1_ways, f"l1-{i}")
        for i in range(config.n_sms)
    ]
    l2 = SetAssociativeCache(config.l2_bytes, config.l2_line_bytes, config.l2_ways, "l2")
    return l1s, l2


def _replay_setup(traces, config):
    """State shared by both replay implementations."""
    warps = _group_warps(traces, config.warp_size)
    l1s, l2 = _build_caches(config)
    dram = DramModel() if config.dram_model == "banked" else None
    sm_of_warp = [w % config.n_sms for w in range(len(warps))]
    return warps, l1s, l2, dram, sm_of_warp


def _expand_spans(first: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """``[first_i, first_i + spans_i)`` for every i, concatenated."""
    total = int(spans.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offs = np.repeat(spans.cumsum() - spans, spans)
    return np.repeat(first, spans) + np.arange(total, dtype=np.int64) - offs


def _in_sorted(sorted_arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership of each of ``values`` in the sorted array ``sorted_arr``."""
    if not sorted_arr.size:
        return np.zeros(values.shape, dtype=bool)
    idx = np.minimum(np.searchsorted(sorted_arr, values), sorted_arr.size - 1)
    return sorted_arr[idx] == values


def _union_sorted(sorted_arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``sorted_arr`` with the sorted, distinct ``values`` merged in."""
    new = values[~_in_sorted(sorted_arr, values)]
    if not new.size:
        return sorted_arr
    return np.insert(sorted_arr, np.searchsorted(sorted_arr, new), new)


def _kbuffer_cycles(config: GpuConfig, kbuffer_layout: str) -> float:
    """Cycles per k-buffer insertion step; the SoA layout pays global-memory
    traffic on top of the register-resident payload layout."""
    if kbuffer_layout not in ("soa", "payload"):
        raise ValueError(f"unknown kbuffer layout {kbuffer_layout!r}")
    return config.kbuffer_op_cycles + (
        config.kbuffer_soa_extra_cycles if kbuffer_layout == "soa" else 0.0)


def _chunk_bounds(seg_events: list[int]) -> list[tuple[int, int]]:
    """Cut the segment order into ``[s0, s1)`` ranges of whole segments
    holding at most :data:`CHUNK_EVENTS` events each; a larger segment is
    a chunk of its own. Trailing segments without events are dropped."""
    bounds: list[tuple[int, int]] = []
    start = total = 0
    for seg, n in enumerate(seg_events):
        if total and total + n > CHUNK_EVENTS:
            bounds.append((start, seg))
            start, total = seg, 0
        total += n
    if total:
        bounds.append((start, len(seg_events)))
    return bounds


def _lap(profile: PhaseAccumulator, phase: str, mark: float) -> float:
    """Charge the time since ``mark`` to ``phase``; returns the new mark."""
    now = time.perf_counter()
    profile.add(phase, now - mark)
    return now


_NO_LINES = np.empty(0, dtype=np.int64)


class _CacheState:
    """Cache, DRAM and footprint state carried from one chunk to the next.

    While every chunk so far has been proven eviction-free, the caches are
    sorted arrays: the L1 contents as ``line * n_sms + sm`` keys and the
    L2 contents as lines, each with its LRU recency (a global touch
    position), plus the per-set occupancy the proof extends. The first
    chunk that fails the proof calls :meth:`materialize`, which rebuilds
    the LRU tag dicts from those recencies; that chunk and every later one
    walk the dicts sequentially.
    """

    __slots__ = ("config", "dram", "footprint", "fast", "keys", "key_rec",
                 "lines", "line_rec", "l1_count", "l2_count", "touched",
                 "l1_states", "l2_state")

    def __init__(self, config: GpuConfig) -> None:
        self.config = config
        self.dram = DramModel() if config.dram_model == "banked" else None
        #: Sorted lines with at least one demand touch.
        self.footprint = _NO_LINES
        self.fast = True
        self.keys = self.key_rec = self.lines = self.line_rec = _NO_LINES
        l1_nsets = config.l1_bytes // (config.l1_line_bytes * config.l1_ways)
        l2_nsets = config.l2_bytes // (config.l2_line_bytes * config.l2_ways)
        self.l1_count = np.zeros(config.n_sms * l1_nsets, dtype=np.int64)
        self.l2_count = np.zeros(l2_nsets, dtype=np.int64)
        #: Touches replayed so far: the clock the recencies are read on.
        self.touched = 0
        self.l1_states: list | None = None
        self.l2_state: tuple | None = None

    def materialize(self) -> None:
        """Hand the array-held caches over to LRU tag dicts.

        Inserting each set's lines in ascending recency leaves them in
        exact LRU order, since no line was ever evicted.
        """
        l1s, l2 = _build_caches(self.config)
        self.l1_states = [l1.tag_state() for l1 in l1s]
        self.l2_state = l2.tag_state()
        n_sms = self.config.n_sms
        order = np.argsort(self.key_rec)
        lines = self.keys[order] // n_sms
        sms = self.keys[order] - lines * n_sms
        for line, sm in zip(lines.tolist(), sms.tolist()):
            sets, n_sets, _ = self.l1_states[sm]
            sets[line % n_sets][line] = None
        l2_sets, l2_nsets, _ = self.l2_state
        for line in self.lines[np.argsort(self.line_rec)].tolist():
            l2_sets[line % l2_nsets][line] = None
        self.fast = False
        self.keys = self.key_rec = self.lines = self.line_rec = _NO_LINES


def replay(
    traces: list[RayTrace],
    config: GpuConfig | None = None,
    kbuffer_layout: str = "soa",
    treelet_map: dict[int, list[tuple[int, int]]] | None = None,
) -> TimingReport:
    """Replay recorded traces through the timing model (batched).

    Semantically identical to :func:`replay_reference` — the test suite
    pins the two together on real renders — but the (round, warp)
    segments are streamed in chunks of whole segments, each decoded,
    interleaved and costed as numpy batches, with only the stateful
    merge-window + cache-tag walk left sequential.

    ``treelet_map`` (from :func:`repro.hwsim.treelet.build_treelet_map`)
    enables treelet prefetching: on a demand miss whose address roots a
    treelet, the treelet's lines are staged into the L1 without stalling
    the ray.
    """
    config = config or GpuConfig()
    kbuf_cycles = _kbuffer_cycles(config, kbuffer_layout)
    report = TimingReport()
    # Same geometry validation the reference performs by constructing
    # its caches (the fast path never builds them).
    for size, line, ways in ((config.l1_bytes, config.l1_line_bytes,
                              config.l1_ways),
                             (config.l2_bytes, config.l2_line_bytes,
                              config.l2_ways)):
        if size % (line * ways) != 0:
            raise ValueError("cache size must be a multiple of line_bytes * ways")
    if not traces:
        return report

    # Per-phase wall time, accumulated over the chunks and flushed into
    # the replay.phase.* histograms once: decode (trace decode + global
    # interleave), cost (RT-unit/shader compute + cycle assembly), tagwalk
    # (merge window + cache tag walk — the sequential part).
    started_ns = time.time_ns()
    profile = PhaseAccumulator()
    for phase in ("decode", "cost", "tagwalk"):
        profile.add(phase, 0.0)
    mark = time.perf_counter()

    warps = _group_warps(traces, config.warp_size)
    n_sms = config.n_sms
    sm_of_warp = [w % n_sms for w in range(len(warps))]
    sm_cycles = [0.0] * n_sms
    label_cycles: dict[str, float] = {"primary": 0.0, "secondary": 0.0}
    overlap = float(config.warp_buffer_size)

    max_rounds = max((t.n_rounds for t in traces), default=0)
    report.rounds_total = sum(t.n_rounds for t in traces)

    # ------------------------------------------------------------------
    # Pass 1 — enumerate the (round, warp) segments in replay order, with
    # the per-ray rounds that carry events. Nothing is decoded yet.
    # ------------------------------------------------------------------
    seg_sm: list[int] = []
    seg_label: list[str] = []
    seg_sorting: list[float] = []
    seg_blending: list[float] = []
    seg_events: list[int] = []
    ev_rounds: list = []
    ev_seg: list[int] = []
    ev_slot: list[int] = []
    anyhit_c = config.anyhit_base_cycles
    blend_c = config.blend_cycles
    warp_rounds = [[ray.rounds for ray in warp] for warp in warps]
    for round_index in range(max_rounds):
        for warp_index, rounds_of in enumerate(warp_rounds):
            slot = events = 0
            sorting = blending = 0.0
            seg = len(seg_sm)
            for rounds in rounds_of:
                if round_index >= len(rounds):
                    continue
                rt_round = rounds[round_index]
                sorting += (rt_round.anyhit_calls * anyhit_c
                            + rt_round.kbuffer_ops * kbuf_cycles)
                blending += rt_round.blended * blend_c
                n = rt_round.n_fetches
                if n:
                    ev_rounds.append(rt_round)
                    ev_seg.append(seg)
                    ev_slot.append(slot)
                    events += n
                slot += 1
            if slot == 0:
                continue
            seg_sm.append(sm_of_warp[warp_index])
            seg_label.append(warps[warp_index][0].label)
            seg_sorting.append(sorting)
            seg_blending.append(blending)
            seg_events.append(events)
    n_seg = len(seg_sm)

    # ------------------------------------------------------------------
    # Pass 2 — stream whole segments in chunks of about CHUNK_EVENTS
    # events. Merge windows and per-segment sums reset at segment
    # boundaries, so a chunk edge never splits an accumulation; only the
    # cache, DRAM and footprint state crosses chunks (`_CacheState`).
    # ------------------------------------------------------------------
    seg_mem = [0.0] * n_seg
    seg_fetch = [0] * n_seg
    seg_merged = [0] * n_seg
    seg_compute = [0.0] * n_seg
    seg_shader = [0.0] * n_seg
    state = _CacheState(config)
    if treelet_map is not None:
        # Treelet prefetch fills depend on demand misses: always walk.
        state.materialize()
    n_chunks = fast_chunks = 0
    mark = _lap(profile, "decode", mark)
    for s0, s1 in _chunk_bounds(seg_events):
        v0, v1 = bisect_left(ev_seg, s0), bisect_left(ev_seg, s1)
        (seg_mem[s0:s1], seg_fetch[s0:s1], seg_merged[s0:s1],
         seg_compute[s0:s1], seg_shader[s0:s1]) = _replay_chunk(
            state, report, profile, config, treelet_map, ev_rounds[v0:v1],
            [seg - s0 for seg in ev_seg[v0:v1]], ev_slot[v0:v1],
            seg_sm[s0:s1])
        n_chunks += 1
        fast_chunks += state.fast
    mark = time.perf_counter()
    report.node_fetches = sum(seg_fetch)
    report.merged_requests = sum(seg_merged)

    # ------------------------------------------------------------------
    # Pass 3 — assemble per-segment warp cycles in replay order.
    # ------------------------------------------------------------------
    issue_fetch = config.issue_cycles + config.shader_issued_fetch_cycles
    issue_merged = config.merged_issue_cycles
    round_overhead = config.round_overhead_cycles / overlap
    shader_par = config.shader_parallelism
    for seg in range(n_seg):
        traversal = (
            seg_mem[seg]
            + (seg_merged[seg] * issue_merged + seg_fetch[seg] * issue_fetch)
            + seg_compute[seg]
            + seg_shader[seg] / shader_par
            + round_overhead
        )
        sorting = seg_sorting[seg] / shader_par
        blending = seg_blending[seg] / shader_par
        warp_cycles = traversal + sorting + blending
        sm_cycles[seg_sm[seg]] += warp_cycles
        label_cycles[seg_label[seg]] += warp_cycles
        report.traversal_cycles += traversal
        report.sorting_cycles += sorting
        report.blending_cycles += blending

    report.footprint_bytes = state.footprint.size * config.l1_line_bytes
    if state.dram is not None:
        report.dram_row_hit_rate = state.dram.stats.row_hit_rate
    report.sm_cycles = sm_cycles
    report.cycles = max(sm_cycles)
    report.time_ms = config.cycles_to_ms(report.cycles)
    report.label_cycles = label_cycles

    _lap(profile, "cost", mark)
    profile.flush("replay.phase")
    emit_span("hwsim.replay", started_ns, time.time_ns(),
              traces=len(traces), segments=n_seg,
              events=sum(seg_events), chunks=n_chunks,
              fast_chunks=fast_chunks)
    return report


def _replay_chunk(state: _CacheState, report: TimingReport,
                  profile: PhaseAccumulator, config: GpuConfig,
                  treelet_map, rounds: list, ev_seg: list[int],
                  ev_slot: list[int], seg_sm: list[int]) -> tuple:
    """Decode, cost and tag-walk one chunk of whole segments.

    ``rounds`` are the chunk's per-ray rounds that carry events, in
    segment order, with their chunk-local segment (``ev_seg``) and warp
    slot (``ev_slot``); ``seg_sm`` is each chunk segment's SM. Counters
    accumulate into ``report``; returns the per-segment ``(mem, fetches,
    merged, rt_compute, shader)`` lists.
    """
    mark = time.perf_counter()
    n_seg = len(seg_sm)
    warp_size = config.warp_size
    line_bytes = config.l1_line_bytes

    # -- decode + interleave (vectorized) ------------------------------
    views = [rnd.events_view() for rnd in rounds]
    counts = np.asarray([ev.shape[0] for ev in views], dtype=np.int64)
    main = np.concatenate(views) if len(views) > 1 else views[0]
    n_events = main.shape[0]
    seg_ids = np.repeat(np.asarray(ev_seg, dtype=np.int64), counts)
    slot_ids = np.repeat(np.asarray(ev_slot, dtype=np.int64), counts)
    offs = counts.cumsum() - counts
    pos_ids = np.arange(n_events, dtype=np.int64) - np.repeat(offs, counts)
    # (seg, pos, slot) triples are unique, so one combined-key sort yields
    # the reference interleave: segments in replay order and, within one,
    # round-robin with dropout == (position, slot).
    max_pos = int(counts.max())
    order = np.argsort((seg_ids * max_pos + pos_ids) * warp_size + slot_ids)

    addr = main[:, 0][order]
    nbytes = main[:, 1][order]
    box = main[:, 3][order]
    prim = main[:, 4][order]
    pkind = main[:, 5][order]
    npf = main[:, 6]
    first_line = addr // line_bytes
    last_line = (addr + np.maximum(nbytes, 1) - 1) // line_bytes
    seg_o = seg_ids[order]
    slot_o = slot_ids[order]

    # Prefetch pairs are concatenated in the same order as ``main``'s
    # source views; a cumsum gives each record's slice into the
    # concatenated pair table.
    pf_start = (np.cumsum(npf) - npf)[order]
    npf_o = npf[order]
    pf_views = [rnd.prefetch_view() for rnd in rounds if len(rnd.pf)]
    if pf_views:
        pf_all = np.concatenate(pf_views) if len(pf_views) > 1 else pf_views[0]
        pf_addr_l = pf_all[:, 0].tolist()
        pf_nbytes_l = pf_all[:, 1].tolist()
    else:
        pf_addr_l = pf_nbytes_l = ()
    mark = _lap(profile, "decode", mark)

    # -- RT-unit / shader compute (vectorized) -------------------------
    rt_comp = (
        (box > 0) * config.box_test_cycles
        + (pkind == PRIM_TRI) * (prim / config.tri_tests_per_cycle)
        + (pkind == PRIM_SPHERE) * (prim * config.sphere_test_cycles)
        + (pkind == PRIM_TRANSFORM) * (prim * config.transform_cycles)
    )
    # Per-(segment, slot) sums, then the per-segment straggler max.
    per_slot = np.bincount(seg_o * warp_size + slot_o, weights=rt_comp,
                           minlength=n_seg * warp_size)
    seg_compute = per_slot.reshape(n_seg, warp_size).max(axis=1).tolist()
    custom = pkind == PRIM_CUSTOM
    if custom.any():
        seg_shader = np.bincount(
            seg_o[custom], weights=prim[custom] * config.custom_test_cycles,
            minlength=n_seg).tolist()
    else:
        seg_shader = [0.0] * n_seg
    mark = _lap(profile, "cost", mark)

    # -- merge window (the truly sequential state) ---------------------
    # An MSHR-like LRU window per (warp, round): whether a request merges
    # depends on the exact interleave prefix, so this walk stays a
    # (minimal) Python loop — a plain list beats a dict at the window's
    # size (8). It also resolves, per prefetch pair, whether the pair was
    # suppressed by an in-flight request.
    pf_sup = bytearray(len(pf_addr_l))
    merge_cap = config.merge_window_size
    prefetch_on = config.prefetch_enabled
    # Run compression: a request equal to its immediate predecessor (same
    # segment) is a guaranteed merge — stack distance zero — and
    # refreshing the already-most-recent window entry changes nothing, so
    # only run *heads* need the sequential walk. Warp-coherent rays fetch
    # the same node at the same traversal step, which is precisely what
    # makes these runs long.
    merged = np.zeros(n_events, dtype=bool)
    if n_events > 1 and merge_cap >= 1:
        # A zero-capacity window evicts every insert immediately, so
        # nothing ever merges — the duplicate-run shortcut below only
        # holds when the window can retain at least one entry.
        merged[1:] = (addr[1:] == addr[:-1]) & (seg_o[1:] == seg_o[:-1])
    heads = np.flatnonzero(~merged)
    head_addr_l = addr[heads].tolist()
    head_seg_l = seg_o[heads].tolist()
    n_heads = heads.shape[0]
    head_merged = bytearray(n_heads)
    if prefetch_on and len(pf_addr_l):
        # Window state is constant within a run, so a pair carried by any
        # event of run r sees the state right after r's head.
        pf_pos_arr = np.flatnonzero(npf_o)
        pf_run_l = (np.searchsorted(heads, pf_pos_arr, side="right")
                    - 1).tolist()
        pf_base = pf_start[pf_pos_arr].tolist()
        pf_cnt = npf_o[pf_pos_arr].tolist()
    else:
        pf_run_l = pf_base = pf_cnt = []
    n_pf_ev = len(pf_run_l)
    kpf = 0
    next_pf = pf_run_l[0] if n_pf_ev else -1
    window: list[int] = []
    cur_seg = -1
    for h in range(n_heads):
        sg = head_seg_l[h]
        if sg != cur_seg:
            cur_seg = sg
            window = []
        a = head_addr_l[h]
        if a in window:
            # Refresh recency: repeated hot nodes (shared BLAS) keep
            # merging for as long as they stay in flight.
            window.remove(a)
            window.append(a)
            head_merged[h] = 1
        else:
            window.append(a)
            if len(window) > merge_cap:
                del window[0]
        while h == next_pf:
            base = pf_base[kpf]
            for j in range(base, base + pf_cnt[kpf]):
                if pf_addr_l[j] in window:
                    pf_sup[j] = 1
            kpf += 1
            next_pf = pf_run_l[kpf] if kpf < n_pf_ev else -1

    if n_heads:
        merged[heads[np.frombuffer(head_merged, dtype=np.uint8) != 0]] = True
    demand_ev = ~merged
    seg_fetch = np.bincount(seg_o[demand_ev], minlength=n_seg).tolist()
    seg_merged = np.bincount(seg_o[merged], minlength=n_seg).tolist()

    # Demand lines of unmerged fetches; the footprint counts only these
    # (merged requests ride the in-flight original and touch nothing;
    # prefetch-only lines don't count).
    d_ev = np.flatnonzero(demand_ev)
    d_spans = last_line[d_ev] - first_line[d_ev] + 1
    d_lines = _expand_spans(first_line[d_ev], d_spans)
    state.footprint = _union_sorted(state.footprint, np.unique(d_lines))

    seg_mem = None
    if state.fast:
        # Prefetch pairs that actually reach the cache hierarchy, in
        # processing order (record order within each event).
        if prefetch_on and len(pf_addr_l):
            pair_ev = np.repeat(np.arange(n_events, dtype=np.int64), npf_o)
            pair_idx = _expand_spans(pf_start, npf_o)
            keep = np.frombuffer(pf_sup, dtype=np.uint8)[pair_idx] == 0
            pair_ev = pair_ev[keep]
            pa = pf_all[:, 0][pair_idx[keep]]
            pb = pf_all[:, 1][pair_idx[keep]]
            p_first = pa // line_bytes
            p_spans = (pa + np.maximum(pb, 1) - 1) // line_bytes - p_first + 1
        else:
            pair_ev = p_first = p_spans = _NO_LINES
        seg_mem = _fast_walk(state, report, config,
                             np.asarray(seg_sm, dtype=np.int64)[seg_o],
                             seg_o, n_seg, d_ev, d_spans, d_lines,
                             pair_ev, p_first, p_spans)
    if seg_mem is None:
        seg_mem = _sequential_walk(
            state, report, config, treelet_map, seg_sm, seg_o, addr,
            first_line, last_line, merged, npf_o, pf_start, pf_sup,
            pf_addr_l, pf_nbytes_l)
    _lap(profile, "tagwalk", mark)
    return seg_mem, seg_fetch, seg_merged, seg_compute, seg_shader


def _fast_walk(state: _CacheState, report: TimingReport, config: GpuConfig,
               ev_sm: np.ndarray, seg_o: np.ndarray, n_seg: int,
               d_ev: np.ndarray, d_spans: np.ndarray, d_lines: np.ndarray,
               pair_ev: np.ndarray, p_first: np.ndarray,
               p_spans: np.ndarray) -> list[float] | None:
    """The eviction-free tag walk of one chunk, fully vectorized.

    Returns the per-segment memory stall, or ``None`` — after handing the
    caches over to tag dicts — when the chunk could overflow a set.
    """
    n_sms = config.n_sms
    l1_nsets = config.l1_bytes // (config.l1_line_bytes * config.l1_ways)
    l2_nsets = config.l2_bytes // (config.l2_line_bytes * config.l2_ways)

    # -- the chunk's touch stream ---------------------------------------
    # Everything that can reach the tag arrays, in processing order:
    # demand lines of unmerged fetches, then each event's unsuppressed
    # prefetch pair lines.
    d_touch_ev = np.repeat(d_ev, d_spans)
    nd = d_lines.size
    if p_first.size:
        p_lines = _expand_spans(p_first, p_spans)
        p_touch_ev = np.repeat(pair_ev, p_spans)
        t_lines = np.concatenate([d_lines, p_lines])
        t_ev = np.concatenate([d_touch_ev, p_touch_ev])
        # Within one event, demand lines precede its prefetch lines
        # (phase bit); the stable sort keeps record order.
        tkey = t_ev * 2
        tkey[nd:] += 1
        perm = np.argsort(tkey, kind="stable")
        t_lines_o = t_lines[perm]
        t_ev_o = t_ev[perm]
        d_mask_o = perm < nd
    else:
        t_lines_o = d_lines
        t_ev_o = d_touch_ev
        d_mask_o = np.ones(nd, dtype=bool)
    n_touch = t_lines_o.shape[0]

    # One stable sort of (line, SM) gives first occurrences AND the
    # per-set distinct-line counts for the safety proof.
    key = t_lines_o * n_sms + ev_sm[t_ev_o]
    korder = np.argsort(key, kind="stable")
    sk = key[korder]
    grp = np.empty(sk.size, dtype=bool)
    grp[:1] = True
    grp[1:] = sk[1:] != sk[:-1]
    kstart = np.flatnonzero(grp)
    uk = sk[kstart]
    u_lines = uk // n_sms
    dl = np.empty(u_lines.size, dtype=bool)
    dl[:1] = True
    dl[1:] = u_lines[1:] != u_lines[:-1]
    ul = u_lines[dl]
    # Eviction-safety: a set's insertions can only come from its distinct
    # candidate universe — the lines it already holds plus this chunk's
    # (prefetch attempts are fixed by the merge flags, not by cache
    # state). When every set fits its associativity, LRU never evicts, so
    # presence reduces to "touched before" and the walk vectorizes
    # exactly. The universe only grows: a chunk that fails the proof
    # hands over to the sequential walk for good.
    key_known = _in_sorted(state.keys, uk)
    new_sets = ((uk - u_lines * n_sms) * l1_nsets
                + u_lines % l1_nsets)[~key_known]
    l1_count = state.l1_count + np.bincount(new_sets,
                                            minlength=state.l1_count.size)
    l2_count = state.l2_count + np.bincount(
        ul[~_in_sorted(state.lines, ul)] % l2_nsets, minlength=l2_nsets)
    if (int(l1_count.max()) > config.l1_ways
            or int(l2_count.max()) > config.l2_ways):
        state.materialize()
        return None
    state.l1_count, state.l2_count = l1_count, l2_count

    # L1 misses are the first touches of keys the L1 does not hold yet;
    # an L1 miss goes to DRAM iff it is the first miss of a line the L2
    # does not hold yet.
    first_pos = korder[kstart]
    is_first = np.zeros(n_touch, dtype=bool)
    is_first[first_pos[~key_known]] = True
    sel_first = np.flatnonzero(is_first)
    miss_lines = t_lines_o[sel_first]
    o2 = np.argsort(miss_lines, kind="stable")
    s2 = miss_lines[o2]
    g2 = np.empty(s2.size, dtype=bool)
    g2[:1] = True
    g2[1:] = s2[1:] != s2[:-1]
    m_lines = s2[g2]
    m_known = _in_sorted(state.lines, m_lines)
    l2_first = np.zeros(s2.size, dtype=bool)
    l2_first[o2[g2][~m_known]] = True

    report.l1_accesses += int(nd)
    report.l1_hits += int((d_mask_o & ~is_first).sum())
    report.l2_accesses += int(sel_first.size)
    report.dram_accesses += int(l2_first.sum())
    report.prefetches += int((~d_mask_o & is_first).sum())

    lat = np.full(n_touch, config.l1_latency, dtype=np.int64)
    miss_l2 = np.zeros(n_touch, dtype=bool)
    miss_l2[sel_first[l2_first]] = True
    lat[is_first] = config.l2_latency
    dram = state.dram
    if dram is None:
        lat[miss_l2] = config.dram_latency
    else:
        # Banked DRAM: only demand misses consult the row-buffer model,
        # in processing order.
        l2_lat = config.l2_latency
        l2_line_bytes = config.l2_line_bytes
        for k in np.flatnonzero(miss_l2 & d_mask_o).tolist():
            lat[k] = l2_lat + dram.access(int(t_lines_o[k]) * l2_line_bytes)

    d_idx = np.flatnonzero(d_mask_o)
    d_lat = lat[d_idx]
    dt_ev = t_ev_o[d_idx]
    starts = np.flatnonzero(np.r_[True, dt_ev[1:] != dt_ev[:-1]])
    ev_lat = np.maximum.reduceat(d_lat, starts) if d_lat.size else (
        np.empty(0, dtype=np.int64))
    report.fetch_latency_sum += int(ev_lat.sum())
    # Per-event division *before* the per-segment sum: bincount
    # accumulates weights in event order, so this reproduces the
    # reference's sequential `mem += latency / overlap` bit for bit even
    # when overlap is not a power of two.
    seg_mem = np.bincount(
        seg_o[dt_ev[starts]],
        weights=ev_lat.astype(np.float64) / float(config.warp_buffer_size),
        minlength=n_seg).tolist()

    # -- carry the caches forward ---------------------------------------
    # L1 recency: a demand touch promotes its line and an insert places
    # it at MRU, but a prefetch touch of a held line does not promote —
    # so a line's recency is the later of its last demand touch and its
    # insert. L2 recency is the line's last L1 miss.
    base = state.touched
    last_demand = np.maximum.reduceat(
        np.where(d_mask_o[korder], korder, -1), kstart)
    rec = np.maximum(last_demand, np.where(key_known, -1, first_pos)) + base
    known_rec = rec[key_known]
    moved = known_rec >= base
    at = np.searchsorted(state.keys, uk[key_known])
    state.key_rec[at[moved]] = known_rec[moved]
    at = np.searchsorted(state.keys, uk[~key_known])
    state.keys = np.insert(state.keys, at, uk[~key_known])
    state.key_rec = np.insert(state.key_rec, at, rec[~key_known])
    g2_last = np.empty(s2.size, dtype=bool)
    g2_last[:-1] = g2[1:]
    g2_last[-1:] = True
    last_miss = sel_first[o2[g2_last]] + base
    at = np.searchsorted(state.lines, m_lines[m_known])
    state.line_rec[at] = last_miss[m_known]
    at = np.searchsorted(state.lines, m_lines[~m_known])
    state.lines = np.insert(state.lines, at, m_lines[~m_known])
    state.line_rec = np.insert(state.line_rec, at, last_miss[~m_known])
    state.touched = base + n_touch
    return seg_mem


def _sequential_walk(state: _CacheState, report: TimingReport,
                     config: GpuConfig, treelet_map, seg_sm: list[int],
                     seg_o: np.ndarray, addr: np.ndarray,
                     first_line: np.ndarray, last_line: np.ndarray,
                     merged: np.ndarray, npf_o: np.ndarray,
                     pf_start: np.ndarray, pf_sup: bytearray, pf_addr_l,
                     pf_nbytes_l) -> list[float]:
    """The exact LRU tag walk of one chunk, one event at a time, on the
    carried tag dicts. Returns the per-segment memory stall."""
    addr_l = addr.tolist()
    fl_l = first_line.tolist()
    ll_l = last_line.tolist()
    npf_l = npf_o.tolist()
    pfs_l = pf_start.tolist()
    seg_l = seg_o.tolist()
    merged_l = merged.tolist()
    sup_l = pf_sup
    l1_states = state.l1_states
    l2_sets, l2_nsets, l2_ways = state.l2_state
    dram = state.dram
    prefetch_on = config.prefetch_enabled
    line_bytes = config.l1_line_bytes
    l2_line_bytes = config.l2_line_bytes
    l1_lat = config.l1_latency
    l2_lat = config.l2_latency
    dram_lat = config.dram_latency
    overlap = float(config.warp_buffer_size)

    seg_mem = [0.0] * len(seg_sm)
    cur_seg = -1
    l1_sets: list = []
    l1_nsets = l1_ways = 1
    mem = 0.0
    lat_total = 0
    l1_acc = l1_hit = l2_acc = dram_acc = pref = 0

    for i in range(len(addr_l)):
        seg = seg_l[i]
        if seg != cur_seg:
            if cur_seg >= 0:
                seg_mem[cur_seg] = mem
            cur_seg = seg
            l1_sets, l1_nsets, l1_ways = l1_states[seg_sm[seg]]
            mem = 0.0
        if merged_l[i]:
            pass
        else:
            a = addr_l[i]
            latency = 0
            for line in range(fl_l[i], ll_l[i] + 1):
                l1_acc += 1
                s = l1_sets[line % l1_nsets]
                if line in s:
                    l1_hit += 1
                    del s[line]
                    s[line] = None
                    if latency < l1_lat:
                        latency = l1_lat
                else:
                    s[line] = None
                    if len(s) > l1_ways:
                        del s[next(iter(s))]
                    l2_acc += 1
                    s2 = l2_sets[line % l2_nsets]
                    if line in s2:
                        del s2[line]
                        s2[line] = None
                        if latency < l2_lat:
                            latency = l2_lat
                    else:
                        s2[line] = None
                        if len(s2) > l2_ways:
                            del s2[next(iter(s2))]
                        dram_acc += 1
                        if dram is not None:
                            banked = l2_lat + dram.access(
                                line * l2_line_bytes)
                            if latency < banked:
                                latency = banked
                        elif latency < dram_lat:
                            latency = dram_lat
            lat_total += latency
            mem += latency / overlap

            if treelet_map is not None and latency > l1_lat:
                # Treelet prefetch triggers on demand misses of treelet
                # roots; lines fill the L1 off the critical path.
                for pf_a, pf_b in treelet_map.get(a, ()):
                    last = (pf_a + (pf_b if pf_b > 1 else 1)
                            - 1) // line_bytes
                    for line in range(pf_a // line_bytes, last + 1):
                        s = l1_sets[line % l1_nsets]
                        if line in s:
                            continue
                        pref += 1
                        l2_acc += 1
                        s2 = l2_sets[line % l2_nsets]
                        if line in s2:
                            del s2[line]
                            s2[line] = None
                        else:
                            s2[line] = None
                            if len(s2) > l2_ways:
                                del s2[next(iter(s2))]
                            dram_acc += 1
                            if dram is not None:
                                dram.access(line * l2_line_bytes)
                        s[line] = None
                        if len(s) > l1_ways:
                            del s[next(iter(s))]

        # Sibling prefetch is staged for merged requests too: the
        # in-flight original carries the same child list.
        if prefetch_on and npf_l[i]:
            base = pfs_l[i]
            for j in range(base, base + npf_l[i]):
                if sup_l[j]:
                    continue
                pa = pf_addr_l[j]
                pb = pf_nbytes_l[j]
                last = (pa + (pb if pb > 1 else 1) - 1) // line_bytes
                for line in range(pa // line_bytes, last + 1):
                    s = l1_sets[line % l1_nsets]
                    if line in s:
                        continue
                    pref += 1
                    l2_acc += 1
                    s2 = l2_sets[line % l2_nsets]
                    if line in s2:
                        del s2[line]
                        s2[line] = None
                    else:
                        s2[line] = None
                        if len(s2) > l2_ways:
                            del s2[next(iter(s2))]
                        dram_acc += 1
                    s[line] = None
                    if len(s) > l1_ways:
                        del s[next(iter(s))]

    if cur_seg >= 0:
        seg_mem[cur_seg] = mem

    report.l1_accesses += l1_acc
    report.l1_hits += l1_hit
    report.l2_accesses += l2_acc
    report.dram_accesses += dram_acc
    report.prefetches += pref
    report.fetch_latency_sum += lat_total
    return seg_mem


def replay_reference(
    traces: list[RayTrace],
    config: GpuConfig | None = None,
    kbuffer_layout: str = "soa",
    treelet_map: dict[int, list[tuple[int, int]]] | None = None,
) -> TimingReport:
    """The original per-event replay loop, kept as the golden model.

    :func:`replay` must produce the same :class:`TimingReport` (the test
    suite compares them field by field on real renders); this version is
    the readable specification and the baseline the replay benchmark
    measures the batched implementation against.
    """
    config = config or GpuConfig()
    kbuf_cycles = _kbuffer_cycles(config, kbuffer_layout)
    report = TimingReport()
    if not traces:
        return report

    warps, l1s, l2, dram, sm_of_warp = _replay_setup(traces, config)
    n_sms = config.n_sms
    sm_cycles = [0.0] * n_sms
    label_cycles: dict[str, float] = {"primary": 0.0, "secondary": 0.0}
    overlap = float(config.warp_buffer_size)

    max_rounds = max((t.n_rounds for t in traces), default=0)
    report.rounds_total = sum(t.n_rounds for t in traces)
    touched_lines: set[int] = set()

    for round_index in range(max_rounds):
        for warp_index, warp in enumerate(warps):
            sm = sm_of_warp[warp_index]
            l1 = l1s[sm]
            rays = [t for t in warp if round_index < t.n_rounds]
            if not rays:
                continue
            cost = _WarpRoundCost(len(rays))
            # Bounded LRU merge window (MSHR-like request coalescing).
            merge_window: dict[int, None] = {}
            merge_cap = config.merge_window_size

            iters = [ray.rounds[round_index].iter_events() for ray in rays]
            active = list(range(len(rays)))
            while active:
                still_active = []
                for ray_slot in active:
                    event = next(iters[ray_slot], None)
                    if event is None:
                        continue
                    still_active.append(ray_slot)
                    addr, nbytes, _kind, box, prim, prim_kind, prefetch = event

                    # -- memory ------------------------------------------
                    if addr in merge_window:
                        # Refresh recency: repeated hot nodes (shared BLAS)
                        # keep merging for as long as they stay in flight.
                        del merge_window[addr]
                        merge_window[addr] = None
                        report.merged_requests += 1
                        cost.issue += config.merged_issue_cycles
                    else:
                        merge_window[addr] = None
                        if len(merge_window) > merge_cap:
                            del merge_window[next(iter(merge_window))]
                        report.node_fetches += 1
                        cost.issue += config.issue_cycles + config.shader_issued_fetch_cycles
                        latency = 0
                        for line in l1.lines_of(addr, nbytes):
                            touched_lines.add(line)
                            report.l1_accesses += 1
                            if l1.access(line):
                                report.l1_hits += 1
                                latency = max(latency, config.l1_latency)
                            else:
                                report.l2_accesses += 1
                                if l2.access(line):
                                    latency = max(latency, config.l2_latency)
                                else:
                                    report.dram_accesses += 1
                                    if dram is not None:
                                        dram_lat = dram.access(line * config.l2_line_bytes)
                                        latency = max(latency, config.l2_latency + dram_lat)
                                    else:
                                        latency = max(latency, config.dram_latency)
                        report.fetch_latency_sum += latency
                        cost.mem += latency / overlap

                        if treelet_map is not None and latency > config.l1_latency:
                            # Treelet prefetch triggers on demand misses of
                            # treelet roots; lines fill the L1 off the
                            # critical path.
                            for pf_addr, pf_bytes in treelet_map.get(addr, ()):
                                for line in l1.lines_of(pf_addr, pf_bytes):
                                    if l1.contains(line):
                                        continue
                                    report.prefetches += 1
                                    report.l2_accesses += 1
                                    if not l2.access(line):
                                        report.dram_accesses += 1
                                        if dram is not None:
                                            dram.access(line * config.l2_line_bytes)
                                    l1.fill(line)

                    if config.prefetch_enabled and prefetch:
                        for pf_addr, pf_bytes in prefetch:
                            if pf_addr in merge_window:
                                continue
                            for line in l1.lines_of(pf_addr, pf_bytes):
                                if l1.contains(line):
                                    continue
                                report.prefetches += 1
                                report.l2_accesses += 1
                                if not l2.access(line):
                                    report.dram_accesses += 1
                                l1.fill(line)

                    # -- compute -----------------------------------------
                    rt_compute = 0.0
                    if box:
                        rt_compute += config.box_test_cycles
                    if prim:
                        if prim_kind == PRIM_TRI:
                            rt_compute += prim / config.tri_tests_per_cycle
                        elif prim_kind == PRIM_SPHERE:
                            rt_compute += prim * config.sphere_test_cycles
                        elif prim_kind == PRIM_TRANSFORM:
                            rt_compute += prim * config.transform_cycles
                        elif prim_kind == PRIM_CUSTOM:
                            cost.shader += prim * config.custom_test_cycles
                    cost.ray_compute[ray_slot] += rt_compute
                active = still_active

            # Shader work recorded per round (any-hit sorting + blending).
            sorting = 0.0
            blending = 0.0
            for ray in rays:
                rt_round = ray.rounds[round_index]
                sorting += (
                    rt_round.anyhit_calls * config.anyhit_base_cycles
                    + rt_round.kbuffer_ops * kbuf_cycles
                )
                blending += rt_round.blended * config.blend_cycles

            traversal = (
                cost.mem
                + cost.issue
                + max(cost.ray_compute)
                + cost.shader / config.shader_parallelism
                + config.round_overhead_cycles / overlap
            )
            sorting /= config.shader_parallelism
            blending /= config.shader_parallelism
            warp_cycles = traversal + sorting + blending

            sm_cycles[sm] += warp_cycles
            label_cycles[warp[0].label] += warp_cycles
            report.traversal_cycles += traversal
            report.sorting_cycles += sorting
            report.blending_cycles += blending

    report.footprint_bytes = len(touched_lines) * config.l1_line_bytes
    if dram is not None:
        report.dram_row_hit_rate = dram.stats.row_hit_rate
    report.sm_cycles = sm_cycles
    report.cycles = max(sm_cycles)
    report.time_ms = config.cycles_to_ms(report.cycles)
    report.label_cycles = label_cycles
    return report


def raster_cycles(result: RasterResult, config: GpuConfig | None = None) -> float:
    """Cost model for the 3DGS rasterizer on the same GPU (Figure 4a).

    Rasterization is compute-bound and embarrassingly parallel: per-splat
    preprocessing, the global radix sort, and per (Gaussian, pixel) blend
    work all scale across the SIMT lanes.
    """
    config = config or GpuConfig()
    work = (
        result.preprocess_ops * config.raster_preprocess_cycles
        + result.pair_ops * config.raster_pair_cycles
        + result.sort_ops * config.raster_sort_op_cycles
    )
    return work / (config.raster_parallelism * config.n_sms)
