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
and tag-walked before the next is read, so replay's transient memory
follows the chunk, not the frame. The round-robin interleave order,
per-event line spans and RT-unit compute costs are derived with numpy.
The inherently sequential part, the MSHR-like merge window and the LRU
tag walk (whose state feeds back into what the next event sees), is one
exact C kernel (``lru_walk.c``, built and loaded by :mod:`repro.native`;
without a C compiler replay raises
:class:`~repro.native.NativeUnavailable`). It returns each event's
merged flag and integer latency plus the DRAM accesses in processing
order; Python runs the banked DRAM model over those and sums the
per-segment stalls. Merge windows and per-segment sums reset at segment
boundaries; only the caches, the DRAM model and the demand footprint
cross a chunk edge. The original one-event-at-a-time implementation is
the test suite's oracle (``tests/replay_oracle.py``).
"""

from __future__ import annotations

import ctypes
import time
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from repro.hwsim.config import GpuConfig
from repro.hwsim.dram import DramModel
from repro.native import kernel, ptr as _ptr
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


def _expand_spans(first: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """``[first_i, first_i + spans_i)`` for every i, concatenated."""
    total = int(spans.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offs = np.repeat(spans.cumsum() - spans, spans)
    return np.repeat(first, spans) + np.arange(total, dtype=np.int64) - offs


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


_I64P = ctypes.POINTER(ctypes.c_int64)


class Lru(ctypes.Structure):
    """``lru_t``: one cache level's LRU sets, each in recency order."""

    _fields_ = [("tag", _I64P), ("fill", _I64P),
                ("sets", ctypes.c_int64), ("ways", ctypes.c_int64)]


class Walk(ctypes.Structure):
    """``walk_t``: carried cache state, counters and one chunk's arrays."""

    _fields_ = (
        [("l1", Lru), ("l2", Lru)]
        + [(name, ctypes.c_int64) for name in (
            "l1_accesses", "l1_hits", "l2_accesses",
            "dram_accesses", "prefetches", "line_bytes", "l1_lat", "l2_lat",
            "dram_lat", "merge_cap", "prefetch", "n_roots")]
        + [(name, _I64P) for name in (
            "root", "root_off", "tl_first", "tl_last")]
        + [("n_events", ctypes.c_int64)]
        + [(name, _I64P) for name in (
            "seg", "seg_sm", "addr", "first", "last", "npf", "pf_start",
            "pf_addr", "pf_nbytes", "window")]
        + [("merged", ctypes.POINTER(ctypes.c_uint8))]
        + [(name, _I64P) for name in ("lat", "dram_line", "dram_ev")]
        + [("n_dram", ctypes.c_int64)]
    )


def _lap(profile: PhaseAccumulator, phase: str, mark: float) -> float:
    """Charge the time since ``mark`` to ``phase``; returns the new mark."""
    now = time.perf_counter()
    profile.add(phase, now - mark)
    return now


class _CacheState:
    """Cache, DRAM and footprint state carried from one chunk to the next.

    The compiled walk's record (:class:`Walk`) points into the
    cache tag arrays held here and keeps the cache counters; the banked
    :class:`DramModel` and the sorted demand footprint stay in Python.
    """

    def __init__(self, walk_fn, config: GpuConfig, treelet_map) -> None:
        self.walk_fn = walk_fn
        self.dram = DramModel() if config.dram_model == "banked" else None
        #: Sorted lines with at least one demand touch.
        self.footprint = np.empty(0, dtype=np.int64)
        self.l2_line_bytes = config.l2_line_bytes
        self.l2_latency = config.l2_latency
        walk = self.walk = Walk()
        self._arrays = []
        # One set array per SM for the L1s, one for the shared L2.
        for lru, copies, size, line, ways in (
                (walk.l1, config.n_sms, config.l1_bytes,
                 config.l1_line_bytes, config.l1_ways),
                (walk.l2, 1, config.l2_bytes, config.l2_line_bytes,
                 config.l2_ways)):
            lru.sets, lru.ways = size // (line * ways), ways
            tag = np.empty(copies * lru.sets * ways, dtype=np.int64)
            fill = np.zeros(copies * lru.sets, dtype=np.int64)
            self._arrays += [tag, fill]
            lru.tag, lru.fill = _ptr(tag), _ptr(fill)
        walk.line_bytes = config.l1_line_bytes
        walk.l1_lat = config.l1_latency
        walk.l2_lat = config.l2_latency
        # A banked access costs at least a row-buffer hit: the kernel
        # charges that floor, which decides the treelet trigger the same
        # way as the final latency Python charges from the DRAM model.
        walk.dram_lat = (config.dram_latency if self.dram is None else
                         config.l2_latency + self.dram.timings.row_hit_latency)
        walk.merge_cap = config.merge_window_size
        walk.prefetch = config.prefetch_enabled
        self.window = np.empty(max(config.merge_window_size, 1),
                               dtype=np.int64)
        walk.window = _ptr(self.window)
        # treelet_map as CSR over its sorted roots, pairs as line ranges.
        self.roots = self.root_lines = np.empty(0, dtype=np.int64)
        if treelet_map:
            roots = sorted(treelet_map)
            pairs = np.array([pair for root in roots
                              for pair in treelet_map[root]],
                             dtype=np.int64).reshape(-1, 2)
            counts = [len(treelet_map[root]) for root in roots]
            first = pairs[:, 0] // config.l1_line_bytes
            last = ((pairs[:, 0] + np.maximum(pairs[:, 1], 1) - 1)
                    // config.l1_line_bytes)
            root = np.array(roots, dtype=np.int64)
            off = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            self._arrays += [root, off, first, last]
            walk.n_roots = len(roots)
            walk.root, walk.root_off = _ptr(root), _ptr(off)
            walk.tl_first, walk.tl_last = _ptr(first), _ptr(last)
            # Lines one trigger of each root can stage (a DRAM-list bound).
            self.roots = root
            spans = np.concatenate([[0], np.cumsum(last - first + 1)])
            self.root_lines = spans[off[1:]] - spans[off[:-1]]

    def walk_chunk(self, seg_o: np.ndarray, seg_sm: np.ndarray,
                   addr: np.ndarray, first_line: np.ndarray,
                   last_line: np.ndarray, npf: np.ndarray,
                   pf_start: np.ndarray, pf_addr: np.ndarray,
                   pf_nbytes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Run the compiled walk over one chunk; returns each event's
        merged flag and latency, banked DRAM latency included."""
        n_events = addr.shape[0]
        merged = np.empty(n_events, dtype=np.uint8)
        lat = np.empty(n_events, dtype=np.int64)
        walk = self.walk
        walk.n_events = n_events
        walk.seg, walk.seg_sm, walk.addr = _ptr(seg_o), _ptr(seg_sm), _ptr(addr)
        walk.first, walk.last = _ptr(first_line), _ptr(last_line)
        walk.npf, walk.pf_start = _ptr(npf), _ptr(pf_start)
        walk.pf_addr, walk.pf_nbytes = _ptr(pf_addr), _ptr(pf_nbytes)
        walk.merged = _ptr(merged, ctypes.c_uint8)
        walk.lat = _ptr(lat)
        dram = self.dram
        if dram is not None:
            # Every demand line can miss, and so can every line a
            # triggered treelet stages.
            bound = int((last_line - first_line + 1).sum())
            if self.root_lines.size:
                at = np.minimum(np.searchsorted(self.roots, addr),
                                self.roots.size - 1)
                bound += int(self.root_lines[at][self.roots[at] == addr].sum())
            dram_line = np.empty(bound, dtype=np.int64)
            dram_ev = np.empty(bound, dtype=np.int64)
            walk.dram_line, walk.dram_ev = _ptr(dram_line), _ptr(dram_ev)
        n_dram = self.walk_fn(ctypes.byref(walk))
        if dram is not None and n_dram:
            # The DRAM model sees every access in processing order; only a
            # demand miss raises its event's latency.
            cost = np.array([dram.access(line * self.l2_line_bytes)
                             for line in dram_line[:n_dram].tolist()],
                            dtype=np.int64)
            ev = dram_ev[:n_dram]
            on = ev >= 0
            np.maximum.at(lat, ev[on], self.l2_latency + cost[on])
        return merged.view(bool), lat


def replay(
    traces: list[RayTrace],
    config: GpuConfig | None = None,
    kbuffer_layout: str = "soa",
    treelet_map: dict[int, list[tuple[int, int]]] | None = None,
) -> TimingReport:
    """Replay recorded traces through the timing model (batched).

    Semantically identical to the per-event oracle
    (``tests/replay_oracle.py``) — the test suite pins the two together
    on real renders and generated traces — but the (round, warp)
    segments are streamed in chunks of whole segments, each decoded,
    interleaved and costed as numpy batches, with the merge window and
    cache tag walk in the compiled kernel. Raises
    :class:`~repro.native.NativeUnavailable` without a C compiler.

    ``treelet_map`` (from :func:`repro.hwsim.treelet.build_treelet_map`)
    enables treelet prefetching: on a demand miss whose address roots a
    treelet, the treelet's lines are staged into the L1 without stalling
    the ray.
    """
    config = config or GpuConfig()
    kbuf_cycles = _kbuffer_cycles(config, kbuffer_layout)
    report = TimingReport()
    # Each cache level must split into whole sets.
    for size, line, ways in ((config.l1_bytes, config.l1_line_bytes,
                              config.l1_ways),
                             (config.l2_bytes, config.l2_line_bytes,
                              config.l2_ways)):
        if size % (line * ways) != 0:
            raise ValueError("cache size must be a multiple of line_bytes * ways")
    if not traces:
        return report

    started_ns = time.time_ns()
    walk_fn = kernel("repro.hwsim", "lru_walk.c", Walk)

    # Per-phase wall time, accumulated over the chunks and flushed into
    # the replay.phase.* histograms once: decode (trace decode + global
    # interleave), cost (RT-unit/shader compute + cycle assembly), tagwalk
    # (the compiled merge window + cache tag walk, and the DRAM model).
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
    state = _CacheState(walk_fn, config, treelet_map)
    n_chunks = 0
    mark = _lap(profile, "decode", mark)
    for s0, s1 in _chunk_bounds(seg_events):
        v0, v1 = bisect_left(ev_seg, s0), bisect_left(ev_seg, s1)
        (seg_mem[s0:s1], seg_fetch[s0:s1], seg_merged[s0:s1],
         seg_compute[s0:s1], seg_shader[s0:s1]) = _replay_chunk(
            state, report, profile, config, ev_rounds[v0:v1],
            [seg - s0 for seg in ev_seg[v0:v1]], ev_slot[v0:v1],
            seg_sm[s0:s1])
        n_chunks += 1
    mark = time.perf_counter()
    report.node_fetches = sum(seg_fetch)
    report.merged_requests = sum(seg_merged)
    walk = state.walk
    report.l1_accesses = walk.l1_accesses
    report.l1_hits = walk.l1_hits
    report.l2_accesses = walk.l2_accesses
    report.dram_accesses = walk.dram_accesses
    report.prefetches = walk.prefetches

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
              events=sum(seg_events), chunks=n_chunks, kernel="c")
    return report


def _replay_chunk(state: _CacheState, report: TimingReport,
                  profile: PhaseAccumulator, config: GpuConfig, rounds: list,
                  ev_seg: list[int], ev_slot: list[int],
                  seg_sm: list[int]) -> tuple:
    """Decode, cost and tag-walk one chunk of whole segments.

    ``rounds`` are the chunk's per-ray rounds that carry events, in
    segment order, with their chunk-local segment (``ev_seg``) and warp
    slot (``ev_slot``); ``seg_sm`` is each chunk segment's SM. Returns
    the per-segment ``(mem, fetches, merged, rt_compute, shader)`` lists.
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
    pf_all = (np.concatenate(pf_views) if pf_views
              else np.empty((0, 2), dtype=np.int64))
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

    # -- merge window + cache tag walk (compiled) ----------------------
    merged, lat = state.walk_chunk(
        seg_o, np.asarray(seg_sm, dtype=np.int64), addr, first_line,
        last_line, npf_o, pf_start, np.ascontiguousarray(pf_all[:, 0]),
        np.ascontiguousarray(pf_all[:, 1]))
    demand = ~merged
    seg_fetch = np.bincount(seg_o[demand], minlength=n_seg).tolist()
    seg_merged = np.bincount(seg_o[merged], minlength=n_seg).tolist()
    # The footprint counts demand lines of unmerged fetches only (merged
    # requests ride the in-flight original; prefetch-only lines don't
    # count).
    d_ev = np.flatnonzero(demand)
    state.footprint = np.union1d(state.footprint, _expand_spans(
        first_line[d_ev], last_line[d_ev] - first_line[d_ev] + 1))
    report.fetch_latency_sum += int(lat.sum())
    # Per-event division *before* the per-segment sum: bincount
    # accumulates weights in event order (a merged event adds 0.0), so
    # this reproduces the reference's sequential `mem += latency /
    # overlap` bit for bit even when overlap is not a power of two.
    seg_mem = np.bincount(seg_o, weights=lat / float(config.warp_buffer_size),
                          minlength=n_seg).tolist()
    _lap(profile, "tagwalk", mark)
    return seg_mem, seg_fetch, seg_merged, seg_compute, seg_shader


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
