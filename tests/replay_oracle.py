"""The per-event replay loop, kept as the oracle of the batched replay.

:func:`repro.hwsim.replay` streams (round, warp) segments in chunks and
runs the merge window and cache tag walk in a compiled kernel.
:func:`replay_reference` below is the original one-event-at-a-time
implementation of the same model, unchanged: the readable specification
that ``tests/test_tracerecord.py``, ``tests/test_differential.py`` and
``tests/test_lru_kernel.py`` hold :func:`~repro.hwsim.replay` equal to
field for field, and the baseline ``benchmarks/bench_replay.py``
measures the batched replay's speedup against.
"""

from __future__ import annotations

from repro.hwsim.config import GpuConfig
from repro.hwsim.dram import DramModel
from repro.hwsim.replay import TimingReport, _group_warps, _kbuffer_cycles
from repro.rt.recorder import (
    PRIM_CUSTOM,
    PRIM_SPHERE,
    PRIM_TRANSFORM,
    PRIM_TRI,
    RayTrace,
)

from tests.cache_oracle import SetAssociativeCache


class _WarpRoundCost:
    """Accumulates the cost of one (warp, round)."""

    __slots__ = ("mem", "issue", "ray_compute", "shader")

    def __init__(self, n_rays: int) -> None:
        self.mem = 0.0
        self.issue = 0.0
        self.ray_compute = [0.0] * n_rays
        self.shader = 0.0


def _replay_setup(traces, config):
    """The reference's warps, caches, DRAM model and SM assignment."""
    warps = _group_warps(traces, config.warp_size)
    l1s = [
        SetAssociativeCache(config.l1_bytes, config.l1_line_bytes, config.l1_ways, f"l1-{i}")
        for i in range(config.n_sms)
    ]
    l2 = SetAssociativeCache(config.l2_bytes, config.l2_line_bytes, config.l2_ways, "l2")
    dram = DramModel() if config.dram_model == "banked" else None
    sm_of_warp = [w % config.n_sms for w in range(len(warps))]
    return warps, l1s, l2, dram, sm_of_warp


def replay_reference(
    traces: list[RayTrace],
    config: GpuConfig | None = None,
    kbuffer_layout: str = "soa",
    treelet_map: dict[int, list[tuple[int, int]]] | None = None,
) -> TimingReport:
    """The original per-event replay loop: the same
    :class:`~repro.hwsim.replay.TimingReport` as
    :func:`repro.hwsim.replay`, one event at a time."""
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
