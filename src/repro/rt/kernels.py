"""Shared vectorized kernels of the batched tracing engine.

Everything in :mod:`repro.rt.wavefront` that touches geometry or color
— leaf candidate expansion, masked Möller–Trumbore, world→object ray
transforms, the sphere-BLAS root-box test, the canonical any-hit
evaluation and the front-to-back blend — lives here.  The trace
recorder (:mod:`repro.rt.tracerecord`) shares all of it except the
triangle-leaf stage: it intersects triangle leaves in ``leaf_hits.c``,
which repeats :func:`entering_hits`' arithmetic in C.  Two tests hold
the two paths together: ``test_recorded_result_matches_plain_packet``
(recorded and plain renders bit-identical) and ``tests/test_leaf_hits.py``
(the C leaf hits equal :func:`entering_hits` plus its numpy reductions).

Every kernel is elementwise over its batch (no cross-element reductions
except the documented sorted ones), which is what makes the engine
bit-identical to itself however rays are batched, and within 1e-9 of
the per-ray scalar oracle (``tests/scalar_oracle.py``) regardless of how candidates were ordered: IEEE float
ops are deterministic per element, and the blend stage re-sorts
candidates by the fully determining key ``(ray, t, gid)`` before any
order-sensitive accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bvh.node import FlatBVH
from repro.gaussians.sh import sh_basis
from repro.rt.shading import ALPHA_MAX, ALPHA_MIN

_INF = float("inf")


@dataclass
class PacketResult:
    """Per-ray outcome arrays for one traced packet.

    ``colors`` is aligned with the input ray order.  ``rounds`` is the
    scalar multiround tracer's round count for the blended hits (1 for
    singleround); with checkpointing the scalar may stop one round
    earlier, so there it is a work measure, not a parity-matched count.
    """

    colors: np.ndarray
    transmittance: np.ndarray
    blended: np.ndarray
    terminated: np.ndarray
    rounds: np.ndarray
    #: Candidate (ray, gaussian) pairs that passed the canonical
    #: any-hit evaluation (each pair evaluated exactly once).
    anyhit_calls: int = 0
    #: Candidate pairs rejected by the canonical evaluation (proxy
    #: false positives, negligible alpha, entry behind the origin).
    false_positives: int = 0
    #: Per-ray ``(gaussian_id, alpha, t)`` blend lists in blend order,
    #: populated when ``TraceConfig.record_blended`` is set — the same
    #: lists the scalar oracle's ``RayOutcome.blend_records`` carries
    #: (the popping and predictor ablations consume them).
    blend_records: list[list[tuple[int, float, float]]] | None = None

    @property
    def n_rays(self) -> int:
        return self.colors.shape[0]

    @classmethod
    def concatenate(cls, parts: list["PacketResult"],
                    record_blended: bool) -> "PacketResult":
        """Merge chunked results back into one, in chunk order (shared
        by the plain and recorded tracing paths, so a new field cannot
        be merged in one and dropped in the other)."""
        records = None
        if record_blended:
            records = []
            for p in parts:
                records.extend(p.blend_records or [])
        return cls(
            colors=np.concatenate([p.colors for p in parts]),
            transmittance=np.concatenate([p.transmittance for p in parts]),
            blended=np.concatenate([p.blended for p in parts]),
            terminated=np.concatenate([p.terminated for p in parts]),
            rounds=np.concatenate([p.rounds for p in parts]),
            anyhit_calls=sum(p.anyhit_calls for p in parts),
            false_positives=sum(p.false_positives for p in parts),
            blend_records=records,
        )


class Level:
    """Contiguous traversal arrays for one flattened BVH level.

    ``boxes`` is an axis-major ``(6, n_nodes, width)`` copy of the child
    boxes: plane ``2a``/``2a+1`` holds axis ``a``'s lo/hi as its own
    contiguous ``(n_nodes, width)`` table, so the wavefront slab test's
    per-axis gathers produce contiguous outputs the in-place ufuncs run
    fastest on.
    """

    __slots__ = ("boxes", "child_kind", "child_ref", "leaf_start",
                 "leaf_count")

    def __init__(self, bvh: FlatBVH) -> None:
        n, width, _ = bvh.child_lo.shape
        self.boxes = np.empty((6, n, width))
        for a in range(3):
            self.boxes[2 * a] = bvh.child_lo[:, :, a]
            self.boxes[2 * a + 1] = bvh.child_hi[:, :, a]
        self.child_kind = bvh.child_kind
        self.child_ref = bvh.child_ref
        self.leaf_start = bvh.leaf_start
        self.leaf_count = bvh.leaf_count


def empty_result(n: int, record_blended: bool) -> PacketResult:
    """A zero-hit result for ``n`` rays."""
    return PacketResult(
        colors=np.zeros((n, 3)),
        transmittance=np.ones(n),
        blended=np.zeros(n, dtype=np.int64),
        terminated=np.zeros(n, dtype=bool),
        rounds=np.ones(n, dtype=np.int64),
        blend_records=([[] for _ in range(n)] if record_blended else None),
    )


def expand_pairs(
    level: Level, l_rays: np.ndarray, l_refs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expand accepted ``(ray, leaf)`` pairs into ``(ray,
    ordered-primitive)`` candidate pairs in one shot.

    ``np.repeat`` by per-leaf counts plus an offset ramp derived from
    the counts' prefix sum; ``np.repeat(l_refs, counts)`` is the
    matching leaf column.
    """
    empty = np.empty(0, dtype=np.int64)
    if l_rays.size == 0:
        return empty, empty
    counts = level.leaf_count[l_refs].astype(np.int64)
    starts = level.leaf_start[l_refs].astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return empty, empty
    rp = np.repeat(l_rays, counts)
    ends = np.cumsum(counts)
    offsets = (np.arange(total, dtype=np.int64)
               - np.repeat(ends - counts, counts))
    pp = np.repeat(starts, counts) + offsets
    return rp, pp


def entering_hits(
    op: np.ndarray,
    dp: np.ndarray,
    tp: np.ndarray,
    v0_arr: np.ndarray,
    e1_arr: np.ndarray,
    e2_arr: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Masked Möller–Trumbore over (ray, triangle) candidate pairs.

    ``op``/``dp`` are the per-pair ray origins and directions (world
    space for monolithic leaves, object space for a shared-BLAS
    bundle); ``tp`` indexes the leaf-ordered triangle tables.
    Returns ``(sel, t)``: indices into the input pair arrays with a
    backface-culled entering hit in front of the origin, and their
    hit distances — expression-for-expression the scalar loops'
    arithmetic.
    """
    e2 = e2_arr[tp]
    pv = np.cross(dp, e2)
    e1 = e1_arr[tp]
    det = e1[:, 0] * pv[:, 0] + e1[:, 1] * pv[:, 1] + e1[:, 2] * pv[:, 2]
    # Entering (backface-culled) hits only, as in the scalar loop.
    front = np.nonzero(det <= -1e-12)[0]
    dp, e2, pv, det = dp[front], e2[front], pv[front], det[front]
    e1 = e1[front]

    inv_det = 1.0 / det
    tv = op[front] - v0_arr[tp[front]]
    u = (tv[:, 0] * pv[:, 0] + tv[:, 1] * pv[:, 1]
         + tv[:, 2] * pv[:, 2]) * inv_det
    qv = np.cross(tv, e1)
    v = (dp[:, 0] * qv[:, 0] + dp[:, 1] * qv[:, 1]
         + dp[:, 2] * qv[:, 2]) * inv_det
    t = (e2[:, 0] * qv[:, 0] + e2[:, 1] * qv[:, 1]
         + e2[:, 2] * qv[:, 2]) * inv_det
    keep = (u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (u + v <= 1.0) & (t > 0.0)
    return front[keep], t[keep]


def to_object_space(lin, off, oc, dc):
    """Per-pair world->object ray transform (row-expanded 3x3
    matvec, same accumulation order as the scalar ``linear @ vec``)."""
    o2 = np.empty_like(oc)
    d2 = np.empty_like(dc)
    for axis in range(3):
        o2[:, axis] = (lin[:, axis, 0] * oc[:, 0]
                       + lin[:, axis, 1] * oc[:, 1]
                       + lin[:, axis, 2] * oc[:, 2]) + off[:, axis]
        d2[:, axis] = (lin[:, axis, 0] * dc[:, 0]
                       + lin[:, axis, 1] * dc[:, 1]
                       + lin[:, axis, 2] * dc[:, 2])
    return o2, d2


def box_slab(lo, hi, o2, d2):
    """Slab test of one box against per-pair rays (the shared mesh
    BLAS's root box): ``(tn, tf, inv_d2)`` with the scalar tracer's
    degenerate-direction guard."""
    safe = np.where(np.abs(d2) < 1e-12, 1e-12, d2)
    inv_d2 = 1.0 / safe
    t0 = (lo[None, :] - o2) * inv_d2
    t1 = (hi[None, :] - o2) * inv_d2
    return (np.minimum(t0, t1).max(axis=1), np.maximum(t0, t1).min(axis=1),
            inv_d2)


def unit_box_slab(o2, d2):
    """Slab test of the sphere BLAS root record, the unit box: ``(tn,
    tf)`` — the scalar instance path's one box test, vectorized (same
    exact-zero direction guard)."""
    safe = np.where(d2 == 0.0, 1e-12, d2)  # repro: lint-ok[float-eq] exact-zero guard mirrors the scalar oracle's slab divide bit-for-bit
    t0 = (-1.0 - o2) / safe
    t1 = (1.0 - o2) / safe
    return np.minimum(t0, t1).max(axis=1), np.maximum(t0, t1).min(axis=1)


def sphere_blas_hits(o2, d2, clip) -> np.ndarray:
    """Which pairs the sphere BLAS root box accepts."""
    tn, tf = unit_box_slab(o2, d2)
    return (tn <= tf) & (tf >= 0.0) & (tn <= clip)


def shade_and_blend(
    shading,
    config,
    o: np.ndarray,
    d: np.ndarray,
    t_clip: np.ndarray,
    ray_c: np.ndarray,
    gid_c: np.ndarray,
    t_proxy: np.ndarray | None,
    o2: np.ndarray | None = None,
    d2: np.ndarray | None = None,
) -> PacketResult:
    """Canonical any-hit evaluation + front-to-back blend, batched.

    Mirrors the scalar oracle's per-ray ``evaluate_hit`` and blend
    loop (``tests/scalar_oracle.py``) expression-for-expression so
    the per-ray arithmetic (and therefore the early-termination
    decision) matches the oracle's.  ``t_proxy`` holds proxy-geometry
    depths (the blend sort key for triangle proxies); ``None`` or NaN
    entries sort by the exact ellipsoid entry depth instead.
    ``o2``/``d2`` are the candidates' object-space rays when the caller
    already computed them (the two-level instance path); otherwise they
    are derived here from the shading tables.

    Candidate *order* does not matter: the full ``(ray, t, gid)``
    lexsort below fully determines the blend sequence, which is what
    lets the plain and recorded paths (and any ray batching) share this
    stage bit-for-bit.
    """
    n = o.shape[0]
    result = empty_result(n, config.record_blended)
    if ray_c.size == 0:
        return result

    if o2 is None:
        o2, d2 = to_object_space(
            shading.w2o_linear[gid_c], shading.w2o_offset[gid_c],
            o[ray_c], d[ray_c])
    dd = d2[:, 0] * d2[:, 0] + d2[:, 1] * d2[:, 1] + d2[:, 2] * d2[:, 2]
    od = o2[:, 0] * d2[:, 0] + o2[:, 1] * d2[:, 1] + o2[:, 2] * d2[:, 2]
    oo = o2[:, 0] * o2[:, 0] + o2[:, 1] * o2[:, 1] + o2[:, 2] * o2[:, 2]
    valid = dd >= 1e-30
    dd_safe = np.where(valid, dd, 1.0)
    min_sq = oo - od * od / dd_safe
    valid &= min_sq <= 1.0
    t_entry = (-od / dd_safe) - np.sqrt(
        np.maximum((1.0 - min_sq) / dd_safe, 0.0))
    valid &= t_entry > 0.0
    alpha = shading.opacities[gid_c] * np.exp(
        (-0.5 * shading.kappa_sq) * min_sq)
    valid &= alpha >= ALPHA_MIN
    false_positives = int(ray_c.size - np.count_nonzero(valid))

    if t_proxy is None:
        t_hit = t_entry
    else:
        t_hit = np.where(np.isnan(t_proxy), t_entry, t_proxy)
    valid &= t_hit <= t_clip[ray_c]
    rays = ray_c[valid]
    if rays.size == 0:
        result.false_positives = false_positives
        return result
    gids = gid_c[valid]
    ts = t_hit[valid]
    alphas = np.minimum(alpha[valid], ALPHA_MAX)

    # Global per-ray (t, gid) order — the multiround blend sequence
    # (each round's k-buffer is exactly the k closest remaining
    # hits), and literally the singleround sort.
    order = np.lexsort((gids, ts, rays))
    rays, gids, alphas, ts = (
        rays[order], gids[order], alphas[order], ts[order])
    result.anyhit_calls = int(rays.size)
    result.false_positives = false_positives
    counts = np.bincount(rays, minlength=n)
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    col = np.arange(rays.size, dtype=np.int64) - starts[rays]
    if config.mode == "multiround":
        # The scalar loop runs at most max_rounds rounds of k blends.
        cap = config.max_rounds * config.k
        within = col < cap
        rays, gids, alphas, ts, col = (
            rays[within], gids[within], alphas[within], ts[within],
            col[within])
        counts = np.minimum(counts, cap)
        if rays.size == 0:
            return result

    # Pair-slice boundaries per ray (pairs are sorted by ray, so
    # each contiguous ray range maps to one contiguous pair slice).
    pair_starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=pair_starts[1:])

    colors = np.zeros((n, 3))
    transmittance = np.ones(n)
    blended = np.zeros(n, dtype=np.int64)
    records = result.blend_records  # per-ray lists when recording
    basis = sh_basis(d, shading._sh_degree)
    # The blend works on dense (rays, max hits) matrices; process
    # contiguous ray ranges whose matrix stays under the element
    # budget so a hit-heavy (especially uncapped singleround) scene
    # cannot balloon the allocation.
    r0 = 0
    while r0 < n:
        r1 = blend_range_end(counts, r0)
        p0, p1 = int(pair_starts[r0]), int(pair_starts[r1])
        if p0 == p1:
            r0 = r1
            continue
        rr = rays[p0:p1] - r0
        cc = col[p0:p1]
        aa = alphas[p0:p1]
        rows = r1 - r0
        width = int(counts[r0:r1].max())
        one_minus = np.ones((rows, width))
        one_minus[rr, cc] = 1.0 - aa
        # Row-wise cumprod = the scalar loop's sequential
        # `transmittance *= 1 - alpha`, bit for bit.
        t_cum = np.cumprod(one_minus, axis=1)
        prev_t = np.empty_like(t_cum)
        prev_t[:, 0] = 1.0
        prev_t[:, 1:] = t_cum[:, :-1]
        prev_pair = prev_t[rr, cc]
        # Entry i blends iff no earlier entry dropped transmittance
        # below the threshold; the running product is monotone
        # decreasing, so the blended prefix is a simple cutoff.
        blend = prev_pair >= config.transmittance_min
        rr_b = rr[blend]
        aa_b, prev_b = aa[blend], prev_pair[blend]
        if records is not None:
            # Pairs are sorted by (ray, t, gid): appends land in the
            # scalar tracer's exact blend order.
            slice_rays = rays[p0:p1][blend]
            slice_gids = gids[p0:p1][blend]
            slice_ts = ts[p0:p1][blend]
            for ray_i, gid_i, a_i, t_i in zip(
                    slice_rays.tolist(), slice_gids.tolist(),
                    aa_b.tolist(), slice_ts.tolist()):
                records[ray_i].append((gid_i, a_i, t_i))

        color = np.einsum("pc,pcd->pd", basis[rays[p0:p1][blend]],
                          shading.sh[gids[p0:p1][blend]]) + 0.5
        np.clip(color, 0.0, None, out=color)
        contrib = (prev_b * aa_b)[:, None] * color
        # np.add.at accumulates in pair order (sorted by ray, then
        # t): the same sequential color accumulation as the scalar
        # loop.
        np.add.at(colors[r0:r1], rr_b, contrib)

        n_blend = np.bincount(rr_b, minlength=rows)
        blended[r0:r1] = n_blend
        idx = np.nonzero(n_blend)[0]
        transmittance[r0 + idx] = t_cum[idx, n_blend[idx] - 1]
        r0 = r1

    result.colors = colors
    result.transmittance = transmittance
    result.blended = blended
    result.terminated = transmittance < config.transmittance_min
    if config.mode == "multiround":
        # The scalar loop's rounds: one per k blends until a round
        # terminates the ray (ceil(blended / k)); otherwise it ends on a
        # short round, so a ray that blended exactly m*k hits runs one
        # more, empty, round — up to max_rounds.
        result.rounds = np.where(
            result.terminated, -(-blended // config.k),
            np.minimum(blended // config.k + 1, config.max_rounds))
    else:
        result.rounds = np.ones(n, dtype=np.int64)
    return result


def blend_range_end(counts: np.ndarray, r0: int,
                    budget: int = 2_000_000) -> int:
    """End (exclusive) of the largest contiguous ray range starting
    at ``r0`` whose dense blend matrix — rows x the range's max hit
    count — stays within ``budget`` elements (16 MB of float64).
    Always includes at least one ray so progress is guaranteed."""
    n = counts.shape[0]
    width = 0
    r = r0
    while r < n:
        w = int(counts[r])
        if w > width:
            if r > r0 and (r - r0 + 1) * w > budget:
                break
            width = w
        elif width and (r - r0 + 1) * width > budget:
            break
        r += 1
    return r
