"""Reference node-at-a-time wide-BVH builder (test oracle).

This is the original top-down builder, kept verbatim: it splits one
primitive range at a time off an explicit LIFO stack, with a per-bin mask
loop for binned SAH. ``repro.bvh.builder.build_bvh`` must produce a
:class:`FlatBVH` equal to this one field for field.
"""

from __future__ import annotations

import numpy as np

from repro.bvh.builder import BuildParams
from repro.bvh.layout import internal_node_bytes
from repro.bvh.morton import morton_codes, radix_split
from repro.bvh.node import KIND_INTERNAL, KIND_LEAF, FlatBVH, leaf_addresses

_SAH_BINS = 16


def _half_area(lo: np.ndarray, hi: np.ndarray) -> float:
    ext = np.maximum(hi - lo, 0.0)
    return float(ext[0] * ext[1] + ext[1] * ext[2] + ext[2] * ext[0])


def _split_range(
    order: np.ndarray,
    start: int,
    end: int,
    centroids: np.ndarray,
    prim_lo: np.ndarray,
    prim_hi: np.ndarray,
    strategy: str,
    codes: np.ndarray | None = None,
) -> int | None:
    """Partition ``order[start:end]`` in place; return the split position.

    Returns ``None`` when the range cannot be usefully split (all
    centroids coincide), in which case the caller falls back to an even
    split or a leaf.
    """
    if strategy == "lbvh":
        # `order` is Morton-sorted up front and splits preserve
        # contiguity, so the radix split is a pure binary search.
        return radix_split(codes, start, end)

    idx = order[start:end]
    cents = centroids[idx]
    lo = cents.min(axis=0)
    hi = cents.max(axis=0)
    extent = hi - lo
    axis = int(np.argmax(extent))
    if extent[axis] <= 1e-30:
        return None

    if strategy == "median":
        mid = (end - start) // 2
        part = np.argpartition(cents[:, axis], mid)
        order[start:end] = idx[part]
        return start + mid

    # Binned SAH along the chosen axis.
    scale = _SAH_BINS * (1.0 - 1e-9) / extent[axis]
    bins = ((cents[:, axis] - lo[axis]) * scale).astype(np.int64)
    counts = np.bincount(bins, minlength=_SAH_BINS)

    bin_lo = np.full((_SAH_BINS, 3), np.inf)
    bin_hi = np.full((_SAH_BINS, 3), -np.inf)
    for b in range(_SAH_BINS):
        mask = bins == b
        if counts[b]:
            sel = idx[mask]
            bin_lo[b] = prim_lo[sel].min(axis=0)
            bin_hi[b] = prim_hi[sel].max(axis=0)

    left_lo = np.minimum.accumulate(bin_lo, axis=0)
    left_hi = np.maximum.accumulate(bin_hi, axis=0)
    right_lo = np.minimum.accumulate(bin_lo[::-1], axis=0)[::-1]
    right_hi = np.maximum.accumulate(bin_hi[::-1], axis=0)[::-1]
    left_counts = np.cumsum(counts)

    best_cost = np.inf
    best_bin = -1
    total = end - start
    for b in range(_SAH_BINS - 1):
        n_left = int(left_counts[b])
        n_right = total - n_left
        if n_left == 0 or n_right == 0:
            continue
        cost = n_left * _half_area(left_lo[b], left_hi[b]) + n_right * _half_area(
            right_lo[b + 1], right_hi[b + 1]
        )
        if cost < best_cost:
            best_cost = cost
            best_bin = b
    if best_bin < 0:
        # All primitives landed in one bin; median fallback.
        mid = total // 2
        part = np.argpartition(cents[:, axis], mid)
        order[start:end] = idx[part]
        return start + mid

    left_mask = bins <= best_bin
    order[start:end] = np.concatenate([idx[left_mask], idx[~left_mask]])
    return start + int(np.count_nonzero(left_mask))


def build_bvh(
    prim_lo: np.ndarray,
    prim_hi: np.ndarray,
    prim_bytes: int,
    params: BuildParams | None = None,
) -> FlatBVH:
    """Build a wide BVH over primitive AABBs.

    Parameters
    ----------
    prim_lo / prim_hi:
        ``(n, 3)`` primitive bounding boxes.
    prim_bytes:
        Serialized size of one primitive record (drives leaf addressing).
    params:
        Build configuration; defaults to BVH-6 binned SAH, as in the paper.
    """
    params = params or BuildParams()
    prim_lo = np.ascontiguousarray(prim_lo, dtype=np.float64)
    prim_hi = np.ascontiguousarray(prim_hi, dtype=np.float64)
    n = prim_lo.shape[0]
    if n == 0:
        raise ValueError("cannot build a BVH over zero primitives")
    centroids = 0.5 * (prim_lo + prim_hi)
    order = np.arange(n, dtype=np.int64)
    codes_sorted: np.ndarray | None = None
    if params.strategy == "lbvh":
        codes = morton_codes(centroids)
        order = order[np.argsort(codes, kind="stable")]
        codes_sorted = codes[order]

    child_lo: list[np.ndarray] = []
    child_hi: list[np.ndarray] = []
    child_kind: list[np.ndarray] = []
    child_ref: list[np.ndarray] = []
    leaf_start: list[int] = []
    leaf_count: list[int] = []
    node_depth: list[int] = []

    width = params.width
    leaf_size = params.leaf_size

    def range_box(start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        sel = order[start:end]
        return prim_lo[sel].min(axis=0), prim_hi[sel].max(axis=0)

    # Degenerate tiny scene: a single root with one leaf child.
    # Handled by the same code path (split produces a single part).

    # Each work item: (node_index, start, end, depth). Node 0 is the root.
    child_lo.append(np.full((width, 3), np.inf))
    child_hi.append(np.full((width, 3), -np.inf))
    child_kind.append(np.zeros(width, dtype=np.uint8))
    child_ref.append(np.full(width, -1, dtype=np.int64))
    node_depth.append(0)
    stack: list[tuple[int, int, int, int]] = [(0, 0, n, 0)]
    max_depth = 0

    while stack:
        node_index, start, end, depth = stack.pop()
        max_depth = max(max_depth, depth)

        # Split the range into up to `width` parts, biggest part first.
        parts: list[tuple[int, int]] = [(start, end)]
        while len(parts) < width:
            sizes = [e - s for s, e in parts]
            big = int(np.argmax(sizes))
            s, e = parts[big]
            if e - s <= leaf_size:
                break
            pos = _split_range(order, s, e, centroids, prim_lo, prim_hi,
                               params.strategy, codes_sorted)
            if pos is None or pos == s or pos == e:
                pos = s + (e - s) // 2
            parts[big] = (s, pos)
            parts.insert(big + 1, (pos, e))

        for slot, (s, e) in enumerate(parts):
            lo, hi = range_box(s, e)
            child_lo[node_index][slot] = lo
            child_hi[node_index][slot] = hi
            if e - s <= leaf_size:
                child_kind[node_index][slot] = KIND_LEAF
                child_ref[node_index][slot] = len(leaf_start)
                leaf_start.append(s)
                leaf_count.append(e - s)
                max_depth = max(max_depth, depth + 1)
            else:
                child_kind[node_index][slot] = KIND_INTERNAL
                new_index = len(child_lo)
                child_ref[node_index][slot] = new_index
                child_lo.append(np.full((width, 3), np.inf))
                child_hi.append(np.full((width, 3), -np.inf))
                child_kind.append(np.zeros(width, dtype=np.uint8))
                child_ref.append(np.full(width, -1, dtype=np.int64))
                node_depth.append(depth + 1)
                stack.append((new_index, s, e, depth + 1))

    n_nodes = len(child_lo)
    node_bytes = internal_node_bytes(width)
    node_addr = np.arange(n_nodes, dtype=np.int64) * node_bytes
    leaf_count_arr = np.asarray(leaf_count, dtype=np.int64)
    leaf_addr, leaf_bytes = leaf_addresses(leaf_count_arr, prim_bytes, n_nodes * node_bytes)

    return FlatBVH(
        width=width,
        child_lo=np.stack(child_lo),
        child_hi=np.stack(child_hi),
        child_kind=np.stack(child_kind),
        child_ref=np.stack(child_ref),
        leaf_start=np.asarray(leaf_start, dtype=np.int64),
        leaf_count=leaf_count_arr,
        prim_order=order,
        node_addr=node_addr,
        leaf_addr=leaf_addr,
        leaf_bytes=leaf_bytes,
        height=max_depth + 1,
    )
