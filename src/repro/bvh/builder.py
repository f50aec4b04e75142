"""Wide-BVH construction (Embree-style BVH-6 via binned SAH).

The paper builds its acceleration structures with Intel Embree in a BVH-6
configuration. We reproduce that shape with a top-down builder that splits
each node's primitive range into up to ``width`` parts: starting from the
whole range, the largest part is repeatedly split (binned SAH, median or
Morton radix) until the node has ``width`` parts or nothing is left to
split. This is exactly how Embree collapses its binary SAH tree into wide
nodes.

Every node's range is a slice of one primitive permutation, and the build
is level-synchronous: all open nodes of a tree level take their ``k``-th
split step together. The current biggest part of every open node is
collected, and binned SAH splits all of these disjoint ranges in one
segmented numpy pass, so a tree of height ``h`` costs at most
``(h - 1) * (width - 1)`` passes however many nodes it has. The
``median`` and ``lbvh`` strategies split range by range under the same
driver.

A split reads and permutes only its own range, so the topology and the
final permutation do not depend on the order in which ranges are split.
Numbering is fixed afterwards by replaying a depth-first build with an
explicit LIFO stack: popping a node numbers its internal children and
leaf records in slot order, then pushes the children, so the last child
is popped next. Node ids (hence ``node_addr``), leaf record order and
``prim_order`` all follow that contract, which the timing model's cache
replay depends on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bvh.layout import internal_node_bytes
from repro.bvh.morton import morton_codes, radix_split
from repro.bvh.node import KIND_EMPTY, KIND_INTERNAL, KIND_LEAF, FlatBVH, leaf_addresses
from repro.bvh.quality import _half_areas

_SAH_BINS = 16
#: Bin index scale numerator; shaved so the largest centroid lands in the last bin.
_BIN_SCALE = _SAH_BINS * (1.0 - 1e-9)


@dataclass(frozen=True)
class BuildParams:
    """Knobs for the BVH builder.

    ``strategy`` selects the split rule:

    * ``"sah"`` — binned surface-area heuristic (Embree-like, default);
    * ``"median"`` — object median along the widest centroid axis
      (faster, slightly worse trees; used by the branching-factor
      ablation to isolate topology effects);
    * ``"lbvh"`` — Morton-code radix-tree splits (the GPU-driver-style
      linear BVH; fastest build, worst tree — the builder ablation
      quantifies the traversal cost it trades away).
    """

    width: int = 6
    leaf_size: int = 4
    strategy: str = "sah"

    def __post_init__(self) -> None:
        if self.width < 2:
            raise ValueError("width must be >= 2")
        if self.leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        if self.strategy not in ("sah", "median", "lbvh"):
            raise ValueError(f"unknown strategy {self.strategy!r}")


def _median_split(order: np.ndarray, start: int, end: int, keys: np.ndarray) -> int:
    """Object-median split of ``order[start:end]`` by ``keys`` (in range order)."""
    mid = (end - start) // 2
    order[start:end] = order[start:end][np.argpartition(keys, mid)]
    return start + mid


def _split_ranges(
    order: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    centroids: np.ndarray,
    strategy: str,
    codes: np.ndarray | None,
) -> np.ndarray:
    """Median or radix split of each range, one range at a time.

    Partitions ``order`` in place and returns the split positions; -1 marks
    a range that cannot be usefully split (all centroids or codes coincide).
    """
    cuts = np.full(starts.shape, -1, dtype=np.int64)
    for r, (start, end) in enumerate(zip(starts.tolist(), ends.tolist())):
        if strategy == "lbvh":
            # `order` is Morton-sorted up front and splits preserve
            # contiguity, so the radix split is a pure binary search.
            pos = radix_split(codes, start, end)
        else:
            cents = centroids[order[start:end]]
            extent = cents.max(axis=0) - cents.min(axis=0)
            axis = int(np.argmax(extent))
            pos = None if extent[axis] <= 1e-30 else _median_split(
                order, start, end, cents[:, axis])
        if pos is not None:
            cuts[r] = pos
    return cuts


def _sah_split(
    order: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    centroids: np.ndarray,
    prim_lo: np.ndarray,
    prim_hi: np.ndarray,
) -> np.ndarray:
    """Binned-SAH split of the disjoint ranges ``[starts[r], ends[r])`` of
    ``order``, all in one segmented pass.

    Each range bins its centroids along their widest axis and cuts at the
    cheapest of the 15 bin boundaries (the first on ties; NaN costs never
    win). A range whose costs are all infinite takes an object-median split
    instead. Partitions ``order`` in place, keeping each side in range
    order, and returns the split positions; -1 marks a range whose
    centroids all coincide.
    """
    n_ranges = starts.shape[0]
    rows = np.arange(n_ranges)
    lengths = ends - starts
    offsets = np.cumsum(lengths) - lengths
    seg = np.repeat(rows, lengths)
    pos = np.arange(seg.shape[0]) + np.repeat(starts - offsets, lengths)
    idx = order[pos]
    cents = centroids[idx]

    lo = np.minimum.reduceat(cents, offsets)
    extent = np.maximum.reduceat(cents, offsets) - lo
    axis = np.argmax(extent, axis=1)
    ext = extent[rows, axis]
    splits = ~(ext <= 1e-30)
    keys = cents[np.arange(seg.shape[0]), axis[seg]]
    scale = np.divide(_BIN_SCALE, ext, out=np.zeros_like(ext), where=splits)
    bins = ((keys - lo[rows, axis][seg]) * scale[seg]).astype(np.int64)

    # Per-(range, bin) counts and boxes: group by range * 16 + bin.
    bin_key = seg * _SAH_BINS + bins
    counts = np.bincount(bin_key, minlength=n_ranges * _SAH_BINS)
    occupied = np.flatnonzero(counts)
    firsts = (np.cumsum(counts) - counts)[occupied]
    by_bin = idx[np.argsort(bin_key, kind="stable")]
    bin_lo = np.full((counts.shape[0], 3), np.inf)
    bin_hi = np.full((counts.shape[0], 3), -np.inf)
    bin_lo[occupied] = np.minimum.reduceat(prim_lo[by_bin], firsts)
    bin_hi[occupied] = np.maximum.reduceat(prim_hi[by_bin], firsts)
    counts = counts.reshape(n_ranges, _SAH_BINS)
    bin_lo = bin_lo.reshape(n_ranges, _SAH_BINS, 3)
    bin_hi = bin_hi.reshape(n_ranges, _SAH_BINS, 3)

    left_lo = np.minimum.accumulate(bin_lo, axis=1)[:, :-1]
    left_hi = np.maximum.accumulate(bin_hi, axis=1)[:, :-1]
    right_lo = np.minimum.accumulate(bin_lo[:, ::-1], axis=1)[:, ::-1][:, 1:]
    right_hi = np.maximum.accumulate(bin_hi[:, ::-1], axis=1)[:, ::-1][:, 1:]
    n_left = np.cumsum(counts, axis=1)[:, :-1]
    n_right = lengths[:, None] - n_left
    cost = n_left * _half_areas(left_lo, left_hi) + n_right * _half_areas(right_lo, right_hi)
    cost[(n_left == 0) | (n_right == 0) | np.isnan(cost)] = np.inf
    best = np.argmin(cost, axis=1)
    sah = splits & (cost[rows, best] < np.inf)

    right = sah[seg] & (bins > best[seg])
    order[pos] = idx[np.argsort(seg * 2 + right, kind="stable")]
    cuts = np.where(sah, starts + n_left[rows, best], -1)
    # All costs infinite (e.g. every primitive in one bin): median split.
    for r in np.flatnonzero(splits & ~sah).tolist():
        first = offsets[r]
        cuts[r] = _median_split(order, int(starts[r]), int(ends[r]),
                                keys[first:first + lengths[r]])
    return cuts


def _lifo_order(n_children: list[int], first_child: list[int]) -> list[int]:
    """Nodes in the order a depth-first builder with an explicit stack pops
    them; a node's children are ``first_child[t] + range(n_children[t])``."""
    popped = []
    stack = [0]
    while stack:
        node = stack.pop()
        popped.append(node)
        stack.extend(range(first_child[node], first_child[node] + n_children[node]))
    return popped


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

    width = params.width
    leaf_size = params.leaf_size

    # Split level by level. `part_start`/`part_end` hold the parts of every
    # node of the level in slot order (empty slots are [0, 0)); each step
    # splits the biggest part (the first, on ties) of every node whose
    # biggest part is bigger than a leaf. Nodes are numbered in level order
    # here, each level's nodes being the previous level's internal parts in
    # (node, slot) order.
    level_start: list[np.ndarray] = []
    level_end: list[np.ndarray] = []
    node_start = np.zeros(1, dtype=np.int64)
    node_end = np.full(1, n, dtype=np.int64)
    while node_start.shape[0]:
        part_start = np.zeros((node_start.shape[0], width), dtype=np.int64)
        part_end = np.zeros_like(part_start)
        part_start[:, 0] = node_start
        part_end[:, 0] = node_end
        for _ in range(width - 1):
            sizes = part_end - part_start
            big = np.argmax(sizes, axis=1)
            active = np.flatnonzero(sizes[np.arange(sizes.shape[0]), big] > leaf_size)
            if active.shape[0] == 0:
                break
            big = big[active]
            s = part_start[active, big]
            e = part_end[active, big]
            if params.strategy == "sah":
                cut = _sah_split(order, s, e, centroids, prim_lo, prim_hi)
            else:
                cut = _split_ranges(order, s, e, centroids, params.strategy,
                                    codes_sorted)
            # A range that cannot be split usefully is halved.
            cut = np.where((cut <= s) | (cut >= e), s + (e - s) // 2, cut)
            # Part `big` becomes [s, cut); [cut, e) is inserted after it.
            shift = np.arange(1, width) > big[:, None]
            for parts in (part_start, part_end):
                sub = parts[active]
                sub[:, 1:] = np.where(shift, sub[:, :-1], sub[:, 1:])
                parts[active] = sub
            part_start[active, big + 1] = cut
            part_end[active, big] = cut
        level_start.append(part_start)
        level_end.append(part_end)
        internal = part_end - part_start > leaf_size
        node_start = part_start[internal]
        node_end = part_end[internal]

    part_start = np.concatenate(level_start)
    part_end = np.concatenate(level_end)
    n_nodes = part_start.shape[0]
    internal = part_end - part_start > leaf_size
    n_children = internal.sum(axis=1)
    child = np.full((n_nodes, width), -1, dtype=np.int64)
    child[internal] = np.arange(1, n_nodes)

    # Number as the depth-first stack build does: popping a node numbers its
    # internal children, then its leaf records, in slot order. With the rows
    # in pop order, both numberings run row-major.
    popped = np.asarray(_lifo_order(n_children.tolist(),
                                    (np.cumsum(n_children) - n_children + 1).tolist()))
    part_start, part_end, internal, child = (
        a[popped] for a in (part_start, part_end, internal, child))
    sizes = part_end - part_start
    leaf = (sizes > 0) & ~internal
    child_ref = np.full((n_nodes, width), -1, dtype=np.int64)
    child_ref[internal] = np.arange(1, n_nodes)
    child_ref[leaf] = np.arange(int(leaf.sum()))
    child_kind = np.full((n_nodes, width), KIND_EMPTY, dtype=np.uint8)
    child_kind[internal] = KIND_INTERNAL
    child_kind[leaf] = KIND_LEAF
    leaf_start = part_start[leaf]
    leaf_count = sizes[leaf]
    # Row of each node id: the root, then every internal child in
    # (pop, slot) order.
    rows = np.argsort(popped)[np.concatenate([[0], child[internal]])]
    child_kind = child_kind[rows]
    child_ref = child_ref[rows]

    # Every child box in one pass: reduce over [start, end) of each part.
    occupied = child_kind != KIND_EMPTY
    bounds = np.stack([part_start[rows][occupied], part_end[rows][occupied]],
                      axis=1).ravel()
    child_lo = np.full((n_nodes, width, 3), np.inf)
    child_hi = np.full((n_nodes, width, 3), -np.inf)
    pad = np.zeros((1, 3))
    child_lo[occupied] = np.minimum.reduceat(
        np.concatenate([prim_lo[order], pad]), bounds)[::2]
    child_hi[occupied] = np.maximum.reduceat(
        np.concatenate([prim_hi[order], pad]), bounds)[::2]

    node_bytes = internal_node_bytes(width)
    node_addr = np.arange(n_nodes, dtype=np.int64) * node_bytes
    leaf_addr, leaf_bytes = leaf_addresses(leaf_count, prim_bytes, n_nodes * node_bytes)

    return FlatBVH(
        width=width,
        child_lo=child_lo,
        child_hi=child_hi,
        child_kind=child_kind,
        child_ref=child_ref,
        leaf_start=leaf_start,
        leaf_count=leaf_count,
        prim_order=order,
        node_addr=node_addr,
        leaf_addr=leaf_addr,
        leaf_bytes=leaf_bytes,
        height=len(level_start) + 1,
    )
