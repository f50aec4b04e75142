"""The per-ray round-template builders of the frontier trace recorder,
kept verbatim as the oracle for the compiled template build.

The recorder once folded a recording traversal's visit rows into per-ray
``node -> row`` dicts (``_visit_tables``) and rebuilt each ray's DFS
visit sequence with a Python stack walk (``_RaySim._build_template`` /
``_build_blas_template``, with ``_skip_table`` for the subtree jumps).
Those four functions are below unchanged; :class:`OracleSim` supplies
the handful of ``_RaySim`` attributes the two methods read.
``tests/test_template_oracle.py`` feeds them slab rows computed over
every ``(ray, node)`` pair and asserts that the columns ``(kind, tn, tf,
ref, skip)`` of ``template_build.c`` equal these entries and skips ray
for ray.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.bvh.flatten import PRIMS_TRIANGLES
from repro.bvh.node import KIND_INTERNAL, KIND_LEAF

_INF = float("inf")

# Template entry kinds (the recorder's codes).
_T_NODE = 0
_T_NODE_PF = 1
_T_TRI_LEAF = 2
_T_CUSTOM_LEAF = 3
_T_TLAS_LEAF = 4
_T_BLAS_LEAF = 5


def _visit_tables(n, visits):
    """Per-ray ``node -> (tn row, tf row, child order, child count)``
    lookup tables from a recording traversal's ``(rays, nodes, tn, tf,
    hit)`` frontier rows.

    The child order is the scalar DFS push order — accepted slots by
    descending entry distance, slot order on ties (``argsort`` is
    stable, matching the scalar sort) — precomputed vectorized so the
    per-ray template build does no slot arithmetic at all.
    """
    out: list[dict] = [dict() for _ in range(n)]
    for rays, nodes, tn, tf, hit in visits:
        key = np.where(hit, -tn, np.inf)
        order_l = np.argsort(key, axis=1, kind="stable").tolist()
        cnt_l = hit.sum(axis=1).tolist()
        tn_l = tn.tolist()
        tf_l = tf.tolist()
        for j, (r, node) in enumerate(zip(rays.tolist(), nodes.tolist())):
            out[r][node] = (tn_l[j], tf_l[j], order_l[j], cnt_l[j])
    return out


def _skip_table(depths: list[int]) -> list[int]:
    """``skips[i]`` = first index past entry ``i``'s subtree (pre-order:
    the next entry at depth <= depths[i], or the template end)."""
    n = len(depths)
    skips = [n] * n
    stack: list[int] = []
    for i, d in enumerate(depths):
        while stack and depths[stack[-1]] >= d:
            skips[stack.pop()] = i
        stack.append(i)
    return skips


def node_kinds(tables) -> list[int]:
    """Per-node template kind: ``_T_NODE_PF`` when the node has a leaf
    child (the recorder's static per-node code)."""
    out = []
    for n, kinds in enumerate(tables.child_kind):
        has_leaf = False
        for slot, ckind in enumerate(kinds):
            if ckind == 0:
                break
            if tables.child_is_leaf[n][slot]:
                has_leaf = True
        out.append(_T_NODE_PF if has_leaf else _T_NODE)
    return out


class OracleSim:
    """The ``_RaySim`` attributes the template builders read: the
    structure's :class:`~tests.scalar_oracle.FlatTables`, the static node
    kinds, and one ray's visit tables (root level and, for mesh BLAS
    instances, per Gaussian)."""

    def __init__(self, flat, tables, node_rows, mesh_nodes=None) -> None:
        self.rec = SimpleNamespace(tables=tables, two_level=flat.two_level,
                                   prims=flat.root_prims)
        self.recs = SimpleNamespace(node_kind=node_kinds(tables))
        self.node_rows = node_rows
        self.mesh_nodes = mesh_nodes or {}

    def _build_template(self):
        """One stack walk in the scalar DFS order (children sorted
        nearest first with the same tie behavior), applying only the
        static accept tests; per-round residuals stay in ``(tn, tf)``."""
        tables = self.rec.tables
        kind_rows = tables.child_kind
        ref_rows = tables.child_ref
        node_rows = self.node_rows
        node_kind = self.recs.node_kind
        two_level = self.rec.two_level
        triangles = self.rec.prims == PRIMS_TRIANGLES
        if two_level:
            leaf_code = _T_TLAS_LEAF
        elif triangles:
            leaf_code = _T_TRI_LEAF
        else:
            leaf_code = _T_CUSTOM_LEAF

        entries: list = []
        depths: list[int] = []
        append = entries.append
        dappend = depths.append
        # The root bypasses the slab accept: tn = 0, tf = inf make its
        # residual checks vacuous, exactly like the scalar's seed entry.
        stack = [(KIND_INTERNAL, 0, 0, 0.0, _INF)]
        while stack:
            kind, ref, depth, tn, tf = stack.pop()
            if kind == KIND_LEAF:
                append((leaf_code, tn, tf, ref))
                dappend(depth)
                continue
            append((node_kind[ref], tn, tf, ref))
            dappend(depth)
            row = node_rows[ref]
            cnt = row[3]
            if cnt:
                # Phase A pre-sorted the accepted slots by descending
                # entry distance (slot order on ties): push order ==
                # the scalar's, so pops come nearest first.
                tn_row = row[0]
                tf_row = row[1]
                order = row[2]
                kinds = kind_rows[ref]
                refs = ref_rows[ref]
                child_depth = depth + 1
                for pos in range(cnt):
                    slot = order[pos]
                    stack.append((kinds[slot], refs[slot], child_depth,
                                  tn_row[slot], tf_row[slot]))
        return entries, _skip_table(depths)

    def _build_blas_template(self, gid: int, root_tn: float):
        """One instance pair's shared-BLAS round template (same DFS
        rules over the BLAS tables), cached per Gaussian."""
        bt = self.rec.tables.blas_tables
        kind_rows = bt.child_kind
        ref_rows = bt.child_ref
        node_rows = self.mesh_nodes[gid]
        entries: list = []
        depths: list[int] = []
        append = entries.append
        dappend = depths.append
        stack = [(KIND_INTERNAL, 0, 0, root_tn, _INF)]
        while stack:
            kind, ref, depth, tn, tf = stack.pop()
            if kind == KIND_LEAF:
                append((_T_BLAS_LEAF, tn, tf, ref))
                dappend(depth)
                continue
            append((_T_NODE, tn, tf, ref))
            dappend(depth)
            row = node_rows[ref]
            cnt = row[3]
            if cnt:
                tn_row = row[0]
                tf_row = row[1]
                order = row[2]
                kinds = kind_rows[ref]
                refs = ref_rows[ref]
                child_depth = depth + 1
                for pos in range(cnt):
                    slot = order[pos]
                    stack.append((kinds[slot], refs[slot], child_depth,
                                  tn_row[slot], tf_row[slot]))
        return entries, _skip_table(depths)
