/*
 * The round-template build of repro.rt.tracerecord, compiled: per root, a
 * stack DFS from node 0 of one flattened BVH level over every node
 * reachable with t_min = 0 and no t_max. Child slots are slab-tested with
 * numpy's arithmetic in numpy's order (per axis (lo - o) * inv_d,
 * NaN-propagating min/max, running max/min over x, y, z; build with
 * -ffp-contract=off) and accepted on tn <= tf, tf >= 0, tn <= t_clip and
 * a non-empty slot; they pop in ascending tn, ties in reverse slot order.
 * Entries go out in preorder as the CSR columns tracerecord documents.
 * Entries past cap are counted, not written: the caller re-runs with the
 * returned n_entries (every non-root entry is one kid, so cap bounds kids
 * too). Returns 0, or -2 when scratch memory runs out.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

enum { KIND_EMPTY, KIND_INTERNAL, KIND_LEAF };

typedef struct {
    int64_t n_roots, width, leaf_code, cap, n_entries, n_nodes;
    const double *lo, *hi;             /* (n_nodes, width, 3) */
    const int64_t *child_ref;          /* (n_nodes, width) */
    const int8_t *child_kind, *node_code;
    const double *o, *inv_d, *t_clip, *root_tn;  /* per root */
    int64_t *ptr, *ref, *skip, *kptr, *kids;
    double *tn, *tf, *cmax;
    int8_t *kind;
} build_t;

/* A pending entry: its slot in the parent's kids (-1: root), its depth. */
typedef struct { double tn, tf; int64_t kind, ref, kid, depth; } item_t;

/* numpy.minimum and numpy.maximum on doubles. */
static double np_min(double a, double b) { return a <= b || isnan(a) ? a : b; }
static double np_max(double a, double b) { return a >= b || isnan(a) ? a : b; }

int64_t template_build(build_t *b)
{
    int64_t w = b->width, n = 0, nk = 0;
    /* Pending entries never exceed the slots; the open path, the nodes. */
    item_t *stack = malloc((size_t)(b->n_nodes * w + 1) * sizeof(item_t));
    item_t *acc = malloc((size_t)w * sizeof(item_t));
    int64_t *path = malloc((size_t)(b->n_nodes + 1) * sizeof(int64_t));
    int64_t *path_depth = malloc((size_t)(b->n_nodes + 1) * sizeof(int64_t));
    int64_t err = !stack || !acc || !path || !path_depth ? -2 : 0;
    for (int64_t r = 0; r < b->n_roots && !err; r++) {
        const double *o = b->o + 3 * r, *inv = b->inv_d + 3 * r;
        int64_t top = 0, open = 0;
        b->ptr[r] = n;
        stack[top++] = (item_t){b->root_tn[r], INFINITY, KIND_INTERNAL, 0,
                                -1, 0};
        while (top) {
            item_t it = stack[--top];
            int64_t g = n++, n_acc = 0;
            double cmax = -INFINITY;
            /* Open entries at this depth or deeper end their subtrees. */
            for (; open && path_depth[open - 1] >= it.depth; open--)
                if (path[open - 1] < b->cap)
                    b->skip[path[open - 1]] = g;
            path[open] = g;
            path_depth[open++] = it.depth;
            if (it.kid >= 0 && it.kid < b->cap)
                b->kids[it.kid] = g;
            for (int64_t s = 0; it.kind == KIND_INTERNAL && s < w; s++) {
                int64_t c = it.ref * w + s;
                double tn = 0.0, tf = 0.0;
                for (int a = 0; a < 3; a++) {
                    double t0 = (b->lo[3 * c + a] - o[a]) * inv[a];
                    double t1 = (b->hi[3 * c + a] - o[a]) * inv[a];
                    tn = a ? np_max(tn, np_min(t0, t1)) : np_min(t0, t1);
                    tf = a ? np_min(tf, np_max(t0, t1)) : np_max(t0, t1);
                }
                if (!(tn <= tf && tf >= 0.0 && tn <= b->t_clip[r]
                      && b->child_kind[c] != KIND_EMPTY))
                    continue;
                cmax = np_max(cmax, tn);
                /* Insert in push order: descending tn, slot order on
                   ties; the kid slot is the slot rank. */
                int64_t j = n_acc;
                for (; j && acc[j - 1].tn < tn; j--)
                    acc[j] = acc[j - 1];
                acc[j] = (item_t){tn, tf, b->child_kind[c], b->child_ref[c],
                                  nk + n_acc++, it.depth + 1};
            }
            for (int64_t j = 0; j < n_acc; j++)
                stack[top++] = acc[j];
            if (g < b->cap) {
                b->kind[g] = (int8_t)(it.kind == KIND_INTERNAL
                                      ? b->node_code[it.ref] : b->leaf_code);
                b->ref[g] = it.ref;
                b->tn[g] = it.tn;
                b->tf[g] = it.tf;
                b->cmax[g] = cmax;
                b->kptr[g] = nk;
            }
            nk += n_acc;
        }
        for (; open; open--)
            if (path[open - 1] < b->cap)
                b->skip[path[open - 1]] = n;
    }
    b->ptr[b->n_roots] = n;
    if (n <= b->cap)
        b->kptr[n] = nk;
    b->n_entries = n;
    free(stack), free(acc), free(path), free(path_depth);
    return err;
}
