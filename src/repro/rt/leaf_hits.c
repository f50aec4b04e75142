/*
 * The triangle-leaf hits of repro.rt.tracerecord, compiled. For every
 * entry of one template set whose kind is leaf_code, each of the leaf's
 * triangles (leaf_start/leaf_count into the leaf-ordered v0/e1/e2) is
 * tested against the entry's root ray (o, d) with the backface-culled
 * Moller-Trumbore of repro.rt.kernels.entering_hits, expression for
 * expression: numpy's cross product, dot products summed x + y + z, and
 * u, v, t scaled by inv_det = 1.0 / det (build with -ffp-contract=off).
 * A hit needs det <= -1e-12, 0 <= u <= 1, v >= 0, u + v <= 1 and t > 0.
 *
 * Monolithic proxies (blas == 0): per leaf entry the nearest hit per
 * owning Gaussian, as the CSR hptr/hit_t/hit_g in (t, gid) order; per
 * root the nearest hit per Gaussian over all its leaves, as the
 * candidates c_root/c_gid/c_t in (root, gid) order.
 * Shared mesh BLAS (blas == 1): per entry its nearest leaf hit as bbest
 * (inf for none and for internal entries); per root with a hit its
 * nearest, as c_root/c_t in root order.
 *
 * n_hits counts the per-leaf hits kept (rows of hit_t, or leaf entries
 * with a hit), n_cands the candidates. The caller sizes every hit and
 * candidate output, and cap, by the leaves' total triangle count, which
 * bounds both. Returns 0, or -2 when scratch memory runs out.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef struct {
    int64_t n_roots, leaf_code, blas, cap, n_hits, n_cands;
    const int64_t *ptr, *ref, *leaf_start, *leaf_count, *owner;
    const int8_t *kind;
    const double *v0, *e1, *e2;        /* (n_triangles, 3) */
    const double *o, *d;               /* (n_roots, 3) */
    int64_t *hptr, *hit_g, *c_root, *c_gid;
    double *hit_t, *c_t, *bbest;
} hits_t;

typedef struct { double t; int64_t gid; } hit_t;

static int by_gid(const void *pa, const void *pb)
{
    const hit_t *a = pa, *b = pb;
    if (a->gid != b->gid)
        return a->gid < b->gid ? -1 : 1;
    return a->t < b->t ? -1 : a->t > b->t;
}

static int by_t(const void *pa, const void *pb)
{
    const hit_t *a = pa, *b = pb;
    if (a->t != b->t)
        return a->t < b->t ? -1 : 1;
    return a->gid < b->gid ? -1 : a->gid > b->gid;
}

/* Sorts a few hits in place: insertion sort when short, else qsort. */
static void sort_hits(hit_t *h, int64_t n, int (*cmp)(const void *,
                                                      const void *))
{
    if (n > 16) {
        qsort(h, (size_t)n, sizeof(hit_t), cmp);
        return;
    }
    for (int64_t i = 1; i < n; i++) {
        hit_t x = h[i];
        int64_t j = i;
        for (; j && cmp(&h[j - 1], &x) > 0; j--)
            h[j] = h[j - 1];
        h[j] = x;
    }
}

/* Keeps each gid's first hit of a run sorted by gid; returns the count. */
static int64_t first_per_gid(hit_t *h, int64_t n)
{
    int64_t m = 0;
    for (int64_t i = 0; i < n; i++)
        if (!m || h[i].gid != h[m - 1].gid)
            h[m++] = h[i];
    return m;
}

/* The entering hit depth of ray (o, d) on triangle tri, or NAN for none. */
static double entering(const hits_t *b, const double *o, const double *d,
                       int64_t tri)
{
    const double *v0 = b->v0 + 3 * tri, *e1 = b->e1 + 3 * tri,
                 *e2 = b->e2 + 3 * tri;
    double pv0 = d[1] * e2[2] - d[2] * e2[1];
    double pv1 = d[2] * e2[0] - d[0] * e2[2];
    double pv2 = d[0] * e2[1] - d[1] * e2[0];
    double det = e1[0] * pv0 + e1[1] * pv1 + e1[2] * pv2;
    if (!(det <= -1e-12))
        return NAN;
    double inv_det = 1.0 / det;
    double tv0 = o[0] - v0[0], tv1 = o[1] - v0[1], tv2 = o[2] - v0[2];
    double u = (tv0 * pv0 + tv1 * pv1 + tv2 * pv2) * inv_det;
    double qv0 = tv1 * e1[2] - tv2 * e1[1];
    double qv1 = tv2 * e1[0] - tv0 * e1[2];
    double qv2 = tv0 * e1[1] - tv1 * e1[0];
    double v = (d[0] * qv0 + d[1] * qv1 + d[2] * qv2) * inv_det;
    double t = (e2[0] * qv0 + e2[1] * qv1 + e2[2] * qv2) * inv_det;
    return u >= 0.0 && u <= 1.0 && v >= 0.0 && u + v <= 1.0 && t > 0.0
        ? t : NAN;
}

int64_t leaf_hits(hits_t *b)
{
    int64_t nh = 0, nc = 0;
    hit_t *scratch = malloc((size_t)(b->cap + 1) * sizeof(hit_t));
    if (!scratch)
        return -2;
    if (!b->blas)
        b->hptr[0] = 0;
    for (int64_t r = 0; r < b->n_roots; r++) {
        const double *o = b->o + 3 * r, *d = b->d + 3 * r;
        int64_t h0 = nh;
        double root_best = INFINITY;
        int root_hit = 0;
        for (int64_t e = b->ptr[r]; e < b->ptr[r + 1]; e++) {
            if (b->kind[e] != b->leaf_code) {
                if (b->blas)
                    b->bbest[e] = INFINITY;
                else
                    b->hptr[e + 1] = nh;
                continue;
            }
            int64_t leaf = b->ref[e], start = b->leaf_start[leaf];
            int64_t m = 0;
            double best = INFINITY;
            int leaf_hit = 0;
            for (int64_t tri = start; tri < start + b->leaf_count[leaf];
                 tri++) {
                double t = entering(b, o, d, tri);
                if (isnan(t))
                    continue;
                if (b->blas) {
                    if (!leaf_hit || t < best)
                        best = t;
                    leaf_hit = 1;
                } else {
                    scratch[m++] = (hit_t){t, b->owner[tri]};
                }
            }
            if (b->blas) {
                b->bbest[e] = best;
                nh += leaf_hit;
                if (leaf_hit && (!root_hit || best < root_best))
                    root_best = best;
                root_hit |= leaf_hit;
                continue;
            }
            /* Nearest per Gaussian, then the scalar's (t, gid) order. */
            sort_hits(scratch, m, by_gid);
            m = first_per_gid(scratch, m);
            sort_hits(scratch, m, by_t);
            for (int64_t j = 0; j < m; j++) {
                b->hit_t[nh] = scratch[j].t;
                b->hit_g[nh++] = scratch[j].gid;
            }
            b->hptr[e + 1] = nh;
        }
        if (b->blas) {
            if (root_hit) {
                b->c_root[nc] = r;
                b->c_t[nc++] = root_best;
            }
            continue;
        }
        /* Nearest per Gaussian over the root's leaves, in gid order. */
        int64_t m = nh - h0;
        for (int64_t j = 0; j < m; j++)
            scratch[j] = (hit_t){b->hit_t[h0 + j], b->hit_g[h0 + j]};
        sort_hits(scratch, m, by_gid);
        m = first_per_gid(scratch, m);
        for (int64_t j = 0; j < m; j++, nc++) {
            b->c_root[nc] = r;
            b->c_gid[nc] = scratch[j].gid;
            b->c_t[nc] = scratch[j].t;
        }
    }
    b->n_hits = nh;
    b->n_cands = nc;
    free(scratch);
    return 0;
}
