/*
 * The exact round walk of repro.rt.tracerecord, compiled.
 *
 * One call walks one recording chunk: every ray's tracing rounds over its
 * round template, replaying repro.rt.tracer.Tracer decision for decision
 * (minus color math): interval residuals (tf < t_min, tn > t_max) with
 * subtree skips, the k-buffer and its shrinking t_max, frontier carry-over,
 * blend termination and, under GRTX-HW checkpointing, checkpoint writes,
 * evictions, eviction prefill and nearest-first resume.
 *
 * Every rule follows the scalar tracer's Python semantics exactly:
 *   - the k-buffer inserts at bisect_right on t and drains sorted by
 *     (t, gid); a full buffer rejects a hit at or beyond its farthest;
 *   - checkpoints resume in a stable sort on t only (ties in write order);
 *   - the eviction drain drops t < t_min and t == t_min entries of
 *     frontier Gaussians and keeps each gid's first minimum-t entry;
 *   - blending multiplies T *= 1.0 - alpha (build with -ffp-contract=off);
 *   - every comparison is written as in Python, so NaN and inf compare
 *     the same way.
 *
 * Fetch records (7 int64 words each), prefetch pairs, per-round counters
 * and per-ray totals go to caller-owned arrays. Records and pairs past
 * ev_cap/pf_cap are counted but not written: the caller re-runs the chunk
 * with arrays of the returned size. Returns 0, -1 when a (ray, gid) key
 * is missing from a table, or -2 when scratch memory runs out.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Template entry kinds and checkpoint tags (tracerecord's _T_* / _CK_*). */
enum { T_NODE, T_NODE_PF, T_TRI_LEAF, T_CUSTOM_LEAF, T_TLAS_LEAF };
enum { CK_TEMPLATE, CK_INSTANCE, CK_BLAS };
/* Per-round counters: record and pair ends, then the RoundTrace counts. */
enum { R_EV, R_PF, R_ANYHIT, R_KBOPS, R_FP, R_BLENDED, R_CKPT, R_EVICT,
       R_FIELDS };
/* Per-ray totals. */
enum { Y_ROUNDS, Y_INTERNAL, Y_LEAF, Y_CKPT_HW, Y_EVICT_HW, Y_FIELDS };

typedef struct {
    int64_t k, max_rounds, hw, single, sphere, leaf_header, inst_bytes;
    int64_t n_rays, ev_cap, pf_cap, n_ev, n_pf, n_rounds;
    double transmittance_min;
    /* per structure: fixed-width records (7 words) and leaf columns */
    const int64_t *node_rec, *leaf_rec, *bnode_rec, *bleaf_rec;
    const int64_t *sphere_rec, *inst_rec;
    const int64_t *leaf_addr, *leaf_bytes, *leaf_start, *leaf_count, *gids;
    /* root templates (CSR, global indices) and triangle-leaf hits */
    const int64_t *ptr, *ref, *skip, *kptr, *kids, *hptr, *hit_g;
    const double *tn, *tf, *cmax, *hit_t, *t_clip;
    const int8_t *kind;
    /* shared mesh-BLAS templates, with each leaf's nearest hit depth */
    const int64_t *bref, *bskip, *bkptr, *bkids;
    const double *btn, *btf, *bcmax, *bbest;
    const int8_t *bkind;
    /* per ray, sorted by gid: any-hit results and instance root boxes */
    const int64_t *eptr, *egid, *iptr, *igid, *iroot;
    const double *et, *ealpha, *itn, *itf;
    const int8_t *evalid;
    /* outputs and zeroed scratch */
    int64_t *events, *pf, *rounds, *rays, *pre;
    int8_t *seen;
} walk_t;

typedef struct { double t; int64_t gid; double alpha; int64_t seq; } entry_t;
typedef struct { double t; int64_t tag, a, b, c, seq; } ckpt_t;

typedef struct {
    void *p;
    int64_t n, cap, size;
} vec_t;

typedef struct {
    walk_t *w;
    int64_t ray, stamp, err, *rnd, *tot;
    double t_clip, t_min, t_max;
    int collect_all;
    entry_t *kb;      /* the k-buffer, k + 1 slots, ascending t */
    int64_t kb_n, kb_ins;
    vec_t hits, frontier, ev_out, ev_src, ck_out, ck_src;
} sim_t;

/* Append a copy of *x to v; flags s->err when memory runs out. */
static void push(sim_t *s, vec_t *v, const void *x)
{
    if (v->n == v->cap) {
        int64_t cap = v->cap ? 2 * v->cap : 16;
        void *p = realloc(v->p, (size_t)(cap * v->size));
        if (p == NULL) {
            s->err = -2;
            return;
        }
        v->p = p;
        v->cap = cap;
    }
    memcpy((char *)v->p + v->size * v->n++, x, (size_t)v->size);
}

/* Three-way compare with Python's < (NaN compares equal to everything). */
#define CMP(a, b) (((b) < (a)) - ((a) < (b)))

static void emit(walk_t *w, const int64_t *rec, int64_t addr, int64_t npf)
{
    if (w->n_ev + 7 <= w->ev_cap) {
        int64_t *out = w->events + w->n_ev;
        memcpy(out, rec, 7 * sizeof(int64_t));
        if (addr >= 0)
            out[0] = addr;
        if (npf >= 0)
            out[6] = npf;
    }
    w->n_ev += 7;
}

static int64_t find(const int64_t *ptr, const int64_t *gid, int64_t ray,
                    int64_t g)
{
    int64_t lo = ptr[ray], hi = ptr[ray + 1];
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (gid[mid] < g)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < ptr[ray + 1] && gid[lo] == g ? lo : -1;
}

static int in_frontier(sim_t *s, int64_t gid)
{
    const int64_t *f = s->frontier.p;
    for (int64_t i = 0; i < s->frontier.n; i++)
        if (f[i] == gid)
            return 1;
    return 0;
}

static void checkpoint(sim_t *s, double t, int64_t tag, int64_t a, int64_t b,
                       int64_t c)
{
    push(s, &s->ck_out, &(ckpt_t){t, tag, a, b, c, 0});
    s->rnd[R_CKPT]++;
}

/* KBuffer.insert: 1 and *rejected when an entry is rejected. */
static int kb_insert(sim_t *s, entry_t e, entry_t *rejected)
{
    entry_t *kb = s->kb;
    int64_t n = s->kb_n, lo = 0, hi = n;
    s->kb_ins++;
    if (n >= s->w->k && e.t >= kb[n - 1].t) {
        *rejected = e;
        return 1;
    }
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (e.t < kb[mid].t)
            hi = mid;
        else
            lo = mid + 1;
    }
    memmove(kb + lo + 1, kb + lo, (size_t)(n - lo) * sizeof(entry_t));
    kb[lo] = e;
    if (++s->kb_n > s->w->k) {
        *rejected = kb[--s->kb_n];
        return 1;
    }
    return 0;
}

/* Tracer._anyhit: 1 and *beyond when the hit fails t_max (the caller
   checkpoints its enclosing node). */
static int anyhit(sim_t *s, int64_t gid, int has_depth, double depth,
                  double *beyond)
{
    walk_t *w = s->w;
    int64_t e = find(w->eptr, w->egid, s->ray, gid);
    if (e < 0) {
        s->err = -1;
        return 0;
    }
    if (!w->evalid[e]) {
        s->rnd[R_FP]++;
        return 0;
    }
    double t = has_depth ? depth : w->et[e];
    if (t > s->t_clip)
        return 0;
    entry_t hit = {t, gid, w->ealpha[e], 0};
    if (s->collect_all) {
        if (t > s->t_min && !w->seen[e]) {
            w->seen[e] = 1;
            s->rnd[R_ANYHIT]++;
            push(s, &s->hits, &hit);
        }
        return 0;
    }
    if (t < s->t_min || (t == s->t_min && in_frontier(s, gid)))
        return 0;
    if (t > s->t_max) {
        *beyond = t;
        return 1;
    }
    for (int64_t i = 0; i < s->kb_n; i++)
        if (s->kb[i].gid == gid)
            return 0;
    s->rnd[R_ANYHIT]++;
    entry_t rejected;
    if (kb_insert(s, hit, &rejected)) {
        if (w->hw)
            push(s, &s->ev_out, &rejected);
        if (rejected.gid == gid)
            s->t_max = t;
    }
    return 0;
}

/* One shared-BLAS sub-traversal from BLAS entry i, taken unconditionally;
   t_max is frozen inside, so a child failing it is checkpointed at its
   parent in slot order. *best is the nearest leaf hit depth (inf: none). */
static void walk_blas(sim_t *s, int64_t i, int64_t gid, int64_t inst_addr,
                      int64_t *n_int, int64_t *n_leaf, double *best)
{
    walk_t *w = s->w;
    int64_t end = w->bskip[i];
    double t_min = s->t_min, t_max = s->t_max;
    *best = INFINITY;
    for (;;) {
        int64_t ref = w->bref[i];
        if (w->bkind[i] == T_NODE) {
            if (w->hw && w->bcmax[i] > t_max)
                for (int64_t j = w->bkptr[i]; j < w->bkptr[i + 1]; j++) {
                    int64_t c = w->bkids[j];
                    if (w->btf[c] >= t_min && w->btn[c] > t_max)
                        checkpoint(s, w->btn[c], CK_BLAS, gid, inst_addr, c);
                }
            emit(w, w->bnode_rec + 7 * ref, -1, -1);
            ++*n_int;
        } else {
            emit(w, w->bleaf_rec + 7 * ref, -1, -1);
            ++*n_leaf;
            if (w->bbest[i] < *best)
                *best = w->bbest[i];
        }
        i++;
        while (i < end && (w->btf[i] < t_min || w->btn[i] > t_max))
            i = w->bskip[i];
        if (i >= end)
            break;
    }
}

/* Tracer._process_instance: the shared-BLAS test of one instance. */
static void instance(sim_t *s, int64_t gid, int64_t inst_addr,
                     int64_t *n_int, int64_t *n_leaf)
{
    walk_t *w = s->w;
    int64_t e = find(w->iptr, w->igid, s->ray, gid);
    double t, tn, tf;
    if (e < 0) {
        s->err = -1;
        return;
    }
    tn = w->itn[e];
    tf = w->itf[e];
    if (w->sphere) {
        emit(w, w->sphere_rec, -1, -1);
        ++*n_leaf;
    }
    if (tn > tf || tf < s->t_min || tf < 0.0 || tn > s->t_clip)
        return;
    if (tn > s->t_max) {
        if (w->hw)
            checkpoint(s, tn, CK_INSTANCE, gid, inst_addr, 0);
        return;
    }
    if (w->sphere) {
        if (anyhit(s, gid, 0, 0.0, &t) && w->hw)
            checkpoint(s, t, CK_INSTANCE, gid, inst_addr, 0);
        return;
    }
    double best;
    if (w->iroot[e] < 0)
        return;
    walk_blas(s, w->iroot[e], gid, inst_addr, n_int, n_leaf, &best);
    if (best < INFINITY && anyhit(s, gid, 1, best, &t) && w->hw)
        checkpoint(s, t, CK_INSTANCE, gid, inst_addr, 0);
}

/* Walk root-template entry i's subtree [i, skip[i]); entry i itself is
   taken unconditionally (the round's root or a resumed checkpoint). */
static void walk(sim_t *s, int64_t i)
{
    walk_t *w = s->w;
    int64_t end = w->skip[i], n_int = 0, n_leaf = 0;
    double t;
    for (;;) {
        int kind = w->kind[i];
        int64_t ref = w->ref[i];
        if (kind <= T_NODE_PF) {
            if (w->hw && w->cmax[i] > s->t_max)
                /* Children failing t_max at the parent, slot order. */
                for (int64_t j = w->kptr[i]; j < w->kptr[i + 1]; j++) {
                    int64_t c = w->kids[j];
                    if (w->tf[c] >= s->t_min && w->tn[c] > s->t_max) {
                        checkpoint(s, w->tn[c], CK_TEMPLATE, c, 0, 0);
                        w->pre[c] = s->stamp;
                    }
                }
            int64_t npf = -1;
            if (kind == T_NODE_PF) {
                npf = 0;
                for (int64_t j = w->kptr[i]; j < w->kptr[i + 1]; j++) {
                    int64_t c = w->kids[j];
                    if (w->kind[c] > T_NODE_PF && w->tf[c] >= s->t_min
                            && w->tn[c] <= s->t_max) {
                        if (w->n_pf + 2 <= w->pf_cap) {
                            w->pf[w->n_pf] = w->leaf_addr[w->ref[c]];
                            w->pf[w->n_pf + 1] = w->leaf_bytes[w->ref[c]];
                        }
                        w->n_pf += 2;
                        npf++;
                    }
                }
            }
            emit(w, w->node_rec + 7 * ref, -1, npf);
            n_int++;
        } else {
            double beyond = INFINITY;
            emit(w, w->leaf_rec + 7 * ref, -1, -1);
            n_leaf++;
            if (kind == T_TRI_LEAF) {
                for (int64_t j = w->hptr[i]; j < w->hptr[i + 1]; j++)
                    if (anyhit(s, w->hit_g[j], 1, w->hit_t[j], &t)
                            && t < beyond)
                        beyond = t;
            } else if (kind == T_CUSTOM_LEAF) {
                int64_t start = w->leaf_start[ref];
                for (int64_t j = start; j < start + w->leaf_count[ref]; j++)
                    if (anyhit(s, w->gids[j], 0, 0.0, &t) && t < beyond)
                        beyond = t;
            } else {
                int64_t start = w->leaf_start[ref];
                int64_t base = w->leaf_addr[ref] + w->leaf_header;
                for (int64_t j = 0; j < w->leaf_count[ref]; j++)
                    instance(s, w->gids[start + j], base + j * w->inst_bytes,
                             &n_int, &n_leaf);
            }
            if (w->hw && beyond < INFINITY)
                checkpoint(s, beyond, CK_TEMPLATE, i, 0, 0);
        }
        /* Skip subtrees failing the round's interval; one failing t_max
           at its pop is checkpointed (unless its parent did). */
        i++;
        while (i < end) {
            if (w->tf[i] < s->t_min) {
                i = w->skip[i];
            } else if (w->tn[i] > s->t_max) {
                if (w->hw && w->pre[i] != s->stamp)
                    checkpoint(s, w->tn[i], CK_TEMPLATE, i, 0, 0);
                i = w->skip[i];
            } else {
                break;
            }
        }
        if (i >= end)
            break;
    }
    s->tot[Y_INTERNAL] += n_int;
    s->tot[Y_LEAF] += n_leaf;
}

/* Sort orders; seq (the write order) breaks every remaining tie, so
   qsort gives the stable sort Python's sorted does. */
static int by_t_gid(const void *pa, const void *pb)
{
    const entry_t *a = pa, *b = pb;
    int c = CMP(a->t, b->t);
    return c ? c : a->gid != b->gid ? CMP(a->gid, b->gid) : CMP(a->seq, b->seq);
}

static int by_gid_t(const void *pa, const void *pb)
{
    const entry_t *a = pa, *b = pb;
    int c = a->gid != b->gid ? CMP(a->gid, b->gid) : CMP(a->t, b->t);
    return c ? c : CMP(a->seq, b->seq);
}

static int by_t(const void *pa, const void *pb)
{
    const ckpt_t *a = pa, *b = pb;
    int c = CMP(a->t, b->t);
    return c ? c : CMP(a->seq, b->seq);
}

/* Tracer._prefill_from_evictions: the first k evicted entries seed the
   k-buffer, the first beyond them sets t_max, the rest carry over. */
static void prefill(sim_t *s)
{
    const entry_t *src = s->ev_src.p;
    entry_t rejected;
    for (int64_t i = 0; i < s->ev_src.n; i++) {
        if (i < s->w->k) {
            kb_insert(s, src[i], &rejected);
            continue;
        }
        if (i == s->w->k)
            s->t_max = src[i].t;
        push(s, &s->ev_out, &src[i]);
    }
}

/* Tracer._replay_checkpoints: resume nearest first, each checkpoint to
   completion; one still beyond t_max is written again. */
static void resume(sim_t *s)
{
    walk_t *w = s->w;
    ckpt_t *src = s->ck_src.p;
    double t, best;
    for (int64_t i = 0; i < s->ck_src.n; i++)
        src[i].seq = i;
    qsort(src, (size_t)s->ck_src.n, sizeof(ckpt_t), by_t);
    for (int64_t i = 0; i < s->ck_src.n && !s->err; i++) {
        ckpt_t ck = src[i];
        if (ck.t > s->t_max) {
            checkpoint(s, ck.t, ck.tag, ck.a, ck.b, ck.c);
            continue;
        }
        if (ck.tag == CK_TEMPLATE) {
            walk(s, ck.a);
            continue;
        }
        /* Re-fetch the instance record to recover the transform. */
        emit(w, w->inst_rec, ck.b, -1);
        s->tot[Y_LEAF]++;
        if (ck.tag == CK_INSTANCE) {
            instance(s, ck.a, ck.b, &s->tot[Y_INTERNAL], &s->tot[Y_LEAF]);
        } else {
            walk_blas(s, ck.c, ck.a, ck.b, &s->tot[Y_INTERNAL],
                      &s->tot[Y_LEAF], &best);
            if (best < INFINITY && anyhit(s, ck.a, 1, best, &t))
                checkpoint(s, t, CK_INSTANCE, ck.a, ck.b, 0);
        }
    }
}

/* EvictionBuffer.drain_sorted of ev_out into ev_src. */
static void drain_sorted(sim_t *s)
{
    entry_t *out = s->ev_out.p, *src;
    int64_t n = 0;
    s->ev_src.n = 0;
    for (int64_t i = 0; i < s->ev_out.n; i++) {
        entry_t e = out[i];
        e.seq = i;
        if (!(e.t < s->t_min || (e.t == s->t_min && in_frontier(s, e.gid))))
            push(s, &s->ev_src, &e);
    }
    src = s->ev_src.p;
    qsort(src, (size_t)s->ev_src.n, sizeof(entry_t), by_gid_t);
    for (int64_t i = 0; i < s->ev_src.n; i++)
        if (i == 0 || src[i].gid != src[i - 1].gid)
            src[n++] = src[i];
    s->ev_src.n = n;
    qsort(src, (size_t)n, sizeof(entry_t), by_t_gid);
}

static void begin_round(sim_t *s, double t_min)
{
    walk_t *w = s->w;
    s->rnd = w->rounds + R_FIELDS * w->n_rounds++;
    memset(s->rnd, 0, R_FIELDS * sizeof(int64_t));
    s->tot[Y_ROUNDS]++;
    s->t_min = t_min;
    s->t_max = INFINITY;
    s->kb_n = s->kb_ins = 0;
    s->hits.n = s->ev_out.n = s->ck_out.n = 0;
    s->stamp++;
}

static void end_walk(sim_t *s)
{
    s->rnd[R_EV] = s->w->n_ev;
    s->rnd[R_PF] = s->w->n_pf;
}

/* The scalar blend loop minus color math; returns 1 on termination. */
static int blend(sim_t *s, const entry_t *e, int64_t n, double *transmittance)
{
    for (int64_t i = 0; i < n; i++) {
        *transmittance *= 1.0 - e[i].alpha;
        s->rnd[R_BLENDED]++;
        if (*transmittance < s->w->transmittance_min)
            return 1;
    }
    return 0;
}

static void single_round(sim_t *s)
{
    double transmittance = 1.0;
    begin_round(s, 0.0);
    s->collect_all = 1;
    walk(s, s->w->ptr[s->ray]);
    end_walk(s);
    qsort(s->hits.p, (size_t)s->hits.n, sizeof(entry_t), by_t_gid);
    s->rnd[R_KBOPS] += s->hits.n;
    blend(s, s->hits.p, s->hits.n, &transmittance);
}

static void multi_round(sim_t *s)
{
    walk_t *w = s->w;
    double t_min = 0.0, transmittance = 1.0;
    s->collect_all = 0;
    s->frontier.n = s->ck_src.n = s->ev_src.n = 0;
    for (int64_t round = 0; round < w->max_rounds && !s->err; round++) {
        begin_round(s, t_min);
        if (w->hw && round > 0) {
            prefill(s);
            resume(s);
        } else {
            walk(s, w->ptr[s->ray]);
        }
        end_walk(s);
        qsort(s->kb, (size_t)s->kb_n, sizeof(entry_t), by_t_gid);
        s->rnd[R_KBOPS] += s->kb_ins;
        if (w->hw) {
            s->rnd[R_EVICT] += s->ev_out.n;
            if (s->ev_out.n > s->tot[Y_EVICT_HW])
                s->tot[Y_EVICT_HW] = s->ev_out.n;
            if (s->ck_out.n > s->tot[Y_CKPT_HW])
                s->tot[Y_CKPT_HW] = s->ck_out.n;
        }
        if (s->kb_n == 0 || blend(s, s->kb, s->kb_n, &transmittance))
            break;
        double last_t = s->kb[s->kb_n - 1].t;
        if (!(last_t == t_min))
            s->frontier.n = 0;
        for (int64_t i = 0; i < s->kb_n; i++)
            if (s->kb[i].t == last_t && !in_frontier(s, s->kb[i].gid))
                push(s, &s->frontier, &s->kb[i].gid);
        t_min = s->t_min = last_t;
        if (s->kb_n < w->k)
            break;
        if (w->hw) {
            vec_t done = s->ck_src;
            s->ck_src = s->ck_out;
            s->ck_out = done;
            drain_sorted(s);
            if (s->ck_src.n == 0 && s->ev_src.n == 0)
                break;
        }
    }
}

int64_t round_walk(walk_t *w)
{
    sim_t s = {.w = w};
    s.hits.size = s.ev_out.size = s.ev_src.size = sizeof(entry_t);
    s.ck_out.size = s.ck_src.size = sizeof(ckpt_t);
    s.frontier.size = sizeof(int64_t);
    s.kb = malloc((size_t)(w->k + 1) * sizeof(entry_t));
    if (s.kb == NULL)
        return -2;
    w->n_ev = w->n_pf = w->n_rounds = 0;
    for (int64_t r = 0; r < w->n_rays && !s.err; r++) {
        s.ray = r;
        s.t_clip = w->t_clip[r];
        s.tot = w->rays + Y_FIELDS * r;
        memset(s.tot, 0, Y_FIELDS * sizeof(int64_t));
        if (w->single)
            single_round(&s);
        else
            multi_round(&s);
    }
    free(s.kb);
    free(s.hits.p), free(s.frontier.p), free(s.ev_out.p);
    free(s.ev_src.p), free(s.ck_out.p), free(s.ck_src.p);
    return s.err;
}
