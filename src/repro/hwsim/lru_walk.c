/*
 * The exact cache walk of repro.hwsim.replay, compiled.
 *
 * One call walks one replay chunk: its fetch events in processing order,
 * each (round, warp) segment contiguous. Per event it applies the rules
 * of replay_reference, event for event:
 *
 *   - the segment's MSHR-like merge window, an LRU list of at most
 *     merge_cap addresses that resets at every segment boundary;
 *   - an unmerged event's demand access of each of its lines through the
 *     segment SM's L1 and the shared L2, and on a miss of a treelet root
 *     the treelet prefetch;
 *   - the sibling prefetch of every pair the window does not hold, merged
 *     events included.
 *
 * The merge window is a recency list: element 0 is the most recently
 * used address. A cache set keeps its recency order as a doubly linked
 * list over its way slots, head the MRU way and tail the LRU victim, and
 * the caches find a line's slot through an open-addressed (set, line)
 * table with linear probing, so every access is O(1) in the ways. The
 * caches' slots, lists and tables and the per-line demand map live in
 * caller-owned arrays and the counters in the walk_t, so all of them
 * carry from one chunk to the next. The code is integer only: the caller
 * charges banked-DRAM latencies from the DRAM accesses listed in
 * dram_line/dram_ev and does the floating point.
 */
#include <stdint.h>
#include <string.h>

typedef struct {
    int64_t *tag;         /* sets * ways line slots, set-major */
    int64_t *fill;        /* filled ways per set; slots fill in order */
    int32_t *prev, *next; /* per slot: its recency neighbours, -1 at ends */
    int32_t *head, *tail; /* per set: MRU and LRU slot, -1 while empty */
    int32_t *table;       /* 2^bits entries: a slot, or -1 for empty */
    int64_t sets, ways, bits;
} lru_t;

typedef struct {
    lru_t l1, l2; /* l1 holds n_sms * sets sets, SM-major */
    int64_t l1_accesses, l1_hits, l2_accesses, dram_accesses, prefetches;
    int64_t line_bytes, l1_lat, l2_lat, dram_lat, merge_cap, prefetch;
    /* treelet_map as CSR over its sorted roots (n_roots 0: no map) */
    int64_t n_roots;
    const int64_t *root, *root_off, *tl_first, *tl_last;
    /* the chunk */
    int64_t n_events;
    const int64_t *seg, *seg_sm, *addr, *first, *last;
    const int64_t *npf, *pf_start, *pf_addr, *pf_nbytes;
    int64_t *window; /* max(merge_cap, 1) caller-owned entries */
    /* per event: merged flag and latency; DRAM accesses in order, with
       the demand event or -1 for a treelet prefetch (dram_line NULL:
       not listed) */
    uint8_t *merged;
    int64_t *lat, *dram_line, *dram_ev;
    int64_t n_dram;
    /* demand footprint: a flag per line up to the chunk's last line and
       the count of lines flagged. Only unmerged events' demand lines
       count: merged requests ride the in-flight original, and prefetched
       lines are not demanded. */
    uint8_t *seen;
    int64_t footprint;
} walk_t;

static int64_t find(const int64_t *v, int64_t n, int64_t x)
{
    for (int64_t i = 0; i < n; i++)
        if (v[i] == x)
            return i;
    return -1;
}

/* Make x the front (MRU) entry in place of v[i], shifting v[0..i) back. */
static void to_front(int64_t *v, int64_t i, int64_t x)
{
    memmove(v + 1, v, (size_t)i * sizeof *v);
    v[0] = x;
}

/* The table entry a (set, line) key hashes to: the top bits of a
   Fibonacci-hashing product, which spreads runs of consecutive lines. */
static uint64_t home(const lru_t *c, int64_t set, int64_t line)
{
    uint64_t key = (uint64_t)line ^ (uint64_t)set << 48;
    return key * 0x9E3779B97F4A7C15u >> (64 - c->bits);
}

/* The table entry holding set's slot of line, or the empty entry that
   ends the line's probe chain. */
static uint64_t probe(const lru_t *c, int64_t set, int64_t line)
{
    uint64_t mask = ((uint64_t)1 << c->bits) - 1;
    uint64_t i = home(c, set, line);
    int64_t s;
    while ((s = c->table[i]) >= 0
           && !(c->tag[s] == line
                && (uint64_t)(s - set * c->ways) < (uint64_t)c->ways))
        i = (i + 1) & mask;
    return i;
}

/* Drop line's table entry, shifting later entries of the probe run back
   into the hole so every chain stays unbroken. */
static void forget(lru_t *c, int64_t set, int64_t line)
{
    uint64_t mask = ((uint64_t)1 << c->bits) - 1;
    uint64_t i = probe(c, set, line);
    for (uint64_t j = (i + 1) & mask; c->table[j] >= 0; j = (j + 1) & mask) {
        int64_t s = c->table[j];
        uint64_t k = home(c, s / c->ways, c->tag[s]);
        if (((j - k) & mask) >= ((j - i) & mask)) {
            c->table[i] = s;
            i = j;
        }
    }
    c->table[i] = -1;
}

static void unlink_slot(lru_t *c, int64_t set, int64_t s)
{
    int64_t p = c->prev[s], n = c->next[s];
    if (p >= 0)
        c->next[p] = n;
    else
        c->head[set] = n;
    if (n >= 0)
        c->prev[n] = p;
    else
        c->tail[set] = p;
}

/* Make slot s the set's MRU way. */
static void push_front(lru_t *c, int64_t set, int64_t s)
{
    int64_t h = c->head[set];
    c->prev[s] = -1;
    c->next[s] = h;
    if (h >= 0)
        c->prev[h] = s;
    else
        c->tail[set] = s;
    c->head[set] = s;
}

static int holds(const lru_t *c, int64_t set, int64_t line)
{
    return c->table[probe(c, set, line)] >= 0;
}

/* Install an absent line as the set's MRU way, evicting the LRU way of a
   full set. */
static void insert(lru_t *c, int64_t set, int64_t line)
{
    int64_t s;
    if (c->fill[set] < c->ways) {
        s = set * c->ways + c->fill[set]++;
    } else {
        s = c->tail[set];
        forget(c, set, c->tag[s]);
        unlink_slot(c, set, s);
    }
    c->tag[s] = line;
    c->table[probe(c, set, line)] = s;
    push_front(c, set, s);
}

/* Demand access: a hit makes the line MRU and returns 1; a miss installs
   it and returns 0. */
static int touch(lru_t *c, int64_t set, int64_t line)
{
    int64_t s = c->table[probe(c, set, line)];
    if (s < 0) {
        insert(c, set, line);
        return 0;
    }
    if (s != c->head[set]) {
        unlink_slot(c, set, s);
        push_front(c, set, s);
    }
    return 1;
}

static void dram(walk_t *w, int64_t line, int64_t ev)
{
    w->dram_accesses++;
    if (w->dram_line) {
        w->dram_line[w->n_dram] = line;
        w->dram_ev[w->n_dram++] = ev;
    }
}

/* Prefetch lines [first, last] into an L1 through the L2, off the
   critical path. Lines the L1 holds are skipped and not promoted. */
static void stage(walk_t *w, int64_t l1_base, int64_t first, int64_t last,
                  int listed)
{
    for (int64_t line = first; line <= last; line++) {
        int64_t set = l1_base + line % w->l1.sets;
        if (holds(&w->l1, set, line))
            continue;
        w->prefetches++;
        w->l2_accesses++;
        if (!touch(&w->l2, line % w->l2.sets, line)) {
            if (listed)
                dram(w, line, -1);
            else
                w->dram_accesses++;
        }
        insert(&w->l1, set, line);
    }
}

/* Index of a treelet root address, or -1. */
static int64_t root_of(const walk_t *w, int64_t addr)
{
    int64_t lo = 0, hi = w->n_roots;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (w->root[mid] < addr)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < w->n_roots && w->root[lo] == addr ? lo : -1;
}

/* The demand access of event i; returns its latency. */
static int64_t demand(walk_t *w, int64_t i, int64_t l1_base)
{
    int64_t latency = 0;
    for (int64_t line = w->first[i]; line <= w->last[i]; line++) {
        int64_t lat;
        if (!w->seen[line]) {
            w->seen[line] = 1;
            w->footprint++;
        }
        w->l1_accesses++;
        if (touch(&w->l1, l1_base + line % w->l1.sets, line)) {
            w->l1_hits++;
            lat = w->l1_lat;
        } else {
            w->l2_accesses++;
            if (touch(&w->l2, line % w->l2.sets, line)) {
                lat = w->l2_lat;
            } else {
                dram(w, line, i);
                lat = w->dram_lat;
            }
        }
        if (lat > latency)
            latency = lat;
    }
    if (w->n_roots && latency > w->l1_lat) {
        int64_t r = root_of(w, w->addr[i]);
        if (r >= 0)
            for (int64_t p = w->root_off[r]; p < w->root_off[r + 1]; p++)
                stage(w, l1_base, w->tl_first[p], w->tl_last[p], 1);
    }
    return latency;
}

/* Walk one chunk; returns the number of DRAM accesses listed. */
int64_t lru_walk(walk_t *w)
{
    int64_t seg = -1, l1_base = 0, n = 0;
    int64_t *win = w->window;
    w->n_dram = 0;
    for (int64_t i = 0; i < w->n_events; i++) {
        if (w->seg[i] != seg) {
            seg = w->seg[i];
            l1_base = w->seg_sm[seg] * w->l1.sets;
            n = 0;
        }
        int64_t a = w->addr[i], k = find(win, n, a);
        w->merged[i] = k >= 0;
        if (k >= 0) {
            /* refresh recency: hot nodes keep merging while in flight */
            to_front(win, k, a);
            w->lat[i] = 0;
        } else {
            if (w->merge_cap > 0) {
                if (n < w->merge_cap)
                    n++;
                to_front(win, n - 1, a);
            }
            w->lat[i] = demand(w, i, l1_base);
        }
        if (!w->prefetch)
            continue;
        for (int64_t j = w->pf_start[i]; j < w->pf_start[i] + w->npf[i]; j++) {
            int64_t pa = w->pf_addr[j], pb = w->pf_nbytes[j];
            if (find(win, n, pa) < 0)
                stage(w, l1_base, pa / w->line_bytes,
                      (pa + (pb > 1 ? pb : 1) - 1) / w->line_bytes, 0);
        }
    }
    return w->n_dram;
}
