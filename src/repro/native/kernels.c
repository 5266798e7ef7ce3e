/* Native hot-path kernels for the cycle-level NoC simulator.
 *
 * Compiled on demand (see build.py) and loaded through ctypes; every
 * function operates directly on the simulator's numpy buffers through a
 * pointer table, so Python-side views stay coherent without copies.
 *
 * BIT-IDENTITY CONTRACT: each kernel replicates the corresponding
 * pure-numpy phase exactly — same arbitration tie-breaks (numpy argmin /
 * argmax take the first occurrence; stable argsort keeps column order),
 * same order of floating-point operations, same statistics accumulation.
 * Any semantic change here must keep tests/test_native_backend.py's
 * numpy-vs-native equivalence suite green.
 *
 * ABI: one entry point, noc_span(void **pt, const long long *cfg,
 * long long *ctr, long long cycle), at the end of the file.  `pt` is the
 * pointer table, `cfg` immutable configuration constants, `ctr` mutable
 * 64-bit counters mirrored back onto the Python stats objects.  Every
 * phase is a static function; a call runs ctr[CTR_SPAN] cycles of the
 * phases named in ctr[CTR_PHASES], so a whole epoch and one observed
 * phase of one cycle go through the same bodies.
 *
 * Python owns every ABI fact.  This file defines none of them: the
 * PT_, CFG_, FCFG_ and CTR_ slot indices (positions in accel.py's
 * tables), the flit layout (repro.network.flit), the grid port numbers
 * (repro.topology.mesh), KIND_, ARB_, LOC_ and ERR_ codes and the size
 * constants all arrive as -DNAME=value from
 * repro.native.build, so a name used here that Python does not supply
 * fails the compile.
 */

#include <stdint.h>
#include <string.h>
#include <math.h>

#ifndef PT_RING_META
#error "kernels.c has no ABI of its own: build through repro.native.build"
#endif

/* numpy's bit-generator interface and the distribution functions of
 * its libnpyrandom (numpy/random/distributions.h, which cannot be
 * included without Python.h).  Drawing through them on the simulator's
 * own generators is what keeps the kernels on the reference RNG
 * streams: no distribution is re-implemented here. */
#include <numpy/random/bitgen.h>
extern double random_lognormal(bitgen_t *rng, double mean, double sigma);
extern double random_exponential(bitgen_t *rng, double scale);
extern double random_pareto(bitgen_t *rng, double a);
extern int64_t random_geometric(bitgen_t *rng, double p);
extern uint64_t random_bounded_uint64(bitgen_t *rng, uint64_t off,
                                      uint64_t range, uint64_t mask,
                                      bool use_masked);
extern void random_bounded_uint64_fill(bitgen_t *rng, uint64_t off,
                                       uint64_t range, intptr_t cnt,
                                       bool use_masked, uint64_t *out);

typedef long long i64;

static int check_abi(const i64 *cfg, i64 *ctr)
{
    if (cfg[CFG_P] + 1 > MAX_PORTS) {
        ctr[CTR_ERROR] = ERR_TOO_MANY_PORTS;
        return 0;
    }
    return 1;
}

/* ------------------------------------------------------------------ */
/* Shared pieces                                                       */
/* ------------------------------------------------------------------ */

/* The cycle's ejection batch (PT_EJ_*), the per-node record of who was
 * handed a congestion bit (RouterEngine.cbit_seen), and the latency
 * statistics, tallied in registers and folded into ctr[] once per call. */
typedef struct {
    i64 *node, *src, *kind, *seq, *hist;
    unsigned char *seen;
    i64 flits, lat_sum, lat_max, hops_sum;
} Ejection;

static inline Ejection ejection_begin(void **pt, const i64 *ctr)
{
    Ejection ej = {
        (i64 *)pt[PT_EJ_NODE], (i64 *)pt[PT_EJ_SRC], (i64 *)pt[PT_EJ_KIND],
        (i64 *)pt[PT_EJ_SEQ], (i64 *)pt[PT_LAT_HIST],
        (unsigned char *)pt[PT_CBIT_SEEN], 0, 0, ctr[CTR_LAT_MAX], 0,
    };
    return ej;
}

/* Deliver one flit at `node` as entry k of the batch. */
static inline void eject_flit(Ejection *ej, i64 k, i64 node, i64 meta,
                              i64 lat)
{
    ej->node[k] = node;
    ej->src[k] = (meta >> SRC_SHIFT) & NODE_MASK;
    ej->kind[k] = (meta >> KIND_SHIFT) & KIND_MASK;
    ej->seq[k] = (meta >> SEQ_SHIFT) & SEQ_MASK;
    if (meta & CBIT)
        ej->seen[node] = 1;
    ej->flits += 1;
    ej->lat_sum += lat;
    if (lat > ej->lat_max)
        ej->lat_max = lat;
    ej->hist[lat > HIST_BUCKETS - 1 ? HIST_BUCKETS - 1 : lat] += 1;
    ej->hops_sum += (meta >> HOPS_SHIFT) & HOPS_MASK;
}

static inline void ejection_end(const Ejection *ej, i64 *ctr, i64 count)
{
    ctr[CTR_EJ_COUNT] = count;
    ctr[CTR_EJ_FLITS] += ej->flits;
    ctr[CTR_LAT_SUM] += ej->lat_sum;
    ctr[CTR_LAT_CNT] += ej->flits;
    ctr[CTR_LAT_MAX] = ej->lat_max;
    ctr[CTR_HOPS_SUM] += ej->hops_sum;
}

/* Productive ports of a flit at `node` heading to `dest`
 * (topology.productive_ports): -1 where there is none.  Which form
 * answers is a property of the topology, not a setting: closed-form
 * grids (Mesh2D, Torus2D) compare coordinates and carry no table,
 * graph topologies gather from their (n, n) tables. */
typedef struct {
    int grid, wraps;
    i64 n, w, h;
    const int32_t *cx, *cy;
    const signed char *p0tab, *p1tab;
} Routes;

static inline Routes routes_load(void **pt, const i64 *cfg)
{
    Routes rt = {
        cfg[CFG_GRID2D] != 0, cfg[CFG_WRAPS] != 0,
        cfg[CFG_N], cfg[CFG_WIDTH], cfg[CFG_HEIGHT],
        (const int32_t *)pt[PT_COORD_X], (const int32_t *)pt[PT_COORD_Y],
        (const signed char *)pt[PT_P0TAB], (const signed char *)pt[PT_P1TAB],
    };
    return rt;
}

/* Torus2D.deltas on one axis: the shorter way round; a 2-wide axis
 * keeps only its positive link. */
static inline i64 wrap_delta(i64 d, i64 size)
{
    i64 half = size / 2;
    if (d > half)
        d -= size;
    else if (d < -half)
        d += size;
    return size == 2 && d < 0 ? -d : d;
}

static inline void route_ports(const Routes *rt, i64 node, i64 dest,
                               int *p0, int *p1)
{
    if (!rt->grid) {
        *p0 = rt->p0tab[node * rt->n + dest];
        *p1 = rt->p1tab[node * rt->n + dest];
        return;
    }
    /* XY order: the x port while dx != 0, the y port second.  dx and dy
     * are as good as random per flit, so the selection is arithmetic
     * (a 0/1 factor picks, OR with all-ones gives -1) rather than
     * branches the predictor would miss: worth 10 % of a 64-node run. */
    i64 dx = rt->cx[dest] - rt->cx[node];
    i64 dy = rt->cy[dest] - rt->cy[node];
    if (rt->wraps) {
        dx = wrap_delta(dx, rt->w);
        dy = wrap_delta(dy, rt->h);
    }
    int xp = PORT_WEST + (dx > 0) * (PORT_EAST - PORT_WEST);
    int yp = PORT_NORTH + (dy > 0) * (PORT_SOUTH - PORT_NORTH);
    int xnz = dx != 0, ynz = dy != 0;
    *p0 = (yp + xnz * (xp - yp)) | -(int)!(xnz | ynz);
    *p1 = yp | -(int)!(xnz & ynz);
}

/* Output port for a flit at `node`, out of the non-empty `free` link
 * mask: its productive port, else its other productive direction
 * (RouterEngine.pick_port), else the first free link (np.argmax),
 * counted in *deflections. */
static inline int output_port(const Routes *rt, i64 node, i64 dest,
                              uint64_t free, i64 *deflections)
{
    int p0, p1;
    route_ports(rt, node, dest, &p0, &p1);
    if (p0 >= 0 && (free >> p0 & 1))
        return p0;
    if (p1 >= 0 && (free >> p1 & 1))
        return p1;
    *deflections += 1;
    return __builtin_ctzll(free);
}

/* One NI queue (repro.network.queues.FlitQueueArray). */
typedef struct {
    const int32_t *dest;
    const int8_t *kind;
    int16_t *flits;
    const i64 *stamp;
    const int16_t *seq;
    int32_t *head, *count;
} Queue;

/* Take one flit from the head entry at `node` (take_flit): its meta
 * word without source or hops, and the entry's enqueue stamp. */
static inline i64 queue_take(const Queue *q, i64 qcap, i64 node, i64 *stamp)
{
    i64 h = q->head[node];
    i64 idx = node * qcap + h;
    i64 meta = (i64)q->dest[idx] | ((i64)q->kind[idx] << KIND_SHIFT)
               | ((i64)q->seq[idx] << SEQ_SHIFT);
    *stamp = q->stamp[idx];
    q->flits[idx] -= 1;
    if (q->flits[idx] == 0) {
        q->head[node] = (int32_t)(h + 1 == qcap ? 0 : h + 1);
        q->count[node] -= 1;
    }
    return meta;
}

/* Network-interface state both flow controls admit flits through. */
typedef struct {
    Queue resp, req;
    i64 qcap, sw, spos;
    int32_t *thr_counter;
    const double *thr_rate;
    unsigned char *starv_ring;
    int32_t *starv_sum;
    i64 *inj_per_node, *starved_cyc, *port_starved;
} NI;

/* Load the NI state for this cycle and advance the starvation meter's
 * write position (every node's bit goes to column `spos`). */
static inline NI ni_begin_cycle(void **pt, const i64 *cfg, i64 *ctr)
{
    NI ni = {
        {(const int32_t *)pt[PT_RESP_DEST], (const int8_t *)pt[PT_RESP_KIND],
         (int16_t *)pt[PT_RESP_FLITS], (const i64 *)pt[PT_RESP_STAMP],
         (const int16_t *)pt[PT_RESP_SEQ], (int32_t *)pt[PT_RESP_HEAD],
         (int32_t *)pt[PT_RESP_COUNT]},
        {(const int32_t *)pt[PT_REQ_DEST], (const int8_t *)pt[PT_REQ_KIND],
         (int16_t *)pt[PT_REQ_FLITS], (const i64 *)pt[PT_REQ_STAMP],
         (const int16_t *)pt[PT_REQ_SEQ], (int32_t *)pt[PT_REQ_HEAD],
         (int32_t *)pt[PT_REQ_COUNT]},
        cfg[CFG_QCAP], cfg[CFG_SW], ctr[CTR_SPOS],
        (int32_t *)pt[PT_THR_COUNTER], (const double *)pt[PT_THR_RATE],
        (unsigned char *)pt[PT_STARV_RING], (int32_t *)pt[PT_STARV_SUM],
        (i64 *)pt[PT_INJ_PER_NODE], (i64 *)pt[PT_STARVED_CYC],
        (i64 *)pt[PT_PORT_STARVED_CYC],
    };
    ctr[CTR_SPOS] = ni.spos + 1 == ni.sw ? 0 : ni.spos + 1;
    ctr[CTR_SSEEN] += 1;
    return ni;
}

/* NI admission at one node, for both flow controls
 * (RouterEngine.injection_stage + InjectionThrottleGate.decide,
 * starvation bookkeeping included): a response if there is one, else a
 * request the throttle gate lets through; `cap` says whether the router
 * can take a flit this cycle.  Returns 1 with the admitted flit (source
 * set, zero hops) in *meta and its enqueue stamp; the caller places it. */
static inline int ni_admit(const NI *ni, i64 node, int cap, i64 *meta,
                           i64 *stamp)
{
    int resp_has = ni->resp.count[node] > 0;
    int wanted = resp_has || ni->req.count[node] > 0;
    int go = wanted && cap;
    if (go && !resp_has) {
        /* Algorithm 3: the counter advances on every attempt. */
        int32_t c = (int32_t)((ni->thr_counter[node] + 1) % THROTTLE_MAX);
        ni->thr_counter[node] = c;
        go = (double)c >= ni->thr_rate[node] * THROTTLE_MAX;
    }
    if (go) {
        *meta = queue_take(resp_has ? &ni->resp : &ni->req, ni->qcap, node,
                           stamp)
                | (node << SRC_SHIFT);
        ni->inj_per_node[node] += 1;
    }
    /* Starvation meter (W-bit shift register) + stats. */
    int starved = wanted && !go;
    unsigned char *bit = ni->starv_ring + node * ni->sw + ni->spos;
    ni->starv_sum[node] += (int32_t)starved - (int32_t)*bit;
    *bit = (unsigned char)starved;
    ni->starved_cyc[node] += starved;
    ni->port_starved[node] += wanted && !cap;
    return go;
}

/* ------------------------------------------------------------------ */
/* FLIT-BLESS network step (DeflectFlowControl.step)                   */
/* ------------------------------------------------------------------ */
/* One pass per router.  A deflection router is node-local: everything
 * between a flit's arrival and its departure happens inside one node,
 * so each node's flits stay in stack arrays from gather to send. */
static void bless_phase(void **pt, const i64 *cfg, i64 *ctr, i64 cycle)
{
    const i64 n = cfg[CFG_N], p = cfg[CFG_P], depth = cfg[CFG_DEPTH];
    const i64 np = n * p, eject_w = cfg[CFG_EJECT_W], arb = cfg[CFG_ARB];
    i64 *ring_meta = (i64 *)pt[PT_RING_META];
    i64 *ring_birth = (i64 *)pt[PT_RING_BIRTH];
    i64 *gmeta = (i64 *)pt[PT_G_META];
    i64 *gbirth = (i64 *)pt[PT_G_BIRTH];
    const i64 *gkey = (const i64 *)pt[PT_G_KEY];
    const unsigned char *link_up = (const unsigned char *)pt[PT_LINK_UP];
    const unsigned char *congested = (const unsigned char *)pt[PT_CONGESTED];
    const i64 *lat_out = (const i64 *)pt[PT_LAT_OUT];
    const i64 *target = (const i64 *)pt[PT_TARGET_FLAT];
    const Routes rt = routes_load(pt, cfg);
    const NI ni = ni_begin_cycle(pt, cfg, ctr);
    Ejection ej = ejection_begin(pt, ctr);
    i64 ejected[MAX_PORTS] = {0};  /* per ejection round */
    i64 deflections = 0, injected = 0, inj_wait = 0, sent = 0;

    /* Arrivals: copy the ring's arrival slot out, clear it, advance.
     * The copy is load-bearing: the ring is as deep as the slowest
     * link, so a send on such a link (on a uniform fabric: every send)
     * lands in the very slot being consumed, at a node this loop may
     * not have reached yet. */
    i64 cur = ctr[CTR_CURSOR];
    memcpy(gmeta, ring_meta + cur * np, (size_t)np * sizeof(i64));
    memcpy(gbirth, ring_birth + cur * np, (size_t)np * sizeof(i64));
    memset(ring_birth + cur * np, 0xFF, (size_t)np * sizeof(i64));
    cur = cur + 1 == depth ? 0 : cur + 1;
    ctr[CTR_CURSOR] = cur;
    ctr[CTR_CYCLES] += 1;

    for (i64 node = 0; node < n; node++) {
        const i64 base = node * p;
        i64 fmeta[MAX_PORTS], fbirth[MAX_PORTS], fkey[MAX_PORTS];
        i64 out_meta[MAX_PORTS], out_birth[MAX_PORTS];
        /* One bit per port: check_abi (and accel.py's port-cap check)
         * keep p < MAX_PORTS = 64, so a 64-bit mask holds them. */
        uint64_t links = 0;
        int cnt = 0;

        /* Gather the arrived flits in key order: a stable insertion
         * sort, ties keep column order (kind="stable" argsort).  For
         * ARB_RANDOM noc_span prefilled the key grid from the same RNG
         * stream as the numpy path. */
        for (int c = 0; c < p; c++) {
            links |= (uint64_t)link_up[base + c] << c;
            i64 b = gbirth[base + c];
            if (b < 0)
                continue;
            i64 m = gmeta[base + c], k = gkey[base + c];
            if (arb != ARB_RANDOM) {
                k = (b << SRC_SHIFT) | ((m >> SRC_SHIFT) & NODE_MASK);
                if (arb == ARB_YOUNGEST_FIRST)
                    k = -k;
            }
            int j = cnt++;
            for (; j > 0 && fkey[j - 1] > k; j--) {
                fmeta[j] = fmeta[j - 1];
                fbirth[j] = fbirth[j - 1];
                fkey[j] = fkey[j - 1];
            }
            fmeta[j] = m;
            fbirth[j] = b;
            fkey[j] = k;
        }

        /* In key order: the first eject_width local flits leave (the
         * r-th of them is round r's pick of the numpy loop; it goes to
         * r * n + ejected[r], and the gaps close after the node loop,
         * so the batch keeps its round-major, node-ascending order);
         * the others take an output port each; arrivals never
         * outnumber links. */
        uint64_t free = links;
        i64 round = 0;
        for (int i = 0; i < cnt; i++) {
            i64 m = fmeta[i], dest = m & NODE_MASK;
            if (dest == node && round < eject_w) {
                eject_flit(&ej, round * n + ejected[round]++, node, m,
                           cycle - fbirth[i]);
                round++;
                continue;
            }
            int port = output_port(&rt, node, dest, free, &deflections);
            free &= ~((uint64_t)1 << port);
            out_meta[port] = m + HOP_ONE;
            out_birth[port] = fbirth[i];
        }

        /* Injection: capacity is "any free healthy output link"; the
         * flit is routed like any other but never counts as deflected. */
        i64 m, stamp, uncounted = 0;
        if (ni_admit(&ni, node, free != 0, &m, &stamp)) {
            int port = output_port(&rt, node, m & NODE_MASK, free,
                                   &uncounted);
            free &= ~((uint64_t)1 << port);
            out_meta[port] = m + HOP_ONE;
            out_birth[port] = cycle;
            inj_wait += cycle - stamp;
            injected += 1;
        }

        /* Send the occupied outputs into the ring, congestion bit
         * (mark_congestion) set on the way. */
        i64 mark = congested[node] ? CBIT : 0;
        for (uint64_t busy = links & ~free; busy; busy &= busy - 1) {
            int c = __builtin_ctzll(busy);
            i64 slot = cur + lat_out[base + c] - 1;
            if (slot >= depth)
                slot -= depth;
            i64 at = slot * np + target[base + c];
            ring_meta[at] = out_meta[c] | mark;
            ring_birth[at] = out_birth[c];
            sent += 1;
        }
    }

    /* Close the gaps between the ejection rounds. */
    i64 total = ejected[0];
    for (i64 round = 1; round < eject_w; round++) {
        i64 from = round * n, count = ejected[round];
        memmove(ej.node + total, ej.node + from, (size_t)count * sizeof(i64));
        memmove(ej.src + total, ej.src + from, (size_t)count * sizeof(i64));
        memmove(ej.kind + total, ej.kind + from, (size_t)count * sizeof(i64));
        memmove(ej.seq + total, ej.seq + from, (size_t)count * sizeof(i64));
        total += count;
    }
    ejection_end(&ej, ctr, total);
    ctr[CTR_DEFL] += deflections;
    ctr[CTR_INJ] += injected;
    ctr[CTR_INJLAT_SUM] += inj_wait;
    ctr[CTR_INJLAT_CNT] += injected;
    ctr[CTR_HOPS] += sent;
    /* Bufferless: occupancy integral stays zero. */
}

/* ------------------------------------------------------------------ */
/* Buffered XY network step (CreditFlowControl.step)                   */
/* ------------------------------------------------------------------ */
/* Three passes.  The reference takes its head-of-queue snapshot once a
 * cycle and never refreshes it, so which input wins each output of a
 * router is a function of that router's own FIFOs: pass 1 drains a
 * node's arrivals and picks its winners in one visit.  Whether a winner
 * may move is not node-local — the credit check reads the downstream
 * router's FIFO as earlier output ports of this very cycle left it — so
 * pass 2 stays per output port and two-phase, like the numpy loop.
 * Pass 3 is node-local again: eject, inject, occupancy.  In between,
 * row op < p of the H_OUT grid is output port op's winner list (cnt[op]
 * entries of node * MAX_PORTS + input port, node ascending) and row p
 * holds the eject winner's input port per node, or -1. */
static void credit_phase(void **pt, const i64 *cfg, i64 *ctr, i64 cycle)
{
    const i64 n = cfg[CFG_N], p = cfg[CFG_P], depth = cfg[CFG_DEPTH];
    const i64 pp = p + 1, np = n * p, bufcap = cfg[CFG_BUF_CAP];
    const i64 arb = cfg[CFG_ARB];
    i64 *win = (i64 *)pt[PT_H_OUT], *w_down = (i64 *)pt[PT_W_DOWN];
    i64 *ring_meta = (i64 *)pt[PT_RING_META];
    i64 *ring_birth = (i64 *)pt[PT_RING_BIRTH];
    i64 *buf_meta = (i64 *)pt[PT_BUF_META];
    i64 *buf_birth = (i64 *)pt[PT_BUF_BIRTH];
    int32_t *buf_head = (int32_t *)pt[PT_BUF_HEAD];
    int32_t *buf_count = (int32_t *)pt[PT_BUF_COUNT];
    int32_t *reserved = (int32_t *)pt[PT_RESERVED];
    const i64 *hkey = (const i64 *)pt[PT_H_KEY];
    const unsigned char *link_up = (const unsigned char *)pt[PT_LINK_UP];
    const unsigned char *congested = (const unsigned char *)pt[PT_CONGESTED];
    const i64 *lat_out = (const i64 *)pt[PT_LAT_OUT];
    const i64 *neighbor = (const i64 *)pt[PT_NEIGHBOR];
    const i64 *reverse = (const i64 *)pt[PT_REVERSE];
    const Routes rt = routes_load(pt, cfg);
    const NI ni = ni_begin_cycle(pt, cfg, ctr);
    Ejection ej = ejection_begin(pt, ctr);
    i64 bwrites = 0, breads = 0, hops = 0, injected = 0, occ = 0, ejected = 0;
    i64 cnt[MAX_PORTS] = {0};  /* winners listed per output port */

    i64 cur = ctr[CTR_CURSOR];
    i64 *arr_meta = ring_meta + cur * np, *arr_birth = ring_birth + cur * np;
    cur = cur + 1 == depth ? 0 : cur + 1;
    ctr[CTR_CURSOR] = cur;
    ctr[CTR_CYCLES] += 1;

    /* Pass 1, per router.  Link arrivals drain into the input FIFOs
     * (each ring slot is a unique (node, port); nothing is sent before
     * every node has drained, so the slot is read in place).  Then one
     * scan of the p + 1 heads: key, output port (the eject port, index
     * p, for a flit that is home), best key per output.  The strict <
     * keeps the first port on a tie, like np.argmin.  For ARB_RANDOM
     * noc_span prefilled the key grid from the numpy path's stream.
     * `won` has a bit per output with a candidate so far: best/who are
     * valid under it only, and an idle router initialises nothing. */
    for (i64 node = 0; node < n; node++) {
        const i64 base = node * p, fifo = node * pp;
        i64 best[MAX_PORTS], who[MAX_PORTS];
        for (i64 c = 0; c < p; c++) {
            i64 b = arr_birth[base + c];
            if (b < 0)
                continue;
            i64 bi = fifo + c, slot = buf_head[bi] + buf_count[bi];
            if (slot >= bufcap)
                slot -= bufcap;
            buf_meta[bi * bufcap + slot] = arr_meta[base + c];
            buf_birth[bi * bufcap + slot] = b;
            buf_count[bi] += 1;
            reserved[base + c] -= 1;
            arr_birth[base + c] = -1;
            bwrites += 1;
        }
        uint64_t won = 0;
        for (i64 c = 0; c < pp; c++) {
            i64 bi = fifo + c;
            if (buf_count[bi] <= 0)
                continue;
            i64 m = buf_meta[bi * bufcap + buf_head[bi]];
            i64 k;
            if (arb == ARB_RANDOM) {
                k = hkey[bi];
            } else {
                k = (buf_birth[bi * bufcap + buf_head[bi]] << SRC_SHIFT)
                    | ((m >> SRC_SHIFT) & NODE_MASK);
                if (arb == ARB_YOUNGEST_FIRST)
                    k = -k;
            }
            int p0, p1;
            route_ports(&rt, node, m & NODE_MASK, &p0, &p1);
            i64 op = p0 < 0 ? p : p0;
            if (!(won >> op & 1) || k < best[op]) {
                best[op] = k;
                who[op] = c;
                won |= (uint64_t)1 << op;
            }
        }
        win[p * n + node] = won >> p & 1 ? who[p] : -1;
        for (won &= ~((uint64_t)1 << p); won; won &= won - 1) {
            int op = __builtin_ctzll(won);
            win[op * n + cnt[op]++] = node * MAX_PORTS + who[op];
        }
    }

    /* Pass 2, per output port, in the numpy loop's order.  Two-phase:
     * every credit check of a port reads FIFO and reservation state as
     * the earlier ports left it (the numpy space vector is computed
     * before any pop), then the grants apply.  The granted winners are
     * compacted to the front of the port's list; w_down keeps their
     * flat (downstream node, its input port) index, which is both the
     * ring column and the reservation counter. */
    for (i64 op = 0; op < p; op++) {
        i64 *list = win + op * n, nw = 0;
        for (i64 j = 0; j < cnt[op]; j++) {
            i64 node = list[j] / MAX_PORTS, at = node * p + op;
            if (!link_up[at])
                continue;
            i64 down = neighbor[at], dport = reverse[at];
            i64 idx = down * p + dport;
            if (buf_count[down * pp + dport] + reserved[idx] >= bufcap)
                continue;
            list[nw] = list[j];
            w_down[nw] = idx;
            nw++;
        }
        for (i64 k = 0; k < nw; k++) {
            i64 node = list[k] / MAX_PORTS, idx = w_down[k];
            i64 bi = node * pp + list[k] % MAX_PORTS, h = buf_head[bi];
            i64 slot = cur + lat_out[node * p + op] - 1;
            if (slot >= depth)
                slot -= depth;
            ring_meta[slot * np + idx] = (buf_meta[bi * bufcap + h] + HOP_ONE)
                                         | (congested[node] ? CBIT : 0);
            ring_birth[slot * np + idx] = buf_birth[bi * bufcap + h];
            buf_head[bi] = (int32_t)(h + 1 == bufcap ? 0 : h + 1);
            buf_count[bi] -= 1;
            reserved[idx] += 1;
        }
        breads += nw;
        hops += nw;
    }

    /* Pass 3, per router: local delivery of the eject column's winner
     * (at most one flit per node and EJ_CAP = n, so the batch cannot
     * overflow), NI admission through input FIFO p, and the occupancy
     * integral: flits held in buffers after this cycle. */
    for (i64 node = 0; node < n; node++) {
        const i64 fifo = node * pp, nib = fifo + p;
        i64 c = win[p * n + node], m, stamp;
        if (c >= 0) {
            i64 bi = fifo + c, h = buf_head[bi];
            buf_head[bi] = (int32_t)(h + 1 == bufcap ? 0 : h + 1);
            buf_count[bi] -= 1;
            breads += 1;
            eject_flit(&ej, ejected++, node, buf_meta[bi * bufcap + h],
                       cycle - buf_birth[bi * bufcap + h]);
        }
        if (ni_admit(&ni, node, buf_count[nib] < bufcap, &m, &stamp)) {
            i64 slot = buf_head[nib] + buf_count[nib];
            if (slot >= bufcap)
                slot -= bufcap;
            buf_meta[nib * bufcap + slot] = m;
            buf_birth[nib * bufcap + slot] = cycle;
            buf_count[nib] += 1;
            injected += 1;
        }
        for (i64 bi = fifo; bi <= nib; bi++)
            occ += buf_count[bi];
    }
    ejection_end(&ej, ctr, ejected);
    ctr[CTR_BWRITES] += bwrites + injected;
    ctr[CTR_BREADS] += breads;
    ctr[CTR_HOPS] += hops;
    ctr[CTR_INJ] += injected;
    ctr[CTR_OCC] += occ;
}

/* ------------------------------------------------------------------ */
/* Core phase (CoreArray.step minus the miss-issue tail)               */
/* ------------------------------------------------------------------ */
static void cores_phase(void **pt, const i64 *cfg, i64 *ctr, i64 cycle)
{
    (void)cycle;
    i64 n = cfg[CFG_N];
    const unsigned char *active = (const unsigned char *)pt[PT_CO_ACTIVE];
    double *retired = (double *)pt[PT_CO_RETIRED];
    const double *issue_pos = (const double *)pt[PT_CO_ISSUE_POS];
    const unsigned char *complete = (const unsigned char *)pt[PT_CO_COMPLETE];
    const i64 *issued = (const i64 *)pt[PT_CO_ISSUED];
    const i64 *completed = (const i64 *)pt[PT_CO_COMPLETED];
    i64 *head = (i64 *)pt[PT_CO_HEAD];
    double *gap = (double *)pt[PT_CO_GAP];
    double *epoch_insns = (double *)pt[PT_CO_EPOCH_INSNS];
    i64 *stall = (i64 *)pt[PT_CO_STALL];
    i64 *wstall = (i64 *)pt[PT_CO_WSTALL];
    i64 *miss_out = (i64 *)pt[PT_MISS_OUT];
    const int32_t *req_count = (const int32_t *)pt[PT_REQ_COUNT];
    i64 qcap = cfg[CFG_QCAP];
    double iw = (double)cfg[CFG_ISSUE_W];
    double ws = (double)cfg[CFG_WINDOW];
    i64 mshr = cfg[CFG_MSHR];

    /* Bounded head sweep: up to 4 rounds; the dirty flag clears only
     * when a round advances no node (the numpy early-break). */
    if (ctr[CTR_HEAD_DIRTY]) {
        for (int round = 0; round < 4; round++) {
            int any = 0;
            for (i64 node = 0; node < n; node++) {
                if (head[node] < issued[node]
                    && complete[node * SEQ_RING + head[node] % SEQ_RING]) {
                    head[node] += 1;
                    any = 1;
                }
            }
            if (!any) {
                ctr[CTR_HEAD_DIRTY] = 0;
                break;
            }
        }
    }

    i64 miss = 0;
    for (i64 node = 0; node < n; node++) {
        i64 outstanding = issued[node] - completed[node];
        int has_inflight = head[node] < issued[node];
        double wr = INFINITY;
        if (has_inflight)
            wr = (issue_pos[node * SEQ_RING + head[node] % SEQ_RING] + ws)
                 - retired[node];
        int stalled = (outstanding >= mshr) || (req_count[node] >= qcap)
                      || (wr <= 0.0);
        int run = active[node] && !stalled;
        stall[node] += active[node] && stalled;
        wstall[node] += active[node] && (wr <= 0.0);
        double adv = 0.0;
        if (run) {
            double g = gap[node] > 0.0 ? gap[node] : 0.0;
            double m = g < wr ? g : wr;
            adv = iw < m ? iw : m;
        }
        retired[node] += adv;
        epoch_insns[node] += adv;
        gap[node] -= adv;
        if (run && gap[node] <= 0.0)
            miss_out[miss++] = node;
    }
    ctr[CTR_MISS_CNT] = miss;
}

/* ------------------------------------------------------------------ */
/* Miss-issue tail (CoreArray._issue_misses minus the RNG draws)       */
/* ------------------------------------------------------------------ */
/* noc_span samples the destinations (PT_ISSUE_DEST) from the shared RNG
 * stream first, this body performs the queue pushes and per-miss
 * bookkeeping, and noc_span then draws the next gaps for the accepted
 * subset — the exact call order of the reference tail.  The accepted
 * nodes are compacted in place into PT_MISS_OUT (they are a prefix-order
 * subset of the misser list). */
static void issue_phase(void **pt, const i64 *cfg, i64 *ctr, i64 cycle)
{
    i64 k = ctr[CTR_MISS_CNT];
    i64 qcap = cfg[CFG_QCAP];
    i64 req_flits = cfg[CFG_REQ_FLITS];
    i64 *nodes = (i64 *)pt[PT_MISS_OUT];
    const i64 *dest = (const i64 *)pt[PT_ISSUE_DEST];
    int32_t *req_dest = (int32_t *)pt[PT_REQ_DEST];
    int8_t *req_kind = (int8_t *)pt[PT_REQ_KIND];
    int16_t *req_flit = (int16_t *)pt[PT_REQ_FLITS];
    i64 *req_stamp = (i64 *)pt[PT_REQ_STAMP];
    int16_t *req_seq = (int16_t *)pt[PT_REQ_SEQ];
    int32_t *req_head = (int32_t *)pt[PT_REQ_HEAD];
    int32_t *req_count = (int32_t *)pt[PT_REQ_COUNT];
    double *issue_pos = (double *)pt[PT_CO_ISSUE_POS];
    int16_t *recv = (int16_t *)pt[PT_CO_RECV];
    unsigned char *complete = (unsigned char *)pt[PT_CO_COMPLETE];
    i64 *issued = (i64 *)pt[PT_CO_ISSUED];
    i64 *misses = (i64 *)pt[PT_CO_MISSES];
    i64 *epoch_flits = (i64 *)pt[PT_CO_EPOCH_FLITS];
    const double *retired = (const double *)pt[PT_CO_RETIRED];

    i64 m = 0;
    for (i64 i = 0; i < k; i++) {
        i64 node = nodes[i];
        if (req_count[node] >= qcap)
            continue;  /* rejected: gap stays 0, backpressure stalls */
        i64 seq = issued[node] % SEQ_RING;
        i64 slot = (req_head[node] + req_count[node]) % qcap;
        i64 idx = node * qcap + slot;
        req_dest[idx] = (int32_t)dest[i];
        req_kind[idx] = KIND_REQUEST;
        req_flit[idx] = (int16_t)req_flits;
        req_stamp[idx] = cycle;
        req_seq[idx] = (int16_t)seq;
        req_count[node] += 1;
        i64 ring = node * SEQ_RING + seq;
        issue_pos[ring] = retired[node];
        recv[ring] = 0;
        complete[ring] = 0;
        issued[node] += 1;
        misses[node] += 1;
        epoch_flits[node] += req_flits + cfg[CFG_REPLY_FLITS];
        nodes[m++] = node;
    }
    ctr[CTR_ACCEPTED] = m;
}

/* ------------------------------------------------------------------ */
/* Memory phase (MemorySystem.step)                                    */
/* ------------------------------------------------------------------ */
static void memory_phase(void **pt, const i64 *cfg, i64 *ctr, i64 cycle)
{
    i64 L = cfg[CFG_L2_LAT], cap = cfg[CFG_EJ_CAP], pcap = cfg[CFG_PEND_CAP];
    i64 qcap = cfg[CFG_QCAP];
    i64 *mem_srv = (i64 *)pt[PT_MEM_SRV];
    i64 *mem_req = (i64 *)pt[PT_MEM_REQ];
    i64 *mem_seq = (i64 *)pt[PT_MEM_SEQ];
    i64 *mem_cnt = (i64 *)pt[PT_MEM_CNT];
    i64 *pend_s = (i64 *)pt[PT_PEND_S];
    i64 *pend_r = (i64 *)pt[PT_PEND_R];
    i64 *pend_q = (i64 *)pt[PT_PEND_Q];
    i64 *scr_s = (i64 *)pt[PT_SCR_S];
    i64 *scr_r = (i64 *)pt[PT_SCR_R];
    i64 *scr_q = (i64 *)pt[PT_SCR_Q];
    unsigned char *seen = (unsigned char *)pt[PT_VISITED];
    int32_t *resp_dest = (int32_t *)pt[PT_RESP_DEST];
    int8_t *resp_kind = (int8_t *)pt[PT_RESP_KIND];
    int16_t *resp_flits = (int16_t *)pt[PT_RESP_FLITS];
    i64 *resp_stamp = (i64 *)pt[PT_RESP_STAMP];
    int16_t *resp_seq = (int16_t *)pt[PT_RESP_SEQ];
    int32_t *resp_head = (int32_t *)pt[PT_RESP_HEAD];
    int32_t *resp_count = (int32_t *)pt[PT_RESP_COUNT];

    i64 mcur = ctr[CTR_MEM_CURSOR];
    i64 due_cnt = mem_cnt[mcur];
    i64 due_base = mcur * cap;
    i64 pend = ctr[CTR_PEND_CNT];
    mem_cnt[mcur] = 0;
    ctr[CTR_MEM_CURSOR] = (mcur + 1) % L;
    if (due_cnt == 0 && pend == 0)
        return;
    i64 total = pend + due_cnt;

    /* Combined order: retries first, then the due batch.  One reply per
     * server per cycle: the first occurrence attempts the enqueue;
     * failures then leftovers (in order) become the new retry list. */
    i64 nf = 0, nl = 0;
    for (i64 i = 0; i < total; i++) {
        i64 s, r, q;
        if (i < pend) {
            s = pend_s[i]; r = pend_r[i]; q = pend_q[i];
        } else {
            s = mem_srv[due_base + i - pend];
            r = mem_req[due_base + i - pend];
            q = mem_seq[due_base + i - pend];
        }
        if (!seen[s]) {
            seen[s] = 1;
            if (resp_count[s] < qcap) {
                i64 slot = (resp_head[s] + resp_count[s]) % qcap;
                i64 idx = s * qcap + slot;
                resp_dest[idx] = (int32_t)r;
                resp_kind[idx] = KIND_REPLY;
                resp_flits[idx] = (int16_t)cfg[CFG_REPLY_FLITS];
                resp_stamp[idx] = cycle;
                resp_seq[idx] = (int16_t)q;
                resp_count[s] += 1;
                ctr[CTR_REP_ISSUED] += 1;
            } else {
                scr_s[nf] = s; scr_r[nf] = r; scr_q[nf] = q;
                nf++;
            }
        } else {
            scr_s[pcap + nl] = s; scr_r[pcap + nl] = r; scr_q[pcap + nl] = q;
            nl++;
        }
    }
    for (i64 i = 0; i < total; i++) {
        i64 s = i < pend ? pend_s[i] : mem_srv[due_base + i - pend];
        seen[s] = 0;
    }
    if (nf + nl > pcap) {
        ctr[CTR_ERROR] = ERR_PENDING_OVERFLOW;
        return;
    }
    memcpy(pend_s, scr_s, (size_t)nf * sizeof(i64));
    memcpy(pend_r, scr_r, (size_t)nf * sizeof(i64));
    memcpy(pend_q, scr_q, (size_t)nf * sizeof(i64));
    memcpy(pend_s + nf, scr_s + pcap, (size_t)nl * sizeof(i64));
    memcpy(pend_r + nf, scr_r + pcap, (size_t)nl * sizeof(i64));
    memcpy(pend_q + nf, scr_q + pcap, (size_t)nl * sizeof(i64));
    ctr[CTR_PEND_CNT] = nf + nl;
}

/* ------------------------------------------------------------------ */
/* Ejection phase (Simulator._ejection_phase consumers)                */
/* ------------------------------------------------------------------ */
static void eject_phase(void **pt, const i64 *cfg, i64 *ctr, i64 cycle)
{
    (void)cycle;
    i64 k = ctr[CTR_EJ_COUNT];
    if (k == 0)
        return;
    const i64 *ej_node = (const i64 *)pt[PT_EJ_NODE];
    const i64 *ej_src = (const i64 *)pt[PT_EJ_SRC];
    const i64 *ej_kind = (const i64 *)pt[PT_EJ_KIND];
    const i64 *ej_seq = (const i64 *)pt[PT_EJ_SEQ];

    /* Request flits enter L2 service (MemorySystem.on_requests): the
     * whole cycle's batch lands l2_latency - 1 slots ahead. */
    i64 L = cfg[CFG_L2_LAT];
    i64 slot = (ctr[CTR_MEM_CURSOR] + L - 1) % L;
    i64 *mem_cnt = (i64 *)pt[PT_MEM_CNT];
    i64 cnt = mem_cnt[slot];
    i64 base = slot * cfg[CFG_EJ_CAP];
    i64 *mem_srv = (i64 *)pt[PT_MEM_SRV];
    i64 *mem_req = (i64 *)pt[PT_MEM_REQ];
    i64 *mem_seq = (i64 *)pt[PT_MEM_SEQ];
    for (i64 i = 0; i < k; i++) {
        if (ej_kind[i] != KIND_REQUEST)
            continue;
        if (cnt >= cfg[CFG_EJ_CAP]) {
            ctr[CTR_ERROR] = ERR_MEM_RING_OVERFLOW;
            return;
        }
        mem_srv[base + cnt] = ej_node[i];
        mem_req[base + cnt] = ej_src[i];
        mem_seq[base + cnt] = ej_seq[i];
        cnt++;
        ctr[CTR_REQ_SERVICED] += 1;
    }
    mem_cnt[slot] = cnt;

    /* Reply flits complete core misses (CoreArray.on_reply_flits):
     * first accumulate every flit, then resolve each distinct
     * (node, seq) pair once. */
    int16_t *recv = (int16_t *)pt[PT_CO_RECV];
    unsigned char *complete = (unsigned char *)pt[PT_CO_COMPLETE];
    i64 *completed = (i64 *)pt[PT_CO_COMPLETED];
    unsigned char *visited = (unsigned char *)pt[PT_VISITED];
    i64 reply_flits = cfg[CFG_REPLY_FLITS];
    int dirty = 0;
    for (i64 i = 0; i < k; i++)
        if (ej_kind[i] == KIND_REPLY)
            recv[ej_node[i] * SEQ_RING + ej_seq[i]] += 1;
    for (i64 i = 0; i < k; i++) {
        if (ej_kind[i] != KIND_REPLY)
            continue;
        i64 idx = ej_node[i] * SEQ_RING + ej_seq[i];
        if (visited[idx])
            continue;
        visited[idx] = 1;
        if (recv[idx] >= reply_flits && !complete[idx]) {
            complete[idx] = 1;
            completed[ej_node[i]] += 1;
            dirty = 1;
        }
    }
    for (i64 i = 0; i < k; i++)
        if (ej_kind[i] == KIND_REPLY)
            visited[ej_node[i] * SEQ_RING + ej_seq[i]] = 0;
    if (dirty)
        ctr[CTR_HEAD_DIRTY] = 1;
}

/* ------------------------------------------------------------------ */
/* RNG draws                                                           */
/* ------------------------------------------------------------------ */
/* Each routine consumes its stream exactly as the vectorised reference
 * does: array at a time — every draw of one kind for the whole batch
 * before the first draw of the next kind — through the libnpyrandom
 * function the corresponding Generator method calls per element. */

/* ApplicationBehaviorArray.tick: all phase multipliers of the expired
 * nodes (lognormal), then all their next phase lengths (geometric). */
static void behavior_phase(void **pt, const i64 *cfg)
{
    const double *fcfg = (const double *)pt[PT_FCFG];
    double sigma = fcfg[FCFG_PHASE_SIGMA];
    if (sigma <= 0.0)
        return;
    i64 n = cfg[CFG_N];
    bitgen_t *rng = (bitgen_t *)pt[PT_RNG_PHASES];
    i64 *timer = (i64 *)pt[PT_BH_TIMER];
    double *mult = (double *)pt[PT_BH_MULT];
    int expired = 0;
    for (i64 node = 0; node < n; node++) {
        timer[node] -= 1;
        if (timer[node] <= 0) {
            mult[node] = random_lognormal(rng, fcfg[FCFG_PHASE_MU], sigma);
            expired = 1;
        }
    }
    if (!expired)
        return;
    for (i64 node = 0; node < n; node++)
        if (timer[node] <= 0)
            timer[node] = random_geometric(rng, fcfg[FCFG_PHASE_P]);
}

/* repro.traffic.locality._fold: reflect into [0, limit]. */
static inline i64 fold(i64 c, i64 limit)
{
    c = c < 0 ? -c : c;
    for (int round = 0; round < 2 && c > limit; round++) {
        c = 2 * limit - c;
        c = c < 0 ? -c : c;
    }
    return c > limit ? limit : c;
}

/* Destinations of the k missers in PT_MISS_OUT, into PT_ISSUE_DEST
 * (UniformStriping.sample / _DistanceLocality.sample). */
static void draw_destinations(void **pt, const i64 *cfg, i64 k)
{
    bitgen_t *rng = (bitgen_t *)pt[PT_RNG_DEST];
    const i64 *src = (const i64 *)pt[PT_MISS_OUT];
    i64 *dest = (i64 *)pt[PT_ISSUE_DEST];
    i64 n = cfg[CFG_N], model = cfg[CFG_LOC_MODEL];

    if (model == LOC_UNIFORM) {
        /* integers(1, n, size=k) */
        random_bounded_uint64_fill(rng, 1, (uint64_t)(n - 2), k, 0,
                                   (uint64_t *)dest);
        for (i64 i = 0; i < k; i++)
            dest[i] = (src[i] + dest[i]) % n;
        return;
    }

    /* Hop distances, clipped to what the fabric (grid) or the source's
     * eccentricity (graph) can offer. */
    double param = ((const double *)pt[PT_FCFG])[FCFG_LOC_PARAM];
    int grid = cfg[CFG_GRID2D] != 0;
    const i64 *ecc = (const i64 *)pt[PT_LOC_ECC];
    i64 *d = (i64 *)pt[PT_LOC_D];
    for (i64 i = 0; i < k; i++) {
        i64 v;
        if (model == LOC_EXPONENTIAL) {
            double e = rint(random_exponential(rng, param));
            v = (i64)(e > 1.0 ? e : 1.0);
        } else { /* LOC_POWERLAW */
            v = (i64)floor(random_pareto(rng, param) + 1.0);
        }
        i64 top = grid ? cfg[CFG_LOC_MAXD] : ecc[src[i]];
        d[i] = v < 1 ? 1 : (v > top ? top : v);
    }

    if (!grid) {
        /* A uniform node out of the source's bucket at that distance:
         * start + integers(0, count), count an array. */
        i64 cols = cfg[CFG_LOC_MAXD] + 1;
        const int32_t *order = (const int32_t *)pt[PT_LOC_ORDER];
        const i64 *start = (const i64 *)pt[PT_LOC_BSTART];
        const i64 *count = (const i64 *)pt[PT_LOC_BCOUNT];
        for (i64 i = 0; i < k; i++) {
            i64 b = src[i] * cols + d[i];
            i64 pick = start[b] + (i64)random_bounded_uint64(
                rng, 0, (uint64_t)(count[b] - 1), 0, 0);
            dest[i] = order[src[i] * n + pick];
        }
        return;
    }

    /* Axis split integers(0, d + 1), then the two sign vectors
     * integers(0, 2, size=k), then fold or wrap at the edges. */
    i64 w = cfg[CFG_WIDTH], h = cfg[CFG_HEIGHT];
    const int32_t *cx = (const int32_t *)pt[PT_COORD_X];
    const int32_t *cy = (const int32_t *)pt[PT_COORD_Y];
    i64 *a = (i64 *)pt[PT_LOC_A];
    i64 *sx = (i64 *)pt[PT_LOC_SX];
    i64 *sy = (i64 *)pt[PT_LOC_SY];
    for (i64 i = 0; i < k; i++)
        a[i] = (i64)random_bounded_uint64(rng, 0, (uint64_t)d[i], 0, 0);
    random_bounded_uint64_fill(rng, 0, 1, k, 0, (uint64_t *)sx);
    random_bounded_uint64_fill(rng, 0, 1, k, 0, (uint64_t *)sy);
    for (i64 i = 0; i < k; i++) {
        i64 s = src[i];
        i64 x = cx[s] + (sx[i] * 2 - 1) * a[i];
        i64 y = cy[s] + (sy[i] * 2 - 1) * (d[i] - a[i]);
        if (cfg[CFG_WRAPS]) {
            x = ((x % w) + w) % w;
            y = ((y % h) + h) % h;
        } else {
            x = fold(x, w - 1);
            y = fold(y, h - 1);
        }
        i64 t = y * w + x;
        /* Edge folding can land back on the source; nudge one hop. */
        if (t == s)
            t += cx[s] < w - 1 ? 1 : -1;
        dest[i] = t;
    }
}

/* Next miss gaps of the m accepted missers compacted in PT_MISS_OUT
 * (ApplicationBehaviorArray.sample_gap, array-parameter lognormal). */
static void draw_gaps(void **pt, i64 m)
{
    bitgen_t *rng = (bitgen_t *)pt[PT_RNG_DEST];
    const i64 *nodes = (const i64 *)pt[PT_MISS_OUT];
    const double *mu = (const double *)pt[PT_BH_MU];
    const double *sigma = (const double *)pt[PT_BH_SIGMA];
    const double *mult = (const double *)pt[PT_BH_MULT];
    double flits = ((const double *)pt[PT_FCFG])[FCFG_FLITS_PER_MISS];
    double *gap = (double *)pt[PT_CO_GAP];
    for (i64 i = 0; i < m; i++) {
        i64 node = nodes[i];
        double g = random_lognormal(rng, mu[node], sigma[node])
                   * mult[node] * flits;
        gap[node] = g > 1.0 ? g : 1.0;
    }
}

/* ------------------------------------------------------------------ */
/* The span: ctr[CTR_SPAN] cycles of the ctr[CTR_PHASES] phases         */
/* ------------------------------------------------------------------ */
/* behaviour -> cores (destination draw, issue, gap draw) -> memory ->
 * network (key grid drawn for ARB_RANDOM) -> ejection, in the pipeline's
 * order.  A fused span is every PHASE_ bit for many cycles; a phase
 * something observes is its one bit for one cycle, five calls to the
 * cycle, on the same bodies and generator state, so a run may switch
 * between the two at any cycle boundary.  Stops at the first phase that
 * raises ctr[CTR_ERROR]. */
void noc_span(void **pt, const i64 *cfg, i64 *ctr, i64 cycle)
{
    if (!check_abi(cfg, ctr))
        return;
    const i64 phases = ctr[CTR_PHASES];
    int buffered = cfg[CFG_BUFFERED] != 0;
    void (*network_phase)(void **, const i64 *, i64 *, i64) =
        buffered ? credit_phase : bless_phase;
    i64 keys = cfg[CFG_N] * (cfg[CFG_P] + buffered);
    i64 end = cycle + ctr[CTR_SPAN];
    for (; cycle < end && !ctr[CTR_ERROR]; cycle++) {
        if (phases & PHASE_BEHAVIOR)
            behavior_phase(pt, cfg);
        if (phases & PHASE_CORES) {
            cores_phase(pt, cfg, ctr, cycle);
            if (ctr[CTR_MISS_CNT]) {
                draw_destinations(pt, cfg, ctr[CTR_MISS_CNT]);
                issue_phase(pt, cfg, ctr, cycle);
                draw_gaps(pt, ctr[CTR_ACCEPTED]);
            }
        }
        if (phases & PHASE_MEMORY)
            memory_phase(pt, cfg, ctr, cycle);
        if (phases & PHASE_NETWORK && !ctr[CTR_ERROR]) {
            if (cfg[CFG_ARB] == ARB_RANDOM)
                /* integers(0, KEY_MAX, size=grid.shape, dtype=int64) */
                random_bounded_uint64_fill(
                    (bitgen_t *)pt[PT_RNG_ARB], 0, (uint64_t)KEY_MAX - 1,
                    keys, 0, (uint64_t *)pt[buffered ? PT_H_KEY : PT_G_KEY]);
            network_phase(pt, cfg, ctr, cycle);
        }
        if (phases & PHASE_EJECTION && !ctr[CTR_ERROR])
            eject_phase(pt, cfg, ctr, cycle);
    }
}
