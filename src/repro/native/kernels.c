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
 * ABI: every entry point takes (void **pt, const long long *cfg,
 * long long *ctr, long long cycle).  `pt` is the pointer table, `cfg`
 * immutable configuration constants, `ctr` mutable 64-bit counters
 * mirrored back onto the Python stats objects after each call.  Each
 * phase is a static function behind a one-line export, so noc_span (the
 * fused entry point at the end of the file) runs whole cycles through
 * the very bodies the per-cycle exports run.
 *
 * Python owns every ABI fact.  This file defines none of them: the
 * PT_, CFG_, FCFG_ and CTR_ slot indices (positions in accel.py's
 * tables), the flit layout (repro.network.flit), KIND_, ARB_, LOC_ and
 * ERR_ codes and the size constants all arrive as -DNAME=value from
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
 * own generators is what keeps the fused path on the reference RNG
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

#define EXPORT_PHASE(name, body)                                       \
    void name(void **pt, const i64 *cfg, i64 *ctr, i64 cycle)          \
    {                                                                  \
        if (check_abi(cfg, ctr))                                       \
            body(pt, cfg, ctr, cycle);                                 \
    }

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

static inline void account_ejection(i64 *ctr, i64 *hist, i64 meta, i64 lat)
{
    ctr[CTR_EJ_FLITS] += 1;
    ctr[CTR_LAT_SUM] += lat;
    ctr[CTR_LAT_CNT] += 1;
    if (lat > ctr[CTR_LAT_MAX])
        ctr[CTR_LAT_MAX] = lat;
    hist[lat > HIST_BUCKETS - 1 ? HIST_BUCKETS - 1 : lat] += 1;
    ctr[CTR_HOPS_SUM] += (meta >> HOPS_SHIFT) & HOPS_MASK;
}

static inline int emit_ejected(void **pt, const i64 *cfg, i64 *ctr,
                               i64 node, i64 meta)
{
    i64 k = ctr[CTR_EJ_COUNT];
    if (k >= cfg[CFG_EJ_CAP]) {
        ctr[CTR_ERROR] = ERR_EJECT_OVERFLOW;
        return 0;
    }
    ((i64 *)pt[PT_EJ_NODE])[k] = node;
    ((i64 *)pt[PT_EJ_SRC])[k] = (meta >> SRC_SHIFT) & NODE_MASK;
    ((i64 *)pt[PT_EJ_KIND])[k] = (meta >> KIND_SHIFT) & KIND_MASK;
    ((i64 *)pt[PT_EJ_SEQ])[k] = (meta >> SEQ_SHIFT) & SEQ_MASK;
    ((unsigned char *)pt[PT_EJ_CBIT])[k] = (meta & CBIT) != 0;
    ctr[CTR_EJ_COUNT] = k + 1;
    return 1;
}

/* Take one flit from the head entry at `node` of the response (`resp`)
 * or request queue (repro.network.queues.FlitQueueArray.take_flit). */
static inline void queue_take(void **pt, int resp, i64 qcap, i64 node,
                              i64 *dest, i64 *kind, i64 *seq, i64 *stamp)
{
    int32_t *head = (int32_t *)pt[resp ? PT_RESP_HEAD : PT_REQ_HEAD];
    int32_t *count = (int32_t *)pt[resp ? PT_RESP_COUNT : PT_REQ_COUNT];
    i64 h = head[node];
    i64 idx = node * qcap + h;
    *dest = ((int32_t *)pt[resp ? PT_RESP_DEST : PT_REQ_DEST])[idx];
    *kind = ((int8_t *)pt[resp ? PT_RESP_KIND : PT_REQ_KIND])[idx];
    *stamp = ((i64 *)pt[resp ? PT_RESP_STAMP : PT_REQ_STAMP])[idx];
    *seq = ((int16_t *)pt[resp ? PT_RESP_SEQ : PT_REQ_SEQ])[idx];
    int16_t *flits = (int16_t *)pt[resp ? PT_RESP_FLITS : PT_REQ_FLITS];
    flits[idx] -= 1;
    if (flits[idx] == 0) {
        head[node] = (int32_t)((h + 1) % qcap);
        count[node] -= 1;
    }
}

/* NI admission shared by both flow controls
 * (RouterEngine.injection_stage + InjectionThrottleGate.decide,
 * starvation bookkeeping included).  mode 0 = bless (route onto a free
 * link), mode 1 = credit (push into the NI input buffer). */
static void injection_stage(void **pt, const i64 *cfg, i64 *ctr, i64 cycle,
                            const unsigned char *capacity, int mode,
                            unsigned char *avail)
{
    i64 n = cfg[CFG_N], p = cfg[CFG_P], qcap = cfg[CFG_QCAP];
    i64 sw = cfg[CFG_SW];
    i64 spos = ctr[CTR_SPOS];
    const int32_t *req_count = (const int32_t *)pt[PT_REQ_COUNT];
    const int32_t *resp_count = (const int32_t *)pt[PT_RESP_COUNT];
    int32_t *thr_counter = (int32_t *)pt[PT_THR_COUNTER];
    const double *thr_rate = (const double *)pt[PT_THR_RATE];
    unsigned char *starv_ring = (unsigned char *)pt[PT_STARV_RING];
    int32_t *starv_sum = (int32_t *)pt[PT_STARV_SUM];
    i64 *inj_per_node = (i64 *)pt[PT_INJ_PER_NODE];
    i64 *starved_cyc = (i64 *)pt[PT_STARVED_CYC];
    i64 *port_starved = (i64 *)pt[PT_PORT_STARVED_CYC];
    const signed char *p0tab = (const signed char *)pt[PT_P0TAB];
    const signed char *p1tab = (const signed char *)pt[PT_P1TAB];
    i64 *out_meta = (i64 *)pt[PT_G_OUTM];
    i64 *out_birth = (i64 *)pt[PT_G_OUTB];
    i64 pp = p + 1, bufcap = cfg[CFG_BUF_CAP];
    i64 *buf_meta = (i64 *)pt[PT_BUF_META];
    i64 *buf_birth = (i64 *)pt[PT_BUF_BIRTH];
    int32_t *buf_head = (int32_t *)pt[PT_BUF_HEAD];
    int32_t *buf_count = (int32_t *)pt[PT_BUF_COUNT];

    for (i64 node = 0; node < n; node++) {
        int resp_has = resp_count[node] > 0;
        int req_has = req_count[node] > 0;
        int wanted = resp_has || req_has;
        int cap = capacity[node] != 0;
        int inject_resp = resp_has && cap;
        int trying_req = req_has && cap && !inject_resp;
        int inject_req = 0;
        if (trying_req) {
            /* Algorithm 3: the counter advances on every attempt. */
            int32_t c = (int32_t)((thr_counter[node] + 1) % THROTTLE_MAX);
            thr_counter[node] = c;
            inject_req = (double)c >= thr_rate[node] * THROTTLE_MAX;
        }
        for (int which = 0; which < 2; which++) {
            int go = which == 0 ? inject_resp : inject_req;
            if (!go)
                continue;
            i64 dest, kind, seq, stamp;
            queue_take(pt, which == 0, qcap, node, &dest, &kind, &seq,
                       &stamp);
            i64 meta = dest | (node << SRC_SHIFT) | (kind << KIND_SHIFT)
                       | (seq << SEQ_SHIFT);
            if (mode == 0) {
                /* Productive port first, then the other productive
                 * direction, then the first free link (argmax). */
                const unsigned char *row = avail + node * p;
                int port = -1;
                int p0 = p0tab[node * n + dest];
                int p1 = p1tab[node * n + dest];
                if (p0 >= 0 && row[p0])
                    port = p0;
                else if (p1 >= 0 && row[p1])
                    port = p1;
                if (port < 0) {
                    port = 0;
                    for (int c = 0; c < p; c++)
                        if (row[c]) { port = c; break; }
                }
                avail[node * p + port] = 0;
                out_meta[node * p + port] = meta + HOP_ONE;
                out_birth[node * p + port] = cycle;
                ctr[CTR_INJLAT_SUM] += cycle - stamp;
                ctr[CTR_INJLAT_CNT] += 1;
            } else {
                i64 b = node * pp + p;
                i64 slot = (buf_head[b] + buf_count[b]) % bufcap;
                buf_meta[b * bufcap + slot] = meta;
                buf_birth[b * bufcap + slot] = cycle;
                buf_count[b] += 1;
                ctr[CTR_BWRITES] += 1;
            }
            ctr[CTR_INJ] += 1;
            inj_per_node[node] += 1;
        }
        /* Starvation meter (W-bit shift register) + stats. */
        int starved = wanted && !(inject_resp || inject_req);
        unsigned char old = starv_ring[node * sw + spos];
        starv_sum[node] += (int32_t)starved - (int32_t)old;
        starv_ring[node * sw + spos] = (unsigned char)starved;
        starved_cyc[node] += starved;
        port_starved[node] += wanted && !cap;
    }
    ctr[CTR_SPOS] = (spos + 1) % sw;
    ctr[CTR_SSEEN] += 1;
}

/* ------------------------------------------------------------------ */
/* FLIT-BLESS network step (DeflectFlowControl.step)                   */
/* ------------------------------------------------------------------ */
static void bless_phase(void **pt, const i64 *cfg, i64 *ctr, i64 cycle)
{
    i64 n = cfg[CFG_N], p = cfg[CFG_P], depth = cfg[CFG_DEPTH];
    i64 np = n * p;
    i64 *ring_meta = (i64 *)pt[PT_RING_META];
    i64 *ring_birth = (i64 *)pt[PT_RING_BIRTH];
    i64 *gmeta = (i64 *)pt[PT_G_META];
    i64 *gbirth = (i64 *)pt[PT_G_BIRTH];
    i64 *gkey = (i64 *)pt[PT_G_KEY];
    unsigned char *avail = (unsigned char *)pt[PT_G_AVAIL];
    i64 *out_meta = (i64 *)pt[PT_G_OUTM];
    i64 *out_birth = (i64 *)pt[PT_G_OUTB];
    i64 *hist = (i64 *)pt[PT_LAT_HIST];
    const signed char *p0tab = (const signed char *)pt[PT_P0TAB];
    const signed char *p1tab = (const signed char *)pt[PT_P1TAB];
    const unsigned char *link_up = (const unsigned char *)pt[PT_LINK_UP];
    const unsigned char *congested = (const unsigned char *)pt[PT_CONGESTED];
    const i64 *lat_out = (const i64 *)pt[PT_LAT_OUT];
    const i64 *target = (const i64 *)pt[PT_TARGET_FLAT];
    i64 arb = cfg[CFG_ARB];

    ctr[CTR_CYCLES] += 1;
    ctr[CTR_EJ_COUNT] = 0;

    /* Arrivals: copy the ring's arrival slot, clear it, advance. */
    i64 cur = ctr[CTR_CURSOR];
    memcpy(gmeta, ring_meta + cur * np, (size_t)np * sizeof(i64));
    memcpy(gbirth, ring_birth + cur * np, (size_t)np * sizeof(i64));
    memset(ring_birth + cur * np, 0xFF, (size_t)np * sizeof(i64));
    cur = (cur + 1) % depth;
    ctr[CTR_CURSOR] = cur;

    /* Arbitration keys; KEY_MAX marks empty/consumed slots.  For
     * ARB_RANDOM the caller (Python per cycle, noc_span when fused)
     * prefilled the key grid from the same RNG stream as the numpy
     * path. */
    for (i64 i = 0; i < np; i++) {
        if (gbirth[i] < 0) {
            gkey[i] = KEY_MAX;
        } else if (arb != ARB_RANDOM) {
            i64 k = (gbirth[i] << SRC_SHIFT)
                    | ((gmeta[i] >> SRC_SHIFT) & NODE_MASK);
            gkey[i] = arb == ARB_YOUNGEST_FIRST ? -k : k;
        }
    }

    /* Ejection: up to eject_width oldest local flits per node; output
     * order is round-major, node-ascending within a round (matches the
     * numpy ej_parts concatenation). */
    for (i64 round = 0; round < cfg[CFG_EJECT_W]; round++) {
        for (i64 node = 0; node < n; node++) {
            i64 base = node * p, best = KEY_MAX;
            int bc = -1;
            for (int c = 0; c < p; c++) {
                i64 k = gkey[base + c];
                if (k != KEY_MAX && (gmeta[base + c] & NODE_MASK) == node
                    && k < best) {
                    best = k;
                    bc = c;
                }
            }
            if (bc < 0)
                continue;
            i64 m = gmeta[base + bc];
            gkey[base + bc] = KEY_MAX;
            if (!emit_ejected(pt, cfg, ctr, node, m))
                return;
            account_ejection(ctr, hist, m, cycle - gbirth[base + bc]);
        }
    }

    /* Output-port allocation: per node, flits in key order try their
     * productive ports, else deflect to the first free link.  The numpy
     * rank-by-rank loop is per-node independent, so a per-node pass is
     * exactly equivalent. */
    memcpy(avail, link_up, (size_t)np);
    memset(out_birth, 0xFF, (size_t)np * sizeof(i64));
    for (i64 node = 0; node < n; node++) {
        i64 base = node * p;
        int cols[MAX_PORTS], cnt = 0;
        for (int c = 0; c < p; c++)
            if (gkey[base + c] != KEY_MAX)
                cols[cnt++] = c;
        /* Stable insertion sort by key (ties keep column order, like
         * kind="stable" argsort). */
        for (int i = 1; i < cnt; i++) {
            int c = cols[i];
            i64 k = gkey[base + c];
            int j = i - 1;
            while (j >= 0 && gkey[base + cols[j]] > k) {
                cols[j + 1] = cols[j];
                j--;
            }
            cols[j + 1] = c;
        }
        unsigned char *row = avail + base;
        for (int i = 0; i < cnt; i++) {
            int c = cols[i];
            i64 dest = gmeta[base + c] & NODE_MASK;
            int choice = -1;
            int p0 = p0tab[node * n + dest];
            int p1 = p1tab[node * n + dest];
            if (p0 >= 0 && row[p0])
                choice = p0;
            else if (p1 >= 0 && row[p1])
                choice = p1;
            if (choice < 0) {
                /* Deflect to the first free link (np.argmax). */
                choice = 0;
                for (int f = 0; f < p; f++)
                    if (row[f]) { choice = f; break; }
                ctr[CTR_DEFL] += 1;
            }
            row[choice] = 0;
            out_meta[base + choice] = gmeta[base + c] + HOP_ONE;
            out_birth[base + choice] = gbirth[base + c];
        }
    }

    /* Injection: responses first, then throttled requests; capacity is
     * "any free healthy output link". */
    unsigned char *capacity = (unsigned char *)pt[PT_W_NODE];
    for (i64 node = 0; node < n; node++) {
        unsigned char any = 0;
        for (int c = 0; c < p; c++)
            if (avail[node * p + c]) { any = 1; break; }
        capacity[node] = any;
    }
    injection_stage(pt, cfg, ctr, cycle, capacity, 0, avail);

    /* Congestion bit (mark_congestion) + send into the ring. */
    int mark = 0;
    for (i64 node = 0; node < n; node++)
        if (congested[node]) { mark = 1; break; }
    i64 sent = 0;
    for (i64 i = 0; i < np; i++) {
        if (out_birth[i] < 0)
            continue;
        i64 m = out_meta[i];
        if (mark && congested[i / p])
            m |= CBIT;
        i64 slot = (cur + lat_out[i] - 1) % depth;
        ring_meta[slot * np + target[i]] = m;
        ring_birth[slot * np + target[i]] = out_birth[i];
        sent++;
    }
    ctr[CTR_HOPS] += sent;
    /* Bufferless: occupancy integral stays zero. */
}

/* ------------------------------------------------------------------ */
/* Buffered XY network step (CreditFlowControl.step)                   */
/* ------------------------------------------------------------------ */
static void credit_phase(void **pt, const i64 *cfg, i64 *ctr, i64 cycle)
{
    i64 n = cfg[CFG_N], p = cfg[CFG_P], depth = cfg[CFG_DEPTH];
    i64 pp = p + 1, np = n * p, bufcap = cfg[CFG_BUF_CAP];
    i64 *ring_meta = (i64 *)pt[PT_RING_META];
    i64 *ring_birth = (i64 *)pt[PT_RING_BIRTH];
    i64 *buf_meta = (i64 *)pt[PT_BUF_META];
    i64 *buf_birth = (i64 *)pt[PT_BUF_BIRTH];
    int32_t *buf_head = (int32_t *)pt[PT_BUF_HEAD];
    int32_t *buf_count = (int32_t *)pt[PT_BUF_COUNT];
    int32_t *reserved = (int32_t *)pt[PT_RESERVED];
    i64 *hkey = (i64 *)pt[PT_H_KEY];
    i64 *hout = (i64 *)pt[PT_H_OUT];
    i64 *w_node = (i64 *)pt[PT_W_NODE];
    i64 *w_in = (i64 *)pt[PT_W_IN];
    i64 *w_down = (i64 *)pt[PT_W_DOWN];
    i64 *w_dport = (i64 *)pt[PT_W_DPORT];
    unsigned char *grant = (unsigned char *)pt[PT_G_AVAIL];
    i64 *hist = (i64 *)pt[PT_LAT_HIST];
    const signed char *p0tab = (const signed char *)pt[PT_P0TAB];
    const unsigned char *link_up = (const unsigned char *)pt[PT_LINK_UP];
    const unsigned char *congested = (const unsigned char *)pt[PT_CONGESTED];
    const i64 *lat_out = (const i64 *)pt[PT_LAT_OUT];
    const i64 *neighbor = (const i64 *)pt[PT_NEIGHBOR];
    const i64 *reverse = (const i64 *)pt[PT_REVERSE];
    i64 arb = cfg[CFG_ARB];

    ctr[CTR_CYCLES] += 1;
    ctr[CTR_EJ_COUNT] = 0;

    /* Link arrivals drain into the input buffers (row-major, matching
     * np.nonzero order); each flat slot is a unique (node, port). */
    i64 cur = ctr[CTR_CURSOR];
    for (i64 i = 0; i < np; i++) {
        i64 b = ring_birth[cur * np + i];
        if (b < 0)
            continue;
        i64 node = i / p, port = i % p;
        i64 bi = node * pp + port;
        i64 slot = (buf_head[bi] + buf_count[bi]) % bufcap;
        buf_meta[bi * bufcap + slot] = ring_meta[cur * np + i];
        buf_birth[bi * bufcap + slot] = b;
        buf_count[bi] += 1;
        reserved[i] -= 1;
        ctr[CTR_BWRITES] += 1;
        ring_birth[cur * np + i] = -1;
    }
    cur = (cur + 1) % depth;
    ctr[CTR_CURSOR] = cur;

    /* Head-of-queue snapshot: key + output port per (node, in port),
     * computed once — pops during the out-port loop do NOT refresh it
     * (heads_into semantics).  hout -2 marks empty FIFOs. */
    int mark = 0;
    for (i64 node = 0; node < n; node++)
        if (congested[node]) { mark = 1; break; }
    for (i64 node = 0; node < n; node++) {
        for (i64 port = 0; port < pp; port++) {
            i64 bi = node * pp + port;
            if (buf_count[bi] <= 0) {
                hkey[bi] = KEY_MAX;
                hout[bi] = -2;
                continue;
            }
            i64 m = buf_meta[bi * bufcap + buf_head[bi]];
            i64 b = buf_birth[bi * bufcap + buf_head[bi]];
            if (arb != ARB_RANDOM) {
                i64 k = (b << SRC_SHIFT) | ((m >> SRC_SHIFT) & NODE_MASK);
                hkey[bi] = arb == ARB_YOUNGEST_FIRST ? -k : k;
            }
            i64 dest = m & NODE_MASK;
            int p0 = p0tab[node * n + dest];
            hout[bi] = p0 < 0 ? p : p0;
        }
    }

    /* One winner per (node, output port); the eject port (index p) is
     * the last loop iteration, exactly like the numpy range(p + 1). */
    for (i64 op = 0; op <= p; op++) {
        i64 nw = 0;
        for (i64 node = 0; node < n; node++) {
            i64 best = KEY_MAX;
            int bc = -1;
            for (i64 port = 0; port < pp; port++) {
                i64 bi = node * pp + port;
                if (hout[bi] == op && hkey[bi] < best) {
                    best = hkey[bi];
                    bc = (int)port;
                }
            }
            if (bc < 0)
                continue;
            if (op == p) {
                /* Local delivery: pop immediately, node-ascending. */
                i64 bi = node * pp + bc;
                i64 m = buf_meta[bi * bufcap + buf_head[bi]];
                i64 b = buf_birth[bi * bufcap + buf_head[bi]];
                buf_head[bi] = (int32_t)((buf_head[bi] + 1) % bufcap);
                buf_count[bi] -= 1;
                ctr[CTR_BREADS] += 1;
                if (!emit_ejected(pt, cfg, ctr, node, m))
                    return;
                account_ejection(ctr, hist, m, cycle - b);
            } else {
                w_node[nw] = node;
                w_in[nw] = bc;
                nw++;
            }
        }
        if (op == p)
            continue;
        /* Two-phase grant: all credit checks read buffer/reserve state
         * as of this out-port iteration's start (the numpy space vector
         * is computed before any pop), then the grants apply. */
        for (i64 k = 0; k < nw; k++) {
            i64 node = w_node[k];
            i64 down = neighbor[node * p + op];
            i64 dport = reverse[node * p + op];
            w_down[k] = down;
            w_dport[k] = dport;
            grant[k] = (buf_count[down * pp + dport]
                        + reserved[down * p + dport] < bufcap)
                       && link_up[node * p + op];
        }
        for (i64 k = 0; k < nw; k++) {
            if (!grant[k])
                continue;
            i64 node = w_node[k];
            i64 bi = node * pp + w_in[k];
            i64 m = buf_meta[bi * bufcap + buf_head[bi]];
            i64 b = buf_birth[bi * bufcap + buf_head[bi]];
            buf_head[bi] = (int32_t)((buf_head[bi] + 1) % bufcap);
            buf_count[bi] -= 1;
            ctr[CTR_BREADS] += 1;
            m += HOP_ONE;
            if (mark && congested[node])
                m |= CBIT;
            i64 slot = (cur + lat_out[node * p + op] - 1) % depth;
            i64 idx = w_down[k] * p + w_dport[k];
            ring_meta[slot * np + idx] = m;
            ring_birth[slot * np + idx] = b;
            reserved[w_down[k] * p + w_dport[k]] += 1;
            ctr[CTR_HOPS] += 1;
        }
    }

    /* Injection through the NI input buffer.  The winner scratch is
     * free again once the out-port loop is done. */
    unsigned char *capacity = (unsigned char *)pt[PT_W_NODE];
    for (i64 node = 0; node < n; node++)
        capacity[node] = buf_count[node * pp + p] < bufcap;
    injection_stage(pt, cfg, ctr, cycle, capacity, 1, (unsigned char *)0);

    /* Occupancy integral: flits held in buffers after this cycle. */
    i64 occ = 0;
    for (i64 bi = 0; bi < n * pp; bi++)
        occ += buf_count[bi];
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
/* The caller (Python per cycle, noc_span when fused) samples the
 * destinations (PT_ISSUE_DEST) from the shared RNG stream first, this
 * kernel performs the queue pushes and per-miss bookkeeping, and the
 * caller then draws the next gaps for the accepted subset — the exact
 * call order of the reference tail.  The accepted nodes are compacted
 * in place into PT_MISS_OUT (they are a prefix-order subset of the
 * misser list). */
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

EXPORT_PHASE(noc_cores, cores_phase)
EXPORT_PHASE(noc_issue, issue_phase)
EXPORT_PHASE(noc_memory, memory_phase)
EXPORT_PHASE(noc_bless, bless_phase)
EXPORT_PHASE(noc_credit, credit_phase)
EXPORT_PHASE(noc_eject, eject_phase)

/* ------------------------------------------------------------------ */
/* RNG draws of the fused span                                         */
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
    int grid = cfg[CFG_LOC_GRID2D] != 0;
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
    i64 w = cfg[CFG_LOC_W], h = cfg[CFG_LOC_H];
    const int32_t *cx = (const int32_t *)pt[PT_LOC_X];
    const int32_t *cy = (const int32_t *)pt[PT_LOC_Y];
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
        if (cfg[CFG_LOC_WRAPS]) {
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
/* Fused span: ctr[CTR_SPAN] whole cycles starting at `cycle`          */
/* ------------------------------------------------------------------ */
/* behaviour -> cores (destination draw, issue, gap draw) -> memory ->
 * network (key grid drawn for ARB_RANDOM) -> ejection, in the pipeline's
 * order and on the generator state the per-cycle path would meet, so a
 * run may switch between the two at any cycle boundary.  Stops at the
 * first cycle that raises ctr[CTR_ERROR]. */
void noc_span(void **pt, const i64 *cfg, i64 *ctr, i64 cycle)
{
    if (!check_abi(cfg, ctr))
        return;
    int buffered = cfg[CFG_BUFFERED] != 0;
    void (*network_phase)(void **, const i64 *, i64 *, i64) =
        buffered ? credit_phase : bless_phase;
    i64 keys = cfg[CFG_N] * (cfg[CFG_P] + buffered);
    i64 end = cycle + ctr[CTR_SPAN];
    for (; cycle < end && !ctr[CTR_ERROR]; cycle++) {
        behavior_phase(pt, cfg);
        cores_phase(pt, cfg, ctr, cycle);
        if (ctr[CTR_MISS_CNT]) {
            draw_destinations(pt, cfg, ctr[CTR_MISS_CNT]);
            issue_phase(pt, cfg, ctr, cycle);
            draw_gaps(pt, ctr[CTR_ACCEPTED]);
        }
        memory_phase(pt, cfg, ctr, cycle);
        if (ctr[CTR_ERROR])
            return;
        if (cfg[CFG_ARB] == ARB_RANDOM)
            /* integers(0, KEY_MAX, size=grid.shape, dtype=int64) */
            random_bounded_uint64_fill(
                (bitgen_t *)pt[PT_RNG_ARB], 0, (uint64_t)KEY_MAX - 1, keys,
                0, (uint64_t *)pt[buffered ? PT_H_KEY : PT_G_KEY]);
        network_phase(pt, cfg, ctr, cycle);
        if (ctr[CTR_ERROR])
            return;
        eject_phase(pt, cfg, ctr, cycle);
    }
}
