/*
 * Compiled replay kernel for the soa engine (docs/engine.md).
 *
 * repro_run() replays a whole trace in one call: trace decode, the per-SM
 * L1 data caches (GPU write policies, MSHR coalescing, deferred fills),
 * the const and texture caches, the L2 (uniform, or the paper's two-part
 * LR/HR organisation with retention expiry, the search selector, WWS
 * migration, both swap buffers and refresh sweeps), bank scheduling and
 * the line-interleaved DRAM read path.
 *
 * It is a transcription of the object engine's replay loop
 * (GPUSimulator.run in gpu/simulator.py, with the L1, MSHR, read-only
 * cache, bank and DRAM models it calls) and of the L2 protocol in
 * core/twopart.py, core/refresh.py and core/uniform.py over the
 * SoaCacheArray operations in soa_array.py.  Every state transition
 * and every floating-point operation happens in the same order as there,
 * so with IEEE doubles evaluated at their own precision and no FP
 * contraction (-ffp-contract=off, no -ffast-math) the results are
 * bit-identical.
 *
 * All state the caller needs afterwards lives in caller-owned buffers
 * referenced from the structs below (mirrored field for field by ctypes
 * in kernel.py); the L1 and read-only cache contents are scratch.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Extended-precision evaluation (e.g. x87) would round differently from
 * Python; refuse to build so the loader falls back to the Python path. */
#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "the replay kernel needs binary64 evaluation (FLT_EVAL_METHOD == 0)"
#endif

/* CacheStats field order */
enum { ST_READS, ST_WRITES, ST_READ_HITS, ST_WRITE_HITS, ST_FILLS,
       ST_EV_CLEAN, ST_EV_DIRTY, ST_INVALIDATIONS, N_ST };

/* per-SM counters: L1 array, L1 GPU, MSHR, const cache, texture cache */
enum { AR_READS, AR_WRITES, AR_READ_HITS, AR_WRITE_HITS, AR_FILLS,
       AR_EV_CLEAN, AR_EV_DIRTY, AR_INVALIDATIONS,
       G_GLOBAL_READS, G_GLOBAL_WRITES, G_LOCAL_READS, G_LOCAL_WRITES,
       G_WRITE_EVICTIONS, G_LOCAL_WRITEBACKS, G_COALESCED, G_MSHR_STALLS,
       M_ALLOCATIONS, M_COALESCED, M_STALLS, M_COMPLETIONS,
       C_READS, C_READ_HITS, C_FILLS, C_EV_CLEAN,
       T_READS, T_READ_HITS, T_FILLS, T_EV_CLEAN,
       N_SM_COUNTERS };

/* repro_run return codes */
enum { OK = 0, ERR_NOMEM = 1, ERR_INTERVALS = 2 };

#define KIND_FETCH 0
#define KIND_WRITE 1
#define KIND_WRITEBACK 2

typedef struct {
    int64_t num_sets, assoc, pow2, set_bits, set_mask, offset_bits;
} Geom;

/* One SoaCacheArray: per-slot and per-set vectors plus its CacheStats. */
typedef struct {
    Geom g;
    int64_t saturation;
    int64_t *tag;
    uint8_t *valid, *dirty;
    int64_t *write_count, *total_writes, *total_reads, *frame_writes;
    double *last_write, *last_access, *insert;
    int64_t *set_writes, *set_evictions;
    int32_t *lru;              /* num_sets x assoc, LRU way first */
    int64_t *stats;            /* N_ST */
} Part;

/* One MigrationBuffer as a ring over caller-owned storage. */
typedef struct {
    int64_t capacity, head, count;
    int64_t *line;
    uint8_t *dirty;
    double *ready;
    double port_free_at, service;
    int64_t pushes, drains, overflows, peak;
} Buffer;

/* RefreshEngine schedule, counters and the last sweep's decisions. */
typedef struct {
    int64_t has_lr;
    double lr_retention, lr_refresh_age, lr_tick, hr_refresh_age, hr_tick;
    double next_lr, next_hr;
    int64_t scans, lr_refreshes, lr_expiries, hr_clean, hr_dirty;
    int64_t swept;                 /* any sweep ran during this call */
    int64_t *act[4];               /* lr_refresh, lr_lost, hr_clean, hr_dirty */
    int64_t n_act[4];
    int64_t *slot[4];              /* scratch: the decisions' slots */
} Refresh;

typedef struct {
    Part lr, hr;
    Buffer h2l, l2h;
    Refresh ref;
    int64_t sequential, threshold, track_intervals;
    double hr_ret;
    double lr_w_en, lr_r_en, lr_w_lat, lr_r_lat;
    double hr_w_en, hr_r_en, hr_w_lat, hr_r_lat, hr_fill_en, lr_refresh_en;
    double tag_lat1, tag_lat2, pe_r1, pe_r2, pe_w1, pe_w2;
    double demand_j, fill_j, migration_j, refresh_j;
    int64_t data_losses, lr_data_writes, hr_data_writes, refresh_writes;
    int64_t migrations_to_lr, returns_to_hr, dram_writebacks_total;
    int64_t sel_accesses, sel_first, sel_second, mon_writes, mon_migrations;
    double *intervals;
    int64_t n_intervals, intervals_cap;
} TwoPart;

typedef struct {
    Part arr;
    double w_hit_en, r_hit_en, w_lat, r_lat, probe_en, fill_en;
    double demand_j, fill_j;
    int64_t data_writes;
} Uniform;

typedef struct {
    /* trace */
    int64_t n, num_sms;
    const int16_t *sm;
    const int64_t *addr;
    const uint8_t *flags;
    int64_t flag_write, flag_local, flag_const, flag_texture;
    /* per-SM cache geometries */
    Geom l1, cst, tex;
    int64_t mshr_entries, mshr_max_merged;
    /* timing */
    double now, dt, time_dilation, l1_hit_s, noc_rt_s, cycle_s, wait_cap_factor;
    /* banks */
    int64_t bank_shift, bank_mask;
    double *bank_busy;
    int64_t *bank_req_v, *bank_conf_v;
    double *bank_wait_v;
    int64_t bank_req, bank_conf;
    double bank_wait_sum;
    /* DRAM read path */
    int64_t dram_channels, dram_line_shift, dram_row_size;
    double dram_service, dram_base_lat, dram_rowhit_lat, dram_max_wait;
    double *dram_busy, *dram_busy_s;
    int64_t *dram_open;
    int64_t n_dram_r, n_dram_rh, n_dram_w;
    double dram_wait_s;
    /* replay totals */
    int64_t reads, l2_requests, dram_writebacks;
    double stall_sum_s, read_latency_sum_s, l2_service_sum_s;
    /* num_sms x N_SM_COUNTERS */
    int64_t *sm_counters;
    /* pending fills / MSHR entries, num_sms x mshr_entries, in
       insertion order (ready is NaN while the fetch is unanswered) */
    int64_t *pend_line, *pend_merged, *pend_count;
    uint8_t *pend_dirty;
    double *pend_ready, *min_ready;
    /* exactly one of these is set */
    TwoPart *twopart;
    Uniform *uniform;
} Sim;

/* ------------------------------------------------------------------ */
/* set-associative helpers                                             */
/* ------------------------------------------------------------------ */

static inline void split(const Geom *g, int64_t lineno, int64_t *tag,
                         int64_t *index)
{
    if (g->pow2) {
        *tag = lineno >> g->set_bits;
        *index = lineno & g->set_mask;
    } else {
        *tag = lineno / g->num_sets;
        *index = lineno % g->num_sets;
    }
}

static inline int64_t rebuild(const Geom *g, int64_t tag, int64_t index)
{
    int64_t lineno = g->pow2 ? ((tag << g->set_bits) | index)
                             : tag * g->num_sets + index;
    return lineno << g->offset_bits;
}

/* tag -> way within one set, or -1 */
static inline int64_t lookup(const int64_t *tags, const uint8_t *valid,
                             int64_t base, int64_t assoc, int64_t tag)
{
    for (int64_t w = 0; w < assoc; w++)
        if (valid[base + w] && tags[base + w] == tag)
            return w;
    return -1;
}

/* first invalid way, else the LRU way */
static inline int64_t victim(const uint8_t *valid, const int32_t *order,
                             int64_t base, int64_t assoc)
{
    for (int64_t w = 0; w < assoc; w++)
        if (!valid[base + w])
            return w;
    return order[0];
}

/* order.remove(way); order.append(way) */
static inline void touch(int32_t *order, int64_t assoc, int64_t way)
{
    int64_t p = 0;
    while (order[p] != way)
        p++;
    for (; p + 1 < assoc; p++)
        order[p] = order[p + 1];
    order[assoc - 1] = (int32_t)way;
}

/* ------------------------------------------------------------------ */
/* SoaCacheArray operations                                            */
/* ------------------------------------------------------------------ */

static inline void part_write_hit(Part *p, int64_t index, int64_t slot,
                                  double now)
{
    p->dirty[slot] = 1;
    p->total_writes[slot] += 1;
    if (p->saturation <= 0 || p->write_count[slot] < p->saturation)
        p->write_count[slot] += 1;
    p->last_write[slot] = now;
    p->last_access[slot] = now;
    p->set_writes[index] += 1;
    p->frame_writes[slot] += 1;
}

static void part_reset_slot(Part *p, int64_t slot)
{
    p->tag[slot] = -1;
    p->valid[slot] = 0;
    p->dirty[slot] = 0;
    p->write_count[slot] = 0;
    p->total_writes[slot] = 0;
    p->total_reads[slot] = 0;
    p->last_write[slot] = 0.0;
    p->last_access[slot] = 0.0;
    p->insert[slot] = 0.0;
}

static inline void part_invalidate(Part *p, int64_t slot)
{
    part_reset_slot(p, slot);
    p->stats[ST_INVALIDATIONS] += 1;
}

/* SoaCacheArray._fill; returns the evicted line address or -1 */
static int64_t part_install(Part *p, int64_t index, int64_t tag, double now,
                            int dirty, int *evicted_dirty)
{
    int64_t assoc = p->g.assoc, base = index * assoc;
    int32_t *order = p->lru + base;
    int64_t way = victim(p->valid, order, base, assoc);
    int64_t slot = base + way, evicted = -1;
    *evicted_dirty = 0;
    if (p->valid[slot]) {
        evicted = rebuild(&p->g, p->tag[slot], index);
        *evicted_dirty = p->dirty[slot];
        p->set_evictions[index] += 1;
        p->stats[*evicted_dirty ? ST_EV_DIRTY : ST_EV_CLEAN] += 1;
    }
    p->tag[slot] = tag;
    p->valid[slot] = 1;
    p->dirty[slot] = (uint8_t)dirty;
    p->write_count[slot] = dirty ? 1 : 0;
    p->total_writes[slot] = dirty ? 1 : 0;
    p->total_reads[slot] = 0;
    p->last_write[slot] = dirty ? now : 0.0;
    p->last_access[slot] = now;
    p->insert[slot] = now;
    touch(order, assoc, way);
    p->frame_writes[slot] += 1;
    if (dirty)
        p->set_writes[index] += 1;
    p->stats[ST_FILLS] += 1;
    return evicted;
}

/* SoaCacheArray.fill (install without a demand access) */
static int64_t part_fill(Part *p, int64_t line, double now, int dirty,
                         int *evicted_dirty)
{
    int64_t tag, index;
    split(&p->g, line >> p->g.offset_bits, &tag, &index);
    int64_t base = index * p->g.assoc;
    int64_t way = lookup(p->tag, p->valid, base, p->g.assoc, tag);
    if (way >= 0) {
        if (dirty)
            part_write_hit(p, index, base + way, now);
        touch(p->lru + base, p->g.assoc, way);
        *evicted_dirty = 0;
        return -1;
    }
    return part_install(p, index, tag, now, dirty, evicted_dirty);
}

/* ------------------------------------------------------------------ */
/* two-part L2                                                         */
/* ------------------------------------------------------------------ */

/* TwoPartSTTL2._buffer_push: returns the overflow write-backs */
static int64_t buffer_push(TwoPart *t, Buffer *b, int64_t line, int dirty,
                           double now)
{
    int64_t writebacks = 0;
    if (b->count >= b->capacity) {
        int popped_dirty = b->dirty[b->head];
        b->head = (b->head + 1) % b->capacity;
        b->count -= 1;
        b->overflows += 1;
        if (popped_dirty) {
            writebacks += 1;
            t->dram_writebacks_total += 1;
        }
    }
    double start = b->port_free_at > now ? b->port_free_at : now;
    double ready = start + b->service;
    b->port_free_at = ready;
    int64_t tail = (b->head + b->count) % b->capacity;
    b->line[tail] = line;
    b->dirty[tail] = (uint8_t)dirty;
    b->ready[tail] = ready;
    b->count += 1;
    b->pushes += 1;
    if (b->count > b->peak)
        b->peak = b->count;
    return writebacks;
}

static inline void buffer_drain(Buffer *b, double now)
{
    while (b->count && b->ready[b->head] <= now) {
        b->head = (b->head + 1) % b->capacity;
        b->count -= 1;
        b->drains += 1;
    }
}

static double next_on_grid(double now, double tick)
{
    double scheduled = (floor(now / tick) + 1.0) * tick;
    if (scheduled <= now)
        scheduled += tick;
    return scheduled;
}

/* TwoPartSTTL2.maintenance with the RefreshEngine._sweep_lr/_sweep_hr sweeps */
static int64_t twopart_maintenance(TwoPart *t, double now)
{
    Refresh *r = &t->ref;
    if (t->h2l.count)
        buffer_drain(&t->h2l, now);
    if (t->l2h.count)
        buffer_drain(&t->l2h, now);
    if (!(now >= r->next_lr || now >= r->next_hr))
        return 0;
    for (int k = 0; k < 4; k++)
        r->n_act[k] = 0;
    r->swept = 1;
    if (r->has_lr && now >= r->next_lr) {
        Part *p = &t->lr;
        int64_t slot = 0;
        r->scans += 1;
        for (int64_t index = 0; index < p->g.num_sets; index++) {
            for (int64_t w = 0; w < p->g.assoc; w++, slot++) {
                if (!p->valid[slot])
                    continue;
                double last = p->insert[slot];
                if (p->last_write[slot] > last)
                    last = p->last_write[slot];
                double age = now - last;
                int k = age >= r->lr_retention ? 1
                      : age >= r->lr_refresh_age ? 0 : -1;
                if (k < 0)
                    continue;
                r->act[k][r->n_act[k]] = rebuild(&p->g, p->tag[slot], index);
                r->slot[k][r->n_act[k]++] = slot;
            }
        }
        r->lr_expiries += r->n_act[1];
        r->lr_refreshes += r->n_act[0];
        r->next_lr = next_on_grid(now, r->lr_tick);
    }
    if (now >= r->next_hr) {
        Part *p = &t->hr;
        int64_t slot = 0;
        for (int64_t index = 0; index < p->g.num_sets; index++) {
            for (int64_t w = 0; w < p->g.assoc; w++, slot++) {
                if (!p->valid[slot])
                    continue;
                double last = p->insert[slot];
                if (p->last_write[slot] > last)
                    last = p->last_write[slot];
                if (now - last >= r->hr_refresh_age) {
                    int k = p->dirty[slot] ? 3 : 2;
                    r->act[k][r->n_act[k]] = rebuild(&p->g, p->tag[slot], index);
                    r->slot[k][r->n_act[k]++] = slot;
                }
            }
        }
        r->hr_dirty += r->n_act[3];
        r->hr_clean += r->n_act[2];
        r->next_hr = next_on_grid(now, r->hr_tick);
    }
    /* apply: LR refreshes, LR losses, clean HR drops, dirty HR drops */
    for (int64_t i = 0; i < r->n_act[0]; i++) {
        t->lr.insert[r->slot[0][i]] = now;
        t->refresh_j += t->lr_refresh_en;
        t->refresh_writes += 1;
    }
    for (int64_t i = 0; i < r->n_act[1]; i++) {
        int64_t slot = r->slot[1][i];
        if (t->lr.dirty[slot])
            t->data_losses += 1;
        part_invalidate(&t->lr, slot);
    }
    for (int64_t i = 0; i < r->n_act[2]; i++)
        part_invalidate(&t->hr, r->slot[2][i]);
    for (int64_t i = 0; i < r->n_act[3]; i++) {
        t->refresh_j += t->hr_r_en;
        part_invalidate(&t->hr, r->slot[3][i]);
    }
    t->dram_writebacks_total += r->n_act[3];
    return r->n_act[3];
}

/* TwoPartSTTL2._return_to_hr */
static int64_t return_to_hr(TwoPart *t, int64_t line, int dirty, double now)
{
    int64_t writebacks = 0;
    int evicted_dirty;
    t->migration_j += t->lr_r_en;
    writebacks += buffer_push(t, &t->l2h, line, dirty, now);
    t->returns_to_hr += 1;
    part_fill(&t->hr, line, now, dirty, &evicted_dirty);
    t->migration_j += t->hr_w_en;
    t->hr_data_writes += 1;
    if (evicted_dirty) {
        writebacks += 1;
        t->dram_writebacks_total += 1;
    }
    return writebacks;
}

/* TwoPartSTTL2._migrate_and_write: HR write hit at the WWS threshold */
static double migrate(TwoPart *t, int64_t line, int64_t index, int64_t slot,
                      double now, double energy, double tag_latency,
                      int64_t *writebacks)
{
    Part *hr = &t->hr;
    int evicted_dirty;
    double migration_energy = t->hr_r_en;
    hr->stats[ST_WRITES] += 1;
    hr->stats[ST_WRITE_HITS] += 1;
    part_write_hit(hr, index, slot, now);
    touch(hr->lru + index * hr->g.assoc, hr->g.assoc, slot - index * hr->g.assoc);
    part_reset_slot(hr, slot);
    *writebacks += buffer_push(t, &t->h2l, line, 1, now);
    t->migrations_to_lr += 1;
    int64_t evicted = part_fill(&t->lr, line, now, 1, &evicted_dirty);
    migration_energy += t->lr_w_en;
    t->lr_data_writes += 1;
    if (evicted >= 0)
        *writebacks += return_to_hr(t, evicted, evicted_dirty, now);
    t->demand_j += energy;
    t->migration_j += migration_energy;
    return tag_latency + t->lr_w_lat;
}

/* TwoPartSTTL2.access: returns 1 when the line must be fetched from DRAM */
static int twopart_access(TwoPart *t, int64_t address, int is_write,
                          double now, double *latency, int64_t *writebacks)
{
    Part *lr = &t->lr, *hr = &t->hr;
    int64_t line = address & ~(((int64_t)1 << hr->g.offset_bits) - 1);
    *writebacks = twopart_maintenance(t, now);
    int64_t lineno = line >> hr->g.offset_bits;

    /* locate, expiring stale residents on the access path */
    int part = 0; /* 0 miss, 1 lr, 2 hr */
    int64_t tag, index, slot = 0, hr_tag, hr_index, hr_slot = 0;
    split(&lr->g, lineno, &tag, &index);
    int64_t way = lookup(lr->tag, lr->valid, index * lr->g.assoc,
                         lr->g.assoc, tag);
    if (way >= 0) {
        slot = index * lr->g.assoc + way;
        if (t->ref.has_lr) {
            double last = lr->insert[slot];
            if (lr->last_write[slot] > last)
                last = lr->last_write[slot];
            if (now - last >= t->ref.lr_retention) {
                if (lr->dirty[slot])
                    t->data_losses += 1;
                part_invalidate(lr, slot);
                way = -1;
            }
        }
        if (way >= 0)
            part = 1;
    }
    split(&hr->g, lineno, &hr_tag, &hr_index);
    if (!part) {
        int64_t hr_way = lookup(hr->tag, hr->valid, hr_index * hr->g.assoc,
                                hr->g.assoc, hr_tag);
        if (hr_way >= 0) {
            hr_slot = hr_index * hr->g.assoc + hr_way;
            double last = hr->insert[hr_slot];
            if (hr->last_write[hr_slot] > last)
                last = hr->last_write[hr_slot];
            if (now - last >= t->hr_ret) {
                if (hr->dirty[hr_slot])
                    t->data_losses += 1;
                part_invalidate(hr, hr_slot);
            } else {
                part = 2;
            }
        }
    }

    /* search-selector accounting */
    double tag_latency, energy;
    int first_hit = part == (is_write ? 1 : 2);
    t->sel_accesses += 1;
    if (!t->sequential) {
        if (first_hit)
            t->sel_first += 1;
        t->sel_second += 1;
        tag_latency = t->tag_lat1;
        energy = is_write ? t->pe_w2 : t->pe_r2;
    } else if (first_hit) {
        t->sel_first += 1;
        tag_latency = t->tag_lat1;
        energy = is_write ? t->pe_w1 : t->pe_r1;
    } else {
        t->sel_second += 1;
        tag_latency = t->tag_lat2;
        energy = is_write ? t->pe_w2 : t->pe_r2;
    }

    /* serve */
    if (part == 1) {
        if (is_write) {
            if (t->track_intervals && lr->last_write[slot] > 0) {
                if (t->n_intervals >= t->intervals_cap)
                    return -1;
                t->intervals[t->n_intervals++] = now - lr->last_write[slot];
            }
            lr->stats[ST_WRITES] += 1;
            lr->stats[ST_WRITE_HITS] += 1;
            part_write_hit(lr, index, slot, now);
            energy += t->lr_w_en;
            *latency = tag_latency + t->lr_w_lat;
            t->lr_data_writes += 1;
        } else {
            lr->stats[ST_READS] += 1;
            lr->stats[ST_READ_HITS] += 1;
            lr->total_reads[slot] += 1;
            lr->last_access[slot] = now;
            energy += t->lr_r_en;
            *latency = tag_latency + t->lr_r_lat;
        }
        touch(lr->lru + index * lr->g.assoc, lr->g.assoc, way);
        t->demand_j += energy;
        return 0;
    }
    if (part == 2) {
        int64_t base = hr_index * hr->g.assoc;
        if (!is_write) {
            hr->stats[ST_READS] += 1;
            hr->stats[ST_READ_HITS] += 1;
            hr->total_reads[hr_slot] += 1;
            hr->last_access[hr_slot] = now;
            touch(hr->lru + base, hr->g.assoc, hr_slot - base);
            energy += t->hr_r_en;
            *latency = tag_latency + t->hr_r_lat;
            t->demand_j += energy;
            return 0;
        }
        t->mon_writes += 1;
        if (hr->write_count[hr_slot] >= t->threshold) {
            t->mon_migrations += 1;
            *latency = migrate(t, line, hr_index, hr_slot, now, energy,
                               tag_latency, writebacks);
            return 0;
        }
        hr->stats[ST_WRITES] += 1;
        hr->stats[ST_WRITE_HITS] += 1;
        part_write_hit(hr, hr_index, hr_slot, now);
        touch(hr->lru + base, hr->g.assoc, hr_slot - base);
        energy += t->hr_w_en;
        *latency = tag_latency + t->hr_w_lat;
        t->hr_data_writes += 1;
        t->demand_j += energy;
        return 0;
    }
    /* miss: TwoPartSTTL2._serve_miss, always a fill into HR */
    int evicted_dirty;
    hr->stats[is_write ? ST_WRITES : ST_READS] += 1;
    part_install(hr, hr_index, hr_tag, now, is_write, &evicted_dirty);
    t->hr_data_writes += 1;
    if (evicted_dirty) {
        *writebacks += 1;
        t->dram_writebacks_total += 1;
    }
    t->demand_j += energy;
    t->fill_j += t->hr_fill_en;
    *latency = tag_latency + t->hr_r_lat;
    return 1;
}

/* ------------------------------------------------------------------ */
/* uniform L2                                                          */
/* ------------------------------------------------------------------ */

/* UniformL2.access */
static int uniform_access(Uniform *u, int64_t address, int is_write,
                          double now, double *latency, int64_t *writebacks)
{
    Part *p = &u->arr;
    int64_t tag, index;
    split(&p->g, address >> p->g.offset_bits, &tag, &index);
    int64_t base = index * p->g.assoc;
    int64_t way = lookup(p->tag, p->valid, base, p->g.assoc, tag);
    p->stats[is_write ? ST_WRITES : ST_READS] += 1;
    *writebacks = 0;
    if (way >= 0) {
        int64_t slot = base + way;
        double energy;
        if (is_write) {
            p->stats[ST_WRITE_HITS] += 1;
            part_write_hit(p, index, slot, now);
            energy = u->w_hit_en;
            *latency = u->w_lat;
            u->data_writes += 1;
        } else {
            p->stats[ST_READ_HITS] += 1;
            p->total_reads[slot] += 1;
            p->last_access[slot] = now;
            energy = u->r_hit_en;
            *latency = u->r_lat;
        }
        touch(p->lru + base, p->g.assoc, way);
        u->demand_j += energy;
        return 0;
    }
    int evicted_dirty;
    part_install(p, index, tag, now, is_write, &evicted_dirty);
    if (evicted_dirty)
        *writebacks = 1;
    u->data_writes += 1;
    u->demand_j += u->probe_en;
    u->fill_j += u->fill_en;
    *latency = u->r_lat;
    return 1;
}

/* ------------------------------------------------------------------ */
/* per-SM scratch caches and the pending-fill table                    */
/* ------------------------------------------------------------------ */

typedef struct {
    Geom g;
    int64_t *tag;
    uint8_t *valid, *dirty;
    int32_t *lru;
} Small;

static int small_alloc(Small *c, const Geom *g, int64_t num_sms)
{
    int64_t sets = num_sms * g->num_sets, slots = sets * g->assoc;
    c->g = *g;
    c->tag = malloc((size_t)(slots ? slots : 1) * sizeof(int64_t));
    c->valid = calloc((size_t)(slots ? slots : 1), 1);
    c->dirty = calloc((size_t)(slots ? slots : 1), 1);
    c->lru = malloc((size_t)(slots ? slots : 1) * sizeof(int32_t));
    if (!c->tag || !c->valid || !c->dirty || !c->lru)
        return ERR_NOMEM;
    for (int64_t s = 0; s < slots; s++) {
        c->tag[s] = -1;
        c->lru[s] = (int32_t)(s % g->assoc);
    }
    return OK;
}

static void small_free(Small *c)
{
    free(c->tag);
    free(c->valid);
    free(c->dirty);
    free(c->lru);
}

/* const/texture read: 1 on a miss (the line then goes to the L2) */
static int readonly_access(Small *c, int64_t *counters, int reads, int64_t sm,
                           int64_t address, int64_t *line)
{
    int64_t lineno = address >> c->g.offset_bits, tag, index;
    split(&c->g, lineno, &tag, &index);
    int64_t set = sm * c->g.num_sets + index, base = set * c->g.assoc;
    int32_t *order = c->lru + base;
    counters[reads] += 1;
    int64_t way = lookup(c->tag, c->valid, base, c->g.assoc, tag);
    if (way >= 0) {
        counters[reads + 1] += 1;
        touch(order, c->g.assoc, way);
        return 0;
    }
    way = victim(c->valid, order, base, c->g.assoc);
    if (c->valid[base + way])
        counters[reads + 3] += 1;   /* read-only lines are never dirty */
    c->tag[base + way] = tag;
    c->valid[base + way] = 1;
    touch(order, c->g.assoc, way);
    counters[reads + 2] += 1;
    *line = lineno << c->g.offset_bits;
    return 1;
}

static inline int64_t pend_find(const Sim *s, int64_t sm, int64_t line)
{
    const int64_t *lines = s->pend_line + sm * s->mshr_entries;
    for (int64_t k = 0; k < s->pend_count[sm]; k++)
        if (lines[k] == line)
            return k;
    return -1;
}

static void pend_remove(Sim *s, int64_t sm, int64_t k)
{
    int64_t base = sm * s->mshr_entries, tail = s->pend_count[sm] - k - 1;
    memmove(s->pend_line + base + k, s->pend_line + base + k + 1,
            (size_t)tail * sizeof(int64_t));
    memmove(s->pend_merged + base + k, s->pend_merged + base + k + 1,
            (size_t)tail * sizeof(int64_t));
    memmove(s->pend_dirty + base + k, s->pend_dirty + base + k + 1,
            (size_t)tail);
    memmove(s->pend_ready + base + k, s->pend_ready + base + k + 1,
            (size_t)tail * sizeof(double));
    s->pend_count[sm] -= 1;
}

/* ------------------------------------------------------------------ */
/* one L2 request: L2 access, bank queueing, DRAM read, stall          */
/* ------------------------------------------------------------------ */

static int request(Sim *s, int kind, int64_t address, int64_t sm)
{
    double now = s->now, latency;
    int64_t writebacks;
    int fetch = s->twopart
        ? twopart_access(s->twopart, address, kind != KIND_FETCH,
                         now * s->time_dilation, &latency, &writebacks)
        : uniform_access(s->uniform, address, kind != KIND_FETCH,
                         now * s->time_dilation, &latency, &writebacks);
    if (fetch < 0)
        return ERR_INTERVALS;
    s->l2_requests += 1;
    s->l2_service_sum_s += latency;
    int64_t bank = (address >> s->bank_shift) & s->bank_mask;
    double busy = s->bank_busy[bank];
    double start = busy > now ? busy : now;
    double wait = start - now;
    s->bank_busy[bank] = start + latency;
    s->bank_req += 1;
    s->bank_req_v[bank] += 1;
    if (wait > 0) {
        s->bank_conf += 1;
        s->bank_wait_sum += wait;
        s->bank_conf_v[bank] += 1;
        s->bank_wait_v[bank] += wait;
    }
    double wait_cap = s->wait_cap_factor
        * (latency >= s->cycle_s ? latency : s->cycle_s);
    if (wait > wait_cap)
        wait = wait_cap;
    double total = wait + latency;
    if (fetch) {
        double t_req = now + total, d_lat;
        int64_t channel = (address >> s->dram_line_shift) % s->dram_channels;
        int64_t row = address / s->dram_row_size;
        s->n_dram_r += 1;
        if (s->dram_open[channel] == row) {
            s->n_dram_rh += 1;
            d_lat = s->dram_rowhit_lat;
        } else {
            d_lat = s->dram_base_lat;
            s->dram_open[channel] = row;
        }
        busy = s->dram_busy[channel];
        double d_start = busy > t_req ? busy : t_req;
        double d_wait = d_start - t_req;
        if (d_wait > s->dram_max_wait)
            d_wait = s->dram_max_wait;
        s->dram_busy[channel] = d_start + s->dram_service;
        s->dram_busy_s[channel] += s->dram_service;
        s->dram_wait_s += d_wait;
        total += d_wait + d_lat;
    }
    if (writebacks) {
        s->n_dram_w += writebacks;
        s->dram_writebacks += writebacks;
    }
    if (kind == KIND_FETCH) {
        total += s->noc_rt_s;
        s->stall_sum_s += total;
        s->read_latency_sum_s += total;
        int64_t k = pend_find(s, sm, address);
        int64_t at = sm * s->mshr_entries + k;
        if (k >= 0 && isnan(s->pend_ready[at])) {
            double ready = now + total;
            s->pend_ready[at] = ready;
            if (ready < s->min_ready[sm])
                s->min_ready[sm] = ready;
        }
    } else if (kind == KIND_WRITE) {
        s->stall_sum_s += wait + latency;
    }
    return OK;
}

/* ------------------------------------------------------------------ */
/* the L1 data cache                                                   */
/* ------------------------------------------------------------------ */

/* install the fetches that have landed by now, in insertion order */
static int land_fills(Sim *s, Small *l1, int64_t sm, int64_t *counters,
                      int64_t *landed_line, uint8_t *landed_dirty)
{
    int64_t base = sm * s->mshr_entries, kept = 0, landed = 0;
    double new_min = INFINITY, now = s->now;
    for (int64_t k = 0; k < s->pend_count[sm]; k++) {
        double ready = s->pend_ready[base + k];
        if (!isnan(ready) && ready <= now) {
            landed_line[landed] = s->pend_line[base + k];
            landed_dirty[landed++] = s->pend_dirty[base + k];
            continue;
        }
        if (!isnan(ready) && ready < new_min)
            new_min = ready;
        s->pend_line[base + kept] = s->pend_line[base + k];
        s->pend_merged[base + kept] = s->pend_merged[base + k];
        s->pend_dirty[base + kept] = s->pend_dirty[base + k];
        s->pend_ready[base + kept++] = ready;
    }
    s->pend_count[sm] = kept;
    s->min_ready[sm] = new_min;
    const Geom *g = &l1->g;
    for (int64_t i = 0; i < landed; i++) {
        int64_t tag, index, evicted = -1;
        split(g, landed_line[i] >> g->offset_bits, &tag, &index);
        int64_t set = sm * g->num_sets + index, sbase = set * g->assoc;
        int32_t *order = l1->lru + sbase;
        int64_t way = lookup(l1->tag, l1->valid, sbase, g->assoc, tag);
        if (way >= 0) {
            /* already present: OR in the dirty intent, touch */
            if (landed_dirty[i])
                l1->dirty[sbase + way] = 1;
        } else {
            way = victim(l1->valid, order, sbase, g->assoc);
            int64_t slot = sbase + way;
            if (l1->valid[slot]) {
                if (l1->dirty[slot]) {
                    counters[AR_EV_DIRTY] += 1;
                    evicted = rebuild(g, l1->tag[slot], index);
                } else {
                    counters[AR_EV_CLEAN] += 1;
                }
            }
            l1->tag[slot] = tag;
            l1->valid[slot] = 1;
            l1->dirty[slot] = landed_dirty[i];
            counters[AR_FILLS] += 1;
        }
        touch(order, g->assoc, way);
        counters[M_COMPLETIONS] += 1;
        if (evicted >= 0) {
            counters[G_LOCAL_WRITEBACKS] += 1;
            int rc = request(s, KIND_WRITEBACK, evicted, sm);
            if (rc != OK)
                return rc;
        }
    }
    return OK;
}

static int l1_access(Sim *s, Small *l1, int64_t sm, int64_t address,
                     int is_write, int is_local, int64_t *counters,
                     int64_t *landed_line, uint8_t *landed_dirty)
{
    const Geom *g = &l1->g;
    if (s->pend_count[sm] && s->now >= s->min_ready[sm]) {
        int rc = land_fills(s, l1, sm, counters, landed_line, landed_dirty);
        if (rc != OK)
            return rc;
    }
    int64_t lineno = address >> g->offset_bits, tag, index;
    split(g, lineno, &tag, &index);
    int64_t line = lineno << g->offset_bits;
    int64_t sbase = (sm * g->num_sets + index) * g->assoc;
    int32_t *order = l1->lru + sbase;
    int64_t way = lookup(l1->tag, l1->valid, sbase, g->assoc, tag);
    int dirty_intent = 0;
    if (is_local) {
        /* conventional write-back / write-allocate for local data */
        counters[is_write ? G_LOCAL_WRITES : G_LOCAL_READS] += 1;
        counters[is_write ? AR_WRITES : AR_READS] += 1;
        if (way >= 0) {
            if (is_write) {
                counters[AR_WRITE_HITS] += 1;
                l1->dirty[sbase + way] = 1;
            } else {
                counters[AR_READ_HITS] += 1;
            }
            touch(order, g->assoc, way);
            return OK;
        }
        dirty_intent = is_write;
    } else if (is_write) {
        /* global store: write-evict on hit, write-no-allocate on miss */
        counters[G_GLOBAL_WRITES] += 1;
        counters[AR_WRITES] += 1;
        if (way >= 0) {
            counters[AR_WRITE_HITS] += 1;
            l1->tag[sbase + way] = -1;
            l1->valid[sbase + way] = 0;
            l1->dirty[sbase + way] = 0;
            counters[AR_INVALIDATIONS] += 1;
            counters[G_WRITE_EVICTIONS] += 1;
        } else {
            int64_t k = pend_find(s, sm, line);
            if (k >= 0) {
                /* the store supersedes an in-flight fetch: cancel it */
                pend_remove(s, sm, k);
                counters[M_COMPLETIONS] += 1;
            }
        }
        return request(s, KIND_WRITE, line, sm);
    } else {
        /* global read: allocate on miss through the MSHRs */
        counters[G_GLOBAL_READS] += 1;
        counters[AR_READS] += 1;
        if (way >= 0) {
            counters[AR_READ_HITS] += 1;
            touch(order, g->assoc, way);
            return OK;
        }
    }
    /* read / local miss: register in the MSHR file */
    int64_t k = pend_find(s, sm, line);
    if (k >= 0) {
        /* secondary miss to an in-flight line: coalesce */
        int64_t at = sm * s->mshr_entries + k;
        if (s->pend_merged[at] >= s->mshr_max_merged) {
            counters[M_STALLS] += 1;
        } else {
            s->pend_merged[at] += 1;
            counters[M_COALESCED] += 1;
        }
        if (dirty_intent)
            s->pend_dirty[at] = 1;
        counters[G_COALESCED] += 1;
        return OK;
    }
    if (s->pend_count[sm] >= s->mshr_entries) {
        /* MSHRs full: uncached non-allocating fetch */
        counters[M_STALLS] += 1;
        counters[G_MSHR_STALLS] += 1;
    } else {
        int64_t at = sm * s->mshr_entries + s->pend_count[sm]++;
        s->pend_line[at] = line;
        s->pend_merged[at] = 1;
        s->pend_dirty[at] = (uint8_t)dirty_intent;
        s->pend_ready[at] = NAN;
        counters[M_ALLOCATIONS] += 1;
    }
    return request(s, KIND_FETCH, line, sm);
}

/* ------------------------------------------------------------------ */
/* entry points                                                        */
/* ------------------------------------------------------------------ */

/* struct sizes, checked by the loader against its ctypes mirror */
int64_t repro_sizeof(int64_t which)
{
    switch (which) {
    case 0: return (int64_t)sizeof(Geom);
    case 1: return (int64_t)sizeof(Part);
    case 2: return (int64_t)sizeof(Buffer);
    case 3: return (int64_t)sizeof(Refresh);
    case 4: return (int64_t)sizeof(TwoPart);
    case 5: return (int64_t)sizeof(Uniform);
    case 6: return (int64_t)sizeof(Sim);
    default: return -1;
    }
}

int64_t repro_run(Sim *s)
{
    Small l1, cst, tex;
    int rc = ERR_NOMEM;
    int64_t *landed_line = malloc((size_t)s->mshr_entries * sizeof(int64_t));
    uint8_t *landed_dirty = malloc((size_t)s->mshr_entries);
    memset(&l1, 0, sizeof l1);
    memset(&cst, 0, sizeof cst);
    memset(&tex, 0, sizeof tex);
    if (!landed_line || !landed_dirty
        || small_alloc(&l1, &s->l1, s->num_sms) != OK
        || small_alloc(&cst, &s->cst, s->num_sms) != OK
        || small_alloc(&tex, &s->tex, s->num_sms) != OK)
        goto done;
    if (s->twopart) {
        Refresh *r = &s->twopart->ref;
        int64_t lr_lines = s->twopart->lr.g.num_sets * s->twopart->lr.g.assoc;
        int64_t hr_lines = s->twopart->hr.g.num_sets * s->twopart->hr.g.assoc;
        for (int k = 0; k < 4; k++) {
            r->slot[k] = malloc((size_t)(k < 2 ? lr_lines : hr_lines)
                                * sizeof(int64_t));
            if (!r->slot[k])
                goto done;
        }
    }
    for (int64_t sm = 0; sm < s->num_sms; sm++) {
        s->pend_count[sm] = 0;
        s->min_ready[sm] = INFINITY;
    }
    rc = OK;
    for (int64_t i = 0; i < s->n && rc == OK; i++) {
        int64_t sm = s->sm[i], address = s->addr[i], line;
        int64_t flags = s->flags[i];
        int is_write = (flags & s->flag_write) != 0;
        int64_t *counters = s->sm_counters + sm * N_SM_COUNTERS;
        s->now += s->dt;
        if (!is_write) {
            s->reads += 1;
            s->stall_sum_s += s->l1_hit_s;
            s->read_latency_sum_s += s->l1_hit_s;
        }
        if (flags & s->flag_const) {
            if (readonly_access(&cst, counters, C_READS, sm, address, &line))
                rc = request(s, KIND_FETCH, line, sm);
        } else if (flags & s->flag_texture) {
            if (readonly_access(&tex, counters, T_READS, sm, address, &line))
                rc = request(s, KIND_FETCH, line, sm);
        } else {
            rc = l1_access(s, &l1, sm, address, is_write,
                           (flags & s->flag_local) != 0, counters,
                           landed_line, landed_dirty);
        }
    }
done:
    if (s->twopart)
        for (int k = 0; k < 4; k++) {
            free(s->twopart->ref.slot[k]);
            s->twopart->ref.slot[k] = NULL;
        }
    small_free(&l1);
    small_free(&cst);
    small_free(&tex);
    free(landed_line);
    free(landed_dirty);
    return rc;
}
