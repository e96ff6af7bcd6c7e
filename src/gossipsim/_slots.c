/* The package's compiled library, built and loaded by `_native.library`:
 * the engine's slots (`run_slots`, `draw_uniform`), which
 * `montecarlo._KernelSlots` calls behind the interface of their numpy twin
 * `montecarlo._NumpySlots`. The twin runs where this does not build and is
 * the reference it is tested against.
 *
 * Each trial draws from its own Philox4x64-10 stream (Salmon et al., SC'11),
 * keyed [seed, trial], exactly as numpy's `Philox(key=[seed, trial])` with
 * `Generator.random()`: the counter goes up before each block of four
 * words, and a word w gives the double (w >> 11) * 2^-53. `run_slots` runs
 * slots for the trials of a chunk and every config of a shared pass: each
 * slot samples its pair and events from the trial's draws and updates both
 * endpoints with the same arithmetic, in the same operand order, as the
 * numpy twin and the scalar path, so the results agree bit for bit. At a
 * checkpoint it also records each config's dispersion and spread as numpy
 * computes them. Build with -O3 -ffp-contract=off and no fast-math: a fused
 * multiply-add or a reordered sum would round differently. The caller
 * checks every shape and index.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

enum { SYMMETRIC = 0, UNIFORM = 1, INITIATOR = 2, RESPONDER = 3 };
enum { NEGLECT = 0, ATTRACT = 1, REPEL = 2 };
/* slots whose pairs and events are drawn before their updates run: the
 * Philox blocks of a window are computed back to back, and the updates
 * know their addresses early */
enum { WINDOW = 64 };

/* A trial's stream: numpy's Philox state. pos == 4 means the buffer is
 * spent; a fresh stream has counter 0 and pos 4. */
typedef struct {
    uint64_t key[2], ctr[4], buf[4], pos;
} stream;

/* One chunk: m trials, n nodes, npts configs, ncp checkpoints. streams:
 * (m,); x: states, (npts, m, n); alive, diverged_at: (npts, m); cdf, cols:
 * the partner tables, (n, width), each row's running sums of its positive
 * entries and their columns, padded with 1.0; refs: each trial's
 * dispersion reference, (m,);
 * dispersion, spread: (npts, m, ncp); states: (npts, m, ncp, n), or NULL. */
typedef struct {
    stream *streams;
    int64_t m, n, npts, ncp;
    double *x;
    uint8_t *alive;
    int64_t *diverged_at;
    const double *cdf;
    const int32_t *cols;
    int64_t width;
    double thr0, thr1;
    int64_t mode;
    double limit;
    const double *refs;
    double *dispersion, *spread, *states;
} chunk;

static inline uint64_t mulhilo(uint64_t a, uint64_t b, uint64_t *hi)
{
#ifdef __SIZEOF_INT128__
    const unsigned __int128 p = (unsigned __int128)a * b;
    *hi = (uint64_t)(p >> 64);
    return (uint64_t)p;
#else
    const uint64_t a0 = a & 0xFFFFFFFFu, a1 = a >> 32, b0 = b & 0xFFFFFFFFu, b1 = b >> 32;
    const uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0, p11 = a1 * b1;
    const uint64_t mid = (p00 >> 32) + (p01 & 0xFFFFFFFFu) + (p10 & 0xFFFFFFFFu);
    *hi = p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
    return a * b;
#endif
}

static void philox_block(stream *s)
{
    if (++s->ctr[0] == 0 && ++s->ctr[1] == 0 && ++s->ctr[2] == 0)
        ++s->ctr[3];
    uint64_t c0 = s->ctr[0], c1 = s->ctr[1], c2 = s->ctr[2], c3 = s->ctr[3];
    uint64_t k0 = s->key[0], k1 = s->key[1];
    for (int round = 0; round < 10; round++) {
        if (round) {
            k0 += 0x9E3779B97F4A7C15u;
            k1 += 0xBB67AE8584CAA73Bu;
        }
        uint64_t hi0, hi1;
        const uint64_t lo0 = mulhilo(0xD2E7470EE14C6C93u, c0, &hi0);
        const uint64_t lo1 = mulhilo(0xCA5A826395121157u, c2, &hi1);
        c0 = hi1 ^ c1 ^ k0;
        c1 = lo1;
        c2 = hi0 ^ c3 ^ k1;
        c3 = lo0;
    }
    s->buf[0] = c0;
    s->buf[1] = c1;
    s->buf[2] = c2;
    s->buf[3] = c3;
    s->pos = 0;
}

/* The stream's next count words, as numpy's Philox hands them out. */
static void take_words(stream *s, uint64_t *out, int64_t count)
{
    int64_t have = 0;
    while (s->pos < 4 && have < count)
        out[have++] = s->buf[s->pos++];
    while (have < count) {
        philox_block(s);
        if (count - have >= 4) { /* word by word: a memcpy runs slower here */
            out[have] = s->buf[0];
            out[have + 1] = s->buf[1];
            out[have + 2] = s->buf[2];
            out[have + 3] = s->buf[3];
            have += 4;
            s->pos = 4;
        } else {
            while (have < count)
                out[have++] = s->buf[s->pos++];
        }
    }
}

static inline double to_double(uint64_t word)
{
    return (double)(word >> 11) * 0x1.0p-53;
}

/* Each trial's row of x[0] from its next n draws: low + (high - low) * u. */
void draw_uniform(const chunk *c, double low, double high)
{
    uint64_t words[4 * WINDOW];
    for (int64_t t = 0; t < c->m; t++) {
        stream s = c->streams[t];
        double *xs = c->x + t * c->n;
        for (int64_t i0 = 0; i0 < c->n; i0 += 4 * WINDOW) {
            const int64_t len = c->n - i0 < 4 * WINDOW ? c->n - i0 : 4 * WINDOW;
            take_words(&s, words, len);
            for (int64_t i = 0; i < len; i++)
                xs[i0 + i] = low + (high - low) * to_double(words[i]);
        }
        c->streams[t] = s;
    }
}

/* sum_i (x_i - ref)^2 in numpy's pairwise order: below 8 terms one running
 * sum from 0.0, up to 128 eight accumulators, above that two halves split
 * at a multiple of 8. */
static double pairwise_squares(const double *x, double ref, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++) {
            const double d = x[i] - ref;
            res += d * d;
        }
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; j++) {
            const double d = x[j] - ref;
            r[j] = d * d;
        }
        int64_t i = 8;
        for (; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++) {
                const double d = x[i + j] - ref;
                r[j] += d * d;
            }
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            const double d = x[i] - ref;
            res += d * d;
        }
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_squares(x, ref, n2) + pairwise_squares(x + n2, ref, n - n2);
}

/* Checkpoint ci of trial t in every config: dispersion, spread and the
 * state if kept. The spread is numpy's max - min: a nan anywhere gives nan,
 * and as ties keep the first, max and min pick the same zero of a row of
 * +0.0 and -0.0, whose spread is then 0.0, as numpy's is. */
static void record(const chunk *c, int64_t t, int64_t ci)
{
    for (int64_t p = 0; p < c->npts; p++) {
        const int64_t row = p * c->m + t;
        const double *xs = c->x + row * c->n;
        double hi = xs[0], lo = xs[0];
        for (int64_t i = 1; i < c->n; i++) {
            const double v = xs[i];
            hi = (hi >= v || hi != hi) ? hi : v;
            lo = (lo <= v || lo != lo) ? lo : v;
        }
        c->dispersion[row * c->ncp + ci] = pairwise_squares(xs, c->refs[t], c->n);
        c->spread[row * c->ncp + ci] = hi - lo;
        if (c->states)
            memcpy(c->states + (row * c->ncp + ci) * c->n, xs, (size_t)c->n * sizeof(double));
    }
}

/* The bits of a when keep is set, else those of b: a select without a
 * branch, which the random events would mispredict. */
static inline double pick(int keep, double a, double b)
{
    uint64_t ua, ub;
    memcpy(&ua, &a, sizeof ua);
    memcpy(&ub, &b, sizeof ub);
    const uint64_t mask = -(uint64_t)(keep != 0);
    ua = (ua & mask) | (ub & ~mask);
    memcpy(&a, &ua, sizeof a);
    return a;
}

/* Runs b slots, slot s being slot k + s of the run with weights w[s],
 * (b, npts, 4): 1 - T, T, 1 + S, S per config, for every trial still live
 * in some config, one WINDOW of slots at a time; a trial frozen in every
 * config draws nothing more. Then, if ci >= 0, records checkpoint ci of
 * every trial. */
void run_slots(const chunk *c, const double *w, int64_t b, int64_t k, int64_t ci)
{
    /* locals, so that stores to the states need not reload them */
    const int64_t m = c->m, n = c->n, npts = c->npts, mode = c->mode;
    const int64_t draws = mode == UNIFORM ? 4 : 3;
    const double thr0 = c->thr0, thr1 = c->thr1, limit = c->limit, nodes = (double)n;
    const double *cdf = c->cdf;
    const int32_t *cols = c->cols;
    const int64_t width = c->width;
    double *x = c->x;
    uint8_t *alive = c->alive;
    uint64_t words[4 * WINDOW];
    int64_t node_i[WINDOW], node_j[WINDOW];
    uint8_t event_i[WINDOW], event_j[WINDOW];
    for (int64_t t = 0; t < m; t++) {
        int64_t live = 0;
        for (int64_t p = 0; p < npts; p++)
            live += alive[p * m + t];
        stream s = c->streams[t];
        for (int64_t s0 = 0; s0 < b && live; s0 += WINDOW) {
            const int64_t len = b - s0 < WINDOW ? b - s0 : WINDOW;
            take_words(&s, words, len * draws);
            for (int64_t q = 0; q < len; q++) {
                const uint64_t *us = words + q * draws;
                int64_t i = (int64_t)(to_double(us[0]) * nodes);
                if (i > n - 1)
                    i = n - 1;
                const double u_partner = to_double(us[1]), u_event = to_double(us[2]);
                /* searchsorted(side="right") on row i of the tables, by the
                 * fixed-length bisection the numpy twin runs */
                const double *row = cdf + i * width;
                int64_t k = 0;
                for (int64_t length = width; length > 1;) {
                    const int64_t half = length / 2;
                    k += row[k + half - 1] <= u_partner ? half : 0;
                    length -= half;
                }
                const int event = u_event < thr0 ? ATTRACT : u_event >= thr1 ? REPEL : NEGLECT;
                int active_i = 1;
                if (mode != SYMMETRIC)
                    active_i = mode == UNIFORM ? to_double(us[3]) < 0.5 : mode == INITIATOR;
                node_i[q] = i;
                node_j[q] = cols[i * width + k];
                event_i[q] = active_i ? event : NEGLECT;
                event_j[q] = mode == SYMMETRIC || !active_i ? event : NEGLECT;
            }
            for (int64_t p = 0; p < npts; p++) {
                const int64_t r = p * m + t;
                if (!alive[r])
                    continue;
                double *xs = x + r * n;
                for (int64_t q = 0; q < len; q++) {
                    const double *wp = w + ((s0 + q) * npts + p) * 4;
                    const int64_t i = node_i[q], j = node_j[q];
                    const int rep_i = event_i[q] == REPEL, rep_j = event_j[q] == REPEL;
                    const double xi = xs[i], xj = xs[j];
                    /* attraction (1 - T) xu + T xv and repulsion
                     * (1 + S) xu + (-S) xv, which is (1 + S) xu - S xv
                     * wherever it is not nan; neglect keeps xu */
                    const double ai = wp[rep_i ? 2 : 0], bi = rep_i ? -wp[3] : wp[1];
                    const double aj = wp[rep_j ? 2 : 0], bj = rep_j ? -wp[3] : wp[1];
                    const double new_i = pick(event_i[q] == NEGLECT, xi, ai * xi + bi * xj);
                    const double new_j = pick(event_j[q] == NEGLECT, xj, aj * xj + bj * xi);
                    if (fabs(new_i) <= limit && fabs(new_j) <= limit) { /* false on nan */
                        xs[i] = new_i;
                        xs[j] = new_j; /* last, as in numpy's scatter when i == j */
                    } else {
                        c->diverged_at[r] = k + s0 + q + 1;
                        alive[r] = 0;
                        live--;
                        break;
                    }
                }
            }
        }
        c->streams[t] = s;
        if (ci >= 0)
            record(c, t, ci);
    }
}
