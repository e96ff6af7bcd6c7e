/* The engine's slots, compiled: `montecarlo._bind` gives `run_slots` the
 * signature of its numpy twin, `montecarlo._numpy_slots`, which runs where
 * this does not build and is the reference it is tested against.
 *
 * `run_slots` runs slots [s0, s1) of one step block for the live trials of
 * a chunk and every config of a shared pass. Each slot samples its pair and
 * events from the trial's draws and updates both endpoints with the same
 * expressions, in the same operand order, as the numpy twin and the scalar
 * path, so the results agree bit for bit. Build with -ffp-contract=off: a
 * fused multiply-add would round differently. The caller checks every
 * shape and that 0 <= s0 <= s1 <= block.
 */
#include <math.h>
#include <stdint.h>

enum { SYMMETRIC = 0, UNIFORM = 1, INITIATOR = 2, RESPONDER = 3 };

/* u: the block's draws, (ncols, block, draws); cols[c]: the chunk column of
 * u's row c; x: states, (npts, m, n); cdf: flattened row CDFs, (n, n);
 * w: weights 1 - T, T, 1 + S, S per slot of the block and config,
 * (block, npts, 4); alive, diverged_at: (npts, m). Slot s of the block is
 * slot k + s of the run. */
void run_slots(const double *u, int64_t ncols, int64_t block, int64_t draws,
               int64_t s0, int64_t s1, const int64_t *cols, int64_t m, int64_t n,
               int64_t npts, double *x, const double *cdf, double thr0, double thr1,
               int mode, const double *w, uint8_t *alive, int64_t *diverged_at,
               int64_t k, double limit)
{
    for (int64_t c = 0; c < ncols; c++) {
        const int64_t col = cols[c];
        for (int64_t step = s0; step < s1; step++) {
            const double *us = u + (c * block + step) * draws;
            int64_t i = (int64_t)(us[0] * (double)n);
            if (i > n - 1)
                i = n - 1;
            /* searchsorted(side="right") on row i, by the fixed-length
             * bisection the numpy twin runs */
            const double *row = cdf + i * n;
            int64_t j = 0;
            for (int64_t length = n; length > 1;) {
                const int64_t half = length / 2;
                if (row[j + half - 1] <= us[1])
                    j += half;
                length -= half;
            }
            const int e_att = us[2] < thr0, e_rep = us[2] >= thr1;
            int active_i = 1, active_j = 1;
            if (mode != SYMMETRIC) {
                active_i = mode == UNIFORM ? us[3] < 0.5 : mode == INITIATOR;
                active_j = !active_i;
            }
            const int att_i = e_att && active_i, rep_i = e_rep && active_i;
            const int att_j = e_att && active_j, rep_j = e_rep && active_j;
            for (int64_t p = 0; p < npts; p++) {
                const int64_t t = p * m + col;
                if (!alive[t])
                    continue;
                double *xs = x + t * n;
                const double *wp = w + (step * npts + p) * 4;
                const double xi = xs[i], xj = xs[j];
                const double new_i = att_i ? wp[0] * xi + wp[1] * xj
                                   : rep_i ? wp[2] * xi - wp[3] * xj : xi;
                const double new_j = att_j ? wp[0] * xj + wp[1] * xi
                                   : rep_j ? wp[2] * xj - wp[3] * xi : xj;
                if (fabs(new_i) <= limit && fabs(new_j) <= limit) { /* false on nan */
                    xs[i] = new_i;
                    xs[j] = new_j; /* last, as in numpy's scatter when i == j */
                } else {
                    diverged_at[t] = k + step + 1;
                    alive[t] = 0;
                }
            }
        }
    }
}
