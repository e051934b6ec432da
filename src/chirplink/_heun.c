/* Fixed-step stochastic Heun integrator of the rate equations of laser.py,
 * for n_runs independent runs.
 *
 * Each run takes the stochastic Heun step (Kloeden & Platen, Numerical
 * Solution of SDEs, ch. 14) of those equations in real components, as
 * oracle_integrate in tests/test_laser.py states it.  With cr = 0.5 (Gc -
 * 1/tau_p) and ci = (alpha/2) (Gu - 1/tau_p), rates() gives dE = (cr Re E -
 * ci Im E, cr Im E + ci Re E), plus kappa E_inj where injected, and dN = J -
 * N (1/tau_n) - Gc |E|^2.  The predictor is E + dE1 dt, N + dN1 dt; the
 * corrector E + (dE1 + dE2) h, N + (dN1 + dN2) h, with h = dt/2.  A noisy
 * run adds the Langevin kick, amplitude sqrt(max(N, 0) c) with c = beta
 * (1/tau_n) h, to both parts of E in the predictor and in the corrector.
 * Build it with -ffp-contract=off and without -ffast-math: a fused
 * multiply-add, a flush of subnormals or a reordering would change the
 * last bits.  laser._heun builds it for the CPU it runs on: with -mavx512f
 * (8 runs per vector) or -mavx2 (4) where the CPU has it, else with no
 * target flag, and then on x86_64 the corrector loop stays scalar (its
 * 64-bit compare needs SSE4.1).
 *
 * Loop order: the runs go in blocks of up to LANES, and a block is stepped
 * through all of its steps before the next starts, each run's state in a
 * lane of local arrays.  A block reads a new row of the pump only where a
 * segment ends, and stores the state only in the rows kept.  Each step is
 * two loops over the lanes, the predictor and the corrector, which
 * vectorize; vector additions, products, quotients and square roots round
 * as the scalar ones do, so a run gets the same bits at any block width
 * and for every target.  Every lane of a block is a run or, in a block of
 * fewer runs than its width, a copy of its last run: its state, its pump
 * and its noise bits.  A spare lane is never stored.
 *
 * Arrays are step-major: a row holds one value of each run.  pump holds
 * segments of held levels: its row s is the pump of samples seg_end[s - 1]
 * to seg_end[s] - 1 (seg_end[-1] taken as 0), and the last segment ends at
 * n_steps + 1.  inj, when not NULL, holds n_steps + 1 rows of complex
 * samples as (re, im) pairs.  When xi is not NULL, its bit i % 64 of word
 * i / 64 is Langevin increment i, +1.0 where set and -1.0 where clear;
 * step k of run j reads increments 2 k n_runs + j (Re E) and (2 k + 1)
 * n_runs + j (Im E) as it steps: nothing is prefetched.  field (complex)
 * and carrier hold the state at sample 0 in row 0; with trace, sample k is
 * stored in row k, and without, only the last sample, in row 0.
 * diverged[j] is 0 in; it is set to the sample index k + 1 of the first
 * step whose state is not finite or whose intensity exceeds 1e12, and the
 * run keeps that state in every later sample.
 *
 * turns is never NULL: turns[j] (0 in) counts the turns of run j, the steps
 * whose segment from sample k to k + 1 meets the real axis at Re < 0, +1
 * where the sign bit of Im E goes from clear to set and -1 the other way.
 * These are the steps at which np.unwrap corrects the angle of E, by about
 * 2 pi times the same sign (a segment that passes within rounding of 0
 * aside), so the unwrapped phase of the last sample is its angle plus
 * 2 pi turns[j].  Such a step changes the sign bit of Im E, so the lanes
 * are searched only where a bit changed.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Hard cap on the photon number used to detect runaway integrations. */
#define DIVERGENCE_INTENSITY 1e12

/* The widest block: 3 AVX-512 vectors of 8 runs. */
#define LANES 24

/* The bits of x: the top one is its sign bit. */
static inline uint64_t bits(double x) { uint64_t u; memcpy(&u, &x, sizeof u); return u; }

/* The right-hand side at E = er + i ei, N = n and the pump p, as the top
 * of this file states it; hi is alpha/2. */
typedef struct { double er, ei, n; } rate;

static inline __attribute__((always_inline)) rate rates(
    double er, double ei, double n, double p, const double *inj, double inv_tau_n, double inv_tau_p,
    double g, double n_tr, double eps, double hi, double kappa, const int injected)
{
    double s = er * er + ei * ei;
    double gu = g * (n - n_tr);
    double gc = gu / (1.0 + eps * s);
    double cr = 0.5 * (gc - inv_tau_p), ci = hi * (gu - inv_tau_p);
    rate d = {cr * er - ci * ei, cr * ei + ci * er, p - n * inv_tau_n - gc * s};
    if (injected) {
        d.er = d.er + kappa * inj[0];
        d.ei = d.ei + kappa * inj[1];
    }
    return d;
}

/* Steps runs j0 to j0 + m - 1 (m <= w <= LANES) from sample 0, whose
 * state is in row 0, to sample n_steps, in lanes of width w, adding to
 * their turns.  One copy for each presence of inj and xi and each w, so
 * that no branch is left inside the loop over lanes. */
static inline __attribute__((always_inline)) void block(
    const long w, long m, long j0, long n_steps, long n_runs, double inv_tau_n, double inv_tau_p,
    double g, double n_tr, double eps, double hi, double beta, double kappa, double dt,
    const double *pump, const long *seg_end, const double *inj, const uint64_t *xi,
    double *restrict field, double *restrict carrier, int trace, long *restrict diverged,
    long *restrict turns, const int injected, const int noisy)
{
    /* the state of each lane and its E before the step */
    double er[LANES], ei[LANES], nc[LANES], br[LANES], bi[LANES];
    /* the pumps of samples k and k + 1; the latter is reloaded only where a segment ends */
    double p0[LANES], p1[LANES];
    long dv[LANES], s = 0;
    /* the corrector's dt/2, and the Langevin amplitude's square per carrier */
    const double h = 0.5 * dt, c = beta * inv_tau_n * h;
    for (long l = 0; l < w; l++) {
        long j = j0 + (l < m ? l : m - 1);
        er[l] = field[2 * j];
        ei[l] = field[2 * j + 1];
        nc[l] = carrier[j];
        dv[l] = diverged[j];
        p0[l] = p1[l] = pump[j];
    }
    for (long k = 0; k < n_steps; k++) {
        int next = k + 1 >= seg_end[s];
        for (long l = 0; next && l < w; l++)
            p1[l] = pump[(s + 1) * n_runs + j0 + (l < m ? l : m - 1)];
        const double *i0 = injected ? inj + 2 * (k * n_runs + j0) : 0, *i1 = i0 + 2 * n_runs;
        /* The predictor of every lane, then the corrector of every lane: a
         * loop of fewer instructions lets the CPU overlap the divisions of
         * its vector iterations. */
        double ep_r[LANES], ep_i[LANES], np1[LANES], de1_r[LANES], de1_i[LANES], dn1_[LANES];
        double noise_r[LANES], noise_i[LANES];
        for (long l = 0; l < w; l++) {
            double er_ = er[l], ei_ = ei[l], nc_ = nc[l];
            rate d1 = rates(er_, ei_, nc_, p0[l], i0 + 2 * l, inv_tau_n, inv_tau_p, g, n_tr, eps,
                            hi, kappa, injected);
            ep_r[l] = er_ + d1.er * dt;
            ep_i[l] = ei_ + d1.ei * dt;
            np1[l] = nc_ + d1.n * dt;
            de1_r[l] = d1.er;
            de1_i[l] = d1.ei;
            dn1_[l] = d1.n;
            if (noisy) {
                /* the run's bits of Re and Im; a spare lane reads the block's last run's */
                long i = 2 * k * n_runs + j0 + (l < m ? l : m - 1), j = i + n_runs;
                double amp = sqrt((0.0 > nc_ ? 0.0 : nc_) * c);
                noise_r[l] = amp * (xi[i >> 6] >> (i & 63) & 1 ? 1.0 : -1.0);
                noise_i[l] = amp * (xi[j >> 6] >> (j & 63) & 1 ? 1.0 : -1.0);
                ep_r[l] = ep_r[l] + noise_r[l];
                ep_i[l] = ep_i[l] + noise_i[l];
            }
        }
        uint64_t flipped = 0;
        for (long l = 0; l < w; l++) {
            double er_ = er[l], ei_ = ei[l], nc_ = nc[l];
            rate d2 = rates(ep_r[l], ep_i[l], np1[l], p1[l], i1 + 2 * l, inv_tau_n, inv_tau_p, g,
                            n_tr, eps, hi, kappa, injected);
            double er1_ = er_ + (de1_r[l] + d2.er) * h;
            double ei1_ = ei_ + (de1_i[l] + d2.ei) * h;
            double nc1 = nc_ + (dn1_[l] + d2.n) * h;
            if (noisy) {
                er1_ = er1_ + noise_r[l];
                ei1_ = ei1_ + noise_i[l];
            }

            /* An intensity that is NaN, infinite or above the cap, or a carrier
             * that is not finite, diverges.  The tests are comparisons joined
             * by &, so that the loop has no branch. */
            double s1 = er1_ * er1_ + ei1_ * ei1_;
            long live = dv[l] == 0;
            long ok = (s1 <= DIVERGENCE_INTENSITY) & (fabs(nc1) <= DBL_MAX);
            br[l] = er_;
            bi[l] = ei_;
            er[l] = live ? er1_ : er_;
            ei[l] = live ? ei1_ : ei_;
            nc[l] = live ? nc1 : nc_;
            dv[l] |= -(live & !ok) & (k + 1);
            flipped |= bits(ei[l]) ^ bits(ei_);
        }
        if (next)
            memcpy(p0, p1, sizeof p0);
        s += next;
        /* a sign change is rare: the lanes are searched only on a change */
        for (long l = 0; flipped >> 63 && l < m; l++) {
            if ((bits(bi[l]) ^ bits(ei[l])) >> 63) {
                /* the segment meets the real axis at Re < 0: both ends are
                 * there, or it crosses at x = (br ei - er bi) / (ei - bi) < 0 */
                int turn = br[l] < 0 && er[l] < 0;
                if (!turn && !(br[l] >= 0 && er[l] >= 0))
                    turn = (br[l] * ei[l] - er[l] * bi[l]) / (ei[l] - bi[l]) < 0;
                if (turn)
                    turns[j0 + l] += bits(ei[l]) >> 63 ? 1 : -1;
            }
        }
        /* the rows kept: every sample with trace, else the last in row 0 */
        for (long l = 0; (trace || k + 1 == n_steps) && l < m; l++) {
            long at = (trace ? k + 1 : 0) * n_runs + j0 + l;
            field[2 * at] = er[l];
            field[2 * at + 1] = ei[l];
            carrier[at] = nc[l];
            diverged[j0 + l] = dv[l];
        }
    }
}

#define BLOCK(w, m, injected, noisy)                                                   \
    block(w, m, j0, n_steps, n_runs, inv_tau_n, inv_tau_p, g, n_tr, eps, hi, beta, kappa, dt, \
          pump, seg_end, inj, xi, field, carrier, trace, diverged, turns, injected, noisy)

/* The entry, as the top of this file describes it: a lone run, and every
 * run with injection, in one lane; a block of 2 to 8 runs without noise in
 * 8 lanes; the rest in LANES. */
void chirplink_heun(long n_steps, long n_runs, double inv_tau_n, double inv_tau_p, double g, double n_tr,
                    double eps, double hi, double beta, double kappa, double dt, const double *pump,
                    const long *seg_end, const double *inj, const uint64_t *xi, double *field,
                    double *carrier, int trace, long *diverged, long *turns)
{
    for (long j0 = 0, m; j0 < n_runs; j0 += m) {
        m = inj ? 1 : n_runs - j0 < LANES ? n_runs - j0 : LANES;
        if (m == 1)
            inj ? (xi ? BLOCK(1, 1, 1, 1) : BLOCK(1, 1, 1, 0))
                : (xi ? BLOCK(1, 1, 0, 1) : BLOCK(1, 1, 0, 0));
        else
            xi ? BLOCK(LANES, m, 0, 1) : m <= 8 ? BLOCK(8, m, 0, 0) : BLOCK(LANES, m, 0, 0);
    }
}
