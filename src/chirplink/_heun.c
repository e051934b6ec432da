/* Fixed-step stochastic Heun integrator of the rate equations of laser.py,
 * for n_runs independent runs stepped together.
 *
 * Each run takes the step of the Python loop kept as the oracle in
 * tests/test_laser.py, written out in real arithmetic in the order
 * CPython 3.11 evaluates it: a float operand of a complex operation is
 * promoted to (x, 0.0), a product is (ar br - ai bi, ar bi + ai br) and a
 * sum adds the parts.  The zero terms are kept, so that signed zeros,
 * infinities and NaNs come out as they do in Python.  Build it with
 * -ffp-contract=off and without -ffast-math: a fused multiply-add, a
 * flush of subnormals or a reordering would change the last bits.  The
 * runs do not interact, so the loop over them vectorizes; vector
 * additions, products, quotients and square roots round as the scalar
 * ones do, so a run gets the same bits at any batch width and in every
 * clone of the entry.
 *
 * Arrays are step-major: a row holds one value of each run.  hr + i hi is
 * 0.5j * alpha as Python computes it.  pump holds segments of held levels:
 * its row s is the pump of samples seg_end[s - 1] to seg_end[s] - 1
 * (seg_end[-1] taken as 0), and the last segment ends at n_steps + 1; a
 * pump of one row per sample has seg_end[s] = s + 1.  inj, when not NULL,
 * holds n_steps + 1 rows of complex samples as (re, im) pairs.  When xi is
 * not NULL, step k reads the unit normals of its row k of 2 n_runs values,
 * the real parts first.  field (complex) and carrier hold `rows` rows, and
 * sample k is stored in row k % rows: n_steps + 1 rows keep the whole
 * trace, 2 rows only the last two samples.  Row 0 holds the initial state.
 * diverged[j] is 0 in; it is set to the sample index k + 1 of the first
 * step whose state is not finite or whose intensity exceeds 1e12, and the
 * run keeps that state in every later sample.
 *
 * When flip_index is not NULL, each step k at which the sign bit of run j's
 * Im E changes appends k * n_runs + j to flip_index and the run's samples k
 * and k + 1 to flip_before and flip_after (complex), as np.flatnonzero(
 * np.diff(np.signbit(field.imag), axis=0)) orders them; there is room for
 * n_steps * n_runs, and the entry returns the number written.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Hard cap on the photon number used to detect runaway integrations. */
#define DIVERGENCE_INTENSITY 1e12

/* The bits of x: the top one is its sign bit. */
static inline uint64_t bits(double x) { uint64_t u; memcpy(&u, &x, sizeof u); return u; }

/* Step k of every run, from state (e, n) to (e1, n1).  Returns whether the
 * sign bit of some run's Im E changed. */
static inline __attribute__((always_inline)) uint64_t step(
    long k, long n_runs, double tau_n, double inv_tau_p, double g, double n_tr, double eps,
    double hr, double hi, double beta, double kappa, double dt, const double *restrict p0,
    const double *restrict p1, const double *restrict i0, const double *restrict i1,
    const double *restrict x_re, const double *restrict x_im, const double *restrict e,
    const double *restrict n, double *restrict e1, double *restrict n1, long *restrict diverged,
    const int injected, const int noisy)
{
    uint64_t flipped = 0;
    for (long j = 0; j < n_runs; j++) {
        double er = e[2 * j], ei = e[2 * j + 1], nc = n[j];

        /* (0.5 (gc - 1/tau_p) + half_alpha_j (gu - 1/tau_p)) * e, de += kappa * inj[k] */
        double s = er * er + ei * ei;
        double gu = g * (nc - n_tr);
        double gc = gu / (1.0 + eps * s);
        double x = gu - inv_tau_p;
        double cr = 0.5 * (gc - inv_tau_p) + (hr * x - hi * 0.0);
        double ci = 0.0 + (hr * 0.0 + hi * x);
        double d1r = cr * er - ci * ei, d1i = cr * ei + ci * er;
        double dn1 = p0[j] - nc / tau_n - gc * s;
        if (injected) {
            double ir = i0[2 * j], ii = i0[2 * j + 1];
            d1r = d1r + (kappa * ir - 0.0 * ii);
            d1i = d1i + (kappa * ii + 0.0 * ir);
        }

        double nr = 0.0, ni = 0.0;
        if (noisy) {
            double amp = sqrt((0.0 > nc ? 0.0 : nc) * beta / tau_n * dt * 0.5);
            nr = amp * x_re[j];
            ni = amp * x_im[j];
        }

        /* ep = e + de1 * dt + noise */
        double epr = er + (d1r * dt - d1i * 0.0) + nr;
        double epi = ei + (d1r * 0.0 + d1i * dt) + ni;
        double np_ = nc + dn1 * dt;
        double sp = epr * epr + epi * epi;
        double gup = g * (np_ - n_tr);
        double gcp = gup / (1.0 + eps * sp);
        x = gup - inv_tau_p;
        cr = 0.5 * (gcp - inv_tau_p) + (hr * x - hi * 0.0);
        ci = 0.0 + (hr * 0.0 + hi * x);
        double d2r = cr * epr - ci * epi, d2i = cr * epi + ci * epr;
        double dn2 = p1[j] - np_ / tau_n - gcp * sp;
        if (injected) {
            double ir = i1[2 * j], ii = i1[2 * j + 1];
            d2r = d2r + (kappa * ir - 0.0 * ii);
            d2i = d2i + (kappa * ii + 0.0 * ir);
        }

        /* e = e + 0.5 * (de1 + de2) * dt + noise */
        double sr = d1r + d2r, si = d1i + d2i;
        double ar = 0.5 * sr - 0.0 * si, ai = 0.5 * si + 0.0 * sr;
        double er1 = er + (ar * dt - ai * 0.0) + nr;
        double ei1 = ei + (ar * 0.0 + ai * dt) + ni;
        double nc1 = nc + 0.5 * (dn1 + dn2) * dt;

        /* An intensity that is NaN, infinite or above the cap, or a carrier
         * that is not finite, diverges.  The tests are comparisons joined
         * by &, so that the loop has no branch. */
        double s1 = er1 * er1 + ei1 * ei1;
        long live = diverged[j] == 0;
        long ok = (s1 <= DIVERGENCE_INTENSITY) & (fabs(nc1) <= DBL_MAX);
        e1[2 * j] = live ? er1 : er;
        e1[2 * j + 1] = live ? ei1 : ei;
        n1[j] = live ? nc1 : nc;
        diverged[j] |= -(live & !ok) & (k + 1);
        flipped |= bits(e1[2 * j + 1]) ^ bits(ei);
    }
    return flipped >> 63;
}

/* One copy of the loop for each presence of inj and xi, so that no
 * branch is left inside the loop over runs. */
static inline __attribute__((always_inline)) long steps(
    long n_steps, long n_runs, double tau_n, double inv_tau_p, double g, double n_tr, double eps,
    double hr, double hi, double beta, double kappa, double dt, const double *pump,
    const long *seg_end, const double *inj, const double *xi, double *field, double *carrier,
    long rows, long *diverged, long *flip_index, double *flip_before, double *flip_after,
    const int injected, const int noisy)
{
    long n_flips = 0;
    for (long k = 0, s = 0; k < n_steps; k++) {
        /* s and s1 are the segments of samples k and k + 1 */
        long s1 = s + (k + 1 >= seg_end[s]);
        const double *i0 = injected ? inj + 2 * k * n_runs : 0;
        const double *x_re = noisy ? xi + 2 * k * n_runs : 0;
        double *e = field + 2 * (k % rows) * n_runs, *e1 = field + 2 * ((k + 1) % rows) * n_runs;
        uint64_t flipped = step(
            k, n_runs, tau_n, inv_tau_p, g, n_tr, eps, hr, hi, beta, kappa, dt, pump + s * n_runs,
            pump + s1 * n_runs, i0, injected ? i0 + 2 * n_runs : 0, x_re, noisy ? x_re + n_runs : 0,
            e, carrier + (k % rows) * n_runs, e1, carrier + ((k + 1) % rows) * n_runs, diverged,
            injected, noisy);
        s = s1;
        /* a sign change is rare: step() ORs the sign bits in its vector
         * loop, and the runs are searched only on a change */
        for (long j = 0; flip_index && flipped && j < n_runs; j++) {
            if ((bits(e[2 * j + 1]) ^ bits(e1[2 * j + 1])) >> 63) {
                flip_index[n_flips] = k * n_runs + j;
                memcpy(flip_before + 2 * n_flips, e + 2 * j, 2 * sizeof *e);
                memcpy(flip_after + 2 * n_flips++, e1 + 2 * j, 2 * sizeof *e1);
            }
        }
    }
    return n_flips;
}

#define STEPS(injected, noisy)                                                                \
    steps(n_steps, n_runs, tau_n, inv_tau_p, g, n_tr, eps, hr, hi, beta, kappa, dt, pump,     \
          seg_end, inj, xi, field, carrier, rows, diverged, flip_index, flip_before,          \
          flip_after, injected, noisy)

/* The copies with injection, built once, without vector clones: only
 * laser.integrate injects, one run at a time, which a vector does not speed. */
__attribute__((noinline)) long chirplink_heun_injected(
    long n_steps, long n_runs, double tau_n, double inv_tau_p, double g, double n_tr, double eps,
    double hr, double hi, double beta, double kappa, double dt, const double *pump,
    const long *seg_end, const double *inj, const double *xi, double *field, double *carrier,
    long rows, long *diverged, long *flip_index, double *flip_before, double *flip_after)
{
    return xi ? STEPS(1, 1) : STEPS(1, 0);
}

/* The entry.  On x86_64 the copies without injection are built for CPUs
 * with AVX-512F (8 runs per instruction), with AVX2 (4) and for the rest
 * (SSE2, 2); the loader picks the widest this CPU can run. */
#if defined(__x86_64__)
__attribute__((target_clones("avx512f", "avx2", "default")))
#endif
long chirplink_heun(long n_steps, long n_runs, double tau_n, double inv_tau_p, double g, double n_tr,
                    double eps, double hr, double hi, double beta, double kappa, double dt,
                    const double *pump, const long *seg_end, const double *inj, const double *xi,
                    double *field, double *carrier, long rows, long *diverged, long *flip_index,
                    double *flip_before, double *flip_after)
{
    if (inj)
        return chirplink_heun_injected(n_steps, n_runs, tau_n, inv_tau_p, g, n_tr, eps, hr, hi,
                                       beta, kappa, dt, pump, seg_end, inj, xi, field, carrier,
                                       rows, diverged, flip_index, flip_before, flip_after);
    return xi ? STEPS(0, 1) : STEPS(0, 0);
}
#undef STEPS
