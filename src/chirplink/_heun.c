/* Fixed-step stochastic Heun integrator of the rate equations of laser.py.
 *
 * This is the step of the Python loop kept as the oracle in
 * tests/test_laser.py, written out in real arithmetic in the order
 * CPython 3.11 evaluates it: a float operand of a complex operation is
 * promoted to (x, 0.0), a product is (ar br - ai bi, ar bi + ai br) and a
 * sum adds the parts.  The zero terms are kept, so that signed zeros,
 * infinities and NaNs come out as they do in Python.  Build it with
 * -ffp-contract=off and without -ffast-math: a fused multiply-add or a
 * reordering would change the last bits.
 *
 * hr + i hi is 0.5j * alpha as Python computes it.  field holds
 * n_steps + 1 complex values as (re, im) pairs and carrier n_steps + 1
 * values; their first entries are the initial state.  pump holds
 * n_steps + 1 samples and inj, when not NULL, n_steps + 1 complex samples.
 * When xi is not NULL, step k reads the unit normals xi[k * xi_stride] and
 * xi[k * xi_stride + xi_im].  Returns 0, or the sample index k + 1 of the
 * first step whose state is not finite or whose intensity exceeds 1e12;
 * that state is stored at index k + 1.
 */
#include <math.h>

/* Hard cap on the photon number used to detect runaway integrations. */
#define DIVERGENCE_INTENSITY 1e12

long chirplink_heun(long n_steps, double tau_n, double inv_tau_p, double g, double n_tr,
                    double eps, double hr, double hi, double beta, double kappa, double dt,
                    const double *pump, const double *inj, const double *xi, long xi_im,
                    long xi_stride, double *field, double *carrier)
{
    double er = field[0], ei = field[1], n = carrier[0];
    for (long k = 0; k < n_steps; k++) {
        /* (0.5 (gc - 1/tau_p) + half_alpha_j (gu - 1/tau_p)) * e, de += kappa * inj[k] */
        double s = er * er + ei * ei;
        double gu = g * (n - n_tr);
        double gc = gu / (1.0 + eps * s);
        double x = gu - inv_tau_p;
        double cr = 0.5 * (gc - inv_tau_p) + (hr * x - hi * 0.0);
        double ci = 0.0 + (hr * 0.0 + hi * x);
        double d1r = cr * er - ci * ei, d1i = cr * ei + ci * er;
        double dn1 = pump[k] - n / tau_n - gc * s;
        if (inj) {
            double ir = inj[2 * k], ii = inj[2 * k + 1];
            d1r = d1r + (kappa * ir - 0.0 * ii);
            d1i = d1i + (kappa * ii + 0.0 * ir);
        }

        double nr = 0.0, ni = 0.0;
        if (xi) {
            double amp = sqrt((0.0 > n ? 0.0 : n) * beta / tau_n * dt * 0.5);
            nr = amp * xi[k * xi_stride];
            ni = amp * xi[k * xi_stride + xi_im];
        }

        /* ep = e + de1 * dt + noise */
        double epr = er + (d1r * dt - d1i * 0.0) + nr;
        double epi = ei + (d1r * 0.0 + d1i * dt) + ni;
        double np_ = n + dn1 * dt;
        double sp = epr * epr + epi * epi;
        double gup = g * (np_ - n_tr);
        double gcp = gup / (1.0 + eps * sp);
        x = gup - inv_tau_p;
        cr = 0.5 * (gcp - inv_tau_p) + (hr * x - hi * 0.0);
        ci = 0.0 + (hr * 0.0 + hi * x);
        double d2r = cr * epr - ci * epi, d2i = cr * epi + ci * epr;
        double dn2 = pump[k + 1] - np_ / tau_n - gcp * sp;
        if (inj) {
            double ir = inj[2 * k + 2], ii = inj[2 * k + 3];
            d2r = d2r + (kappa * ir - 0.0 * ii);
            d2i = d2i + (kappa * ii + 0.0 * ir);
        }

        /* e = e + 0.5 * (de1 + de2) * dt + noise */
        double sr = d1r + d2r, si = d1i + d2i;
        double ar = 0.5 * sr - 0.0 * si, ai = 0.5 * si + 0.0 * sr;
        er = er + (ar * dt - ai * 0.0) + nr;
        ei = ei + (ar * 0.0 + ai * dt) + ni;
        n = n + 0.5 * (dn1 + dn2) * dt;

        field[2 * k + 2] = er;
        field[2 * k + 3] = ei;
        carrier[k + 1] = n;
        double s_new = er * er + ei * ei;
        if (!(isfinite(s_new) && isfinite(n)) || s_new > DIVERGENCE_INTENSITY)
            return k + 1;
    }
    return 0;
}
