/* The step loop of kernels.closed_loop_rk4, compiled.
 *
 * rk4_rows advances steps lo..hi-1 of one trajectory, or of each batch row
 * in turn, and stores the series as the kernel's numpy loop does.  Per
 * stage it makes the BLAS calls that loop's np.dot and np.matmul make, with
 * the same arguments, through the entries of numpy's own BLAS, which the
 * caller passes in.  Its scalar arithmetic follows the numpy loop's order of
 * operations, so every value it stores has that loop's bits.  That holds
 * only when the compiler neither fuses nor reorders a floating-point
 * operation: build with -ffp-contract=off and never with -ffast-math.
 */

#include <stdint.h>
#include <string.h>

typedef int64_t blasint; /* scipy-openblas64 takes 64-bit integers */
typedef void (*dgemv_fn)(int, int, blasint, blasint, double, const double *,
                         blasint, const double *, blasint, double, double *,
                         blasint);
typedef double (*ddot_fn)(blasint, const double *, blasint, const double *,
                          blasint);

enum { ROW_MAJOR = 101, NO_TRANS = 111, TRANS = 112 };
enum { FORWARDING, OUTPUT_FEEDBACK, INTEGRAL_ONLY, PI };

/* The kernel's operands, buffers and series; native._Loop lists the same
 * fields in the same order. */
struct loop {
    dgemv_fn dgemv;
    ddot_fn ddot;
    int64_t law, single, n, p, m, W, T, k;
    double u_lo, u_hi, u_ss, kp, ki, sign_dc, kp_pi, ki_pi;
    double h[4]; /* a_j dt */
    double b[4]; /* dt b_j */
    const double *G, *L;
    double *s, *st, *ds, *K, *gx, *gxh, *innov, *corr;
    double *X, *XH, *Z, *U_raw, *U_sat, *Err, *Y;
};

/* a . b over len entries, as np.dot gives it: one trajectory multiplies
 * two one-entry operands directly; otherwise numpy adds BLAS's dot to 0.0 */
static double dot(const struct loop *c, blasint len, const double *a,
                  const double *b)
{
    if (len == 1 && c->single)
        return a[0] * b[0];
    return 0.0 + c->ddot(len, a, 1, b, 1);
}

/* corr = L innov as np.dot (one trajectory) and np.matmul (a batch) give
 * it: with one output, numpy adds each product to 0.0 (through daxpy, or
 * in its own loop), which rounds as this loop does. */
static void correction(const struct loop *c)
{
    blasint n = c->n, p = c->p;
    if (n == 1)
        c->corr[0] = dot(c, p, c->L, c->innov);
    else if (p == 1)
        for (blasint i = 0; i < n; i++)
            c->corr[i] = 0.0 + c->L[i] * c->innov[0];
    else
        c->dgemv(ROW_MAJOR, NO_TRANS, n, p, 1.0, c->L, p, c->innov, 1, 0.0,
                 c->corr, 1);
}

void rk4_rows(const struct loop *c, int64_t lo, int64_t hi,
              const double *ref, const double *dist)
{
    const blasint n = c->n, p = c->p, m = c->m, W = c->W, T = c->T;
    const int observer = c->law == OUTPUT_FEEDBACK;
    const int feedback = observer || c->law == FORWARDING;
    double *st = c->st, *ds = c->ds, *K = c->K, *gx = c->gx;
    double *gh = observer ? c->gxh : gx; /* what the law reads */

    for (int64_t row = 0; row < c->k; row++) {
        double *s = c->s + row * W;
        for (int64_t step = lo; step < hi; step++) {
            const double *r = ref + 4 * (step - lo), *d = dist + 4 * (step - lo);
            const int64_t at = row * T + step;
            for (int j = 0; j < 4; j++) {
                const double *v = s;
                if (j) {
                    const double *Kp = K + (j - 1) * W;
                    for (blasint i = 0; i < W; i++)
                        st[i] = Kp[i] * c->h[j] + s[i];
                    v = st;
                }
                c->dgemv(ROW_MAJOR, NO_TRANS, m, n + 1, 1.0, c->G, n + 1, v, 1,
                         0.0, gx, 1);
                double mx = gx[3 * n], mw = gx[3 * n + 1];
                const double yc = gx[3 * n + 2], z = v[W - 1];
                const double e = yc - r[j] + d[j];
                if (observer) {
                    c->dgemv(ROW_MAJOR, NO_TRANS, m, n + 1, 1.0, c->G, n + 1,
                             v + n + 1, 1, 0.0, gh, 1);
                    mx = gh[3 * n];
                    mw = gh[3 * n + 1];
                }
                double phi;
                if (feedback)
                    phi = -c->kp * dot(c, n, gh + 2 * n, gh + n)
                          + c->ki * (z - mx) * mw;
                else if (c->law == INTEGRAL_ONLY)
                    phi = c->sign_dc * c->ki * z;
                else
                    phi = -(c->kp_pi * e + c->ki_pi * z);
                const double u_raw = c->u_ss + phi;
                const double us = u_raw < c->u_lo ? c->u_lo
                                  : (u_raw > c->u_hi ? c->u_hi : u_raw);

                if (j == 0) {
                    memcpy(c->X + at * n, s, n * sizeof(double));
                    if (observer)
                        memcpy(c->XH + at * n, s + n + 1, n * sizeof(double));
                    c->Z[at] = z;
                    c->U_raw[at] = u_raw;
                    c->U_sat[at] = us;
                    c->Err[at] = e;
                    memcpy(c->Y + at * p, gx + 3 * n + 3, p * sizeof(double));
                    if (step == T - 1)
                        break;
                }

                double *Kj = K + j * W;
                for (blasint i = 0; i < n; i++)
                    Kj[i] = gx[n + i] * us + gx[i];
                if (observer) {
                    for (blasint i = 0; i < p; i++)
                        c->innov[i] = gx[3 * n + 3 + i] - gh[3 * n + 3 + i];
                    correction(c);
                    for (blasint i = 0; i < n; i++)
                        Kj[n + 1 + i] = gh[n + i] * us + gh[i] + c->corr[i];
                }
                Kj[W - 1] = e;
            }
            if (step == T - 1)
                break;
            c->dgemv(ROW_MAJOR, TRANS, 4, W, 1.0, K, W, c->b, 1, 0.0, ds, 1);
            for (blasint i = 0; i < W; i++)
                s[i] = s[i] + ds[i];
        }
    }
}
