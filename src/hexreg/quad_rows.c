/* The quadratic forms of analysis.trajectory_monitors, compiled.
 *
 * quad_rows writes out[i] = x_i^T P x_i for each row x_i of a C-contiguous
 * (rows, n) float64 block x and a C-contiguous (n, n) P, with the bits of
 * np.einsum("ij,jk,ik->i", x, P, x).  On such operands einsum adds each
 * product straight into its row's output, walking j, then k, in P's memory
 * order, so a row's sum is the sequential
 *
 *     o = +0.0;  for j: for k:  o = x[j] * P[j,k] * x[k] + o;
 *
 * with the product rounded left to right, and quad_rows keeps that order
 * and those roundings.  The sums of different rows are independent: four
 * rows run interleaved so that one row's adds need not wait on each
 * other, and no row's sum is reassociated.  That holds only when the
 * compiler neither fuses nor reorders a floating-point operation: build
 * with -ffp-contract=off and never with -ffast-math.
 *
 * Two cases sum otherwise, so native.quad_rows keeps them with einsum.
 * With an F-ordered P einsum walks k outer.  On a block of at most 8
 * products (rows n^2 <= 8, where the order shows only for n = 2 with one
 * or two rows) it sums each j's products over k from 0.0 and then adds
 * that partial sum to the row's output.  These orders were found on numpy
 * 2.4.6; tests/test_quad_rows.py holds quad_rows to einsum's bits on the
 * numpy at hand.
 */

#include <stdint.h>

void quad_rows(const double *x, int64_t rows, int64_t n, const double *P,
               double *out)
{
    int64_t i = 0;
    for (; i + 4 <= rows; i += 4) {
        const double *r0 = x + i * n, *r1 = r0 + n, *r2 = r1 + n, *r3 = r2 + n;
        double o0 = 0.0, o1 = 0.0, o2 = 0.0, o3 = 0.0;
        for (int64_t j = 0; j < n; j++) {
            const double *Pj = P + j * n;
            double a0 = r0[j], a1 = r1[j], a2 = r2[j], a3 = r3[j];
            for (int64_t k = 0; k < n; k++) {
                o0 = a0 * Pj[k] * r0[k] + o0;
                o1 = a1 * Pj[k] * r1[k] + o1;
                o2 = a2 * Pj[k] * r2[k] + o2;
                o3 = a3 * Pj[k] * r3[k] + o3;
            }
        }
        out[i] = o0;
        out[i + 1] = o1;
        out[i + 2] = o2;
        out[i + 3] = o3;
    }
    for (; i < rows; i++) { /* the last rows % 4 rows, one at a time */
        const double *r = x + i * n;
        double o = 0.0;
        for (int64_t j = 0; j < n; j++)
            for (int64_t k = 0; k < n; k++)
                o = r[j] * P[j * n + k] * r[k] + o;
        out[i] = o;
    }
}
