"""The kernel's step loop in numpy: the oracle that rk4_rows.c is held to.

rows_function(law, **fields) takes native.rows_function's arguments, the
law and the fields of rk4_rows.c's struct loop with the kernel's own
state and series, and returns rows(lo, hi, ref, dist), which advances
steps lo..hi-1 of every row in numpy.  conftest.both_loops puts it in
place of native.rows_function, so each run it wraps goes through both
loops and must give the same bits.

The loop calls the stacked np.matmul on columns, one BLAS call per row,
and keeps each per-row scalar as a (k, 1) column, which broadcasts against
the (k, n) blocks as a float does against (n,).  Every row performs the
same floating-point operations in the same order, so a row's bits do not
depend on k or on the other rows.  rk4_rows.c makes these calls through
numpy's own BLAS, with its scalar arithmetic in this loop's order.

The loop integrates with numpy's overflow and invalid warnings off, since
a diverging run ends in the kernel's reported failure; the C loop warns
of nothing either.
"""

import numpy as np


def rows_function(law, *, n, p, m, W, T, k, u_lo, u_hi, u_ss, kp, ki, sign_dc,
                  kp_pi, ki_pi, h, b, G, L, s, X, XH, Z, U_raw, U_sat, Err, Y, **_buffers):
    """rows(lo, hi, ref, dist) for the kernel's state s and series, by numpy.

    The scratch buffers that rk4_rows.c takes (_buffers) are one row wide;
    this loop makes its own, one row per trajectory."""
    observer = law == "output_feedback"
    feedback = observer or law == "forwarding"
    integral = law == "integral_only"
    n_steps = T - 1
    ia, ib, ip, iy = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n), slice(3 * n + 3, None)

    def reader(v):
        """A function that gives the columns of v: views, built once, that
        see every value v takes."""
        cols = tuple(v.T[..., None])
        return lambda: cols
    # This operand order returns u itself on a signed-zero tie with a
    # bound, as rk4_rows.c's conditional does.
    clamp = lambda u: np.minimum(u_hi, np.maximum(u_lo, u))
    # Product operands are columns, so the stacked matmul makes one gemv
    # call for each row.
    col = lambda v: v[..., None]

    def pdot(a, b):
        """A function that gives a[i] . b[i] for every row i as a (k, 1)
        column, by one dot call per row."""
        l, r, acc = a[..., None, :], b[..., None], np.empty((k, 1, 1))
        val = acc[..., 0]
        def dot():
            np.matmul(l, r, acc)
            return val
        return dot
    # the per-row series as (k, T, 1), so a (k, 1) column stores into [:, step]
    Z, U_raw, U_sat, Err = (a[..., None] for a in (Z, U_raw, U_sat, Err))

    st, ds = np.zeros((k, W)), np.zeros((k, W))
    K = np.zeros((k, 4, W))   # row j: the derivative at stage j
    gx, gxh = np.empty((k, m)), np.empty((k, m))
    innov, corr = np.empty((k, p)), np.empty((k, n))
    ix, ixh = slice(0, n), slice(n + 1, 2 * n + 1)
    # Fixed views of these buffers and product operands, and readers of
    # their scalars.
    stage_x = [col(v[..., : n + 1]) for v in (s, st, st, st)]
    stage_xh = [col(v[..., n + 1 : 2 * n + 2]) for v in (s, st, st, st)]
    read_z = [reader(v[..., -1:]) for v in (s, st, st, st)]
    x_dev, xh_dev = s[..., ix], s[..., ixh]
    Kj = [K[..., j, :] for j in range(4)]
    Kx, Kxh = ([K[..., j, i] for j in range(4)] for i in (ix, ixh))
    Kz = [K[..., j, -1:] for j in range(4)]   # where stage j's z derivative goes
    gx_out, gxh_out = col(gx), col(gxh)
    ga, gb, gy = gx[..., ia], gx[..., ib], gx[..., iy]
    gha, ghb, ghy = gxh[..., ia], gxh[..., ib], gxh[..., iy]
    gh = gxh if observer else gx
    p_dot_w = pdot(gh[..., ip], gh[..., ib])
    innov_in, corr_out = col(innov), col(corr)
    read_mwc, read_hmw = reader(gx[..., 3 * n : 3 * n + 3]), reader(gh[..., 3 * n : 3 * n + 2])
    stage_h0d = [np.array(a) for a in h]
    stage_b = np.array(b)

    def rows(lo, hi, refs, dists):
        # each step's four values become floats as the loop reaches it
        refs, dists = map(np.ndarray.tolist, refs), map(np.ndarray.tolist, dists)
        with np.errstate(over="ignore", invalid="ignore"):
            for step, r_row, d_row in zip(range(lo, hi), refs, dists):
                at = (slice(None), step)
                for j in range(4):
                    if j:
                        np.multiply(Kj[j - 1], stage_h0d[j], st)
                        np.add(st, s, st)
                    np.matmul(G, stage_x[j], gx_out)
                    mx, mw, yc = read_mwc()
                    (z,) = read_z[j]()
                    e = yc - r_row[j] + d_row[j]
                    if observer:
                        np.matmul(G, stage_xh[j], gxh_out)
                        mx, mw = read_hmw()
                    if feedback:
                        phi = -kp * p_dot_w() + ki * (z - mx) * mw
                    elif integral:
                        phi = sign_dc * ki * z
                    else:
                        phi = -(kp_pi * e + ki_pi * z)

                    u_raw = u_ss + phi
                    us = clamp(u_raw)

                    if j == 0:
                        X[at] = x_dev
                        if observer:
                            XH[at] = xh_dev
                        Z[at] = z
                        U_raw[at] = u_raw
                        U_sat[at] = us
                        Err[at] = e
                        Y[at] = gy
                        if step == n_steps:
                            break

                    np.multiply(gb, us, Kx[j])
                    np.add(Kx[j], ga, Kx[j])
                    if observer:
                        np.subtract(gy, ghy, innov)
                        np.matmul(L, innov_in, corr_out)
                        np.multiply(ghb, us, Kxh[j])
                        np.add(Kxh[j], gha, Kxh[j])
                        np.add(Kxh[j], corr, Kxh[j])
                    Kz[j][...] = e
                if step == n_steps:
                    break
                np.matmul(stage_b, K, ds)
                np.add(s, ds, s)

    return rows
