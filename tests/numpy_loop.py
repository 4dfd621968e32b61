"""The kernel's step loop in numpy: the oracle that rk4_rows.c is held to.

rows_function(law, **fields) takes native.rows_function's arguments, the
law and the fields of rk4_rows.c's struct loop with the kernel's own
state and series, and returns rows(lo, hi, ref, dist), which advances
steps lo..hi-1 of every row in numpy.  conftest.both_loops puts it in
place of native.rows_function, so each run it wraps goes through both
loops and must give the same bits.

The rank of the state picks the product calls.  One trajectory calls
np.dot on 1-D operands and hands the clamped input to the ufuncs as a
reused 0-d array; a batch calls the stacked np.matmul on columns, one BLAS
call per row, and keeps each per-row scalar as a (k, 1) column, which
broadcasts against the (k, n) blocks as a float does against (n,).  Both
make the same gemv and dot calls, and every row performs the same
floating-point operations in the same order, so each batch row is bit for
bit the single-trajectory result on that start.  rk4_rows.c makes these
calls through numpy's own BLAS, with its scalar arithmetic in this loop's
order.

The loop integrates with numpy's overflow and invalid warnings off, since
a diverging run ends in the kernel's reported failure; the C loop warns
of nothing either.
"""

import numpy as np


def rows_function(law, *, single, n, p, m, W, T, k, u_lo, u_hi, u_ss, kp, ki, sign_dc,
                  kp_pi, ki_pi, h, b, G, L, s, X, XH, Z, U_raw, U_sat, Err, Y, **_buffers):
    """rows(lo, hi, ref, dist) for the kernel's state s and series, by numpy.

    The scratch buffers that rk4_rows.c takes (_buffers) are one row wide;
    this loop makes its own, one row per trajectory."""
    observer = law == "output_feedback"
    feedback = observer or law == "forwarding"
    integral = law == "integral_only"
    n_steps = T - 1
    lead = () if single else (k,)
    ia, ib, ip, iy = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n), slice(3 * n + 3, None)
    if lead:
        # reader(v)() gives the columns of v, as v.tolist() gives one
        # trajectory's entries; they are views, built once, that see every
        # value v takes.
        def reader(v):
            cols = tuple(v.T[..., None])
            return lambda: cols
        # This operand order returns u itself on a signed-zero tie with a
        # bound, as the conditional below does.
        clamp = lambda u: np.minimum(u_hi, np.maximum(u_lo, u))
        # Product operands are columns, so the stacked matmul makes for
        # each row the gemv call that np.dot makes for one trajectory.
        mul, col = np.matmul, lambda v: v[..., None]

        def pdot(a, b):
            """A function that gives a[i] . b[i] for every row i as a
            (k, 1) column; the stacked matmul again makes np.dot's call."""
            l, r, acc = a[..., None, :], b[..., None], np.empty(lead + (1, 1))
            val = acc[..., 0]
            def dot():
                np.matmul(l, r, acc)
                return val
            return dot
        # a (k, 1) column stores into [:, step] as a float into [step]
        Z, U_raw, U_sat, Err = (a[..., None] for a in (Z, U_raw, U_sat, Err))
    else:
        reader = lambda v: v.tolist
        u_in = np.empty(())
        def clamp(u):
            u_in[()] = u_lo if u < u_lo else (u_hi if u > u_hi else u)
            return u_in
        mul, col = np.dot, lambda v: v
        pdot = lambda a, b: lambda: float(a.dot(b))

    st, ds = np.zeros(lead + (W,)), np.zeros(lead + (W,))
    K = np.zeros(lead + (4, W))   # row j: the derivative at stage j
    gx, gxh = np.empty(lead + (m,)), np.empty(lead + (m,))
    innov, corr = np.empty(lead + (p,)), np.empty(lead + (n,))
    ix, ixh = slice(0, n), slice(n + 1, 2 * n + 1)
    # Fixed views of these buffers and product operands, and readers of
    # their scalars.
    stage_x = [col(v[..., : n + 1]) for v in (s, st, st, st)]
    stage_xh = [col(v[..., n + 1 : 2 * n + 2]) for v in (s, st, st, st)]
    read_z = [reader(v[..., -1:]) for v in (s, st, st, st)]
    x_dev, xh_dev = s[..., ix], s[..., ixh]
    Kj = [K[..., j, :] for j in range(4)]
    Kx, Kxh = ([K[..., j, i] for j in range(4)] for i in (ix, ixh))
    # where stage j's z derivative goes: a batch's column view, or one
    # trajectory's element, which takes a float at less cost than a view
    Kz = [(K[..., j, -1:], ...) if lead else (K, (j, -1)) for j in range(4)]
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
                at = (slice(None), step) if lead else step
                for j in range(4):
                    if j:
                        np.multiply(Kj[j - 1], stage_h0d[j], st)
                        np.add(st, s, st)
                    mul(G, stage_x[j], gx_out)
                    mx, mw, yc = read_mwc()
                    (z,) = read_z[j]()
                    e = yc - r_row[j] + d_row[j]
                    if observer:
                        mul(G, stage_xh[j], gxh_out)
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
                        mul(L, innov_in, corr_out)
                        np.multiply(ghb, us, Kxh[j])
                        np.add(Kxh[j], gha, Kxh[j])
                        np.add(Kxh[j], corr, Kxh[j])
                    z_dst, z_at = Kz[j]
                    z_dst[z_at] = e
                if step == n_steps:
                    break
                mul(stage_b, K, ds)
                np.add(s, ds, s)

    return rows
