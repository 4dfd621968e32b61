"""Hot-loop integration kernel: fixed-step RK4 over the stacked closed loop.

The loop runs in deviations from the anchor: the state is
s = [x - x_ss, 1, x_hat - x_ss, 1, z], with the estimate block only for the
output-feedback law.  Through the constant ones, one stacked operator
G = [[A, A x_ss + E]; [B, g_ss]; [P, 0]; [M, 0]; [M B, M g_ss];
[C, C x_ss]; [D, D x_ss]] carries the affine terms, so each stage costs one
matrix-vector product per state block, and the law is exactly zero at the
anchor.  The stage derivatives fill the rows of one block K, and each step
adds (dt b) @ K, with b the RK4 weights.

closed_loop_rk4 advances one trajectory from a start of shape (n,), or k
trajectories that differ only in their start from one of shape (k, n).
Each law is written once; the rank only picks how the loop reads and
stores scalars and clamps.  Every row performs the same floating-point
operations in the same order, so each batch row is bit for bit the
single-trajectory result on that start, whatever k is.
"""

from __future__ import annotations

import numpy as np

from .controllers import LAW_CODES

__all__ = [
    "closed_loop_rk4",
    "closed_loop_rk4_batch",
]


def _rowwise(Mat, v):
    """Mat @ v[i] for every row i of v, one BLAS call per row.

    A single (k, n) @ (n, m) product would let BLAS block across rows and
    make each row's bits depend on k; the stacked matmul makes the same
    gemv call that Mat @ v[i] does.
    """
    return np.matmul(Mat, v[:, :, None])[..., 0]


def _rowdot(a, b):
    """np.dot(a[i], b[i]) for every row i as a (k, 1) column, bit-identical
    to the 1-D call; a may also be one row shared by all."""
    return np.matmul(a[..., None, :], b[:, :, None])[..., 0]


def closed_loop_rk4(scn, x0, xhat0, z0=0.0):
    """Classic RK4 of the scenario scn; returns X, XH, Z, U_raw, U_sat, Err,
    Y, bad_step.

    scn is a sim.SimScenario: the kernel reads its plant, artifacts, law,
    PI gains, grid and schedules.  A start x0, xhat0 of shape (n,) gives
    series of shape (n_steps + 1, ...); of shape (k, n), series of shape
    (k, n_steps + 1, ...), one row per start.  XH is stored only for the
    output-feedback law and is None otherwise.  bad_step is the first step
    at which the state (of any row) is non-finite, or -1.
    """
    sys, art = scn.sys, scn.artifacts
    dt, n_steps = scn.dt, scn.n_steps
    u_lo, u_hi = sys.u_min, sys.u_max
    law = LAW_CODES[scn.law]
    u_ss, sign_dc = art.u_ss, art.sign_dc
    kp, ki = art.k_p, art.k_i
    kp_pi, ki_pi = scn.kp_pi, scn.ki_pi
    x_ss, g_ss, M = art.x_ss, sys.input_gain(art.x_ss), art.M[None, :]
    n, p = sys.n_states, sys.n_outputs
    # G @ [x - x_ss, 1] yields A x + E, w = B x + b, P (x - x_ss),
    # M (x - x_ss), M w, C x and D x.  Reordering its rows changes the bits
    # BLAS returns, so the order stays as written.
    G = np.ascontiguousarray(np.column_stack([
        np.vstack([sys.A, sys.B, art.P, M, M @ sys.B, sys.C[None, :], sys.D]),
        np.concatenate([sys.A @ x_ss + sys.E, g_ss, np.zeros(n + 1), M @ g_ss,
                        [sys.C @ x_ss], sys.D @ x_ss])]))
    ia, ib, ip, iy = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n), slice(3 * n + 3, None)
    T = n_steps + 1
    observer = law == 1
    feedback = law == 0 or observer
    lead = x0.shape[:-1]   # () for one trajectory, (k,) for k
    if lead:
        # Per-trajectory scalars are (k, 1) columns, which broadcast against
        # the (k, n) blocks as a float does against (n,); scalars(v) splits
        # the columns of v, as tolist splits one trajectory's entries.
        scalars = lambda v: v.T[..., None]
        # This operand order returns u itself on a signed-zero tie with a
        # bound, as the conditional below does.
        clamp = lambda u: np.minimum(u_hi, np.maximum(u_lo, u))
        scalar_shape = lead + (T, 1)
    else:
        scalars = np.ndarray.tolist
        clamp = lambda u: u_lo if u < u_lo else (u_hi if u > u_hi else u)
        scalar_shape = (T,)

    # The state is [x - x_ss, 1, x_hat - x_ss, 1, z], the estimate block
    # only for the output-feedback law.  The ones carry the affine terms
    # through G, and a deviation is an exact zero at the anchor.
    W = 2 * n + 3 if observer else n + 2
    ix, ixh = slice(0, n), slice(n + 1, 2 * n + 1)
    s, st, ds = (np.zeros(lead + (W,)) for _ in range(3))
    s[..., ix] = x0 - x_ss
    s[..., n :: n + 1] = 1.0
    s[..., -1] = z0
    K = np.zeros(lead + (4, W))   # row j: the derivative at stage j
    gx, gxh = np.empty(lead + (len(G),)), np.empty(lead + (len(G),))
    acc, innov, corr = np.empty(lead + (1,)), np.empty(lead + (p,)), np.empty(lead + (n,))
    if observer:
        s[..., ixh] = xhat0 - x_ss
        L = np.ascontiguousarray(art.observer.L)
    # Fixed views of these buffers.  Product operands are columns, so each
    # batch row makes the same BLAS call that one trajectory makes.
    operands = lambda v: (v[..., : n + 1, None], v[..., n + 1 : 2 * n + 2, None], v[..., -1:])
    stage_in = [operands(s)] + 3 * [operands(st)]
    Kj = [K[..., j, :] for j in range(4)]
    Kx, Kxh, Kz = ([K[..., j, i] for j in range(4)] for i in (ix, ixh, slice(-1, None)))
    ga, gb, gy = gx[..., ia], gx[..., ib], gx[..., iy]
    gh = gxh if observer else gx
    dot_in = (gh[..., None, ip], gh[..., ib, None], acc[..., None])
    gx_mwc, gh_mw = gx[..., 3 * n : 3 * n + 3], gh[..., 3 * n : 3 * n + 2]

    X = np.empty(lead + (T, n))
    XH = np.empty(lead + (T, n)) if observer else None
    Y = np.empty(lead + (T, p))
    # A batch's scalar series keep a trailing axis of one while they fill,
    # so a (k, 1) column stores into [:, step] as a float into [step].
    Z, U_raw, U_sat, Err = (np.empty(scalar_shape) for _ in range(4))

    # Stage j is evaluated at t + a_j dt with a = (0, 1/2, 1/2, 1).  The
    # reference is the last entry whose time is <= t_j (the first entry
    # before that), the disturbance likewise (0 before its first entry).
    # t_j never decreases at a fixed offset, so one cursor per offset and
    # schedule replaces a scan from the start.
    ref_times, ref_vals = scn.ref_t.tolist(), scn.ref_v.tolist()
    dist_times, dist_vals = scn.dist_t.tolist(), scn.dist_v.tolist()
    nref, ndist = len(ref_times), len(dist_times)
    r_first = ref_vals[0]
    stage_h = (0.0, 0.5 * dt, 0.5 * dt, 1.0 * dt)   # a_j * dt
    stage_slot = (0, 1, 1, 2)
    stage_b = dt * np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])  # dt b_j
    ref_at, dist_at = [0, 0, 0], [0, 0, 0]

    bad_step = -1
    for step in range(T):
        t = step * dt
        at = (slice(None), step) if lead else step
        for j in range(4):
            if j:
                np.multiply(Kj[j - 1], stage_h[j], out=st)
                np.add(st, s, out=st)
            tj = t + stage_h[j]
            slot = stage_slot[j]
            i = ref_at[slot]
            while i < nref and ref_times[i] <= tj:
                i += 1
            ref_at[slot] = i
            r = ref_vals[i - 1] if i else r_first
            i = dist_at[slot]
            while i < ndist and dist_times[i] <= tj:
                i += 1
            dist_at[slot] = i
            d = dist_vals[i - 1] if i else 0.0

            x_in, xh_in, z_in = stage_in[j]
            np.matmul(G, x_in, out=gx[..., None])
            mx, mw, yc = scalars(gx_mwc)
            (z,) = scalars(z_in)
            e = yc - r + d
            if observer:
                np.matmul(G, xh_in, out=gxh[..., None])
                mx, mw = scalars(gh_mw)
            if feedback:
                np.matmul(*dot_in[:2], out=dot_in[2])
                (acc_p,) = scalars(acc)
                phi = -kp * acc_p + ki * (z - mx) * mw
            elif law == 2:
                phi = sign_dc * ki * z
            else:
                phi = -(kp_pi * e + ki_pi * z)

            u_raw = u_ss + phi
            us = clamp(u_raw)

            if j == 0:
                X[at] = s[..., ix]
                if observer:
                    XH[at] = s[..., ixh]
                Z[at] = z
                U_raw[at] = u_raw
                U_sat[at] = us
                Err[at] = e
                Y[at] = gy
                if step == n_steps:
                    break

            np.multiply(gb, us, out=Kx[j])
            np.add(Kx[j], ga, out=Kx[j])
            if observer:
                np.subtract(gy, gxh[..., iy], out=innov)
                np.matmul(L, innov[..., None], out=corr[..., None])
                np.multiply(gxh[..., ib], us, out=Kxh[j])
                np.add(Kxh[j], gxh[..., ia], out=Kxh[j])
                np.add(Kxh[j], corr, out=Kxh[j])
            Kz[j][...] = e
        if step == n_steps:
            break
        np.matmul(stage_b, K, out=ds)
        np.add(s, ds, out=s)
        if not np.isfinite(s).all():
            bad_step = step + 1
            break

    X += x_ss
    if observer:
        XH += x_ss
    if lead:
        Z, U_raw, U_sat, Err = (a[..., 0] for a in (Z, U_raw, U_sat, Err))
    return X, XH, Z, U_raw, U_sat, Err, Y, bad_step


# sim.run_many calls the kernel under this name, and the benchmark's
# tracing wraps each name separately to time single runs and batches.
closed_loop_rk4_batch = closed_loop_rk4
