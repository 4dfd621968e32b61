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

A non-finite entry of the state stays non-finite under s += ds, and the
constant ones never change, so the state is finite at a step exactly when
the rows stored for it are.  The loop therefore checks no state per step:
it scans the rows stored in X, XH and Z once per block of _SCAN_ROWS steps
and once at the end.  A diverging run integrates up to one block past the
failure and then reports the same first non-finite step as a per-step
check would.  Each scan also turns the rows it passed from deviations into
absolute states, so a row is final once scanned, and a caller that asked
for notice (on_final) may read it while the loop goes on.
"""

from __future__ import annotations

import numpy as np

from .controllers import LAW_CODES

__all__ = [
    "closed_loop_rk4",
    "closed_loop_rk4_batch",
    "first_nonfinite",
]

_SCAN_ROWS = 64  # stored steps per scan for non-finite entries


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


def first_nonfinite(X, XH, Z, lo, hi):
    """The first non-finite entry stored for steps lo..hi-1, or None.

    X, XH (or None) and Z are the kernel's series, with or without a
    leading batch axis.  Returns (step, row, column): the earliest step,
    then the lowest batch row at that step (None for one trajectory), then
    the first of that row's columns in the order x_i, xhat_i, z, named as
    in the CSV.
    """
    parts = [X[..., lo:hi, :], Z[..., lo:hi, None]]
    if XH is not None:
        parts.insert(1, XH[..., lo:hi, :])
    if all(np.isfinite(part).all() for part in parts):
        return None
    bad = ~np.isfinite(np.concatenate(parts, axis=-1))
    batch = bad.ndim == 3
    # (step, row, column) in C order, so the flat argmax is the first hit
    bad = bad.swapaxes(0, 1) if batch else bad[:, None, :]
    step, row, col = np.unravel_index(np.argmax(bad), bad.shape)
    n = X.shape[-1]
    if col < n:
        name = f"x_{col + 1}"
    elif XH is not None and col < 2 * n:
        name = f"xhat_{col - n + 1}"
    else:
        name = "z"
    return lo + int(step), (int(row) if batch else None), name


def closed_loop_rk4(scn, x0, xhat0, z0=0.0, out=None, on_final=None):
    """Classic RK4 of the scenario scn; returns X, XH, Z, U_raw, U_sat, Err,
    Y, bad_step.

    scn is a sim.SimScenario: the kernel reads its plant, artifacts, law,
    PI gains, grid and schedules.  A start x0, xhat0 of shape (n,) gives
    series of shape (n_steps + 1, ...); of shape (k, n), series of shape
    (k, n_steps + 1, ...), one row per start.  XH is stored only for the
    output-feedback law and is None otherwise.  bad_step is the first step
    after the start at which the state (of any row) is non-finite, or -1;
    the series then hold every step up to bad_step, and first_nonfinite
    finds what went non-finite there.

    For one trajectory, out may give the arrays to fill, in the order and
    the shapes returned (XH None unless the law is output feedback).
    on_final(rows), when given, is called after each scan that finds rows
    0..rows-1 finite; those rows are final and never written again.
    sim.run always passes both, with or without a CSV path; sim.run_many
    passes neither.
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
        # the (k, n) blocks as a float does against (n,).  reader(v)() gives
        # the columns of v, as v.tolist() gives one trajectory's entries;
        # they are views, built once, that see every value v takes.
        def reader(v):
            cols = tuple(v.T[..., None])
            return lambda: cols
        # This operand order returns u itself on a signed-zero tie with a
        # bound, as the conditional below does.
        clamp = lambda u: np.minimum(u_hi, np.maximum(u_lo, u))
        scalar_shape = lead + (T, 1)
    else:
        reader = lambda v: v.tolist
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
    # Fixed views of these buffers, and readers of their scalars.  Product
    # operands are columns, so each batch row makes the same BLAS call that
    # one trajectory makes.
    stage_x = [v[..., : n + 1, None] for v in (s, st, st, st)]
    stage_xh = [v[..., n + 1 : 2 * n + 2, None] for v in (s, st, st, st)]
    read_z = [reader(v[..., -1:]) for v in (s, st, st, st)]
    x_dev, xh_dev = s[..., ix], s[..., ixh]
    Kj = [K[..., j, :] for j in range(4)]
    Kx, Kxh, Kz = ([K[..., j, i] for j in range(4)] for i in (ix, ixh, slice(-1, None)))
    gx_col, gxh_col = gx[..., None], gxh[..., None]
    ga, gb, gy = gx[..., ia], gx[..., ib], gx[..., iy]
    gha, ghb, ghy = gxh[..., ia], gxh[..., ib], gxh[..., iy]
    gh = gxh if observer else gx
    dot_l, dot_r, acc_out = gh[..., None, ip], gh[..., ib, None], acc[..., None]
    innov_col, corr_col = innov[..., None], corr[..., None]
    read_mwc, read_hmw = reader(gx[..., 3 * n : 3 * n + 3]), reader(gh[..., 3 * n : 3 * n + 2])
    read_acc = reader(acc)

    if out is None:
        X = np.empty(lead + (T, n))
        XH = np.empty(lead + (T, n)) if observer else None
        Y = np.empty(lead + (T, p))
        # A batch's scalar series keep a trailing axis of one while they
        # fill, so a (k, 1) column stores into [:, step] as a float into
        # [step].
        Z, U_raw, U_sat, Err = (np.empty(scalar_shape) for _ in range(4))
    else:
        X, XH, Z, U_raw, U_sat, Err, Y = out
    Z_rows = Z[..., 0] if lead else Z

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
    stage_h0d = [np.array(h) for h in stage_h]
    stage_slot = (0, 1, 1, 2)
    stage_b = dt * np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])  # dt b_j
    ref_at, dist_at = [0, 0, 0], [0, 0, 0]

    bad_step = -1
    final = 0   # rows below this are scanned and absolute; row 0 is the start
    for step in range(T):
        t = step * dt
        at = (slice(None), step) if lead else step
        for j in range(4):
            if j:
                np.multiply(Kj[j - 1], stage_h0d[j], st)
                np.add(st, s, st)
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

            np.matmul(G, stage_x[j], gx_col)
            mx, mw, yc = read_mwc()
            (z,) = read_z[j]()
            e = yc - r + d
            if observer:
                np.matmul(G, stage_xh[j], gxh_col)
                mx, mw = read_hmw()
            if feedback:
                np.matmul(dot_l, dot_r, acc_out)
                (acc_p,) = read_acc()
                phi = -kp * acc_p + ki * (z - mx) * mw
            elif law == 2:
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
                np.matmul(L, innov_col, corr_col)
                np.multiply(ghb, us, Kxh[j])
                np.add(Kxh[j], gha, Kxh[j])
                np.add(Kxh[j], corr, Kxh[j])
            Kz[j][...] = e
        if step % _SCAN_ROWS == 0 or step == n_steps:
            bad = first_nonfinite(X, XH, Z_rows, max(final, 1), step + 1)
            X[..., final : step + 1, :] += x_ss
            if observer:
                XH[..., final : step + 1, :] += x_ss
            if bad is not None:
                bad_step = bad[0]
                break
            final = step + 1
            if on_final is not None:
                on_final(final)
        if step == n_steps:
            break
        np.matmul(stage_b, K, ds)
        np.add(s, ds, s)

    if lead:
        Z, U_raw, U_sat, Err = (a[..., 0] for a in (Z, U_raw, U_sat, Err))
    return X, XH, Z, U_raw, U_sat, Err, Y, bad_step


# sim.run_many calls the kernel under this name, and the benchmark's
# tracing wraps each name separately to time single runs and batches.
closed_loop_rk4_batch = closed_loop_rk4
