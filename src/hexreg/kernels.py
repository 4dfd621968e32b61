"""Hot-loop integration kernels: fixed-step RK4 over the stacked closed loop.

Stacked state s = [x (n), x_hat (n), z].  The x_hat block only moves for
the output-feedback law; other laws carry it with zero derivative.  All
matrix reads go through one stacked operator G = [A; B; P; M; C; D] so each
stage costs at most two matrix-vector products per state vector.

closed_loop_rk4 advances one trajectory and is written for the
interpreter: scalars are Python floats, the schedules are walked with one
cursor per stage time offset, and each stage is a few vector operations.
closed_loop_rk4_batch advances k trajectories that differ only in their
start, for sweeps over initial states.  Both kernels perform the same
floating-point operations in the same order, so every batch row is bit
for bit the single-trajectory result on that start; at k = 1 the batch
kernel is slower, so single runs keep closed_loop_rk4.  The estimate
series XH is stored only for the output-feedback law and is None
otherwise.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "closed_loop_rk4",
    "closed_loop_rk4_batch",
    "stack_operator",
]


def stack_operator(A, B, P, M, C, D) -> np.ndarray:
    """Row-stack [A; B; P; M; C; D] so G @ x yields every product at once."""
    return np.ascontiguousarray(np.vstack([A, B, P, M[None, :], C[None, :], D]))


def closed_loop_rk4(
    G,            # (3n + 2 + p, n) stacked operator
    bvec, Evec,   # (n,)
    u_lo, u_hi,
    law,          # 0 forwarding, 1 output feedback, 2 integral only, 3 pi
    u_ss, g_ss,   # scalar, (n,)
    Bxss, Pxss,   # (n,) precomputed B @ x_ss, P @ x_ss
    Mxss,         # scalar M @ x_ss
    kp, ki, sign_dc, kp_pi, ki_pi,
    L,            # (n, p)
    x0, xhat0, z0,
    dt, n_steps,
    ref_t, ref_v,
    dist_t, dist_v,
):
    """Classic RK4 on one trajectory; returns X, XH, Z, U_raw, U_sat, Err, Y, bad_step.

    bad_step is the first step whose state is non-finite, or -1.
    """
    n = bvec.shape[0]
    p = L.shape[1]
    row_b = n
    row_p = 2 * n
    row_m = 3 * n
    row_c = 3 * n + 1
    row_d = 3 * n + 2
    Mrow = G[row_m]
    observer = law == 1
    feedback = law == 0 or observer
    T = n_steps + 1

    X = np.empty((T, n))
    XH = np.empty((T, n)) if observer else None
    Z = np.empty(T)
    U_raw = np.empty(T)
    U_sat = np.empty(T)
    Err = np.empty(T)
    Y = np.empty((T, p))

    s = np.empty(2 * n + 1)
    s[0:n] = x0
    s[n : 2 * n] = xhat0
    s[2 * n] = z0
    kcur = np.zeros(2 * n + 1)  # the estimate block stays zero without an observer

    # Stage j is evaluated at t + a_j dt with a = (0, 1/2, 1/2, 1).  The
    # reference is the last entry whose time is <= t_j (the first entry
    # before that), the disturbance likewise (0 before its first entry).
    # t_j never decreases at a fixed offset, so one cursor per offset and
    # schedule replaces a scan from the start.
    ref_times, ref_vals = ref_t.tolist(), ref_v.tolist()
    dist_times, dist_vals = dist_t.tolist(), dist_v.tolist()
    nref = len(ref_times)
    ndist = len(dist_times)
    r_first = ref_vals[0]
    stage_h = (0.0, 0.5 * dt, 0.5 * dt, 1.0 * dt)   # a_j * dt
    stage_b = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)
    stage_slot = (0, 1, 1, 2)
    ref_at = [0, 0, 0]
    dist_at = [0, 0, 0]

    bad_step = -1
    for step in range(T):
        t = step * dt
        for j in range(4):
            if j == 0:
                st = s
                tj = t
            else:
                st = s + stage_h[j] * kcur
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

            x = st[0:n]
            z = st.item(2 * n)
            gx = G @ x
            e = gx.item(row_c) - r + d
            gxh = G @ st[n : 2 * n] if observer else gx

            if feedback:
                w = gxh[row_b : row_b + n] - Bxss + g_ss
                acc_p = float(np.dot(gxh[row_p : row_p + n] - Pxss, w))
                mw = float(np.dot(Mrow, w))
                mxt = gxh.item(row_m) - Mxss
                phi = -kp * acc_p + ki * (z - mxt) * mw
            elif law == 2:
                phi = sign_dc * ki * z
            else:
                phi = -(kp_pi * e + ki_pi * z)

            u_raw = u_ss + phi
            us = u_lo if u_raw < u_lo else (u_hi if u_raw > u_hi else u_raw)

            if j == 0:
                X[step] = x
                if observer:
                    XH[step] = st[n : 2 * n]
                Z[step] = z
                U_raw[step] = u_raw
                U_sat[step] = us
                Err[step] = e
                Y[step] = gx[row_d : row_d + p]
                if step == n_steps:
                    break

            kcur[0:n] = gx[0:n] + (gx[row_b : row_b + n] + bvec) * us + Evec
            if observer:
                innov = gx[row_d : row_d + p] - gxh[row_d : row_d + p]
                kcur[n : 2 * n] = (
                    gxh[0:n] + (gxh[row_b : row_b + n] + bvec) * us + Evec + L @ innov
                )
            kcur[2 * n] = e
            if j == 0:
                # + 0.0 turns a -0.0 term into +0.0, as a sum started from
                # zero does; the batch kernel starts its sum from zeros.
                acc = stage_b[0] * kcur + 0.0
            else:
                acc += stage_b[j] * kcur
        if step == n_steps:
            break
        s = s + dt * acc
        if not np.isfinite(s).all():
            bad_step = step + 1
            break

    return X, XH, Z, U_raw, U_sat, Err, Y, bad_step


def _rowwise(Mat, v):
    """Mat @ v[i] for every row i of v, one BLAS call per row.

    A single (k, n) @ (n, m) product would let BLAS block across rows and
    make each row's bits depend on k; the stacked matmul makes the same
    gemv (or dot, for a 1-D Mat) call that the single-trajectory kernel does.
    """
    return np.matmul(Mat, v[:, :, None])[..., 0]


def _rowdot(a, b):
    """np.dot(a[i], b[i]) for every row i, bit-identical to the 1-D call."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def closed_loop_rk4_batch(
    G, bvec, Evec, u_lo, u_hi, law, u_ss, g_ss, Bxss, Pxss, Mxss,
    kp, ki, sign_dc, kp_pi, ki_pi, L,
    x0, xhat0, z0,   # x0, xhat0 of shape (k, n)
    dt, n_steps, ref_t, ref_v, dist_t, dist_v,
):
    """RK4 over k trajectories that share everything but their start.

    Same arguments as closed_loop_rk4, with one initial state per row.
    Every elementwise operation follows the single-trajectory kernel in the
    same order and every product goes through one BLAS call per row, so
    each row is bit-identical to closed_loop_rk4 on that start, whatever k
    is.  Series come back as (k, n_steps + 1, ...), XH only for the
    output-feedback law; bad_step is the first step at which any row went
    non-finite.
    """
    k, n = x0.shape
    p = L.shape[1]
    row_b = n
    row_p = 2 * n
    row_m = 3 * n
    row_c = 3 * n + 1
    row_d = 3 * n + 2
    Mrow = G[row_m]
    T = n_steps + 1

    X = np.empty((k, T, n))
    XH = np.empty((k, T, n)) if law == 1 else None
    Z = np.empty((k, T))
    U_raw = np.empty((k, T))
    U_sat = np.empty((k, T))
    Err = np.empty((k, T))
    Y = np.empty((k, T, p))

    s = np.empty((k, 2 * n + 1))
    s[:, 0:n] = x0
    s[:, n : 2 * n] = xhat0
    s[:, 2 * n] = z0
    stage_a = (0.5, 0.5, 1.0)
    stage_b = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)

    bad_step = -1
    for step in range(T):
        t = step * dt
        acc = np.zeros((k, 2 * n + 1))
        for j in range(4):
            if j == 0:
                st = s
                tj = t
            else:
                aj = stage_a[j - 1]
                tj = t + aj * dt
                st = s + (aj * dt) * kcur
            x = st[:, 0:n]
            xh = st[:, n : 2 * n]
            z = st[:, 2 * n]
            gx = _rowwise(G, x)

            r = ref_v[0]
            for i in range(ref_t.shape[0]):
                if ref_t[i] <= tj:
                    r = ref_v[i]
                else:
                    break
            d = 0.0
            for i in range(dist_t.shape[0]):
                if dist_t[i] <= tj:
                    d = dist_v[i]
                else:
                    break
            e = gx[:, row_c] - r + d

            gxh = _rowwise(G, xh) if law == 1 else gx
            if law == 0 or law == 1:
                w = gxh[:, row_b : row_b + n] - Bxss + g_ss
                acc_p = _rowdot(gxh[:, row_p : row_p + n] - Pxss, w)
                mw = _rowwise(Mrow, w)
                mxt = gxh[:, row_m] - Mxss
                phi = -kp * acc_p + ki * (z - mxt) * mw
            elif law == 2:
                phi = sign_dc * ki * z
            else:
                phi = -(kp_pi * e + ki_pi * z)

            u_raw = u_ss + phi
            us = np.where(u_raw < u_lo, u_lo, np.where(u_raw > u_hi, u_hi, u_raw))

            kcur = np.empty((k, 2 * n + 1))
            kcur[:, 0:n] = gx[:, 0:n] + (gx[:, row_b : row_b + n] + bvec) * us[:, None] + Evec
            if law == 1:
                innov = gx[:, row_d : row_d + p] - gxh[:, row_d : row_d + p]
                kcur[:, n : 2 * n] = (
                    gxh[:, 0:n] + (gxh[:, row_b : row_b + n] + bvec) * us[:, None]
                    + Evec + _rowwise(L, innov)
                )
            else:
                kcur[:, n : 2 * n] = 0.0
            kcur[:, 2 * n] = e

            if j == 0:
                X[:, step] = x
                if law == 1:
                    XH[:, step] = xh
                Z[:, step] = z
                U_raw[:, step] = u_raw
                U_sat[:, step] = us
                Err[:, step] = e
                Y[:, step] = gx[:, row_d : row_d + p]
                if step == n_steps:
                    break
            acc += stage_b[j] * kcur
        if step == n_steps:
            break
        s = s + dt * acc
        if not np.isfinite(s).all():
            bad_step = step + 1
            break

    return X, XH, Z, U_raw, U_sat, Err, Y, bad_step
