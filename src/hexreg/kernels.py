"""Hot-loop integration kernel: fixed-step RK4 over the stacked closed loop.

Stacked state s = [x (n), x_hat (n), z].  The x_hat block only moves for
the output-feedback law; other laws carry it with zero derivative.  All
matrix reads go through one stacked operator G = [A; B; P; M; C; D] so each
stage costs at most two matrix-vector products per state vector.

closed_loop_rk4 advances one trajectory from a start of shape (n,), or k
trajectories that differ only in their start from one of shape (k, n).
Each law is written once; the rank only picks how the loop indexes,
multiplies, takes scalars and clamps.  Every row performs the same
floating-point operations in the same order, so each batch row is bit for
bit the single-trajectory result on that start, whatever k is.
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
    # G @ x yields every product at once.  Reordering its rows changes the
    # bits BLAS returns, so the order stays [A; B; P; M; C; D].
    G = np.ascontiguousarray(
        np.vstack([sys.A, sys.B, art.P, art.M[None, :], sys.C[None, :], sys.D]))
    bvec, Evec = sys.b, sys.E
    u_lo, u_hi = sys.u_min, sys.u_max
    law = LAW_CODES[scn.law]
    u_ss, sign_dc = art.u_ss, art.sign_dc
    kp, ki = art.k_p, art.k_i
    kp_pi, ki_pi = scn.kp_pi, scn.ki_pi
    g_ss = sys.input_gain(art.x_ss)
    Bxss = sys.B @ art.x_ss
    Pxss = art.P @ art.x_ss
    Mxss = float(art.M @ art.x_ss)

    n = sys.n_states
    p = sys.n_outputs
    T = n_steps + 1
    lead = x0.shape[:-1]   # () for one trajectory, (k,) for k
    if lead:
        # Per-trajectory scalars are (k, 1) columns, which broadcast against
        # the (k, n) blocks as a float does against (n,).
        cols = lambda lo, hi: (slice(None), slice(lo, hi))
        get = lambda a, i: a[:, i : i + 1]
        # This operand order returns u itself on a signed-zero tie with a
        # bound, as the conditional below does.
        clamp = lambda u: np.minimum(u_hi, np.maximum(u_lo, u))
        mv, dot = _rowwise, _rowdot
        iz, scalar_shape = cols(2 * n, 2 * n + 1), lead + (T, 1)
    else:
        cols, get, mv = slice, np.ndarray.item, np.matmul
        dot = lambda a, b: float(np.dot(a, b))
        clamp = lambda u: u_lo if u < u_lo else (u_hi if u > u_hi else u)
        iz, scalar_shape = 2 * n, (T,)

    ix, ixh = cols(0, n), cols(n, 2 * n)                 # blocks of s
    ia, ib, ip = cols(0, n), cols(n, 2 * n), cols(2 * n, 3 * n)  # of G @ x
    idy = cols(3 * n + 2, 3 * n + 2 + p)
    row_m, row_c = 3 * n, 3 * n + 1
    Mrow = G[row_m]
    observer = law == 1
    feedback = law == 0 or observer
    if observer:
        L = np.ascontiguousarray(art.observer.L)

    X = np.empty(lead + (T, n))
    XH = np.empty(lead + (T, n)) if observer else None
    Y = np.empty(lead + (T, p))
    # A batch's scalar series keep a trailing axis of one while they fill,
    # so a (k, 1) column stores into [:, step] as a float into [step].
    Z, U_raw, U_sat, Err = (np.empty(scalar_shape) for _ in range(4))

    s = np.empty(lead + (2 * n + 1,))
    s[ix] = x0
    s[ixh] = xhat0
    s[iz] = z0
    kcur = np.zeros(lead + (2 * n + 1,))  # the estimate block stays zero without an observer

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
    stage_b = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)
    stage_slot = (0, 1, 1, 2)
    ref_at = [0, 0, 0]
    dist_at = [0, 0, 0]

    bad_step = -1
    for step in range(T):
        t = step * dt
        at = (slice(None), step) if lead else step
        for j in range(4):
            st = s + stage_h[j] * kcur if j else s
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

            x = st[ix]
            z = get(st, 2 * n)
            gx = mv(G, x)
            e = get(gx, row_c) - r + d
            gxh = mv(G, st[ixh]) if observer else gx

            if feedback:
                w = gxh[ib] - Bxss + g_ss
                acc_p = dot(gxh[ip] - Pxss, w)
                mw = dot(Mrow, w)
                mxt = get(gxh, row_m) - Mxss
                phi = -kp * acc_p + ki * (z - mxt) * mw
            elif law == 2:
                phi = sign_dc * ki * z
            else:
                phi = -(kp_pi * e + ki_pi * z)

            u_raw = u_ss + phi
            us = clamp(u_raw)

            if j == 0:
                X[at] = x
                if observer:
                    XH[at] = st[ixh]
                Z[at] = z
                U_raw[at] = u_raw
                U_sat[at] = us
                Err[at] = e
                Y[at] = gx[idy]
                if step == n_steps:
                    break

            kcur[ix] = gx[ia] + (gx[ib] + bvec) * us + Evec
            if observer:
                innov = gx[idy] - gxh[idy]
                kcur[ixh] = gxh[ia] + (gxh[ib] + bvec) * us + Evec + mv(L, innov)
            kcur[iz] = e
            if j == 0:
                # + 0.0 turns a -0.0 term into +0.0, as a sum started from
                # zero does.
                acc = stage_b[0] * kcur + 0.0
            else:
                acc += stage_b[j] * kcur
        if step == n_steps:
            break
        s = s + dt * acc
        if not np.isfinite(s).all():
            bad_step = step + 1
            break

    if lead:
        Z, U_raw, U_sat, Err = (a[..., 0] for a in (Z, U_raw, U_sat, Err))
    return X, XH, Z, U_raw, U_sat, Err, Y, bad_step


# sim.run_many calls the kernel under this name, and the benchmark's
# tracing wraps each name separately to time single runs and batches.
closed_loop_rk4_batch = closed_loop_rk4
