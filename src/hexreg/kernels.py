"""Hot-loop integration kernel: fixed-step RK4 over the stacked closed loop.

closed_loop_rk4 is the one definition of the control laws, for one
trajectory and for a batch alike.  Every law issues u = u_ss + phi, the
plant applies sat(u), and every law integrates dz/dt = e.

Laws
----
forwarding        phi = -(B (x - x_ss) + g_ss)^T [k_p P (x - x_ss)
                        - k_i (z - M (x - x_ss)) M^T], with g_ss = B x_ss + b
output_feedback   same formula evaluated on the observer estimate, which obeys
                  dxhat/dt = A xhat + (B xhat + b) sat(u) + L (y - D xhat) + E
integral_only     phi = sign_dc * k_i * z  (sign_dc = sgn(C F^-1 g); this
                  direction makes the slow output loop contract, since the
                  steady output slope is -C F^-1 g)
pi                phi = -(kp_pi e + ki_pi z); gains are signed, so plants
                  with a negative input-to-output DC gain take negative
                  gains for a stabilizing loop

What each law needs of a scenario (an observer for output feedback, pi_bar
for integral-only, ki_pi for PI) is checked by sim.scenario_from_dict,
before the kernel runs.

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
stores scalars, clamps and calls its products.  One trajectory calls
np.dot on 1-D operands and hands the clamped input to the ufuncs as a
reused 0-d array, which costs less per call than np.matmul on columns and
a Python float; a batch calls the stacked np.matmul on columns, one BLAS
call per row.  Both make the same gemv and dot calls, and every row
performs the same floating-point operations in the same order, so each
batch row is bit for bit the single-trajectory result on that start,
whatever k is (tests/test_kernels.py pins the BLAS side of that).

The loop walks the rows in blocks of _BLOCK steps: rows [0, 1024),
[1024, 2048), ..., the last one shorter.  Each block looks up the
reference and the disturbance at all four stage times of its steps with
one np.searchsorted per schedule, so the loop itself keeps no schedule
state.

A block's steps run in compiled C when this process can build it
(native.py, rk4_rows.c): one call integrates the block for one trajectory
or for each batch row in turn, on the same buffers and series.  Per stage
it makes the numpy loop's BLAS calls with the same arguments, through
numpy's own BLAS, and its scalar arithmetic in the numpy loop's order, so
every value keeps its bits, at about 1 us per trajectory-step where the
numpy loop takes about 15 us for one trajectory and 4 us per batch row.
Otherwise the numpy loop runs; it stays the reference that the tests
hold the C loop to.  It integrates with numpy's overflow and invalid
warnings off, since a diverging run ends in the reported failure and
those warnings would only repeat it; the C loop warns of nothing.  A
non-finite entry of the state stays non-finite under s += ds, and the
constant ones never change, so
the state is finite at a step exactly when the rows stored for it are.
The loop therefore checks no state per step: it scans the rows of each
block once it is integrated.  A diverging run integrates up to one block
past the failure and then reports the same first non-finite step as a
per-step check would, with the batch row and the column that went first,
so nothing scans the failed step again.  The scan also turns the block's
rows from deviations into absolute states, so a block is final once
scanned, and a caller that asked for notice (on_final) may read it,
under its own numpy error state, while the loop goes on.
"""

from __future__ import annotations

import numpy as np

from . import native

__all__ = [
    "FORWARDING",
    "OUTPUT_FEEDBACK",
    "INTEGRAL_ONLY",
    "PI",
    "LAWS",
    "closed_loop_rk4",
    "closed_loop_rk4_batch",
    "first_nonfinite",
]

FORWARDING = "forwarding"
OUTPUT_FEEDBACK = "output_feedback"
INTEGRAL_ONLY = "integral_only"
PI = "pi"
LAWS = (FORWARDING, OUTPUT_FEEDBACK, INTEGRAL_ONLY, PI)

_BLOCK = 1024  # rows per block: integrated, scanned and reported together


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
    Y, bad.

    scn is a sim.SimScenario: the kernel reads its plant, artifacts, law,
    PI gains, grid and schedules.  A start x0, xhat0 of shape (n,) gives
    series of shape (n_steps + 1, ...); of shape (k, n), series of shape
    (k, n_steps + 1, ...), one row per start.  XH is stored only for the
    output-feedback law and is None otherwise.  bad is None for a finite
    run, or else first_nonfinite's (step, row, column) for the first step
    after the start at which the state (of any row) is non-finite; the
    series then hold every step up to that step.

    The rank of x0 picks the numpy loop's product calls: np.dot for one
    trajectory, the stacked np.matmul for k, with the same bits per row.

    For one trajectory, out may give the arrays to fill, in the order and
    the shapes returned (XH None unless the law is output feedback).
    on_final(lo, hi), when given, is called for each block of rows lo..hi-1
    that the scan finds finite, in order: (0, 1024), (1024, 2048), ...,
    with hi = n_steps + 1 last.  Those rows are final and never written
    again.  sim.run always passes both, with or without a CSV path;
    sim.run_many passes neither.
    """
    sys, art = scn.sys, scn.artifacts
    dt, n_steps = scn.dt, scn.n_steps
    u_lo, u_hi = sys.u_min, sys.u_max
    observer = scn.law == OUTPUT_FEEDBACK
    feedback = observer or scn.law == FORWARDING
    integral = scn.law == INTEGRAL_ONLY
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
    else:
        reader = lambda v: v.tolist
        # The clamped input goes to a reused 0-d array, which the ufuncs
        # take at less cost than a Python float, with the same bits.
        u_in = np.empty(())
        def clamp(u):
            u_in[()] = u_lo if u < u_lo else (u_hi if u > u_hi else u)
            return u_in
        scalar_shape = (T,)
        mul, col = np.dot, lambda v: v
        pdot = lambda a, b: lambda: float(a.dot(b))

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
    innov, corr = np.empty(lead + (p,)), np.empty(lead + (n,))
    if observer:
        s[..., ixh] = xhat0 - x_ss
        L = np.ascontiguousarray(art.observer.L)
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
    # Each block looks up all of its stage times at once: the count of
    # entries <= t_j indexes values led by the one before the first entry.
    ref_v = np.concatenate([scn.ref_v[:1], scn.ref_v], dtype=np.float64)
    dist_v = np.concatenate([[0.0], scn.dist_v])
    stage_h = np.array([0.0, 0.5 * dt, 0.5 * dt, 1.0 * dt])   # a_j * dt
    stage_h0d = [np.array(h) for h in stage_h]
    stage_b = dt * np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])  # dt b_j

    def numpy_rows(lo, hi, refs, dists):
        """Steps lo..hi-1 of every row, by numpy: the reference loop that
        rk4_rows.c follows call for call."""
        # each step's four values become floats as the loop reaches it: a
        # block's worth of float lists would raise the run's peak memory
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

    # The C loop writes the series by address, so it takes C-contiguous
    # float64 arrays only, as the kernel's own and sim.run's are.
    step_rows = numpy_rows
    if all(a is None or (a.dtype == np.float64 and a.flags.c_contiguous)
           for a in (X, XH, Z, U_raw, U_sat, Err, Y)):
        step_rows = native.rows_function(
            scn.law, single=int(not lead), n=n, p=p, m=len(G), W=W, T=T,
            k=lead[0] if lead else 1, u_lo=float(u_lo), u_hi=float(u_hi),
            u_ss=float(u_ss), kp=float(kp), ki=float(ki), sign_dc=float(sign_dc),
            kp_pi=float(kp_pi), ki_pi=float(ki_pi), h=tuple(stage_h), b=tuple(stage_b),
            G=G, L=L if observer else None, s=s, st=st, ds=ds, K=K, gx=gx, gxh=gxh,
            innov=innov, corr=corr, X=X, XH=XH, Z=Z, U_raw=U_raw, U_sat=U_sat,
            Err=Err, Y=Y) or numpy_rows

    for lo in range(0, T, _BLOCK):
        hi = min(lo + _BLOCK, T)
        tj = (np.arange(lo, hi) * dt)[:, None] + stage_h
        refs = ref_v[np.searchsorted(scn.ref_t, tj, "right")]
        dists = dist_v[np.searchsorted(scn.dist_t, tj, "right")]
        step_rows(lo, hi, refs, dists)
        bad = first_nonfinite(X, XH, Z_rows, max(lo, 1), hi)
        X[..., lo:hi, :] += x_ss
        if observer:
            XH[..., lo:hi, :] += x_ss
        if bad is not None:
            break
        if on_final is not None:
            on_final(lo, hi)

    if lead:
        Z, U_raw, U_sat, Err = (a[..., 0] for a in (Z, U_raw, U_sat, Err))
    return X, XH, Z, U_raw, U_sat, Err, Y, bad


# sim.run_many calls the kernel under this name, and the benchmark's
# tracing wraps each name separately to time single runs and batches.
closed_loop_rk4_batch = closed_loop_rk4
