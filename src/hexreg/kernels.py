"""Hot-loop integration kernel: fixed-step RK4 over the stacked closed loop.

closed_loop_rk4 runs the one definition of the control laws, rk4_rows.c,
on a batch of starts, which may be one.  Every law issues
u = u_ss + phi, the plant applies sat(u), and every law integrates
dz/dt = e.

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

closed_loop_rk4 advances k trajectories that differ only in their start,
from starts of shape (k, n); sim.run passes a batch of one.

The loop walks the rows in blocks of _BLOCK steps: rows [0, 1024),
[1024, 2048), ..., the last one shorter.  Each block looks up the
reference and the disturbance at all four stage times of its steps with
one np.searchsorted per schedule, so the loop itself keeps no schedule
state.

A block's steps run in compiled C (native.py, rk4_rows.c), at about
1 us per trajectory-step.  The batch rows are split into one contiguous
chunk per core this process may run on (no more chunks than rows), and
each chunk has its own compiled struct and one-row scratch buffers, over
views of its rows of the state and series.  Per block, the first chunk
runs on the calling thread and each other chunk on a thread of its own,
since ctypes releases the GIL; the call joins them all before the block
is scanned.  A batch of one, or a process on one core, is a single chunk
and starts no thread.  Per stage the loop makes the gemv and dot calls
through numpy's own BLAS that the stacked np.matmul makes for each batch
row, so each row's bits depend neither on k, nor on the other rows, nor
on the chunk that holds it.  The tests hold it to a numpy loop of the
same calls (tests/numpy_loop.py).  A process that cannot build or load
the compiled loop gets CompiledLoopError, naming why, from its first
kernel call; there is no other loop.

A non-finite entry of the state stays non-finite under s += ds, and the
constant ones never change, so the state is finite at a step exactly when
the rows stored for it are.  The loop therefore checks no state per step:
it scans the rows of each block once it is integrated.  A diverging run
integrates up to one block past the failure and then reports the same
first non-finite step as a per-step check would, with the batch row and
the column that went first, so nothing scans the failed step again.  The
scan also turns the block's rows from deviations into absolute states.
"""

from __future__ import annotations

import os
import threading

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

_BLOCK = 1024  # rows per block: integrated, scanned and monitored together


def _worker_count(k):
    """The number of chunks the kernel splits k batch rows into: one per
    core this process may run on, and at most k.  Where the OS reports no
    affinity (macOS, Windows), every core counts."""
    if k == 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(k, len(os.sched_getaffinity(0)))
    return min(k, os.cpu_count() or 1)


def _run_chunks(chunks, lo, hi, refs, dists):
    """Run steps lo..hi-1 of every chunk: the first on this thread, each
    other one on a thread of its own.  Returns, or raises the error of the
    lowest chunk that raised one, only once every thread has ended."""
    errors = [None] * len(chunks)

    def work(i):
        try:
            chunks[i](lo, hi, refs, dists)
        except BaseException as exc:  # raised on the calling thread below
            errors[i] = exc

    threads = [threading.Thread(target=work, args=(i,)) for i in range(1, len(chunks))]
    for thread in threads:
        thread.start()
    try:
        chunks[0](lo, hi, refs, dists)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def first_nonfinite(X, XH, Z, lo, hi):
    """The first non-finite entry stored for steps lo..hi-1, or None.

    X, XH (or None) and Z are the kernel's (k, T, ...) series.  Returns
    (step, row, column): the earliest step, then the lowest batch row at
    that step, then the first of that row's columns in the order x_i,
    xhat_i, z, named as in the CSV.
    """
    parts = [X[:, lo:hi], Z[:, lo:hi, None]]
    if XH is not None:
        parts.insert(1, XH[:, lo:hi])
    if all(np.isfinite(part).all() for part in parts):
        return None
    # (step, row, column) in C order, so the flat argmax is the first hit
    bad = ~np.isfinite(np.concatenate(parts, axis=-1)).swapaxes(0, 1)
    step, row, col = np.unravel_index(np.argmax(bad), bad.shape)
    n = X.shape[-1]
    if col < n:
        name = f"x_{col + 1}"
    elif XH is not None and col < 2 * n:
        name = f"xhat_{col - n + 1}"
    else:
        name = "z"
    return lo + int(step), int(row), name


def closed_loop_rk4(scn, x0, xhat0, z0=0.0):
    """Classic RK4 of the scenario scn; returns X, XH, Z, U_raw, U_sat, Err,
    Y, bad.

    scn is a sim.SimScenario: the kernel reads its plant, artifacts, law,
    PI gains, grid and schedules.  The starts x0, xhat0 of shape (k, n)
    give series of shape (k, n_steps + 1, ...), one row per start.  XH is
    stored only for the output-feedback law and is None otherwise.  bad is
    None for a finite run, or else first_nonfinite's (step, row, column)
    for the first step after the start at which the state of any row is
    non-finite; the series then hold every step up to that step.

    Raises CompiledLoopError when this process cannot run the compiled
    step loop.
    """
    sys, art = scn.sys, scn.artifacts
    dt, n_steps = scn.dt, scn.n_steps
    observer = scn.law == OUTPUT_FEEDBACK
    x_ss, g_ss, M = art.x_ss, sys.input_gain(art.x_ss), art.M[None, :]
    n, p = sys.n_states, sys.n_outputs
    # G @ [x - x_ss, 1] yields A x + E, w = B x + b, P (x - x_ss),
    # M (x - x_ss), M w, C x and D x.  Reordering its rows changes the bits
    # BLAS returns, so the order stays as written.
    G = np.ascontiguousarray(np.column_stack([
        np.vstack([sys.A, sys.B, art.P, M, M @ sys.B, sys.C[None, :], sys.D]),
        np.concatenate([sys.A @ x_ss + sys.E, g_ss, np.zeros(n + 1), M @ g_ss,
                        [sys.C @ x_ss], sys.D @ x_ss])]))
    T = n_steps + 1
    if x0.ndim != 2 or not len(x0):
        raise ValueError(f"the kernel takes starts of shape (k, n), got {x0.shape}, "
                         "and k >= 1")
    k = len(x0)

    # The state is [x - x_ss, 1, x_hat - x_ss, 1, z], the estimate block
    # only for the output-feedback law.  The ones carry the affine terms
    # through G, and a deviation is an exact zero at the anchor.
    W = 2 * n + 3 if observer else n + 2
    s = np.zeros((k, W))
    s[:, :n] = x0 - x_ss
    s[:, n :: n + 1] = 1.0
    s[:, -1] = z0
    if observer:
        s[:, n + 1 : 2 * n + 1] = xhat0 - x_ss

    X = np.empty((k, T, n))
    XH = np.empty((k, T, n)) if observer else None
    Y = np.empty((k, T, p))
    Z, U_raw, U_sat, Err = (np.empty((k, T)) for _ in range(4))

    # Stage j is evaluated at t + a_j dt with a = (0, 1/2, 1/2, 1).  The
    # reference is the last entry whose time is <= t_j (the first entry
    # before that), the disturbance likewise (0 before its first entry).
    # Each block looks up all of its stage times at once: the count of
    # entries <= t_j indexes values led by the one before the first entry.
    ref_v = np.concatenate([scn.ref_v[:1], scn.ref_v], dtype=np.float64)
    dist_v = np.concatenate([[0.0], scn.dist_v])
    stage_h = np.array([0.0, 0.5 * dt, 0.5 * dt, 1.0 * dt])   # a_j * dt
    stage_b = dt * np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])  # dt b_j

    # Each chunk of rows gets its own struct over views of those rows,
    # which stay C-contiguous, and its own scratch buffers, one row wide:
    # each of its rows reuses them.  K starts at zero, and the loop never
    # writes its entries under the constant ones.
    w = _worker_count(k)
    chunks = [native.rows_function(
        scn.law, n=n, p=p, m=len(G), W=W, T=T, k=rows.stop - rows.start,
        u_lo=float(sys.u_min), u_hi=float(sys.u_max),
        u_ss=float(art.u_ss), kp=float(art.k_p), ki=float(art.k_i),
        sign_dc=float(art.sign_dc), kp_pi=float(scn.kp_pi), ki_pi=float(scn.ki_pi),
        h=tuple(stage_h), b=tuple(stage_b), G=G,
        L=np.ascontiguousarray(art.observer.L) if observer else None,
        s=s[rows], st=np.empty(W), ds=np.empty(W), K=np.zeros((4, W)), gx=np.empty(len(G)),
        gxh=np.empty(len(G)), innov=np.empty(p), corr=np.empty(n),
        X=X[rows], XH=XH[rows] if observer else None, Z=Z[rows], U_raw=U_raw[rows],
        U_sat=U_sat[rows], Err=Err[rows], Y=Y[rows])
        for rows in (slice(k * i // w, k * (i + 1) // w) for i in range(w))]

    for lo in range(0, T, _BLOCK):
        hi = min(lo + _BLOCK, T)
        tj = (np.arange(lo, hi) * dt)[:, None] + stage_h
        refs = ref_v[np.searchsorted(scn.ref_t, tj, "right")]
        dists = dist_v[np.searchsorted(scn.dist_t, tj, "right")]
        _run_chunks(chunks, lo, hi, refs, dists)
        bad = first_nonfinite(X, XH, Z, max(lo, 1), hi)
        X[:, lo:hi] += x_ss
        if observer:
            XH[:, lo:hi] += x_ss
        if bad is not None:
            break

    return X, XH, Z, U_raw, U_sat, Err, Y, bad


# sim.run calls the kernel as closed_loop_rk4 and sim.run_many under this
# name, and the benchmark's tracing wraps each name separately to time
# single runs and batches.
closed_loop_rk4_batch = closed_loop_rk4
