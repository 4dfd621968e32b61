"""Simulation kernel: determinism across processes, accuracy."""

import dataclasses
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

import hexreg
from hexreg import kernels, native, sim
from hexreg.kernels import closed_loop_rk4

from conftest import (KELVIN, both_loops, child_env, make_scenario, one_start,
                      per_step_nonfinite)

_LANE_SCRIPT = r"""
import dataclasses
import sys
import numpy as np
import hexreg

params = hexreg.HexParams(
    n_cells=8, lam=35.0, rho=1000.0, cp=4186.0,
    V_hot=5.03e-05, V_cold=7.07e-04, q_bar=0.02,
    T_in_hot=286.0, T_in_cold=307.0, u_min=0.0, u_max=0.05,
)
system = hexreg.build_hex(params)
eq = hexreg.invert_reference(system, 26.5 + 273.15)
art = hexreg.forwarding_design(system, eq, k_p=1e-6, k_i=2.6e-5)
scn = hexreg.SimScenario(
    sys=system, artifacts=art, law="forwarding", t_end=50.0, dt=0.05,
    ref_t=np.array([0.0, 20.0]), ref_v=np.array([26.5 + 273.15, 26.0 + 273.15]),
    dist_t=np.array([35.0]), dist_v=np.array([0.5]),
    x0=eq.x_ss + np.linspace(-2.0, 2.0, 16),
    x_hat0=eq.x_ss + np.linspace(-2.0, 2.0, 16),
    kp_pi=0.0, ki_pi=0.0,
)
res = hexreg.run(scn)
many = hexreg.run_many([dataclasses.replace(scn, x0=x0, x_hat0=x0)
                        for x0 in eq.x_ss + np.outer([1.0, -1.0, 0.5, 3.0],
                                                     np.linspace(-2.0, 2.0, 16))])
np.savez(sys.argv[1], x=res.x, u_raw=res.u_raw, e=res.e, V=res.monitors["V"],
         many_x=[r.x for r in many], many_u_sat=[r.u_sat for r in many],
         many_V=[r.monitors["V"] for r in many])
"""


def _run_lane(tmp_path, tag, blas_threads):
    """Run _LANE_SCRIPT in a fresh interpreter, with OPENBLAS_NUM_THREADS
    set to blas_threads or, for None, unset, and load what it saved."""
    out = tmp_path / f"{tag}.npz"
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    subprocess.run([sys.executable, "-c", _LANE_SCRIPT, str(out)],
                   check=True, env=env, cwd=str(tmp_path))
    return np.load(out)


def test_run_bits_repeat_across_processes(tmp_path, hexsys, eq265, fwd_art):
    """Two fresh interpreters and this one give the same bits of a run and
    of a four-start run_many, which runs a chunk of rows per core: one
    interpreter with one BLAS thread, the other with OpenBLAS's own count."""
    scn = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 50.0, 0.05,
                        [[0.0, 26.5 + KELVIN], [20.0, 26.0 + KELVIN]],
                        dists=[[35.0, 0.5]],
                        x0=eq265.x_ss + np.linspace(-2.0, 2.0, 16))
    res = hexreg.run(scn)
    many = hexreg.run_many([dataclasses.replace(scn, x0=x0, x_hat0=x0)
                            for x0 in eq265.x_ss + np.outer([1.0, -1.0, 0.5, 3.0],
                                                            np.linspace(-2.0, 2.0, 16))])
    here = dict(x=res.x, u_raw=res.u_raw, e=res.e, V=res.monitors["V"],
                many_x=[r.x for r in many], many_u_sat=[r.u_sat for r in many],
                many_V=[r.monitors["V"] for r in many])
    for tag, blas_threads in (("first", "1"), ("second", None)):
        lane = _run_lane(tmp_path, tag, blas_threads)
        for name, value in here.items():
            assert lane[name].tobytes() == np.asarray(value).tobytes(), (tag, name)


@pytest.mark.usefixtures("no_thread_left")
@pytest.mark.parametrize("failing", [0, 1, 2])
def test_kernel_joins_every_chunk_before_raising(failing, hexsys, fwd_art, monkeypatch):
    """When one of three chunks raises, the kernel raises that error, with
    its type, only after the other two have ended their block."""
    scn = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 10.0, 0.1,
                        [[0.0, 26.5 + KELVIN]])
    x0 = fwd_art.x_ss + np.linspace(-1.0, 1.0, 6)[:, None]
    made, ended = [], []
    real = native.rows_function

    class ChunkError(Exception):
        pass

    def rows_function(law, **fields):
        rows, index = real(law, **fields), len(made)
        made.append(index)

        def chunk(lo, hi, ref, dist):
            if index == failing:
                raise ChunkError(index)
            time.sleep(0.05)
            rows(lo, hi, ref, dist)
            ended.append(index)
        return chunk

    monkeypatch.setattr(kernels, "_worker_count", lambda k: 3)
    monkeypatch.setattr(native, "rows_function", rows_function)
    with pytest.raises(ChunkError) as err:
        closed_loop_rk4(scn, x0, x0)
    assert err.value.args == (failing,)
    assert sorted(ended) == sorted({0, 1, 2} - {failing})


def test_rk4_matches_matrix_exponential(hexsys, io_art):
    """Constant input makes the plant affine; the flow is then known in
    closed form through the matrix exponential."""
    u = io_art.u_ss
    F = hexsys.frozen(u)
    target = hexreg.pi_map(hexsys, u)
    x0 = target + np.linspace(-3.0, 3.0, 16)
    t_end = 20.0
    scn = make_scenario(hexsys, io_art, hexreg.PI, t_end, 0.05,
                        [[0.0, float(hexsys.C @ target)]], x0=x0,
                        kp_pi=0.0, ki_pi=0.0)
    res = hexreg.run(scn)
    exact = target + sla.expm(F * t_end) @ (x0 - target)
    assert np.max(np.abs(res.x[-1] - exact)) <= 1e-9


def test_rk4_fourth_order_step_halving(hexsys, io_art):
    """Halving dt divides the final-state error by roughly 16."""
    u = io_art.u_ss
    F = hexsys.frozen(u)
    target = hexreg.pi_map(hexsys, u)
    x0 = hexreg.pi_map(hexsys, u + 0.015)
    t_end = 40.0

    def err(dt):
        scn = make_scenario(hexsys, io_art, hexreg.PI, t_end, dt,
                            [[0.0, float(hexsys.C @ target)]], x0=x0,
                            kp_pi=0.0, ki_pi=0.0)
        res = hexreg.run(scn)
        exact = target + sla.expm(F * t_end) @ (x0 - target)
        return np.linalg.norm(res.x[-1] - exact)

    e1, e2 = err(2.0), err(1.0)
    assert 10.0 < e1 / e2 < 22.0


def test_kernel_rejects_nonfinite(hexsys, io_art):
    """A NaN start is non-finite after the first step, as a per-step check
    of the state reports it."""
    x0 = np.full(16, np.nan)
    scn = make_scenario(hexsys, io_art, hexreg.INTEGRAL_ONLY, 1.0, 0.5,
                        [[0.0, 26.5 + KELVIN]], x0=x0)
    with pytest.raises(hexreg.NonFiniteError) as err:
        hexreg.run(scn)
    assert err.value.step == 1
    assert err.value.column == "x_1"


# A certified observer for the toy plant, written out in full so the xhat
# case below does not depend on how observer_design searches: Q = I, with
# A - L D at eigenvalues near -4, -5 and -6.
_TOY_L = np.array([[2.9950220676379886, -0.0009428876541059801],
                   [-0.014725005639627156, -0.004705008375560093],
                   [0.14952800969386623, 0.01568294073756938]])
_TOY_OBSERVER = hexreg.ObserverDesign(L=_TOY_L, Q=np.eye(3), Y=_TOY_L.copy(), nu=20.0,
                                      eps=0.1, mu=0.05, lmi_residual=-7.609162311818393)


def _diverging(hexsys, fwd_art, synthetic_observable, case):
    """A scenario whose state first goes non-finite at a known step."""
    if case == "xhat":
        # RK4 at dt = 0.8 s is stable for this plant but not for its faster
        # observer error dynamics, so only the estimate grows
        sys_ = synthetic_observable
        eq = hexreg.equilibrium_at(sys_, 0.0)
        art = hexreg.forwarding_design(sys_, eq, k_p=0.5, k_i=0.2)
        art.observer = _TOY_OBSERVER
        return make_scenario(sys_, art, hexreg.OUTPUT_FEEDBACK, 320.0, 0.8,
                             [[0.0, eq.y_ss]], x0=eq.x_ss, x_hat0=eq.x_ss + 0.1)
    # An output disturbance of 1e308 from time t_d drives e, and so z, to
    # infinity at step t_d + 2 (dt = 1 s), while u clamps and x stays finite.
    t_end, t_d = (100.0, 98.0) if case == "last" else (1100.0, case - 2.0)
    return make_scenario(hexsys, fwd_art, hexreg.PI, t_end, 1.0,
                         [[0.0, 26.5 + KELVIN]], dists=[[t_d, 1e308]],
                         kp_pi=-0.01, ki_pi=-0.001)


# The non-finite scan runs once per block of 1024 stored steps: cases
# within the first block, one step before a block boundary, at it, just
# after it, on the last step, and one where only the observer estimate
# diverges.
@pytest.mark.parametrize("case, step, column", [
    (63, 63, "z"), (64, 64, "z"), (65, 65, "z"),
    (1023, 1023, "z"), (1024, 1024, "z"), (1025, 1025, "z"), ("last", 100, "z"),
    ("xhat", 292, "xhat_1"),
])
def test_block_scan_reports_per_step_nonfinite(hexsys, fwd_art, synthetic_observable,
                                               case, step, column):
    scn = _diverging(hexsys, fwd_art, synthetic_observable, case)
    assert per_step_nonfinite(scn) == step
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(hexreg.NonFiniteError) as alone:
            both_loops(hexreg.run, scn)
        with pytest.raises(hexreg.NonFiniteError) as batch:
            both_loops(hexreg.run_many, [scn])
    for err, row in ((alone.value, None), (batch.value, 0)):
        assert (err.step, err.t, err.column, err.row) == (step, step * scn.dt, column, row)
        assert np.isfinite(err.u_sat)


def test_on_final_reports_each_block_once_final(hexsys, fwd_art):
    """run takes the monitors of the kernel's 1024-row blocks in order, the
    last one shorter, and each block's rows are already the values
    returned: every trajectory_monitors call reads rows lo..hi-1 of the
    returned x, at their place in it."""
    scn = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 204.8, 0.1,
                        [[0.0, 26.5 + KELVIN], [100.0, 26.0 + KELVIN]],
                        x0=fwd_art.x_ss + 1.0)
    monitors = sim.trajectory_monitors

    def run():
        seen = []

        def record(scn, X, XH, Z):
            seen.append((X.__array_interface__["data"][0], X.copy()))
            return monitors(scn, X, XH, Z)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "trajectory_monitors", record)
            res = hexreg.run(scn)
        base, stride = res.x.__array_interface__["data"][0], res.x.strides[0]
        calls = [((at - base) // stride, (at - base) // stride + len(X)) for at, X in seen]
        return res, calls, [X for _, X in seen]

    res, calls, seen = both_loops(run)
    assert calls == [(0, 1024), (1024, 2048), (2048, 2049)]
    for (lo, hi), X in zip(calls, seen):
        assert X.tobytes() == res.x[lo:hi].tobytes()


def test_kernel_takes_starts_of_shape_k_by_n(hexsys, fwd_art):
    """One start of shape (n,) is refused, not broadcast into n rows, and
    so is a batch of no starts."""
    scn = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 1.0, 0.1,
                        [[0.0, 26.5 + KELVIN]])
    with pytest.raises(ValueError, match=r"starts of shape \(k, n\), got \(16,\)"):
        closed_loop_rk4(scn, scn.x0, scn.x_hat0)
    with pytest.raises(ValueError, match=r"got \(0, 16\), and k >= 1"):
        closed_loop_rk4(scn, scn.x0[None, :][:0], scn.x_hat0[None, :][:0])
    assert one_start(scn, scn.x0, scn.x_hat0)[0].shape == (11, 16)


def test_only_z_diverges(hexsys, fwd_art):
    """The PI integrator runs off to infinity while the clamped input keeps
    the plant finite; the error names z and the clamped input."""
    scn = _diverging(hexsys, fwd_art, None, 65)

    def kernel():
        """The series up to the failed step, which they hold."""
        X, _, Z, _, U_sat, *_ = one_start(scn, scn.x0, scn.x_hat0)
        return X[:66], Z[:66], U_sat[:66]

    X, Z, U_sat = both_loops(kernel)
    assert np.isfinite(X).all() and not np.isfinite(Z[65])
    assert U_sat[64] == hexsys.u_max
    with pytest.raises(hexreg.NonFiniteError) as err:
        both_loops(hexreg.run, scn)
    assert str(err.value) == ("non-finite state at step 65 (t = 65 s): z first, "
                              "last finite u_sat = 0.05")



def _draws(rng, shape):
    """Random doubles spread over twelve decades, both signs."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-6.0, 6.0, shape)


# The kernel's products, with n = 16, p = 1 for the exchanger and n = 3,
# p = 2 for the toy plant: G (3n+3+p, n+1) on the state and L (n, p) on the
# innovation, shared by a batch's rows; P x~ . w of length n, per row; the
# RK4 sum b (4,), shared, on K (4, W).
@pytest.mark.parametrize("left, right, shared", [
    ((52, 17), (17,), True), ((14, 4), (4,), True),
    ((16, 1), (1,), True), ((3, 2), (2,), True),
    ((16,), (16,), False), ((3,), (3,), False),
    ((4,), (4, 18), True), ((4,), (4, 9), True),
])
def test_dot_matches_stacked_matmul_bitwise(left, right, shared):
    """np.dot on one row returns the bits of the stacked np.matmul on
    column operands, which the kernel's numpy oracle and
    steady_state._rowwise and _rowdot call for all rows at once.

    A batch row keeps the bits of the same start taken alone, and the
    stacked sweeps those of an input-by-input loop, only while this holds,
    so a numpy or BLAS change that breaks it fails here by name."""
    rng = np.random.default_rng(20251020)
    groups, rows = 40, 50
    for g in range(groups):
        a = _draws(rng, left if shared else (rows,) + left)
        v = _draws(rng, (rows,) + right)
        one = np.array([np.dot(a if shared else a[i], v[i]) for i in range(rows)])
        if len(left) == 2:   # a matrix times a column per row
            stacked = np.matmul(a, v[..., None])[..., 0]
        elif shared:         # the RK4 weights on each row's stage block
            stacked = np.matmul(a, v)
        else:                # a row times a column per row
            stacked = np.matmul(a[..., None, :], v[..., None])[..., 0, 0]
        bad = np.flatnonzero((one != stacked).reshape(rows, -1).any(axis=1))
        assert bad.size == 0, (
            f"np.dot and the stacked np.matmul differ on {left} x {right} in "
            f"{bad.size} of {rows} rows of draw group {g}: a row's bits now "
            "depend on the rows stacked with it")
