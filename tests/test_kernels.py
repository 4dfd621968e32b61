"""Simulation kernel: determinism across processes, accuracy."""

import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla

import hexreg

from conftest import KELVIN, child_env, make_scenario

_LANE_SCRIPT = r"""
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
np.savez(sys.argv[1], x=res.x, u_raw=res.u_raw, e=res.e, V=res.monitors["V"])
"""


def _run_lane(tmp_path, tag):
    """Run _LANE_SCRIPT in a fresh interpreter and load what it saved."""
    out = tmp_path / f"{tag}.npz"
    subprocess.run([sys.executable, "-c", _LANE_SCRIPT, str(out)],
                   check=True, env=child_env(), cwd=str(tmp_path))
    return np.load(out)


def test_run_bits_repeat_across_processes(tmp_path, hexsys, eq265, fwd_art):
    """Two fresh interpreters and this one give the same trajectory bits."""
    scn = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 50.0, 0.05,
                        [[0.0, 26.5 + KELVIN], [20.0, 26.0 + KELVIN]],
                        dists=[[35.0, 0.5]],
                        x0=eq265.x_ss + np.linspace(-2.0, 2.0, 16))
    res = hexreg.run(scn)
    here = dict(x=res.x, u_raw=res.u_raw, e=res.e, V=res.monitors["V"])
    for tag in ("first", "second"):
        lane = _run_lane(tmp_path, tag)
        for name, value in here.items():
            assert lane[name].tobytes() == value.tobytes(), (tag, name)


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
    x0 = np.full(16, np.nan)
    scn = make_scenario(hexsys, io_art, hexreg.INTEGRAL_ONLY, 1.0, 0.5,
                        [[0.0, 26.5 + KELVIN]], x0=x0)
    with pytest.raises(hexreg.NonFiniteError):
        hexreg.run(scn)
