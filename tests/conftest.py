"""Shared fixtures: the reference heat exchanger and designed artifacts.

Everything heavy is session-scoped so the design work (Lyapunov solves,
grid suprema) runs once for the whole suite.
"""

import dataclasses
import os
import threading
from pathlib import Path

import numpy as np
import pytest

import hexreg
from hexreg import native
from hexreg.kernels import closed_loop_rk4

import numpy_loop

KELVIN = 273.15

# Physical data sheet of the reference rig (SI units, temperatures in K).
TABLE1 = dict(
    n_cells=8,
    lam=35.0,
    rho=1000.0,
    cp=4186.0,
    V_hot=5.03e-05,
    V_cold=7.07e-04,
    q_bar=0.02,
    T_in_hot=286.0,
    T_in_cold=307.0,
    u_min=0.0,
    u_max=0.05,
)


def child_env() -> dict:
    """The environment for a child interpreter that imports this hexreg.

    A child may run in another directory, where a relative PYTHONPATH
    entry (such as src) no longer resolves; the imported package's root
    goes first."""
    env = dict(os.environ)
    pkg_root = str(Path(hexreg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session", autouse=True)
def build_cache(tmp_path_factory):
    """The compiled step loop's build cache for the whole session, child
    processes included: a session directory, so the suite compiles once
    and writes no build outside it."""
    with pytest.MonkeyPatch.context() as mp:
        path = tmp_path_factory.mktemp("cache")
        mp.setenv("XDG_CACHE_HOME", str(path))
        native._library.cache_clear()
        yield path
    native._library.cache_clear()


def _bits(value):
    """value with every array, at any depth, as its dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_bits(item) for item in value]
    return value


def both_loops(fn, *args, **kwargs):
    """fn(*args, **kwargs) with the kernel on its compiled step loop, then
    on the numpy oracle (numpy_loop.rows_function).  Asserts that both
    return the same bytes, or raise the same error with the same
    attributes, and returns (or raises) what the compiled loop gave."""
    outcomes = []
    for loop in ("compiled", "numpy"):
        with pytest.MonkeyPatch.context() as mp:
            if loop == "numpy":
                mp.setattr(native, "rows_function", numpy_loop.rows_function)
            try:
                outcomes.append((fn(*args, **kwargs), None))
            except Exception as err:  # compared below, then raised
                outcomes.append((None, err))
    (value, err), (np_value, np_err) = outcomes
    if err is not None or np_err is not None:
        assert (type(err), str(err), _bits(vars(err))) == \
            (type(np_err), str(np_err), _bits(vars(np_err)))
        raise err
    assert _bits(value) == _bits(np_value)
    return value


@pytest.fixture
def no_child_left():
    """After the test, this process has no child, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def no_thread_left():
    """After the test, this process runs the threads it ran before it."""
    before = threading.enumerate()
    yield
    assert threading.enumerate() == before


@pytest.fixture(scope="session")
def table1():
    return hexreg.HexParams(**TABLE1)


@pytest.fixture(scope="session")
def hexsys(table1):
    return hexreg.build_hex(table1)


@pytest.fixture(scope="session")
def hexsys5(hexsys):
    """Same plant with five block-averaged sensors instead of one."""
    D = hexreg.block_average_sensors(hexsys.n_states, 5)
    return hexreg.BilinearSystem(
        A=hexsys.A, B=hexsys.B, b=hexsys.b, E=hexsys.E, C=hexsys.C, D=D,
        u_min=hexsys.u_min, u_max=hexsys.u_max,
    )


@pytest.fixture(scope="session")
def eq265(hexsys):
    return hexreg.invert_reference(hexsys, 26.5 + KELVIN)


@pytest.fixture(scope="session")
def eq02(hexsys):
    return hexreg.equilibrium_at(hexsys, 0.02)


@pytest.fixture(scope="session")
def fwd_art(hexsys, eq265):
    return hexreg.forwarding_design(hexsys, eq265, k_p=1e-6, k_i=2.6e-5)


@pytest.fixture(scope="session")
def io_art(hexsys, eq265, table1):
    return hexreg.integral_only_design(hexsys, eq265, hex_params=table1)


@pytest.fixture(scope="session")
def synthetic_observable():
    """Small stable plant with weak input coupling and two sensors.

    Unlike the heat exchanger, its open-loop decay rates dominate the
    input-coupling bound mu = ||B||*u_max, so the observer inequality
    has feasible points and the designer must find one.
    """
    A = np.array([[-3.0, 0.2, 0.0], [0.0, -4.0, 0.3], [0.1, 0.0, -5.0]])
    B = np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return hexreg.BilinearSystem(
        A=A,
        B=B,
        b=np.array([0.1, 0.0, 0.0]),
        E=np.array([1.0, 0.5, 0.2]),
        C=np.array([0.0, 0.0, 1.0]),
        D=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
        u_min=-0.1,
        u_max=0.1,
    )


@pytest.fixture(scope="session")
def synthetic_observer(synthetic_observable):
    """observer_design on the toy plant.  Its gain L is exactly zero: the
    toy's own decay meets the observer inequality with no output
    injection.  So a run with it integrates the estimate with no
    innovation correction; tests/test_native.py's observers set a nonzero
    L to run that term."""
    return hexreg.observer_design(synthetic_observable)


def plant_rhs(sys, x, u_raw):
    """The plant's state derivative with the saturation applied inside,
    dx/dt = A x + (B x + b) sat(u_raw) + E, written out apart from the
    kernel as a reference for the tests."""
    x = np.asarray(x, dtype=np.float64)
    us = float(np.clip(u_raw, sys.u_min, sys.u_max))
    return sys.A @ x + (sys.B @ x + sys.b) * us + sys.E


def make_scenario(sys, art, law, t_end, dt, refs, dists=(), x0=None,
                  x_hat0=None, kp_pi=0.0, ki_pi=0.0):
    """Build a SimScenario from kelvin-valued schedules without JSON.

    x0 defaults to the artifacts' x_ss and x_hat0 to x0, as
    scenario_from_dict does."""
    refs = np.asarray(refs, dtype=np.float64).reshape(-1, 2)
    dists = np.asarray(dists, dtype=np.float64).reshape(-1, 2)
    x0 = np.array(art.x_ss if x0 is None else x0, dtype=np.float64)
    return hexreg.SimScenario(
        sys=sys, artifacts=art, law=law, t_end=float(t_end), dt=float(dt),
        ref_t=refs[:, 0].copy(), ref_v=refs[:, 1].copy(),
        dist_t=dists[:, 0].copy(), dist_v=dists[:, 1].copy(),
        x0=x0, x_hat0=np.array(x0 if x_hat0 is None else x_hat0, dtype=np.float64),
        kp_pi=float(kp_pi), ki_pi=float(ki_pi),
    )


def one_start(scn, x0, x_hat0, z0=0.0):
    """closed_loop_rk4 on the one start (x0, x_hat0, z0): row 0 of each
    series, then bad."""
    *series, bad = closed_loop_rk4(scn, x0[None], x_hat0[None], z0)
    return (*(None if s is None else s[0] for s in series), bad)


def per_step_nonfinite(scn):
    """The first step after the start at which the state of scn is
    non-finite, found by checking the kernel's stored x, x_hat and z one
    step at a time, as a per-step np.isfinite on the state would; or -1."""
    X, XH, Z, *_ = one_start(scn, scn.x0, scn.x_hat0)
    for step in range(1, len(Z)):
        rows = (X[step], Z[step], XH[step] if XH is not None else 0.0)
        if not all(np.isfinite(row).all() for row in rows):
            return step
    return -1
