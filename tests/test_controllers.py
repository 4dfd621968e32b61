"""The kernel's control laws against a second, direct implementation.

kernels.closed_loop_rk4 is the one definition of the laws that runs.  Each
test takes one step of it (t_end = dt) on a scenario, and
compares the input it issued and the state it reached with the paper's
formulas and one RK4 step of the plant, observer and integrator written
out below.  Every kernel call runs on the compiled step loop and on the
numpy oracle, which must agree bit for bit (conftest.both_loops).
"""

from dataclasses import replace

import numpy as np
import pytest

import hexreg
from hexreg.kernels import closed_loop_rk4

from conftest import both_loops, make_scenario

DT = 0.05  # the step of the shipped experiments; at 0.5 s the forwarding
#           step already amplifies a 1-ulp change of x0 to 2e-12 in X[1]


@pytest.fixture(scope="module")
def of_art(synthetic_observable, synthetic_observer):
    """Forwarding artifacts on the toy plant with synthetic_observer, whose
    L is zero: the output-feedback steps run with no innovation
    correction."""
    eq = hexreg.equilibrium_at(synthetic_observable, 0.0)
    art = hexreg.forwarding_design(synthetic_observable, eq, k_p=0.7, k_i=0.3)
    art.observer = synthetic_observer
    return art


def scenario(sys, art, law, x0, x_hat0=None, refs=None, dists=(), **pi):
    """A one-step scenario.  By default the reference steps at dt/2 and the
    disturbance enters at dt/2 and steps at dt, so the four RK4 stages see
    three different schedule values."""
    if refs is None:
        r0 = float(sys.C @ art.x_ss)
        refs = [[0.0, r0], [0.5 * DT, r0 + 0.25]]
        dists = [[0.5 * DT, 0.1], [DT, -0.3]]
    return make_scenario(sys, art, law, DT, DT, refs, dists, x0=x0,
                         x_hat0=x_hat0, **pi)


def kernel_step(scn, z0):
    """(X, XH, Z, U_raw, Err) of one kernel step from (x0, x_hat0, z0)."""
    X, XH, Z, U_raw, _, Err, _, bad = both_loops(closed_loop_rk4, scn, scn.x0,
                                                 scn.x_hat0, z0)
    assert bad is None
    return X, XH, Z, U_raw, Err


def held(times, vals, t, before):
    """Value of a piecewise-constant schedule at t."""
    out = before
    for ti, vi in zip(times, vals):
        if ti <= t:
            out = vi
    return out


def phi(scn, x, x_hat, z, e):
    """The law increment u - u_ss, from the formulas in the kernel's
    docstring."""
    sys, art = scn.sys, scn.artifacts
    if scn.law in (hexreg.FORWARDING, hexreg.OUTPUT_FEEDBACK):
        xt = (x if scn.law == hexreg.FORWARDING else x_hat) - art.x_ss
        g_ss = sys.B @ art.x_ss + sys.b
        w = sys.B @ xt + g_ss
        return -float(w @ (art.k_p * (art.P @ xt)
                           - art.k_i * (z - float(art.M @ xt)) * art.M))
    if scn.law == hexreg.INTEGRAL_ONLY:
        return art.sign_dc * art.k_i * z
    return -(scn.kp_pi * e + scn.ki_pi * z)


def rhs(scn, s, t, error_form=False):
    """d/dt of the stacked state [x, x_hat, z] and the increment phi.

    The estimate moves only under output feedback, by
    A xh + (B xh + b) sat(u) + L (y - D xh) + E with y = D x, or, with
    error_form, by the plant's own derivative plus
    (A + sat(u) B - L D)(xh - x).
    """
    sys, art = scn.sys, scn.artifacts
    n = sys.n_states
    x, x_hat, z = s[:n], s[n:2 * n], s[2 * n]
    r = held(scn.ref_t, scn.ref_v, t, scn.ref_v[0])
    d = held(scn.dist_t, scn.dist_v, t, 0.0)
    e = float(sys.C @ x) - r + d
    p = phi(scn, x, x_hat, z, e)
    us = min(max(art.u_ss + p, sys.u_min), sys.u_max)
    dx = sys.A @ x + (sys.B @ x + sys.b) * us + sys.E
    dxh = np.zeros(n)
    if scn.law == hexreg.OUTPUT_FEEDBACK:
        L = art.observer.L
        if error_form:
            dxh = dx + (sys.A + us * sys.B - L @ sys.D) @ (x_hat - x)
        else:
            dxh = (sys.A @ x_hat + (sys.B @ x_hat + sys.b) * us
                   + L @ (sys.D @ x - sys.D @ x_hat) + sys.E)
    return np.concatenate([dx, dxh, [e]]), p


def rk4_from(scn, s, t, error_form=False):
    """phi at t and the stacked state s after one classic RK4 step from t."""
    k1, p0 = rhs(scn, s, t, error_form)
    k2, _ = rhs(scn, s + 0.5 * DT * k1, t + 0.5 * DT, error_form)
    k3, _ = rhs(scn, s + 0.5 * DT * k2, t + 0.5 * DT, error_form)
    k4, _ = rhs(scn, s + DT * k3, t + DT, error_form)
    return p0, s + DT / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step(scn, z0, error_form=False):
    """phi at t = 0 and the stacked state after one classic RK4 step."""
    s = np.concatenate([scn.x0, scn.x_hat0, [z0]])
    return rk4_from(scn, s, 0.0, error_form)


def assert_step_matches(scn, z0):
    X, XH, Z, U_raw, _ = kernel_step(scn, z0)
    p0, s1 = rk4_step(scn, z0)
    n = scn.sys.n_states
    assert U_raw[0] - scn.artifacts.u_ss == pytest.approx(p0, rel=1e-12)
    assert X[1] == pytest.approx(s1[:n], rel=1e-12)
    if scn.law == hexreg.OUTPUT_FEEDBACK:
        assert XH[1] == pytest.approx(s1[n:2 * n], rel=1e-12)
    else:
        assert XH is None
    assert Z[1] == pytest.approx(s1[2 * n], rel=1e-12)
    return U_raw


# -- forwarding -------------------------------------------------------------


def test_forwarding_phi_zero_at_equilibrium(hexsys, fwd_art):
    scn = scenario(hexsys, fwd_art, hexreg.FORWARDING, fwd_art.x_ss)
    U_raw = kernel_step(scn, 0.0)[3]
    assert U_raw[0] == fwd_art.u_ss


def test_forwarding_phi_pure_integral_offset(hexsys, fwd_art):
    # with x at the anchor the quadratic term drops and only the
    # integrator couples through M g_ss
    scn = scenario(hexsys, fwd_art, hexreg.FORWARDING, fwd_art.x_ss)
    U_raw = kernel_step(scn, 2.5)[3]
    g_ss = hexsys.input_gain(fwd_art.x_ss)
    expected = fwd_art.k_i * 2.5 * float(fwd_art.M @ g_ss)
    assert U_raw[0] - fwd_art.u_ss == pytest.approx(expected, rel=1e-12)


def test_forwarding_phi_double_implementation(hexsys, fwd_art):
    """Random starts: millikelvin offsets keep the input inside its
    bounds, kelvin offsets saturate it both ways."""
    rng = np.random.default_rng(42)
    saturated = set()
    for spread in (1e-3, 1e-3, 1e-3, 5.0, 5.0, 5.0):
        x0 = fwd_art.x_ss + rng.normal(0.0, spread, 16)
        scn = scenario(hexsys, fwd_art, hexreg.FORWARDING, x0,
                       x_hat0=x0 + rng.normal(0.0, 1.0, 16))
        u0 = assert_step_matches(scn, float(rng.normal(0.0, 0.1)))[0]
        saturated.add(bool(u0 < hexsys.u_min) - bool(u0 > hexsys.u_max))
    assert saturated == {-1, 0, 1}


# -- output feedback ---------------------------------------------------------


def test_output_feedback_step_matches_direct_implementation(
        synthetic_observable, of_art):
    sys = synthetic_observable
    rng = np.random.default_rng(1)
    for _ in range(5):
        x0 = of_art.x_ss + rng.normal(0.0, 0.1, 3)
        scn = scenario(sys, of_art, hexreg.OUTPUT_FEEDBACK, x0,
                       x_hat0=x0 + rng.normal(0.0, 0.1, 3))
        assert_step_matches(scn, float(rng.normal(0.0, 0.1)))


def test_output_feedback_phi_matches_on_exact_estimate(
        synthetic_observable, of_art):
    sys = synthetic_observable
    rng = np.random.default_rng(1)
    for _ in range(5):
        x0 = of_art.x_ss + rng.normal(0.0, 1.0, 3)
        z0 = float(rng.normal())
        of = kernel_step(scenario(sys, of_art, hexreg.OUTPUT_FEEDBACK, x0,
                                  x_hat0=x0.copy()), z0)
        fw = kernel_step(scenario(sys, of_art, hexreg.FORWARDING, x0), z0)
        assert of[3][0] == fw[3][0]
        assert np.array_equal(of[0], fw[0])


def test_output_feedback_phi_zero_at_anchor(synthetic_observable, of_art):
    scn = scenario(synthetic_observable, of_art, hexreg.OUTPUT_FEEDBACK,
                   of_art.x_ss, x_hat0=of_art.x_ss.copy())
    U_raw = kernel_step(scn, 0.0)[3]
    assert U_raw[0] == of_art.u_ss


def test_observer_step_zero_innovation(synthetic_observable, of_art):
    """When y = D x_hat the correction vanishes and the estimate follows
    the plant model."""
    rng = np.random.default_rng(3)
    x0 = of_art.x_ss + rng.normal(0.0, 1.0, 3)
    scn = scenario(synthetic_observable, of_art, hexreg.OUTPUT_FEEDBACK, x0,
                   x_hat0=x0.copy())
    X, XH = kernel_step(scn, 0.4)[:2]
    assert np.array_equal(XH, X)


def test_observer_error_dynamics_identity(synthetic_observable, of_art):
    """The estimate moves as if xhat_dot - x_dot = (A + sat(u) B - L D)(xhat - x)."""
    rng = np.random.default_rng(9)
    n = synthetic_observable.n_states
    for spread in (0.01, 1.0, 30.0):  # the first and last saturate the input
        x0 = rng.normal(0.0, 2.0, 3)
        scn = scenario(synthetic_observable, of_art, hexreg.OUTPUT_FEEDBACK,
                       x0, x_hat0=x0 + rng.normal(0.0, spread, 3))
        XH = kernel_step(scn, 0.2)[1]
        _, s1 = rk4_step(scn, 0.2, error_form=True)
        assert XH[1] == pytest.approx(s1[n:2 * n], rel=1e-12)


# -- integral only -----------------------------------------------------------


def test_integral_only_phi_zero(hexsys, io_art):
    x0 = io_art.x_ss + np.random.default_rng(4).normal(0.0, 1.0, 16)
    scn = scenario(hexsys, io_art, hexreg.INTEGRAL_ONLY, x0)
    assert kernel_step(scn, 0.0)[3][0] == io_art.u_ss


def test_integral_only_phi_formula(hexsys, io_art):
    # phi = sign_dc * k_i * z; on this plant sign_dc = +1, which drives u
    # upward when the output runs high (the steady output slope in u is
    # negative; that is the contracting direction); the copy with the sign
    # flipped checks that the kernel reads it
    assert io_art.sign_dc == 1.0
    rng = np.random.default_rng(5)
    span = hexsys.u_max - hexsys.u_min
    for art in (io_art, replace(io_art, sign_dc=-1.0)):
        for sign in (1.0, -1.0, 1.0):
            x0 = io_art.x_ss + rng.normal(0.0, 1.0, 16)
            z0 = sign * rng.uniform(0.05, 0.2) * span / io_art.k_i
            assert_step_matches(scenario(hexsys, art, hexreg.INTEGRAL_ONLY, x0), z0)


# -- pi ----------------------------------------------------------------------


def test_pi_phi(hexsys, fwd_art):
    rng = np.random.default_rng(6)
    for spread in (0.05, 0.05, 2.0):
        x0 = fwd_art.x_ss + rng.normal(0.0, spread, 16)
        scn = scenario(hexsys, fwd_art, hexreg.PI, x0, kp_pi=-0.01, ki_pi=-0.001)
        assert_step_matches(scn, float(rng.normal(0.0, 3.0)))


def test_integrator_rhs(hexsys, fwd_art):
    """dz/dt = e: at rest with a constant offset d, z grows by dt * d."""
    scn = scenario(hexsys, fwd_art, hexreg.PI, fwd_art.x_ss,
                   refs=[[0.0, float(hexsys.C @ fwd_art.x_ss)]],
                   dists=[[0.0, 0.75]], kp_pi=0.0, ki_pi=0.0)
    _, _, Z, _, Err = kernel_step(scn, 1.5)
    assert Err[0] == pytest.approx(0.75, rel=1e-12)
    assert Z[1] == pytest.approx(1.5 + DT * 0.75, rel=1e-12)


# -- many steps --------------------------------------------------------------


STEPS = 40


@pytest.mark.parametrize("law", [hexreg.FORWARDING, hexreg.OUTPUT_FEEDBACK,
                                 hexreg.INTEGRAL_ONLY, hexreg.PI])
def test_kernel_matches_chained_rk4_steps(law, hexsys, fwd_art, io_art,
                                          synthetic_observable, of_art):
    """STEPS kernel steps against rk4_from chained STEPS times, through a
    reference step, a disturbance step and its release, from starts that
    saturate the input both ways and not at all.  This covers the kernel's
    deviation coordinates and its one-product RK4 sum beyond one step."""
    rng = np.random.default_rng(12)
    toy = law == hexreg.OUTPUT_FEEDBACK
    sys = synthetic_observable if toy else hexsys
    art = {hexreg.OUTPUT_FEEDBACK: of_art, hexreg.INTEGRAL_ONLY: io_art}.get(law, fwd_art)
    n = sys.n_states
    dr, dd = (0.25, 0.5) if toy else (2.0, 8.0)
    r0 = float(sys.C @ art.x_ss)
    gains = dict(kp_pi=-0.01, ki_pi=-0.001) if law == hexreg.PI else {}
    near = lambda spread: art.x_ss + rng.normal(0.0, spread, n)
    if law == hexreg.FORWARDING:
        starts = [(near(s), None, float(rng.normal(0.0, 0.1))) for s in (1e-3, 5.0, 5.0, 5.0)]
    elif toy:
        starts = [(x0, x0 + rng.normal(0.0, s, n), float(rng.normal(0.0, 0.1)))
                  for x0, s in ((near(2.0), 0.01), (near(2.0), 1.0), (near(2.0), 30.0))]
    elif law == hexreg.INTEGRAL_ONLY:
        span = sys.u_max - sys.u_min
        starts = [(near(1.0), None, c * span / art.k_i) for c in (0.0, 1.0, -1.0)]
    else:
        starts = [(art.x_ss, None, 0.0)]
    saturated = set()
    for x0, x_hat0, z0 in starts:
        scn = make_scenario(sys, art, law, STEPS * DT, DT,
                            [[0.0, r0], [10.3 * DT, r0 + dr]],
                            dists=[[20.6 * DT, dd], [30.2 * DT, 0.0]],
                            x0=x0, x_hat0=x_hat0, **gains)
        X, XH, Z, U_raw, _, _, _, bad = both_loops(closed_loop_rk4, scn, scn.x0,
                                                   scn.x_hat0, z0)
        assert bad is None
        s = np.concatenate([scn.x0, scn.x_hat0, [z0]])
        states, u_raw = [], []
        for step in range(STEPS + 1):
            p, s_next = rk4_from(scn, s, step * DT)
            states.append(s)
            u_raw.append(art.u_ss + p)
            s = s_next
        states = np.array(states)
        assert X == pytest.approx(states[:, :n], rel=1e-10)
        if toy:
            assert XH == pytest.approx(states[:, n:2 * n], rel=1e-10)
        else:
            assert XH is None
        assert Z == pytest.approx(states[:, 2 * n], rel=1e-10)
        assert U_raw == pytest.approx(np.array(u_raw), rel=1e-10)
        saturated |= set((U_raw < sys.u_min).astype(int) - (U_raw > sys.u_max))
    assert saturated == {-1, 0, 1}
