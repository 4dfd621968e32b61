"""Assumption checks, monitors, and the linearized gain sweep."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hexreg
from hexreg import analysis, kernels, steady_state

from conftest import KELVIN, make_scenario


def test_saturation_gap_property():
    """s (sat(b - s) - b) <= 0 whenever b is admissible.

    The three branches: interior gives -s^2; clamping high means b - s
    exceeded u_hi, so sat - b <= 0 while s < 0; clamping low mirrors it.
    """
    rng = np.random.default_rng(123)
    s = rng.normal(0.0, 2.0, 2000)
    b = rng.uniform(-1.0, 1.0, 2000)
    gap = analysis.saturation_gap(s, b, -1.0, 1.0)
    assert np.all(gap <= 0.0)
    # interior branch exactly -s^2
    small = np.abs(s) < 1e-3
    assert np.allclose(gap[small], -s[small] ** 2)
    assert analysis.saturation_gap(0.0, 0.3, -1.0, 1.0) == 0.0


# wide enough for every rounding case, narrow enough that s (sat - b) cannot
# overflow to -inf, which would hold the property but warn
_finite = st.floats(-1e150, 1e150)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(s=_finite, bounds=st.lists(_finite, min_size=3, max_size=3).map(sorted))
def test_saturation_gap_nonpositive_on_admissible_inputs(s, bounds):
    """saturation_gap(s, b, lo, hi) <= 0 for every b in [lo, hi] and every
    s, in floating point: the rounding of b - s never flips the sign."""
    lo, b, hi = bounds
    assert analysis.saturation_gap(s, b, lo, hi) <= 0.0


def test_spectral_abscissa():
    assert analysis.spectral_abscissa(np.diag([-3.0, -1.0])) == -1.0
    M = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +-i
    assert analysis.spectral_abscissa(M) == pytest.approx(0.0, abs=1e-12)


def test_max_monotone_violation():
    assert analysis.max_monotone_violation(np.array([3.0, 2.0, 1.0])) < 0.0
    vals = np.array([1.0, 1.0 + 2e-8, 1.0])
    assert analysis.max_monotone_violation(vals) == pytest.approx(1e-8)
    assert analysis.max_monotone_violation(np.array([5.0])) == 0.0


# -- assumption 1 -----------------------------------------------------------


def a1_per_point(sys, grid):
    """The sampled assumption-1 fields one input at a time: eigvals,
    pi_map, solve."""
    worst, gains = -np.inf, []
    for u in np.linspace(sys.u_min, sys.u_max, grid):
        F = sys.frozen(float(u))
        worst = max(worst, float(np.max(np.linalg.eigvals(F).real)))
        try:
            x = hexreg.pi_map(sys, float(u))
        except hexreg.SingularMatrixError:
            continue
        gains.append(float(sys.C @ np.linalg.solve(F, sys.input_gain(x))))
    gains = np.array(gains)
    return {"hurwitz_margin": worst,
            "dc_gain_min_abs": float(np.min(np.abs(gains))) if gains.size else float("nan")}


def _a1_fields(rep):
    return {k: getattr(rep, k) for k in ("hurwitz_margin", "dc_gain_min_abs")}


def _same_bits(got, want):
    assert got.keys() == want.keys()
    for k in got:
        assert np.float64(got[k]).tobytes() == np.float64(want[k]).tobytes(), k


def test_assumption1_hex(hexsys):
    rep = hexreg.assumption_report(hexsys, u_grid=64)
    assert rep.hurwitz_margin < 0.0
    assert rep.dc_sign_constant is True
    assert rep.dc_gain_min_abs > 0.0
    assert rep.grid_sizes == {"u": 64}
    assert rep.a3a_feasible is None and rep.lmi is None


def test_assumption1_matches_per_point_sweep(hexsys):
    """The single sweep gives the per-point loop's bits."""
    _same_bits(_a1_fields(hexreg.assumption_report(hexsys, u_grid=8)),
               a1_per_point(hexsys, 8))


def test_assumption1_unstable_toy():
    sys = hexreg.BilinearSystem(
        A=np.eye(2), B=np.zeros((2, 2)), b=np.zeros(2), E=np.zeros(2),
        C=np.array([1.0, 0.0]), D=np.eye(2), u_min=-1.0, u_max=1.0,
    )
    rep = hexreg.assumption_report(sys, u_grid=8)
    assert rep.hurwitz_margin > 0.0


def test_assumption1_linear_system_constant_margin():
    sys = hexreg.BilinearSystem(
        A=np.diag([-1.0, -2.0]), B=np.zeros((2, 2)), b=np.array([1.0, 0.0]),
        E=np.zeros(2), C=np.array([1.0, 0.0]), D=np.eye(2),
        u_min=-1.0, u_max=1.0,
    )
    rep = hexreg.assumption_report(sys, u_grid=16)
    # with B = 0 the frozen family never moves
    assert rep.hurwitz_margin == pytest.approx(-1.0, abs=1e-12)
    assert rep.dc_sign_constant is True


def singular_frozen_system():
    """F_u = diag(u - 0.5, -1): exactly singular at the middle of the
    3-point input grid on [0, 1]."""
    return hexreg.BilinearSystem(
        A=np.diag([-0.5, -1.0]), B=np.diag([1.0, 0.0]), b=np.array([1.0, 1.0]),
        E=np.array([0.0, 0.5]), C=np.array([1.0, 1.0]), D=np.eye(2),
        u_min=0.0, u_max=1.0,
    )


def test_assumption1_counts_singular_frozen_matrix():
    """Without P, the singular grid point is left out of the gain minimum,
    and the pole of A + B u it sits on revokes sign constancy."""
    sys = singular_frozen_system()
    with pytest.raises(hexreg.SingularMatrixError):
        hexreg.pi_map(sys, 0.5)
    rep = hexreg.assumption_report(sys, u_grid=3)
    want = a1_per_point(sys, 3)
    _same_bits(_a1_fields(rep), want)
    # the two regular points both have DC gain -3, so only the singular
    # point revokes sign constancy
    assert rep.dc_gain_min_abs == pytest.approx(3.0, rel=1e-12)
    assert rep.dc_sign_constant is False
    assert "dc_sign_constant" in rep.failed_checks()


_SHIFT = np.diag([1.0, 1.0], 1)  # nilpotent: (-I + w N)^-1 = -(I + w N + w^2 N^2)


def nilpotent_system(b):
    """F_u = -I + u N on [0, 1], N the 3 x 3 upward shift, E = 0, C = e_1:
    C pi(u) = b_1 u + b_2 u^2 + b_3 u^3, and C (F_u + v N)^-1 g_u is minus a
    quadratic in w = u + v.  Hurwitz for every u, never singular."""
    return hexreg.BilinearSystem(
        A=-np.eye(3), B=_SHIFT, b=np.asarray(b, dtype=np.float64), E=np.zeros(3),
        C=np.array([1.0, 0.0, 0.0]), D=np.eye(3), u_min=0.0, u_max=1.0)


def test_dc_sign_sees_two_zeros_between_grid_inputs():
    """dy_ss/du = 3 (u - 0.498) (u - 0.502) changes sign twice between the
    64-point grid's inputs 31/63 and 32/63, where it is positive: the grid
    sees one sign, the report does not."""
    h = 0.002
    sys = nilpotent_system([3.0 * (0.25 - h * h), -1.5, 1.0])
    assert np.allclose(steady_state._stationary_points(sys), [0.5 - h, 0.5 + h], atol=1e-12)
    us = np.linspace(sys.u_min, sys.u_max, 64)
    assert us[31] < 0.5 - h < 0.5 + h < us[32]
    gains = [float(sys.C @ np.linalg.solve(sys.frozen(u), sys.input_gain(hexreg.pi_map(sys, u))))
             for u in us]
    assert np.all(np.array(gains) < 0.0)
    rep = hexreg.assumption_report(sys, u_grid=64)
    assert rep.hurwitz_margin == -1.0 and rep.dc_gain_min_abs > 0.0
    assert rep.dc_sign_constant is False
    assert rep.failed_checks() == ["dc_sign_constant"]


def test_assumption3_singular_frozen_matrix_raises():
    """With P, the same singular grid point is a numerical failure."""
    with pytest.raises(hexreg.SingularMatrixError):
        hexreg.assumption_report(singular_frozen_system(), np.eye(2), nu=1.0,
                                 eps=1e-3, u_grid=3, v_grid=3)


@pytest.mark.parametrize("poles", [(0.25, 0.75), (0.75,)], ids=["both-halves", "upper-half"])
def test_assumption_report_raises_the_serial_error(poles):
    """F_u = diag(u - p_1, u - p_2, -1) on [0, 1] is singular at the grid
    inputs in poles: 1/4 is in the lower half of the 5-point grid, 3/4 in
    the upper half.  Without P every pole is left out of the gain minimum,
    as a loop of pi_map calls leaves it out; with P the error is that
    loop's, at the lowest pole."""
    p = (*poles, 2.0)[:2]
    sys = hexreg.BilinearSystem(
        A=np.diag([-p[0], -p[1], -1.0]), B=np.diag([1.0, 1.0, 0.0]),
        b=np.array([1.0, 1.0, 0.5]), E=np.array([0.1, 0.2, 0.3]),
        C=np.array([1.0, 1.0, 1.0]), D=np.eye(3), u_min=0.0, u_max=1.0)
    rep = hexreg.assumption_report(sys, u_grid=5)
    _same_bits(_a1_fields(rep), a1_per_point(sys, 5))
    assert rep.dc_sign_constant is False
    with pytest.raises(hexreg.SingularMatrixError) as serial:
        for u in np.linspace(sys.u_min, sys.u_max, 5):
            hexreg.pi_map(sys, float(u))
    with pytest.raises(hexreg.SingularMatrixError) as report:
        hexreg.assumption_report(sys, np.eye(3), nu=1.0, eps=1e-3, u_grid=5)
    assert f"at u = {poles[0]}" in str(serial.value)
    assert str(report.value) == str(serial.value)
    assert report.value.cond == serial.value.cond


@pytest.mark.parametrize("kwargs, message", [
    (dict(u_grid=1), "grid sizes must be >= 2"),
    (dict(P=np.eye(16), v_grid=1), "grid sizes must be >= 2"),
    (dict(P=np.eye(16)), "nu and eps are required alongside P"),
    (dict(P=np.eye(3), nu=1.0, eps=1.0), "P must be 16x16"),
    (dict(P=-np.eye(16), nu=1.0, eps=1.0), "P must be positive definite"),
    (dict(P=np.eye(16), nu=0.0, eps=1.0), "nu and eps must be positive"),
    (dict(u_grid=10**6 + 1), "grid sizes must be <= 1000000"),
    (dict(P=np.eye(16), nu=1.0, eps=1.0, v_grid=10**6 + 1),
     "grid sizes must be <= 1000000"),
])
def test_assumption_report_validates_before_sweeping(hexsys, monkeypatch, kwargs,
                                                      message):
    """Malformed arguments raise ValueError before any frozen matrix is
    solved."""
    def no_sweep(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(analysis, "_equilibria", no_sweep)
    with pytest.raises(ValueError, match=message):
        hexreg.assumption_report(hexsys, **kwargs)


# -- assumption 3 -----------------------------------------------------------


def test_assumption3_feasible_linear_case():
    sys = hexreg.BilinearSystem(
        A=np.diag([-1.0, -2.0]), B=np.zeros((2, 2)), b=np.array([1.0, 0.0]),
        E=np.zeros(2), C=np.array([1.0, 0.0]), D=np.eye(2),
        u_min=-1.0, u_max=1.0,
    )
    # mu = 0: the (a) inequality reduces to the Lyapunov decay itself
    P = hexreg.solve_lyapunov(sys.A, np.eye(2))
    rep = hexreg.assumption_report(sys, P, nu=100.0, eps=0.25)
    assert rep.a3a_feasible is True
    assert rep.a3a_worst_residual <= 0.0
    # with B = 0 the shifted DC gain is the DC gain, of one sign
    assert (rep.a3b_roots, rep.a3b_poles, rep.a3b_sign_constant) == (0, 0, True)


def test_assumption3_hex_conservative(hexsys, table1):
    """On the exchanger the mu-term swamps the decay at these constants;
    the check reports the inequality infeasible with a definite positive
    residual.  Over the full deviation range the shifted DC gain changes
    sign, as verify --a3 reports, though never at an admissible u + v."""
    P = hexreg.hex_analytic_P(table1)
    margin = hexreg.lyapunov_decay_margin(hexsys, P, grid=64)
    assert margin > 0.0
    from hexreg.design import input_coupling_bound

    mu = input_coupling_bound(hexsys)
    rep = hexreg.assumption_report(hexsys, P, nu=np.linalg.norm(P, 2) / mu,
                                   eps=0.5 * margin)
    assert rep.a3a_feasible is False
    assert rep.a3a_worst_residual == pytest.approx(32.1, rel=0.05)
    assert rep.a3b_sign_constant is False
    assert rep.a3b_roots > 0
    assert rep.a3b_poles == 0 and rep.a3b_admissible == 0
    assert rep.failed_checks(require_a3=True) == ["a3a_feasible", "a3b_sign_constant"]


def a3a_block_top(sys, P, nu, eps, mu, u):
    """Largest eigenvalue of the A3(a) block at one input, built by hand."""
    n = sys.n_states
    F = sys.frozen(u)
    top = P @ F + F.T @ P + (nu * mu * mu + 2.0 * eps) * np.eye(n)
    return float(np.linalg.eigvalsh(np.block([[top, P], [P, -nu * np.eye(n)]]))[-1])


def test_assumption3a_does_not_depend_on_u_grid(hexsys, table1):
    """The A3(a) block is affine in u, so its largest eigenvalue is convex
    in u and peaks at an input bound: every u grid gives the same bits,
    those of the block at the bounds."""
    P = hexreg.hex_analytic_P(table1)
    mu = hexreg.design.input_coupling_bound(hexsys)
    nu = float(np.linalg.norm(P, 2) / mu)
    eps = 0.5 * hexreg.lyapunov_decay_margin(hexsys, P, grid=2)
    worst = {hexreg.assumption_report(hexsys, P, nu, eps, u_grid=n_u,
                                      v_grid=2).a3a_worst_residual
             for n_u in (2, 3, 64, 256)}
    assert worst == {max(a3a_block_top(hexsys, P, nu, eps, mu, u)
                         for u in (hexsys.u_min, hexsys.u_max))}
    assert worst == {32.14365527048028}


def _random_plant(rng, n, u_min, u_max):
    """A seeded random plant whose A is stable: A = G - (|G|_2 + 1) I."""
    G = rng.standard_normal((n, n))
    return hexreg.BilinearSystem(
        A=G - (np.linalg.norm(G, 2) + 1.0) * np.eye(n), B=rng.standard_normal((n, n)),
        b=rng.standard_normal(n), E=rng.standard_normal(n), C=rng.standard_normal(n),
        D=np.eye(1, n), u_min=u_min, u_max=u_max)


@pytest.mark.parametrize("seed", range(15))
def test_assumption3a_matches_a_dense_input_grid(seed):
    """On seeded random 2-5-state plants with a random P, the report's
    A3(a) residual, taken at the two input bounds, is the largest of the
    block's top eigenvalue over 257 inputs."""
    rng = np.random.default_rng(seed)
    for n in range(2, 6):
        sys = _random_plant(rng, n, -0.2, 0.3)
        H = rng.standard_normal((n, n))
        P = H @ H.T + 0.1 * np.eye(n)
        nu, eps = float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.01, 1.0))
        mu = hexreg.design.input_coupling_bound(sys)
        rep = hexreg.assumption_report(sys, P, nu, eps, u_grid=2, v_grid=2)
        dense = max(a3a_block_top(sys, P, nu, eps, mu, u)
                    for u in np.linspace(sys.u_min, sys.u_max, 257))
        assert rep.a3a_worst_residual == dense, (seed, n)


@pytest.mark.parametrize("u_grid", [2, 64])
def test_assumption_report_builds_the_a3a_block_twice(hexsys, table1, monkeypatch, u_grid):
    built = []

    def counted(*args):
        built.append(args)
        return hexreg.design.robust_decay_block(*args)

    monkeypatch.setattr(analysis, "robust_decay_block", counted)
    P = hexreg.hex_analytic_P(table1)
    hexreg.assumption_report(hexsys, P, nu=1.0, eps=1e-3, u_grid=u_grid, v_grid=2)
    assert len(built) == 2


def test_assumption_report_blocks_keep_bits_and_bound_memory(hexsys, table1, monkeypatch):
    """The sweep walks its inputs in blocks: the report at 200 inputs (four
    blocks) has the bits of one taken in a single block, and the traced
    peak at 4096 inputs stays within twice the peak at 256."""
    P = hexreg.hex_analytic_P(table1)
    report = lambda u_grid: hexreg.assumption_report(hexsys, P, nu=1.0, eps=1e-3,
                                                     u_grid=u_grid, a3b=True)
    blocked = report(200).to_dict()
    with monkeypatch.context() as mp:
        mp.setattr(analysis, "_STACK_BLOCK", 10**6)
        whole = report(200).to_dict()
    assert repr(blocked) == repr(whole)
    peaks = []
    for u_grid in (256, 4096):
        tracemalloc.start()
        try:
            report(u_grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], peaks


def a3b_per_pair(sys, us, vs):
    """The dense A3(b) reference: C (F_u + B v)^-1 g_u at every (u, v)
    pair, one row per u, NaN where cond_2(F_u + B v) is above 1e14 or not
    finite.  g_u comes from pi_map, and C times each solution is the 1-D
    dot product (kernels._rowdot)."""
    out = np.full((len(us), len(vs)), np.nan)
    for i, u in enumerate(us):
        g_u = sys.input_gain(hexreg.pi_map(sys, float(u)))
        Fv = sys.frozen(float(u)) + sys.B * vs[:, None, None]
        cond = np.linalg.cond(Fv)
        ok = np.isfinite(cond) & (cond <= 1e14)
        if ok.any():
            sol = np.linalg.solve(Fv[ok], g_u[:, None])[..., 0]
            out[i, ok] = kernels._rowdot(sys.C, sol)[:, 0]
    return out


def _changing_cells(vals):
    """Indices j where vals[j] and vals[j + 1] are not both of one strict
    sign: a sign change, a zero or a singular pair (NaN)."""
    return np.flatnonzero(~(np.sign(vals[:-1]) * np.sign(vals[1:]) > 0.0))


def a3b_crossings(sys, u, g_u, w_poles):
    """The deviations v in [u_min - u_max, u_max - u_min] at which
    C (F_u + B v)^-1 g_u changes sign, at one input: (zeros, poles), each
    ascending.  The zeros are the roots in range of the (n + 1) pencil
    [[F_u, g_u], [C, 0]] + v [[B, 0], [0, 0]], built with np.block; the
    poles are w - u for the roots w of (A, B) in w_poles that fall in range,
    to the pencils' 1e-9 of the range."""
    n = sys.n_states
    lo, hi = sys.u_min - sys.u_max, sys.u_max - sys.u_min
    M0 = np.block([[sys.frozen(u), g_u[:, None]], [sys.C[None], np.zeros((1, 1))]])
    M1 = np.block([[sys.B, np.zeros((n, 1))], [np.zeros((1, n + 1))]])
    tol = 1e-9 * (hi - lo)
    poles = w_poles - u
    return (steady_state._pencil_roots(M0, M1, lo, hi),
            poles[(poles >= lo - tol) & (poles <= hi + tol)])


def _crossings(sys, us):
    """a3b_crossings at each input of us, with g_u from pi_map."""
    lo, hi = sys.u_min, sys.u_max
    w_poles = steady_state._pencil_roots(sys.A, sys.B, 2.0 * lo - hi, 2.0 * hi - lo)
    return [a3b_crossings(sys, u, sys.input_gain(hexreg.pi_map(sys, u)), w_poles)
            for u in map(float, us)]


def report_per_input(sys, u_grid):
    """The report's sampled fields and A3(b) counts one input at a time:
    eigvals, pi_map, solve and a3b_crossings per input, and the DC-gain
    sign from the pencils."""
    us = np.linspace(sys.u_min, sys.u_max, u_grid)
    want = a1_per_point(sys, u_grid)
    want["dc_sign_constant"] = not (
        steady_state._pencil_roots(sys.A, sys.B, sys.u_min, sys.u_max).size
        or steady_state._stationary_points(sys).size)
    roots = poles = admissible = 0
    for u, (z, p) in zip(us, _crossings(sys, us)):
        w = u + np.concatenate((z, p))
        roots, poles = roots + len(z), poles + len(p)
        admissible += int(np.count_nonzero((w >= sys.u_min) & (w <= sys.u_max)))
    return want, {"a3b_roots": roots, "a3b_poles": poles, "a3b_admissible": admissible}


def _assert_report_is_per_input(rep, sys, u_grid):
    want, counts = report_per_input(sys, u_grid)
    _same_bits({k: getattr(rep, k) for k in want}, want)
    assert {k: getattr(rep, k) for k in counts} == counts


@pytest.mark.parametrize("u_grid", [64, 256])
def test_stacked_report_is_the_per_input_loop_on_hex(hexsys, table1, u_grid):
    """The stacked sweep gives the per-input loop's bits on the exchanger."""
    P = hexreg.hex_analytic_P(table1)
    rep = hexreg.assumption_report(hexsys, P, nu=1.0, eps=1e-3, u_grid=u_grid)
    _assert_report_is_per_input(rep, hexsys, u_grid)
    assert rep.a3b_roots == {64: 58, 256: 233}[u_grid]


@pytest.mark.parametrize("seed", range(20))
def test_stacked_report_is_the_per_input_loop_on_random_plants(seed):
    """Seeded random stable 2-6-state plants, with a random P."""
    rng = np.random.default_rng(300 + seed)
    n = 2 + seed % 5
    sys = _random_plant(rng, n, -1.0, 1.5)
    H = rng.standard_normal((n, n))
    u_grid = int(rng.integers(2, 40))
    rep = hexreg.assumption_report(sys, H @ H.T + 0.1 * np.eye(n), nu=1.0, eps=1e-3,
                                   u_grid=u_grid)
    _assert_report_is_per_input(rep, sys, u_grid)


def test_stacked_report_takes_a_singular_first_shift_alone(monkeypatch):
    """C pi(u) = 0.6 u^2 + u^3 has a zero DC gain at the grid input u = 0,
    so that input's A3(b) pencil is exactly singular at the first shift,
    v = 0, which is its root.  The members are then taken one by one and
    that input's second shift finds the others; the report is the per-input
    loop's."""
    sys = nilpotent_system([0.0, 0.6, 1.0])
    M0 = np.block([[sys.frozen(0.0), sys.b[:, None]], [sys.C[None], np.zeros((1, 1))]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(M0, np.eye(4))
    alone = []

    def counted(M0, *args, _real=steady_state._pencil_roots):
        alone.append(M0.shape)
        return _real(M0, *args)

    monkeypatch.setattr(steady_state, "_pencil_roots", counted)
    rep = hexreg.assumption_report(sys, np.eye(3), nu=1.0, eps=1e-3, u_grid=9)
    assert alone.count((4, 4)) == 9
    monkeypatch.undo()
    _assert_report_is_per_input(rep, sys, 9)
    assert 0.0 in _crossings(sys, [0.0])[0][0]
    assert rep.dc_gain_min_abs == 0.0 and rep.a3b_roots > 0


def test_a3b_counts_a_root_on_the_shift_once():
    """At u = 0, C (F_0 + v N)^-1 g_0 = -v (v + 0.6), whose root v = 0 is
    the exactly singular first shift: two roots there, not three.  With
    the two at u = 0.125, the 9-point grid counts 4."""
    sys = nilpotent_system([0.0, 0.6, 1.0])
    roots, _ = _crossings(sys, [0.0])[0]
    assert roots.shape == (2,)
    rep = hexreg.assumption_report(sys, np.eye(3), nu=1.0, eps=1e-3, u_grid=9)
    assert rep.a3b_roots == 4


def _full_range(sys):
    return (sys.u_min - sys.u_max, sys.u_max - sys.u_min)


def _assert_cells_hold_a_crossing(us, vs, vals, crossings):
    """Every cell of the oracle's v grid where the map is not of one sign
    holds a zero or a pole of the pencils, to 1e-9 of the range."""
    tol = 1e-9 * (vs[-1] - vs[0])
    for i, (zeros, poles) in enumerate(crossings):
        found = np.concatenate((zeros, poles))
        for j in _changing_cells(vals[i]):
            assert np.any((found >= vs[j] - tol) & (found <= vs[j + 1] + tol)), (us[i], j)


def test_assumption3_v_zero_column_matches_a1(hexsys, table1):
    """At v = 0 the shifted map is the plain DC gain: the per-pair oracle's
    v = 0 column gives the assumption-1 minimum bit for bit, with P or
    without."""
    us = np.linspace(hexsys.u_min, hexsys.u_max, 8)
    want = float(np.min(np.abs(a3b_per_pair(hexsys, us, np.zeros(1)))))
    assert hexreg.assumption_report(hexsys, u_grid=8).dc_gain_min_abs == want
    P = hexreg.hex_analytic_P(table1)
    rep = hexreg.assumption_report(hexsys, P, nu=1.0, eps=1e-3, u_grid=8)
    assert rep.dc_gain_min_abs == want


def test_assumption3b_matches_per_pair_sweep(hexsys, table1):
    """On the 16-state plant at 256 inputs, the pencils find, input by
    input, one zero in each cell of the 513-point per-pair grid where the
    map changes sign and no other, no pole and no admissible crossing."""
    P = hexreg.hex_analytic_P(table1)
    rep = hexreg.assumption_report(hexsys, P, nu=1.0, eps=1e-3, u_grid=256)
    us = np.linspace(hexsys.u_min, hexsys.u_max, 256)
    vs = np.linspace(*_full_range(hexsys), 513)
    vals = a3b_per_pair(hexsys, us, vs)
    crossings = _crossings(hexsys, us)
    for i, (zeros, poles) in enumerate(crossings):
        cells = _changing_cells(vals[i])
        assert len(poles) == 0
        assert np.array_equal(np.searchsorted(vs, zeros) - 1, cells), us[i]
    assert rep.a3b_roots == sum(len(z) for z, _ in crossings) == 233
    assert (rep.a3b_poles, rep.a3b_admissible) == (0, 0)
    assert rep.a3b_sign_constant is False
    assert rep.lmi.v_range == _full_range(hexsys)


@pytest.mark.parametrize("seed", range(15))
def test_assumption_report_matches_the_oracles_on_random_plants(seed):
    """Seeded random 2-5-state plants with a stable A, on an input range
    wide enough that each one's map has zeros or poles, with and without a
    random P: the sampled A1 fields keep the per-point loop's bits, every
    cell of a 257-point per-pair v grid where the map is not of one sign
    holds a zero or pole of the pencils, a sign change anywhere on the grid
    makes a3b_sign_constant False, and the report's counts are those of
    a3b_crossings."""
    rng = np.random.default_rng(100 + seed)
    n = 2 + seed % 4
    sys = _random_plant(rng, n, -1.0, 1.5)
    H = rng.standard_normal((n, n))
    u_grid = int(rng.integers(2, 12))
    want = a1_per_point(sys, u_grid)
    _same_bits(_a1_fields(hexreg.assumption_report(sys, u_grid=u_grid)), want)
    rep = hexreg.assumption_report(sys, H @ H.T + 0.1 * np.eye(n),
                                   nu=float(rng.uniform(0.1, 10.0)),
                                   eps=float(rng.uniform(0.01, 1.0)), u_grid=u_grid)
    _same_bits(_a1_fields(rep), want)
    us = np.linspace(sys.u_min, sys.u_max, u_grid)
    vs = np.linspace(*_full_range(sys), 257)
    vals = a3b_per_pair(sys, us, vs)
    crossings = _crossings(sys, us)
    _assert_cells_hold_a_crossing(us, vs, vals, crossings)
    if not (np.all(vals > 0.0) or np.all(vals < 0.0)):
        assert rep.a3b_sign_constant is False
    assert rep.a3b_roots == sum(len(z) for z, _ in crossings)
    assert rep.a3b_poles == sum(len(p) for _, p in crossings)


def test_assumption3b_two_zeros_between_grid_deviations():
    """At u = 0 the shifted map is -(w + 0.54) (w + 0.56), w = v: two
    zeros between the 17-point v grid's -0.625 and -0.5, and the map is
    negative at every grid pair of both inputs.  The grid sees one sign, the
    pencil two zeros, neither at an admissible u + v."""
    sys = nilpotent_system([0.3024, 1.1, 1.0])
    us = np.linspace(sys.u_min, sys.u_max, 2)
    vals = a3b_per_pair(sys, us, np.linspace(*_full_range(sys), 17))
    assert np.all(vals < 0.0)
    (zeros, poles), (zeros_1, poles_1) = _crossings(sys, us)
    assert np.allclose(zeros, [-0.56, -0.54], atol=1e-12)
    assert zeros_1.size == poles.size == poles_1.size == 0
    rep = hexreg.assumption_report(sys, np.eye(3), nu=1.0, eps=1e-3, u_grid=2)
    assert rep.dc_sign_constant is True
    assert (rep.a3b_roots, rep.a3b_poles, rep.a3b_admissible) == (2, 0, 0)
    assert rep.a3b_sign_constant is False


def test_assumption3b_screen_inverts_few_pairs(hexsys, table1, monkeypatch):
    """The 16-state plant's A3(b) check at 256 inputs takes no inverse per
    (u, v) pair: counting every matrix that np.linalg.inv or cond takes,
    the 256 equilibria included, at most 1% of the 131 328 pairs of a
    513-point deviation grid get one."""
    taken = []
    for name in ("inv", "cond"):
        def counted(a, *args, _real=getattr(np.linalg, name), **kwargs):
            taken.append(int(np.prod(np.shape(a)[:-2])))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    P = hexreg.hex_analytic_P(table1)
    rep = hexreg.assumption_report(hexsys, P, nu=1.0, eps=1e-3, u_grid=256, v_grid=513)
    assert rep.a3b_poles == 0
    assert sum(taken) <= 0.01 * 256 * 513


def test_assumption_report_serializes(hexsys):
    rep = hexreg.assumption_report(hexsys, u_grid=8, v_grid=5)
    d = rep.to_dict()
    assert d["hurwitz_margin"] < 0.0
    assert "a3a_feasible" in d and d["a3b_roots"] is None
    assert rep.failed_checks() == []


# -- monitors ---------------------------------------------------------------


def forwarding_V(hexsys, art, x, z):
    """The forwarding law's one monitor, V, at one sample."""
    scn = make_scenario(hexsys, art, hexreg.FORWARDING, 1.0, 1.0,
                        [[0.0, float(hexsys.C @ art.x_ss)]])
    monitors = analysis.trajectory_monitors(scn, x[None], None, np.array([z]))
    assert list(monitors) == ["V"]
    return float(monitors["V"][0])


def test_lyapunov_monitors_zero_at_origin(hexsys, fwd_art):
    assert forwarding_V(hexsys, fwd_art, fwd_art.x_ss, 0.0) == 0.0


def test_lyapunov_monitors_positive_off_origin(hexsys, fwd_art):
    rng = np.random.default_rng(2)
    x = fwd_art.x_ss + rng.normal(0.0, 1.0, 16)
    V = forwarding_V(hexsys, fwd_art, x, 0.7)
    xt = x - fwd_art.x_ss
    expected = (fwd_art.k_p * float(xt @ fwd_art.P @ xt)
                + fwd_art.k_i * (0.7 - float(fwd_art.M @ xt)) ** 2)
    assert V == pytest.approx(expected, rel=1e-12)


def integral_only_point(sys, art, x, z):
    """(V, W) at one integral-only sample, with one solve per sample:
    V is the squared P-norm of x - x_ss minus the frozen equilibrium's shift
    pi_v = -(F_ss + B v)^-1 g_ss v at the applied increment v, and W adds
    gamma |z| with gamma = 2 k_i pi_bar sqrt(lmax(P))."""
    v = float(np.clip(art.u_ss + art.sign_dc * art.k_i * z, sys.u_min, sys.u_max))
    v -= art.u_ss
    piv = -np.linalg.solve(sys.frozen(art.u_ss) + sys.B * v, sys.input_gain(art.x_ss)) * v
    d = (x - art.x_ss) - piv
    V = float(max(d @ art.P @ d, 0.0))
    gamma = 2.0 * art.k_i * art.pi_bar * np.sqrt(float(np.linalg.eigvalsh(art.P)[-1]))
    return V, float(np.sqrt(V) + gamma * abs(z))


@pytest.mark.parametrize("dist, saturates", [(0.0, False), (-40.0, True)])
def test_trajectory_monitors_integral_only_matches_monitor_point(
        hexsys, io_art, dist, saturates):
    """The stacked integral-only V solves reproduce the per-sample formula
    bit for bit, over more samples than one stacked block.  An output
    disturbance of -40 K drives the input into saturation, so the shifted
    equilibrium there differs from the unsaturated samples'."""
    x0 = hexreg.invert_reference(hexsys, 26.0 + KELVIN).x_ss
    scn = make_scenario(hexsys, io_art, hexreg.INTEGRAL_ONLY, 6000.0, 4.0,
                        [[0.0, 26.5 + KELVIN]], dists=[[0.0, dist]], x0=x0)
    X, XH, Z, U_raw, U_sat, _, _, bad = kernels.closed_loop_rk4(scn, scn.x0, scn.x_hat0)
    assert bad is None
    assert bool(np.any(U_raw != U_sat)) is saturates
    series = analysis.trajectory_monitors(scn, X, XH, Z)
    points = np.array([integral_only_point(hexsys, io_art, X[k], float(Z[k]))
                       for k in range(Z.shape[0])])
    assert Z.shape[0] > kernels._BLOCK
    assert list(series) == ["V", "W"]
    for i, name in enumerate(series):
        assert series[name].tobytes() == points[:, i].tobytes(), name


def test_observer_monitor_constants(synthetic_observable, synthetic_observer):
    sys = synthetic_observable
    eq = hexreg.equilibrium_at(sys, 0.0)
    art = hexreg.forwarding_design(sys, eq, k_p=0.5, k_i=0.2)
    art.observer = synthetic_observer
    a, c = hexreg.observer_monitor_constants(sys, art)
    assert a > 0.0
    q_max = np.linalg.eigvalsh(synthetic_observer.Q)[-1]
    # c must clear the threshold that makes sqrt(V) + c sqrt(U) decrease
    assert c > a * np.sqrt(q_max) / synthetic_observer.eps


def test_observer_monitor_constants_match_scipy_eigh(synthetic_observable,
                                                    synthetic_observer):
    """a = |R^-1 J|_2 is the square root of the largest generalized
    eigenvalue of (J J^T, Sigma) that scipy.linalg.eigh finds."""
    import scipy.linalg as sla

    sys, obs = synthetic_observable, synthetic_observer
    art = hexreg.forwarding_design(sys, hexreg.equilibrium_at(sys, 0.0), k_p=0.5, k_i=0.2)
    art.observer = obs
    LD = obs.L @ sys.D
    J = np.vstack([art.k_p * (art.P @ LD), art.k_i * (sys.C - art.M @ LD)])
    Sigma = np.zeros((4, 4))
    Sigma[:3, :3], Sigma[3, 3] = art.k_p * art.P, art.k_i
    a_ref = np.sqrt(sla.eigh(J @ J.T, Sigma, eigvals_only=True)[-1])
    a, _ = hexreg.observer_monitor_constants(sys, art)
    assert a == pytest.approx(a_ref, rel=1e-14)


@pytest.mark.parametrize("gains", [(0.0, 0.2), (0.5, 0.0), (0.5, -0.2)])
def test_observer_monitor_constants_refuse_an_indefinite_sigma(synthetic_observable,
                                                               synthetic_observer, gains):
    sys = synthetic_observable
    art = hexreg.forwarding_design(sys, hexreg.equilibrium_at(sys, 0.0), k_p=0.5, k_i=0.2)
    art.observer = synthetic_observer
    art.k_p, art.k_i = gains
    with pytest.raises(ValueError, match=r"blkdiag\(k_p P, k_i\) positive definite"):
        hexreg.observer_monitor_constants(sys, art)


def test_observer_monitor_constants_requires_observer(hexsys, fwd_art):
    with pytest.raises(hexreg.MissingObserverStateError):
        hexreg.observer_monitor_constants(hexsys, fwd_art)


# -- linearization and gain limit -------------------------------------------


def test_linearization_block_triangular_at_zero_gain(hexsys, io_art):
    A = hexreg.linearization_matrix(hexsys, io_art, 0.0)
    assert A.shape == (17, 17)
    F = hexsys.frozen(io_art.u_ss)
    eig_A = np.sort_complex(np.linalg.eigvals(A))
    eig_F = np.sort_complex(np.append(np.linalg.eigvals(F), 0.0))
    assert np.allclose(eig_A, eig_F, atol=1e-10)


def test_linearization_hurwitz_at_half_bound(hexsys, io_art):
    A = hexreg.linearization_matrix(hexsys, io_art, io_art.k_i)
    abscissa = analysis.spectral_abscissa(A)
    assert abscissa < 0.0
    # slow integrator pole: roughly -k_i * |C F^-1 g|
    assert abscissa == pytest.approx(-1.3299e-4, rel=1e-3)


def test_integral_gain_stability_limit(hexsys, io_art):
    limit = hexreg.integral_gain_stability_limit(hexsys, io_art)
    assert limit == pytest.approx(2.578593e-4, rel=1e-4)
    assert io_art.ki_star <= limit
    # certified bound is conservative by a wide margin here
    assert limit / io_art.ki_star > 100.0


@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_integral_gain_stability_limit_is_sharp_in_simulation(hexsys, io_art, factor):
    """integral_gain_stability_limit is a limit of the linearization, and
    it is sharp in simulation from both sides.  The integral-only loop at
    26.5 C, with k_i at 0.9 and 1.1 times the limit, takes a 0.01 K
    reference step at 10 s from x_ss (dt 0.5 s, 40 000 s).  The input
    stays off both bounds, so the plant runs in its linear regime.

    Measured: at 0.9x the largest |e| over the last quarter is 3.43e-6 K;
    at 1.1x it is 0.554 K, up from 0.121 K over the second eighth."""
    limit = hexreg.integral_gain_stability_limit(hexsys, io_art)
    art = dataclasses.replace(io_art, k_i=factor * limit)
    y_ss = float(hexsys.C @ io_art.x_ss)
    res = hexreg.run(make_scenario(hexsys, art, hexreg.INTEGRAL_ONLY, 40000.0, 0.5,
                                   [[0.0, y_ss], [10.0, y_ss + 0.01]]))
    assert hexsys.u_min < res.u_sat.min() and res.u_sat.max() < hexsys.u_max
    e, T = np.abs(res.e), len(res.e)
    last_quarter, second_eighth = e[3 * T // 4:].max(), e[T // 8:T // 4].max()
    if factor < 1.0:
        assert last_quarter < 1e-4          # 1 % of the step; 3.43e-6 measured
    else:
        assert last_quarter > 0.1           # 10 times the step; 0.554 measured
        assert last_quarter > 2.0 * second_eighth   # 4.6 times measured


def per_k_linearization(sys, art, k_i):
    """The closed-loop matrix built afresh at one gain, as the docstring of
    linearization_matrix writes it."""
    n = sys.n_states
    F = sys.frozen(art.u_ss)
    h, Fg = hexreg.design._dc_path(sys, art.u_ss, art.x_ss)
    s = 1.0 if h > 0.0 else -1.0
    A_cl = np.zeros((n + 1, n + 1))
    A_cl[:n, :n] = F + s * k_i * np.outer(Fg, sys.C)
    A_cl[:n, n] = -(k_i**2) * h * Fg
    A_cl[n, :n] = sys.C
    A_cl[n, n] = -k_i * abs(h)
    return A_cl


def per_k_stability_limit(sys, art):
    """The bisection that integral_gain_stability_limit once made, with a
    fresh matrix per gain: from ki_star (1e-6 without one), halve until the
    loop is stable, double until it is not (inf above 1e9), and bisect the
    bracket to a relative width of 1e-9."""
    def unstable(k):
        return analysis.spectral_abscissa(per_k_linearization(sys, art, k)) >= 0.0

    lo = art.ki_star or 1e-6
    while unstable(lo):
        lo /= 2.0
    hi = lo * 2.0
    while not unstable(hi):
        lo, hi = hi, hi * 2.0
        if hi > 1e9:
            return np.inf
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if unstable(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _assert_limit_is_the_bisection(sys, art):
    """The pencil's limit within 1e-9 of the bisection's, and the loop
    Hurwitz just below it and not just above it."""
    got = hexreg.integral_gain_stability_limit(sys, art)
    want = per_k_stability_limit(sys, art)
    if np.isinf(want):
        assert got == np.inf
        return got
    assert got == pytest.approx(want, rel=1e-9, abs=0.0)
    below = per_k_linearization(sys, art, got * (1.0 - 1e-7))
    above = per_k_linearization(sys, art, got * (1.0 + 1e-7))
    assert analysis.spectral_abscissa(below) < 0.0 <= analysis.spectral_abscissa(above)
    return got


@pytest.mark.parametrize("ref_c", [20.0, 24.0, 26.5, 29.0, 32.0])
def test_integral_gain_stability_limit_matches_per_k_matrices(hexsys, table1, ref_c):
    """Each matrix has the bits of one built afresh, and the limit from the
    zero pencil is the bisection's over those matrices."""
    art = hexreg.integral_only_design(hexsys, hexreg.invert_reference(hexsys, ref_c + KELVIN),
                                      hex_params=table1)
    for k in (0.0, art.ki_star, 1e-4):
        assert (hexreg.linearization_matrix(hexsys, art, k).tobytes()
                == per_k_linearization(hexsys, art, k).tobytes())
    assert art.ki_star <= _assert_limit_is_the_bisection(hexsys, art)


def _at_zero_input(sys):
    """Integral-only linearization data at u_ss = 0: all the limit reads."""
    return SimpleNamespace(u_ss=0.0, x_ss=hexreg.pi_map(sys, 0.0), ki_star=None)


@pytest.mark.parametrize("seed", range(20))
def test_integral_gain_stability_limit_matches_the_bisection_on_random_plants(seed):
    """Seeded random plants with 2-6 states, linearized at u = 0 where
    F = A is stable: some loci cross the axis, the rest never do (inf)."""
    rng = np.random.default_rng(seed)
    sys = _random_plant(rng, 2 + seed % 5, -1.0, 1.0)
    _assert_limit_is_the_bisection(sys, _at_zero_input(sys))


def test_integral_gain_stability_limit_refuses_an_unstable_plant():
    """F with an eigenvalue at +0.5: the loop is unstable as k goes to 0+."""
    sys = hexreg.BilinearSystem(
        A=np.diag([0.5, -2.0]), B=np.zeros((2, 2)), b=np.array([1.0, 1.0]),
        E=np.zeros(2), C=np.array([1.0, 1.0]), D=np.eye(2), u_min=-1.0, u_max=1.0)
    with pytest.raises(hexreg.NotHurwitzError):
        hexreg.integral_gain_stability_limit(sys, _at_zero_input(sys))


def test_integral_gain_stability_limit_is_inf_for_one_state():
    """With one state, k H(lambda) / lambda is second order: the loop's
    roots keep the real part f / 2 < 0 at every gain, so the locus never
    reaches the imaginary axis."""
    sys = hexreg.BilinearSystem(
        A=np.array([[-1.5]]), B=np.array([[0.3]]), b=np.array([2.0]), E=np.array([0.4]),
        C=np.array([1.0]), D=np.eye(1), u_min=-1.0, u_max=1.0)
    art = _at_zero_input(sys)
    assert hexreg.integral_gain_stability_limit(sys, art) == np.inf
    assert analysis.spectral_abscissa(per_k_linearization(sys, art, 1e12)) < 0.0
