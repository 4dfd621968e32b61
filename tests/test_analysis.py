"""Assumption checks, monitors, and the linearized gain sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hexreg
from hexreg import analysis, kernels

from conftest import KELVIN, TABLE1, make_scenario


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
    """The assumption-1 sweep one input at a time: eigvals, pi_map, solve."""
    worst, gains, singular = -np.inf, [], 0
    for u in np.linspace(sys.u_min, sys.u_max, grid):
        F = sys.frozen(float(u))
        worst = max(worst, float(np.max(np.linalg.eigvals(F).real)))
        try:
            x = hexreg.pi_map(sys, float(u))
        except hexreg.SingularMatrixError:
            singular += 1
            continue
        gains.append(float(sys.C @ np.linalg.solve(F, sys.input_gain(x))))
    gains = np.array(gains)
    return {"hurwitz_margin": worst,
            "dc_gain_min_abs": float(np.min(np.abs(gains))) if gains.size else float("nan"),
            "dc_sign_constant": bool(gains.size) and singular == 0
            and bool(np.all(gains > 0.0) or np.all(gains < 0.0))}


def _a1_fields(rep):
    return {k: getattr(rep, k) for k in
            ("hurwitz_margin", "dc_gain_min_abs", "dc_sign_constant")}


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


def singular_frozen_system():
    """F_u = diag(u - 0.5, -1): exactly singular at the middle of the
    3-point input grid on [0, 1]."""
    return hexreg.BilinearSystem(
        A=np.diag([-0.5, -1.0]), B=np.diag([1.0, 0.0]), b=np.array([1.0, 1.0]),
        E=np.array([0.0, 0.5]), C=np.array([1.0, 1.0]), D=np.eye(2),
        u_min=0.0, u_max=1.0,
    )


def test_assumption1_counts_singular_frozen_matrix():
    """Without P, the singular grid point is left out of the gain minimum
    and revokes sign constancy."""
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


def test_assumption3_singular_frozen_matrix_raises():
    """With P, the same singular grid point is a numerical failure."""
    with pytest.raises(hexreg.SingularMatrixError):
        hexreg.assumption_report(singular_frozen_system(), np.eye(2), nu=1.0,
                                 eps=1e-3, u_grid=3, v_grid=3)


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

    monkeypatch.setattr(analysis, "pi_map", no_sweep)
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


def test_assumption3_hex_conservative(hexsys, table1):
    """On the exchanger the mu-term swamps the decay at these constants;
    the grid check reports the inequality infeasible with a definite
    positive residual.  Over the full deviation range the shifted DC gain
    changes sign, as verify --a3 reports."""
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
    assert rep.a3b_singular_points == 0
    assert 0.0 < rep.a3b_min_abs < rep.dc_gain_min_abs
    assert rep.a3b_min_abs == pytest.approx(2.2286, rel=1e-4)
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


@pytest.mark.parametrize("seed", range(15))
def test_assumption3a_matches_a_dense_input_grid(seed):
    """On seeded random 2-5-state plants with a random P, the report's
    A3(a) residual, taken at the two input bounds, is the largest of the
    block's top eigenvalue over 257 inputs."""
    rng = np.random.default_rng(seed)
    for n in range(2, 6):
        G = rng.standard_normal((n, n))
        sys = hexreg.BilinearSystem(
            A=G - (np.linalg.norm(G, 2) + 1.0) * np.eye(n), B=rng.standard_normal((n, n)),
            b=rng.standard_normal(n), E=rng.standard_normal(n), C=rng.standard_normal(n),
            D=np.eye(1, n), u_min=-0.2, u_max=0.3)
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


def a3b_per_pair(sys, grid, v_range):
    """The A3(b) sweep one (u, v) pair at a time: cond, then solve."""
    u_grid = np.linspace(sys.u_min, sys.u_max, grid[0])
    v_grid = np.linspace(v_range[0], v_range[1], grid[1])
    min_abs, singular, pos, neg = np.inf, 0, 0, 0
    for u in u_grid:
        F = sys.frozen(float(u))
        g_u = sys.input_gain(hexreg.pi_map(sys, float(u)))
        for v in v_grid:
            Fv = F + sys.B * float(v)
            cond = np.linalg.cond(Fv)
            if not np.isfinite(cond) or cond > 1e14:
                singular += 1
                continue
            val = float(sys.C @ np.linalg.solve(Fv, g_u))
            min_abs = min(min_abs, abs(val))
            pos += val > 0.0
            neg += val < 0.0
    sign_const = (pos == 0 or neg == 0) and singular == 0 and (pos + neg) > 0
    return {"a3b_min_abs": float(min_abs) if np.isfinite(min_abs) else float("nan"),
            "a3b_sign_constant": sign_const, "a3b_singular_points": singular}


def _a3b_fields(rep):
    return {k: getattr(rep, k) for k in
            ("a3b_min_abs", "a3b_sign_constant", "a3b_singular_points")}


def _full_range(sys):
    return (sys.u_min - sys.u_max, sys.u_max - sys.u_min)


def test_assumption3_v_zero_column_matches_a1(hexsys, table1):
    """At v = 0 the shifted map is the plain DC gain: the per-pair sweep on
    the v = 0 column gives the assumption-1 minimum bit for bit, and an odd
    deviation grid holds v = 0, so its minimum cannot exceed it."""
    want = a3b_per_pair(hexsys, (8, 2), (0.0, 0.0))["a3b_min_abs"]
    assert hexreg.assumption_report(hexsys, u_grid=8).dc_gain_min_abs == want
    assert np.linspace(*_full_range(hexsys), 17)[8] == 0.0
    P = hexreg.hex_analytic_P(table1)
    rep = hexreg.assumption_report(hexsys, P, nu=1.0, eps=1e-3, u_grid=8, v_grid=17)
    assert rep.dc_gain_min_abs == want
    assert rep.a3b_min_abs <= want


def test_assumption3b_matches_per_pair_sweep(hexsys, table1):
    """The stacked A3(b) sweep gives the per-pair loop's bits."""
    P = hexreg.hex_analytic_P(table1)
    rep = hexreg.assumption_report(hexsys, P, nu=1.0, eps=1e-3, u_grid=8, v_grid=17)
    _same_bits(_a3b_fields(rep), a3b_per_pair(hexsys, (8, 17), _full_range(hexsys)))
    assert rep.lmi.v_range == _full_range(hexsys)


def singular_pair_system(delta):
    """F_u + B v = blkdiag(u + v - 1 - delta, [[-2, 0.5], [0.3, -3]]) with
    u in [0, 0.5]: on the full deviation range [-0.5, 0.5] only the
    (u_max, v_max) corner comes near singular, of condition about
    3 / delta there (exactly singular at delta = 0)."""
    A = np.array([[-1.0 - delta, 0.0, 0.0], [0.0, -2.0, 0.5], [0.0, 0.3, -3.0]])
    return hexreg.BilinearSystem(
        A=A, B=np.diag([1.0, 0.0, 0.0]), b=np.array([1.0, 0.5, 0.0]),
        E=np.array([0.2, 1.0, 0.3]), C=np.array([1.0, 0.0, 1.0]), D=np.eye(3),
        u_min=0.0, u_max=0.5,
    )


@pytest.mark.parametrize("delta, cond_range, singular", [
    # inv raises on the stack that holds the singular corner
    pytest.param(0.0, (np.inf, np.inf), 1, id="exactly-singular"),
    # the bound cannot clear the corner, the exact cond (about 3e13) keeps it
    pytest.param(1e-13, (1e12, 1e14), 0, id="cond-3e13"),
    # the exact cond (about 3e15) refuses it
    pytest.param(1e-15, (1e14, 1e17), 1, id="cond-3e15"),
])
def test_assumption3b_screen_matches_cond(delta, cond_range, singular):
    """Singular and near-singular pairs get the per-pair cond verdict."""
    sys = singular_pair_system(delta)
    v_range = _full_range(sys)
    cond = np.linalg.cond(sys.frozen(sys.u_max) + sys.B * v_range[1])
    assert cond_range[0] <= cond <= cond_range[1]
    rep = hexreg.assumption_report(sys, np.eye(3), nu=1.0, eps=1e-3, u_grid=3, v_grid=5)
    want = a3b_per_pair(sys, (3, 5), v_range)
    _same_bits(_a3b_fields(rep), want)
    assert want["a3b_singular_points"] == singular


def test_assumption3b_screen_inverts_few_pairs(hexsys, table1, monkeypatch):
    """The 16-state plant's 256 x 513 A3(b) grid is screened from a few
    anchor inverses: counting every matrix that np.linalg.inv or cond
    takes, the 256 pi_map calls included, at most 1% of the 131 328 pairs
    get an inverse or a cond of their own."""
    taken = []
    for name in ("inv", "cond"):
        def counted(a, *args, _real=getattr(np.linalg, name), **kwargs):
            taken.append(int(np.prod(np.shape(a)[:-2])))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    P = hexreg.hex_analytic_P(table1)
    rep = hexreg.assumption_report(hexsys, P, nu=1.0, eps=1e-3, u_grid=256, v_grid=513)
    assert rep.a3b_singular_points == 0
    assert sum(taken) <= 0.01 * 256 * 513


def test_assumption_report_serializes(hexsys):
    rep = hexreg.assumption_report(hexsys, u_grid=8, v_grid=5)
    d = rep.to_dict()
    assert d["hurwitz_margin"] < 0.0
    assert "a3a_feasible" in d
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
    X, XH, Z, U_raw, U_sat, _, _, bad_step = kernels.closed_loop_rk4(scn, scn.x0, scn.x_hat0)
    assert bad_step == -1
    assert bool(np.any(U_raw != U_sat)) is saturates
    series = analysis.trajectory_monitors(scn, X, XH, Z)
    points = np.array([integral_only_point(hexsys, io_art, X[k], float(Z[k]))
                       for k in range(Z.shape[0])])
    assert Z.shape[0] > analysis._MONITOR_BLOCK
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
