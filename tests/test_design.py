"""Design-time synthesis: Lyapunov solves, gains, observer feasibility."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import hexreg
from hexreg import design

from conftest import KELVIN, TABLE1


def scalar_system(A=-1.0, B=0.0, b=1.0, C=1.0, E=0.0, u_min=-2.0, u_max=2.0):
    return hexreg.BilinearSystem(
        A=np.array([[A]]), B=np.array([[B]]), b=np.array([b]),
        E=np.array([E]), C=np.array([C]), D=np.array([[1.0]]),
        u_min=u_min, u_max=u_max,
    )


# -- Lyapunov ---------------------------------------------------------------


def test_solve_lyapunov_identity():
    P = hexreg.solve_lyapunov(-np.eye(3), np.eye(3))
    assert np.allclose(P, np.eye(3), atol=1e-12)


def test_solve_lyapunov_diagonal():
    P = hexreg.solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
    assert np.allclose(P, np.diag([1.0, 0.5]), atol=1e-12)


def test_solve_lyapunov_hex_kronecker_oracle(hexsys):
    """Independent dense solve of the vectorized equation."""
    F = hexsys.frozen(0.02)
    P = hexreg.solve_lyapunov(F, np.eye(16))
    n = 16
    K = np.kron(np.eye(n), F.T) + np.kron(F.T, np.eye(n))
    vec = np.linalg.solve(K, (-2.0 * np.eye(n)).reshape(-1))
    P_ref = vec.reshape(n, n)
    assert np.max(np.abs(P - P_ref)) <= 1e-8 * np.max(np.abs(P_ref))
    evals = np.linalg.eigvalsh(P)
    assert evals[0] > 0.0
    resid = F.T @ P + P @ F + 2.0 * np.eye(n)
    assert np.max(np.abs(resid)) <= 1e-8


def test_solve_lyapunov_rejects_unstable():
    with pytest.raises(hexreg.NotHurwitzError):
        hexreg.solve_lyapunov(np.array([[1.0]]), np.eye(1))


def test_solve_lyapunov_rejects_bad_upsilon():
    with pytest.raises(ValueError):
        hexreg.solve_lyapunov(-np.eye(2), np.diag([1.0, -1.0]))


# -- analytic P for the exchanger -------------------------------------------


def test_hex_analytic_P_equal_volumes():
    p = hexreg.HexParams(**{**TABLE1, "V_hot": 7.07e-04})
    assert np.array_equal(hexreg.hex_analytic_P(p), np.eye(16))


def test_hex_analytic_P_table1(table1, hexsys):
    P = hexreg.hex_analytic_P(table1)
    ratio = table1.V_cold / table1.V_hot
    assert np.array_equal(P, np.diag([1.0] * 8 + [ratio] * 8))
    margin = hexreg.lyapunov_decay_margin(hexsys, P, grid=64)
    assert margin > 0.0


def test_decay_margin_does_not_depend_on_grid(hexsys, table1):
    """-lambda_max(P F_u + F_u^T P) / 2 is concave in u, so its minimum sits
    at an input bound and every grid holding both bounds finds it.  This is
    why integral_only_design fixes its margin grid."""
    P = hexreg.hex_analytic_P(table1)
    margins = [hexreg.lyapunov_decay_margin(hexsys, P, grid=g) for g in (2, 3, 64, 256)]
    at_bounds = []
    for u in (hexsys.u_min, hexsys.u_max):
        F = hexsys.frozen(u)
        at_bounds.append(-np.linalg.eigvalsh(P @ F + F.T @ P)[-1] / 2.0)
    assert margins == [min(at_bounds)] * 4


def test_hex_analytic_P_single_cell_closed_form():
    """For one compartment pair, P F_u + F_u^T P is 2x2; strict negativity
    is equivalent to a positive determinant given a negative trace."""
    p = hexreg.HexParams(**{**TABLE1, "n_cells": 1})
    sys = hexreg.build_hex(p)
    P = hexreg.hex_analytic_P(p)
    for u in np.linspace(p.u_min, p.u_max, 9):
        Q = P @ sys.frozen(u) + sys.frozen(u).T @ P
        assert np.trace(Q) < 0.0
        assert np.linalg.det(Q) > 0.0
        assert np.max(np.linalg.eigvalsh(Q)) < 0.0


# -- forwarding design ------------------------------------------------------


def test_forwarding_design_invariants(hexsys, fwd_art):
    F = hexsys.frozen(fwd_art.u_ss)
    lyap_resid = F.T @ fwd_art.P + fwd_art.P @ F + 2.0 * fwd_art.Upsilon
    assert np.max(np.abs(lyap_resid)) <= 1e-8
    m_resid = fwd_art.M @ F - hexsys.C
    assert np.max(np.abs(m_resid)) <= 1e-10
    assert np.min(np.linalg.eigvalsh(fwd_art.P)) > 0.0
    assert fwd_art.k_p == 1e-6 and fwd_art.k_i == 2.6e-5
    assert fwd_art.sign_dc in (-1.0, 1.0)


def test_forwarding_design_scalar_closed_form():
    sys = scalar_system()
    eq = hexreg.equilibrium_at(sys, 1.0)
    art = hexreg.forwarding_design(sys, eq, k_p=1.0, k_i=1.0)
    # F = -1, so M = C F^-1 = -1 and P solves -2P = -2 Upsilon
    assert art.M[0] == pytest.approx(-1.0)
    assert np.allclose(art.P, art.Upsilon)


def test_forwarding_design_rejects_nonpositive_gains(hexsys, eq265):
    with pytest.raises(ValueError):
        hexreg.forwarding_design(hexsys, eq265, k_p=0.0, k_i=1e-5)
    with pytest.raises(ValueError):
        hexreg.forwarding_design(hexsys, eq265, k_p=1e-6, k_i=-1.0)


def test_forwarding_design_zero_dc_gain():
    # C annihilates F^-1 g, killing the integrator's path to the output
    sys = hexreg.BilinearSystem(
        A=-np.eye(2), B=np.zeros((2, 2)), b=np.array([0.0, 1.0]),
        E=np.zeros(2), C=np.array([1.0, 0.0]), D=np.eye(2),
        u_min=-1.0, u_max=1.0,
    )
    eq = hexreg.equilibrium_at(sys, 0.5)
    with pytest.raises(hexreg.ZeroDCGainError):
        hexreg.forwarding_design(sys, eq, k_p=1.0, k_i=1.0)


# -- observer ---------------------------------------------------------------


def independent_lmi_eigenvalues(sys, obs):
    """Rebuild the block inequality from scratch and return its spectrum."""
    n = sys.n_states
    A_L = sys.A - obs.L @ sys.D
    top = (obs.Q @ A_L + A_L.T @ obs.Q
           + (obs.nu * obs.mu ** 2 + 2.0 * obs.eps) * np.eye(n))
    block = np.block([[top, obs.Q], [obs.Q, -obs.nu * np.eye(n)]])
    return np.linalg.eigvalsh(block)


def test_robust_decay_block_layout():
    S = np.array([[-3.0, 1.0], [1.0, -2.0]])
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    nu, eps, mu = 0.5, 0.25, 2.0
    shift = nu * mu * mu + 2.0 * eps  # 2.5
    want = np.array([
        [-3.0 + shift, 1.0, 2.0, 0.5],
        [1.0, -2.0 + shift, 0.5, 1.0],
        [2.0, 0.5, -nu, 0.0],
        [0.5, 1.0, 0.0, -nu],
    ])
    assert np.array_equal(design.robust_decay_block(S, Q, nu, eps, mu), want)


def test_observer_design_trivial_feasible():
    sys = hexreg.BilinearSystem(
        A=-np.eye(2), B=np.zeros((2, 2)), b=np.zeros(2), E=np.zeros(2),
        C=np.array([1.0, 0.0]), D=np.eye(2), u_min=-1.0, u_max=1.0,
    )
    obs = hexreg.observer_design(sys)
    assert obs.mu == 0.0
    assert obs.lmi_residual <= 0.0
    assert np.max(independent_lmi_eigenvalues(sys, obs)) <= 1e-9


def test_observer_design_synthetic_feasible(synthetic_observable,
                                            synthetic_observer):
    sys, obs = synthetic_observable, synthetic_observer
    assert obs.mu == pytest.approx(0.05)
    assert obs.lmi_residual <= 0.0
    assert np.max(independent_lmi_eigenvalues(sys, obs)) <= 1e-9
    # the Schur-reduced form must hold as well: Q A_L + A_L^T Q
    # + nu mu^2 I + Q Q / nu <= -2 eps I
    A_L = sys.A - obs.L @ sys.D
    schur = (obs.Q @ A_L + A_L.T @ obs.Q
             + obs.nu * obs.mu ** 2 * np.eye(3)
             + obs.Q @ obs.Q / obs.nu)
    assert np.max(np.linalg.eigvalsh(schur)) <= -2.0 * obs.eps + 1e-8
    # and the error decay it certifies must be real: A - LD Hurwitz
    assert np.max(np.real(np.linalg.eigvals(A_L))) < 0.0


def test_observer_design_unobservable_pair():
    sys = hexreg.BilinearSystem(
        A=np.zeros((2, 2)), B=np.zeros((2, 2)), b=np.zeros(2),
        E=np.zeros(2), C=np.array([1.0, 0.0]),
        D=np.array([[1.0, 0.0]]), u_min=-1.0, u_max=1.0,
    )
    with pytest.raises(hexreg.NotObservableError):
        hexreg.observer_design(sys)


def test_observer_design_hex_single_sensor_unobservable(hexsys):
    # one cold-outlet thermocouple cannot distinguish all 16 cells
    with pytest.raises(hexreg.NotObservableError):
        hexreg.observer_design(hexsys)


def test_gain_rank_obstruction_hex(hexsys5):
    """Five averaged sensors leave the inequality infeasible for every L.

    Feasibility forces sigma_min(A - LD) > mu, but a rank-5 update can
    only lift the 11th singular value of A, which sits far below mu.
    """
    witness = hexreg.gain_rank_obstruction(hexsys5)
    assert witness is not None
    svals = np.linalg.svd(hexsys5.A, compute_uv=False)
    assert witness == pytest.approx(svals[10], rel=1e-12)
    mu = design.input_coupling_bound(hexsys5)
    assert witness < mu
    # even the largest singular value of A is below mu here
    assert svals[0] < mu


def test_gain_rank_obstruction_absent_on_feasible(synthetic_observable):
    assert hexreg.gain_rank_obstruction(synthetic_observable) is None


def test_observer_design_hex_five_sensors_infeasible(hexsys5):
    with pytest.raises(hexreg.InfeasibleError, match="every gain"):
        hexreg.observer_design(hexsys5)
    try:
        hexreg.observer_design(hexsys5)
    except hexreg.InfeasibleError as err:
        assert err.best_residual > 0.0
        assert "sigma" in str(err)


# -- integral-only design ---------------------------------------------------


def test_integral_gain_bound_constant_pi_bar():
    """With B = 0, |dpi/du| = |A^-1 b| is input-independent, so the bound
    collapses to its closed form."""
    sys = scalar_system(A=-2.0, B=0.0, b=1.0, C=3.0, E=0.0)
    P = np.array([[4.0]])
    eps = 1.0
    ki_star, pi_bar = hexreg.integral_gain_bound(sys, P, eps)
    # |A^-1 b| = 1/2, |C| = 3, sqrt(pl pu) = 4
    assert pi_bar == pytest.approx(0.5, rel=1e-12)
    assert ki_star == pytest.approx(1.0 / (3.0 * 3.0 * 0.5 * 4.0), rel=1e-12)


def test_integral_gain_bound_scalar_unit():
    ki_star, pi_bar = hexreg.integral_gain_bound(scalar_system(), np.eye(1), 1.0)
    assert (ki_star, pi_bar) == (pytest.approx(1.0 / 3.0), pytest.approx(1.0))


def test_integral_only_design_hex(io_art):
    # regression constants from the first certified computation
    assert io_art.ki_star == pytest.approx(2.7674653127751775e-07, rel=1e-9)
    assert io_art.k_i == pytest.approx(0.5 * io_art.ki_star, rel=1e-12)
    assert io_art.eps_frozen == pytest.approx(1.15577e-2, rel=1e-3)
    assert io_art.sign_dc == 1.0
    assert io_art.pi_bar is not None and io_art.pi_bar > 0.0
    assert io_art.k_p == 0.0


def test_integral_only_design_explicit_gain(hexsys, eq265, table1):
    art = hexreg.integral_only_design(hexsys, eq265, k_i=1e-7,
                                      hex_params=table1)
    assert art.k_i == 1e-7
    with pytest.raises(ValueError):
        hexreg.integral_only_design(hexsys, eq265, k_i=-1e-7,
                                    hex_params=table1)


def test_integral_only_design_warns_above_bound(hexsys, eq265, table1, io_art):
    for k_i in (io_art.ki_star, 2.0 * io_art.ki_star):
        with pytest.warns(hexreg.GainAboveBoundWarning):
            art = hexreg.integral_only_design(hexsys, eq265, k_i=k_i,
                                              hex_params=table1)
        assert art.ki_star == io_art.ki_star
    # the default gain, half the bound, is certified and stays silent
    with warnings.catch_warnings():
        warnings.simplefilter("error", hexreg.GainAboveBoundWarning)
        hexreg.integral_only_design(hexsys, eq265, hex_params=table1)


# -- DC gain sign -----------------------------------------------------------


def test_sign_dc_gain_scalar():
    sys = scalar_system()
    eq = hexreg.equilibrium_at(sys, 0.0)
    # C F^-1 g = 1 * (-1) * 1 = -1
    assert hexreg.sign_dc_gain(sys, eq) == -1.0


def test_sign_dc_gain_negated_output():
    sys = scalar_system(C=-1.0)
    eq = hexreg.equilibrium_at(sys, 0.0)
    assert hexreg.sign_dc_gain(sys, eq) == 1.0


def test_sign_dc_gain_hex_constant_over_grid(hexsys):
    signs = set()
    for u in np.linspace(hexsys.u_min + 1e-4, hexsys.u_max, 33):
        signs.add(hexreg.sign_dc_gain(hexsys, hexreg.equilibrium_at(hexsys, u)))
    assert signs == {1.0}


def test_pi_shift_sup_positive(hexsys):
    assert hexreg.pi_shift_sup(hexsys) > 0.0


def test_pi_shift_sup_matches_per_point_sweep(hexsys):
    """The stacked sweep gives the bits of one cond, two solves and one
    norm per input, refined by the same golden-section search."""
    from hexreg.design import _golden_section_max

    lo, hi = hexsys.u_min, hexsys.u_max

    def magnitude(u):
        F = hexsys.A + hexsys.B * u
        assert np.linalg.cond(F) <= 1e14
        y = np.linalg.solve(F, hexsys.b * u + hexsys.E)
        return float(np.linalg.norm(np.linalg.solve(F, hexsys.b - hexsys.B @ y)))

    grid = np.linspace(lo, hi, 512)
    vals = np.array([magnitude(u) for u in grid])
    i = int(np.argmax(vals))
    _, peak = _golden_section_max(magnitude, grid[max(i - 1, 0)],
                                  grid[min(i + 1, 511)], 1e-10 * (1.0 + hi - lo))
    want = float(max(peak, vals[i]))
    # a fresh plant, so that the sweep runs rather than return a kept value
    got = hexreg.pi_shift_sup(replace(hexsys))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_pi_shift_sup_refines_a_peak_between_grid_inputs():
    """F_u = [[-e, u - c], [c - u, -e]] with E = (1, 0) gives
    pi_1 + i pi_2 = 1 / (e + i (u - c)), so |dpi/du| = 1 / (e^2 + (u - c)^2)
    peaks at 1/e^2 at u = c.  c = 1/2 sits midway between two of the 512
    grid inputs on [0, 1], where the value is about half the peak; the
    golden section recovers the peak."""
    e, c = 1e-3, 0.5
    sys = hexreg.BilinearSystem(
        A=np.array([[-e, -c], [c, -e]]), B=np.array([[0.0, 1.0], [-1.0, 0.0]]),
        b=np.zeros(2), E=np.array([1.0, 0.0]), C=np.array([1.0, 0.0]), D=np.eye(2),
        u_min=0.0, u_max=1.0,
    )
    grid = np.linspace(0.0, 1.0, 512)
    on_grid = float(np.max(1.0 / (e * e + (grid - c) ** 2)))
    assert on_grid < 0.6 / (e * e)
    assert hexreg.pi_shift_sup(sys) == pytest.approx(1.0 / (e * e), rel=1e-9)


def test_pi_shift_sup_refuses_singular_shift():
    """F_u = u - 1 is singular at u = 1, the top of the input interval.
    A call that raises keeps nothing, so the next one raises again."""
    sys = scalar_system(A=-1.0, B=1.0, u_min=0.0, u_max=1.0)
    for _ in range(2):
        with pytest.raises(hexreg.SingularMatrixError, match=r"singular at u = 1\.0\b"):
            hexreg.pi_shift_sup(sys)
        assert sys._pi_bar is None


def test_pi_shift_sup_sweeps_once_per_plant(hexsys, monkeypatch):
    """The first call on a plant keeps pi_bar on it; the second makes no
    solve and returns the same bits.  dataclasses.replace starts afresh."""
    solves = []

    def counted(*args, _real=np.linalg.solve):
        solves.append(1)
        return _real(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    sys = replace(hexsys)
    assert sys._pi_bar is None
    first = hexreg.pi_shift_sup(sys)
    assert solves and sys._pi_bar == first
    solves.clear()
    assert np.float64(hexreg.pi_shift_sup(sys)).tobytes() == np.float64(first).tobytes()
    assert solves == []
    assert replace(sys)._pi_bar is None


def test_certified_gain_is_one_number_for_every_reference(hexsys, table1):
    """pi_bar and ki_star depend on the plant and P alone: the designs at
    25.5 to 27.0 C share them to the bit."""
    designs = [hexreg.integral_only_design(hexsys, hexreg.invert_reference(hexsys, t + KELVIN),
                                           hex_params=table1)
               for t in (25.5, 26.0, 26.5, 27.0)]
    assert len({art.pi_bar for art in designs}) == 1
    assert len({art.ki_star for art in designs}) == 1
    assert designs[0].pi_bar == pytest.approx(3713.15156706538, rel=1e-13)


# -- serialization ----------------------------------------------------------


def test_artifacts_round_trip(tmp_path, fwd_art):
    path = tmp_path / "art.json"
    hexreg.save_artifacts(path, fwd_art)
    back = hexreg.load_artifacts(str(path))
    assert back.u_ss == fwd_art.u_ss
    assert np.array_equal(back.P, fwd_art.P)
    assert np.array_equal(back.M, fwd_art.M)
    assert back.observer is None
    assert back.ki_star is None


def test_artifacts_round_trip_with_observer(tmp_path, synthetic_observable,
                                            synthetic_observer):
    sys = synthetic_observable
    eq = hexreg.equilibrium_at(sys, 0.0)
    art = hexreg.forwarding_design(sys, eq, k_p=0.5, k_i=0.2)
    art.observer = synthetic_observer
    path = tmp_path / "art_obs.json"
    hexreg.save_artifacts(path, art)
    back = hexreg.load_artifacts(str(path))
    assert back.observer is not None
    assert np.array_equal(back.observer.L, synthetic_observer.L)
    assert back.observer.lmi_residual == synthetic_observer.lmi_residual


@pytest.mark.parametrize("field, value", [
    ("u_ss", float("nan")), ("x_ss", float("inf")), ("P", float("nan")),
    ("Upsilon", float("-inf")), ("M", float("nan")), ("k_p", float("inf")),
    ("k_i", float("nan")), ("sign_dc", float("-inf")),
    ("ki_star", float("inf")), ("pi_bar", float("nan")),
    ("eps_frozen", float("inf")), ("observer.L", float("nan")),
    ("observer.Q", float("inf")), ("observer.Y", float("-inf")),
    ("observer.nu", float("nan")), ("observer.eps", float("inf")),
    ("observer.mu", float("nan")), ("observer.lmi_residual", float("inf")),
])
def test_artifacts_reject_nonfinite_numbers(io_art, synthetic_observer,
                                            field, value):
    """One non-finite entry in any numeric field is malformed input."""
    data = design.artifacts_to_dict(replace(io_art, observer=synthetic_observer))
    design.artifacts_from_dict(data)
    *outer, key = field.split(".")
    holder = data[outer[0]] if outer else data
    entries = np.array(holder[key], dtype=np.float64)
    entries.flat[-1] = value
    holder[key] = entries.tolist()
    with pytest.raises(ValueError, match=rf"^{field} must be finite$"):
        design.artifacts_from_dict(data)
