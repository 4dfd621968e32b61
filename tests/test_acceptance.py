"""Acceptance gate: one test per shipped claim, at its stated tolerance.

Each criterion prints a single PASS/FAIL line (visible with -s; pytest -v
shows one PASSED/FAILED row per criterion either way) and carries its own
runtime budget, measured around the computational core.  The kernels are
plain numpy, with no compile step, so nothing needs warming before the
timed work.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import hexreg
from hexreg import analysis, sim
from hexreg.cli import main as cli_main

from conftest import KELVIN, make_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_saturation_inequality(hexsys):
    """10^4 random (s, b) with admissible b satisfy s(sat(b-s)-b) <= 0
    exactly, for both the rig's clamp and an asymmetric one."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = -np.inf
    for (lo, hi) in ((hexsys.u_min, hexsys.u_max), (-0.3, 1.7)):
        s = rng.normal(0.0, max(1.0, hi - lo), 5000)
        b = rng.uniform(lo, hi, 5000)
        gap = analysis.saturation_gap(s, b, lo, hi)
        worst = max(worst, float(np.max(gap)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.0 and elapsed < 1.0
    _report(1, ok, f"max gap {worst:.3e}, {elapsed:.2f} s")
    assert worst <= 0.0, f"saturation inequality violated: {worst:.3e}"
    assert elapsed < 1.0, f"runtime {elapsed:.2f} s over 1 s budget"


def test_criterion_02_frozen_family_hurwitz(hexsys):
    """Largest real eigenvalue part of A + uB stays negative at all 64
    grid points of the admissible input range."""
    t0 = time.perf_counter()
    margins = [
        float(np.max(np.real(np.linalg.eigvals(hexsys.frozen(u)))))
        for u in np.linspace(hexsys.u_min, hexsys.u_max, 64)
    ]
    worst = max(margins)
    elapsed = time.perf_counter() - t0
    # cross-check against the packaged sweep
    rep = hexreg.assumption_report(hexsys, u_grid=64)
    ok = worst < 0.0 and elapsed < 1.0
    _report(2, ok, f"worst margin {worst:.3e}, {elapsed:.2f} s")
    assert worst < 0.0, f"frozen family not Hurwitz: margin {worst:.3e}"
    assert rep.hurwitz_margin == pytest.approx(worst, rel=1e-9)
    assert elapsed < 1.0, f"runtime {elapsed:.2f} s over 1 s budget"


def test_criterion_03_steady_state_oracle(hexsys, eq02, fwd_art):
    """Open loop at constant u = 0.02 kg/s from a perturbed start lands on
    the algebraic equilibrium within 1e-6 K by t = 5000 s at dt = 0.05."""
    art02 = hexreg.forwarding_design(hexsys, eq02, k_p=1e-6, k_i=2.6e-5)
    target = hexreg.pi_map(hexsys, 0.02)
    rng = np.random.default_rng(3)
    x0 = target + rng.uniform(-5.0, 5.0, 16)
    scn = make_scenario(hexsys, art02, hexreg.PI, 5000.0, 0.05,
                        [[0.0, eq02.y_ss]], x0=x0, kp_pi=0.0, ki_pi=0.0)
    t0 = time.perf_counter()
    res = hexreg.run(scn)
    elapsed = time.perf_counter() - t0
    assert np.all(res.u_sat == 0.02)
    gap = float(np.max(np.abs(res.x[-1] - target)))
    ok = gap <= 1e-6 and elapsed < 10.0
    _report(3, ok, f"terminal gap {gap:.3e} K, {elapsed:.2f} s")
    assert gap <= 1e-6, f"open-loop endpoint {gap:.3e} K off the equilibrium"
    assert elapsed < 10.0, f"runtime {elapsed:.2f} s over 10 s budget"


def test_criterion_04_certificate_reverification(
        hexsys, fwd_art, io_art, synthetic_observable, synthetic_observer):
    """Independent eigen-checks of every artifact set produced here:
    Lyapunov residual <= 1e-8, output-row residual <= 1e-10, observer
    inequality largest eigenvalue <= 1e-9 and its expanded quadratic form
    below -2 eps I + 1e-8 I.

    Observer synthesis is infeasible for this plant (see criterion 6), so
    the observer half runs on the small feasible plant while the 16-state
    artifact sets cover the Lyapunov and output-row checks within the
    stated budget.
    """
    failures = []
    t0 = time.perf_counter()
    for tag, sys_, art in (("forwarding", hexsys, fwd_art),
                           ("integral_only", hexsys, io_art)):
        F = sys_.frozen(art.u_ss)
        lyap = float(np.max(np.abs(F.T @ art.P + art.P @ F + 2.0 * art.Upsilon)))
        mres = float(np.max(np.abs(art.M @ F - sys_.C)))
        if lyap > 1e-8:
            failures.append(f"{tag}: Lyapunov residual {lyap:.3e}")
        if mres > 1e-10:
            failures.append(f"{tag}: output-row residual {mres:.3e}")
        if np.min(np.linalg.eigvalsh(art.P)) <= 0.0:
            failures.append(f"{tag}: P not positive definite")
    hex_elapsed = time.perf_counter() - t0

    obs = synthetic_observer
    ssys = synthetic_observable
    n = ssys.n_states
    A_L = ssys.A - obs.L @ ssys.D
    top = (obs.Q @ A_L + A_L.T @ obs.Q
           + (obs.nu * obs.mu ** 2 + 2.0 * obs.eps) * np.eye(n))
    block = np.block([[top, obs.Q], [obs.Q, -obs.nu * np.eye(n)]])
    lmi_eig = float(np.max(np.linalg.eigvalsh(block)))
    if lmi_eig > 1e-9:
        failures.append(f"observer: block eigenvalue {lmi_eig:.3e}")
    schur = (obs.Q @ A_L + A_L.T @ obs.Q + obs.nu * obs.mu ** 2 * np.eye(n)
             + obs.Q @ obs.Q / obs.nu)
    schur_eig = float(np.max(np.linalg.eigvalsh(schur)))
    if schur_eig > -2.0 * obs.eps + 1e-8:
        failures.append(
            f"observer: expanded form {schur_eig:.3e} vs {-2.0 * obs.eps:.3e}")

    ok = not failures and hex_elapsed < 5.0
    _report(4, ok, f"lmi eig {lmi_eig:.2e}, 16-state checks {hex_elapsed:.2f} s")
    assert not failures, "; ".join(failures)
    assert hex_elapsed < 5.0, f"runtime {hex_elapsed:.2f} s over 5 s budget"


def test_criterion_05_forwarding_convergence_evidence(hexsys, fwd_art):
    """20 seeded initial conditions within +-20 K all reach |e| <= 1e-3 K
    under the forwarding law with k_p = 1e-6, k_i = 2.6e-5, and the energy
    monitor V never rises by more than 1e-8 (1 + V) per step.  The 20 runs
    go through hexreg.run_many as one batch; each is bit-identical to
    hexreg.run on its own scenario."""
    rng = np.random.default_rng(5)
    r = 26.5 + KELVIN
    t0 = time.perf_counter()
    scns = [make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 3000.0, 0.05,
                          [[0.0, r]],
                          x0=fwd_art.x_ss + rng.uniform(-20.0, 20.0, 16))
            for _ in range(20)]
    results = hexreg.run_many(scns)
    worst_e = max(float(abs(res.e[-1])) for res in results)
    worst_viol = max(analysis.max_monotone_violation(res.monitors["V"])
                     for res in results)
    elapsed = time.perf_counter() - t0
    ok = worst_e <= 1e-3 and worst_viol <= 1e-8 and elapsed < 60.0
    _report(5, ok, f"worst |e| {worst_e:.2e} K, worst V rise {worst_viol:.2e}, "
                   f"{elapsed:.1f} s")
    assert worst_e <= 1e-3, f"a run ended {worst_e:.3e} K from the reference"
    assert worst_viol <= 1e-8, f"V monitor rose by {worst_viol:.3e}"
    assert elapsed < 60.0, f"runtime {elapsed:.1f} s over 60 s budget"


def test_criterion_06_output_feedback_replication(hexsys5):
    """Reference schedule 26.5 -> 25 (180 s) -> 27 C (600 s) with a +0.5 C
    output disturbance at 950 s under the output-feedback law: zero
    steady-state error before each event, admissible input throughout,
    observer error decaying in the Q-metric.

    The run needs observer gains first, and for this plant the observer
    inequality has no feasible point for any gain: it requires
    sigma_min(A - LD) > mu = ||B|| u_max, yet a rank-5 output injection
    cannot lift sigma_11(A) = 0.033 anywhere near mu = 1.954 (even
    sigma_1(A) = 0.242 falls short).  The synthesis step therefore raises,
    and this criterion records that honestly rather than substituting a
    different design.  configs/experiment1.json documents the intended
    scenario; criterion 4 carries the observer certificate checks on a
    plant where synthesis succeeds.
    """
    try:
        obs = hexreg.observer_design(hexsys5)
    except hexreg.InfeasibleError as err:
        _report(6, False, "observer synthesis infeasible for every gain")
        pytest.fail(
            "output-feedback replication is unattainable on this plant: "
            f"{err} (certified witness, not a solver shortfall)"
        )
    # unreachable on this plant; kept for a future feasible variant
    art = hexreg.forwarding_design(
        hexsys5, hexreg.invert_reference(hexsys5, 26.5 + KELVIN),
        k_p=1e-6, k_i=2.6e-5)
    art.observer = obs
    scn = sim.load_scenario(CONFIGS / "experiment1.json", hexsys5, art)
    res = hexreg.run(scn)
    for t_event in (180.0, 600.0, 950.0, scn.t_end):
        k = int(round(t_event / scn.dt)) - 1
        assert abs(res.e[k]) <= 0.01
    assert np.all(res.u_sat >= hexsys5.u_min - 1e-12)
    assert np.all(res.u_sat <= hexsys5.u_max + 1e-12)
    assert analysis.max_monotone_violation(res.monitors["U"]) <= 1e-6


def test_criterion_07_windup_comparison(hexsys, fwd_art):
    """Shared schedule 26.5 -> 26 (240 s) -> 28 (550 s) -> 24.4 C (900 s):
    the forwarding law never leaves the admissible input range, while the
    PI baseline with no anti-windup saturates after the final step and
    stays more than 0.1 K off for at least 300 s."""
    scn_ours = sim.load_scenario(CONFIGS / "experiment2.json", hexsys, fwd_art)
    scn_pi = sim.load_scenario(CONFIGS / "experiment2_pi.json", hexsys, fwd_art)
    t0 = time.perf_counter()
    rep = hexreg.compare_pi(scn_ours, scn_pi)
    elapsed = time.perf_counter() - t0
    duty_ours = rep["ours"]["sat_duty"]
    duty_pi_post = rep["pi"]["post_last_step"]["sat_duty"]
    pi_time_off = rep["pi"]["post_last_step"]["time_abs_error_gt_0p1"]
    ok = (duty_ours == 0.0 and duty_pi_post > 0.0 and pi_time_off >= 300.0
          and elapsed < 30.0)
    _report(7, ok, f"ours duty {duty_ours:.3f}, pi post duty "
                   f"{duty_pi_post:.3f}, pi off {pi_time_off:.0f} s, "
                   f"{elapsed:.1f} s")
    assert duty_ours == 0.0, f"proposed law saturated (duty {duty_ours:.3f})"
    assert duty_pi_post > 0.0, "PI baseline never saturated after the step"
    assert pi_time_off >= 300.0, \
        f"PI recovered too quickly ({pi_time_off:.0f} s off)"
    assert elapsed < 30.0, f"runtime {elapsed:.1f} s over 30 s budget"


def test_criterion_08_integral_only_law(hexsys, io_art):
    """At half the certified gain bound the pure-integral loop converges
    to |e| <= 1e-3 K, its linearization is Hurwitz, and the certified
    bound sits below the bisection-located stability limit."""
    r = 26.5 + KELVIN
    x0 = hexreg.invert_reference(hexsys, 26.0 + KELVIN).x_ss
    scn = make_scenario(hexsys, io_art, hexreg.INTEGRAL_ONLY, 60000.0, 1.0,
                        [[0.0, r]], x0=x0)
    t0 = time.perf_counter()
    res = hexreg.run(scn)
    A_cl = hexreg.linearization_matrix(hexsys, io_art, io_art.k_i)
    abscissa = analysis.spectral_abscissa(A_cl)
    limit = hexreg.integral_gain_stability_limit(hexsys, io_art)
    elapsed = time.perf_counter() - t0
    e_end = float(abs(res.e[-1]))
    ok = (e_end <= 1e-3 and abscissa < 0.0 and io_art.ki_star <= limit
          and elapsed < 30.0)
    _report(8, ok, f"|e| {e_end:.2e} K, abscissa {abscissa:.2e}, "
                   f"ki* {io_art.ki_star:.3e} <= limit {limit:.3e}, "
                   f"{elapsed:.1f} s")
    assert e_end <= 1e-3, f"integral-only loop ended {e_end:.3e} K off"
    assert abscissa < 0.0, f"linearization not Hurwitz ({abscissa:.3e})"
    assert io_art.ki_star <= limit, \
        f"certified bound {io_art.ki_star:.3e} above empirical {limit:.3e}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f} s over 30 s budget"


def test_criterion_09_integrator_convergence_order(hexsys, io_art):
    """Richardson ratio |x_dt - x_dt/2| / |x_dt/2 - x_dt/4| of final
    states on a smooth closed-loop run lies in [12, 20]."""
    r = 26.5 + KELVIN
    x0 = hexreg.invert_reference(hexsys, 25.0 + KELVIN).x_ss

    def final_state(dt):
        scn = make_scenario(hexsys, io_art, hexreg.INTEGRAL_ONLY, 40.0, dt,
                            [[0.0, r]], x0=x0)
        res = hexreg.run(scn)
        # the run must stay interior: clamping would break smoothness
        assert res.u_raw.min() > hexsys.u_min
        assert res.u_raw.max() < hexsys.u_max
        return res.x[-1]

    t0 = time.perf_counter()
    xa, xb, xc = final_state(1.0), final_state(0.5), final_state(0.25)
    elapsed = time.perf_counter() - t0
    ratio = float(np.linalg.norm(xa - xb) / np.linalg.norm(xb - xc))
    ok = 12.0 <= ratio <= 20.0 and elapsed < 30.0
    _report(9, ok, f"ratio {ratio:.2f}, {elapsed:.2f} s")
    assert 12.0 <= ratio <= 20.0, f"Richardson ratio {ratio:.2f} not in [12, 20]"
    assert elapsed < 30.0, f"runtime {elapsed:.2f} s over 30 s budget"


def test_criterion_10_determinism(tmp_path):
    """Repeated simulate invocations, through the real command line entry
    point, produce byte-identical CSV and metrics files."""
    sys_path = tmp_path / "hex.json"
    art_path = tmp_path / "art.json"
    assert cli_main(["build-model", str(CONFIGS / "hex_table1.json"),
                     "--out", str(sys_path)]) == 0
    assert cli_main(["design", str(sys_path), "--law", "forwarding",
                     "--ref", "26.5", "--units", "C",
                     "--out", str(art_path)]) == 0
    outs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        rc = cli_main(["simulate", str(sys_path), str(art_path),
                       str(CONFIGS / "experiment2.json"), "--out", str(out)])
        assert rc == 0
        outs.append(out)
    csv_a = (outs[0] / "experiment2.csv").read_bytes()
    csv_b = (outs[1] / "experiment2.csv").read_bytes()
    met_a = (outs[0] / "experiment2.metrics.json").read_bytes()
    met_b = (outs[1] / "experiment2.metrics.json").read_bytes()
    ok = csv_a == csv_b and met_a == met_b
    _report(10, ok, f"{len(csv_a)} CSV bytes compared equal" if ok
            else "outputs differ")
    assert csv_a == csv_b, "CSV outputs differ between identical runs"
    assert met_a == met_b, "metrics outputs differ between identical runs"
