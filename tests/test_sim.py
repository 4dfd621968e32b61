"""Scenario parsing, closed-loop runs, metrics, CSV output."""

import contextlib
import os
import sys
import threading
import warnings

import numpy as np
import pytest

import hexreg
from hexreg import analysis, kernels, sim
from hexreg.serde import dumps_json

from conftest import KELVIN, both_loops, make_scenario, one_start, per_step_nonfinite


def base_dict(**over):
    d = {
        "units": "C",
        "law": "forwarding",
        "t_end": 10.0,
        "dt": 0.1,
        "reference_schedule": [[0.0, 26.5]],
    }
    d.update(over)
    return d


# -- scenario validation ----------------------------------------------------


def test_scenario_minimal(hexsys, fwd_art):
    scn = hexreg.scenario_from_dict(base_dict(), hexsys, fwd_art)
    assert scn.law == "forwarding"
    assert scn.ref_v[0] == pytest.approx(26.5 + KELVIN)
    # x0 defaults to the equilibrium of the first reference
    assert np.allclose(scn.x0, hexreg.invert_reference(
        hexsys, 26.5 + KELVIN).x_ss)


def test_scenario_without_x0_sweeps_reachable_set_once(table1, fwd_art, monkeypatch):
    """The reference check's reachable set also serves the x0 inversion:
    on a fresh plant it is decided once and kept."""
    from hexreg import steady_state

    calls = []
    keep = steady_state.reachable_set

    def counted(sys_):
        calls.append(sys_._reachable is None)
        return keep(sys_)

    monkeypatch.setattr(steady_state, "reachable_set", counted)
    monkeypatch.setattr(sim, "reachable_set", counted)
    hexreg.scenario_from_dict(base_dict(), hexreg.build_hex(table1), fwd_art)
    assert calls.count(True) == 1


def test_scenarios_on_one_plant_share_one_sweep(table1, fwd_art, monkeypatch):
    """Twenty scenarios with x0 on one plant solve pi no more often than
    one reachable set does: one stacked call."""
    from hexreg import steady_state

    calls = []
    stacked = steady_state._equilibria

    def counted(*args, **kwargs):
        calls.append(args)
        return stacked(*args, **kwargs)

    monkeypatch.setattr(steady_state, "_equilibria", counted)
    hexreg.reachable_set(hexreg.build_hex(table1))
    assert len(calls) == 1
    calls.clear()
    plant = hexreg.build_hex(table1)
    data = base_dict(x0=(fwd_art.x_ss - KELVIN).tolist())
    for _ in range(20):
        hexreg.scenario_from_dict(data, plant, fwd_art)
    assert len(calls) == 1


def test_scenario_kelvin_units(hexsys, fwd_art):
    scn = hexreg.scenario_from_dict(
        base_dict(units="K", reference_schedule=[[0.0, 299.65]]),
        hexsys, fwd_art)
    assert scn.ref_v[0] == pytest.approx(299.65)


def test_scenario_disturbance_not_offset(hexsys, fwd_art):
    # disturbances are deltas; unit conversion must leave them alone
    scn = hexreg.scenario_from_dict(
        base_dict(output_disturbance=[[5.0, 0.5]]), hexsys, fwd_art)
    assert scn.dist_v[0] == 0.5


def test_scenario_rejects_unknown_keys(hexsys, fwd_art):
    with pytest.raises(ValueError, match="unknown scenario"):
        hexreg.scenario_from_dict(base_dict(speed=11), hexsys, fwd_art)


def test_scenario_rejects_missing_required(hexsys, fwd_art):
    d = base_dict()
    del d["reference_schedule"]
    with pytest.raises(ValueError, match=r"missing scenario fields: \['reference_schedule'\]"):
        hexreg.scenario_from_dict(d, hexsys, fwd_art)


def test_scenario_rejects_empty_schedule(hexsys, fwd_art):
    with pytest.raises(ValueError):
        hexreg.scenario_from_dict(base_dict(reference_schedule=[]),
                                  hexsys, fwd_art)


def test_scenario_rejects_late_start(hexsys, fwd_art):
    with pytest.raises(ValueError, match="start at t = 0"):
        hexreg.scenario_from_dict(
            base_dict(reference_schedule=[[1.0, 26.5]]), hexsys, fwd_art)


def test_scenario_rejects_unsorted_schedule(hexsys, fwd_art):
    with pytest.raises(ValueError):
        hexreg.scenario_from_dict(
            base_dict(reference_schedule=[[0.0, 26.5], [5.0, 26.0],
                                          [3.0, 27.0]]),
            hexsys, fwd_art)


def test_scenario_rejects_schedule_past_end(hexsys, fwd_art):
    with pytest.raises(ValueError, match="within"):
        hexreg.scenario_from_dict(
            base_dict(output_disturbance=[[99.0, 0.5]]), hexsys, fwd_art)


def test_scenario_rejects_fractional_step_count(hexsys, fwd_art):
    with pytest.raises(ValueError, match="integer multiple"):
        hexreg.scenario_from_dict(base_dict(t_end=10.0, dt=0.3),
                                  hexsys, fwd_art)


def test_scenario_rejects_unreachable_reference(hexsys, fwd_art):
    with pytest.raises(hexreg.ReferenceUnreachableError):
        hexreg.scenario_from_dict(
            base_dict(reference_schedule=[[0.0, 80.0]]), hexsys, fwd_art)


def test_scenario_pi_gain_rules(hexsys, fwd_art):
    with pytest.raises(ValueError, match="only valid with the pi law"):
        hexreg.scenario_from_dict(base_dict(kp_pi=-0.01), hexsys, fwd_art)
    with pytest.raises(ValueError, match="requires ki_pi"):
        hexreg.scenario_from_dict(base_dict(law="pi"), hexsys, fwd_art)
    scn = hexreg.scenario_from_dict(
        base_dict(law="pi", kp_pi=-0.01, ki_pi=-0.001), hexsys, fwd_art)
    assert (scn.kp_pi, scn.ki_pi) == (-0.01, -0.001)


@pytest.mark.parametrize("field, over", [
    ("t_end", {"t_end": float("inf")}),
    ("dt", {"dt": float("nan")}),
    ("t_end / dt", {"t_end": 1e300, "dt": 1e-300}),
    ("reference_schedule times",
     {"reference_schedule": [[0.0, 26.5], [float("nan"), 26.0]]}),
    ("reference_schedule values", {"reference_schedule": [[0.0, float("inf")]]}),
    ("output_disturbance values", {"output_disturbance": [[2.0, float("nan")]]}),
    ("output_disturbance times", {"output_disturbance": [[float("-inf"), 0.5]]}),
    ("x0", {"x0": [26.5] * 15 + [float("nan")]}),
    ("x_hat0", {"x_hat0": [float("inf")] * 16}),
    ("kp_pi", {"law": "pi", "kp_pi": float("nan"), "ki_pi": -0.001}),
    ("ki_pi", {"law": "pi", "kp_pi": -0.01, "ki_pi": float("inf")}),
])
def test_scenario_rejects_nonfinite_numbers(hexsys, fwd_art, field, over):
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        hexreg.scenario_from_dict(base_dict(**over), hexsys, fwd_art)


def test_scenario_output_feedback_needs_observer(hexsys, fwd_art):
    with pytest.raises(hexreg.MissingObserverStateError):
        hexreg.scenario_from_dict(base_dict(law="output_feedback"),
                                  hexsys, fwd_art)


def test_scenario_integral_only_needs_pi_bar(hexsys, fwd_art):
    """Forwarding artifacts carry no pi_bar, which the integral-only
    monitors need: refused before the run."""
    with pytest.raises(ValueError, match="pi_bar"):
        hexreg.scenario_from_dict(base_dict(law="integral_only"), hexsys, fwd_art)


@pytest.mark.parametrize("law", kernels.LAWS)
@pytest.mark.parametrize("art", ["fwd_art", "io_art"])
def test_every_accepted_scenario_runs(hexsys, request, law, art):
    """Every law on either artifact set is refused by scenario_from_dict
    or runs: a one-block run and a two-row run_many raise nothing."""
    art = request.getfixturevalue(art)
    gains = {"kp_pi": -0.01, "ki_pi": -0.001} if law == hexreg.PI else {}
    try:
        scn = hexreg.scenario_from_dict(base_dict(law=law, **gains), hexsys, art)
    except (ValueError, hexreg.MissingObserverStateError):
        return
    assert scn.n_steps < kernels._BLOCK
    hexreg.run(scn)
    assert len(hexreg.run_many([scn, scn])) == 2


def test_scenario_bad_law_and_units(hexsys, fwd_art):
    with pytest.raises(ValueError, match="unknown law"):
        hexreg.scenario_from_dict(base_dict(law="mpc"), hexsys, fwd_art)
    with pytest.raises(ValueError, match="units"):
        hexreg.scenario_from_dict(base_dict(units="F"), hexsys, fwd_art)


# -- runs -------------------------------------------------------------------


def test_run_shapes_and_grid(hexsys, fwd_art):
    scn = hexreg.scenario_from_dict(base_dict(), hexsys, fwd_art)
    res = hexreg.run(scn)
    n = round(scn.t_end / scn.dt)
    assert res.times.shape == (n + 1,)
    assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(scn.t_end)
    assert res.x.shape == (n + 1, 16)
    assert res.u_raw.shape == res.u_sat.shape == res.e.shape == (n + 1,)
    assert res.y.shape == (n + 1, 1)
    assert "V" in res.monitors


def test_run_equilibrium_start_stays_put(hexsys, fwd_art):
    """Starting on the design equilibrium with its own reference is a
    fixed point of the closed loop."""
    scn = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 50.0, 0.1,
                        [[0.0, float(hexsys.C @ fwd_art.x_ss)]])
    res = hexreg.run(scn)
    assert np.max(np.abs(res.x - fwd_art.x_ss)) <= 1e-9
    assert np.max(np.abs(res.e)) <= 1e-9


def test_run_tracks_reference_step(hexsys, fwd_art):
    scn = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 2000.0, 0.1,
                        [[0.0, 26.5 + KELVIN], [100.0, 26.0 + KELVIN]])
    res = hexreg.run(scn)
    assert abs(res.e[-1]) <= 1e-3
    assert np.all(res.u_sat >= hexsys.u_min)
    assert np.all(res.u_sat <= hexsys.u_max)


def test_run_disturbance_enters_error_only(hexsys, fwd_art):
    """A sensor-side offset shifts e immediately but not the state."""
    scn_clean = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 10.0, 0.1,
                              [[0.0, float(hexsys.C @ fwd_art.x_ss)]])
    scn_dist = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 10.0, 0.1,
                             [[0.0, float(hexsys.C @ fwd_art.x_ss)]],
                             dists=[[5.0, 0.5]])
    r_clean = hexreg.run(scn_clean)
    r_dist = hexreg.run(scn_dist)
    k = 50  # sample at t = 5, where the offset switches on
    assert r_dist.e[k] == pytest.approx(r_clean.e[k] + 0.5, abs=1e-12)
    # the state sees the offset only through the controller, one step later
    assert np.array_equal(r_dist.x[:k + 1], r_clean.x[:k + 1])
    assert not np.array_equal(r_dist.x[k + 1], r_clean.x[k + 1])


def test_run_output_feedback_exact_estimate_monitor(
        synthetic_observable, synthetic_observer):
    """With a perfect initial estimate the estimation error stays at the
    origin, so the U monitor is identically zero."""
    sys = synthetic_observable
    eq = hexreg.equilibrium_at(sys, 0.0)
    art = hexreg.forwarding_design(sys, eq, k_p=0.5, k_i=0.2)
    art.observer = synthetic_observer
    x0 = eq.x_ss + np.array([0.5, -0.3, 0.2])
    scn = make_scenario(sys, art, hexreg.OUTPUT_FEEDBACK, 20.0, 0.01,
                        [[0.0, eq.y_ss]], x0=x0, x_hat0=x0)
    res = hexreg.run(scn)
    assert res.x_hat is not None
    assert np.max(res.monitors["U"]) <= 1e-20
    assert np.max(np.abs(res.x_hat - res.x)) <= 1e-9


def test_run_output_feedback_estimate_converges(
        synthetic_observable, synthetic_observer):
    sys = synthetic_observable
    eq = hexreg.equilibrium_at(sys, 0.0)
    art = hexreg.forwarding_design(sys, eq, k_p=0.5, k_i=0.2)
    art.observer = synthetic_observer
    x0 = eq.x_ss + np.array([0.5, -0.3, 0.2])
    xh0 = eq.x_ss.copy()
    scn = make_scenario(sys, art, hexreg.OUTPUT_FEEDBACK, 30.0, 0.01,
                        [[0.0, eq.y_ss]], x0=x0, x_hat0=xh0)
    res = hexreg.run(scn)
    err0 = np.linalg.norm(res.x_hat[0] - res.x[0])
    err_end = np.linalg.norm(res.x_hat[-1] - res.x[-1])
    assert err0 > 0.1
    assert err_end <= 1e-6


# -- metrics and reports ----------------------------------------------------


def test_run_metrics_fields(hexsys, fwd_art):
    scn = hexreg.scenario_from_dict(
        base_dict(t_end=60.0, reference_schedule=[[0.0, 26.5], [30.0, 26.4]]),
        hexsys, fwd_art)
    res = hexreg.run(scn)
    m = hexreg.run_metrics(scn, res)
    assert m["law"] == "forwarding"
    assert m["sat_duty"] == 0.0
    assert len(m["settling_times"]) == 2
    assert m["max_abs_error"] >= m["final_abs_error"]
    assert "monitor_V" in m
    assert m["post_last_step"]["sat_duty"] == 0.0


def test_segments_start_where_the_kernel_switches_reference(hexsys, fwd_art):
    """An entry between two samples (5.05 s at dt 0.1 s) takes effect at
    the first sample after it, step 51, in the error the kernel stores and
    in the segments run_metrics settles and summarises."""
    scn = hexreg.scenario_from_dict(
        base_dict(t_end=10.0, dt=0.1, reference_schedule=[[0.0, 26.5], [5.05, 28.0]]),
        hexsys, fwd_art)
    res = hexreg.run(scn)
    r0, r1 = (float(r) for r in scn.ref_v)
    y = res.x @ hexsys.C
    assert res.e[50] + r0 == pytest.approx(y[50], abs=1e-9)
    assert res.e[51] + r1 == pytest.approx(y[51], abs=1e-9)
    assert sim._segment_bounds(scn, res) == [(0, 51, r0), (51, 101, r1)]


def test_a_segment_followed_by_a_step_can_settle(hexsys, fwd_art):
    """A segment's settling window ends before the sample at which the next
    reference holds: the first segment, at equilibrium, settles at once.
    Two entries before one sample leave the first of them no sample, and
    it cannot settle."""
    scn = hexreg.scenario_from_dict(
        base_dict(reference_schedule=[[0.0, 26.5], [5.01, 27.0], [5.02, 27.5]]),
        hexsys, fwd_art)
    res = hexreg.run(scn)
    assert np.abs(res.e[:51]).max() <= 1e-9 < abs(res.e[51])
    settling = hexreg.run_metrics(scn, res)["settling_times"]
    assert settling[:2] == [0.0, None]
    assert [seg[:2] for seg in sim._segment_bounds(scn, res)] == [(0, 51), (51, 51),
                                                                  (51, 101)]


def test_run_metrics_iae_quadrature(hexsys, io_art):
    """IAE equals the rectangle-rule integral of |e|."""
    scn = make_scenario(hexsys, io_art, hexreg.INTEGRAL_ONLY, 50.0, 0.5,
                        [[0.0, 26.5 + KELVIN]],
                        x0=hexreg.pi_map(hexsys, io_art.u_ss + 0.003))
    res = hexreg.run(scn)
    m = hexreg.run_metrics(scn, res)
    assert m["iae"] == pytest.approx(np.sum(np.abs(res.e)) * 0.5, rel=1e-12)
    assert m["iae"] > 0.0


def test_compare_pi_requires_matching_scenarios(hexsys, fwd_art):
    scn_a = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 10.0, 0.1,
                          [[0.0, 26.5 + KELVIN]])
    scn_b = make_scenario(hexsys, fwd_art, hexreg.PI, 10.0, 0.1,
                          [[0.0, 26.0 + KELVIN]], kp_pi=-0.01, ki_pi=-0.001)
    with pytest.raises(hexreg.SchedulesDifferError):
        hexreg.compare_pi(scn_a, scn_b)


def test_compare_pi_refuses_a_baseline_without_the_pi_law(hexsys, fwd_art, monkeypatch):
    """A baseline that runs another law is refused, by name, before either
    run; the proposed law may be any."""
    monkeypatch.setattr(sim, "run", lambda scn: pytest.fail("a scenario ran"))
    ours = make_scenario(hexsys, fwd_art, hexreg.PI, 10.0, 0.1, [[0.0, 26.5 + KELVIN]],
                         kp_pi=-0.01, ki_pi=-0.001)
    baseline = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 10.0, 0.1,
                             [[0.0, 26.5 + KELVIN]])
    with pytest.raises(hexreg.SchedulesDifferError, match="runs the forwarding law") as info:
        hexreg.compare_pi(ours, baseline)
    assert isinstance(info.value, ValueError)


def test_compare_pi_identical_laws(hexsys, fwd_art):
    scn_a = make_scenario(hexsys, fwd_art, hexreg.PI, 10.0, 0.1,
                          [[0.0, 26.5 + KELVIN]], kp_pi=-0.01, ki_pi=-0.001)
    scn_b = make_scenario(hexsys, fwd_art, hexreg.PI, 10.0, 0.1,
                          [[0.0, 26.5 + KELVIN]], kp_pi=-0.01, ki_pi=-0.001)
    rep = hexreg.compare_pi(scn_a, scn_b)
    assert rep["ours"] == rep["pi"]


def test_compare_pi_equals_the_two_runs_in_this_process(hexsys, fwd_art):
    """The report is the one two run + run_metrics calls give, to the
    byte of its JSON."""
    refs = [[0.0, 26.5 + KELVIN], [20.0, 28.0 + KELVIN], [60.0, 24.4 + KELVIN]]
    ours = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 120.0, 0.5, refs)
    pi = make_scenario(hexsys, fwd_art, hexreg.PI, 120.0, 0.5, refs,
                       kp_pi=-0.01, ki_pi=-0.001)
    want = {}
    for tag, scn in (("ours", ours), ("pi", pi)):
        m = hexreg.run_metrics(scn, hexreg.run(scn))
        want[tag] = {"law": scn.law, "settling_times": m["settling_times"],
                     "max_abs_u_raw": max(abs(m["max_u_raw"]), abs(m["min_u_raw"])),
                     "sat_duty": m["sat_duty"], "iae": m["iae"],
                     "post_last_step": m["post_last_step"]}
    assert dumps_json(hexreg.compare_pi(ours, pi)) == dumps_json(want)


def test_compare_pi_reports_the_proposed_law_error_first(hexsys, fwd_art, monkeypatch):
    """Both runs fail: the proposed law's error wins, as when it ran first."""
    def run(scn):
        raise hexreg.NonFiniteError(3 if scn.law == hexreg.PI else 2, 0.1, "x_1")

    monkeypatch.setattr(sim, "run", run)
    ours = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 1.0, 0.1, [[0.0, 300.0]])
    pi = make_scenario(hexsys, fwd_art, hexreg.PI, 1.0, 0.1, [[0.0, 300.0]])
    with pytest.raises(hexreg.NonFiniteError) as info:
        hexreg.compare_pi(ours, pi)
    assert info.value.step == 2


# -- CSV --------------------------------------------------------------------


def test_write_csv_columns_and_determinism(tmp_path, hexsys, fwd_art):
    scn = hexreg.scenario_from_dict(base_dict(t_end=1.0), hexsys, fwd_art)
    res = hexreg.run(scn)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    hexreg.write_csv(res, p1)
    hexreg.write_csv(res, p2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0].split(",")
    assert header[0] == "t"
    assert header[1:17] == [f"x_{i}" for i in range(1, 17)]
    assert header[17:20] == ["u_raw", "u_sat", "e"]
    assert header[20] == "y_1"
    assert header[21] == "V"
    # 17 significant digits survive a float round trip
    row = b1.decode().splitlines()[2].split(",")
    assert float(row[18]) == res.u_sat[1]


# -- batched runs -----------------------------------------------------------


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_same_result(a, b):
    for name in ("times", "x", "x_hat", "u_raw", "u_sat", "e", "y"):
        va, vb = getattr(a, name), getattr(b, name)
        if va is None or vb is None:
            assert va is None and vb is None, name
        else:
            assert _same_bits(va, vb), name
    assert a.monitors.keys() == b.monitors.keys()
    for name in a.monitors:
        assert _same_bits(a.monitors[name], b.monitors[name]), name


def _sweep(law, hexsys, fwd_art, io_art, synthetic_observable,
           synthetic_observer, count, seed=11):
    """`count` scenarios of one law that differ only in their start.  The
    output-feedback ones use synthetic_observer, whose L is zero, so their
    estimates run with no innovation correction."""
    rng = np.random.default_rng(seed)
    if law == hexreg.OUTPUT_FEEDBACK:
        sys_ = synthetic_observable
        eq = hexreg.equilibrium_at(sys_, 0.0)
        art = hexreg.forwarding_design(sys_, eq, k_p=0.5, k_i=0.2)
        art.observer = synthetic_observer
        return [make_scenario(sys_, art, law, 5.0, 0.01,
                              [[0.0, eq.y_ss], [2.0, eq.y_ss + 0.05]],
                              dists=[[3.0, 0.02]],
                              x0=eq.x_ss + rng.normal(0.0, 0.5, 3),
                              x_hat0=eq.x_ss + rng.normal(0.0, 0.5, 3))
                for _ in range(count)]
    art = io_art if law == hexreg.INTEGRAL_ONLY else fwd_art
    gains = dict(kp_pi=-0.01, ki_pi=-0.001) if law == hexreg.PI else {}
    return [make_scenario(hexsys, art, law, 20.0, 0.1,
                          [[0.0, 26.5 + KELVIN], [5.0, 26.0 + KELVIN]],
                          dists=[[12.0, 0.5]],
                          x0=art.x_ss + rng.uniform(-20.0, 20.0, 16), **gains)
            for _ in range(count)]


@pytest.mark.parametrize("law", [hexreg.FORWARDING, hexreg.OUTPUT_FEEDBACK,
                                 hexreg.INTEGRAL_ONLY, hexreg.PI])
def test_run_many_matches_run_bitwise(law, hexsys, fwd_art, io_art,
                                      synthetic_observable, synthetic_observer):
    scns = _sweep(law, hexsys, fwd_art, io_art, synthetic_observable,
                  synthetic_observer, 4)
    # a batch of four, and a batch of one against the one-trajectory path
    for batch in (scns, scns[:1]):
        many = both_loops(hexreg.run_many, batch)
        assert len(many) == len(batch)
        for scn, res in zip(batch, many):
            _assert_same_result(both_loops(hexreg.run, scn), res)


@pytest.mark.usefixtures("no_thread_left")
@pytest.mark.parametrize("law", [hexreg.FORWARDING, hexreg.OUTPUT_FEEDBACK,
                                 hexreg.INTEGRAL_ONLY, hexreg.PI])
def test_run_many_bits_independent_of_worker_count(
        law, hexsys, fwd_art, io_art, synthetic_observable, synthetic_observer,
        monkeypatch):
    """The kernel gives the same bytes with its seven rows split into 1, 2,
    3 or 7 chunks, each chunk but the first on a thread of its own, while
    the interpreter switches threads as often as it can."""
    scns = _sweep(law, hexsys, fwd_art, io_art, synthetic_observable,
                  synthetic_observer, 7)
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3, 7):
            monkeypatch.setattr(kernels, "_worker_count", lambda k, w=workers: w)
            runs[workers] = both_loops(hexreg.run_many, scns)
    finally:
        sys.setswitchinterval(interval)
    for workers in (2, 3, 7):
        for one, split in zip(runs[1], runs[workers]):
            _assert_same_result(one, split)


def test_run_starts_no_thread(hexsys, fwd_art, monkeypatch):
    """run is a batch of one, and so one chunk on the calling thread, over
    each of its three blocks."""
    scn = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 300.0, 0.1,
                        [[0.0, 26.5 + KELVIN]], x0=fwd_art.x_ss + 1.0)
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: pytest.fail("run started a thread"))
    assert hexreg.run(scn).x.shape == (3001, 16)


@pytest.mark.usefixtures("no_thread_left")
def test_kernel_runs_where_the_os_reports_no_affinity(hexsys, fwd_art, monkeypatch):
    """On a host without os.sched_getaffinity (macOS, Windows), run needs
    no core count, and run_many splits its rows over os.cpu_count() cores
    with the same bits."""
    scns = [make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 300.0, 0.1,
                          [[0.0, 26.5 + KELVIN]], x0=fwd_art.x_ss + off)
            for off in (-1.0, 0.5, 2.0)]
    here = hexreg.run_many(scns)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert kernels._worker_count(1) == 1
    assert kernels._worker_count(3) == 2
    _assert_same_result(hexreg.run(scns[0]), here[0])
    for one, there in zip(here, hexreg.run_many(scns)):
        _assert_same_result(one, there)


def test_run_many_results_share_one_read_only_grid(hexsys, fwd_art, io_art,
                                                  synthetic_observable, synthetic_observer):
    scns = _sweep(hexreg.FORWARDING, hexsys, fwd_art, io_art,
                  synthetic_observable, synthetic_observer, 3)
    results = hexreg.run_many(scns)
    times = results[0].times
    assert all(res.times is times for res in results)
    assert not times.flags.writeable
    assert times.tobytes() == hexreg.run(scns[0]).times.tobytes()
    assert times.tobytes() == (np.arange(scns[0].n_steps + 1) * scns[0].dt).tobytes()


def test_run_many_bits_independent_of_batch_size(
        hexsys, fwd_art, io_art, synthetic_observable, synthetic_observer):
    scns = _sweep(hexreg.FORWARDING, hexsys, fwd_art, io_art,
                  synthetic_observable, synthetic_observer, 7)
    target = scns[3]
    (alone,) = both_loops(hexreg.run_many, [target])
    in_pair = both_loops(hexreg.run_many, [scns[0], target])[1]
    in_seven = both_loops(hexreg.run_many, scns)[3]
    _assert_same_result(alone, in_pair)
    _assert_same_result(alone, in_seven)
    assert hexreg.run_many([]) == []


def test_run_many_nonfinite_reports_run_step(hexsys, fwd_art):
    """RK4 at dt = 20 s is outside its stability region on this plant, so
    every start blows up; the larger the offset, the earlier."""
    scns = [make_scenario(hexsys, fwd_art, hexreg.PI, 4000.0, 20.0,
                          [[0.0, 26.5 + KELVIN]], x0=fwd_art.x_ss + off,
                          kp_pi=0.0, ki_pi=0.0)
            for off in (1e-3, 1e100, 1.0)]
    steps = []
    for scn in scns:
        with pytest.raises(hexreg.NonFiniteError) as alone:
            hexreg.run(scn)
        steps.append(alone.value.step)
    with pytest.raises(hexreg.NonFiniteError) as batch:
        hexreg.run_many(scns)
    assert steps[1] == min(steps) and steps[1] < max(steps)
    assert batch.value.step == steps[1]
    assert batch.value.t == 20.0 * steps[1]


def test_run_many_names_the_row_that_diverges_after_the_first_block(hexsys, fwd_art):
    """At dt = 2.5 s RK4 holds starts near x_ss but not one 20 K off; that
    row alone goes non-finite, inside the kernel's second 1024-row block,
    and the batch reports its step and its row."""
    rng = np.random.default_rng(5)
    x0 = fwd_art.x_ss + rng.uniform(-1e-3, 1e-3, (20, 16))
    x0[13] = fwd_art.x_ss + 20.0
    scns = [make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 3000.0, 2.5,
                          [[0.0, 26.5 + KELVIN]], x0=x) for x in x0]
    steps = [per_step_nonfinite(scn) for scn in scns]
    assert steps == [-1] * 13 + [1160] + [-1] * 6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(hexreg.NonFiniteError) as alone:
            both_loops(hexreg.run, scns[13])
    assert (alone.value.step, alone.value.row) == (1160, None)
    # with rows 0..19 in 1, 2 or 3 chunks, row 13 is in the first, second
    # or third
    for workers in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            mp.setattr(kernels, "_worker_count", lambda k, w=workers: w)
            warnings.simplefilter("error")
            with pytest.raises(hexreg.NonFiniteError) as batch:
                both_loops(hexreg.run_many, scns)
        assert (batch.value.step, batch.value.row, batch.value.t) == (1160, 13, 2900.0)
        assert batch.value.column == alone.value.column
        assert batch.value.u_sat == alone.value.u_sat


def test_run_many_rejects_scenarios_differing_beyond_start(
        hexsys, hexsys5, fwd_art, io_art):
    def scn(sys=hexsys, art=fwd_art, law=hexreg.FORWARDING, t_end=10.0,
            dt=0.1, refs=((0.0, 26.5 + KELVIN),), **kw):
        return make_scenario(sys, art, law, t_end, dt, refs, **kw)

    base = scn()
    # differing starts are the point of a batch
    hexreg.run_many([base, scn(x0=fwd_art.x_ss + 1.0, x_hat0=fwd_art.x_ss)])
    for other in (
        scn(refs=[[0.0, 26.0 + KELVIN]]),
        scn(dists=[[5.0, 0.5]]),
        scn(dt=0.05),
        scn(t_end=20.0),
        scn(sys=hexsys5),
        scn(law=hexreg.PI, kp_pi=-0.01, ki_pi=-0.001),
        scn(art=io_art),
    ):
        with pytest.raises(hexreg.SchedulesDifferError):
            hexreg.run_many([base, other])
    pi_a = scn(law=hexreg.PI, kp_pi=-0.01, ki_pi=-0.001)
    pi_b = scn(law=hexreg.PI, kp_pi=-0.02, ki_pi=-0.001)
    with pytest.raises(hexreg.SchedulesDifferError):
        hexreg.run_many([pi_a, pi_b])


# -- the CSV written by run ------------------------------------------------


def _law_scenario(law, n_steps, hexsys, fwd_art, io_art, synthetic_observable,
                  synthetic_observer):
    """A run of n_steps steps of one law, with a reference step and a
    disturbance inside it: the exchanger for forwarding, integral-only and
    PI, the toy plant for output feedback."""
    if law == hexreg.OUTPUT_FEEDBACK:
        sys_ = synthetic_observable
        eq = hexreg.equilibrium_at(sys_, 0.0)
        art = hexreg.forwarding_design(sys_, eq, k_p=0.5, k_i=0.2)
        art.observer = synthetic_observer
        dt = 0.01
        return make_scenario(sys_, art, law, n_steps * dt, dt,
                             [[0.0, eq.y_ss], [n_steps * dt / 3, eq.y_ss + 0.05]],
                             dists=[[n_steps * dt / 2, 0.02]],
                             x0=eq.x_ss + np.array([0.3, -0.2, 0.1]),
                             x_hat0=eq.x_ss)
    art = io_art if law == hexreg.INTEGRAL_ONLY else fwd_art
    gains = dict(kp_pi=-0.01, ki_pi=-0.001) if law == hexreg.PI else {}
    dt = 0.5
    return make_scenario(hexsys, art, law, n_steps * dt, dt,
                         [[0.0, 26.5 + KELVIN], [n_steps * dt / 3, 26.0 + KELVIN]],
                         dists=[[n_steps * dt / 2, 0.5]],
                         x0=art.x_ss + np.linspace(-2.0, 2.0, 16), **gains)


LAWS = [hexreg.FORWARDING, hexreg.INTEGRAL_ONLY, hexreg.OUTPUT_FEEDBACK, hexreg.PI]


@pytest.mark.parametrize("law", LAWS)
def test_monitors_on_aligned_blocks_keep_their_bits(
        law, hexsys, fwd_art, io_art, synthetic_observable, synthetic_observer):
    """trajectory_monitors on row blocks that start at multiples of 1024
    gives the whole series' bits, which run relies on; names and order
    are those _MONITOR_NAMES lists."""
    scn = _law_scenario(law, 3000, hexsys, fwd_art, io_art,
                        synthetic_observable, synthetic_observer)
    X, XH, Z, *_, bad = one_start(scn, scn.x0, scn.x_hat0)
    assert bad is None
    whole = sim.trajectory_monitors(scn, X, XH, Z)
    assert tuple(whole) == analysis._MONITOR_NAMES[law]
    block = kernels._BLOCK
    parts = [sim.trajectory_monitors(scn, X[lo:lo + block],
                                     None if XH is None else XH[lo:lo + block],
                                     Z[lo:lo + block])
             for lo in range(0, X.shape[0], block)]
    assert len(parts) == 3
    for name, series in whole.items():
        assert _same_bits(np.concatenate([part[name] for part in parts]), series), name


@contextlib.contextmanager
def _forking(mode, monkeypatch):
    """Within it, os.fork exists ("fork"), is missing ("no_fork"), or
    exists while another thread runs ("thread").  Where it exists, a call
    to it fails the test: run starts no process in any of them."""
    if mode == "no_fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("os.fork was called"))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if mode == "thread":
        thread.start()
    try:
        yield
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=10.0)
        assert not thread.is_alive()


@pytest.mark.usefixtures("no_child_left")
@pytest.mark.parametrize("mode", ["fork", "no_fork", "thread"])
@pytest.mark.parametrize("n_steps", [700, 2047, 2048])
@pytest.mark.parametrize("law", LAWS)
def test_run_to_csv_writes_write_csv_bytes(
        law, n_steps, mode, tmp_path, monkeypatch, hexsys, fwd_art, io_art,
        synthetic_observable, synthetic_observer):
    """run(scn, path) writes the bytes of write_csv(run(scn), path) and
    returns a result with the same run_metrics, for fewer than 1024 rows,
    exactly 2 * 1024 and 2 * 1024 + 1; with os.fork there, missing, or
    beside another thread, and without starting a process."""
    scn = _law_scenario(law, n_steps, hexsys, fwd_art, io_art,
                        synthetic_observable, synthetic_observer)
    ref = hexreg.run(scn)
    hexreg.write_csv(ref, tmp_path / "ref.csv")
    with _forking(mode, monkeypatch):
        res = hexreg.run(scn, tmp_path / "run.csv")
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ref.csv", "run.csv"]
    assert res.x.shape[0] == n_steps + 1
    _assert_same_result(res, ref)
    assert dumps_json(hexreg.run_metrics(scn, res)) == dumps_json(hexreg.run_metrics(scn, ref))


@pytest.mark.usefixtures("no_child_left")
@pytest.mark.parametrize("mode", ["fork", "no_fork"])
def test_run_to_csv_nonfinite_run_writes_nothing(mode, tmp_path, monkeypatch,
                                                 hexsys, fwd_art):
    """A run that diverges after its first 1024-row block (a 20 K
    disturbance at step 1100, with RK4 at dt = 6 s) raises run's
    NonFiniteError and leaves neither the CSV nor a partial file, with
    os.fork there or missing."""
    scn = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 12000.0, 6.0,
                        [[0.0, 26.5 + KELVIN]], dists=[[6600.0, 20.0]])
    with pytest.raises(hexreg.NonFiniteError) as alone:
        hexreg.run(scn)
    assert alone.value.step > 1024
    with _forking(mode, monkeypatch), pytest.raises(hexreg.NonFiniteError) as to_csv:
        hexreg.run(scn, tmp_path / "div.csv")
    assert str(to_csv.value) == str(alone.value)
    assert list(tmp_path.iterdir()) == []


def test_run_to_csv_writer_error_comes_back_with_its_type(tmp_path, monkeypatch,
                                                         hexsys, fwd_art):
    """An error of write_csv, raised after it has written part of the
    file, reaches the caller as itself, and no file is left."""
    def failing(res, path):
        with open(path, "w") as fh:
            fh.write("t\n")
        raise IsADirectoryError(f"writer failed at row {res.times.shape[0]}")

    monkeypatch.setattr(sim, "write_csv", failing)
    scn = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 1500.0, 0.5,
                        [[0.0, 26.5 + KELVIN]])
    with pytest.raises(IsADirectoryError, match="writer failed at row 3001"):
        hexreg.run(scn, tmp_path / "w.csv")
    assert list(tmp_path.iterdir()) == []


def test_run_to_csv_parent_error_kills_the_writer(tmp_path, monkeypatch, hexsys, fwd_art):
    """An error mid-run (here in the second block's monitors) propagates
    at once: the writer never starts, and no file is left."""
    real = sim.trajectory_monitors
    calls = []

    def monitors(scn, X, XH, Z):
        calls.append(X.shape[0])
        if len(calls) == 2:
            raise KeyError("monitor")
        return real(scn, X, XH, Z)

    monkeypatch.setattr(sim, "trajectory_monitors", monitors)
    monkeypatch.setattr(sim, "write_csv", lambda res, path: pytest.fail("writer ran"))
    scn = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 2500.0, 0.5,
                        [[0.0, 26.5 + KELVIN]])
    with pytest.raises(KeyError, match="monitor"):
        hexreg.run(scn, tmp_path / "p.csv")
    assert calls == [1024, 1024]
    assert list(tmp_path.iterdir()) == []


def test_run_to_csv_unwritable_path_fails_before_the_first_step(tmp_path, monkeypatch,
                                                               hexsys, fwd_art):
    """A CSV path whose directory is a regular file raises OSError before
    the kernel runs."""
    monkeypatch.setattr(sim, "closed_loop_rk4", lambda *a, **k: pytest.fail("kernel ran"))
    (tmp_path / "file").write_text("")
    scn = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 10.0, 0.5,
                        [[0.0, 26.5 + KELVIN]])
    with pytest.raises(NotADirectoryError):
        hexreg.run(scn, tmp_path / "file" / "x.csv")
