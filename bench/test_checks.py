"""Tests of the benchmark's own checks: each must reject a wrong output.

Run from the root of the repository:

    python3 -m pytest -q bench/test_checks.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import hexreg  # noqa: E402

KELVIN = 273.15


@pytest.fixture(scope="module")
def hexsys():
    return hexreg.build_hex(hexreg.HexParams.from_json(str(ROOT / "configs" / "hex_table1.json")))


@pytest.fixture(scope="module")
def plant(hexsys):
    out = {k: np.asarray(getattr(hexsys, k)) for k in ("A", "B", "b", "E", "C")}
    out["u_min"], out["u_max"] = hexsys.u_min, hexsys.u_max
    return out


@pytest.fixture(scope="module")
def eq(hexsys):
    return hexreg.invert_reference(hexsys, 26.5 + KELVIN)


@pytest.fixture(scope="module")
def fwd(hexsys, eq):
    return hexreg.forwarding_design(hexsys, eq, 1e-6, 2.6e-5)


@pytest.fixture(scope="module")
def tracking_csv(hexsys, fwd, tmp_path_factory):
    """A short forwarding run with a reference step and a disturbance, as CSV."""
    data = {"units": "C", "law": "forwarding", "t_end": 20.0, "dt": 0.05,
            "reference_schedule": [[0.0, 26.5], [5.0, 27.0]],
            "output_disturbance": [[10.0, 0.5]]}
    scn = hexreg.scenario_from_dict(data, hexsys, fwd)
    path = tmp_path_factory.mktemp("csv") / "run.csv"
    hexreg.write_csv(hexreg.run(scn), path)
    header, table = checks.read_csv(path)
    return data, header, table


def _error_problems(plant, data, header, table):
    ref = np.asarray(data["reference_schedule"], dtype=np.float64)
    dist = np.asarray(data["output_disturbance"], dtype=np.float64)
    return checks.check_error(
        plant, checks.column(header, table, "t"), checks.columns(header, table, "x"),
        checks.column(header, table, "e"), ref[:, 0], ref[:, 1] + KELVIN,
        dist[:, 0], dist[:, 1])


def test_error_check_passes_program_output(plant, tracking_csv):
    assert _error_problems(plant, *tracking_csv) == []


def test_error_check_rejects_one_shifted_entry(plant, tracking_csv):
    data, header, table = tracking_csv
    bad = table.copy()
    bad[123, header.index("e")] += 1e-6
    problems = _error_problems(plant, data, header, bad)
    assert len(problems) == 1 and "row 123" in problems[0]


def test_error_check_rejects_a_missing_disturbance(plant, tracking_csv):
    data, header, table = tracking_csv
    assert _error_problems(plant, dict(data, output_disturbance=[[10.0, 0.0]]), header, table)


def test_row_count(tracking_csv):
    data, _, table = tracking_csv
    assert checks.check_rows(table, data["t_end"], data["dt"]) == []
    assert checks.check_rows(table[:-1], data["t_end"], data["dt"])


def test_u_sat_must_be_the_clipped_u_raw(plant, tracking_csv):
    _, header, table = tracking_csv
    u_raw = checks.column(header, table, "u_raw")
    u_sat = checks.column(header, table, "u_sat")
    assert checks.check_u_sat(u_raw, u_sat, plant["u_min"], plant["u_max"]) == []
    assert checks.check_u_sat(u_raw, u_sat + 1e-15, plant["u_min"], plant["u_max"])
    assert checks.check_never_saturates(u_raw, plant["u_min"], plant["u_max"]) == []
    assert checks.check_never_saturates(u_raw + 1.0, plant["u_min"], plant["u_max"])


def test_settled_rejects_a_final_state_off_the_equilibrium(plant, eq):
    x = checks.equilibrium(plant, eq.u_ss)
    assert checks.check_settled(plant, x, 1e-7, eq.u_ss) == []
    moved = x.copy()
    moved[3] += 2e-6
    assert len(checks.check_settled(plant, moved, 1e-7, eq.u_ss)) == 1
    assert len(checks.check_settled(plant, x, 2e-3, eq.u_ss)) == 1


def test_sweep_names_the_bad_trajectory(plant, eq):
    x = checks.equilibrium(plant, eq.u_ss)
    V = np.linspace(1.0, 0.0, 50)
    assert checks.check_sweep(plant, eq.u_ss, [x, x], [0.0, 0.0], [V, V]) == []
    rising = V.copy()
    rising[10] = rising[9] * (1.0 + 1e-6)
    problems = checks.check_sweep(plant, eq.u_ss, [x, x + 1e-5], [0.0, 0.0], [V, rising])
    assert problems and all(p.startswith("trajectory 1:") for p in problems)
    assert len(problems) == 2


def test_monotone_tolerance():
    W = np.array([2.0, 1.5, 1.0])
    assert checks.check_monotone(W, "W") == []
    assert checks.check_monotone(np.array([2.0, 2.0 + 3e-8 * 3.0, 1.0]), "W")


def test_forwarding_artifacts_reject_a_perturbed_lyapunov_residual(plant, fwd):
    assert checks.check_forwarding_artifacts(plant, fwd.u_ss, fwd.P, fwd.Upsilon, fwd.M) == []
    ups = fwd.Upsilon.copy()
    ups[0, 0] += 1e-7
    problems = checks.check_forwarding_artifacts(plant, fwd.u_ss, fwd.P, ups, fwd.M)
    assert len(problems) == 1 and "Lyapunov" in problems[0]
    M = fwd.M.copy()
    M[5] *= 1.0 + 1e-6
    assert "M F - C" in checks.check_forwarding_artifacts(plant, fwd.u_ss, fwd.P,
                                                          fwd.Upsilon, M)[0]
    assert "positive definite" in checks.check_forwarding_artifacts(
        plant, fwd.u_ss, -fwd.P, -fwd.Upsilon, fwd.M)[-1]


def test_inverted_reference(plant, eq):
    r = 26.5 + KELVIN
    assert checks.check_inverted_reference(plant, r, eq.u_ss, eq.x_ss) == []
    assert checks.check_inverted_reference(plant, r + 1e-4, eq.u_ss, eq.x_ss)
    x = eq.x_ss.copy()
    x[0] += 1e-6
    assert any("residual" in p for p in checks.check_inverted_reference(plant, r, eq.u_ss, x))


def test_ki_star_must_not_exceed_the_limit():
    assert checks.check_ki_star(1.0, 1.0) == []
    assert checks.check_ki_star(1.0 + 1e-12, 1.0)


def test_report_margins_against_recomputation(hexsys, plant):
    params = hexreg.HexParams.from_json(str(ROOT / "configs" / "hex_table1.json"))
    P = hexreg.hex_analytic_P(params)
    nu = float(np.linalg.norm(P, 2) / hexreg.design.input_coupling_bound(hexsys))
    eps = 0.5 * hexreg.lyapunov_decay_margin(hexsys, P, grid=8)
    report = hexreg.assumption_report(hexsys, P=P, nu=nu, eps=eps, u_grid=8, v_grid=17).to_dict()
    assert checks.check_report(plant, report, 8, P, nu, eps) == []
    for key in ("hurwitz_margin", "a3a_worst_residual"):
        bad = dict(report, **{key: report[key] * (1.0 + 1e-6)})
        problems = checks.check_report(plant, bad, 8, P, nu, eps)
        assert len(problems) == 1 and problems[0].startswith(key)


def test_pi_windup_and_cross_process_metrics():
    report = {"ours": {"sat_duty": 0.0, "iae": 1.0, "settling_times": [None],
                       "post_last_step": {"sat_duty": 0.0, "time_abs_error_gt_0p1": 0.0}},
              "pi": {"post_last_step": {"sat_duty": 0.5, "time_abs_error_gt_0p1": 365.1}}}
    assert checks.check_pi_windup(report, 300.0) == []
    assert checks.check_pi_windup(report, 400.0)
    ours_saturated = json.loads(json.dumps(report))
    ours_saturated["ours"]["sat_duty"] = 0.01
    assert checks.check_pi_windup(ours_saturated, 300.0)
    metrics = dict(report["ours"])
    assert checks.check_same_metrics(metrics, report["ours"]) == []
    assert checks.check_same_metrics(dict(metrics, iae=1.0 + 2**-52), report["ours"])


def test_smoke_mode_runs_every_workload_through_the_checks():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"] for m in declared["per_layer"]} <= set(result["metrics"])


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "tracking",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracking_rejects_bytes_that_differ_from_the_first_round(tmp_path):
    import workloads

    def round_dir(name, text):
        out = tmp_path / name
        (out / "fwd").mkdir(parents=True)
        (out / "fwd" / "run.csv").write_text(text, encoding="utf-8")
        res = workloads.Outcome()
        res.data.update(dir=out, ok=set())
        return res

    first = workloads.Tracking(ROOT, tmp_path, 0, smoke=True)
    first.record = tmp_path / "digests.json"
    assert first.check(round_dir("a", "t,e\n0,1\n")) == []
    assert first.check(round_dir("b", "t,e\n0,1\n")) == []
    later = workloads.Tracking(ROOT, tmp_path, 0, smoke=True)
    later.record = first.record
    problems = later.check(round_dir("c", "t,e\n0,1.0000000000000002\n"))
    assert len(problems) == 1 and "fwd/run.csv" in problems[0]
