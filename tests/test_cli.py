"""Command-line interface: exit codes, file outputs, determinism."""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import hexreg
from hexreg import model, sim
from hexreg.cli import main
from hexreg.errors import as_float

from conftest import child_env
from test_loaders import json_values
from test_steady_state import _pole_system

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a built system file and forwarding artifacts."""
    root = tmp_path_factory.mktemp("cli")
    sys_path = root / "hex.json"
    art_path = root / "fwd.json"
    rc = main(["build-model", str(CONFIGS / "hex_table1.json"),
               "--out", str(sys_path)])
    assert rc == 0
    rc = main(["design", str(sys_path), "--law", "forwarding",
               "--ref", "26.5", "--units", "C", "--out", str(art_path)])
    assert rc == 0
    rc = main(["build-model", str(CONFIGS / "hex_table1.json"),
               "--sensors", "5", "--out", str(root / "hex5.json")])
    assert rc == 0
    rc = main(["design", str(sys_path), "--law", "integral_only",
               "--ref", "26.5", "--units", "C", "--out", str(root / "io.json")])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def toy_ws(tmp_path_factory, synthetic_observable):
    """Workspace with the 3-state toy plant (no hex_params), its
    output-feedback artifacts and a short output-feedback scenario."""
    root = tmp_path_factory.mktemp("toy")
    hexreg.save_system(root / "toy.json", synthetic_observable)
    assert main(["design", str(root / "toy.json"), "--law", "output_feedback",
                 "--uss", "0.0", "--out", str(root / "of.json")]) == 0
    x0 = hexreg.equilibrium_at(synthetic_observable, -0.05).x_ss
    (root / "of_scn.json").write_text(json.dumps({
        "units": "K", "law": "output_feedback", "t_end": 2.0, "dt": 0.01,
        "reference_schedule": [[0.0, hexreg.equilibrium_at(synthetic_observable, 0.05).y_ss]],
        "x0": x0.tolist(), "x_hat0": [0.0, 0.0, 0.0]}))
    return root


def test_build_model_writes_system(ws):
    sys_, params = hexreg.load_system(str(ws / "hex.json"))
    assert sys_.n_states == 16
    assert sys_.n_outputs == 1
    assert params is not None and params.n_cells == 8


def test_build_model_sensor_variant(ws):
    sys_, _ = hexreg.load_system(str(ws / "hex5.json"))
    assert sys_.D.shape == (5, 16)
    # averaging rows, not selectors
    assert np.allclose(sys_.D.sum(axis=1), 1.0)


@pytest.mark.parametrize("count", ["0", "-1", "17"])
def test_build_model_sensor_count_out_of_range_exit2(tmp_path, capsys, count):
    out = tmp_path / "never.json"
    rc = main(["build-model", str(CONFIGS / "hex_table1.json"), "--sensors", count,
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: need 1 <= n_sensors <= 16, got {count}"]
    assert not out.exists()


@pytest.mark.parametrize("u_max", [0.0, -0.05])
def test_build_model_input_range_empty_exit2(tmp_path, capsys, u_max):
    """u_min < u_max is checked once, by the plant, with one message."""
    params = json.loads((CONFIGS / "hex_table1.json").read_text())
    params["u_max"] = u_max
    hex_file = tmp_path / "hex_empty_range.json"
    hex_file.write_text(json.dumps(params))
    out = tmp_path / "never.json"
    capsys.readouterr()
    rc = main(["build-model", str(hex_file), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: u_min < u_max required, got [0.0, {u_max!r}]"]
    assert not out.exists()


def test_build_model_too_many_cells_exit2(tmp_path, capsys, monkeypatch):
    """An n_cells above the limit is refused before the plant is built, so
    nothing the size of the plant is allocated."""
    params = json.loads((CONFIGS / "hex_table1.json").read_text())
    params["n_cells"] = 10**7
    hex_file = tmp_path / "hex_huge.json"
    hex_file.write_text(json.dumps(params))
    out = tmp_path / "never.json"
    monkeypatch.setattr(model, "build_hex", lambda params: pytest.fail("plant built"))
    rc = main(["build-model", str(hex_file), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: n_cells=10000000 is above the limit of 1024"]
    assert not out.exists()


# one instance of every HexRegError subclass, with every attribute set
ERRORS = [
    hexreg.SingularMatrixError("A + B u numerically singular at u = 0.5", cond=3.0e15),
    hexreg.NotHurwitzError("linearized loop unstable"),
    hexreg.ZeroDCGainError("DC gain vanished"),
    hexreg.NotObservableError("rank 3 < 4"),
    hexreg.InfeasibleError("observer LMI", best_residual=0.25),
    hexreg.ReferenceUnreachableError(280.0, 288.9, 307.0),
    hexreg.MissingObserverStateError("x_hat is required"),
    hexreg.SchedulesDifferError("scenario field ref_t differs"),
    hexreg.NonFiniteError(38, 760.0, "x_1", row=None, u_sat=0.05),
    hexreg.CompiledLoopError("no `cc` on PATH"),
]


# The exit code of each HexRegError: 2 for an input the caller can fix, 3
# for a numerical failure, 4 for a process that cannot simulate.
EXIT_CODES = {
    "SingularMatrixError": 3,
    "NotHurwitzError": 3,
    "ZeroDCGainError": 3,
    "NotObservableError": 3,
    "InfeasibleError": 3,
    "ReferenceUnreachableError": 2,
    "MissingObserverStateError": 2,
    "SchedulesDifferError": 2,
    "NonFiniteError": 3,
    "CompiledLoopError": 4,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_has_an_instance_and_an_exit_code():
    """ERRORS holds one instance of every HexRegError subclass that
    hexreg.errors defines, found through __subclasses__, and EXIT_CODES
    pins each one's code, so no error class lands without one."""
    defined = sorted(cls.__name__ for cls in _subclasses(hexreg.HexRegError)
                     if cls.__module__ == "hexreg.errors")
    assert sorted(type(exc).__name__ for exc in ERRORS) == defined
    assert sorted(EXIT_CODES) == defined


@pytest.mark.parametrize("exc", ERRORS, ids=lambda e: type(e).__name__)
def test_error_exit_code(tmp_path, capsys, monkeypatch, exc):
    """main returns each error's exit code, with its message on stderr."""
    def load_system(path):
        raise exc

    monkeypatch.setattr(model, "load_system", load_system)
    rc = main(["steady-state", str(tmp_path / "hex.json")])
    assert rc == EXIT_CODES[type(exc).__name__]
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_build_model_missing_file(tmp_path):
    rc = main(["build-model", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_build_model_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_cells": 8,,}')
    rc = main(["build-model", str(bad), "--out", str(tmp_path / "x.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_no_command_is_usage_error():
    assert main([]) == 2


def test_python_m_hexreg_runs_cli(tmp_path):
    """`python -m hexreg` is the hexreg command: --help exits 0, and a
    verify without its system file is a usage error (2)."""
    def run(*args):
        return subprocess.run([sys.executable, "-m", "hexreg", *args], env=child_env(),
                              cwd=str(tmp_path), capture_output=True, text=True)

    shown = run("--help")
    assert shown.returncode == 0 and shown.stdout.startswith("usage: hexreg")
    bare = run("verify")
    assert bare.returncode == 2 and "usage: hexreg verify" in bare.stderr


def test_design_forwarding_artifacts(ws):
    art = hexreg.load_artifacts(str(ws / "fwd.json"))
    assert art.k_p == 1e-6 and art.k_i == 2.6e-5
    assert art.observer is None


def test_design_integral_only(ws):
    out = ws / "io.json"
    rc = main(["design", str(ws / "hex.json"), "--law", "integral_only",
               "--ref", "26.5", "--units", "C", "--out", str(out)])
    assert rc == 0
    art = hexreg.load_artifacts(str(out))
    assert art.ki_star is not None and art.k_i == pytest.approx(
        0.5 * art.ki_star)


def test_design_has_no_grid_option(ws, capsys):
    """The certification grids of design are fixed, so --grid is an
    unrecognized argument."""
    capsys.readouterr()
    rc = main(["design", str(ws / "hex.json"), "--law", "integral_only",
               "--ref", "26.5", "--units", "C", "--grid", "8",
               "--out", str(ws / "io8.json")])
    assert rc == 2
    assert "unrecognized arguments: --grid 8" in capsys.readouterr().err
    assert not (ws / "io8.json").exists()


@pytest.mark.parametrize("law, flag", [
    ("forwarding", "--kp"), ("output_feedback", "--kp"),
    ("forwarding", "--ki"), ("output_feedback", "--ki"), ("integral_only", "--ki"),
])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_design_nonfinite_gain_exit2(ws, capsys, law, flag, value):
    """A gain that is not finite is refused before any file is written."""
    out = ws / "nonfinite.json"
    capsys.readouterr()
    rc = main(["design", str(ws / "hex.json"), "--law", law, "--ref", "26.5",
               "--units", "C", flag, value, "--out", str(out)])
    assert rc == 2
    name = "k_p" if flag == "--kp" else "k_i"
    assert capsys.readouterr().err.splitlines() == [f"error: {name} must be finite"]
    assert not out.exists()


def test_design_requires_ref_or_uss(ws):
    rc = main(["design", str(ws / "hex.json"), "--law", "forwarding",
               "--out", str(ws / "zz.json")])
    assert rc == 2


def test_design_ref_and_uss_conflict(ws, capsys):
    """--ref and --uss each set the design input: given both, design exits
    2 through the parser and writes no artifact file."""
    capsys.readouterr()
    rc = main(["design", str(ws / "hex.json"), "--law", "forwarding", "--ref", "26.5",
               "--units", "C", "--uss", "0.02", "--out", str(ws / "both.json")])
    assert rc == 2
    assert "argument --uss: not allowed with argument --ref" in capsys.readouterr().err
    assert not (ws / "both.json").exists()


def test_design_pi_has_no_artifacts(ws, capsys):
    """design accepts every law name; pi is refused with the reason."""
    capsys.readouterr()
    rc = main(["design", str(ws / "hex.json"), "--law", "pi",
               "--ref", "26.5", "--units", "C", "--out", str(ws / "zz.json")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: the pi baseline has no design artifacts; reuse any designed set"]


def test_design_output_feedback_exit3(ws, capsys):
    """Observer synthesis on this plant is provably infeasible, which the
    CLI surfaces as a numerical failure, not a crash."""
    for sensors in (None, 5):
        sys_file = ws / ("hex.json" if sensors is None else "hex5.json")
        rc = main(["design", str(sys_file), "--law", "output_feedback",
                   "--ref", "26.5", "--units", "C",
                   "--out", str(ws / "never.json")])
        assert rc == 3
    err = capsys.readouterr().err
    assert "error:" in err
    assert not (ws / "never.json").exists()


def test_steady_state_at_u(ws, tmp_path):
    out = tmp_path / "ss.json"
    rc = main(["steady-state", str(ws / "hex.json"), "--u", "0.02",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["u_ss"] == 0.02
    assert len(data["x_ss"]) == 16
    assert 286.0 < data["y_ss"] < 307.0


def test_steady_state_reachable(ws, tmp_path):
    out = tmp_path / "reach.json"
    rc = main(["steady-state", str(ws / "hex.json"), "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["r_min"] < data["r_max"]
    assert data["r_max"] == 307.0


_OVERFLOWING_RANGES = [
    # the width overflows: every grid over it would hold NaN
    (-1e308, 1e308, "error: u_max - u_min must be finite, got [-1e+308, 1e+308]"),
    # the width is finite, but B u overflows at u_max
    (0.0, 1e308, "error: B u and b u overflow for u in [0.0, 1e+308]"),
]


def _run_overflowing_range(ws, tmp_path, *args) -> None:
    """Run python -m hexreg on hex.json with each input range above.  The
    loader refuses the system, exit 2, before any solver warns."""
    data = json.loads((ws / "hex.json").read_text())
    for u_min, u_max, message in _OVERFLOWING_RANGES:
        data.update(u_min=u_min, u_max=u_max)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        done = subprocess.run([sys.executable, "-m", "hexreg", args[0], str(path), *args[1:]],
                              env=child_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stderr.splitlines()[-1] == message
        assert "RuntimeWarning" not in done.stderr and "DLASCL" not in done.stderr


def test_steady_state_overflowing_input_grid_exit2(ws, tmp_path):
    _run_overflowing_range(ws, tmp_path, "steady-state")


def test_verify_a3_overflowing_input_grid_exit2(ws, tmp_path):
    _run_overflowing_range(ws, tmp_path, "verify", "--a3", "--grid", "8")


def test_verify_a3_overflowing_doubled_range_exit2(tmp_path):
    """On [0, 1e308] with B = -1e-308 I, B u stays finite but the shifted
    inputs of A3(b) reach 2 u_max - u_min = inf.  The loader refuses the
    system, exit 2, naming that range, before any pencil warns."""
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps({
        "n_states": 2, "A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[-1e-308, 0.0], [0.0, -1e-308]],
        "b": [0.0, 0.0], "E": [1.0, 1.0], "C": [1.0, 0.0], "D": [[1.0, 0.0]],
        "u_min": 0.0, "u_max": 1e308}))
    done = subprocess.run([sys.executable, "-m", "hexreg", "verify", str(path), "--a3",
                           "--grid", "4"],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.splitlines()[-1] == (
        "error: B v overflows for v in [2 u_min - u_max, 2 u_max - u_min] = [-1e+308, inf]")
    assert "RuntimeWarning" not in done.stderr


def test_steady_state_ref_conflict(ws):
    rc = main(["steady-state", str(ws / "hex.json"), "--u", "0.02",
               "--ref", "26.5"])
    assert rc == 2


def test_steady_state_has_no_grid_option(ws, capsys):
    """The reachable set is decided without a grid, so --grid is an
    unrecognized argument."""
    capsys.readouterr()
    rc = main(["steady-state", str(ws / "hex.json"), "--grid", "64"])
    assert rc == 2
    assert "unrecognized arguments: --grid 64" in capsys.readouterr().err


def test_steady_state_pole_in_range_exit3(tmp_path, capsys):
    """A + B u is singular at u = 0.701, between any two inputs of a
    256-point grid over [0, 1]: steady-state names the pole and exits 3."""
    path = tmp_path / "pole.json"
    hexreg.save_system(path, _pole_system(0.701))
    capsys.readouterr()
    assert main(["steady-state", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: A + B u is singular at u = 0.70"), err


def test_steady_state_and_scenario_leave_scipy_unimported(ws, toy_ws, tmp_path):
    """Every subcommand runs on numpy alone: build-model; design for each
    law, output feedback on the toy plant and integral-only also on a plant
    without hex_params; steady-state --ref; verify with and without --a3,
    on the exchanger and (--a3) on the toy plant; simulate, output feedback
    included; compare-pi; a scenario load and the certify path (an
    integral-only design, its gain's stability limit and a 256-input
    assumption report with the closed-form P).  No scipy module is loaded,
    and neither is concurrent.futures (about 6 ms of a process): simulate
    and compare-pi run batches of one, which start no thread."""
    ours = scenario_file(tmp_path, name="ours.json", t_end=2.0)
    pi = scenario_file(tmp_path, name="pi.json", t_end=2.0, law="pi",
                       kp_pi=-0.01, ki_pi=-0.001)
    code = (
        "import sys\n"
        "from hexreg import analysis, cli, design, model, serde, sim, steady_state\n"
        "params_json, hex_json, art_json, scn_json, toy, of_json, of_scn, ours, pi, out = \\\n"
        "    sys.argv[1:]\n"
        "def run(*argv, rc=0):\n"
        "    assert cli.main(list(argv)) == rc, argv\n"
        "run('build-model', params_json, '--out', out + '/hex.json')\n"
        "for law in ('forwarding', 'integral_only'):\n"
        "    run('design', hex_json, '--law', law, '--ref', '26.5', '--units', 'C',\n"
        "        '--out', out + f'/{law}.json')\n"
        "for law in ('output_feedback', 'integral_only'):\n"
        "    run('design', toy, '--law', law, '--uss', '0.0', '--out', out + f'/toy_{law}.json')\n"
        "run('steady-state', hex_json, '--ref', '26.5', '--units', 'C')\n"
        "run('verify', hex_json)\n"
        "run('verify', hex_json, '--a3', rc=1)\n"
        "run('verify', toy, '--a3')\n"
        "run('simulate', hex_json, art_json, ours, '--out', out + '/fwd')\n"
        "run('simulate', toy, of_json, of_scn, '--out', out + '/of')\n"
        "run('compare-pi', hex_json, art_json, ours, pi, '--out', out + '/cmp.json')\n"
        "plant, params = model.load_system(hex_json)\n"
        "sim.scenario_from_dict(serde.read_object(scn_json), plant,\n"
        "                       design.load_artifacts(art_json))\n"
        "eq = steady_state.invert_reference(plant, 299.65)\n"
        "io = design.integral_only_design(plant, eq, hex_params=params)\n"
        "assert io.ki_star <= analysis.integral_gain_stability_limit(plant, io)\n"
        "P = design.hex_analytic_P(params)\n"
        "analysis.assumption_report(plant, P=P, nu=1.0, eps=1e-3, u_grid=256)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
        "      'concurrent.futures' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(CONFIGS / "hex_table1.json"),
         str(ws / "hex.json"), str(ws / "fwd.json"),
         str(CONFIGS / "experiment2.json"), str(toy_ws / "toy.json"),
         str(toy_ws / "of.json"), str(toy_ws / "of_scn.json"), str(ours), str(pi),
         str(tmp_path)],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[] False"
    assert (tmp_path / "of" / "of_scn.metrics.json").exists()


def test_simulate_output_feedback_indefinite_sigma_exit2(toy_ws, tmp_path, capsys,
                                                         monkeypatch):
    """An output-feedback artifact set with k_p = 0 has no positive definite
    blkdiag(k_p P, k_i) for its monitor: simulate exits 2 naming k_p, k_i
    and P, not the matrix LAPACK factors, before the kernel runs."""
    data = json.loads((toy_ws / "of.json").read_text())
    data["k_p"] = 0
    art = tmp_path / "kp0.json"
    art.write_text(json.dumps(data))

    def kernel_called(*args, **kwargs):
        raise AssertionError("the kernel ran before the monitor was checked")

    monkeypatch.setattr(sim, "closed_loop_rk4", kernel_called)
    capsys.readouterr()
    rc = main(["simulate", str(toy_ws / "toy.json"), str(art), str(toy_ws / "of_scn.json"),
               "--out", str(tmp_path / "runs")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: the output-feedback monitor needs blkdiag(k_p P, k_i) positive definite: "
        f"k_p = 0.0 and k_i = {data['k_i']!r} must be positive and P positive definite"]


@pytest.mark.parametrize("field, value, differs", [
    ("n_cells", 3, "A"), ("V_cold", 1.0, "A"), ("T_in_cold", 300.0, "E"),
    ("u_max", 0.06, "u_max")])
def test_design_hex_params_disagreeing_with_the_plant_exit2(ws, tmp_path, capsys,
                                                            field, value, differs):
    """A hex_params block that does not rebuild the file's plant is refused
    when the system loads, naming the first field that differs: design
    would otherwise build P for another plant."""
    data = json.loads((ws / "hex.json").read_text())
    data["hex_params"][field] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    rc = main(["design", str(path), "--law", "integral_only", "--ref", "26.5",
               "--units", "C", "--out", str(tmp_path / "io.json")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: hex_params build a plant whose {differs} differs from the system's"]
    assert not (tmp_path / "io.json").exists()


def test_verify_default_passes(ws, tmp_path):
    out = tmp_path / "verify.json"
    rc = main(["verify", str(ws / "hex.json"), "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["all_hold"] is True
    assert data["hurwitz_margin"] < 0.0


def test_verify_a3_reports_infeasible(ws, tmp_path, capsys):
    # the mu-weighted inequality fails on this plant; exit 1 flags it, and
    # stderr names the failed checks with or without --out
    out = tmp_path / "verify3.json"
    capsys.readouterr()
    rc = main(["verify", str(ws / "hex.json"), "--a3", "--grid", "32",
               "--out", str(out)])
    assert rc == 1
    data = json.loads(out.read_text())
    assert data["all_hold"] is False
    assert data["a3a_feasible"] is False
    failed = "verification failed: a3a_feasible, a3b_sign_constant"
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [failed]
    rc = main(["verify", str(ws / "hex.json"), "--a3", "--grid", "8"])
    assert rc == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["all_hold"] is False
    assert captured.err.splitlines() == [failed]


def test_verify_a3_without_a_decaying_P_reports_a1_and_a3b(ws, tmp_path, capsys):
    """Without hex_params, verify --a3 takes P from the Lyapunov equation at
    the middle input, and that P has a decay margin below 0 on the
    exchanger: P F_u + F_u^T P has an eigenvalue >= 0 at some input, so the
    A3(a) block fails for every nu, eps > 0.  The A1 checks and A3(b), which
    needs no P, are still reported, a3a_feasible is false, and verify exits
    1 naming the margin."""
    data = json.loads((ws / "hex.json").read_text())
    del data["hex_params"]
    path = tmp_path / "no_params.json"
    path.write_text(json.dumps(data))
    sys_, _ = hexreg.load_system(str(path))
    P = hexreg.solve_lyapunov(sys_.frozen(0.5 * (sys_.u_min + sys_.u_max)), np.eye(16))
    margin = hexreg.lyapunov_decay_margin(sys_, P)
    assert margin < 0.0
    capsys.readouterr()
    assert main(["verify", str(path), "--a3"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    a1 = hexreg.assumption_report(sys_, a3b=True).to_dict()
    assert a1["a3b_sign_constant"] is False and a1["a3a_feasible"] is None
    assert {k: report[k] for k in a1 if k != "a3a_feasible"} == {
        k: v for k, v in a1.items() if k != "a3a_feasible"}
    assert report["a3a_feasible"] is False and report["all_hold"] is False
    assert report["hurwitz_margin"] < 0.0 and report["dc_sign_constant"] is True
    assert captured.err.splitlines() == [
        "verification failed: a3a_feasible, a3b_sign_constant",
        f"decay margin {margin:.3e} <= 0: P certifies no A3(a) constants"]


@pytest.mark.parametrize("a3", [[], ["--a3"]], ids=["plain", "a3"])
def test_verify_oversized_grid_exit2(ws, monkeypatch, capsys, a3):
    """A grid above 10**6 points is refused before any sweep starts."""
    from hexreg import analysis

    def no_sweep(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(analysis, "_equilibria", no_sweep)
    capsys.readouterr()
    rc = main(["verify", str(ws / "hex.json"), "--grid", "1000001", *a3])
    assert rc == 2
    assert "grid sizes must be <= 1000000" in capsys.readouterr().err


def test_verify_unstable_toy(tmp_path):
    sys = hexreg.BilinearSystem(
        A=np.eye(2), B=np.zeros((2, 2)), b=np.zeros(2), E=np.zeros(2),
        C=np.array([1.0, 0.0]), D=np.eye(2), u_min=-1.0, u_max=1.0,
    )
    path = tmp_path / "toy.json"
    hexreg.save_system(path, sys)
    rc = main(["verify", str(path)])
    assert rc == 1


def scenario_file(tmp_path, name="scn.json", **over):
    data = {
        "units": "C",
        "law": "forwarding",
        "t_end": 10.0,
        "dt": 0.1,
        "reference_schedule": [[0.0, 26.5]],
    }
    data.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_simulate_writes_csv_and_metrics(ws, tmp_path):
    scn = scenario_file(tmp_path)
    out = tmp_path / "runs"
    rc = main(["simulate", str(ws / "hex.json"), str(ws / "fwd.json"),
               str(scn), "--out", str(out)])
    assert rc == 0
    csv = out / "scn.csv"
    metrics = out / "scn.metrics.json"
    assert sorted(p.name for p in out.iterdir()) == ["scn.csv", "scn.metrics.json"]
    header = csv.read_text().splitlines()[0]
    assert header.startswith("t,x_1")
    m = json.loads(metrics.read_text())
    assert m["law"] == "forwarding"
    assert m["sat_duty"] == 0.0


def test_simulate_flag_overrides(ws, tmp_path):
    scn = scenario_file(tmp_path, name="ov.json")
    out = tmp_path / "runs_ov"
    # the artifact file must carry the certified bound the target law needs,
    # so the override pairs with integral-only artifacts
    rc = main(["simulate", str(ws / "hex.json"), str(ws / "io.json"),
               str(scn), "--out", str(out), "--dt", "0.2",
               "--law", "integral_only"])
    assert rc == 0
    m = json.loads((out / "ov.metrics.json").read_text())
    assert m["dt"] == 0.2
    assert m["law"] == "integral_only"


def test_simulate_several_scenarios(ws, tmp_path):
    s1 = scenario_file(tmp_path, name="j1.json")
    s2 = scenario_file(tmp_path, name="j2.json", t_end=5.0)
    out = tmp_path / "runs_par"
    rc = main(["simulate", str(ws / "hex.json"), str(ws / "fwd.json"),
               str(s1), str(s2), "--out", str(out)])
    assert rc == 0
    assert (out / "j1.csv").exists() and (out / "j2.csv").exists()


def test_simulate_diverging_run_only_reports_exit3(ws, tmp_path, capsys):
    """RK4 at dt = 20 s diverges on this plant; the run ends with the
    exit-3 message, naming the first non-finite state entry and the last
    finite input, and no numpy overflow warnings before it.  The step of
    the overflow moves with the last bits of the designed and the inverted
    u_ss (37 to 39 for inversions that differ by 1e-11 relative).  The
    output directory holds no CSV and no partial file."""
    capsys.readouterr()
    out = tmp_path / "runs_div"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", str(ws / "hex.json"), str(ws / "fwd.json"),
                   str(CONFIGS / "experiment2.json"),
                   "--out", str(out), "--dt", "20"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: non-finite state at step 38 (t = 760 s): x_1 first, "
        "last finite u_sat = 0.05"]
    assert list(out.iterdir()) == []


def test_simulate_unwritable_out_exit2_before_the_first_step(ws, tmp_path, capsys,
                                                             monkeypatch):
    """An --out under a regular file cannot be made: exit 2 with the
    error, before the kernel takes a step."""
    monkeypatch.setattr(sim, "closed_loop_rk4", lambda *a, **k: pytest.fail("kernel ran"))
    (tmp_path / "plain").write_text("")
    capsys.readouterr()
    rc = main(["simulate", str(ws / "hex.json"), str(ws / "fwd.json"),
               str(scenario_file(tmp_path)), "--out", str(tmp_path / "plain" / "runs")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: [Errno 20] Not a directory")


def test_simulate_checks_every_scenario_before_the_first_run(ws, tmp_path, monkeypatch):
    """A second scenario that is malformed, or whose law the artifacts
    cannot serve (integral-only on forwarding artifacts, which carry no
    pi_bar), exits 2 before the first one runs, and nothing is written."""
    monkeypatch.setattr(sim, "closed_loop_rk4", lambda *a, **k: pytest.fail("kernel ran"))
    good = scenario_file(tmp_path, name="good.json")
    for i, over in enumerate([{"t_end": -1.0}, {"law": "integral_only"}]):
        bad = scenario_file(tmp_path, name=f"bad{i}.json", **over)
        out = tmp_path / f"runs_two_{i}"
        rc = main(["simulate", str(ws / "hex.json"), str(ws / "fwd.json"),
                   str(good), str(bad), "--out", str(out)])
        assert rc == 2, over
        assert not out.exists()


def test_simulate_repeated_stem_exit2_before_the_first_run(ws, tmp_path, monkeypatch,
                                                           capsys):
    """Two scenario files with one stem would write one CSV and one metrics
    file: exit 2 naming the stem and both paths, before the first step and
    before --out is made."""
    monkeypatch.setattr(sim, "closed_loop_rk4", lambda *a, **k: pytest.fail("kernel ran"))
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = scenario_file(tmp_path / "a", name="s.json")
    second = scenario_file(tmp_path / "b", name="s.json")
    out = tmp_path / "runs_stem"
    capsys.readouterr()
    rc = main(["simulate", str(ws / "hex.json"), str(ws / "fwd.json"),
               str(first), str(second), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenarios ") and "'s'" in err
    assert str(first) in err and str(second) in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("field, value, problem", [
    pytest.param("t_end", float("inf"), "must be finite", id="t_end-inf"),
    pytest.param("dt", float("nan"), "must be finite", id="dt-nan"),
    pytest.param("reference_schedule", [[0.0, 26.5], [float("inf"), 26.0]],
                 "must be finite", id="reference_schedule-value2"),
    pytest.param("output_disturbance", [[0.0, float("nan")]], "must be finite",
                 id="output_disturbance-value3"),
    pytest.param("x0", [float("-inf")] * 16, "must be finite", id="x0-value4"),
    pytest.param("t_end", None, "must be a number", id="t_end-null"),
    pytest.param("reference_schedule", [[0, None]], "must be a number",
                 id="reference_schedule-null"),
    pytest.param("kp_pi", [1], "must be a number", id="kp_pi-list"),
    pytest.param("x0", [26.5] * 15 + ["26.5"], "must be a 1-d array of numbers",
                 id="x0-string"),
    pytest.param("t_end", 1e15, "above the limit of 10000000", id="t_end-too-many-steps"),
])
def test_simulate_nonfinite_scenario_exit2(ws, tmp_path, capsys, field, value,
                                           problem):
    """Non-finite numbers and values of the wrong JSON type are malformed
    input: exit 2 with one line naming the field, no traceback."""
    scn = scenario_file(tmp_path, name="nonfinite.json", **{field: value})
    capsys.readouterr()
    rc = main(["simulate", str(ws / "hex.json"), str(ws / "fwd.json"),
               str(scn), "--out", str(tmp_path / "runs_nf")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}") and problem in err
    assert len(err.splitlines()) == 1


def test_simulate_nonfinite_artifact_exit2(ws, tmp_path, capsys):
    """A NaN gain in the artifact file is malformed input, not a run that
    went non-finite; so is a gain of the wrong type or an incomplete
    observer block."""
    scn = scenario_file(tmp_path, name="nan_art.json")
    art = tmp_path / "fwd_nan.json"
    for field, value, message in [
        ("k_i", float("nan"), "k_i must be finite"),
        ("k_i", None, "k_i must be a number, got None"),
        ("observer", {"L": [[0.0]], "Y": [[0.0]], "nu": 1.0, "eps": 1.0,
                      "mu": 1.0, "lmi_residual": -1.0},
         "missing observer fields: ['Q']"),
    ]:
        data = json.loads((ws / "fwd.json").read_text())
        data[field] = value
        art.write_text(json.dumps(data))
        capsys.readouterr()
        rc = main(["simulate", str(ws / "hex.json"), str(art), str(scn),
                   "--out", str(tmp_path / "runs_nan_art")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def _observer_block(L):
    return {"L": L, "Q": np.eye(16).tolist(), "Y": [[0.0]] * 16, "nu": 1.0,
            "eps": 1.0, "mu": 1.0, "lmi_residual": -1.0}


@pytest.mark.parametrize("field, value, message", [
    ("x_ss", [300.0, 300.0], "x_ss must have 16 entries, got 2"),
    ("P", [[1.0, 0.0], [0.0, 1.0]], "P must be 16x16, got 2x2"),
    ("M", [1.0, 2.0], "M must have 16 entries, got 2"),
    ("observer", _observer_block([[0.0], [0.0]]), "observer.L must be 16x1, got 2x1"),
], ids=["x_ss", "P", "M", "observer.L"])
def test_simulate_artifact_size_mismatch_exit2(ws, tmp_path, capsys, field,
                                               value, message):
    """An artifact array whose size does not fit the system is malformed
    input: exit 2 with one line naming the field."""
    scn = scenario_file(tmp_path, name="size_art.json")
    data = json.loads((ws / "fwd.json").read_text())
    data[field] = value
    art = tmp_path / "fwd_size.json"
    art.write_text(json.dumps(data))
    capsys.readouterr()
    rc = main(["simulate", str(ws / "hex.json"), str(art), str(scn),
               "--out", str(tmp_path / "runs_size_art")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(u_min=None), "u_min must be a number, got None"),
    (lambda d: d["hex_params"].update({"lambda": "35"}),
     "lambda must be a number, got '35'"),
], ids=["u_min", "hex_params.lambda"])
def test_verify_malformed_system_exit2(ws, tmp_path, capsys, edit, message):
    data = json.loads((ws / "hex.json").read_text())
    edit(data)
    path = tmp_path / "bad_sys.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted({*sim._SCENARIO_REQUIRED, *sim._SCENARIO_OPTIONAL}
                                    - {"t_end", "dt"})),
       value=json_values)
def test_simulate_fuzzed_scenario_exits_cleanly(ws, tmp_path, key, value):
    """A 10 s scenario with one field replaced by an arbitrary JSON value
    runs (0), is refused as malformed (2) or fails numerically (3); main
    never raises.  t_end and dt stay fixed, since they set the run length."""
    scn = scenario_file(tmp_path, name="fuzz.json", **{key: value})
    rc = main(["simulate", str(ws / "hex.json"), str(ws / "fwd.json"),
               str(scn), "--out", str(tmp_path / "runs_fuzz")])
    assert rc in (0, 2, 3)


def _step_count(t_end, dt) -> int | None:
    """round(t_end / dt) where both are finite positive numbers with a
    finite ratio, as the scenario loader counts steps; None otherwise."""
    try:
        t_end, dt = as_float("t_end", t_end), as_float("dt", dt)
    except ValueError:
        return None
    if t_end <= 0.0 or dt <= 0.0 or not math.isfinite(t_end / dt):
        return None
    return round(t_end / dt)


# arbitrary JSON values, and numbers that often make a short valid run
_run_length = (json_values | st.integers(1, 20) | st.sampled_from([0.05, 0.1, 0.5, 2.5])
               | st.floats(1e-12, 1e12))


@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(t_end=_run_length, dt=_run_length)
def test_simulate_fuzzed_run_length_exits_cleanly(ws, tmp_path, t_end, dt):
    """t_end and dt as arbitrary JSON values: the scenario runs (0), is
    refused as malformed (2) or fails numerically (3); main never raises.
    A draw is kept when it makes no valid step count, at most 200 steps,
    or more than the 10**7-step cap; a longer valid run takes minutes."""
    steps = _step_count(t_end, dt)
    assume(steps is None or steps <= 200 or steps > sim._MAX_STEPS)
    scn = scenario_file(tmp_path, name="fuzz_len.json", t_end=t_end, dt=dt)
    rc = main(["simulate", str(ws / "hex.json"), str(ws / "fwd.json"),
               str(scn), "--out", str(tmp_path / "runs_len")])
    assert rc in (0, 2, 3)


def test_simulate_repeat_is_byte_identical(ws, tmp_path):
    scn = scenario_file(tmp_path, name="det.json")
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    for out in (out1, out2):
        rc = main(["simulate", str(ws / "hex.json"), str(ws / "fwd.json"),
                   str(scn), "--out", str(out)])
        assert rc == 0
    assert (out1 / "det.csv").read_bytes() == (out2 / "det.csv").read_bytes()
    assert (out1 / "det.metrics.json").read_bytes() == \
        (out2 / "det.metrics.json").read_bytes()


def test_simulate_unreachable_reference_exit2(ws, tmp_path):
    scn = scenario_file(tmp_path, name="bad.json",
                        reference_schedule=[[0.0, 80.0]])
    rc = main(["simulate", str(ws / "hex.json"), str(ws / "fwd.json"),
               str(scn), "--out", str(tmp_path / "nope")])
    assert rc == 2


def test_compare_pi_command(ws, tmp_path):
    ours = scenario_file(tmp_path, name="ours.json", t_end=20.0)
    pi = scenario_file(tmp_path, name="pi.json", t_end=20.0, law="pi",
                       kp_pi=-0.01, ki_pi=-0.001)
    out = tmp_path / "cmp.json"
    rc = main(["compare-pi", str(ws / "hex.json"), str(ws / "fwd.json"),
               str(ours), str(pi), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["ours"]["law"] == "forwarding"
    assert rep["pi"]["law"] == "pi"


def test_compare_pi_nonfinite_pi_run_exit3(ws, tmp_path, monkeypatch, capsys):
    """A NonFiniteError of the PI run reaches main as exit 3 with its
    message, and no report is written."""
    real_run = sim.run

    def run(scn):
        if scn.law == "pi":
            raise hexreg.NonFiniteError(5, 0.5, "z", u_sat=0.02)
        return real_run(scn)

    monkeypatch.setattr(sim, "run", run)
    ours = scenario_file(tmp_path, name="o3.json", t_end=5.0)
    pi = scenario_file(tmp_path, name="p3.json", t_end=5.0, law="pi",
                       kp_pi=-0.01, ki_pi=-0.001)
    capsys.readouterr()
    rc = main(["compare-pi", str(ws / "hex.json"), str(ws / "fwd.json"),
               str(ours), str(pi), "--out", str(tmp_path / "c3.json")])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: non-finite state at step 5 (t = 0.5 s): z first, last finite u_sat = 0.02"]
    assert not (tmp_path / "c3.json").exists()


def test_compare_pi_baseline_without_the_pi_law_exit2(ws, tmp_path, capsys):
    """A forwarding scenario as the baseline exits 2 naming its law, and no
    report is written."""
    ours = scenario_file(tmp_path, name="o4.json", t_end=5.0)
    baseline = scenario_file(tmp_path, name="p4.json", t_end=5.0)
    capsys.readouterr()
    rc = main(["compare-pi", str(ws / "hex.json"), str(ws / "fwd.json"),
               str(ours), str(baseline), "--out", str(tmp_path / "c4.json")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: the baseline scenario runs the forwarding law, not the pi law"]
    assert not (tmp_path / "c4.json").exists()


def test_compare_pi_schedule_mismatch_exit2(ws, tmp_path):
    ours = scenario_file(tmp_path, name="o2.json", t_end=20.0)
    pi = scenario_file(tmp_path, name="p2.json", t_end=20.0, law="pi",
                       kp_pi=-0.01, ki_pi=-0.001,
                       reference_schedule=[[0.0, 26.0]])
    rc = main(["compare-pi", str(ws / "hex.json"), str(ws / "fwd.json"),
               str(ours), str(pi)])
    assert rc == 2
