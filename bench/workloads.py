"""The three workloads: their inputs, set-up, timed rounds and checks.

Each workload is a closed loop driven from one process: the next operation
starts when the previous one has returned.

- tracking: the hexreg CLI as a user runs it, one process per command.
- seed_sweep: `sim.run_many` over initial states drawn from the seed.
- certify: designs and certification sweeps, with no simulation.

A workload object holds its inputs.  `setup()` does the work that comes
before the timed part; `round()` is the timed part and returns its outputs;
`check()` returns the problems found in them.  An operation that raises
(or a command that exits non-zero) counts as failed and has no outputs to
check.  Library calls go through hexreg's module attributes, so that a
traced pass sees them.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from tracing import vm_hwm_bytes

KELVIN = 273.15
K_P, K_I = 1e-6, 2.6e-5  # the CLI's default forwarding gains
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "_out"


def _source_digest(root: Path) -> str:
    """SHA-256 of the program's sources, the configs and the benchmark's code."""
    h = hashlib.sha256()
    files = [*(root / "src").rglob("*.py"), *(root / "configs").glob("*.json"),
             *BENCH_DIR.glob("*.py")]
    for path in sorted(files):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _plant_arrays(plant) -> dict:
    """A hexreg BilinearSystem as the plain dict that checks.py takes."""
    out = {k: np.asarray(getattr(plant, k)) for k in ("A", "B", "b", "E", "C")}
    out["u_min"], out["u_max"] = plant.u_min, plant.u_max
    return out


class Outcome:
    """Outputs of one round, with its operation counts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.data: dict = {}

    def failure(self, what: str, detail: str) -> None:
        self.failed += 1
        self.failures.append(f"{what} failed: {detail}")


# ---------------------------------------------------------------------------
# tracking


class Tracking:
    """Three hexreg commands, one process each, on shipped and derived inputs.

    Inputs do not depend on the seed: the commands replay
    configs/experiment2.json (with its PI twin) and a criterion-08 style
    integral-only regulation, so every run must write identical bytes.  The
    first round run with a given set of sources records the SHA-256 of its
    outputs under bench/_out/; every later round, in this run or another,
    must match it.
    """

    name = "tracking"
    setup_reps = 2
    min_rounds = 2

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool, tracer=None):
        self.work, self.smoke, self.tracer = work, smoke, tracer
        self.configs = root / "configs"
        self.io_t_end, self.io_dt = (200.0, 1.0) if smoke else (60000.0, 1.0)
        self.io_start_c = 26.5 if smoke else 26.0
        self.min_pi_off_s = 20.0 if smoke else 300.0
        self.digests: dict[str, str] | None = None
        self.record = OUT_DIR / "digests-tracking{}-{}.json".format(
            "-smoke" if smoke else "", _source_digest(root))
        self.peak_rss_bytes = 0  # largest VmHWM of the hexreg processes

    def setup(self) -> None:
        from hexreg import design, model, steady_state

        params = model.HexParams.from_json(str(self.configs / "hex_table1.json"))
        plant = model.build_hex(params)
        model.save_system(str(self.work / "hex.json"), plant, params)
        eq = steady_state.invert_reference(plant, 26.5 + KELVIN)
        design.save_artifacts(str(self.work / "fwd.json"),
                              design.forwarding_design(plant, eq, K_P, K_I))
        design.save_artifacts(str(self.work / "io.json"),
                              design.integral_only_design(plant, eq, hex_params=params))
        x0 = steady_state.invert_reference(plant, self.io_start_c + KELVIN).x_ss
        self._write("io_scn.json", {
            "units": "K", "law": "integral_only", "t_end": self.io_t_end,
            "dt": self.io_dt, "reference_schedule": [[0.0, 26.5 + KELVIN]],
            "x0": x0.tolist(),
        })
        exp2 = self.configs / "experiment2.json"
        exp2_pi = self.configs / "experiment2_pi.json"
        if self.smoke:
            schedule = [[0.0, 26.5], [5.0, 28.0], [10.0, 24.4]]
            for src, dst in ((exp2, "exp2.json"), (exp2_pi, "exp2_pi.json")):
                data = json.loads(src.read_text(encoding="utf-8"))
                data.update(t_end=60.0, reference_schedule=schedule)
                self._write(dst, data)
            exp2, exp2_pi = self.work / "exp2.json", self.work / "exp2_pi.json"
        self.exp2, self.exp2_pi = exp2, exp2_pi

    def _write(self, name: str, data: dict) -> None:
        (self.work / name).write_text(json.dumps(data), encoding="utf-8")

    def commands(self, out: Path) -> list[tuple[str, list[str]]]:
        w = self.work
        return [
            ("simulate_forwarding",
             ["simulate", str(w / "hex.json"), str(w / "fwd.json"), str(self.exp2),
              "--out", str(out / "fwd")]),
            ("simulate_integral_only",
             ["simulate", str(w / "hex.json"), str(w / "io.json"), str(w / "io_scn.json"),
              "--law", "integral_only", "--out", str(out / "io")]),
            ("compare_pi",
             ["compare-pi", str(w / "hex.json"), str(w / "fwd.json"), str(self.exp2),
              str(self.exp2_pi), "--out", str(out / "compare.json")]),
        ]

    def _call(self, command: str, argv: list[str], out: Path) -> subprocess.CompletedProcess:
        """One hexreg process; its report gives its peak RSS (and spans)."""
        report_path = self.work / f"{command}.report.json"
        traced = "1" if self.tracer is not None else "0"
        cmd = [sys.executable, str(BENCH_DIR / "climain.py"), str(report_path), traced, *argv]
        if self.tracer is None:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=self.work)
        else:
            with self.tracer.span("cli.call", command=command) as rec:
                proc = subprocess.run(cmd, capture_output=True, text=True, cwd=self.work)
        if report_path.exists():
            report = json.loads(report_path.read_text(encoding="utf-8"))
            report_path.unlink()
            self.peak_rss_bytes = max(self.peak_rss_bytes, report["vm_hwm_bytes"])
            if self.tracer is not None:
                self.tracer.adopt(report["spans"], rec["id"])
        return proc

    def peak_rss_mb(self) -> float:
        return self.peak_rss_bytes / 2**20

    def round(self, index: int, between) -> Outcome:
        res = Outcome()
        out = self.work / f"round{index}"
        out.mkdir()
        res.data["dir"] = out
        res.data["ok"] = set()
        for i, (command, argv) in enumerate(self.commands(out)):
            if i:
                between()
            res.attempted += 1
            proc = self._call(command, argv, out)
            if proc.returncode != 0:
                res.failure(command, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            else:
                res.data["ok"].add(command)
        return res

    def check(self, res: Outcome) -> list[str]:
        out: Path = res.data["dir"]
        problems = []
        if res.data["ok"] & {"simulate_forwarding", "simulate_integral_only"}:
            plant = checks.load_plant(self.work / "hex.json")
        if "simulate_forwarding" in res.data["ok"]:
            problems += self._check_csv(plant, out / "fwd" / f"{self.exp2.stem}.csv",
                                        self.exp2, forwarding=True)
        if "simulate_integral_only" in res.data["ok"]:
            problems += self._check_csv(plant, out / "io" / "io_scn.csv",
                                        self.work / "io_scn.json", forwarding=False)
        if "compare_pi" in res.data["ok"]:
            report = json.loads((out / "compare.json").read_text(encoding="utf-8"))
            problems += checks.check_pi_windup(report, self.min_pi_off_s)
            if "simulate_forwarding" in res.data["ok"]:
                metrics = json.loads((out / "fwd" / f"{self.exp2.stem}.metrics.json")
                                     .read_text(encoding="utf-8"))
                problems += checks.check_same_metrics(metrics, report["ours"])
        digests = {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()
        }
        if self.digests is None:
            self.digests = self._first_digests(digests)
        if digests != self.digests:
            changed = sorted(k for k in set(digests) | set(self.digests)
                             if digests.get(k) != self.digests.get(k))
            problems.append(f"output bytes differ from the first round's in {changed}")
        return problems

    def _first_digests(self, digests: dict[str, str]) -> dict[str, str]:
        """The digests recorded by the first round on these sources."""
        if self.record.exists():
            return json.loads(self.record.read_text(encoding="utf-8"))
        tmp = self.record.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(digests, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.record)
        return digests

    def _check_csv(self, plant: dict, csv_path: Path, scenario_path: Path,
                   forwarding: bool) -> list[str]:
        scn = json.loads(scenario_path.read_text(encoding="utf-8"))
        offset = KELVIN if scn["units"] == "C" else 0.0
        ref = np.asarray(scn["reference_schedule"], dtype=np.float64).reshape(-1, 2)
        dist = np.asarray(scn.get("output_disturbance", []), dtype=np.float64).reshape(-1, 2)
        header, table = checks.read_csv(csv_path)
        col = lambda name: checks.column(header, table, name)  # noqa: E731
        x = checks.columns(header, table, "x")
        problems = checks.check_rows(table, scn["t_end"], scn["dt"])
        problems += checks.check_u_sat(col("u_raw"), col("u_sat"), plant["u_min"], plant["u_max"])
        problems += checks.check_error(plant, col("t"), x, col("e"), ref[:, 0],
                                       ref[:, 1] + offset, dist[:, 0], dist[:, 1])
        if forwarding:
            problems += checks.check_never_saturates(col("u_raw"), plant["u_min"], plant["u_max"])
        else:
            problems += checks.check_settled(plant, x[-1], col("e")[-1], col("u_sat")[-1])
            problems += checks.check_monotone(col("W"), "W")
        return [f"{csv_path.name}: {p}" for p in problems]

    def discard(self, res: Outcome) -> None:
        shutil.rmtree(res.data["dir"], ignore_errors=True)


# ---------------------------------------------------------------------------
# seed sweep


class SeedSweep:
    """Forwarding runs from initial states within +-20 K of x_ss, as one batch."""

    name = "seed_sweep"
    setup_reps = 1
    min_rounds = 3

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool, tracer=None):
        from hexreg import model

        self.count, self.spread_k = (2, 1e-6) if smoke else (20, 20.0)
        self.t_end, self.dt = (50.0, 0.05) if smoke else (3000.0, 0.1)
        rng = np.random.default_rng(seed)
        self.offsets = rng.uniform(-self.spread_k, self.spread_k, (self.count, 16))
        params = model.HexParams.from_json(str(root / "configs" / "hex_table1.json"))
        self.plant = model.build_hex(params)

    def setup(self) -> None:
        from hexreg import design, sim, steady_state

        eq = steady_state.invert_reference(self.plant, 26.5 + KELVIN)
        self.art = design.forwarding_design(self.plant, eq, K_P, K_I)
        self.scenarios = [
            sim.scenario_from_dict({
                "units": "K", "law": "forwarding", "t_end": self.t_end, "dt": self.dt,
                "reference_schedule": [[0.0, 26.5 + KELVIN]],
                "x0": (eq.x_ss + off).tolist(),
            }, self.plant, self.art)
            for off in self.offsets
        ]

    def round(self, index: int, between) -> Outcome:
        from hexreg import sim

        res = Outcome()
        res.attempted = len(self.scenarios)
        try:
            runs = sim.run_many(self.scenarios)
        except Exception as exc:  # a failed operation is counted, not fatal
            for _ in self.scenarios:
                res.failure("run_many", repr(exc))
            return res
        res.data["x_final"] = [r.x[-1].copy() for r in runs]
        res.data["e_final"] = [float(r.e[-1]) for r in runs]
        res.data["V"] = [r.monitors["V"] for r in runs]
        return res

    def check(self, res: Outcome) -> list[str]:
        if "V" not in res.data:
            return []
        return checks.check_sweep(_plant_arrays(self.plant), self.art.u_ss, res.data["x_final"],
                                  res.data["e_final"], res.data["V"])

    def discard(self, res: Outcome) -> None:
        res.data.clear()

    @staticmethod
    def peak_rss_mb() -> float:
        return vm_hwm_bytes() / 2**20


# ---------------------------------------------------------------------------
# certify


class Certify:
    """Designs at 20 references across the reachable set, and one A3 sweep."""

    name = "certify"
    setup_reps = 3
    min_rounds = 2

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool, tracer=None):
        self.params_path = str(root / "configs" / "hex_table1.json")
        n_refs = 2 if smoke else 20
        self.grid_u, self.grid_v = (8, 17) if smoke else (256, 513)
        # one reference per equal slice of the reachable set, placed by the seed
        rng = np.random.default_rng(seed)
        self.fractions = (np.arange(n_refs) + rng.uniform(0.05, 0.95, n_refs)) / n_refs

    def setup(self) -> None:
        from hexreg import model

        self.params = model.HexParams.from_json(self.params_path)
        self.plant = model.build_hex(self.params)

    def round(self, index: int, between) -> Outcome:
        from hexreg import analysis, design, steady_state

        res = Outcome()
        plant, params = self.plant, self.params
        reach = steady_state.reachable_set(plant)
        refs = reach.r_min + self.fractions * (reach.r_max - reach.r_min)
        res.data["designs"] = []
        for r in refs:
            between()
            res.attempted += 1
            try:
                eq = steady_state.invert_reference(plant, float(r))
                fwd = design.forwarding_design(plant, eq, K_P, K_I)
                io = design.integral_only_design(plant, eq, hex_params=params)
                limit = analysis.integral_gain_stability_limit(plant, io)
            except Exception as exc:  # a failed operation is counted, not fatal
                res.failure(f"design at r = {r!r}", repr(exc))
                continue
            res.data["designs"].append((float(r), eq, fwd, io.ki_star, limit))
        between()
        res.attempted += 1
        try:
            P = design.hex_analytic_P(params)
            margin = design.lyapunov_decay_margin(plant, P, grid=self.grid_u)
            nu = float(np.linalg.norm(P, 2) / design.input_coupling_bound(plant))
            eps = 0.5 * margin
            report = analysis.assumption_report(plant, P=P, nu=nu, eps=eps,
                                                u_grid=self.grid_u, v_grid=self.grid_v)
        except Exception as exc:  # a failed operation is counted, not fatal
            res.failure("assumption_report", repr(exc))
        else:
            res.data["report"] = (report.to_dict(), P, nu, eps)
        return res

    def check(self, res: Outcome) -> list[str]:
        plant = _plant_arrays(self.plant)
        problems = []
        for r, eq, fwd, ki_star, limit in res.data["designs"]:
            found = checks.check_inverted_reference(plant, r, eq.u_ss, eq.x_ss)
            found += checks.check_forwarding_artifacts(plant, fwd.u_ss, fwd.P, fwd.Upsilon, fwd.M)
            found += checks.check_ki_star(ki_star, limit)
            problems += [f"r = {r!r}: {p}" for p in found]
        if "report" in res.data:
            report, P, nu, eps = res.data["report"]
            problems += checks.check_report(plant, report, self.grid_u, P, nu, eps)
        return problems

    def discard(self, res: Outcome) -> None:
        res.data.clear()

    @staticmethod
    def peak_rss_mb() -> float:
        return vm_hwm_bytes() / 2**20


WORKLOADS = {w.name: w for w in (Tracking, SeedSweep, Certify)}


class SetUps:
    """Timed set-ups of one workload, kept apart from the round times.

    measure() calls it before every round and once after the last; a round
    with several operations also calls it between them, so that the set-up
    times sample the whole run rather than one instant of it.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.times: list[float] = []
        self.spent = 0.0

    def __call__(self) -> None:
        t_start = time.perf_counter()
        for _ in range(self.workload.setup_reps):
            t0 = time.perf_counter()
            self.workload.setup()
            self.times.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t_start


def measure(workload, seconds: float, min_rounds: int | None = None) -> dict:
    """Run whole rounds until `seconds` of round time have passed.

    At least min_rounds rounds run (the workload's own minimum by default).
    Returns the median set-up and round times, the operation counts, the
    failed operations and the problems the checks found.  Checks run
    between rounds and are not timed.
    """
    if min_rounds is None:
        min_rounds = workload.min_rounds
    setups = SetUps(workload)
    round_times: list[float] = []
    attempted = failed = 0
    failures: list[str] = []
    problems: list[str] = []
    while len(round_times) < max(1, min_rounds) or sum(round_times) < seconds:
        setups()
        t0, spent0 = time.perf_counter(), setups.spent
        res = workload.round(len(round_times), setups)
        round_times.append(time.perf_counter() - t0 - (setups.spent - spent0))
        attempted += res.attempted
        failed += res.failed
        failures += res.failures
        problems += workload.check(res)
        workload.discard(res)
    setups()
    return {
        "setup_s": statistics.median(setups.times),
        "wall_s": statistics.median(round_times),
        "round_s": round_times,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "problems": problems,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
