"""Deterministic closed-loop simulation over scripted scenarios.

A scenario bundles the plant, the design artifacts, the control law, and the
piecewise-constant reference / output-disturbance schedules.  `run` advances
plant, observer, and integrator together with one fixed-step RK4 pass
(kernels.closed_loop_rk4) and takes the applicable Lyapunov monitor series
of each 1024-row block the kernel reports final while the kernel goes on.
It has one path: given a CSV path, a forked process writes the CSV from
those blocks beside the kernel; without one, no process starts.
`run_many` passes the same kernel one start per row and takes the monitors
of the same blocks once it returns, so each of its results is bit for bit
what `run` gives on that scenario.
Identical inputs give bit-identical outputs.

Temperatures may be scripted in kelvin or Celsius; everything is converted
to kelvin at load time.  Disturbances are offsets, so they carry across
either unit unchanged.  The steady-state anchor (u_ss, x_ss) of the
artifacts stays fixed for the whole run; reference steps are absorbed by the
integral action rather than by re-solving the feedforward, so the input
moves only through the feedback path.
"""

from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
    _MONITOR_NAMES,
    max_monotone_violation,
    observer_monitor_constants,
    trajectory_monitors,
)
from .design import DesignArtifacts, require_artifacts_fit
from .errors import (
    NonFiniteError,
    SchedulesDifferError,
    as_array,
    as_float,
    require_finite,
)
from .kernels import (
    _BLOCK,
    INTEGRAL_ONLY,
    LAWS,
    OUTPUT_FEEDBACK,
    PI,
    closed_loop_rk4,
    closed_loop_rk4_batch,
)
from .model import BilinearSystem
from .parallel import fork_join, fork_stream
from .serde import read_object, require_fields
from .steady_state import invert_reference, reachable_set

__all__ = [
    "SimResult",
    "SimScenario",
    "compare_pi",
    "kelvin_offset",
    "load_scenario",
    "run",
    "run_many",
    "run_metrics",
    "scenario_from_dict",
    "write_csv",
]

_MAX_STEPS = 10**7  # longest run a scenario may ask for; the kernel stores every step
_SCENARIO_REQUIRED = ("units", "law", "t_end", "dt", "reference_schedule")
_SCENARIO_OPTIONAL = ("output_disturbance", "x0", "x_hat0", "kp_pi", "ki_pi")


@dataclass
class SimScenario:
    """A fully resolved run description; all temperatures in kelvin."""

    sys: BilinearSystem
    artifacts: DesignArtifacts
    law: str
    t_end: float
    dt: float
    ref_t: np.ndarray
    ref_v: np.ndarray
    dist_t: np.ndarray
    dist_v: np.ndarray
    x0: np.ndarray
    x_hat0: np.ndarray
    kp_pi: float = 0.0
    ki_pi: float = 0.0

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class SimResult:
    """Sampled closed-loop series; one row per integration step boundary.

    monitors holds the law's Lyapunov monitor series by name, in the order
    analysis.trajectory_monitors gives and write_csv writes them.
    """

    times: np.ndarray
    x: np.ndarray
    x_hat: np.ndarray | None
    u_raw: np.ndarray
    u_sat: np.ndarray
    e: np.ndarray
    y: np.ndarray
    monitors: dict[str, np.ndarray] = field(default_factory=dict)


def kelvin_offset(units) -> float:
    """The offset that turns a temperature in units, "K" or "C", into kelvin."""
    if units not in ("K", "C"):
        raise ValueError(f'units must be "K" or "C", got {units!r}')
    return 273.15 if units == "C" else 0.0


def _as_schedule(raw, name: str, offset: float) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(raw, list):
        raise ValueError(f"{name} must be a list of [time, value] pairs")
    times = []
    vals = []
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ValueError(f"{name} entries must be [time, value] pairs, got {item!r}")
        times.append(as_float(f"{name} times", item[0]))
        vals.append(as_float(f"{name} values", item[1]) + offset)
    t = np.asarray(times, dtype=np.float64)
    v = np.asarray(vals, dtype=np.float64)
    if t.size and np.any(np.diff(t) <= 0.0):
        raise ValueError(f"{name} times must be strictly increasing")
    return t, v


def scenario_from_dict(
    data: dict, sys: BilinearSystem, artifacts: DesignArtifacts
) -> SimScenario:
    """Build a scenario from parsed JSON, converting units and validating.

    Checks: known keys only; finite numbers; kelvin or Celsius units;
    strictly increasing schedules starting at t = 0 and contained in
    [0, t_end]; t_end an exact multiple of dt of at most 10**7 steps; every
    reference inside the reachable set; artifact arrays whose shapes fit
    sys.  It is the one place that checks what each law needs: PI gains
    only with the pi law, and ki_pi for it; for integral-only, pi_bar in
    the artifacts; for output feedback, observer artifacts whose monitor
    constants exist.  So neither the kernel nor the monitors refuse a
    scenario this accepts.  x0 defaults to the open-loop equilibrium of the
    first reference, x_hat0 to x0.  The reachable set is the one
    reachable_set keeps on sys, so every scenario on one plant shares it.
    """
    require_fields(data, "scenario", _SCENARIO_REQUIRED, _SCENARIO_OPTIONAL)
    require_artifacts_fit(sys, artifacts)
    offset = kelvin_offset(data["units"])

    law = data["law"]
    if not isinstance(law, str) or law not in LAWS:
        raise ValueError(f"unknown law {law!r}; expected one of {sorted(LAWS)}")

    t_end = as_float("t_end", data["t_end"])
    dt = as_float("dt", data["dt"])
    if dt <= 0.0 or t_end <= 0.0:
        raise ValueError(f"dt and t_end must be positive, got dt={dt!r} t_end={t_end!r}")
    require_finite("t_end / dt", t_end / dt)
    n_steps = round(t_end / dt)
    if n_steps > _MAX_STEPS:
        raise ValueError(
            f"t_end={t_end!r} and dt={dt!r} ask for {n_steps} steps, above the "
            f"limit of {_MAX_STEPS}"
        )
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError(f"t_end={t_end!r} is not an integer multiple of dt={dt!r}")

    ref_t, ref_v = _as_schedule(data["reference_schedule"], "reference_schedule", offset)
    if ref_t.size == 0:
        raise ValueError("reference_schedule must contain at least one entry")
    if ref_t[0] != 0.0:
        raise ValueError("reference_schedule must start at t = 0")
    # disturbances are offsets, not absolute temperatures: no unit shift
    dist_t, dist_v = _as_schedule(
        data.get("output_disturbance", []), "output_disturbance", 0.0
    )
    for name, t in (("reference_schedule", ref_t), ("output_disturbance", dist_t)):
        if t.size and (t[0] < 0.0 or t[-1] > t_end):
            raise ValueError(f"{name} times must lie within [0, t_end]")

    reach = reachable_set(sys)
    for r in ref_v:
        reach.require(float(r))

    def state(key, default):
        if data.get(key) is None:
            return default()
        x = as_array(key, data[key], 1) + offset
        if x.shape != (sys.n_states,):
            raise ValueError(f"{key} must have {sys.n_states} entries, got {x.shape}")
        return x

    x0 = state("x0", lambda: invert_reference(sys, float(ref_v[0])).x_ss.copy())
    x_hat0 = state("x_hat0", x0.copy)

    kp_pi = as_float("kp_pi", data.get("kp_pi", 0.0))
    ki_pi = as_float("ki_pi", data.get("ki_pi", 0.0))
    if law != PI and ("kp_pi" in data or "ki_pi" in data):
        raise ValueError("kp_pi/ki_pi are only valid with the pi law")
    if law == PI and "ki_pi" not in data:
        raise ValueError("the pi law requires ki_pi in the scenario")
    if law == INTEGRAL_ONLY and artifacts.pi_bar is None:
        raise ValueError("the integral-only law requires pi_bar in the artifacts")
    if law == OUTPUT_FEEDBACK:
        # the monitor refuses missing observer artifacts and an indefinite
        # blkdiag(k_p P, k_i) here, before the run
        observer_monitor_constants(sys, artifacts)

    return SimScenario(
        sys=sys,
        artifacts=artifacts,
        law=law,
        t_end=t_end,
        dt=dt,
        ref_t=ref_t,
        ref_v=ref_v,
        dist_t=dist_t,
        dist_v=dist_v,
        x0=x0,
        x_hat0=x_hat0,
        kp_pi=kp_pi,
        ki_pi=ki_pi,
    )


def load_scenario(
    path: str | Path, sys: BilinearSystem, artifacts: DesignArtifacts
) -> SimScenario:
    return scenario_from_dict(read_object(path), sys, artifacts)


def _nonfinite(scn: SimScenario, U_sat: np.ndarray, bad) -> NonFiniteError:
    """The error for a run whose kernel reported bad = (step, row, column):
    the kernel's location, with the last finite u_sat of that row before
    that step."""
    step, row, column = bad
    before = (U_sat if row is None else U_sat[row])[:step]
    finite = before[np.isfinite(before)]
    return NonFiniteError(step, step * scn.dt, column, row,
                          float(finite[-1]) if finite.size else None)


def _shared_empty(*shape: int) -> np.ndarray:
    """A float64 array in anonymous shared memory: a process forked after
    this call sees what this one writes into it."""
    count = math.prod(shape)
    buf = mmap.mmap(-1, 8 * count)
    return np.frombuffer(buf, dtype=np.float64, count=count).reshape(shape)


def _block_monitors(scn: SimScenario, res: SimResult, Z: np.ndarray,
                    lo: int, hi: int) -> None:
    """Fill rows lo..hi-1 of res.monitors from those rows of res and Z."""
    block = trajectory_monitors(scn, res.x[lo:hi],
                                None if res.x_hat is None else res.x_hat[lo:hi],
                                Z[lo:hi])
    for name, series in block.items():
        res.monitors[name][lo:hi] = series


def run(scn: SimScenario, csv_path: str | Path | None = None) -> SimResult:
    """Integrate the closed loop and attach monitor series.

    The series live in anonymous shared memory.  The kernel fills them,
    and each block of rows it reports final gets its monitors there and
    is sent on.  Without csv_path nothing receives the blocks and no
    process starts.  With csv_path, parallel.fork_stream runs a forked
    writer beside the kernel, which formats each block as it arrives into
    a partial file beside csv_path; the bytes are those of
    write_csv(run(scn), csv_path).  A path that cannot be written fails
    before the first step, and a run that fails writes nothing: no CSV
    and no partial file.
    """
    T, n, p = scn.n_steps + 1, scn.sys.n_states, scn.sys.n_outputs
    Z = np.empty(T)  # the integrator state, which no CSV column holds
    XH = _shared_empty(T, n) if scn.law == OUTPUT_FEEDBACK else None
    res = SimResult(
        times=np.arange(T) * scn.dt, x=_shared_empty(T, n), x_hat=XH,
        u_raw=_shared_empty(T), u_sat=_shared_empty(T), e=_shared_empty(T),
        y=_shared_empty(T, p),
        monitors={name: _shared_empty(T) for name in _MONITOR_NAMES[scn.law]})
    out = (res.x, XH, Z, res.u_raw, res.u_sat, res.e, res.y)

    def integrate(send) -> None:
        def on_final(lo: int, hi: int) -> None:
            _block_monitors(scn, res, Z, lo, hi)
            send(hi)

        *_, bad = closed_loop_rk4(scn, scn.x0, scn.x_hat0,
                                  out=out, on_final=on_final)
        if bad is not None:
            raise _nonfinite(scn, res.u_sat, bad)

    if csv_path is None:
        integrate(lambda hi: None)
        return res
    path = Path(csv_path)
    part = path.with_name(f".{path.name}.part")
    open(part, "w").close()  # an unwritable path fails before the first step
    try:
        fork_stream(lambda received: _write_rows(part, res, received), integrate)
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)
    return res


def run_many(scenarios: list[SimScenario]) -> list[SimResult]:
    """Run scenarios that differ only in x0/x_hat0 as one batch.

    For seed sweeps over initial conditions.  The scenarios must share the
    plant, the schedules and the grid (as compare_pi checks), the law and
    its PI gains, and one artifact set (the same object); otherwise
    SchedulesDifferError is raised.  Each result is bit-identical to
    run() on that scenario, and all share one read-only times array; a
    non-finite state raises NonFiniteError at the first step where any
    scenario went non-finite, naming the first such scenario.
    """
    scenarios = list(scenarios)
    if not scenarios:
        return []
    first = scenarios[0]
    for other in scenarios[1:]:
        _require_shared(first, other, ("ref_t", "ref_v", "dist_t", "dist_v"))
        if other.law != first.law:
            raise SchedulesDifferError("the scenarios use different laws")
        if other.artifacts is not first.artifacts:
            raise SchedulesDifferError("the scenarios use different artifact sets")
        if (other.kp_pi, other.ki_pi) != (first.kp_pi, first.ki_pi):
            raise SchedulesDifferError("kp_pi/ki_pi differ between the scenarios")
    x0 = np.stack([scn.x0 for scn in scenarios])
    x_hat0 = np.stack([scn.x_hat0 for scn in scenarios])
    *series, bad = closed_loop_rk4_batch(first, x0, x_hat0)
    if bad is not None:
        raise _nonfinite(first, series[4], bad)  # series[4] is U_sat
    T = first.n_steps + 1
    times = np.arange(T) * first.dt   # one grid, shared read-only by every result
    times.flags.writeable = False
    results = []
    for i, scn in enumerate(scenarios):
        X, XH, Z, U_raw, U_sat, Err, Y = (None if s is None else s[i] for s in series)
        res = SimResult(times, X, XH, U_raw, U_sat, Err, Y,
                        {name: np.empty(T) for name in _MONITOR_NAMES[scn.law]})
        for lo in range(0, T, _BLOCK):
            _block_monitors(scn, res, Z, lo, min(lo + _BLOCK, T))
        results.append(res)
    return results


# ---------------------------------------------------------------------------
# outputs


def _write_rows(path: str | Path, res: SimResult, received) -> None:
    """Write res's CSV to path: for each count hi that received yields,
    rows lo..hi-1 of its columns in one stacked block, lo being the count
    before (0 at first); the last count is the row total.  run and
    write_csv send the ends of the kernel's blocks."""
    n = res.x.shape[1]
    p = res.y.shape[1]
    cols: list[tuple[str, np.ndarray]] = [("t", res.times)]
    cols += [(f"x_{i + 1}", res.x[:, i]) for i in range(n)]
    if res.x_hat is not None:
        cols += [(f"xhat_{i + 1}", res.x_hat[:, i]) for i in range(n)]
    cols += [("u_raw", res.u_raw), ("u_sat", res.u_sat), ("e", res.e)]
    cols += [(f"y_{i + 1}", res.y[:, i]) for i in range(p)]
    cols += res.monitors.items()
    data = [col for _, col in cols]
    row_fmt = ",".join(["%.17g"] * len(data)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(name for name, _ in cols) + "\n")
        lo = 0
        for hi in received:
            # a block of rows at a time: stacking the whole table would
            # hold a second copy of it
            rows = np.column_stack([col[lo:hi] for col in data]).tolist()
            fh.writelines(row_fmt % tuple(row) for row in rows)
            lo = hi


def write_csv(res: SimResult, path: str | Path) -> None:
    """Time series as CSV with 17-significant-digit floats.

    Column order: t, states, estimates (when present), u_raw, u_sat, e,
    measured outputs, then whichever monitors the law produced.
    """
    T = res.times.shape[0]
    _write_rows(path, res, [*range(_BLOCK, T, _BLOCK), T])


def _segment_bounds(scn: SimScenario, res: SimResult) -> list[tuple[int, int, float]]:
    """(lo, hi, reference) per constant-reference segment, rows lo..hi-1.

    A segment starts at the first sample whose time is >= its entry's, the
    step at which the kernel switches to that reference, and ends where the
    next one starts; the last runs to the end.  An entry after the last
    sample, or one that the next entry follows before any sample, has a
    segment with no sample.
    """
    edges = np.searchsorted(res.times, scn.ref_t).tolist()
    edges.append(res.times.shape[0])
    return [(edges[i], edges[i + 1], float(scn.ref_v[i])) for i in range(len(scn.ref_t))]


def _settle_time(
    times: np.ndarray, err: np.ndarray, lo: int, hi: int, band: float
) -> float | None:
    """Earliest time in rows lo..hi-1 after which |e| stays within the band;
    None when it is out of the band at row hi-1 or there is no row."""
    bad = np.nonzero(np.abs(err[lo:hi]) > band)[0]
    last = lo + int(bad[-1]) + 1 if bad.size else lo
    return float(times[last]) if last < hi else None


def run_metrics(scn: SimScenario, res: SimResult) -> dict:
    """Scalar summary of a run: input excursion, errors, settling, monitors.

    Settling uses a band of 2% of each reference step's size (floored at
    0.01 K to keep the first, stepless segment meaningful).  The saturation
    duty cycle counts samples whose raw input lies strictly outside the
    admissible interval.
    """
    sys = scn.sys
    outside = (res.u_raw < sys.u_min - 1e-12) | (res.u_raw > sys.u_max + 1e-12)
    segments = _segment_bounds(scn, res)
    settling = []
    prev_r = float(scn.sys.C @ res.x[0])
    for lo, hi, r in segments:
        band = max(0.02 * abs(r - prev_r), 0.01)
        settling.append(_settle_time(res.times, res.e, lo, hi, band))
        prev_r = r
    # after the last step; the last sample alone if that step has no sample
    last_lo = min(segments[-1][0], res.e.shape[0] - 1)
    post = np.abs(res.e[last_lo:])
    metrics = {
        "law": scn.law,
        "dt": scn.dt,
        "t_end": scn.t_end,
        "u_ss": scn.artifacts.u_ss,
        "final_abs_error": float(abs(res.e[-1])),
        "max_abs_error": float(np.max(np.abs(res.e))),
        "iae": float(np.sum(np.abs(res.e)) * scn.dt),
        "max_u_raw": float(np.max(res.u_raw)),
        "min_u_raw": float(np.min(res.u_raw)),
        "sat_duty": float(np.mean(outside)),
        "settling_times": settling,
        "post_last_step": {
            "sat_duty": float(np.mean(outside[last_lo:])),
            "time_abs_error_gt_0p1": float(np.sum(post > 0.1) * scn.dt),
        },
    }
    for name, series in res.monitors.items():
        metrics[f"monitor_{name}"] = {
            "max": float(np.max(series)),
            "final": float(series[-1]),
            "max_increase": max_monotone_violation(series),
        }
    return metrics


def _require_shared(a: SimScenario, b: SimScenario, fields: tuple[str, ...]) -> None:
    """Raise SchedulesDifferError unless a and b share plant, grid and fields."""
    same_sys = (
        np.array_equal(a.sys.A, b.sys.A)
        and np.array_equal(a.sys.B, b.sys.B)
        and np.array_equal(a.sys.b, b.sys.b)
        and np.array_equal(a.sys.E, b.sys.E)
        and np.array_equal(a.sys.C, b.sys.C)
        and np.array_equal(a.sys.D, b.sys.D)
        and (a.sys.u_min, a.sys.u_max) == (b.sys.u_min, b.sys.u_max)
    )
    if not same_sys:
        raise SchedulesDifferError("the two scenarios use different plants")
    for attr in fields:
        if not np.array_equal(getattr(a, attr), getattr(b, attr)):
            raise SchedulesDifferError(f"scenario field {attr} differs")
    if (a.t_end, a.dt) != (b.t_end, b.dt):
        raise SchedulesDifferError("t_end/dt differ between the scenarios")


def _summary(scn: SimScenario) -> dict:
    """One law's entry in the compare_pi report: run, metrics, the summary."""
    m = run_metrics(scn, run(scn))
    return {
        "law": scn.law,
        "settling_times": m["settling_times"],
        "max_abs_u_raw": max(abs(m["max_u_raw"]), abs(m["min_u_raw"])),
        "sat_duty": m["sat_duty"],
        "iae": m["iae"],
        "post_last_step": m["post_last_step"],
    }


def compare_pi(scn_ours: SimScenario, scn_pi: SimScenario) -> dict:
    """Run the proposed law and the PI baseline on one scenario and report both.

    The two scenarios must agree on the plant, both schedules, the grid
    (dt, t_end), and the initial state; only the law and its gains differ.
    The two runs share nothing, so parallel.fork_join runs the PI run and
    its metrics in a forked process while the proposed law runs in this
    one; the report is the one the two runs give in turn.  An error of
    the proposed law's run comes first, as it did when it ran first.
    """
    _require_shared(scn_ours, scn_pi, ("ref_t", "ref_v", "dist_t", "dist_v", "x0"))
    pi, ours = fork_join(lambda: _summary(scn_pi), lambda: _summary(scn_ours))
    return {"ours": ours, "pi": pi}
