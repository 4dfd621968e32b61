"""Checks of hexreg's outputs, recomputed with numpy apart from the program.

Nothing here imports hexreg.  Each check takes plain arrays (or parsed JSON)
and returns a list of problems, empty when the output passes.  A check
compares against a quantity it computes itself, or against a property the
method must have; never against a stored copy of earlier output.

A plant is a dict of arrays with the keys of a hexreg system file:
A, B, b, E, C, u_min, u_max.
"""

from __future__ import annotations

import json

import numpy as np

E_TOL = 1e-9          # K, recomputed tracking error against the CSV's e
MONOTONE_TOL = 1e-8   # largest relative rise per step of a Lyapunov series
FINAL_E_TOL = 1e-3    # K, final |e| of a converging run
FINAL_X_TOL = 1e-6    # K, final state against the separately solved equilibrium
LYAP_TOL = 1e-8       # |F^T P + P F + 2 Upsilon|
MF_TOL = 1e-10        # |M F - C|
GRID_RTOL = 1e-9      # recomputed certification margins, relative


def load_plant(path) -> dict:
    """The plant matrices of a hexreg system file, as float arrays."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    plant = {k: np.asarray(data[k], dtype=np.float64) for k in ("A", "B", "b", "E", "C")}
    plant["u_min"] = float(data["u_min"])
    plant["u_max"] = float(data["u_max"])
    return plant


def equilibrium(plant: dict, u: float) -> np.ndarray:
    """x with (A + B u) x + b u + E = 0."""
    u = float(u)
    return -np.linalg.solve(plant["A"] + plant["B"] * u, plant["b"] * u + plant["E"])


def schedule_at(times, sched_t, sched_v, default: float = 0.0) -> np.ndarray:
    """The piecewise-constant value in force at each time (last t_i <= t)."""
    idx = np.searchsorted(np.asarray(sched_t, dtype=np.float64), times, side="right") - 1
    vals = np.asarray(sched_v, dtype=np.float64)
    if vals.size == 0:
        return np.full(np.shape(times), float(default))
    return np.where(idx >= 0, vals[np.maximum(idx, 0)], float(default))


def max_rise(series) -> float:
    """Largest (s[k+1] - s[k]) / (1 + s[k]) along a series; 0 for one sample."""
    s = np.asarray(series, dtype=np.float64)
    if s.size < 2:
        return 0.0
    return float(np.max((s[1:] - s[:-1]) / (1.0 + s[:-1])))


# ---------------------------------------------------------------------------
# tracking: one CSV per simulate call, one report per compare-pi call


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header names and the data rows of a hexreg CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, table


def columns(header: list[str], table: np.ndarray, prefix: str) -> np.ndarray:
    """Every column named prefix_1, prefix_2, ... in order, as one block."""
    idx = [i for i, name in enumerate(header) if name.startswith(prefix + "_")]
    return table[:, idx]


def column(header: list[str], table: np.ndarray, name: str) -> np.ndarray:
    return table[:, header.index(name)]


def check_rows(table: np.ndarray, t_end: float, dt: float) -> list[str]:
    want = int(round(t_end / dt)) + 1
    if table.shape[0] != want:
        return [f"{table.shape[0]} rows, expected t_end/dt + 1 = {want}"]
    return []


def check_u_sat(u_raw, u_sat, u_min: float, u_max: float) -> list[str]:
    bad = np.nonzero(np.clip(u_raw, u_min, u_max) != u_sat)[0]
    if bad.size:
        return [f"u_sat != clip(u_raw) at {bad.size} rows, first row {int(bad[0])}"]
    return []


def check_error(plant: dict, times, x, e, ref_t, ref_v, dist_t, dist_v,
                tol: float = E_TOL) -> list[str]:
    """e against C x - r(t) + d(t), recomputed from the plant and schedules."""
    want = x @ plant["C"] - schedule_at(times, ref_t, ref_v) + schedule_at(times, dist_t, dist_v)
    gap = np.abs(e - want)
    worst = int(np.argmax(gap))
    if not gap[worst] <= tol:
        return [f"e off its recomputation by {gap[worst]:.3e} K at row {worst}"]
    return []


def check_never_saturates(u_raw, u_min: float, u_max: float) -> list[str]:
    out = np.nonzero((u_raw < u_min) | (u_raw > u_max))[0]
    if out.size:
        return [f"input left [u_min, u_max] at {out.size} rows, first row {int(out[0])}"]
    return []


def check_settled(plant: dict, x_final, e_final: float, u_final: float,
                  e_tol: float = FINAL_E_TOL, x_tol: float = FINAL_X_TOL) -> list[str]:
    """Final |e| small, and the final state at the equilibrium of its input."""
    problems = []
    if not abs(e_final) <= e_tol:
        problems.append(f"final |e| {abs(e_final):.3e} K > {e_tol:g} K")
    gap = float(np.max(np.abs(np.asarray(x_final) - equilibrium(plant, u_final))))
    if not gap <= x_tol:
        problems.append(f"final state {gap:.3e} K off the equilibrium at u = {u_final!r}")
    return problems


def check_monotone(series, name: str, tol: float = MONOTONE_TOL) -> list[str]:
    rise = max_rise(series)
    if not rise <= tol:
        return [f"{name} rose by {rise:.3e} (1 + {name}) in one step"]
    return []


def check_pi_windup(report: dict, min_off_s: float) -> list[str]:
    """Criterion 07: ours never saturates; PI winds up after the last step."""
    problems = []
    if report["ours"]["sat_duty"] != 0.0:
        problems.append(f"proposed law saturated (duty {report['ours']['sat_duty']})")
    post = report["pi"]["post_last_step"]
    if not post["sat_duty"] > 0.0:
        problems.append("PI baseline never saturated after the last step")
    if not post["time_abs_error_gt_0p1"] >= min_off_s:
        problems.append(
            f"PI off by > 0.1 K for {post['time_abs_error_gt_0p1']} s, expected >= {min_off_s} s"
        )
    return problems


def check_same_metrics(simulate_metrics: dict, compare_ours: dict) -> list[str]:
    """The forwarding run of compare-pi repeats simulate's run in another process."""
    keys = ("iae", "sat_duty", "settling_times", "post_last_step")
    diff = [k for k in keys if simulate_metrics[k] != compare_ours[k]]
    if diff:
        return [f"compare-pi's forwarding run differs from simulate's in {diff}"]
    return []


# ---------------------------------------------------------------------------
# seed sweep


def check_sweep(plant: dict, u_ss: float, finals_x, finals_e, V_series) -> list[str]:
    """Every trajectory ends at the equilibrium of u_ss with V never rising."""
    problems = []
    for i, (x, e, V) in enumerate(zip(finals_x, finals_e, V_series)):
        for msg in check_settled(plant, x, e, u_ss) + check_monotone(V, "V"):
            problems.append(f"trajectory {i}: {msg}")
    return problems


# ---------------------------------------------------------------------------
# certification


def check_inverted_reference(plant: dict, r: float, u_ss: float, x_ss) -> list[str]:
    """C x_ss = r and (A + B u) x + b u + E = 0, both recomputed here."""
    problems = []
    x_ss = np.asarray(x_ss, dtype=np.float64)
    y_gap = abs(float(plant["C"] @ x_ss) - r)
    if not y_gap <= 1e-8 * (1.0 + abs(r)):
        problems.append(f"C x_ss misses r = {r!r} by {y_gap:.3e} K")
    F = plant["A"] + plant["B"] * u_ss
    res = float(np.max(np.abs(F @ x_ss + plant["b"] * u_ss + plant["E"])))
    if not res <= 1e-9 * (1.0 + float(np.max(np.abs(x_ss)))):
        problems.append(f"equilibrium residual {res:.3e} at u_ss = {u_ss!r}")
    return problems


def check_forwarding_artifacts(plant: dict, u_ss: float, P, Upsilon, M) -> list[str]:
    """F^T P + P F + 2 Upsilon = 0, M F = C and P > 0 at F = A + B u_ss."""
    problems = []
    P = np.asarray(P, dtype=np.float64)
    F = plant["A"] + plant["B"] * u_ss
    lyap = float(np.max(np.abs(F.T @ P + P @ F + 2.0 * np.asarray(Upsilon))))
    if not lyap <= LYAP_TOL:
        problems.append(f"Lyapunov residual {lyap:.3e} > {LYAP_TOL:g}")
    mf = float(np.max(np.abs(np.asarray(M) @ F - plant["C"])))
    if not mf <= MF_TOL:
        problems.append(f"|M F - C| = {mf:.3e} > {MF_TOL:g}")
    if not np.linalg.eigvalsh(0.5 * (P + P.T))[0] > 0.0:
        problems.append("P is not positive definite")
    return problems


def check_ki_star(ki_star: float, limit: float) -> list[str]:
    if not ki_star <= limit:
        return [f"ki_star {ki_star:.6e} above the stability limit {limit:.6e}"]
    return []


def hurwitz_margin(plant: dict, n_u: int) -> float:
    """max over the input grid of the largest real eigenvalue part of A + B u."""
    grid = np.linspace(plant["u_min"], plant["u_max"], n_u)
    return max(float(np.max(np.linalg.eigvals(plant["A"] + plant["B"] * u).real))
               for u in grid)


def a3a_residual(plant: dict, n_u: int, P, nu: float, eps: float, mu: float) -> float:
    """Largest eigenvalue of [[P F + F^T P + (nu mu^2 + 2 eps) I, P], [P, -nu I]]."""
    P = np.asarray(P, dtype=np.float64)
    n = P.shape[0]
    worst = -np.inf
    for u in np.linspace(plant["u_min"], plant["u_max"], n_u):
        F = plant["A"] + plant["B"] * u
        block = np.block([
            [P @ F + F.T @ P + (nu * mu**2 + 2.0 * eps) * np.eye(n), P],
            [P, -nu * np.eye(n)],
        ])
        worst = max(worst, float(np.linalg.eigvalsh(block)[-1]))
    return worst


def check_report(plant: dict, report: dict, n_u: int, P, nu: float, eps: float) -> list[str]:
    """hurwitz_margin and the A3(a) residual against their recomputation."""
    problems = []
    mu = float(np.linalg.norm(plant["B"], 2) * max(abs(plant["u_min"]), abs(plant["u_max"])))
    for name, want in (
        ("hurwitz_margin", hurwitz_margin(plant, n_u)),
        ("a3a_worst_residual", a3a_residual(plant, n_u, P, nu, eps, mu)),
    ):
        got = report[name]
        if not abs(got - want) <= GRID_RTOL * max(1.0, abs(want)):
            problems.append(f"{name} {got!r} != recomputed {want!r}")
    return problems
