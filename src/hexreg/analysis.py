"""Certificate checks and proof-level monitors.

Everything here re-derives quantities from first principles so tests and the
verify subcommand can cross-examine design artifacts: checks of the standing
assumptions (on an input grid, except the robust-decay inequality, which is
affine in the input and decided at its two bounds), Lyapunov monitor
evaluation along trajectories, and the linearized stability analysis of the
integral-only loop.  Negative findings are reported as data; only malformed
inputs raise.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .controllers import FORWARDING, INTEGRAL_ONLY, OUTPUT_FEEDBACK, PI
from .design import (
    DesignArtifacts,
    _dc_path,
    input_coupling_bound,
    robust_decay_block,
)
from .errors import MissingObserverStateError, NotHurwitzError, SingularMatrixError
from .model import BilinearSystem
from .kernels import _rowdot
from .parallel import fork_join
from .steady_state import _STACK_BLOCK, pi_map, screen_singular

__all__ = [
    "AssumptionReport",
    "LMIRecord",
    "assumption_report",
    "integral_gain_stability_limit",
    "linearization_matrix",
    "max_monotone_violation",
    "observer_monitor_constants",
    "saturation_gap",
    "spectral_abscissa",
    "trajectory_monitors",
]

_A3A_TOL = 1e-9  # slack on the largest LMI eigenvalue before declaring infeasible
_MONITOR_BLOCK = 1024  # samples per stacked solve; bounds the (block, n, n) temporaries
_GAIN_CAP = 1e9  # integral_gain_stability_limit gives up (inf) above this gain
_GAIN_RTOL = 1e-9  # relative width of its final bisection bracket
_MAX_GRID = 10**6  # most points assumption_report sweeps per grid


def saturation_gap(s, b, u_lo: float, u_hi: float):
    """s * (sat(b - s) - b), which is <= 0 whenever b lies in [u_lo, u_hi].

    Scalar or elementwise on arrays.  The sign of this product is what makes
    the saturated integrator terms in the closed-loop energy estimates
    dissipative, so tests sample it densely.
    """
    s = np.asarray(s, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = s * (np.clip(b - s, u_lo, u_hi) - b)
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# assumption reports


@dataclass
class LMIRecord:
    """Constants the robust-decay LMI was checked with."""

    nu: float
    eps: float
    mu: float
    u_range: tuple[float, float]
    v_range: tuple[float, float]


@dataclass
class AssumptionReport:
    """Assumption-check verdicts; fields are None when that check was not run.

    hurwitz_margin is the max over the input grid of the largest real
    eigenvalue part of the frozen matrix (negative means the whole family is
    Hurwitz).  dc_gain_min_abs is the min of |C F_u^-1 g_u| over the same
    grid.  The a3a fields cover the robust-decay LMI at the supplied
    (P, nu, eps) over the whole input interval, with no grid: the block is
    affine in u, so its largest eigenvalue is convex in u and the two input
    bounds decide it.  The a3b fields cover |C (F_u + B v)^-1 g_u| over the
    product grid.  Grid points where the shifted frozen matrix is
    numerically singular are counted, excluded from the minima, and spoil
    sign constancy.
    """

    hurwitz_margin: float | None = None
    dc_gain_min_abs: float | None = None
    dc_sign_constant: bool | None = None
    a3a_feasible: bool | None = None
    a3a_worst_residual: float | None = None
    a3b_min_abs: float | None = None
    a3b_sign_constant: bool | None = None
    a3b_singular_points: int = 0
    grid_sizes: dict = field(default_factory=dict)
    lmi: LMIRecord | None = None

    def failed_checks(self, require_a3: bool = False) -> list[str]:
        """Names of the report fields whose check ran and came back negative.

        The frozen-family checks (Hurwitz margin, nonvanishing DC gain) count
        whenever present.  The robust-decay results only count when
        require_a3 is set, since that assumption is strictly stronger and
        can fail on plants the base design still covers.
        """
        failed = []
        if self.hurwitz_margin is not None and not self.hurwitz_margin < 0.0:
            failed.append("hurwitz_margin")
        if self.dc_gain_min_abs is not None:
            if not self.dc_gain_min_abs > 0.0 or not np.isfinite(self.dc_gain_min_abs):
                failed.append("dc_gain_min_abs")
        if self.dc_sign_constant is not None and not self.dc_sign_constant:
            failed.append("dc_sign_constant")
        if require_a3:
            if self.a3a_feasible is not None and not self.a3a_feasible:
                failed.append("a3a_feasible")
            if self.a3b_min_abs is not None:
                if not self.a3b_min_abs > 0.0:
                    failed.append("a3b_min_abs")
                if self.a3b_singular_points > 0:
                    failed.append("a3b_singular_points")
            if self.a3b_sign_constant is not None and not self.a3b_sign_constant:
                failed.append("a3b_sign_constant")
        return failed

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class _Sweep:
    """The per-input part of assumption_report over one range of the u grid."""

    hurwitz: float
    gains: np.ndarray
    dc_singular: int
    min_abs: float
    singular: int
    pos: int
    neg: int

    def then(self, later: "_Sweep") -> "_Sweep":
        """This range followed by the next one, merged exactly: a max and a
        min keep the first of equal values, as a running max and min do, the
        counts add up and the gains concatenate in u order."""
        return _Sweep(hurwitz=max(self.hurwitz, later.hurwitz),
                      gains=np.concatenate((self.gains, later.gains)),
                      dc_singular=self.dc_singular + later.dc_singular,
                      min_abs=min(self.min_abs, later.min_abs),
                      singular=self.singular + later.singular,
                      pos=self.pos + later.pos, neg=self.neg + later.neg)


def _sweep_inputs(sys: BilinearSystem, us: np.ndarray, lo: int, hi: int, a3b) -> _Sweep:
    """assumption_report's per-input checks at us[lo:hi], in u order.

    a3b is None without P; with P it is (vs, pair_singular), the deviation
    grid and the screen's verdict on every (u, v) pair, and a singular F_u
    raises SingularMatrixError at the lowest such input of the range.
    """
    out = _Sweep(hurwitz=-np.inf, gains=np.full(hi - lo, np.nan), dc_singular=0,
                 min_abs=np.inf, singular=0, pos=0, neg=0)
    if a3b is not None:
        vs, pair_singular = a3b
        buf = np.empty((_STACK_BLOCK, sys.n_states, sys.n_states))  # F_u + B v, in place
    for i in range(lo, hi):
        u = float(us[i])
        F = sys.frozen(u)
        out.hurwitz = max(out.hurwitz, float(np.max(np.linalg.eigvals(F).real)))
        try:
            g_u = sys.input_gain(pi_map(sys, u))
        except SingularMatrixError:
            if a3b is not None:
                raise
            out.dc_singular += 1
            continue
        out.gains[i - lo] = float(sys.C @ np.linalg.solve(F, g_u))
        if a3b is None:
            continue
        for start in range(0, len(vs), _STACK_BLOCK):
            v = vs[start : start + _STACK_BLOCK, None, None]
            Fv = buf[: len(v)]
            np.multiply(sys.B, v, out=Fv)
            np.add(F, Fv, out=Fv)
            bad = pair_singular[i, start : start + _STACK_BLOCK]
            if bad.any():
                out.singular += int(np.count_nonzero(bad))
                Fv = Fv[~bad]
            vals = _rowdot(sys.C, np.linalg.solve(Fv, g_u[:, None])[..., 0])[:, 0]
            # fmin skips NaN, as a scalar min over the pairs does
            out.min_abs = min(out.min_abs, float(np.fmin.reduce(np.abs(vals), initial=np.inf)))
            out.pos += int(np.count_nonzero(vals > 0.0))
            out.neg += int(np.count_nonzero(vals < 0.0))
    return out


def assumption_report(
    sys: BilinearSystem,
    P: np.ndarray | None = None,
    nu: float | None = None,
    eps: float | None = None,
    u_grid: int = 64,
    v_grid: int = 129,
) -> AssumptionReport:
    """One sweep of the frozen family F_u = A + B u over u_grid inputs.

    At each input u in [u_min, u_max] it takes the largest real eigenvalue
    part of F_u and the DC gain C F_u^-1 g_u, with g_u from one pi_map.
    Without P, a point where pi_map finds F_u singular is left out of the
    gain minimum and revokes sign constancy; with P the SingularMatrixError
    propagates.

    With P the report also checks Assumption 3.  Part (a): largest
    eigenvalue of design.robust_decay_block with S = P F_u + F_u^T P and
    Q = P, [[P F_u + F_u^T P + (nu mu^2 + 2 eps) I, P], [P, -nu I]], with
    mu = |B| max(|u_min|, |u_max|).  The block is affine in u, so that
    eigenvalue is convex in u and its maximum over [u_min, u_max] is the
    larger of its values at the two bounds, the only inputs it is taken at;
    both bounds are members of the u grid.  Part (b): |C (F_u + B v)^-1 g_u| at
    v_grid deviations v of the full range [u_min - u_max, u_max - u_min],
    admissible effective input or not.

    Before the sweep, steady_state.screen_singular screens all u_grid x
    v_grid pairs as the one family A + w B, w = u + v, each pair formed as
    F_u + B v.  It marks a pair singular exactly when cond_2(F_u + B v) >
    1e14 or is not finite, as a per-pair cond test would: the inverses of
    a few anchors in w clear the well-conditioned pairs, and only the rest
    get their own inverse or the exact cond.  Part (b) then runs on stacks
    of F_u + B v, 64 deviations at a time, each formed in one reused buffer.
    The pairs not marked share one stacked solve, and kernels._rowdot takes
    C times each solution with the dot product of a per-pair loop, so every
    value, minimum and sign count keeps its bits.  Before the sweep, every
    argument is checked: a grid below 2 points, or swept and above 10**6.

    The per-input work runs on two processes (parallel.fork_join): this
    one takes the lower half of the u grid and a forked child the upper
    half, after the screen.  The halves merge exactly (_Sweep.then), so
    every field has the bits of one pass in u order; with P, a singular
    F_u in the lower half raises first, as it would in that one pass.
    """
    n_u, n_v = int(u_grid), int(v_grid)
    if n_u < 2 or n_v < 2:
        raise ValueError(f"grid sizes must be >= 2, got ({u_grid!r}, {v_grid!r})")
    if n_u > _MAX_GRID or (P is not None and n_v > _MAX_GRID):
        raise ValueError(f"grid sizes must be <= {_MAX_GRID}, got ({u_grid!r}, {v_grid!r})")
    us = np.linspace(sys.u_min, sys.u_max, n_u)
    a3b = None
    if P is not None:
        if nu is None or eps is None:
            raise ValueError("nu and eps are required alongside P")
        P = np.asarray(P, dtype=np.float64)
        n = sys.n_states
        if P.shape != (n, n):
            raise ValueError(f"P must be {n}x{n}, got {P.shape}")
        if np.linalg.eigvalsh(0.5 * (P + P.T))[0] <= 0.0:
            raise ValueError("P must be positive definite")
        if nu <= 0.0 or eps <= 0.0:
            raise ValueError("nu and eps must be positive")
        mu = input_coupling_bound(sys)
        v_range = (sys.u_min - sys.u_max, sys.u_max - sys.u_min)
        vs = np.linspace(v_range[0], v_range[1], n_v)
        a3b = (vs, screen_singular(sys.A, sys.B, us[:, None], vs)[0])

    mid = n_u // 2
    upper, lower = fork_join(lambda: _sweep_inputs(sys, us, mid, n_u, a3b),
                             lambda: _sweep_inputs(sys, us, 0, mid, a3b))
    sweep = lower.then(upper)

    finite = sweep.gains[np.isfinite(sweep.gains)]
    rep = AssumptionReport(
        hurwitz_margin=sweep.hurwitz,
        dc_gain_min_abs=float(np.min(np.abs(finite))) if finite.size else float("nan"),
        dc_sign_constant=bool(finite.size) and sweep.dc_singular == 0
        and bool(np.all(finite > 0.0) or np.all(finite < 0.0)),
        grid_sizes={"u": n_u},
    )
    if P is None:
        return rep
    a3a = max(float(np.linalg.eigvalsh(robust_decay_block(P @ F + F.T @ P, P, nu, eps, mu))[-1])
              for F in (sys.frozen(sys.u_min), sys.frozen(sys.u_max)))
    rep.a3a_feasible = bool(a3a <= _A3A_TOL)
    rep.a3a_worst_residual = a3a
    rep.a3b_min_abs = float(sweep.min_abs) if np.isfinite(sweep.min_abs) else float("nan")
    rep.a3b_sign_constant = ((sweep.pos == 0 or sweep.neg == 0) and sweep.singular == 0
                             and (sweep.pos + sweep.neg) > 0)
    rep.a3b_singular_points = sweep.singular
    rep.grid_sizes["v"] = n_v
    rep.lmi = LMIRecord(nu=float(nu), eps=float(eps), mu=float(mu),
                        u_range=(sys.u_min, sys.u_max),
                        v_range=(float(v_range[0]), float(v_range[1])))
    return rep


# ---------------------------------------------------------------------------
# Lyapunov monitors


def observer_monitor_constants(
    sys: BilinearSystem, artifacts: DesignArtifacts
) -> tuple[float, float]:
    """Constants (a, c) for the combined output-feedback monitor sqrt(V) + c sqrt(U).

    The estimation error enters the controller's energy rate through the
    linear map J eps with rows [k_p P L D; k_i (C - M L D)].  Its gain from
    the Euclidean norm of eps into the V-metric is
    a = sqrt(lmax(J J^T, Sigma)) with Sigma = blkdiag(k_p P, k_i), an exact
    generalized-eigenvalue computation rather than a sampled bound.  Any
    c > a sqrt(lmax(Q)) / eps then makes the sum decrease; we return twice
    that threshold.
    """
    if artifacts.observer is None:
        raise MissingObserverStateError(
            "observer_monitor_constants requires observer artifacts"
        )
    obs = artifacts.observer
    n = sys.n_states
    LD = obs.L @ sys.D
    J = np.vstack([
        artifacts.k_p * (artifacts.P @ LD),
        (artifacts.k_i * (sys.C - artifacts.M @ LD))[None, :],
    ])
    Sigma = np.zeros((n + 1, n + 1))
    Sigma[:n, :n] = artifacts.k_p * artifacts.P
    Sigma[n, n] = artifacts.k_i
    import scipy.linalg

    top = scipy.linalg.eigh(J @ J.T, Sigma, eigvals_only=True)[-1]
    a = float(np.sqrt(max(top, 0.0)))
    q_max = float(np.linalg.eigvalsh(obs.Q)[-1])
    c = 2.0 * a * np.sqrt(q_max) / obs.eps
    return a, float(c)


def _integral_only_V_rows(scn, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """V = max(d^T P d, 0) on every row, d = x - x_ss + (F_ss + B v)^-1 g_ss v
    with v = sat(u_ss + sign_dc k_i z) - u_ss.

    A stacked solve and the stacked matmul make the same LAPACK and BLAS
    calls per row as one solve per sample (einsum would not), so a row's
    bits do not depend on the block it is in; the clip to zero passes NaN
    and -0.0 through as max(q, 0.0) does.
    """
    sys, art = scn.sys, scn.artifacts
    F_ss = sys.frozen(art.u_ss)
    g_ss = sys.input_gain(art.x_ss)
    v = np.clip(art.u_ss + art.sign_dc * art.k_i * Z, sys.u_min, sys.u_max) - art.u_ss
    sol = np.linalg.solve(F_ss + sys.B * v[:, None, None], g_ss[:, None])[..., 0]
    D = (X - art.x_ss) - (-sol * v[:, None])
    q = np.matmul(np.matmul(D[:, None, :], art.P), D[:, :, None])[:, 0, 0]
    return np.where(0.0 > q, 0.0, q)


def trajectory_monitors(
    scn,
    X: np.ndarray,
    XH: np.ndarray | None,
    Z: np.ndarray,
) -> dict[str, np.ndarray]:
    """The monitor series of the scenario scn's law over stacked samples, by
    name in CSV order: none for PI, V for forwarding, V and W for
    integral-only, V, U and W for output feedback.

    scn is a sim.SimScenario; its plant, artifacts and law define the
    monitors.  Rows of X, XH and Z are samples.
    """
    sys, art, law = scn.sys, scn.artifacts, scn.law
    if law == PI:
        return {}
    if law == INTEGRAL_ONLY:
        if art.pi_bar is None:
            raise ValueError("integral-only monitors require pi_bar in the artifacts")
        T = X.shape[0]
        V = np.empty(T)
        for lo in range(0, T, _MONITOR_BLOCK):
            hi = min(lo + _MONITOR_BLOCK, T)
            V[lo:hi] = _integral_only_V_rows(scn, X[lo:hi], Z[lo:hi])
        p_max = float(np.linalg.eigvalsh(art.P)[-1])
        gamma = 2.0 * art.k_i * art.pi_bar * np.sqrt(p_max)
        return {"V": V, "W": np.sqrt(V) + gamma * np.abs(Z)}
    if law == OUTPUT_FEEDBACK:
        if art.observer is None:
            raise MissingObserverStateError(
                "output-feedback monitors require observer artifacts"
            )
        if XH is None:
            raise MissingObserverStateError("x_hat is required for output-feedback monitors")
    Xc = X if law == FORWARDING else XH
    XT = Xc - art.x_ss
    ZT = Z - XT @ art.M
    V = art.k_p * np.maximum(np.einsum("ij,jk,ik->i", XT, art.P, XT), 0.0)
    V += art.k_i * ZT * ZT
    if law == FORWARDING:
        return {"V": V}
    E = XH - X
    U = np.maximum(np.einsum("ij,jk,ik->i", E, art.observer.Q, E), 0.0)
    _, c_of = observer_monitor_constants(sys, art)
    return {"V": V, "U": U, "W": np.sqrt(V) + c_of * np.sqrt(U)}


def max_monotone_violation(vals: np.ndarray) -> float:
    """Largest per-step relative increase of a series meant to decrease.

    Returns max over steps of (vals[k+1] - vals[k]) / (1 + vals[k]); a series
    is non-increasing within tolerance tol when this is <= tol.  Empty and
    single-sample series return 0.
    """
    vals = np.asarray(vals, dtype=np.float64)
    if vals.size < 2:
        return 0.0
    rel = (vals[1:] - vals[:-1]) / (1.0 + vals[:-1])
    return float(np.max(rel))


# ---------------------------------------------------------------------------
# integral-only linearization


def _linearization(sys: BilinearSystem, artifacts: DesignArtifacts):
    """k -> the closed-loop matrix of linearization_matrix at gain k.

    F, h, F^-1 g, the outer product (F^-1 g) C and the row C are built once;
    each call fills the entries that depend on k into one buffer, which it
    returns, with the arithmetic of a fresh build, so every entry keeps its
    bits.  Raises ZeroDCGainError when h is numerically zero.
    """
    n = sys.n_states
    F = sys.frozen(artifacts.u_ss)
    h, Fg = _dc_path(sys, artifacts.u_ss, artifacts.x_ss)
    s = 1.0 if h > 0.0 else -1.0
    FgC = np.outer(Fg, sys.C)
    A_cl = np.zeros((n + 1, n + 1))
    A_cl[n, :n] = sys.C
    top = A_cl[:n, :n]

    def at(k_i: float) -> np.ndarray:
        np.multiply(s * k_i, FgC, out=top)
        np.add(F, top, out=top)
        A_cl[:n, n] = -(k_i**2) * h * Fg
        A_cl[n, n] = -k_i * abs(h)
        return A_cl

    return at


def linearization_matrix(
    sys: BilinearSystem, artifacts: DesignArtifacts, k_i: float
) -> np.ndarray:
    """Closed-loop matrix of the integral-only loop, linearized at the target.

    Written in the shifted coordinates xi = x_err + s k_i F^-1 g z with
    s the DC-gain sign, which exposes the two-time-scale structure:

        [[F + s k_i (F^-1 g) C,  -k_i^2 h F^-1 g],
         [C,                     -k_i |h|       ]]

    with h = C F^-1 g.  At k_i = 0 this is block triangular with spectrum
    eig(F) union {0}; the integrator pole detaches at rate -k_i |h|.
    Raises ZeroDCGainError when h is numerically zero.
    """
    if k_i < 0.0:
        raise ValueError(f"k_i must be nonnegative, got {k_i!r}")
    return _linearization(sys, artifacts)(k_i)


def spectral_abscissa(M: np.ndarray) -> float:
    """Largest real part over the eigenvalues of a square matrix."""
    return float(np.max(np.linalg.eigvals(np.asarray(M, dtype=np.float64)).real))


def integral_gain_stability_limit(
    sys: BilinearSystem, artifacts: DesignArtifacts
) -> float:
    """Smallest integral gain at which the linearized loop stops being Hurwitz.

    Starts from the artifacts' ki_star (1e-6 without one), halving it until
    the loop is stable, then doubles the gain until the spectral abscissa
    crosses zero and bisects the bracket to relative width 1e-9.  Returns
    inf if no crossing is found below 1e9.  The certified bound ki_star
    must sit at or below this empirical limit.  The parts of the matrix
    that do not depend on the gain are built once per call.
    """
    at = _linearization(sys, artifacts)

    def unstable(k: float) -> bool:
        return spectral_abscissa(at(k)) >= 0.0

    lo = artifacts.ki_star or 1e-6
    while unstable(lo):
        lo /= 2.0
        if lo < 1e-15:
            raise NotHurwitzError(
                "linearized loop unstable down to vanishing integral gain"
            )
    hi = lo * 2.0
    while not unstable(hi):
        lo = hi
        hi *= 2.0
        if hi > _GAIN_CAP:
            return float("inf")
    while hi - lo > _GAIN_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if unstable(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
