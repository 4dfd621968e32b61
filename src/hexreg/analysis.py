"""Certificate checks and proof-level monitors.

Everything here re-derives quantities from first principles so tests and the
verify subcommand can cross-examine design artifacts: checks of the standing
assumptions, Lyapunov monitor evaluation along trajectories, and the
linearized stability analysis of the integral-only loop.  The Hurwitz margin
and the DC-gain minimum are sampled on an input grid.  The DC-gain sign and
the shifted DC gain's sign in the deviation v come from the real roots of
linear pencils, and the robust-decay inequality, affine in the input, is
decided at its two bounds.  Negative findings are reported as data; only
malformed inputs raise.  The monitors' quadratic forms x^T P x run in
compiled C (native.quad_rows) with np.einsum's bits, or in einsum itself
where the library is unavailable.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import asdict, dataclass, field

import numpy as np

from .design import (
    DesignArtifacts,
    _dc_path,
    input_coupling_bound,
    robust_decay_block,
)
from .errors import MissingObserverStateError, NotHurwitzError, SingularMatrixError
from .kernels import FORWARDING, INTEGRAL_ONLY, OUTPUT_FEEDBACK, PI
from .model import BilinearSystem
from .native import quad_rows
from .steady_state import (
    _ROOT_TOL,
    _STACK_BLOCK,
    _equilibria,
    _in_range,
    _pencil_eigenvalues,
    _rowdot,
    _rowwise,
    _stacked_pencil_roots,
    _stationary_points,
    pi_map,
)

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
# each law's monitor series, by name in the order trajectory_monitors gives them
_MONITOR_NAMES = {PI: (), FORWARDING: ("V",), INTEGRAL_ONLY: ("V", "W"),
                  OUTPUT_FEEDBACK: ("V", "U", "W")}
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
    grid.  dc_sign_constant is decided over the whole input interval, with
    no grid: the DC gain keeps its sign iff A + B u is nowhere singular and
    the gain nowhere zero in [u_min, u_max].  The a3a fields cover the
    robust-decay LMI at the supplied (P, nu, eps) over the whole input
    interval, also with no grid: the block is affine in u, so its largest
    eigenvalue is convex in u and the two input bounds decide it.  The a3b
    fields count, over the sampled inputs u, the deviations v in
    [u_min - u_max, u_max - u_min] at which C (F_u + B v)^-1 g_u is zero
    (a3b_roots) or F_u + B v singular (a3b_poles), decided exactly in v,
    and how many of those have u + v in [u_min, u_max] (a3b_admissible).
    """

    hurwitz_margin: float | None = None
    dc_gain_min_abs: float | None = None
    dc_sign_constant: bool | None = None
    a3a_feasible: bool | None = None
    a3a_worst_residual: float | None = None
    a3b_sign_constant: bool | None = None
    a3b_roots: int | None = None
    a3b_poles: int | None = None
    a3b_admissible: int | None = None
    grid_sizes: dict = field(default_factory=dict)
    lmi: LMIRecord | None = None

    def failed_checks(self, require_a3: bool = False) -> list[str]:
        """Names of the report fields whose check ran and came back negative.

        The frozen-family checks (Hurwitz margin, nonvanishing DC gain) count
        whenever present.  The Assumption 3 verdicts, a3a_feasible and
        a3b_sign_constant, only count when require_a3 is set, since that
        assumption is strictly stronger and can fail on plants the base
        design still covers.
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
            if self.a3b_sign_constant is not None and not self.a3b_sign_constant:
                failed.append("a3b_sign_constant")
        return failed

    def to_dict(self) -> dict:
        return asdict(self)


def assumption_report(
    sys: BilinearSystem,
    P: np.ndarray | None = None,
    nu: float | None = None,
    eps: float | None = None,
    u_grid: int = 64,
    v_grid: int = 129,
    a3b: bool = False,
) -> AssumptionReport:
    """One sweep of the frozen family F_u = A + B u over u_grid inputs.

    At each input u in [u_min, u_max] it takes the largest real eigenvalue
    part of F_u and the DC gain C F_u^-1 g_u, with g_u = B pi(u) + b and pi
    from steady_state._equilibria.  The sweep walks the inputs in blocks of
    steady_state._STACK_BLOCK, so its memory does not grow with u_grid.  In
    each block, pi, the eigenvalues, the solves and the A3(b) pencils below
    are stacked; a stacked numpy.linalg call makes the LAPACK call of a
    single one per matrix, and steady_state._rowwise and _rowdot the BLAS
    calls of B @ x and C @ y, so every field has the bits of an
    input-by-input loop.  Without P or a3b, when _equilibria raises on a
    block, pi is taken input by input there: a point where pi_map finds F_u
    singular is left out of the gain minimum.  Otherwise the
    SingularMatrixError propagates.  The DC-gain sign is decided with no grid: it is constant
    iff the pencil (A, B) has no root in [u_min, u_max] and
    steady_state._stationary_points, the zeros of the DC gain, is empty.
    The roots of (A, B) come from one shift-invert over the wider range
    [2 u_min - u_max, 2 u_max - u_min] (steady_state._pencil_eigenvalues);
    each use keeps those real and in its own range, to 1e-9 of that range.

    With P the report also checks Assumption 3.  Part (a): largest
    eigenvalue of design.robust_decay_block with S = P F_u + F_u^T P and
    Q = P, [[P F_u + F_u^T P + (nu mu^2 + 2 eps) I, P], [P, -nu I]], with
    mu = |B| max(|u_min|, |u_max|).  The block is affine in u, so that
    eigenvalue is convex in u and its maximum over [u_min, u_max] is the
    larger of its values at the two bounds, the only inputs it is taken at.
    Part (b), which needs no P and also runs without it when a3b is set:
    at each grid input, the sign changes of C (F_u + B v)^-1 g_u
    over the full deviation range [u_min - u_max, u_max - u_min],
    admissible effective input or not, with no v grid.  Its zeros are the
    real roots in range of the (n + 1) pencil
    [[F_u, g_u], [C, 0]] + v [[B, 0], [0, 0]], whose determinant is
    det(F_u + B v) times -C (F_u + B v)^-1 g_u
    (steady_state._stacked_pencil_roots).  Its poles are w - u for the roots
    w of (A, B) in [2 u_min - u_max, 2 u_max - u_min] that fall in range to
    the pencils' 1e-9 of the range.  a3b_sign_constant
    holds iff no grid input has a zero or a pole and the DC-gain sign, the
    v = 0 column, is constant.  The u direction stays sampled.

    v_grid plays no part in the report; it is kept for the callers that
    pass it.  Before the sweep, every argument is checked: a grid below 2
    points, or above 10**6 (for v_grid, with P).
    """
    n_u, n_v = int(u_grid), int(v_grid)
    if n_u < 2 or n_v < 2:
        raise ValueError(f"grid sizes must be >= 2, got ({u_grid!r}, {v_grid!r})")
    if n_u > _MAX_GRID or (P is not None and n_v > _MAX_GRID):
        raise ValueError(f"grid sizes must be <= {_MAX_GRID}, got ({u_grid!r}, {v_grid!r})")
    lo, hi, n = sys.u_min, sys.u_max, sys.n_states
    us = np.linspace(lo, hi, n_u)
    if P is not None:
        if nu is None or eps is None:
            raise ValueError("nu and eps are required alongside P")
        P = np.asarray(P, dtype=np.float64)
        if P.shape != (n, n):
            raise ValueError(f"P must be {n}x{n}, got {P.shape}")
        if np.linalg.eigvalsh(0.5 * (P + P.T))[0] <= 0.0:
            raise ValueError("P must be positive definite")
        if nu <= 0.0 or eps <= 0.0:
            raise ValueError("nu and eps must be positive")

    w_lo, w_hi = 2.0 * lo - hi, 2.0 * hi - lo
    ab_roots = _pencil_eigenvalues(sys.A, sys.B, w_lo, w_hi)
    ab_poles = _in_range(ab_roots, w_lo, w_hi)
    v_lo, v_hi = lo - hi, hi - lo
    tol = _ROOT_TOL * (v_hi - v_lo)
    M1 = np.pad(sys.B, ((0, 1), (0, 1)))
    margins, gain_mins = [], []
    a3b_counts = np.zeros(3, dtype=np.int64)   # roots, poles, admissible
    for k in range(0, n_u, _STACK_BLOCK):
        u = us[k : k + _STACK_BLOCK]
        try:
            X = _equilibria(sys, u)
        except SingularMatrixError:
            if P is not None or a3b:
                raise
            X = np.full((len(u), n), np.nan)
            for i, ui in enumerate(u):
                with suppress(SingularMatrixError):
                    X[i] = pi_map(sys, ui)
        Fu = sys.A + sys.B * u[:, None, None]
        gu = _rowwise(sys.B, X) + sys.b
        ok = ~np.isnan(X[:, 0])
        gains = _rowdot(sys.C, np.linalg.solve(Fu[ok], gu[ok][..., None])[..., 0])[:, 0]
        finite = gains[np.isfinite(gains)]
        if finite.size:
            gain_mins.append(np.min(np.abs(finite)))
        margins.append(np.max(np.linalg.eigvals(Fu).real))
        if P is None and not a3b:
            continue
        M0 = np.zeros((len(u), n + 1, n + 1))
        M0[:, :n, :n], M0[:, :n, n], M0[:, n, :n] = Fu, gu, sys.C
        rows, zeros = _stacked_pencil_roots(M0, M1, v_lo, v_hi)
        poles = ab_poles - u[:, None]
        in_range = (poles >= v_lo - tol) & (poles <= v_hi + tol)
        w = np.concatenate((u[rows] + zeros, (u[:, None] + poles)[in_range]))
        a3b_counts += (len(zeros), np.count_nonzero(in_range),
                       np.count_nonzero((w >= lo) & (w <= hi)))
    rep = AssumptionReport(
        hurwitz_margin=float(np.max(margins)),
        dc_gain_min_abs=float(np.min(gain_mins)) if gain_mins else float("nan"),
        dc_sign_constant=not (_in_range(ab_roots, lo, hi).size
                              or _stationary_points(sys).size),
        grid_sizes={"u": n_u},
    )
    if P is None and not a3b:
        return rep
    rep.a3b_roots, rep.a3b_poles, rep.a3b_admissible = map(int, a3b_counts)
    rep.a3b_sign_constant = rep.dc_sign_constant and rep.a3b_roots + rep.a3b_poles == 0
    if P is None:
        return rep
    mu = input_coupling_bound(sys)
    a3a = max(float(np.linalg.eigvalsh(robust_decay_block(P @ F + F.T @ P, P, nu, eps, mu))[-1])
              for F in (sys.frozen(lo), sys.frozen(hi)))
    rep.a3a_feasible = bool(a3a <= _A3A_TOL)
    rep.a3a_worst_residual = a3a
    rep.lmi = LMIRecord(nu=float(nu), eps=float(eps), mu=float(mu), u_range=(lo, hi),
                        v_range=(v_lo, v_hi))
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
    generalized-eigenvalue computation rather than a sampled bound: with
    Sigma = R R^T its Cholesky factor, a = |R^-1 J|_2.  A Sigma that is not
    positive definite (k_p or k_i not positive, or P not positive definite)
    raises ValueError.  Any c > a sqrt(lmax(Q)) / eps then makes the sum
    decrease; we return twice that threshold.
    """
    if artifacts.observer is None:
        raise MissingObserverStateError("output-feedback monitors need observer artifacts")
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
    try:
        R = np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError:
        raise ValueError(
            "the output-feedback monitor needs blkdiag(k_p P, k_i) positive definite: "
            f"k_p = {artifacts.k_p!r} and k_i = {artifacts.k_i!r} must be positive "
            "and P positive definite") from None
    a = float(np.linalg.norm(np.linalg.solve(R, J), 2))
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
    F = sys.B * v[:, None, None]
    F += F_ss  # in place: one (block, n, n) temporary, not two
    sol = np.linalg.solve(F, g_ss[:, None])[..., 0]
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
    name in CSV order, as _MONITOR_NAMES lists them: none for PI, V for
    forwarding, V and W for integral-only, V, U and W for output feedback.

    scn is a sim.SimScenario; its plant, artifacts and law define the
    monitors.  sim.scenario_from_dict has checked what the law needs
    (pi_bar for integral-only, observer artifacts for output feedback), and
    XH is the kernel's estimate series for output feedback, so nothing is
    checked here again.  Rows of X, XH and Z are samples, one block of
    them: once the kernel has returned, sim calls it on each block of
    kernels._BLOCK rows of a result (the last block shorter), which bounds
    the integral-only law's (block, n, n) temporaries.  Called on consecutive
    blocks that start at multiples of 1024, it gives the whole series'
    bits, block by block.
    Blocks that start elsewhere need not: XT @ M is one BLAS call over the
    block, and a row's bits there depend on its position in it.

    The quadratic forms of V (forwarding and output feedback) and of U go
    through native.quad_rows: compiled C that keeps einsum's order of
    summation, and so its bits, on C-contiguous operands, and
    np.einsum("ij,jk,ik->i") itself without the library or on other
    layouts.  The integral-only V stays in numpy: its cost is the stacked
    solve, which LAPACK's dgesv dominates.
    """
    sys, art, law = scn.sys, scn.artifacts, scn.law
    if law == PI:
        return {}
    if law == INTEGRAL_ONLY:
        V = _integral_only_V_rows(scn, X, Z)
        p_max = float(np.linalg.eigvalsh(art.P)[-1])
        gamma = 2.0 * art.k_i * art.pi_bar * np.sqrt(p_max)
        return {"V": V, "W": np.sqrt(V) + gamma * np.abs(Z)}
    Xc = X if law == FORWARDING else XH
    XT = Xc - art.x_ss
    ZT = Z - XT @ art.M
    V = art.k_p * np.maximum(quad_rows(XT, art.P), 0.0)
    V += art.k_i * ZT * ZT
    if law == FORWARDING:
        return {"V": V}
    E = XH - X
    U = np.maximum(quad_rows(E, art.observer.Q), 0.0)
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
    h, Fg = _dc_path(sys, artifacts.u_ss, artifacts.x_ss)
    s = 1.0 if h > 0.0 else -1.0
    return np.block([[sys.frozen(artifacts.u_ss) + s * k_i * np.outer(Fg, sys.C),
                      (-(k_i**2) * h * Fg)[:, None]],
                     [sys.C[None], np.full((1, 1), -k_i * abs(h))]])


def spectral_abscissa(M: np.ndarray) -> float:
    """Largest real part over the eigenvalues of a square matrix."""
    return float(np.max(np.linalg.eigvals(np.asarray(M, dtype=np.float64)).real))


def integral_gain_stability_limit(
    sys: BilinearSystem, artifacts: DesignArtifacts
) -> float:
    """Smallest integral gain at which the linearized loop stops being Hurwitz.

    With s the DC-gain sign, the loop of linearization_matrix is similar to
    [[F, s k g], [C, 0]], so its eigenvalues solve lambda = s k H(lambda)
    with H(lambda) = C (lambda I - F)^-1 g.  Raises NotHurwitzError when F
    is not Hurwitz, for then the loop is unstable as k goes to 0+.  A root
    meets the imaginary axis at i w only where Re H(i w) = 0, a zero of
    H(lambda) + H(-lambda), which is a finite eigenvalue of the (2n + 1)
    pencil

        ([[F, 0, g], [0, -F, g], [C, -C, 0]], [[I, 0], [0, 0]]).

    It is shift-inverted at 0, regular since h = C F^-1 g is not zero
    (design._dc_path raises ZeroDCGainError when it is): the finite
    eigenvalues are the inverses of the nonzero ones of the top-left 2n
    block K of M0^-1, M0 the pencil's first matrix.  (g, g) and
    (F g, -F g) span a nilpotent chain of K, from infinite eigenvalues that
    every such pencil has and that rounding would make finite, so K is
    taken on the complement of that span.  The
    crossing gain at i w is k = i w / (s H(i w)); a root counts when it is
    on the axis to 1e-9 |lambda| and k > 0, and the smallest such k is
    returned, inf when the root locus never reaches the axis.  The
    certified bound ki_star must sit at or below this limit.
    """
    F = sys.frozen(artifacts.u_ss)
    if spectral_abscissa(F) >= 0.0:
        raise NotHurwitzError("linearized loop unstable at vanishing integral gain")
    h, _ = _dc_path(sys, artifacts.u_ss, artifacts.x_ss)
    n, g, C = sys.n_states, sys.input_gain(artifacts.x_ss), sys.C
    M0 = np.zeros((2 * n + 1, 2 * n + 1))
    M0[:n, :n], M0[n:-1, n:-1] = F, -F
    M0[:-1, -1], M0[-1, :-1] = np.tile(g, 2), np.concatenate((C, -C))
    chain = np.array([np.tile(g, 2), np.concatenate((F @ g, -(F @ g)))]).T
    W = np.linalg.qr(chain, mode="complete")[0][:, 2:]
    lam = 1.0 / np.linalg.eigvals(W.T @ np.linalg.inv(M0)[:-1, :-1] @ W)
    w = lam.imag[(lam.imag > 0.0) & (np.abs(lam.real) <= _ROOT_TOL * np.abs(lam))]
    H = np.linalg.solve(1j * w[:, None, None] * np.eye(n) - F, g) @ C
    k = (1j * w / (np.sign(h) * H)).real
    return float(np.min(k[k > 0.0], initial=np.inf))
