"""Controller and observer synthesis.

Produces the certificate data the control laws run from: the Lyapunov pair
(P, Upsilon) and output shaping row M for the forwarding law, the observer
gain L with its LMI certificate (Q, Y, nu, eps), the DC-path sign for the
integral-only law, and the certified integral gain bound ki_star.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import (
    GainAboveBoundWarning,
    InfeasibleError,
    NotHurwitzError,
    NotObservableError,
    ZeroDCGainError,
    as_array,
    as_float,
)
from .kernels import _rowdot, _rowwise
from .model import BilinearSystem, HexParams
from .serde import dump_json, read_object, require_fields
from .steady_state import Equilibrium, _refuse_poles, _slope_stationary_points

__all__ = [
    "DesignArtifacts",
    "ObserverDesign",
    "solve_lyapunov",
    "hex_analytic_P",
    "sign_dc_gain",
    "forwarding_design",
    "observer_design",
    "gain_rank_obstruction",
    "check_observability",
    "input_coupling_bound",
    "robust_decay_block",
    "pi_shift_sup",
    "integral_gain_bound",
    "integral_only_design",
    "lyapunov_decay_margin",
    "artifacts_to_dict",
    "artifacts_from_dict",
    "require_artifacts_fit",
    "load_artifacts",
    "save_artifacts",
]

_LMI_DECLARE = -1e-9  # certificate threshold on the largest eigenvalue
_CENTRE_TOL = 1e-10  # squared Newton decrement that ends a centring
_PHASE_ONE_GAP = 1e-12  # relative duality gap that ends the phase-I search
_SIGN_TOL = 1e-8  # relative update of the sign iteration before its last step
_SIGN_ITERS = 100


@dataclass
class ObserverDesign:
    """Luenberger gain plus the LMI certificate that produced it."""

    L: np.ndarray
    Q: np.ndarray
    Y: np.ndarray
    nu: float
    eps: float
    mu: float
    lmi_residual: float


@dataclass
class DesignArtifacts:
    """Everything a control law needs at run time.

    ``P``/``Upsilon`` always satisfy F_ss^T P + P F_ss = -2 Upsilon and
    ``M`` always satisfies M F_ss = C, regardless of which law the artifact
    set was built for.  ``sign_dc`` is the sign of C F_ss^{-1} g_ss.
    Integral-only artifacts add the certified bound ``ki_star``, the
    supremum ``pi_bar`` behind it, and the decay rate ``eps_frozen`` used.
    """

    u_ss: float
    x_ss: np.ndarray
    P: np.ndarray
    Upsilon: np.ndarray
    M: np.ndarray
    k_p: float
    k_i: float
    sign_dc: float
    observer: ObserverDesign | None = None
    ki_star: float | None = None
    pi_bar: float | None = None
    eps_frozen: float | None = None


def solve_lyapunov(F: np.ndarray, Upsilon: np.ndarray) -> np.ndarray:
    """Solve F^T P + P F = -2 Upsilon for symmetric positive definite P.

    Requires Upsilon symmetric positive definite.  Newton's iteration for
    the matrix sign of [[F^T, 2 Upsilon], [0, -F]], which is
    [[-I, 2 P], [0, I]] when F is Hurwitz, runs on its two blocks (A, Q),
    from (F^T, 2 Upsilon), scaled by c = sqrt(|A^-1|_F / |A|_F):

        A <- (c A + A^-1 / c) / 2,   Q <- (c Q + A^-1 Q A^-T / c) / 2.

    One more step is taken after the update of A falls below 1e-8 of |A|_1.
    A then is sign(F^T), which is -I exactly when F is Hurwitz; a sign with
    an eigenvalue +1 is at least 2 from -I in any induced norm.  So
    NotHurwitzError is raised when the last A is 1 or more from -I in
    |.|_1, when an iterate is singular (an eigenvalue of F on the imaginary
    axis), or when 100 steps do not converge.
    """
    F = np.asarray(F, dtype=np.float64)
    Upsilon = np.asarray(Upsilon, dtype=np.float64)
    if np.linalg.norm(Upsilon - Upsilon.T, np.inf) > 1e-12 * (1 + np.linalg.norm(Upsilon, np.inf)):
        raise ValueError("Upsilon must be symmetric")
    if np.min(np.linalg.eigvalsh(Upsilon)) <= 0.0:
        raise ValueError("Upsilon must be positive definite")
    A, Q = F.T, 2.0 * Upsilon
    last = False
    for _ in range(_SIGN_ITERS):
        try:
            Ai = np.linalg.inv(A)
        except np.linalg.LinAlgError:
            raise NotHurwitzError("F has an eigenvalue on the imaginary axis") from None
        c = np.sqrt(np.linalg.norm(Ai) / np.linalg.norm(A))
        A_next = 0.5 * (c * A + Ai / c)
        Q = 0.5 * (c * Q + Ai @ Q @ Ai.T / c)
        step = np.linalg.norm(A_next - A, 1)
        A = A_next
        if last:
            break
        last = step <= _SIGN_TOL * np.linalg.norm(A, 1)
    else:
        raise NotHurwitzError(f"the sign iteration did not converge in {_SIGN_ITERS} steps")
    if not np.linalg.norm(A + np.eye(len(A)), 1) < 1.0:
        raise NotHurwitzError("F has an eigenvalue with Re >= 0")
    return 0.25 * (Q + Q.T)


def hex_analytic_P(p: HexParams) -> np.ndarray:
    """Closed-form Lyapunov weight for the heat-exchanger family.

    P = diag(I_n, (V_cold / V_hot) I_n).  The volume ratio equalizes the
    two off-diagonal exchange blocks of P F_u + F_u^T P, leaving a matrix
    whose strict negativity follows from the convection stencils; it holds
    for every admissible frozen input.
    """
    n = p.n_cells
    P = np.eye(2 * n)
    P[n:, n:] *= p.V_cold / p.V_hot
    return P


def _dc_path(
    sys: BilinearSystem, u_ss: float, x_ss: np.ndarray
) -> tuple[float, np.ndarray]:
    """(h, F_ss^{-1} g_ss) with h = C F_ss^{-1} g_ss, the frozen DC path.

    Raises ZeroDCGainError when h is numerically zero, since then no
    integral action reaches the output.
    """
    Fg = np.linalg.solve(sys.frozen(u_ss), sys.input_gain(x_ss))
    h = float(sys.C @ Fg)
    scale = np.linalg.norm(Fg) * np.linalg.norm(sys.C)
    if abs(h) <= 1e-12 * (1.0 + scale):
        raise ZeroDCGainError(f"C F^-1 g = {h:.3e} at u_ss = {u_ss!r}")
    return h, Fg


def sign_dc_gain(sys: BilinearSystem, eq: Equilibrium) -> float:
    """Sign of the frozen DC path C F_ss^{-1} g_ss (+1.0 or -1.0).

    The steady output slope is d(C pi)/du = -C F^{-1} g, so this value is
    the negated sign of the physical DC gain.  Raises ZeroDCGainError when
    the path is numerically zero.
    """
    h, _ = _dc_path(sys, eq.u_ss, eq.x_ss)
    return float(np.sign(h))


def forwarding_design(
    sys: BilinearSystem, eq: Equilibrium, k_p: float, k_i: float
) -> DesignArtifacts:
    """Lyapunov pair and output row for the forwarding law.

    Solves F_ss^T P + P F_ss = -2 Upsilon with Upsilon = I, and M F_ss = C.
    Any finite k_p, k_i > 0 are admissible; they only shape the transient.
    """
    k_p, k_i = as_float("k_p", k_p), as_float("k_i", k_i)
    if k_p <= 0.0 or k_i <= 0.0:
        raise ValueError(f"gains must be positive, got k_p={k_p!r} k_i={k_i!r}")
    Upsilon = np.eye(sys.n_states)
    F = sys.frozen(eq.u_ss)
    P = solve_lyapunov(F, Upsilon)
    M = _solve_output_row(F, sys.C)
    sign = sign_dc_gain(sys, eq)
    return DesignArtifacts(
        u_ss=eq.u_ss, x_ss=eq.x_ss.copy(), P=P, Upsilon=Upsilon, M=M,
        k_p=k_p, k_i=k_i, sign_dc=sign,
    )


def _solve_output_row(F: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Row M with M F = C, refined once."""
    M = np.linalg.solve(F.T, C)
    M = M - np.linalg.solve(F.T, F.T @ M - C)
    return M


def check_observability(A: np.ndarray, D: np.ndarray) -> None:
    """Raise NotObservableError unless [D; D A; ...; D A^(n-1)] has rank n."""
    n = A.shape[0]
    blocks = [D]
    for _ in range(n - 1):
        blocks.append(blocks[-1] @ A)
    rank = np.linalg.matrix_rank(np.vstack(blocks))
    if rank < n:
        raise NotObservableError(f"observability rank {rank} < {n}")


def input_coupling_bound(sys: BilinearSystem) -> float:
    """mu = ||B||_2 * max(|u_min|, |u_max|), the worst bilinear drive."""
    return float(np.linalg.norm(sys.B, 2) * max(abs(sys.u_min), abs(sys.u_max)))


def robust_decay_block(S: np.ndarray, Q: np.ndarray, nu: float, eps: float,
                       mu: float) -> np.ndarray:
    """[[S + (nu mu^2 + 2 eps) I, Q], [Q, -nu I]], the robust-decay inequality.

    It must be negative semidefinite.  By the Schur complement, it bounds the
    decay of the quadratic form of Q against every bilinear drive of norm at
    most mu.  observer_design takes S = QA + A^T Q - YD - D^T Y^T, and
    analysis.assumption_report takes S = P F_u + F_u^T P with Q = P.
    """
    n = S.shape[0]
    top = S + (nu * mu * mu + 2.0 * eps) * np.eye(n)
    return np.block([[top, Q], [Q, -nu * np.eye(n)]])


def _observer_residual(A, D, mu, Q, Y, nu, eps) -> float:
    """Largest eigenvalue of the observer block at (Q, Y, nu, eps)."""
    S = Q @ A + A.T @ Q - Y @ D - D.T @ Y.T
    return float(np.linalg.eigvalsh(robust_decay_block(S, Q, nu, eps, mu))[-1])


def _phase_one(F, x):
    """Minimize s subject to F(x) <= s I for an affine symmetric F, from x.

    Damped Newton steps dz / (1 + lam), lam^2 = -grad . dz, centre
    t s - log det(s I - F(x)) for t = d / m, 10 d / m, ..., with d the size
    of F and m = 1 + |lambda_max(F(x))| at the start; each centre's s is
    within d / t of the infimum.  Returns (s, x) at the first centre with
    s < 0, a point where F(x) < 0.  Else it stops once d / t is below
    _PHASE_ONE_GAP m, a step no longer lowers the barrier, or the Newton
    system or s I - F(x) is singular, and returns the last point it reached.
    """
    x = np.asarray(x, dtype=np.float64)
    F0 = F(np.zeros_like(x))
    d = len(F0)
    Gk = np.stack([F0 - F(e) for e in np.eye(len(x))] + [np.eye(d)])
    top = float(np.linalg.eigvalsh(F(x))[-1])
    m = 1.0 + abs(top)
    z, t = np.append(x, top + m), d / m

    def barrier(z):
        R = np.linalg.cholesky(np.tensordot(z, Gk, 1) - F0)
        return R, t * z[-1] - 2.0 * np.log(np.diag(R)).sum()

    while True:
        R, f = barrier(z)
        while True:
            Ri = np.linalg.inv(R)
            W = (Ri @ Gk @ Ri.T).reshape(len(z), -1)
            grad = t * (np.arange(len(z)) == len(x)) - W[:, ::d + 1].sum(axis=1)
            try:
                dz = -np.linalg.solve(W @ W.T, grad)
                lam2 = -float(grad @ dz)
                if not lam2 > _CENTRE_TOL:
                    break
                z_new = z + dz / (1.0 + np.sqrt(lam2))
                R_new, f_new = barrier(z_new)
            except np.linalg.LinAlgError:
                return z[-1], z[:-1]
            if not f_new < f:
                break
            z, R, f = z_new, R_new, f_new
        if z[-1] < 0.0 or d / t <= _PHASE_ONE_GAP * m:
            return z[-1], z[:-1]
        t *= 10.0


def gain_rank_obstruction(sys: BilinearSystem) -> float | None:
    """Singular-value witness proving the observer LMI infeasible, or None.

    The Schur form of a feasible certificate forces |(A - LD)v| > mu for
    every unit v, i.e. sigma_min(A - LD) > mu.  But LD has rank at most p,
    and a rank-p update cannot raise the smallest singular value above
    sigma_{n-p}(A) (Weyl interlacing).  So sigma_{n-p}(A) <= mu rules out
    every gain at once.  Returns that singular value when it certifies
    infeasibility; None when the test is silent (including p >= n).
    """
    A, D = sys.A, sys.D
    n = A.shape[0]
    p = D.shape[0]
    if p >= n:
        return None
    mu = input_coupling_bound(sys)
    sv = np.linalg.svd(A, compute_uv=False)
    witness = float(sv[n - p - 1])
    return witness if witness <= mu else None


def observer_design(sys: BilinearSystem) -> ObserverDesign:
    """Find L = Q^{-1} Y certifying the saturated-input observer LMI.

    [[QA + A^T Q - YD - D^T Y^T + (nu mu^2 + 2 eps) I,  Q],
     [Q,                                             -nu I]]  <= 0

    with mu = ||B||_2 max(|u_min|, |u_max|).  The certificate makes the
    estimation error contract for every admissible saturated input, with
    no input grid.  The rank obstruction test runs first: when it fires, no
    gain can ever satisfy the inequality and the search is skipped.

    Otherwise Y is eliminated by the projection lemma (Gahinet & Apkarian
    1994): with N an orthonormal basis of ker D, some Y makes the block
    negative definite iff [[N^T (QA + A^T Q + nu mu^2 I) N + 2 eps I, N^T Q],
    [QN, -nu I]] < 0.  _phase_one lowers the largest eigenvalue s of that
    block at eps = 0 and of -Q over Q, nu with trace Q + nu = n + 1 (the
    inequality is homogeneous).  s >= 0 is infeasible for every gain; s < 0
    gives eps = -s / 4 and Y = (sigma / 2) D^T, with sigma twice the weight
    on D^T D that the Schur complement of the ker D part needs on range D^T.
    """
    A, D = sys.A, sys.D
    check_observability(A, D)
    mu = input_coupling_bound(sys)
    p, n = D.shape
    Y0 = np.zeros((n, p))

    witness = gain_rank_obstruction(sys)
    if witness is not None:
        start = _observer_residual(A, D, mu, np.eye(n), Y0,
                                   max(1.0, 1.0 / mu) if mu > 0.0 else 1.0, 0.0)
        raise InfeasibleError(
            "observer LMI infeasible for every gain: feasibility needs "
            f"sigma_min(A - LD) > mu = {mu:.6g}, but rank-{p} output "
            f"injection is capped by sigma_{n - p}(A) = {witness:.6g}",
            best_residual=start,
        )

    _, sv, Vt = np.linalg.svd(D)
    r = np.linalg.matrix_rank(D)
    T, N = Vt[:r].T, Vt[r:].T
    V = np.zeros((3 * n, 3 * n - r))  # blkdiag(N, I, I)
    V[:n, :n - r], V[n:, n - r:] = N, np.eye(2 * n)
    iu, Z = np.triu_indices(n), np.zeros((2 * n, n))

    def unpack(x):
        Q = np.zeros((n, n))
        Q[iu] = Q.T[iu] = x
        return Q, n + 1.0 - np.trace(Q)

    def projected(x):
        Q, nu = unpack(x)
        blk = robust_decay_block(Q @ A + A.T @ Q, Q, nu, 0.0, mu)
        return V.T @ np.block([[blk, Z], [Z.T, -Q]]) @ V

    s, x = _phase_one(projected, np.eye(n)[iu])
    Q, nu = unpack(x)
    if not s < 0.0:
        raise InfeasibleError(
            "observer LMI infeasible for every gain: its projection onto "
            "ker D has no strictly feasible Q, nu",
            best_residual=_observer_residual(A, D, mu, Q, Y0, nu, 0.0),
        )
    eps = -0.25 * s
    R = Q @ A + A.T @ Q + (nu * mu * mu + 2.0 * eps) * np.eye(n) + Q @ Q / nu
    K = T.T @ R @ T - T.T @ R @ N @ np.linalg.solve(N.T @ R @ N, N.T @ R @ T)
    Y = max(float(np.linalg.eigvalsh(K)[-1]), 0.0) / sv[r - 1] ** 2 * D.T
    residual = _observer_residual(A, D, mu, Q, Y, nu, eps)

    # Homogeneous rescale so the certificate clears the threshold cleanly.
    c = max(1.0, 4.0 * abs(_LMI_DECLARE) / abs(residual))
    Q, Y, nu, eps = c * Q, c * Y, c * nu, c * eps
    residual = _observer_residual(A, D, mu, Q, Y, nu, eps)
    if residual >= _LMI_DECLARE:
        raise InfeasibleError("observer LMI rescale lost the margin", best_residual=residual)

    L = np.linalg.solve(Q, Y)
    return ObserverDesign(L=L, Q=Q, Y=Y, nu=float(nu), eps=float(eps), mu=mu,
                          lmi_residual=float(residual))


def pi_shift_sup(sys: BilinearSystem) -> float:
    """Supremum over [u_min, u_max] of |dpi/du| = |F_u^{-1} (b - B y)|, with
    y = F_u^{-1} (b u + E) = -pi(u).

    A constant of the plant, not of the design input: pi(u_ss + v) - pi(u_ss)
    = -v F_u^{-1} g_ss for u = u_ss + v, so it bounds every shift of the
    equilibrium the saturated input can make.  A root of the pencil (A, B)
    in range, where the supremum is infinite, raises SingularMatrixError
    naming the lowest, as reachable_set does.  Otherwise it is the largest
    value at u_min, u_max and the zeros of d|dpi/du|^2/du
    (steady_state._slope_stationary_points), with no grid.  Stacked solves
    and per-row products (kernels._rowwise, _rowdot) give each candidate the
    bits of one input at a time.  The first call keeps its result on the
    frozen sys, and later calls return it; a call that raises keeps nothing.
    """
    if sys._pi_bar is not None:
        return sys._pi_bar
    _refuse_poles(sys)
    us = np.concatenate(([sys.u_min], _slope_stationary_points(sys), [sys.u_max]))
    F = sys.A + sys.B * us[:, None, None]
    y = np.linalg.solve(F, (sys.b * us[:, None] + sys.E)[..., None])[..., 0]
    d = np.linalg.solve(F, (sys.b - _rowwise(sys.B, y))[..., None])[..., 0]
    pi_bar = float(np.sqrt(_rowdot(d, d)[:, 0]).max())
    object.__setattr__(sys, "_pi_bar", pi_bar)
    return pi_bar


def integral_gain_bound(sys: BilinearSystem, P: np.ndarray, eps: float) -> tuple[float, float]:
    """Certified integral gain bound ki_star = eps / (3 c0 pi_bar sqrt(pl pu)).

    c0 = |C|, pi_bar = pi_shift_sup, the maximum of |dpi/du| over the input
    interval taken at its candidates rather than on a grid, and pl, pu are
    the extreme eigenvalues of P.  eps must be a decay rate certified for P
    over the frozen family, P F_u + F_u^T P <= -2 eps I for every u in
    [u_min, u_max], as lyapunov_decay_margin gives it.  Both factors depend
    on the plant and P alone, so ki_star is one number for every design
    input.  Returns (ki_star, pi_bar).
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    P = np.asarray(P, dtype=np.float64)
    evals = np.linalg.eigvalsh(P)
    if evals[0] <= 0.0:
        raise ValueError("P must be positive definite")
    c0 = float(np.linalg.norm(sys.C))
    pi_bar = pi_shift_sup(sys)
    if pi_bar <= 0.0:
        raise ZeroDCGainError("pi_shift_sup vanished; the input moves no equilibrium")
    ki_star = eps / (3.0 * c0 * pi_bar * np.sqrt(evals[0] * evals[-1]))
    return float(ki_star), float(pi_bar)


def lyapunov_decay_margin(
    sys: BilinearSystem, P: np.ndarray, grid: int = 2
) -> float:
    """Largest eps with P F_u + F_u^T P <= -2 eps I for every u in
    [u_min, u_max]; positive means P certifies uniform decay.

    -lambda_max(P F_u + F_u^T P) / 2 is concave in u, since F_u is affine
    in u, so its minimum over the interval sits at a bound: the margin is
    the smaller of its values at u_min and u_max.  Every grid that holds
    both bounds gives that margin, so grid is only checked (at least 2) and
    plays no part.
    """
    if grid < 2:
        raise ValueError(f"grid must be >= 2, got {grid!r}")
    P = np.asarray(P, dtype=np.float64)
    return min(float(-np.linalg.eigvalsh(P @ F + F.T @ P)[-1] / 2.0)
               for F in (sys.frozen(sys.u_min), sys.frozen(sys.u_max)))


def integral_only_design(
    sys: BilinearSystem,
    eq: Equilibrium,
    k_i: float | None = None,
    hex_params: HexParams | None = None,
) -> DesignArtifacts:
    """Artifacts for the pure-integral law with its certified gain bound.

    P is the closed-form heat-exchanger weight when hex_params are given,
    else the Lyapunov solution at the design input with identity right-hand
    side.  The decay rate certified for P at the two input bounds, which
    lyapunov_decay_margin shows holds for the whole input interval, feeds
    the bound ki_star.  k_i, finite, defaults to half that
    bound, and one at or above the bound raises GainAboveBoundWarning.
    Upsilon is back-filled as -(P F_ss + F_ss^T P) / 2 so the stored pair
    satisfies the same identity every artifact set carries.
    """
    k_i = None if k_i is None else as_float("k_i", k_i)
    if hex_params is not None:
        P = hex_analytic_P(hex_params)
    else:
        P = solve_lyapunov(sys.frozen(eq.u_ss), np.eye(sys.n_states))
    eps = lyapunov_decay_margin(sys, P)
    if eps <= 0.0:
        raise InfeasibleError(
            f"P fails to certify uniform decay (margin {eps:.3e})",
            best_residual=-eps,
        )
    ki_star, pi_bar = integral_gain_bound(sys, P, eps)
    if k_i is None:
        k_i = 0.5 * ki_star
    if k_i <= 0.0:
        raise ValueError(f"k_i must be positive, got {k_i!r}")
    if k_i >= ki_star:
        warnings.warn(
            f"k_i = {k_i:.3e} >= certified bound {ki_star:.3e}",
            GainAboveBoundWarning,
            stacklevel=2,
        )
    F = sys.frozen(eq.u_ss)
    Upsilon = -0.5 * (P @ F + F.T @ P)
    M = _solve_output_row(F, sys.C)
    sign = sign_dc_gain(sys, eq)
    return DesignArtifacts(
        u_ss=eq.u_ss,
        x_ss=eq.x_ss.copy(),
        P=P,
        Upsilon=Upsilon,
        M=M,
        k_p=0.0,
        k_i=float(k_i),
        sign_dc=sign,
        ki_star=ki_star,
        pi_bar=pi_bar,
        eps_frozen=eps,
    )


# ---------------------------------------------------------------------------
# serialization


_ARTIFACT_FIELDS = ("u_ss", "x_ss", "P", "Upsilon", "M", "k_p", "k_i", "sign_dc")
_OPTIONAL_FIELDS = ("ki_star", "pi_bar", "eps_frozen")
_ARRAY_NDIM = {"x_ss": 1, "P": 2, "Upsilon": 2, "M": 1, "L": 2, "Q": 2, "Y": 2}


def artifacts_to_dict(art: DesignArtifacts) -> dict:
    return asdict(art)


def _number(name: str, value):
    key = name.rpartition(".")[2]
    if key in _ARRAY_NDIM:
        return as_array(name, value, _ARRAY_NDIM[key])
    return as_float(name, value)


def artifacts_from_dict(data: dict) -> DesignArtifacts:
    """Artifacts from parsed JSON: known fields only, every number finite."""
    require_fields(data, "artifact", _ARTIFACT_FIELDS, (*_OPTIONAL_FIELDS, "observer"))
    observer = None
    obs = data.get("observer")
    if obs is not None:
        names = [f.name for f in fields(ObserverDesign)]
        require_fields(obs, "observer", names)
        observer = ObserverDesign(**{k: _number(f"observer.{k}", obs[k]) for k in names})
    values = {k: _number(k, data[k]) for k in _ARTIFACT_FIELDS}
    values.update({k: _number(k, data[k]) for k in _OPTIONAL_FIELDS if data.get(k) is not None})
    return DesignArtifacts(observer=observer, **values)


def require_artifacts_fit(sys: BilinearSystem, art: DesignArtifacts) -> None:
    """Raise ValueError naming the first artifact array whose shape does not
    fit sys: x_ss and M have n entries, P and Upsilon are n x n, and an
    observer's L, Q and Y are n x p, n x n and n x p."""
    n, p = sys.n_states, sys.n_outputs
    arrays = {"x_ss": (art.x_ss, (n,)), "P": (art.P, (n, n)),
              "Upsilon": (art.Upsilon, (n, n)), "M": (art.M, (n,))}
    if art.observer is not None:
        obs = art.observer
        arrays.update({"observer.L": (obs.L, (n, p)), "observer.Q": (obs.Q, (n, n)),
                       "observer.Y": (obs.Y, (n, p))})
    for name, (arr, shape) in arrays.items():
        if arr.shape != shape:
            got = "x".join(map(str, arr.shape))
            if len(shape) == 1:
                raise ValueError(f"{name} must have {n} entries, got {got}")
            raise ValueError(f"{name} must be {shape[0]}x{shape[1]}, got {got}")


def load_artifacts(path: str) -> DesignArtifacts:
    return artifacts_from_dict(read_object(path))


def save_artifacts(path: str, art: DesignArtifacts) -> None:
    dump_json(path, artifacts_to_dict(art))
