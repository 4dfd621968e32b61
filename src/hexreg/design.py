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
    SingularMatrixError,
    ZeroDCGainError,
    as_array,
    as_float,
)
from .kernels import _rowdot, _rowwise
from .model import BilinearSystem, HexParams
from .serde import dump_json, read_object, require_fields
from .steady_state import _STACK_BLOCK, Equilibrium, screen_singular

__all__ = [
    "DesignArtifacts",
    "ObserverDesign",
    "solve_lyapunov",
    "hex_analytic_P",
    "sign_dc_gain",
    "forwarding_design",
    "observer_design",
    "gain_rank_obstruction",
    "observability_matrix",
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
_LMI_FLOOR = 1e-6  # projection floor delta for Q, nu, eps
_LMI_ITERS = 5000
_PI_SHIFT_GRID = 512  # input grid of pi_shift_sup before refinement


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

    Requires F Hurwitz and Upsilon symmetric positive definite.
    """
    F = np.asarray(F, dtype=np.float64)
    Upsilon = np.asarray(Upsilon, dtype=np.float64)
    if np.max(np.real(np.linalg.eigvals(F))) >= 0.0:
        raise NotHurwitzError("F has an eigenvalue with Re >= 0")
    if np.linalg.norm(Upsilon - Upsilon.T, np.inf) > 1e-12 * (1 + np.linalg.norm(Upsilon, np.inf)):
        raise ValueError("Upsilon must be symmetric")
    if np.min(np.linalg.eigvalsh(Upsilon)) <= 0.0:
        raise ValueError("Upsilon must be positive definite")
    import scipy.linalg as sla

    P = sla.solve_continuous_lyapunov(F.T, -2.0 * Upsilon)
    P = 0.5 * (P + P.T)
    return P


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


def observability_matrix(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    blocks = [D]
    for _ in range(n - 1):
        blocks.append(blocks[-1] @ A)
    return np.vstack(blocks)


def check_observability(A: np.ndarray, D: np.ndarray) -> None:
    n = A.shape[0]
    O = observability_matrix(A, D)
    rank = np.linalg.matrix_rank(O)
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


def _observer_lmi(A, D, mu, Q, Y, nu, eps) -> np.ndarray:
    return robust_decay_block(Q @ A + A.T @ Q - Y @ D - D.T @ Y.T, Q, nu, eps, mu)


def _project(Q, nu, eps):
    Q = 0.5 * (Q + Q.T)
    w, V = np.linalg.eigh(Q)
    w = np.maximum(w, _LMI_FLOOR)
    Q = (V * w) @ V.T
    return Q, max(nu, _LMI_FLOOR), max(eps, _LMI_FLOOR)


def _placement_gain(A: np.ndarray, D: np.ndarray, shift: float) -> np.ndarray:
    """Deterministic output-injection gain moving every eigenvalue left.

    Targets Re(lambda_i(A)) - shift with duplicates spread slightly so the
    placement problem stays well posed.  Assignment goes through the
    Sylvester equation A^T X - X Lam = D^T G with a fixed output-cycling
    pattern G; then (A - L D)^T has eigenvector matrix X at the targets
    for L = X^{-T} G^T.  Falls back to the zero gain if the solve degenerates,
    since callers only need a starting point.
    """
    n = A.shape[0]
    p = D.shape[0]
    targets = np.sort(np.real(np.linalg.eigvals(A))) - shift
    spread = 1e-3 * max(1.0, shift)
    targets = targets - spread * (1.0 + np.arange(n))
    G = np.zeros((p, n))
    G[np.arange(n) % p, np.arange(n)] = 1.0
    import scipy.linalg as sla

    try:
        X = sla.solve_sylvester(A.T, -np.diag(targets), D.T @ G)
        L = np.linalg.solve(X.T, G.T)
    except np.linalg.LinAlgError:
        return np.zeros((n, p))
    if not np.all(np.isfinite(L)):
        return np.zeros((n, p))
    return np.ascontiguousarray(L)


def _subgradient_descent(A, D, mu, Q, Y, nu, eps, iters):
    """Projected subgradient on the largest LMI eigenvalue.

    The block matrix is affine in (Q, Y, nu, eps); the outer product of its
    top eigenvector gives a subgradient of the largest-eigenvalue objective.
    Diminishing steps c / sqrt(k); the first strictly negative residual wins
    (the problem is homogeneous, so any strictly feasible point can be
    rescaled to clear the declaration threshold).
    """
    n = A.shape[0]
    best = (np.inf, Q.copy(), Y.copy(), nu, eps)
    scale = max(1.0, np.linalg.norm(Q), np.linalg.norm(Y))
    step0 = 0.2 * scale
    for k in range(1, iters + 1):
        lam_max, vec = _top_eig(_observer_lmi(A, D, mu, Q, Y, nu, eps))
        if lam_max < best[0]:
            best = (lam_max, Q.copy(), Y.copy(), nu, eps)
        if lam_max < -1e-12:
            return best
        v1, v2 = vec[:n], vec[n:]
        Av1 = A @ v1
        Dv1 = D @ v1
        gQ = np.outer(v1, Av1) + np.outer(Av1, v1) + np.outer(v1, v2) + np.outer(v2, v1)
        gY = -2.0 * np.outer(v1, Dv1)
        gnu = mu * mu * float(v1 @ v1) - float(v2 @ v2)
        geps = 2.0 * float(v1 @ v1)
        gnorm = np.sqrt(
            np.sum(gQ * gQ) + np.sum(gY * gY) + gnu * gnu + geps * geps
        )
        if gnorm == 0.0:
            break
        alpha = step0 / (np.sqrt(k) * gnorm)
        Q = Q - alpha * gQ
        Y = Y - alpha * gY
        nu = nu - alpha * gnu
        eps = eps - alpha * geps
        Q, nu, eps = _project(Q, nu, eps)
    return best


def _top_eig(Mblk: np.ndarray) -> tuple[float, np.ndarray]:
    w, V = np.linalg.eigh(Mblk)
    return float(w[-1]), V[:, -1]


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
    no input grid.  The rank obstruction test runs
    first: when it fires, no gain can ever satisfy the inequality and the
    search is skipped.  Otherwise: projected subgradient from the
    pole-placement seed.
    """
    A, D = sys.A, sys.D
    check_observability(A, D)
    mu = input_coupling_bound(sys)
    n = A.shape[0]

    witness = gain_rank_obstruction(sys)
    if witness is not None:
        p = D.shape[0]
        start = _top_eig(_observer_lmi(A, D, mu, np.eye(n), np.zeros((n, p)),
                                       max(1.0, 1.0 / mu) if mu > 0.0 else 1.0,
                                       _LMI_FLOOR))[0]
        raise InfeasibleError(
            "observer LMI infeasible for every gain: feasibility needs "
            f"sigma_min(A - LD) > mu = {mu:.6g}, but rank-{p} output "
            f"injection is capped by sigma_{n - p}(A) = {witness:.6g}",
            best_residual=start,
        )

    Q0 = np.eye(n)
    Y0 = _placement_gain(A, D, 1.0)  # Y = Q0 L with Q0 = I
    nu0 = max(1.0, 1.0 / mu) if mu > 0.0 else 1.0
    eps0 = 0.1
    best = _subgradient_descent(A, D, mu, Q0, Y0, nu0, eps0, _LMI_ITERS)

    lam_best, Q, Y, nu, eps = best
    if lam_best >= -1e-12:
        raise InfeasibleError("observer LMI search exhausted", best_residual=lam_best)

    # Homogeneous rescale so the certificate clears the threshold cleanly.
    c = max(1.0, 4.0 * abs(_LMI_DECLARE) / abs(lam_best))
    Q, Y, nu, eps = c * Q, c * Y, c * nu, c * eps
    residual = _top_eig(_observer_lmi(A, D, mu, Q, Y, nu, eps))[0]
    if residual >= _LMI_DECLARE:
        raise InfeasibleError("observer LMI rescale lost the margin", best_residual=residual)

    L = np.linalg.solve(Q, Y)
    return ObserverDesign(L=L, Q=Q, Y=Y, nu=float(nu), eps=float(eps), mu=mu,
                          lmi_residual=float(residual))


def _golden_section_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Deterministic golden-section maximizer on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    u_best = 0.5 * (a + b)
    return u_best, f(u_best)


def pi_shift_sup(sys: BilinearSystem) -> float:
    """Supremum over [u_min, u_max] of |dpi/du| = |F_u^{-1} (b - B y)|, with
    y = F_u^{-1} (b u + E) = -pi(u).

    A constant of the plant, not of the design input: pi(u_ss + v) - pi(u_ss)
    = -v F_u^{-1} g_ss for u = u_ss + v, so it bounds every shift of the
    equilibrium the saturated input can make.  A 512-point sweep, then a
    golden-section search between the neighbours of its peak; the grid
    value wins a tie.  steady_state.screen_singular screens the sweep as the
    family A + u B and raises SingularMatrixError at the first u whose F_u
    has cond_2 > 1e14.  The two solves per input run on stacks of 64 F_u;
    stacked solves, per-row products (kernels._rowwise, _rowdot) and sqrt
    make the same floating-point operations as one input at a time, so
    every magnitude keeps its bits, in the sweep and in the refinement.
    The first call keeps its result on the frozen sys, and later calls
    return it; a call that raises keeps nothing.
    """
    if sys._pi_bar is not None:
        return sys._pi_bar
    lo, hi = sys.u_min, sys.u_max

    def magnitudes(us: np.ndarray) -> np.ndarray:
        singular, kappa = screen_singular(sys.A, sys.B, us)
        if singular.any():
            i = int(np.argmax(singular))
            raise SingularMatrixError(
                f"A + B u numerically singular at u = {float(us[i])!r}", cond=float(kappa[i])
            )
        out = np.empty(len(us))
        for k in range(0, len(us), _STACK_BLOCK):
            u = us[k : k + _STACK_BLOCK]
            F = sys.A + sys.B * u[:, None, None]
            y = np.linalg.solve(F, (sys.b * u[:, None] + sys.E)[..., None])[..., 0]
            d = np.linalg.solve(F, (sys.b - _rowwise(sys.B, y))[..., None])[..., 0]
            out[k : k + _STACK_BLOCK] = np.sqrt(_rowdot(d, d)[:, 0])
        return out

    grid = np.linspace(lo, hi, _PI_SHIFT_GRID)
    vals = magnitudes(grid)
    i = int(np.argmax(vals))
    _, peak = _golden_section_max(lambda u: float(magnitudes(np.array([u]))[0]),
                                  grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)],
                                  1e-10 * (1.0 + hi - lo))
    pi_bar = float(max(vals[i], peak))
    object.__setattr__(sys, "_pi_bar", pi_bar)
    return pi_bar


def integral_gain_bound(sys: BilinearSystem, P: np.ndarray, eps: float) -> tuple[float, float]:
    """Certified integral gain bound ki_star = eps / (3 c0 pi_bar sqrt(pl pu)).

    c0 = |C|, pi_bar = pi_shift_sup over the input interval, and pl, pu are
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
    """Largest eps with P F_u + F_u^T P <= -2 eps I across the input grid.

    Computed as the min over the grid of the smallest eigenvalue of
    -(P F_u + F_u^T P) / 2.  That eigenvalue is concave in u, since F_u is
    affine in u, so its minimum over [u_min, u_max] sits at a bound: every
    grid, the default two bounds included, gives the margin of the whole
    frozen family.  Positive means P certifies uniform decay.
    """
    if grid < 2:
        raise ValueError(f"grid must be >= 2, got {grid!r}")
    P = np.asarray(P, dtype=np.float64)
    margin = np.inf
    for u in np.linspace(sys.u_min, sys.u_max, grid):
        F = sys.frozen(float(u))
        S = P @ F + F.T @ P
        margin = min(margin, float(-np.linalg.eigvalsh(S)[-1] / 2.0))
    return margin


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
