"""Equilibrium map, reachable output set, and reference inversion.

For a frozen admissible input u the equilibrium is

    pi(u) = -(A + B u)^{-1} (b u + E),

the steady output is C pi(u), and the reachable reference set is the range
of C pi over [u_min, u_max].  _equilibria solves for pi on stacks of inputs
(pi_map is one input).  All solvers here are deterministic: fixed grids,
bracketed bisection, and golden-section refinement of a grid peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ReferenceUnreachableError, SingularMatrixError
from .kernels import _rowdot, _rowwise
from .model import BilinearSystem

__all__ = [
    "Equilibrium",
    "ReachableSet",
    "pi_map",
    "equilibrium_at",
    "reachable_set",
    "invert_reference",
    "screen_singular",
]

_COND_LIMIT = 1e14  # a matrix with 2-norm condition number above this is singular
_COND_CLEAR = 1e12  # a Frobenius bound at or below this clears a matrix without an SVD
_STACK_BLOCK = 64  # matrices per stacked screen and solve; bounds the (block, n, n) temporaries
_REACH_GRID = 256  # inputs in the sweep of the reachable set
_BISECT_MAX_ITER = 200
_GOLDEN_TOL = 1e-10


@dataclass
class Equilibrium:
    """A steady input together with its state and regulated output."""

    u_ss: float
    x_ss: np.ndarray
    y_ss: float


@dataclass
class ReachableSet:
    """Range of the steady regulated output over the input interval.

    ``u_grid``/``y_grid`` keep the coarse sweep used to locate the extrema;
    the endpoints themselves are golden-section refined.
    """

    r_min: float
    r_max: float
    u_at_min: float
    u_at_max: float
    u_grid: np.ndarray = field(repr=False)
    y_grid: np.ndarray = field(repr=False)

    def contains(self, r: float, tol: float = 0.0) -> bool:
        return (self.r_min - tol) <= r <= (self.r_max + tol)


def screen_singular(F) -> tuple[np.ndarray, np.ndarray]:
    """Which of the matrices F, of shape (n, n) or (k, n, n), are numerically
    singular: (singular, kappa), each of shape () or (k,).

    The verdict is that of the exact test, cond_2(F) not finite or above
    1e14, but the SVD behind cond runs only where a cheap bound cannot clear
    the matrix.  kappa_2(F) <= |F|_F |F^-1|_F, with one stacked inverse; a
    matrix whose bound is finite and at most 1e12 is cleared, since its
    exact condition number, even as computed, lies far below 1e14.  Where
    the bound is larger or not finite, or where the inverse raises, kappa
    is np.linalg.cond.  So kappa is the bound on cleared matrices and the
    exact condition number on the rest.
    """
    F = np.asarray(F, dtype=np.float64)
    stack = F.reshape((-1,) + F.shape[-2:])
    try:
        inv = np.linalg.inv(stack)
    except np.linalg.LinAlgError:
        kappa = np.linalg.cond(stack)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            kappa = np.sqrt(np.einsum("kij,kij->k", stack, stack)
                            * np.einsum("kij,kij->k", inv, inv))
        hard = ~(kappa <= _COND_CLEAR)
        if hard.any():
            kappa[hard] = np.linalg.cond(stack[hard])
    kappa = kappa.reshape(F.shape[:-2])
    return ~(kappa <= _COND_LIMIT), kappa


def _equilibria(sys: BilinearSystem, us: np.ndarray) -> np.ndarray:
    """pi(u) for each input of us, one row each, in stacks of 64 F_u.

    Per input: screen_singular, one solve, one refinement and a check of
    the residual F x + b u + E.  Stacked solves and kernels._rowwise keep
    the bits of pi_map at each input, and the first input that fails
    raises what pi_map raises there.
    """
    out = np.empty((len(us), sys.n_states))
    for k in range(0, len(us), _STACK_BLOCK):
        u = us[k : k + _STACK_BLOCK]
        F = sys.A + sys.B * u[:, None, None]
        singular, kappa = screen_singular(F)
        # a refused matrix is swapped for I so the stacked solve cannot raise
        F[singular] = np.eye(sys.n_states)
        rhs = -(sys.b * u[:, None] + sys.E)
        x = np.linalg.solve(F, rhs[..., None])[..., 0]
        x = x - np.linalg.solve(F, (_rowwise(F, x) - rhs)[..., None])[..., 0]
        residual = np.abs(_rowwise(F, x) + sys.b * u[:, None] + sys.E).max(axis=1)
        limit = 1e-9 * (1.0 + np.abs(x).max(axis=1))
        failed = singular | (residual > limit)
        if failed.any():
            i = int(np.argmax(failed))
            at = f"at u = {float(u[i])!r}"
            if singular[i]:
                raise SingularMatrixError(f"A + B u numerically singular {at}",
                                          cond=float(kappa[i]))
            raise SingularMatrixError(
                f"equilibrium residual {residual[i]:.3e} exceeds {limit[i]:.3e} {at}")
        out[k : k + _STACK_BLOCK] = x
    return out


def pi_map(sys: BilinearSystem, u: float) -> np.ndarray:
    """Equilibrium state for a frozen admissible input: _equilibria of one."""
    u = float(u)
    if not sys.u_min <= u <= sys.u_max:
        raise ValueError(f"u = {u!r} outside [{sys.u_min}, {sys.u_max}]")
    return _equilibria(sys, np.array([u]))[0]


def equilibrium_at(sys: BilinearSystem, u: float) -> Equilibrium:
    x = pi_map(sys, u)
    return Equilibrium(u_ss=float(u), x_ss=x, y_ss=float(sys.C @ x))


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


def _refine_peak(f, grid: np.ndarray, vals: np.ndarray, tol: float) -> tuple[float, float]:
    """Maximize f from its values vals on grid: the grid maximum, then a
    golden-section search between its neighbours; the grid point wins a tie."""
    i = int(np.argmax(vals))
    x, val = _golden_section_max(f, grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)], tol)
    if vals[i] >= val:
        return float(grid[i]), float(vals[i])
    return float(x), float(val)


def reachable_set(sys: BilinearSystem) -> ReachableSet:
    """Sweep C pi(u) over 256 inputs of the interval, stacked but with the
    bits of one pi_map and C @ x each, and refine both extrema."""
    u_grid = np.linspace(sys.u_min, sys.u_max, _REACH_GRID)
    y_grid = _rowdot(sys.C, _equilibria(sys, u_grid))[:, 0]
    u_at_max, r_max = _refine_peak(
        lambda u: equilibrium_at(sys, u).y_ss, u_grid, y_grid, _GOLDEN_TOL)
    u_at_min, neg_min = _refine_peak(
        lambda u: -equilibrium_at(sys, u).y_ss, u_grid, -y_grid, _GOLDEN_TOL)
    return ReachableSet(
        r_min=-neg_min, r_max=r_max, u_at_min=u_at_min, u_at_max=u_at_max,
        u_grid=u_grid, y_grid=y_grid,
    )


def invert_reference(
    sys: BilinearSystem, r: float, rs: ReachableSet | None = None
) -> Equilibrium:
    """Find the smallest admissible u_ss with C pi(u_ss) = r.

    The sweep of the reachable set rs (built by reachable_set when not
    given) is scanned in order of u for the first crossing: a grid point
    within tolerance of r, or a sign change, bisected (bounded iteration
    count).  Where there is none, an extremum may touch r between grid
    points: the closest grid point is refined by _refine_peak.
    """
    r = float(r)
    if rs is None:
        rs = reachable_set(sys)
    if not rs.contains(r, tol=1e-9 * (1.0 + abs(r))):
        raise ReferenceUnreachableError(r, rs.r_min, rs.r_max)

    g = rs.y_grid - r
    f_tol = 1e-8 * (1.0 + abs(r))
    near = np.abs(g) <= f_tol
    # a bracket ending on an exact zero is left to that grid point
    flips = np.append((np.sign(g[:-1]) != np.sign(g[1:])) & (g[1:] != 0.0), False)
    hits = np.flatnonzero(near | flips)
    if not hits.size:
        u_ss, _ = _refine_peak(lambda u: -abs(equilibrium_at(sys, u).y_ss - r),
                               rs.u_grid, -np.abs(g), _GOLDEN_TOL)
    elif near[hits[0]]:
        u_ss = float(rs.u_grid[hits[0]])
    else:
        i = hits[0]
        u_ss = _bisect(sys, r, rs.u_grid[i], rs.u_grid[i + 1], g[i])

    eq = equilibrium_at(sys, u_ss)
    if abs(eq.y_ss - r) > f_tol:
        raise ReferenceUnreachableError(r, rs.r_min, rs.r_max)
    return eq


def _bisect(sys: BilinearSystem, r: float, lo: float, hi: float, g_lo: float) -> float:
    sign_lo = np.sign(g_lo)
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if (hi - lo) < 1e-15 * (1.0 + abs(mid)):
            break
        g_mid = equilibrium_at(sys, mid).y_ss - r
        if g_mid == 0.0:
            return float(mid)
        if np.sign(g_mid) == sign_lo:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))
