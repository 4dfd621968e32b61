"""Equilibrium map, reachable output set, and reference inversion.

For a frozen admissible input u the equilibrium is

    pi(u) = -(A + B u)^{-1} (b u + E),

the steady output is C pi(u), and the reachable reference set is the range
of C pi over [u_min, u_max].  All solvers here are deterministic: fixed
grids, bracketed bisection, and golden-section refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ReferenceUnreachableError, SingularMatrixError
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


def _solve_frozen(sys: BilinearSystem, u: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (A + B u) x = rhs with a singularity screen and one refinement.

    screen_singular decides singularity: the Frobenius bound clears every
    well-conditioned F without an SVD and the exact cond decides the rest,
    so a frozen matrix is refused exactly when cond_2 > 1e14 or is not
    finite, as with cond alone.
    """
    F = sys.frozen(u)
    singular, kappa = screen_singular(F)
    if singular:
        raise SingularMatrixError(
            f"A + B u numerically singular at u = {u!r}", cond=float(kappa)
        )
    x = np.linalg.solve(F, rhs)
    x = x - np.linalg.solve(F, F @ x - rhs)
    return x


def pi_map(sys: BilinearSystem, u: float) -> np.ndarray:
    """Equilibrium state for a frozen admissible input."""
    u = float(u)
    if not sys.u_min <= u <= sys.u_max:
        raise ValueError(f"u = {u!r} outside [{sys.u_min}, {sys.u_max}]")
    x = _solve_frozen(sys, u, -(sys.b * u + sys.E))
    residual = np.linalg.norm(sys.frozen(u) @ x + sys.b * u + sys.E, np.inf)
    limit = 1e-9 * (1.0 + np.linalg.norm(x, np.inf))
    if residual > limit:
        raise SingularMatrixError(
            f"equilibrium residual {residual:.3e} exceeds {limit:.3e} at u = {u!r}"
        )
    return x


def equilibrium_at(sys: BilinearSystem, u: float) -> Equilibrium:
    x = pi_map(sys, u)
    return Equilibrium(u_ss=float(u), x_ss=x, y_ss=float(sys.C @ x))


def _steady_output(sys: BilinearSystem, u: float) -> float:
    return float(sys.C @ pi_map(sys, u))


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


def reachable_set(sys: BilinearSystem) -> ReachableSet:
    """Sweep C pi(u) over 256 inputs of the interval and refine both extrema."""
    u_grid = np.linspace(sys.u_min, sys.u_max, _REACH_GRID)
    y_grid = np.array([_steady_output(sys, u) for u in u_grid])

    def refine(idx: int, sign: float) -> tuple[float, float]:
        lo = u_grid[max(idx - 1, 0)]
        hi = u_grid[min(idx + 1, _REACH_GRID - 1)]
        if hi <= lo:
            return float(u_grid[idx]), float(y_grid[idx])
        u_best, val = _golden_section_max(
            lambda u: sign * _steady_output(sys, u), lo, hi, _GOLDEN_TOL
        )
        # a boundary extremum beats the interior refinement
        if sign * y_grid[idx] >= val:
            return float(u_grid[idx]), float(y_grid[idx])
        return float(u_best), float(sign * val)

    u_at_max, r_max = refine(int(np.argmax(y_grid)), +1.0)
    u_at_min, r_min = refine(int(np.argmin(y_grid)), -1.0)
    return ReachableSet(
        r_min=r_min, r_max=r_max, u_at_min=u_at_min, u_at_max=u_at_max,
        u_grid=u_grid, y_grid=y_grid,
    )


def invert_reference(
    sys: BilinearSystem, r: float, rs: ReachableSet | None = None
) -> Equilibrium:
    """Find the smallest admissible u_ss with C pi(u_ss) = r.

    A sign-change scan over the sweep of the reachable set rs (built by
    reachable_set when not given) brackets every crossing; each bracket is
    bisected (bounded iteration count).  When several inputs produce the
    same output the smallest u is returned.
    """
    r = float(r)
    if rs is None:
        rs = reachable_set(sys)
    if not rs.contains(r, tol=1e-9 * (1.0 + abs(r))):
        raise ReferenceUnreachableError(r, rs.r_min, rs.r_max)

    g = rs.y_grid - r
    f_tol = 1e-8 * (1.0 + abs(r))
    roots: list[float] = []
    for i, u in enumerate(rs.u_grid):
        if abs(g[i]) <= f_tol:
            roots.append(float(u))
    for i in range(len(rs.u_grid) - 1):
        if g[i] == 0.0 or g[i + 1] == 0.0:
            continue
        if np.sign(g[i]) != np.sign(g[i + 1]):
            roots.append(_bisect(sys, r, rs.u_grid[i], rs.u_grid[i + 1], g[i]))
    if not roots:
        # Extremum touching r without a grid sign change: refine at the
        # closest grid point.
        i = int(np.argmin(np.abs(g)))
        lo = rs.u_grid[max(i - 1, 0)]
        hi = rs.u_grid[min(i + 1, len(rs.u_grid) - 1)]
        u_best, _ = _golden_section_max(
            lambda u: -abs(_steady_output(sys, u) - r), lo, hi, _GOLDEN_TOL
        )
        roots.append(float(u_best))

    u_ss = min(roots)
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
        g_mid = _steady_output(sys, mid) - r
        if g_mid == 0.0:
            return float(mid)
        if np.sign(g_mid) == sign_lo:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))
