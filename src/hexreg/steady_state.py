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
# an anchor's Neumann bound, or a member's own |F|_F |F^-1|_F, at or below
# this clears the member without an SVD; 100x below the cut, it absorbs the
# rounding of the computed inverse
_COND_CLEAR = 1e12
_EPS = float(np.finfo(np.float64).eps)
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


@dataclass(frozen=True)
class ReachableSet:
    """Range of the steady regulated output over the input interval.

    ``u_grid``/``y_grid`` keep the coarse sweep used to locate the extrema;
    the endpoints themselves are golden-section refined.  Every caller of
    reachable_set on one system shares one instance, so it is frozen and
    its grids are read-only.
    """

    r_min: float
    r_max: float
    u_at_min: float
    u_at_max: float
    u_grid: np.ndarray = field(repr=False)
    y_grid: np.ndarray = field(repr=False)

    def require(self, r: float) -> None:
        """Raise ReferenceUnreachableError unless r lies in [r_min, r_max]
        widened by 1e-9 (1 + |r|), the rounding of the refined extrema."""
        tol = 1e-9 * (1.0 + abs(r))
        if not (self.r_min - tol) <= r <= (self.r_max + tol):
            raise ReferenceUnreachableError(r, self.r_min, self.r_max)


def _frobenius(X: np.ndarray) -> np.ndarray:
    """|X|_F of each matrix of X, over its last two axes; inf where that
    overflows."""
    return np.sqrt(np.einsum("...ij,...ij->...", X, X))


def screen_singular(M, B, *shifts) -> tuple[np.ndarray, np.ndarray]:
    """Which members of the affine family M + t B are numerically singular:
    (singular, kappa), each of the shape the shifts broadcast to.

    Member i is M + B s_1[i] + ... + B s_m[i], for m shifts broadcast
    together, formed in that order with one rounded update per shift, as
    the callers form it; its parameter is t_i = s_1[i] + ... + s_m[i].  The
    verdict is that of the exact test, cond_2 not finite or above 1e14, but
    most members are cleared from the inverse R of an anchor
    F_a = M + t_a B.  With Delta a bound on the rounding of member and
    anchor,

        rho = |t - t_a| |R B|_F + |R|_F Delta < 1

    gives, by the Neumann series, kappa_2(F) <= |F|_F |R|_F / (1 - rho).  A
    member is cleared when rho <= 1/2 and this bound is at most 1e12: its
    exact condition number, even as computed, lies far below 1e14.  Both
    tests hold out to a reach in |t - t_a|.  The anchors walk the members
    in order of t: each sits one reach of the last anchor past the first
    member not yet cleared, or on that member when that misses it.

    A member that no anchor clears, the member of a family of one, and
    every member of a family with a shift that is not finite take the
    per-matrix test: its own inverse, the bound |F|_F |F^-1|_F, and
    np.linalg.cond where that bound is above 1e12 or not finite, or where
    the inverse raises.  So kappa is a bound on cleared members and the
    exact condition number on the rest.  Only the members that take the
    per-matrix test are built, 64 at a time.
    """
    M = np.asarray(M, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    shifts = np.broadcast_arrays(*(np.asarray(s, dtype=np.float64) for s in shifts))
    with np.errstate(all="ignore"):
        # an anchor clears one member no cheaper than its own inverse does
        if shifts[0].size > 1:
            kappa, own = _walk_anchors(M, B, shifts)
        else:
            kappa, own = np.empty(shifts[0].shape), np.zeros(shifts[0].size, np.intp)
        for j in range(0, len(own), _STACK_BLOCK):
            rows = own[j : j + _STACK_BLOCK]
            F = M
            for s in shifts:
                F = F + B * s.flat[rows][:, None, None]
            try:
                inv = np.linalg.inv(F)
            except np.linalg.LinAlgError:
                bound = np.full(len(F), np.inf)
            else:
                bound = _frobenius(F) * _frobenius(inv)
            hard = ~(bound <= _COND_CLEAR)
            if hard.any():
                bound[hard] = np.linalg.cond(F[hard])
            kappa.put(rows, bound)
    return ~(kappa <= _COND_LIMIT), kappa


def _walk_anchors(M, B, shifts) -> tuple[np.ndarray, np.ndarray]:
    """The anchor walk of screen_singular: kappa, in the shape of the
    shifts, with the bound of each member the walk clears, and the flat
    indices of the members left over."""
    t = sum(shifts)
    shape = t.shape
    order = np.argsort(t, axis=None, kind="stable")
    ts = t.reshape(-1)[order]
    del t  # three numbers per member at a time: order, ts and kappa
    kappa = np.empty(shape)
    flat = kappa.reshape(-1)
    norm_B = _frobenius(B)
    # the member's rounded updates, the anchor's one and the sum t
    delta = 4.0 * (len(shifts) + 1) * _EPS * (
        _frobenius(M) + 2.0 * sum(max(s.max(), -s.min()) for s in shifts) * norm_B)
    if not np.isfinite(delta):
        # a shift that is not finite, or so large that delta overflows: no
        # anchor can clear a member
        return kappa, order
    own = []
    i, reach = 0, 0.0
    while i < len(ts):
        t_a = min(ts[i] + reach, ts[-1])
        F_a = M + B * t_a
        try:
            R = np.linalg.inv(F_a)
        except np.linalg.LinAlgError:
            R = np.full_like(F_a, np.nan)
        norm_R, norm_RB, norm_F = _frobenius(R), _frobenius(R @ B), _frobenius(F_a)
        rho_0 = norm_R * delta
        # rho <= 1/2 and the bound <= 1e12 hold together for |t - t_a| <= reach;
        # a NaN reach clears nothing
        reach = np.minimum((0.5 - rho_0) / norm_RB,
                           (_COND_CLEAR * (1.0 - rho_0) - (norm_F + delta) * norm_R)
                           / (norm_B * norm_R + _COND_CLEAR * norm_RB))
        lo, hi = ts.searchsorted((t_a - reach, t_a + reach), side="right")
        if reach >= 0.0 and lo <= i < hi:
            d = np.abs(ts[i:hi] - t_a)
            flat[order[i:hi]] = (norm_F + d * norm_B + delta) * norm_R / (1.0 - rho_0 - d * norm_RB)
            i = hi
        elif t_a > ts[i]:
            reach = 0.0
        else:
            # the anchor is on member i: nothing at its t can be cleared
            j = ts.searchsorted(t_a, side="right")
            own.extend(order[i:j])
            i, reach = j, 0.0
    return kappa, np.array(own, dtype=np.intp)


def _equilibria(sys: BilinearSystem, us: np.ndarray) -> np.ndarray:
    """pi(u) for each input of us, one row each, in stacks of 64 F_u.

    screen_singular screens all of us as the one family A + u B.  Then per
    input: one solve, one refinement and a check of the residual
    F x + b u + E.  Stacked solves and kernels._rowwise keep the bits of
    pi_map at each input, and the first input that fails raises what
    pi_map raises there.
    """
    out = np.empty((len(us), sys.n_states))
    refused, kappa = screen_singular(sys.A, sys.B, us)
    for k in range(0, len(us), _STACK_BLOCK):
        u = us[k : k + _STACK_BLOCK]
        F = sys.A + sys.B * u[:, None, None]
        singular = refused[k : k + _STACK_BLOCK]
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
                                          cond=float(kappa[k + i]))
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
    bits of one pi_map and C @ x each, and refine both extrema.

    The plant of a BilinearSystem is frozen, so the first call keeps its
    result on sys and every later call on that instance returns the same
    object without solving again.  A sweep that raises keeps nothing.
    """
    if sys._reachable is not None:
        return sys._reachable
    u_grid = np.linspace(sys.u_min, sys.u_max, _REACH_GRID)
    y_grid = _rowdot(sys.C, _equilibria(sys, u_grid))[:, 0]
    u_at_max, r_max = _refine_peak(
        lambda u: equilibrium_at(sys, u).y_ss, u_grid, y_grid, _GOLDEN_TOL)
    u_at_min, neg_min = _refine_peak(
        lambda u: -equilibrium_at(sys, u).y_ss, u_grid, -y_grid, _GOLDEN_TOL)
    u_grid.setflags(write=False)
    y_grid.setflags(write=False)
    rs = ReachableSet(
        r_min=-neg_min, r_max=r_max, u_at_min=u_at_min, u_at_max=u_at_max,
        u_grid=u_grid, y_grid=y_grid,
    )
    object.__setattr__(sys, "_reachable", rs)
    return rs


def invert_reference(
    sys: BilinearSystem, r: float, rs: ReachableSet | None = None
) -> Equilibrium:
    """Find the smallest admissible u_ss with C pi(u_ss) = r.

    The sweep of the reachable set rs (by default the one reachable_set
    keeps on sys, so repeated inversions on one plant sweep it once) is
    scanned in order of u for the first crossing: a grid point
    within tolerance of r, or a sign change, bisected (bounded iteration
    count).  Where there is none, an extremum may touch r between grid
    points: the closest grid point is refined by _refine_peak.
    """
    r = float(r)
    if rs is None:
        rs = reachable_set(sys)
    rs.require(r)

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
