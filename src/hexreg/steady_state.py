"""Equilibrium map, reachable output set, and reference inversion.

For a frozen admissible input u the equilibrium is

    pi(u) = -(A + B u)^{-1} (b u + E),

the steady output is C pi(u), and the reachable reference set is the range
of C pi over [u_min, u_max].  _equilibria solves for pi on stacks of inputs
(pi_map is one input).  The poles of pi, the stationary points of C pi and
of |dpi/du|, and the inputs that meet a reference are the real roots in
range of four affine matrix pencils (_pencil_roots); no grid is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# a member's own |F|_F |F^-1|_F at or below this clears it without an SVD;
# 100x below the cut, it absorbs the rounding of the computed inverse
_COND_CLEAR = 1e12
_STACK_BLOCK = 64  # matrices per stacked screen and solve; bounds the (block, n, n) temporaries
_ROOT_TOL = 1e-9  # a pencil root is real, and in range, to this fraction of the range
_SHIFTS = (0.5, 0.3819660112501051)  # where _pencil_roots shifts, as fractions of the range


def _rowwise(Mat, v):
    """Mat @ v[i] for every row i of v, one BLAS call per row.

    A single (k, n) @ (n, m) product would let BLAS block across rows and
    make each row's bits depend on k; the stacked matmul makes the same
    gemv call that Mat @ v[i] does.
    """
    return np.matmul(Mat, v[:, :, None])[..., 0]


def _rowdot(a, b):
    """np.dot(a[i], b[i]) for every row i as a (k, 1) column, bit-identical
    to the 1-D call; a may also be one row shared by all."""
    return np.matmul(a[..., None, :], b[:, :, None])[..., 0]


@dataclass
class Equilibrium:
    """A steady input together with its state and regulated output."""

    u_ss: float
    x_ss: np.ndarray
    y_ss: float


@dataclass(frozen=True)
class ReachableSet:
    """Range of the steady regulated output over the input interval, and the
    inputs that attain its ends; frozen, as the callers on one system share it."""

    r_min: float
    r_max: float
    u_at_min: float
    u_at_max: float

    def require(self, r: float) -> None:
        """Raise ReferenceUnreachableError unless r lies in [r_min, r_max]
        widened by 1e-9 (1 + |r|), the rounding of the extrema."""
        tol = 1e-9 * (1.0 + abs(r))
        if not (self.r_min - tol) <= r <= (self.r_max + tol):
            raise ReferenceUnreachableError(r, self.r_min, self.r_max)


def _frobenius(X: np.ndarray) -> np.ndarray:
    """|X|_F of each matrix of X, over its last two axes; inf where that
    overflows."""
    return np.sqrt(np.einsum("...ij,...ij->...", X, X))


def screen_singular(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which matrices of a stack F, (k, n, n), are numerically singular:
    (singular, kappa), one entry per matrix.

    Each matrix gets the per-matrix test: its own inverse, the bound
    |F|_F |F^-1|_F, and np.linalg.cond where that bound is above 1e12 or
    not finite, or where the inverse raises.  A matrix is singular when its
    cond_2 is not finite or above 1e14, so the verdict is that of
    np.linalg.cond; kappa is the bound on the matrices it clears and the
    exact condition number on the rest.
    """
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(F)
        except np.linalg.LinAlgError:
            kappa = np.full(len(F), np.inf)
        else:
            kappa = _frobenius(F) * _frobenius(inv)
        hard = ~(kappa <= _COND_CLEAR)
        if hard.any():
            kappa[hard] = np.linalg.cond(F[hard])
    return ~(kappa <= _COND_LIMIT), kappa


def _equilibria(sys: BilinearSystem, us: np.ndarray) -> np.ndarray:
    """pi(u) for each input of us, one row each, in stacks of 64 F_u.

    Each stack F_u = A + u B is formed once and tested by screen_singular.
    Then per input: one solve, one refinement and a check of the residual
    F x + b u + E.  Stacked solves and _rowwise keep the bits of
    pi_map at each input, and the first input that fails raises what
    pi_map raises there.
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


def _shift_invert(M0, M1, s) -> np.ndarray:
    """s - 1/mu for the eigenvalues mu of (M0 + s M1)^-1 M1, a row per member
    of a stack M0.  Raises LinAlgError where M0 + s M1 is singular."""
    mu = np.linalg.eigvals(np.linalg.solve(M0 + s * M1, M1))
    with np.errstate(all="ignore"):
        return s - 1.0 / mu


def _real_in_range(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Where u is real and in [lo, hi], each to 1e-9 (hi - lo)."""
    tol = _ROOT_TOL * (hi - lo)
    return (np.abs(u.imag) <= tol) & (u.real >= lo - tol) & (u.real <= hi + tol)


def _in_range(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The u of _real_in_range, clipped to [lo, hi], ascending."""
    return np.sort(np.clip(u.real[_real_in_range(u, lo, hi)], lo, hi))


def _pencil_eigenvalues(M0: np.ndarray, M1: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The finite u, complex, at which M0 + u M1 is singular.

    Shift-invert about the middle s of [lo, hi]: the roots are
    u = s - 1/mu for the eigenvalues mu of (M0 + s M1)^-1 M1.  Where the
    solve at s raises, s is a root, and a second shift finds the others;
    it finds s again, rounded, so its nearest eigenvalue to s is dropped.
    """
    exact = []
    for s in lo + np.multiply(_SHIFTS, hi - lo):
        try:
            u = _shift_invert(M0, M1, s)
        except np.linalg.LinAlgError:
            exact.append(s)
            continue
        for root in exact:
            u = np.delete(u, np.argmin(np.abs(u - root)))
        return np.append(exact, u)
    return np.array(exact, dtype=complex)


def _pencil_roots(M0: np.ndarray, M1: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The real u in [lo, hi] at which M0 + u M1 is singular, ascending: the
    roots of _pencil_eigenvalues that are real, and in range, to within
    1e-9 (hi - lo), clipped to the range."""
    return _in_range(_pencil_eigenvalues(M0, M1, lo, hi), lo, hi)


def _stacked_pencil_roots(M0: np.ndarray, M1: np.ndarray, lo: float,
                          hi: float) -> tuple[np.ndarray, np.ndarray]:
    """_pencil_roots of each member of the stack M0 + u M1, as (member,
    root) pairs in order of member: one stacked solve and eigvals at the
    first shift, which make the LAPACK calls of single ones, so each root
    keeps its bits.  When a member is singular there, the members are taken
    one by one by _pencil_roots, which shifts again."""
    try:
        u = _shift_invert(M0, M1, lo + np.multiply(_SHIFTS[0], hi - lo))
    except np.linalg.LinAlgError:
        roots = [_pencil_roots(M, M1, lo, hi) for M in M0]
        return np.repeat(np.arange(len(M0)), [len(r) for r in roots]), np.concatenate(roots)
    keep = _real_in_range(u, lo, hi)
    return np.nonzero(keep)[0], np.clip(u.real[keep], lo, hi)


def _refuse_poles(sys: BilinearSystem) -> None:
    """Raise SingularMatrixError at the lowest root in [u_min, u_max] of the
    pencil (A, B), an input where A + B u is singular."""
    lo, hi = sys.u_min, sys.u_max
    poles = _pencil_roots(sys.A, sys.B, lo, hi)
    if poles.size:
        raise SingularMatrixError(f"A + B u is singular at u = {float(poles[0])!r}, "
                                  f"inside [{lo!r}, {hi!r}]", cond=np.inf)


def _stationary_points(sys: BilinearSystem) -> np.ndarray:
    """The inputs in range where dy_ss/du vanishes (see reachable_set)."""
    n = sys.n_states
    Z, z = np.zeros((n, n)), np.zeros((n, 1))
    M0 = np.block([[sys.A, Z, sys.E[:, None]], [-sys.B, sys.A, -sys.b[:, None]],
                   [z.T, sys.C[None], np.zeros((1, 1))]])
    M1 = np.block([[sys.B, Z, sys.b[:, None]], [Z, sys.B, z], [np.zeros((1, 2 * n + 1))]])
    return _pencil_roots(M0, M1, sys.u_min, sys.u_max)


def _slope_stationary_points(sys: BilinearSystem) -> np.ndarray:
    """The inputs in range where d|pi'|^2/du = -4 q(u) vanishes, with
    pi' = dpi/du and q = pi'^T F_u^-1 B pi', since pi'' = -2 F_u^-1 B pi'.

    They are the roots of the (5n + 1) pencil on (pi, a, w, xi, eta, t)
    with block rows F_u pi + (b u + E) t, B pi + F_u a + b t,
    -B a + F_u w, -w + F_u^T xi, -B^T xi + F_u^T eta and
    (b u + E)^T eta - b^T xi.  At t = 1, a = pi', w = F_u^-1 B pi' and the
    last row is a^T w = q, so the determinant is +-det(F_u)^5 q(u).
    """
    n = sys.n_states
    A, B, I, Z = sys.A, sys.B, np.eye(n), np.zeros((n, n))
    b, E, z = sys.b[:, None], sys.E[:, None], np.zeros((n, 1))
    M0 = np.block([[A, Z, Z, Z, Z, E], [B, A, Z, Z, Z, b], [Z, -B, A, Z, Z, z],
                   [Z, Z, -I, A.T, Z, z], [Z, Z, Z, -B.T, A.T, z],
                   [z.T, z.T, z.T, -b.T, E.T, np.zeros((1, 1))]])
    M1 = np.block([[B, Z, Z, Z, Z, b], [Z, B, Z, Z, Z, z], [Z, Z, B, Z, Z, z],
                   [Z, Z, Z, B.T, Z, z], [Z, Z, Z, Z, B.T, z],
                   [z.T, z.T, z.T, z.T, b.T, np.zeros((1, 1))]])
    return _pencil_roots(M0, M1, sys.u_min, sys.u_max)


def reachable_set(sys: BilinearSystem) -> ReachableSet:
    """The range of y_ss(u) = C pi(u) over [u_min, u_max].

    A root of the pencil (A, B) in range, where A + B u is singular, breaks
    Assumption 1: SingularMatrixError names it.  Otherwise y_ss takes its
    extrema at u_min, u_max or a zero of dy_ss/du = -C F_u^-1 g_u.  With
    w = F_u^-1 g_u those are the roots of the (2n + 1) pencil

        [[A, 0, E], [-B, A, -b], [0, C, 0]] + u [[B, 0, b], [0, B, 0], [0, 0, 0]]

    on (pi(u), w, 1).  pi is solved at those inputs in one stacked call, and
    the smallest u wins a tie.  The first call keeps its result on the
    frozen sys, and later calls return that object; a call that raises
    keeps nothing.
    """
    if sys._reachable is not None:
        return sys._reachable
    _refuse_poles(sys)
    us = np.concatenate(([sys.u_min], _stationary_points(sys), [sys.u_max]))
    ys = _rowdot(sys.C, _equilibria(sys, us))[:, 0]
    i, j = int(np.argmin(ys)), int(np.argmax(ys))
    rs = ReachableSet(r_min=float(ys[i]), r_max=float(ys[j]),
                      u_at_min=float(us[i]), u_at_max=float(us[j]))
    object.__setattr__(sys, "_reachable", rs)
    return rs


def invert_reference(sys: BilinearSystem, r: float) -> Equilibrium:
    """The smallest admissible u_ss with C pi(u_ss) = r, to 1e-8 (1 + |r|).

    C pi(u) = r where ([[A, E], [C, -r]] + u [[B, b], [0, 0]]) (pi(u), 1)
    = 0: at the roots of that (n + 1) pencil.  pi is solved at the roots in
    one stacked call, and the first that meets the tolerance is taken.  An
    r that ReachableSet.require admits beyond an interior extremum has no
    real root, so the extrema's inputs are tried last.  An r equal to r_min
    or r_max is met at u_at_min or u_at_max, which is returned as it is: a
    tangency is a double root of the pencil, known only to about sqrt(eps).
    """
    r = float(r)
    rs = reachable_set(sys)
    rs.require(r)
    if r in (rs.r_min, rs.r_max):
        return equilibrium_at(sys, rs.u_at_min if r == rs.r_min else rs.u_at_max)
    M0 = np.block([[sys.A, sys.E[:, None]], [sys.C[None], np.full((1, 1), -r)]])
    M1 = np.block([[sys.B, sys.b[:, None]], [np.zeros((1, sys.n_states + 1))]])
    us = np.append(_pencil_roots(M0, M1, sys.u_min, sys.u_max), (rs.u_at_min, rs.u_at_max))
    X = _equilibria(sys, us)
    gap = np.abs(_rowdot(sys.C, X)[:, 0] - r)
    met = np.flatnonzero(gap <= 1e-8 * (1.0 + abs(r)))
    if not met.size:
        raise ReferenceUnreachableError(r, rs.r_min, rs.r_max)
    i = met[0]
    return Equilibrium(u_ss=float(us[i]), x_ss=X[i], y_ss=float(sys.C @ X[i]))
