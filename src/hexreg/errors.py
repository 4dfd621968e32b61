"""Exception types shared across the package, and the finiteness check
that the scenario and artifact loaders share."""

import numpy as np


def require_finite(name: str, value) -> None:
    """Raise ValueError("<name> must be finite") unless every entry is."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")


class HexRegError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrixError(HexRegError):
    """A frozen-input system matrix is singular or numerically unusable.

    Raised when a linear solve against A + B*u (or a shifted variant) hits a
    condition-number estimate above 1e14 or leaves a large residual.
    """

    def __init__(self, message: str, cond: float | None = None):
        super().__init__(message)
        self.cond = cond


class NotHurwitzError(HexRegError):
    """A matrix required to be Hurwitz has an eigenvalue with Re >= 0."""


class ZeroDCGainError(HexRegError):
    """The frozen-input DC path C (A+Bu)^-1 g vanishes, so no integral
    action can move the regulated output."""


class NotObservableError(HexRegError):
    """The (A, D) pair fails the observability rank test."""


class InfeasibleError(HexRegError):
    """The observer LMI solver exhausted its budget without a certificate."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


class ReferenceUnreachableError(HexRegError):
    """A requested reference lies outside the steady-state reachable set."""

    def __init__(self, r: float, r_min: float, r_max: float):
        super().__init__(
            f"reference {r!r} outside reachable set [{r_min!r}, {r_max!r}]"
        )
        self.r = r
        self.r_min = r_min
        self.r_max = r_max


class MissingObserverStateError(HexRegError):
    """An output-feedback evaluation was attempted without an estimate."""


class SchedulesDifferError(HexRegError):
    """Two scenarios meant to be compared do not share system/schedule/x0."""


class NonFiniteError(HexRegError):
    """A simulated state became NaN or infinite."""

    def __init__(self, step: int, t: float):
        super().__init__(f"non-finite state at step {step} (t = {t:.6g} s)")
        self.step = step
        self.t = t


class GainAboveBoundWarning(UserWarning):
    """Integral gain at or above the certified bound; convergence is no
    longer covered by the small-gain argument."""
