"""Exception types shared across the package, and the type and finiteness
checks that the parameter, system, artifact and scenario loaders share."""

import copyreg
import math
from numbers import Real

import numpy as np


def require_finite(name: str, value) -> None:
    """Raise ValueError("<name> must be finite") unless every entry is."""
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite")


def as_float(name: str, value) -> float:
    """value as a finite float, or ValueError naming the field.

    Only real numbers pass: null, booleans, strings, arrays and objects
    where a JSON number belongs are malformed input, not program errors.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a number, got {value!r:.40}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the double range
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(f"{name} must be finite")
    return out


def as_array(name: str, value, ndim: int) -> np.ndarray:
    """value as a new C-ordered finite float64 array of ndim dimensions, or
    ValueError naming the field; entries must be numbers, as in as_float."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or arr.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-d array of numbers, got {value!r:.40}")
    arr = np.array(arr, dtype=np.float64, order="C")
    require_finite(name, arr)
    return arr


class HexRegError(Exception):
    """Base class for all package-specific errors.

    A subclass that is also a ValueError is an input the caller can fix
    (the CLI exits 2 on it); CompiledLoopError is a process that cannot
    simulate (exit 4); any other is a numerical failure (exit 3).

    Every subclass pickles: it is rebuilt from its args and attributes
    without calling __init__, whose parameters differ from args in the
    subclasses that format their message, so an error raised in another
    process arrives with its type, message and attributes.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


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
    """A certificate inequality has no strict solution (no observer gain, or
    a P without uniform decay); best_residual is its largest eigenvalue."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


class ReferenceUnreachableError(HexRegError, ValueError):
    """A requested reference lies outside the steady-state reachable set."""

    def __init__(self, r: float, r_min: float, r_max: float):
        super().__init__(
            f"reference {r!r} outside reachable set [{r_min!r}, {r_max!r}]"
        )
        self.r = r
        self.r_min = r_min
        self.r_max = r_max


class MissingObserverStateError(HexRegError, ValueError):
    """An output-feedback evaluation was attempted without an estimate."""


class SchedulesDifferError(HexRegError, ValueError):
    """Scenarios meant to be compared or batched do not share
    system/schedule/x0, or a compare_pi baseline does not run the pi law."""


class NonFiniteError(HexRegError):
    """A simulated state became NaN or infinite.

    step and t locate the first non-finite state and column names its first
    non-finite entry (x_i, xhat_i or z).  row is the scenario's index in a
    run_many batch (None for a single run), and u_sat the last finite
    saturated input before that step (None if there was none).
    """

    def __init__(self, step: int, t: float, column: str, row: int | None = None,
                 u_sat: float | None = None):
        where = "" if row is None else f" in scenario {row}"
        last = "none" if u_sat is None else f"{u_sat:.6g}"
        super().__init__(f"non-finite state at step {step} (t = {t:.6g} s){where}: "
                         f"{column} first, last finite u_sat = {last}")
        self.step = step
        self.t = t
        self.column = column
        self.row = row
        self.u_sat = u_sat


class CompiledLoopError(HexRegError):
    """This process cannot build or load the compiled step loop, which
    every simulation runs on; reason names the cause."""

    def __init__(self, reason: str):
        super().__init__(f"this process cannot build or load the compiled step loop: {reason}")
        self.reason = reason


class GainAboveBoundWarning(UserWarning):
    """Integral gain at or above the certified bound; convergence is no
    longer covered by the small-gain argument."""
