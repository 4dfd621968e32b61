"""Saturated single-input bilinear systems and the heat-exchanger instance.

The plant family is

    dx/dt = A x + (B x + b) sat(u) + E,      e = C x - r,      y = D x,

with a scalar input clamped to [u_min, u_max].  ``build_hex`` assembles the
counter-current heat-exchanger discretization: two streams of ``n_cells``
well-mixed compartments exchanging heat through a shared wall, with the
manipulated flow convecting the first stream and a fixed flow ``q_bar``
convecting the second (overlined) stream in the opposite direction.  The
state stacks the first-stream temperatures T_1..T_n followed by the
second-stream temperatures Tbar_1..Tbar_n, so ``n_states = 2 * n_cells``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import as_array, as_float
from .serde import dump_json, read_object, require_fields

__all__ = [
    "BilinearSystem",
    "HexParams",
    "saturate",
    "dynamics",
    "build_hex",
    "stream_shift_matrix",
    "block_average_sensors",
    "system_to_dict",
    "system_from_dict",
    "load_system",
    "save_system",
]

# JSON field names for HexParams, in canonical order.  "lambda" is a Python
# keyword, so the dataclass attribute is ``lam``.
_HEX_FIELDS = (
    "n_cells",
    "lambda",
    "rho",
    "cp",
    "V_hot",
    "V_cold",
    "q_bar",
    "T_in_hot",
    "T_in_cold",
    "u_min",
    "u_max",
)


@dataclass
class HexParams:
    """Physical data sheet for the heat-exchanger model.

    The _hot/_cold suffixes follow the rig's data sheet labels.  On the
    reference rig the "hot"-labelled inlet is actually the colder value
    (286 K against 307 K); the model does not care, it only distinguishes
    the manipulated stream (suffix _hot, flow u) from the fixed-flow stream
    (suffix _cold, flow q_bar).
    """

    n_cells: int
    lam: float  # wall heat-transfer coefficient per compartment, J/K/s
    rho: float  # density, kg/m^3
    cp: float  # specific heat, J/kg/K
    V_hot: float  # compartment volume of the manipulated stream, m^3
    V_cold: float  # compartment volume of the fixed-flow stream, m^3
    q_bar: float  # fixed mass flow of the second stream, kg/s
    T_in_hot: float  # inlet temperature of the manipulated stream, K
    T_in_cold: float  # inlet temperature of the fixed-flow stream, K
    u_min: float  # lower input bound, kg/s
    u_max: float  # upper input bound, kg/s

    def __post_init__(self) -> None:
        """Check every field under its JSON name; values keep their type,
        so a parameter file round-trips byte for byte."""
        n_cells = as_float("n_cells", self.n_cells)
        if int(n_cells) != n_cells or n_cells < 1:
            raise ValueError(f"n_cells must be a positive integer, got {self.n_cells!r}")
        self.n_cells = int(n_cells)
        for key in ("lambda", "rho", "cp", "V_hot", "V_cold", "q_bar", "T_in_hot", "T_in_cold"):
            value = as_float(key, getattr(self, "lam" if key == "lambda" else key))
            if value <= 0.0:
                raise ValueError(f"{key} must be strictly positive, got {value!r}")
        if as_float("u_min", self.u_min) < 0.0:
            raise ValueError(f"u_min must be >= 0, got {self.u_min!r}")
        # u_min < u_max is BilinearSystem's rule, checked when the plant is built
        as_float("u_max", self.u_max)

    @classmethod
    def from_dict(cls, data: dict) -> "HexParams":
        require_fields(data, "HexParams", _HEX_FIELDS)
        return cls(**{("lam" if k == "lambda" else k): v for k, v in data.items()})

    def to_dict(self) -> dict:
        out = {}
        for key in _HEX_FIELDS:
            attr = "lam" if key == "lambda" else key
            out[key] = getattr(self, attr)
        return out

    @classmethod
    def from_json(cls, path: str) -> "HexParams":
        return cls.from_dict(read_object(path))


@dataclass(frozen=True)
class BilinearSystem:
    """One saturated single-input bilinear plant.

    A, B are (n, n); b, E are (n,); C is the regulated-output row (n,);
    D is the measured-output matrix (p, n).  Arrays are stored float64,
    C-contiguous and read-only, and the instance is frozen, so what is
    derived from the plant alone can be kept on it: steady_state.reachable_set
    stores its result in ``_reachable`` and design.pi_shift_sup in
    ``_pi_bar`` on first use.  dataclasses.replace builds a new instance,
    which starts without either.
    """

    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    E: np.ndarray
    C: np.ndarray
    D: np.ndarray
    u_min: float
    u_max: float
    _reachable: object = field(default=None, init=False, repr=False, compare=False)
    _pi_bar: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, ndim in (("A", 2), ("B", 2), ("b", 1), ("E", 1), ("C", 1), ("D", 2)):
            object.__setattr__(self, name, _own(name, getattr(self, name), ndim))
        n = self.A.shape[0]
        if self.A.shape != (n, n) or self.B.shape != (n, n):
            raise ValueError(f"A and B must be square ({n}, {n})")
        for name in ("b", "E", "C"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        if self.D.shape[1] != n or self.D.shape[0] < 1:
            raise ValueError(f"D must have shape (p, {n}) with p >= 1")
        u_min, u_max = as_float("u_min", self.u_min), as_float("u_max", self.u_max)
        if u_min >= u_max:
            raise ValueError(f"u_min < u_max required, got [{u_min}, {u_max}]")
        if not math.isfinite(u_max - u_min):
            # every grid over the interval would overflow to NaN
            raise ValueError(f"u_max - u_min must be finite, got [{u_min}, {u_max}]")
        # |B| u and |b| u, entry by entry, must be finite; B and b are, so
        # only an input above 1 in magnitude can overflow them
        scale = max(abs(u_min), abs(u_max))
        if scale > 1.0 and not math.isfinite(
                scale * float(max(np.abs(self.B).max(), np.abs(self.b).max()))):
            raise ValueError(f"B u and b u overflow for u in [{u_min}, {u_max}]")
        object.__setattr__(self, "u_min", u_min)
        object.__setattr__(self, "u_max", u_max)

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.D.shape[0]

    def frozen(self, u: float) -> np.ndarray:
        """Frozen-input state matrix F_u = A + B u (saturated input value)."""
        return self.A + self.B * float(u)

    def input_gain(self, x: np.ndarray) -> np.ndarray:
        """Input direction g = B x + b, the vector sat(u) multiplies at x."""
        return self.B @ x + self.b


def _own(name: str, arr, ndim: int) -> np.ndarray:
    """A read-only C-contiguous float64 copy; as_array checks the entries."""
    out = as_array(name, arr, ndim)
    out.setflags(write=False)
    return out


def saturate(u, sys: BilinearSystem):
    """Clamp the commanded input to the actuator range of ``sys``.

    Accepts scalars or arrays; idempotent by construction.
    """
    return np.clip(u, sys.u_min, sys.u_max)


def dynamics(sys: BilinearSystem, x: np.ndarray, u_raw: float) -> np.ndarray:
    """State derivative with the saturation applied inside.

    dx/dt = A x + (B x + b) sat(u_raw) + E.  Affine in sat(u) for fixed x.
    """
    x = np.asarray(x, dtype=np.float64)
    us = float(np.clip(u_raw, sys.u_min, sys.u_max))
    return sys.A @ x + (sys.B @ x + sys.b) * us + sys.E


def stream_shift_matrix(n: int) -> np.ndarray:
    """Lower-bidiagonal convection stencil S: -1 on the diagonal, +1 on the
    subdiagonal.  Row i of S x is x_{i-1} - x_i (inflow handled separately)."""
    S = -np.eye(n)
    idx = np.arange(n - 1)
    S[idx + 1, idx] = 1.0
    return S


def block_average_sensors(n_states: int, n_sensors: int) -> np.ndarray:
    """Sensor matrix averaging contiguous blocks of the stacked profile.

    Splits the ``n_states`` cells into ``n_sensors`` contiguous groups whose
    sizes differ by at most one, larger groups last.  For (16, 5) the groups
    are cells 1-3, 4-6, 7-9, 10-12 and 13-16 (1-based).
    """
    if not 1 <= n_sensors <= n_states:
        raise ValueError(f"need 1 <= n_sensors <= {n_states}, got {n_sensors}")
    base, rem = divmod(n_states, n_sensors)
    sizes = [base] * (n_sensors - rem) + [base + 1] * rem
    D = np.zeros((n_sensors, n_states))
    start = 0
    for row, size in enumerate(sizes):
        D[row, start : start + size] = 1.0 / size
        start += size
    return D


def build_hex(p: HexParams) -> BilinearSystem:
    """Assemble the 2*n_cells-state heat-exchanger bilinear system.

    Per-compartment balance equations, first (manipulated) stream flowing
    cell 1 -> n and second stream flowing cell n -> 1:

        dT_1/dt    = lam/(rho V cp) (Tbar_1 - T_1)   + u/(rho V) (T_in - T_1)
        dT_i/dt    = lam/(rho V cp) (Tbar_i - T_i)   + u/(rho V) (T_{i-1} - T_i)
        dTbar_i/dt = -lam/(rho Vb cp) (Tbar_i - T_i) + qb/(rho Vb) (Tbar_{i+1} - Tbar_i)
        dTbar_n/dt = -lam/(rho Vb cp) (Tbar_n - T_n) + qb/(rho Vb) (Tbar_in - Tbar_n)

    The input-dependent convection of the first stream lands in B (scaled by
    sat(u)), the fixed-flow convection of the second stream lands in A, and
    the inlet terms produce b (times sat(u)) and E.  The regulated output C
    selects Tbar_1, the outlet of the fixed-flow stream; D defaults to the
    same single row.
    """
    n = p.n_cells
    a_hot = p.lam / (p.rho * p.V_hot * p.cp)  # exchange rate, manipulated stream
    a_cold = p.lam / (p.rho * p.V_cold * p.cp)  # exchange rate, fixed-flow stream
    S = stream_shift_matrix(n)
    In = np.eye(n)

    A = np.zeros((2 * n, 2 * n))
    A[:n, :n] = -a_hot * In
    A[:n, n:] = a_hot * In
    A[n:, :n] = a_cold * In
    A[n:, n:] = -a_cold * In + (p.q_bar / (p.rho * p.V_cold)) * S.T

    B = np.zeros((2 * n, 2 * n))
    B[:n, :n] = S / (p.rho * p.V_hot)

    b = np.zeros(2 * n)
    b[0] = p.T_in_hot / (p.rho * p.V_hot)

    E = np.zeros(2 * n)
    E[2 * n - 1] = p.q_bar * p.T_in_cold / (p.rho * p.V_cold)

    C = np.zeros(2 * n)
    C[n] = 1.0  # Tbar_1, outlet of the fixed-flow stream

    return BilinearSystem(
        A=A, B=B, b=b, E=E, C=C, D=C[None, :].copy(),
        u_min=p.u_min, u_max=p.u_max,
    )


def system_to_dict(sys: BilinearSystem, hex_params: HexParams | None = None) -> dict:
    out = {
        "n_states": sys.n_states,
        "A": sys.A.tolist(),
        "B": sys.B.tolist(),
        "b": sys.b.tolist(),
        "E": sys.E.tolist(),
        "C": sys.C.tolist(),
        "D": sys.D.tolist(),
        "u_min": sys.u_min,
        "u_max": sys.u_max,
    }
    if hex_params is not None:
        out["hex_params"] = hex_params.to_dict()
    return out


def system_from_dict(data: dict) -> tuple[BilinearSystem, HexParams | None]:
    required = ("n_states", "A", "B", "b", "E", "C", "D", "u_min", "u_max")
    require_fields(data, "system", required, ("hex_params",))
    sys = BilinearSystem(**{k: data[k] for k in required[1:]})
    if sys.n_states != data["n_states"]:
        raise ValueError(
            f"n_states field ({data['n_states']}) disagrees with A ({sys.n_states})"
        )
    params = None
    if data.get("hex_params") is not None:
        params = HexParams.from_dict(data["hex_params"])
        # design builds P from the block, so it must describe this plant
        built = build_hex(params)
        for name in ("A", "B", "b", "E", "C", "u_min", "u_max"):
            if not np.array_equal(getattr(built, name), getattr(sys, name)):
                raise ValueError(f"hex_params build a plant whose {name} differs from the system's")
    return sys, params


def load_system(path: str) -> tuple[BilinearSystem, HexParams | None]:
    return system_from_dict(read_object(path))


def save_system(path: str, sys: BilinearSystem, hex_params: HexParams | None = None) -> None:
    dump_json(path, system_to_dict(sys, hex_params))
