"""Equilibrium map, reference inversion, and the reachable set."""

import functools
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hexreg
from hexreg import model, steady_state

from conftest import KELVIN, TABLE1, plant_rhs


def test_pi_map_is_equilibrium(hexsys):
    for u in (0.0, 0.013, 0.02, 0.05):
        x = hexreg.pi_map(hexsys, u)
        assert np.max(np.abs(plant_rhs(hexsys, x, u))) <= 1e-9


def test_pi_map_zero_flow(hexsys, table1):
    """With the hot stream shut off there is no heat sink: the cold stream
    drags the whole field to its inlet temperature and the achievable
    output range tops out exactly there."""
    x = hexreg.pi_map(hexsys, 0.0)
    # no hot convection: each hot cell sits exactly at its cold partner
    assert np.allclose(x[:8], x[8:], atol=1e-9)
    assert np.allclose(x, table1.T_in_cold, atol=1e-9)
    assert float(hexsys.C @ x) == pytest.approx(table1.T_in_cold, abs=1e-9)


def test_pi_map_homogeneous_system():
    sys = hexreg.BilinearSystem(
        A=np.array([[-1.0, 0.0], [0.0, -2.0]]),
        B=np.zeros((2, 2)),
        b=np.zeros(2),
        E=np.zeros(2),
        C=np.array([1.0, 0.0]),
        D=np.array([[1.0, 0.0]]),
        u_min=-1.0,
        u_max=1.0,
    )
    assert np.array_equal(hexreg.pi_map(sys, 0.3), np.zeros(2))


def test_pi_map_symmetric_volumes():
    """With V = Vbar and u = q_bar the two streams are mirror images:
    T_i + Tbar_{n+1-i} is the same constant in every compartment pair."""
    p = hexreg.HexParams(**{**TABLE1, "V_hot": 7.07e-04})
    sys = hexreg.build_hex(p)
    x = hexreg.pi_map(sys, p.q_bar)
    n = p.n_cells
    sums = x[:n] + x[n:][::-1]
    assert np.max(np.abs(sums - sums[0])) <= 1e-9


def test_pi_map_open_loop_convergence(hexsys, io_art):
    """Long constant-input integration lands on the algebraic equilibrium.

    A PI law with both gains zero holds u at the artifact anchor, which
    turns the closed-loop integrator into an open-loop run.
    """
    from conftest import make_scenario

    u = io_art.u_ss
    target = hexreg.pi_map(hexsys, u)
    x0 = target + 5.0
    scn = make_scenario(hexsys, io_art, hexreg.PI, 10000.0, 0.5,
                        [[0.0, float(hexsys.C @ target)]], x0=x0,
                        kp_pi=0.0, ki_pi=0.0)
    res = hexreg.run(scn)
    assert np.all(res.u_raw == u)
    assert np.max(np.abs(res.x[-1] - target)) <= 1e-6


def test_equilibrium_at_fields(hexsys, eq02):
    assert eq02.u_ss == 0.02
    assert eq02.y_ss == pytest.approx(float(hexsys.C @ eq02.x_ss))
    assert np.array_equal(eq02.x_ss, hexreg.pi_map(hexsys, 0.02))


def test_reachable_set_bounds(hexsys, table1):
    reach = hexreg.reachable_set(hexsys)
    assert reach.r_min < reach.r_max
    assert table1.T_in_hot < reach.r_min
    # at u = 0 no heat leaves through the manipulated stream, so the cold
    # outlet equals the cold inlet exactly; r_max closes the interval
    assert reach.r_max == table1.T_in_cold
    # more hot flow pulls the cold outlet down, so the max sits at u_min
    assert reach.u_at_max == hexsys.u_min
    assert reach.u_at_min == hexsys.u_max


def test_reachable_set_linear_system_affine():
    sys = hexreg.BilinearSystem(
        A=np.array([[-2.0]]),
        B=np.zeros((1, 1)),
        b=np.array([1.0]),
        E=np.array([0.5]),
        C=np.array([1.0]),
        D=np.array([[1.0]]),
        u_min=0.0,
        u_max=1.0,
    )
    # Cpi(u) = (u + 0.5)/2: affine, extremes at the interval ends
    reach = hexreg.reachable_set(sys)
    assert reach.r_min == pytest.approx(0.25)
    assert reach.r_max == pytest.approx(0.75)
    assert (reach.u_at_min, reach.u_at_max) == (0.0, 1.0)


def test_reachable_set_degenerate_interval(hexsys):
    sys = hexreg.BilinearSystem(
        A=hexsys.A, B=hexsys.B, b=hexsys.b, E=hexsys.E, C=hexsys.C,
        D=hexsys.D, u_min=0.02, u_max=0.02 + 1e-15,
    )
    reach = hexreg.reachable_set(sys)
    assert reach.r_min == pytest.approx(reach.r_max, abs=1e-9)


def test_reachable_set_matches_per_point_sweep(hexsys):
    """On the exchanger C pi has no stationary point in range, so the
    extrema are the ends of a per-point sweep of pi_map and C @ x over 256
    inputs, bit for bit, and the values the 256-point sweep and its
    golden sections gave."""
    u_grid = np.linspace(hexsys.u_min, hexsys.u_max, 256)
    y_grid = np.array([float(hexsys.C @ hexreg.pi_map(hexsys, u)) for u in u_grid])
    reach = hexreg.reachable_set(hexsys)
    i, j = int(np.argmin(y_grid)), int(np.argmax(y_grid))
    got = [reach.u_at_min, reach.r_min, reach.u_at_max, reach.r_max]
    want = [u_grid[i], y_grid[i], u_grid[j], y_grid[j]]
    assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))
    assert [float.hex(v) for v in got] == [
        "0x1.999999999999ap-5", "0x1.20e6352ea43fcp+8", "0x0.0p+0", "0x1.3300000000000p+8"]


def test_reachable_set_refuses_singular_grid_input():
    """F_u = diag(u - u_127, -1) is singular at u_127, the 128th of 256
    inputs spread over [0, 1]: reachable_set names that pole of (A, B), and
    pi_map at u_127 raises its own singular-matrix error."""
    u_127 = float(np.linspace(0.0, 1.0, 256)[127])
    sys = hexreg.BilinearSystem(
        A=np.diag([-u_127, -1.0]), B=np.diag([1.0, 0.0]), b=np.array([1.0, 0.0]),
        E=np.array([0.0, 1.0]), C=np.array([1.0, 1.0]), D=np.eye(2),
        u_min=0.0, u_max=1.0,
    )
    with pytest.raises(hexreg.SingularMatrixError) as err:
        hexreg.reachable_set(sys)
    assert abs(_named_pole(err.value) - u_127) <= 1e-12 and err.value.cond == np.inf
    message = "A \\+ B u numerically singular at u = 0.4980392156862745$"
    with pytest.raises(hexreg.SingularMatrixError, match=message) as err:
        hexreg.pi_map(sys, u_127)
    assert err.value.cond == np.inf


def _named_pole(err) -> float:
    """The u that a pole-naming SingularMatrixError names."""
    match = re.fullmatch(r"A \+ B u is singular at u = (\S+), inside \[0\.0, 1\.0\]", str(err))
    assert match, str(err)
    return float(match.group(1))


def _pole_system(c: float = 0.701) -> hexreg.BilinearSystem:
    """C pi(u) = (0.2 - u) / (u - c): a root at u = 0.2 and a pole at c, on
    [0, 1].  With c = 0.701 no input of a 256-point grid over [0, 1] meets
    the pole."""
    return hexreg.BilinearSystem(
        A=np.diag([-c, -1.0]), B=np.diag([1.0, 0.0]), b=np.array([1.0, 0.0]),
        E=np.array([-0.2, 0.0]), C=np.array([1.0, 0.0]), D=np.eye(2),
        u_min=0.0, u_max=1.0,
    )


@pytest.mark.parametrize("c", [0.701, 0.5])
def test_reachable_set_names_a_pole_between_grid_inputs(c):
    """A + B u singular inside the range breaks Assumption 1 wherever the
    pole falls: between the inputs of a grid (c = 0.701, where a 256-point
    sweep returned [-1.9e10, 1.4e10]) or on the pencil's own shift (c =
    0.5, the middle of the range)."""
    with pytest.raises(hexreg.SingularMatrixError) as err:
        hexreg.reachable_set(_pole_system(c))
    assert abs(_named_pole(err.value) - c) <= 1e-12 and err.value.cond == np.inf


def test_scenario_with_x0_makes_few_scalar_solves(table1, fwd_art, monkeypatch):
    """The reachable set solves pi in one stacked call and makes no scalar
    pi_map call.  A fresh plant, so its set is decided here."""
    hexsys = hexreg.build_hex(table1)
    calls = []
    one = steady_state.pi_map

    def counted(*args, **kwargs):
        calls.append(args)
        return one(*args, **kwargs)

    monkeypatch.setattr(steady_state, "pi_map", counted)
    data = {"units": "C", "law": "forwarding", "t_end": 10.0, "dt": 0.1,
            "reference_schedule": [[0.0, 26.5]],
            "x0": (fwd_art.x_ss - KELVIN).tolist()}
    hexreg.scenario_from_dict(data, hexsys, fwd_art)
    assert calls == []


def _bowl_system(k: float = 4.0, u_max: float = 3.0):
    """C pi(u) = u + k / (1 + u) on [0, u_max]; by default a minimum of 3 at
    u = 1 between two maxima of 4 at u = 0 and u = 3."""
    return hexreg.BilinearSystem(
        A=np.diag([-1.0, -1.0]), B=np.diag([0.0, -1.0]), b=np.array([1.0, 0.0]),
        E=np.array([0.0, k]), C=np.array([1.0, 1.0]), D=np.eye(2),
        u_min=0.0, u_max=u_max,
    )


def test_reachable_set_interior_minimum():
    reach = hexreg.reachable_set(_bowl_system())
    assert reach.r_min == 3.0 and reach.u_at_min == 1.0
    # the tie between both ends goes to the first grid maximum
    assert reach.r_max == 4.0 and reach.u_at_max == 0.0


def test_invert_reference_takes_smallest_root():
    """3.5 is met at (2.5 -+ sqrt(4.25)) / 2; the first crossing is the smaller."""
    eq = hexreg.invert_reference(_bowl_system(), 3.5)
    assert eq.u_ss == pytest.approx((2.5 - np.sqrt(4.25)) / 2.0, abs=1e-15)


def test_invert_reference_at_the_bowl_extrema():
    """r = 3.0 touches the interior minimum at u = 1, a double root of the
    pencil, known only to about sqrt(eps); the reachable set's u_at_min is
    returned exactly.  r = 4.0 is met at both ends and the smaller, u = 0,
    is taken."""
    sys = _bowl_system()
    eq = hexreg.invert_reference(sys, 3.0)
    assert eq.u_ss == 1.0 and eq.y_ss == 3.0
    eq = hexreg.invert_reference(sys, 4.0)
    assert eq.u_ss == 0.0 and eq.y_ss == 4.0


def test_invert_reference_root_on_the_shift():
    """u + 3 / (1 + u) = 2.5 at u = 0.5 and at u = 1, the middle of [0, 2],
    where the pencil's first shift is exactly singular: a second shift
    finds the smaller root."""
    eq = hexreg.invert_reference(_bowl_system(k=3.0, u_max=2.0), 2.5)
    assert eq.u_ss == pytest.approx(0.5, abs=1e-15) and abs(eq.y_ss - 2.5) <= 1e-15


def test_a_root_on_the_shift_is_found_once():
    """The bowl's pencil for r = 2.5 on [0, 2] is singular at its first
    shift, u = 1: that root is kept exact, and the second shift's rounded
    copy of it is dropped, so the roots are 0.5 and 1 once each."""
    sys = _bowl_system(k=3.0, u_max=2.0)
    M0 = np.block([[sys.A, sys.E[:, None]], [sys.C[None], np.full((1, 1), -2.5)]])
    M1 = np.block([[sys.B, sys.b[:, None]], [np.zeros((1, sys.n_states + 1))]])
    roots = steady_state._pencil_roots(M0, M1, sys.u_min, sys.u_max)
    assert roots.shape == (2,)
    assert roots[0] == pytest.approx(0.5, abs=1e-12) and roots[1] == 1.0


def test_invert_reference_clips_a_root_past_the_bound():
    """On [0.5, 3] the bowl's C pi(0.5) is met at u = 0.5 and u = 5/3; the
    pencil puts the first root 1.5e-14 below u_min, which is clipped to
    u_min, not dropped in favour of the second."""
    sys = replace(_bowl_system(), u_min=0.5)
    eq = hexreg.invert_reference(sys, float(sys.C @ hexreg.pi_map(sys, 0.5)))
    assert eq.u_ss == 0.5


def test_invert_reference_stops_at_first_crossing():
    """C pi(u) = (0.2 - u) / (u - c) crosses 0 at u = 0.2 and changes sign
    again at its pole c.  The pole breaks Assumption 1, so the inversion
    refuses the plant before it looks for a crossing."""
    with pytest.raises(hexreg.SingularMatrixError) as err:
        hexreg.invert_reference(_pole_system(), 0.0)
    assert abs(_named_pole(err.value) - 0.701) <= 1e-12


def test_invert_reference_round_trip(hexsys, eq02):
    eq = hexreg.invert_reference(hexsys, eq02.y_ss)
    assert eq.u_ss == pytest.approx(0.02, abs=1e-9)
    assert eq.y_ss == pytest.approx(eq02.y_ss, abs=1e-9)


def test_invert_reference_unreachable(hexsys):
    reach = hexreg.reachable_set(hexsys)
    with pytest.raises(hexreg.ReferenceUnreachableError):
        hexreg.invert_reference(hexsys, reach.r_max + 1.0)
    with pytest.raises(hexreg.ReferenceUnreachableError):
        hexreg.invert_reference(hexsys, reach.r_min - 1.0)


@pytest.mark.parametrize("caller", ["invert_reference", "scenario_from_dict"])
def test_reachable_set_tolerance_boundary(hexsys, fwd_art, caller):
    """Both callers take ReachableSet.require's tolerance 1e-9 (1 + |r|):
    r_max + tol / 2 is admitted and r_max + 2 tol refused."""
    r_max = hexreg.reachable_set(hexsys).r_max
    tol = 1e-9 * (1.0 + abs(r_max))

    def resolve(r):
        if caller == "invert_reference":
            return hexreg.invert_reference(hexsys, r)
        return hexreg.scenario_from_dict(
            {"units": "K", "law": "forwarding", "t_end": 1.0, "dt": 0.5,
             "reference_schedule": [[0.0, r]]}, hexsys, fwd_art)

    resolve(r_max + 0.5 * tol)
    with pytest.raises(hexreg.ReferenceUnreachableError):
        resolve(r_max + 2.0 * tol)


def test_invert_reference_midpoint_bracketed(hexsys):
    """Cpi is strictly decreasing on the exchanger, so the inversion of the
    mean of its values at two inputs lies between them."""
    u_grid = np.linspace(hexsys.u_min, hexsys.u_max, 256)
    y_grid = np.array([float(hexsys.C @ hexreg.pi_map(hexsys, u)) for u in u_grid])
    assert np.all(np.diff(y_grid) < 0.0)
    r = 0.5 * (y_grid[20] + y_grid[21])
    eq = hexreg.invert_reference(hexsys, r)
    assert u_grid[20] < eq.u_ss < u_grid[21]
    assert float(hexsys.C @ hexreg.pi_map(hexsys, eq.u_ss)) == pytest.approx(
        r, abs=1e-9)


def _count_solves(monkeypatch) -> list:
    """Record every _equilibria and pi_map call of steady_state."""
    calls = []
    for name in ("_equilibria", "pi_map"):
        def counted(*args, _fn=getattr(steady_state, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(steady_state, name, counted)
    return calls


def test_reachable_set_is_swept_once_per_system(table1, monkeypatch):
    sys = hexreg.build_hex(table1)
    calls = _count_solves(monkeypatch)
    reach = hexreg.reachable_set(sys)
    assert calls == ["_equilibria"]
    calls.clear()
    assert hexreg.reachable_set(sys) is reach
    assert calls == []
    hexreg.invert_reference(sys, 26.5 + KELVIN)
    # its own roots only, in one stacked solve
    assert calls == ["_equilibria"]
    # the memo stays out of every output of the system
    assert "_reachable" not in repr(sys)
    assert "_reachable" not in model.system_to_dict(sys)


def test_reachable_set_is_frozen_and_read_only(table1):
    """The kept set and the plant it is kept on cannot change."""
    sys = hexreg.build_hex(table1)
    reach = hexreg.reachable_set(sys)
    with pytest.raises(ValueError, match="read-only"):
        sys.A[0, 0] = 0.0
    with pytest.raises(FrozenInstanceError):
        reach.r_min = 0.0
    with pytest.raises(FrozenInstanceError):
        sys.A = np.zeros_like(sys.A)


def test_replaced_system_gets_its_own_sweep(table1, monkeypatch):
    sys = hexreg.build_hex(table1)
    reach = hexreg.reachable_set(sys)
    narrow = replace(sys, u_max=0.04)
    calls = _count_solves(monkeypatch)
    reach_narrow = hexreg.reachable_set(narrow)
    assert calls.count("_equilibria") > 0
    assert reach_narrow is not reach and hexreg.reachable_set(sys) is reach
    assert reach_narrow.u_at_min == 0.04 and reach.u_at_min == 0.05
    assert reach_narrow.r_min > reach.r_min


def test_memoized_reachable_set_matches_fresh_sweep(hexsys, table1):
    """The set kept on the session-scoped hexsys, decided by whichever test
    came first, has the bits of the set of a freshly built plant."""
    kept, fresh = hexreg.reachable_set(hexsys), hexreg.reachable_set(hexreg.build_hex(table1))
    assert kept is hexreg.reachable_set(hexsys) and fresh is not kept
    for name in ("r_min", "r_max", "u_at_min", "u_at_max"):
        assert np.asarray(getattr(kept, name)).tobytes() == \
            np.asarray(getattr(fresh, name)).tobytes(), name


def _stable_system(seed: int, n: int) -> hexreg.BilinearSystem:
    """A random n-state plant with A + B u Hurwitz for every u in [0, 1]:
    A = G - s I with s = |G|_2 + |B|_2 + 1/2, so every eigenvalue of
    A + B u has real part at most -1/2."""
    rng = np.random.default_rng(seed)
    G, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    shift = np.linalg.norm(G, 2) + np.linalg.norm(B, 2) + 0.5
    return hexreg.BilinearSystem(
        A=G - shift * np.eye(n), B=B, b=rng.standard_normal(n),
        E=rng.standard_normal(n), C=rng.standard_normal(n),
        D=np.eye(1, n), u_min=0.0, u_max=1.0)


# seeded random plants for the dense-grid oracle: seeds 0-14, 2-5 states
_ORACLE_PLANTS = [(seed, n) for seed in range(15) for n in range(2, 6)]


@functools.lru_cache(maxsize=None)
def _dense_oracle(seed: int, n: int):
    """The plant _stable_system(seed, n), and at 20 001 inputs over its
    range y_ss = C pi(u) and the DC gain C F_u^-1 g_u, each input from its
    own two solves."""
    sys_ = _stable_system(seed, n)
    u = np.linspace(sys_.u_min, sys_.u_max, 20001)
    F = sys_.A + sys_.B * u[:, None, None]
    x = np.linalg.solve(F, -(sys_.b * u[:, None] + sys_.E)[..., None])[..., 0]
    w = np.linalg.solve(F, (x @ sys_.B.T + sys_.b)[..., None])[..., 0]
    return sys_, u, x @ sys_.C, w @ sys_.C


def _sign_changes(f: np.ndarray) -> np.ndarray:
    """Indices i where f changes sign between entries i and i + 1."""
    return np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:]))


def test_stationary_points_count_the_dc_gain_sign_changes():
    """The (2n + 1) pencil has one root in range per sign change of the
    dense-grid DC gain, on every oracle plant; some plants change sign."""
    changing = 0
    for seed, n in _ORACLE_PLANTS:
        sys_, _, _, dc = _dense_oracle(seed, n)
        flips = len(_sign_changes(dc))
        assert len(steady_state._stationary_points(sys_)) == flips, (seed, n)
        changing += flips > 0
    assert changing >= 5


def test_reachable_set_bounds_the_dense_grid():
    """r_min and r_max bound C pi at every dense-grid input, to 1e-9 (1 + |r|)."""
    for seed, n in _ORACLE_PLANTS:
        sys_, _, y, _ = _dense_oracle(seed, n)
        reach = hexreg.reachable_set(sys_)
        tol = 1e-9 * (1.0 + np.abs(y))
        assert np.all(y >= reach.r_min - tol) and np.all(y <= reach.r_max + tol), (seed, n)


def test_invert_reference_takes_the_first_dense_grid_crossing():
    """Every inversion lands in the first dense-grid cell where C pi - r
    changes sign, and meets r to 1e-8 (1 + |r|)."""
    for seed, n in _ORACLE_PLANTS:
        sys_, u, y, _ = _dense_oracle(seed, n)
        reach = hexreg.reachable_set(sys_)
        for frac in (0.03, 0.31, 0.5, 0.77, 0.98):
            r = reach.r_min + frac * (reach.r_max - reach.r_min)
            eq = hexreg.invert_reference(sys_, r)
            i = _sign_changes(y - r)[0]
            assert u[i] <= eq.u_ss <= u[i + 1], (seed, n, frac)
            assert abs(eq.y_ss - r) <= 1e-8 * (1.0 + abs(r))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(seed=st.none() | st.integers(0, 2**32 - 1), n=st.integers(2, 5),
       frac=st.floats(0.0, 1.0))
def test_pi_map_meets_its_residual_bound(hexsys, seed, n, frac):
    """pi_map's x satisfies the bound it enforces,
    |(A + B u) x + b u + E|_inf <= 1e-9 (1 + |x|_inf), on the heat
    exchanger (seed None) and on random stable 2-5-state plants."""
    sys_ = hexsys if seed is None else _stable_system(seed, n)
    u = sys_.u_min + frac * (sys_.u_max - sys_.u_min)
    x = hexreg.pi_map(sys_, u)
    residual = sys_.frozen(u) @ x + sys_.b * u + sys_.E
    assert np.abs(residual).max() <= 1e-9 * (1.0 + np.abs(x).max())


def test_equilibria_are_kelvin_scale(eq265):
    # reference experiments run around 26.5 C
    assert eq265.y_ss == pytest.approx(26.5 + KELVIN, abs=1e-9)
    assert 0.0 < eq265.u_ss < 0.05


def _singular_family(seed, n, t_star, log_cond, scale):
    """M and B of an n x n family M + t B that is singular at t_star in
    exact arithmetic: M + t_star B = U diag(s) V^T, scaled, with s_n = 0 and
    the inner singular values between 10**-log_cond and 1.  Near t_star the
    condition number grows as 1 / |t - t_star|."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = 10.0 ** (-log_cond * rng.uniform(size=n))
    s[0], s[-1] = 1.0, 0.0
    B = 10.0 ** scale * rng.standard_normal((n, n))
    M = 10.0 ** scale * (U * s) @ V.T - t_star * B
    return M, B


# a member's offset from the singular parameter: on it, near it (half the
# draws where the condition number meets 1e12 and 1e14), or far from it
_offsets = (st.just(0.0)
            | st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(0.0, 18.0)
                        | st.floats(11.5, 14.5)).map(lambda p: p[0] * 10.0 ** -p[1])
            | st.floats(-3.0, 3.0))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.data())
def test_screen_singular_matches_cond(data):
    """The screen's verdict on a family, and on each member alone, is the
    exact test: cond_2 finite and at most 1e14 means not singular.  Members
    sit on, near and far from a real generalized eigenvalue of (M, -B)."""
    n = data.draw(st.integers(1, 8), label="n")
    t_star = data.draw(st.floats(-2.0, 2.0), label="t_star")
    M, B = _singular_family(data.draw(st.integers(0, 2**32 - 1), label="seed"), n, t_star,
                            data.draw(st.floats(0.0, 13.0), label="log_cond"),
                            data.draw(st.floats(-150.0, 150.0), label="scale"))
    t = t_star + np.array(data.draw(st.lists(_offsets, min_size=1, max_size=10),
                                    label="offsets"))
    with np.errstate(over="ignore", invalid="ignore"):
        members = M + B * t[:, None, None]
    cond = np.linalg.cond(members)
    want = ~(np.isfinite(cond) & (cond <= 1e14))
    singular, kappa = steady_state.screen_singular(members)
    assert singular.shape == kappa.shape == (len(t),)
    assert np.array_equal(singular, want)
    # kappa bounds a cleared member's condition number and is exact elsewhere
    hard = ~(kappa <= 1e12)
    assert np.array_equal(kappa[hard], cond[hard])
    assert np.all(kappa[~hard] >= cond[~hard] * (1.0 - 1e-3))
    for i in range(len(t)):
        one, _ = steady_state.screen_singular(members[i : i + 1])
        assert one.shape == (1,) and one[0] == want[i]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
def test_screen_singular_non_finite_member_is_that_of_cond(bad):
    """A member with a shift that is not finite, or so large that the
    member overflows, gets the verdict of its own np.linalg.cond, and
    where that raises, the screen raises as well."""
    M, B = _singular_family(7, 4, 0.5, 3.0, 0.0)
    t = np.array([-1.0, 0.1, bad, 0.9, 2.0])
    with np.errstate(over="ignore", invalid="ignore"):
        members = M + B * t[:, None, None]
    try:
        cond = np.linalg.cond(members)
    except np.linalg.LinAlgError as exc:
        with pytest.raises(np.linalg.LinAlgError, match=str(exc)):
            steady_state.screen_singular(members)
        return
    singular, _ = steady_state.screen_singular(members)
    assert np.array_equal(singular, ~(np.isfinite(cond) & (cond <= 1e14)))
