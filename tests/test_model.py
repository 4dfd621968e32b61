"""Model construction: compartment matrices, the plant equation, serialization."""

import json

import numpy as np
import pytest

import hexreg
from hexreg import model

from conftest import TABLE1, make_scenario, plant_rhs


def test_stream_shift_matrix_small():
    S = model.stream_shift_matrix(3)
    expected = np.array([[-1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    assert np.array_equal(S, expected)


def test_hex_params_validation():
    bad = dict(TABLE1)
    bad["n_cells"] = 0
    with pytest.raises(ValueError):
        hexreg.HexParams(**bad)
    assert hexreg.HexParams(**{**TABLE1, "n_cells": 1024}).n_cells == 1024
    bad = dict(TABLE1)
    bad["n_cells"] = 1025
    with pytest.raises(ValueError, match=r"n_cells=1025 is above the limit of 1024"):
        hexreg.HexParams(**bad)
    bad = dict(TABLE1)
    bad["u_min"] = -1.0
    with pytest.raises(ValueError, match=r"u_min must be >= 0"):
        hexreg.HexParams(**bad)
    # the plant owns u_min < u_max
    bad = dict(TABLE1)
    bad["u_max"] = -1.0
    with pytest.raises(ValueError, match=r"u_min < u_max required, got \[0\.0, -1\.0\]"):
        hexreg.build_hex(hexreg.HexParams(**bad))


def test_build_hex_single_cell_matches_hand_expansion():
    """n_cells=1 reduces to four scalar balance equations.

    Hot cell:  rho*V*cp*dT/dt  = cp*u*(T_in - T) + lam*(Tbar - T)
    Cold cell: rho*Vbar*cp*dTbar/dt = cp*qbar*(Tbar_in - Tbar) + lam*(T - Tbar)
    so A carries the exchange terms and the cold convection; the hot
    convection enters through B*u + b.
    """
    p = hexreg.HexParams(**{**TABLE1, "n_cells": 1})
    sys = hexreg.build_hex(p)
    k = p.lam / (p.rho * p.cp)
    a_hot = k / p.V_hot
    a_cold = k / p.V_cold
    conv_cold = p.q_bar / (p.rho * p.V_cold)
    A_expected = np.array([
        [-a_hot, a_hot],
        [a_cold, -a_cold - conv_cold],
    ])
    assert np.allclose(sys.A, A_expected, atol=1e-15)
    assert np.allclose(sys.B, [[-1.0 / (p.rho * p.V_hot), 0.0], [0.0, 0.0]])
    assert np.allclose(sys.b, [p.T_in_hot / (p.rho * p.V_hot), 0.0])
    assert np.allclose(sys.E, [0.0, conv_cold * p.T_in_cold])
    assert np.array_equal(sys.C, [0.0, 1.0])


def test_build_hex_16_states(hexsys, table1):
    assert hexsys.n_states == 16
    assert hexsys.n_outputs == 1
    # C selects the first cold cell, which sits right after the hot block
    assert hexsys.C[8] == 1.0 and np.count_nonzero(hexsys.C) == 1
    assert (hexsys.u_min, hexsys.u_max) == (0.0, 0.05)


def test_build_hex_convection_telescopes(hexsys, table1):
    """Summing the compartment equations cancels the internal transport.

    For the hot stream, sum_i (B x + b)_i = u-normalized net inflow
    (T_in - T_n)/(rho V); for the cold stream the q_bar terms in A and E
    telescope the same way.  This pins the convection sign conventions.
    """
    p = table1
    rng = np.random.default_rng(0)
    x = 290.0 + rng.uniform(-5.0, 5.0, 16)
    hot_net = np.sum(hexsys.B @ x + hexsys.b)
    assert hot_net == pytest.approx((p.T_in_hot - x[7]) / (p.rho * p.V_hot),
                                    rel=1e-12)
    cold_rows = slice(8, 16)
    # A's cold-stream part: exchange terms cancel against the hot block,
    # leaving the q_bar transport; add E to close the balance at the inlet.
    cold_net = np.sum((hexsys.A @ x)[cold_rows] + hexsys.E[cold_rows])
    exchange = (p.lam / (p.rho * p.cp * p.V_cold)) * np.sum(x[:8] - x[8:])
    transport = (p.q_bar / (p.rho * p.V_cold)) * (p.T_in_cold - x[8])
    assert cold_net == pytest.approx(exchange + transport, rel=1e-12)


def test_dynamics_uniform_temperature_is_equilibrium():
    # one cell, both inlets equal, every temperature equal: nothing flows
    p = hexreg.HexParams(**{**TABLE1, "n_cells": 1,
                            "T_in_hot": 300.0, "T_in_cold": 300.0})
    sys = hexreg.build_hex(p)
    x = np.array([300.0, 300.0])
    for u in (0.0, 0.02, 0.05):
        assert np.allclose(plant_rhs(sys, x, u), 0.0, atol=1e-12)


def test_dynamics_zero_at_equilibrium(hexsys, eq02):
    rhs = plant_rhs(hexsys, eq02.x_ss, eq02.u_ss)
    assert np.max(np.abs(rhs)) <= 1e-10


def test_dynamics_matches_one_step_finite_difference(hexsys, eq02, io_art):
    """RK4 over a tiny step agrees with the derivative to O(dt)."""
    rng = np.random.default_rng(7)
    x0 = eq02.x_ss + rng.uniform(-1.0, 1.0, 16)
    dt = 1e-6
    scn = make_scenario(hexsys, io_art, hexreg.INTEGRAL_ONLY, dt, dt,
                        [[0.0, eq02.y_ss]], x0=x0)
    res = hexreg.run(scn)
    fd = (res.x[1] - res.x[0]) / dt
    rhs = plant_rhs(hexsys, x0, res.u_sat[0])
    assert np.max(np.abs(fd - rhs)) <= 1e-6


def test_block_average_sensors_shape_and_rows():
    D = hexreg.block_average_sensors(16, 5)
    assert D.shape == (5, 16)
    # rows are disjoint averages that jointly cover every cell; group
    # sizes split 16 over 5 as [3, 3, 3, 3, 4]
    assert np.allclose(D.sum(axis=1), 1.0)
    assert np.allclose(D.sum(axis=0), 1.0 / np.array([3] * 12 + [4] * 4))
    with pytest.raises(ValueError):
        hexreg.block_average_sensors(16, 0)
    with pytest.raises(ValueError):
        hexreg.block_average_sensors(16, 17)


def test_system_round_trip(tmp_path, hexsys, table1):
    path = tmp_path / "sys.json"
    hexreg.save_system(path, hexsys, table1)
    loaded, params = hexreg.load_system(str(path))
    assert np.array_equal(loaded.A, hexsys.A)
    assert np.array_equal(loaded.D, hexsys.D)
    assert params == table1


def test_system_from_dict_rejects_bad_fields(hexsys):
    data = model.system_to_dict(hexsys)
    data["bogus"] = 1
    with pytest.raises(ValueError, match="unknown"):
        model.system_from_dict(data)
    data = model.system_to_dict(hexsys)
    del data["A"]
    with pytest.raises(ValueError, match="missing"):
        model.system_from_dict(data)


def test_load_system_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\"A\": [1,,]}")
    with pytest.raises(json.JSONDecodeError) as err:
        hexreg.load_system(str(path))
    # the parse error carries a position, which the CLI surfaces
    assert err.value.lineno >= 1
