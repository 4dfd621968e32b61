"""Command-line front end.

Subcommands: build-model, design, simulate, verify, steady-state,
compare-pi.  Every command is deterministic: identical inputs produce
byte-identical JSON/CSV outputs.  Exit codes: 0 success, 1 verification
failure, 2 usage or parse error, 3 numerical failure, 4 this process
cannot build or load the compiled step loop that simulate and compare-pi
run on.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys as _sys
from pathlib import Path

import numpy as np

from . import analysis, design, model, native, sim, steady_state
from .errors import CompiledLoopError, HexRegError
from .kernels import INTEGRAL_ONLY, LAWS, OUTPUT_FEEDBACK, PI
from .serde import dump_json, dumps_json, read_object

__all__ = ["main"]

# Malformed input and files that cannot be read exit 2; so does every
# HexRegError that is also a ValueError.  CompiledLoopError exits 4, and
# any other HexRegError exits 3.
_USAGE_ERRORS = (ValueError, OSError, KeyError)


def _emit(data: dict, out: str | None) -> None:
    if out:
        dump_json(out, data)
    else:
        _sys.stdout.write(dumps_json(data))


def _resolve_uss(sys_, args) -> float:
    if args.uss is not None:
        return float(args.uss)
    eq = steady_state.invert_reference(sys_, args.ref + sim.kelvin_offset(args.units))
    return eq.u_ss


# ---------------------------------------------------------------------------
# subcommands


def _cmd_build_model(args) -> int:
    params = model.HexParams.from_json(args.params)
    sys_ = model.build_hex(params)
    if args.sensors is not None:
        D = model.block_average_sensors(sys_.n_states, args.sensors)
        sys_ = dataclasses.replace(sys_, D=D)
    model.save_system(args.out, sys_, params)
    print(f"wrote {sys_.n_states}-state system ({sys_.n_outputs} outputs) to {args.out}")
    return 0


def _cmd_design(args) -> int:
    if args.law == PI:
        raise ValueError(
            "the pi baseline has no design artifacts; reuse any designed set"
        )
    sys_, params = model.load_system(args.system)
    u_ss = _resolve_uss(sys_, args)
    eq = steady_state.equilibrium_at(sys_, u_ss)
    if args.law == INTEGRAL_ONLY:
        if args.kp is not None:
            raise ValueError("--kp does not apply to the integral-only law")
        art = design.integral_only_design(sys_, eq, k_i=args.ki, hex_params=params)
    else:
        k_p = args.kp if args.kp is not None else 1e-6
        k_i = args.ki if args.ki is not None else 2.6e-5
        art = design.forwarding_design(sys_, eq, k_p, k_i)
        if args.law == OUTPUT_FEEDBACK:
            art.observer = design.observer_design(sys_)
    design.save_artifacts(args.out, art)
    extra = ""
    if art.ki_star is not None:
        extra = f", ki_star={art.ki_star:.6g}"
    if art.observer is not None:
        extra = f", lmi_residual={art.observer.lmi_residual:.3e}"
    print(f"wrote {args.law} artifacts (u_ss={art.u_ss:.6g}{extra}) to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    sys_, _ = model.load_system(args.system)
    art = design.load_artifacts(args.artifacts)
    runs = []
    seen = {}  # stem -> the scenario path that names its outputs
    for path in args.scenario:
        stem = Path(path).stem
        if stem in seen:
            raise ValueError(f"scenarios {seen[stem]} and {path} share the stem "
                             f"{stem!r}, so one run's outputs would overwrite the other's")
        seen[stem] = path
        data = read_object(path)
        if args.dt is not None:
            data["dt"] = args.dt
        if args.law is not None:
            data["law"] = args.law
        runs.append((stem, sim.scenario_from_dict(data, sys_, art)))
    # every input is checked, the step loop found, and the output directory
    # made, before the first step
    native.step_loop()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for stem, scn in runs:
        csv_path = out / f"{stem}.csv"
        res = sim.run(scn, csv_path)
        dump_json(out / f"{stem}.metrics.json", sim.run_metrics(scn, res))
        print(f"wrote {csv_path}")
    return 0


def _cmd_verify(args) -> int:
    sys_, params = model.load_system(args.system)
    P = nu = eps = no_decay = None
    if args.a3:
        if params is not None:
            P = design.hex_analytic_P(params)
        else:
            P = design.solve_lyapunov(
                sys_.frozen(0.5 * (sys_.u_min + sys_.u_max)), np.eye(sys_.n_states)
            )
        margin = design.lyapunov_decay_margin(sys_, P)
        if margin > 0.0:
            eps = 0.5 * margin
            mu = design.input_coupling_bound(sys_)
            nu = float(np.linalg.norm(P, 2) / mu) if mu > 0.0 else 1.0
        else:
            # an eigenvalue >= 0 of P F_u + F_u^T P at some input leaves the A3(a)
            # block's upper-left corner indefinite for every nu, eps > 0
            P = None
            no_decay = f"decay margin {margin:.3e} <= 0: P certifies no A3(a) constants"
    rep = analysis.assumption_report(sys_, P=P, nu=nu, eps=eps, u_grid=args.grid, a3b=args.a3)
    if no_decay is not None:
        rep.a3a_feasible = False
    failed = rep.failed_checks(require_a3=args.a3)
    payload = rep.to_dict()
    payload["all_hold"] = not failed
    _emit(payload, args.out)
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=_sys.stderr)
        if no_decay is not None:
            print(no_decay, file=_sys.stderr)
        return 1
    return 0


def _cmd_steady_state(args) -> int:
    sys_, _ = model.load_system(args.system)
    if args.u is not None:
        payload = dataclasses.asdict(steady_state.equilibrium_at(sys_, args.u))
    elif args.ref is not None:
        r = args.ref + sim.kelvin_offset(args.units)
        payload = dataclasses.asdict(steady_state.invert_reference(sys_, r))
        payload["reference"] = r
    else:
        payload = dataclasses.asdict(steady_state.reachable_set(sys_))
    _emit(payload, args.out)
    return 0


def _cmd_compare_pi(args) -> int:
    sys_, _ = model.load_system(args.system)
    art = design.load_artifacts(args.artifacts)
    scn_ours = sim.load_scenario(args.scenario_ours, sys_, art)
    scn_pi = sim.load_scenario(args.scenario_pi, sys_, art)
    report = sim.compare_pi(scn_ours, scn_pi)
    _emit(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexreg",
        description="Saturated bilinear regulation: model building, design, "
        "verification, and closed-loop simulation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build-model", help="assemble a system file from "
                        "heat-exchanger parameters")
    p.add_argument("params", help="parameter JSON file")
    p.add_argument("--out", required=True, help="output system JSON path")
    p.add_argument("--sensors", type=int, default=None,
                   help="replace D with this many block-averaging sensor rows")
    p.set_defaults(func=_cmd_build_model)

    p = subs.add_parser("design", help="synthesize control-law artifacts")
    p.add_argument("system", help="system JSON file")
    p.add_argument("--law", required=True, choices=list(LAWS),
                   help="control law to design for")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--ref", type=float, default=None,
                   help="target reference (see --units)")
    g.add_argument("--uss", type=float, default=None,
                   help="steady input, as an alternative to --ref")
    p.add_argument("--units", choices=["K", "C"], default="K",
                   help="units of --ref (default K)")
    p.add_argument("--kp", type=float, default=None,
                   help="proportional-path gain (default 1e-6)")
    p.add_argument("--ki", type=float, default=None,
                   help="integral gain (default 2.6e-5; integral-only: ki_star/2)")
    p.add_argument("--out", required=True, help="output artifact JSON path")
    p.set_defaults(func=_cmd_design)

    p = subs.add_parser("simulate", help="run closed-loop scenarios")
    p.add_argument("system", help="system JSON file")
    p.add_argument("artifacts", help="design artifact JSON file")
    p.add_argument("scenario", nargs="+", help="scenario JSON file(s)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dt", type=float, default=None,
                   help="override the scenario integration step")
    p.add_argument("--law", default=None, choices=list(LAWS),
                   help="override the scenario law")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("verify", help="check the standing assumptions")
    p.add_argument("system", help="system JSON file")
    p.add_argument("--grid", type=int, default=64,
                   help="input-grid resolution of the sampled checks")
    p.add_argument("--a3", action="store_true",
                   help="also check the robust-decay LMI and shifted DC gains")
    p.add_argument("--out", default=None, help="report JSON path (default stdout)")
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("steady-state", help="equilibria and the reachable set")
    p.add_argument("system", help="system JSON file")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--u", type=float, default=None, help="constant input to solve at")
    g.add_argument("--ref", type=float, default=None,
                   help="reference to invert (see --units)")
    p.add_argument("--units", choices=["K", "C"], default="K",
                   help="units of --ref (default K)")
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_steady_state)

    p = subs.add_parser("compare-pi", help="run a proposed-law scenario against "
                        "the PI baseline on the same schedule")
    p.add_argument("system", help="system JSON file")
    p.add_argument("artifacts", help="design artifact JSON file")
    p.add_argument("scenario_ours", help="scenario JSON for the proposed law")
    p.add_argument("scenario_pi", help="scenario JSON with law=pi and PI gains")
    p.add_argument("--out", default=None, help="report JSON path (default stdout)")
    p.set_defaults(func=_cmd_compare_pi)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: parse failure at line {exc.lineno} column {exc.colno}: "
              f"{exc.msg}", file=_sys.stderr)
        return 2
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except CompiledLoopError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 4
    except HexRegError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
