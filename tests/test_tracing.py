"""The benchmark's tracer against the program it wraps.

bench/tracing.py swaps sim's module globals for timed wrappers and reads
work counts from their arguments and results: the scenario and the sample
count of trajectory_monitors, and the stored trajectory of both kernel
names.  A change to those call shapes would silently break `bench/run.py
--trace 1`; this test breaks first.
"""

import importlib.util
from pathlib import Path

import hexreg
from hexreg import sim

from conftest import KELVIN, make_scenario

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reads_kernel_and_monitor_spans(hexsys, eq265, fwd_art):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    refs = [[0.0, 26.5 + KELVIN]]
    one = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 1.0, 0.1, refs)
    rows = [make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 1.0, 0.1, refs,
                          x0=eq265.x_ss + shift) for shift in (-0.5, 0.5)]
    names = ("run", "run_many", "closed_loop_rk4", "closed_loop_rk4_batch",
             "trajectory_monitors")
    originals = [getattr(sim, name) for name in names]
    restore = tracing.instrument(tracer)
    try:
        sim.run(one)
        sim.run_many(rows)
    finally:
        restore()
    assert [getattr(sim, name) for name in names] == originals

    def attrs(name):
        return [s["attrs"] for s in tracer.spans if s["name"] == name]

    assert attrs("kernels.closed_loop_rk4") == [{"traj_steps": 10}]
    assert attrs("kernels.closed_loop_rk4_batch") == [{"traj_steps": 20}]
    assert attrs("analysis.trajectory_monitors") == [
        {"law": hexreg.FORWARDING, "samples": 11}] * 3
    assert [a["law"] for a in attrs("sim.run")] == [hexreg.FORWARDING]
