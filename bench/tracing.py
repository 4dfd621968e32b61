"""Spans around hexreg's public functions, recorded from outside the program.

A Tracer keeps spans in memory (name, start, end, parent span, attributes)
and writes them out when asked.  `instrument` swaps the public functions
that hexreg's modules reach through module globals for wrappers that record
a span around each call, and returns a function that puts the originals
back.  The program's files are not touched: every span is timed here.

`layer_metrics` turns the spans of one traced pass into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time

# (module, attribute, span name) for every wrapped call.  sim, cli and the
# benchmark reach these through module globals, so replacing the module
# attribute is enough for the wrapper to see each call.
_SPANS = (
    ("sim", "scenario_from_dict", "sim.scenario_from_dict"),
    ("sim", "run", "sim.run"),
    ("sim", "run_many", "sim.run_many"),
    ("sim", "write_csv", "sim.write_csv"),
    ("sim", "compare_pi", "sim.compare_pi"),
    ("sim", "closed_loop_rk4", "kernels.closed_loop_rk4"),
    ("sim", "closed_loop_rk4_batch", "kernels.closed_loop_rk4_batch"),
    ("sim", "trajectory_monitors", "analysis.trajectory_monitors"),
    ("sim", "reachable_set", "steady_state.reachable_set"),
    ("sim", "invert_reference", "steady_state.invert_reference"),
    ("steady_state", "reachable_set", "steady_state.reachable_set"),
    ("steady_state", "invert_reference", "steady_state.invert_reference"),
    ("design", "forwarding_design", "design.forwarding_design"),
    ("design", "integral_only_design", "design.integral_only_design"),
    ("analysis", "assumption_report", "analysis.assumption_report"),
    ("analysis", "integral_gain_stability_limit", "analysis.integral_gain_stability_limit"),
)
# Counted, not spanned: pi_map runs hundreds of times per scenario.
_COUNTS = (
    ("steady_state", "pi_map", "steady_state.pi_map"),
    ("analysis", "pi_map", "steady_state.pi_map"),
)


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
            "counts": dict(self.counts),
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            # counts holds, until here, the counters at the span's start
            rec["counts"] = {
                k: v - rec["counts"].get(k, 0) for k, v in self.counts.items()
                if v != rec["counts"].get(k, 0)
            }

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def adopt(self, spans: list[dict], parent: int | None) -> None:
        """Append spans recorded in another process, under a span of this one."""
        base = len(self.spans)
        for rec in spans:
            rec = dict(rec, id=rec["id"] + base)
            rec["parent"] = parent if rec["parent"] is None else rec["parent"] + base
            self.spans.append(rec)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _attrs(name: str, args, kwargs, result) -> dict:
    """Work counts of one call, read from its arguments and result."""
    if name == "sim.run":
        return {"law": args[0].law}
    if name.startswith("kernels."):
        X = result[0]
        k = X.shape[0] if X.ndim == 3 else 1
        return {"traj_steps": k * (X.shape[-2] - 1)}
    if name == "analysis.trajectory_monitors":
        return {"law": args[0].law, "samples": int(args[1].shape[0])}
    if name == "sim.write_csv":
        path = args[1] if len(args) > 1 else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return {}


def _status_bytes(field: str) -> int:
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024
    raise OSError(f"no {field} in /proc/self/status")


def vm_hwm_bytes() -> int:
    """Peak resident set of this process's own address space."""
    return _status_bytes("VmHWM")


def vm_rss_bytes() -> int:
    return _status_bytes("VmRSS")


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as rec:
            if name == "sim.run_many":
                # The high-water mark, not a sampling thread: a thread that
                # polls the RSS slows the kernel's Python loop by 10-30 %.
                # The growth is exact when the call sets a new mark.
                before, mark = vm_rss_bytes(), vm_hwm_bytes()
                result = fn(*args, **kwargs)
                rec["attrs"]["rss_peak_growth_bytes"] = vm_hwm_bytes() - before
                rec["attrs"]["new_high_water"] = vm_hwm_bytes() > mark
            else:
                result = fn(*args, **kwargs)
            rec["attrs"].update(_attrs(name, args, kwargs, result))
        return result
    return traced


def _wrap_count(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return counted


def instrument(tracer: Tracer):
    """Wrap hexreg's layer functions; returns a function that unwraps them."""
    import importlib

    saved = []
    for table, wrap in ((_SPANS, _wrap), (_COUNTS, _wrap_count)):
        for mod_name, attr, name in table:
            mod = importlib.import_module(f"hexreg.{mod_name}")
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, wrap(tracer, name, original))

    def restore() -> None:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics


def _dur(rec: dict) -> float:
    return rec["end"] - rec["start"]


def _ancestors(spans: list[dict], rec: dict):
    while rec["parent"] is not None:
        rec = spans[rec["parent"]]
        yield rec


def _select(spans, name, **attrs):
    return [s for s in spans if s["name"] == name
            and all(s["attrs"].get(k) == v for k, v in attrs.items())]


def _under(spans, recs, name, **attrs):
    """The spans of recs that have an ancestor called name with attrs."""
    return [s for s in recs if any(
        a["name"] == name and all(a["attrs"].get(k) == v for k, v in attrs.items())
        for a in _ancestors(spans, s))]


def _total(recs) -> float:
    return sum(_dur(s) for s in recs)


def _median(recs) -> float:
    return statistics.median(_dur(s) for s in recs)


def _per_unit(recs, unit: str, scale: float = 1.0) -> float:
    units = sum(s["attrs"][unit] for s in recs)
    return scale * _total(recs) / units


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every per-layer metric, from one traced pass.

    The pass must hold all three workloads: each layer is read where the
    workloads reach it (see the table in bench/README.md).
    """
    cli_main = {c: _under(spans, _select(spans, "cli.main"), "cli.call", command=c)
                for c in ("simulate_forwarding", "simulate_integral_only", "compare_pi")}
    direct_runs = [s for s in _select(spans, "sim.run")
                   if not _under(spans, [s], "sim.compare_pi")]
    rk4 = _select(spans, "kernels.closed_loop_rk4")
    batch = _select(spans, "kernels.closed_loop_rk4_batch")
    scenarios = _select(spans, "sim.scenario_from_dict")
    run_many = _select(spans, "sim.run_many")
    csv = _select(spans, "sim.write_csv")
    out = {
        "cli.import_s": (_median(_select(spans, "cli.import")), "s"),
        "cli.simulate_forwarding_s": (_total(cli_main["simulate_forwarding"]), "s"),
        "cli.simulate_integral_only_s": (_total(cli_main["simulate_integral_only"]), "s"),
        "cli.compare_pi_s": (_total(cli_main["compare_pi"]), "s"),
        "sim.scenario_from_dict_s": (_median(scenarios), "s"),
        "sim.run_forwarding_s": (_total([s for s in direct_runs
                                         if s["attrs"]["law"] == "forwarding"]), "s"),
        "sim.run_integral_only_s": (_total([s for s in direct_runs
                                            if s["attrs"]["law"] == "integral_only"]), "s"),
        "sim.compare_pi_s": (_total(_select(spans, "sim.compare_pi")), "s"),
        "sim.write_csv_s": (_total(csv), "s"),
        "sim.csv_mb": (sum(s["attrs"]["bytes"] for s in csv) / 2**20, "MiB"),
        "sim.run_many_s": (_total(run_many), "s"),
        "sim.run_many_alloc_peak_mb": (
            max(s["attrs"]["rss_peak_growth_bytes"] for s in run_many) / 2**20, "MiB"),
        "kernels.rk4_us_per_step": (_per_unit(rk4, "traj_steps", 1e6), "us"),
        "kernels.batch_us_per_traj_step": (_per_unit(batch, "traj_steps", 1e6), "us"),
        "kernels.traj_steps": (
            float(sum(s["attrs"]["traj_steps"] for s in rk4 + batch)), "steps"),
        "analysis.monitors_forwarding_us_per_sample": (_per_unit(
            _select(spans, "analysis.trajectory_monitors", law="forwarding"),
            "samples", 1e6), "us"),
        "analysis.monitors_integral_only_us_per_sample": (_per_unit(
            _select(spans, "analysis.trajectory_monitors", law="integral_only"),
            "samples", 1e6), "us"),
        "analysis.assumption_report_s": (
            _total(_select(spans, "analysis.assumption_report")), "s"),
        "analysis.integral_gain_stability_limit_s": (
            _median(_select(spans, "analysis.integral_gain_stability_limit")), "s"),
        "design.forwarding_design_s": (_median(_select(spans, "design.forwarding_design")), "s"),
        "design.integral_only_design_s": (
            _median(_select(spans, "design.integral_only_design")), "s"),
        "steady_state.reachable_set_s": (
            _median(_select(spans, "steady_state.reachable_set")), "s"),
        "steady_state.invert_reference_s": (
            _median(_select(spans, "steady_state.invert_reference")), "s"),
        "steady_state.pi_map_calls": (
            statistics.mean(s["counts"].get("steady_state.pi_map", 0) for s in scenarios),
            "calls"),
    }
    return out
