#!/usr/bin/env python3
"""Benchmark of hexreg: three closed-loop workloads, checked and timed.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {tracking,seed_sweep,certify} \\
        --seed N --seconds S --trace {0,1}
    python3 bench/run.py --smoke

With --trace 0 the workload runs whole rounds until S seconds of rounds
have passed (and at least its own minimum); wall_s is the median round.
Set-ups are timed apart from the rounds, spread through the run, and their
median is setup_s.  With --trace 1 every workload runs one traced round,
and the per-layer metrics come from the spans of that traced pass; then the
named workload runs one untraced round, and trace.overhead_s is its traced
round minus its untraced one.  --smoke runs all of this at tiny sizes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it holds the set-up the
run measured on.  Outputs go to a temporary directory under bench/_out/,
removed at the end; a record of the run (and the spans, when traced) stays
in bench/_out/.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
checkout has no hexreg sources next to bench/.
"""

import os

# One BLAS thread, here and in every child process, before numpy loads.
# hexreg's products are at most 33 x 16, too small for BLAS threads to
# help, and helper threads contending for the cores make timings wander.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
IMPORT_PROBES = 3


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _untraced(name: str, seed: int, seconds: float, work: Path) -> dict:
    from workloads import WORKLOADS, measure

    m = measure(WORKLOADS[name](ROOT, work, seed, smoke=False), seconds)
    m["metrics"] = {
        "wall_s": _metric(m["wall_s"], "s"),
        "setup_s": _metric(m["setup_s"], "s"),
        "peak_rss_mb": _metric(m["peak_rss_mb"], "MiB"),
    }
    return m


def _traced_pass(seed: int, work: Path, smoke: bool) -> dict:
    """One traced set-up and round of every workload, plus import probes."""
    from tracing import Tracer, instrument
    from workloads import WORKLOADS

    tracer = Tracer()
    restore = instrument(tracer)
    out = {"tracer": tracer, "wall_s": {}, "attempted": 0, "failed": 0,
           "failures": [], "problems": []}
    try:
        # the seed sweep first, so that its run_many sets the process's
        # high-water mark of resident memory (sim.run_many_alloc_peak_mb)
        for name in ("seed_sweep", "tracking", "certify"):
            cls = WORKLOADS[name]
            wdir = work / f"traced-{name}"
            wdir.mkdir()
            wl = cls(ROOT, wdir, seed, smoke=smoke, tracer=tracer)
            with tracer.span(f"{name}.setup"):
                wl.setup()
            t0 = time.perf_counter()
            with tracer.span(f"{name}.round"):
                res = wl.round(0, lambda: None)
            out["wall_s"][name] = time.perf_counter() - t0
            out["attempted"] += res.attempted
            out["failed"] += res.failed
            out["failures"] += res.failures
            out["problems"] += wl.check(res)
            wl.discard(res)
        for _ in range(IMPORT_PROBES):
            with tracer.span("cli.import"):
                subprocess.run([sys.executable, "-c", "import hexreg.cli"], check=True)
    finally:
        restore()
    return out


def _traced(name: str, seed: int, work: Path) -> dict:
    from tracing import layer_metrics
    from workloads import WORKLOADS, measure

    tp = _traced_pass(seed, work, smoke=False)
    (work / "untraced").mkdir()
    # one untraced round, to set against the traced one
    base = measure(WORKLOADS[name](ROOT, work / "untraced", seed, smoke=False), 0.0,
                   min_rounds=1)
    problems = base["problems"] + tp["problems"]
    metrics = {k: _metric(v, unit) for k, (v, unit) in layer_metrics(tp["tracer"].spans).items()}
    metrics["trace.overhead_s"] = _metric(tp["wall_s"][name] - base["wall_s"], "s")
    OUT.mkdir(exist_ok=True)
    tp["tracer"].dump(OUT / f"trace-{name}-seed{seed}.json")
    return {
        "metrics": metrics,
        "attempted": base["attempted"] + tp["attempted"],
        "failed": base["failed"] + tp["failed"],
        "failures": base["failures"] + tp["failures"],
        "problems": problems,
        "untraced_wall_s": base["wall_s"],
        "traced_wall_s": tp["wall_s"],
    }


def _smoke(seed: int, work: Path) -> dict:
    """Every workload at tiny sizes, untraced and traced, with all checks."""
    from tracing import layer_metrics
    from workloads import WORKLOADS, measure

    metrics, attempted, failed, failures, problems = {}, 0, 0, [], []
    untraced_s = 0.0
    for name, cls in WORKLOADS.items():
        wdir = work / f"smoke-{name}"
        wdir.mkdir()
        m = measure(cls(ROOT, wdir, seed, smoke=True), 0.0)
        metrics[f"{name}.wall_s"] = _metric(m["wall_s"], "s")
        untraced_s += m["wall_s"]
        attempted, failed = attempted + m["attempted"], failed + m["failed"]
        failures += m["failures"]
        problems += m["problems"]
    tp = _traced_pass(seed, work, smoke=True)
    metrics.update({k: _metric(v, unit)
                    for k, (v, unit) in layer_metrics(tp["tracer"].spans).items()})
    metrics["trace.overhead_s"] = _metric(sum(tp["wall_s"].values()) - untraced_s, "s")
    return {
        "metrics": metrics,
        "attempted": attempted + tp["attempted"],
        "failed": failed + tp["failed"],
        "failures": failures + tp["failures"],
        "problems": problems + tp["problems"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["tracking", "seed_sweep", "certify"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes through the same checks")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    if not (SRC / "hexreg" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no hexreg sources (src/hexreg and configs/) in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    import environment

    setup_record = environment.record()
    print(json.dumps({"setup_record": setup_record}), flush=True)
    OUT.mkdir(exist_ok=True)
    label = "smoke" if args.smoke else args.workload
    work = Path(tempfile.mkdtemp(prefix=f"work-{label}-", dir=OUT))
    try:
        if args.smoke:
            run = _smoke(args.seed, work)
        elif args.trace:
            run = _traced(args.workload, args.seed, work)
        else:
            run = _untraced(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in run["failures"] + run["problems"]:
        print(line, file=sys.stderr)
    result = {
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": run["metrics"],
    }
    record = dict(run, setup_record=setup_record, args=vars(args), result=result)
    record_path = OUT / f"run-{label}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
