"""Run one hexreg command as the installed `hexreg` script does, and report.

Usage: python3 bench/climain.py REPORT_JSON TRACE <hexreg arguments...>

Calls hexreg.cli.main with the arguments and exits with its code, as the
`hexreg` console script does.  REPORT_JSON receives this process's peak
resident set (VmHWM) and, with TRACE 1, the spans of its layer calls.

VmHWM belongs to this process's own address space.  getrusage's ru_maxrss
does not serve here: a child started with vfork inherits the parent's
high-water mark at exec.
"""

import json
import sys

from tracing import Tracer, instrument, vm_hwm_bytes


def main() -> int:
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from hexreg import cli

    tracer = Tracer()
    if trace:
        instrument(tracer)
    with tracer.span("cli.main", argv=argv):
        code = cli.main(argv)
    report = {"vm_hwm_bytes": vm_hwm_bytes(), "spans": tracer.spans if trace else []}
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
