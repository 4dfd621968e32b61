"""The benchmark's smoke pass runs against this checkout's sources.

bench/run.py --smoke runs every workload at tiny sizes, untraced and
traced, through the checks the timed runs make, so a program change that
breaks a call or a traced name the benchmark relies on fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stderr
