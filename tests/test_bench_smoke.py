"""The benchmark harness runs end to end on the current library."""

import json
from pathlib import Path
import subprocess
import sys

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke():
    # every workload at tiny size, traced and untraced, every metric named
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = proc.stdout.strip().splitlines()[-1]
    assert json.loads(last) == {"smoke": "ok", "problems": 0}
