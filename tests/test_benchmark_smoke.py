"""The benchmark's self-test: every workload at tiny size, traced and
untraced, with its CSV checked against the pinned digests (``run.py --smoke``)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "smoke: ok"
