"""The benchmark's own self-test runs: it drives the package through the
calls the benchmark uses (``train(...)``, ``cli.main`` and a subclass of
``ApproachEnv.reset``), so a change that breaks them fails here and not
only when the benchmark runs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    # no bytecode cache is written beside the benchmark's files
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    ok = [line for line in proc.stdout.splitlines() if line.startswith("ok ")]
    assert len(ok) == 4, proc.stdout
