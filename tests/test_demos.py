"""Smoke test: the demos run to completion without writing to stderr.

Demo 04 trains for about 6 s, so it is left out to keep the suite fast;
demo 06 covers the same training entry point at a smaller budget.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = [
    "01_vehicle_sim.py",
    "02_environment_reward.py",
    "03_scripted_oracle.py",
    "05_deploy_emulation.py",
    "06_metrics_and_plot.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp_path)  # demo 06 writes its run directory under it
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
