"""Smoke test: the demos run to completion without writing to stderr,
and the deterministic ones print the same bytes as ever.

Demo 04 trains for about 6 s, so it is left out to keep the suite fast;
demo 06 covers the same training entry point at a smaller budget. Demo
06 prints the path of its temporary run directory, so its output is not
pinned.
"""

import hashlib
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

# sha256 of each pinned demo's stdout; a change that moves an output bit
# of the package shows here first
STDOUT_SHA256 = {
    "01_vehicle_sim.py": "ec6128521fa288bd155d19f394b51ada5c75f668339fbba5420fe7651b1a2691",
    "02_environment_reward.py": "d8892e9be35351fe56e88bb4f7dae6cea434420f822a3ca4184de3110ad3acf0",
    "03_scripted_oracle.py": "6b8639f96595189fa8f5427a473712a467208a9b6fb6a8a400b5251975af635d",
    "05_deploy_emulation.py": "8f3888c96ba6e924b810ee2a252d0a48c149ef2ef3c3d9800e82c94e80b271c3",
}


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
    if demo in STDOUT_SHA256:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo]
