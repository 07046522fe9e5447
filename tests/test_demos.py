"""The fast demo scripts run to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# The four demos that take under a second (demos/README.md); 04 and 05 train
# models on paths the acceptance criteria already cover.
FAST_DEMOS = [
    "01_autodiff_basics.py",
    "02_squash_and_routing.py",
    "03_synthetic_data_and_ecap.py",
    "06_routing_benchmark.py",
]


@pytest.mark.parametrize("script", FAST_DEMOS)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
