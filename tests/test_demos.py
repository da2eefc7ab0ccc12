"""Smoke test: the demo scripts run to completion.

Each demo runs in its own interpreter with PYTHONPATH=src, as a reader
would run it, and must exit 0 with every RuntimeWarning made an error.
tracking_demo.py trains three measurement models and runs 18 filter passes,
about 5 s with one BLAS thread on a 2-core x86-64 machine; each of the
others takes well under 1 s. It is the one script outside the acceptance
tests that drives train_method and run_tracking end to end.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name", ["circular_regression", "gradient_check", "kernel_sweeps", "tracking_demo"]
)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / f"{name}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
