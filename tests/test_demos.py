import os
import subprocess
import sys

import pytest

import orbitcount

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("script", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(script, tmp_path):
    src = os.path.dirname(os.path.dirname(orbitcount.__file__))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, script)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
