import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "args",
    [["--mc-n", "5"], ["--family", "slsb", "--mc-n", "1"], ["--mc-n", "30"]],
)
def test_noise_threshold_rejects_an_arity_the_family_lacks(args):
    """A usage error before the crossover table, not a traceback after it."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "noise_threshold.py"), *args],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error: --mc-n" in proc.stderr and "Traceback" not in proc.stderr
