import importlib.util
import os
import subprocess
import sys

import pytest

from limspace import qsp

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


def _stage_times_script(monkeypatch):
    # Loading the script pins BLAS to one thread; monkeypatch restores the
    # variables when the test ends.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location(
        "qsp_stage_times", os.path.join(ROOT, "scripts", "qsp_stage_times.py")
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_qsp_stage_times_reports_every_stage(monkeypatch):
    script = _stage_times_script(monkeypatch)
    [totals], profiles, refused = script.stage_times(range(2, 4))
    assert (profiles, refused) == (24, [0])
    assert set(totals) == set(script.STAGES)
    assert all(totals[name] > 0 for name in script.STAGES)
    assert script.limspace.qsp.find_angles is qsp.find_angles


def test_qsp_stage_times_runs_a_parent_checkout_alongside(monkeypatch, capsys):
    """--parent loads a second limspace (this checkout again here) under
    its own name; both sides time every stage and are unwrapped after."""
    script = _stage_times_script(monkeypatch)
    monkeypatch.setattr(script, "ARITIES", range(2, 4))
    try:
        script.main(["--parent", ROOT])
        parent = sys.modules[script.PARENT_NAME]
        assert parent.qsp is not qsp and parent.qsp.__name__ == "limspace_parent.qsp"
        assert parent.qsp.find_angles.__module__ == "limspace_parent.qsp"
        assert script.limspace.qsp.find_angles is qsp.find_angles
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == script.PARENT_NAME]:
            del sys.modules[name]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n=2..3  profiles=24  refused=0 (parent 0)"
    assert lines[1].split() == ["stage", "this", "parent", "ratio", "(ms/profile)"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == list(script.STAGES)
    assert all(float(x) > 0 for row in rows for x in row[1:])
