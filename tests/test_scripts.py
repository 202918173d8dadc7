"""The experiment scripts run end to end on tiny arguments.

They import only from the package namespace, so these runs also guard
what affinecost/__init__.py exports.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_script(name, *args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def _first_fields(stdout):
    return [line.split()[0] for line in stdout.splitlines() if line.strip()]


def test_invariance_suite_prints_one_row_per_selector():
    proc = _run_script("run_invariance_suite.py", "--trials", "2", "--dims", "1", "2")
    assert proc.returncode == 0, proc.stderr
    rows = _first_fields(proc.stdout)[3:]  # after the settings, header and rule lines
    assert rows == ["det", "qdet:0.5", "qdet:1", "qdet:2", "trace", "identity"]
    assert proc.stdout.splitlines()[0] == "dims=[1, 2] trials=2 seed=0 rel_tol=1e-08"


def test_mcd_equivariance_demo_prints_one_row_per_cost():
    proc = _run_script("mcd_equivariance_demo.py", "--trials", "3", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "trials=3 seed=5"
    assert _first_fields(proc.stdout)[1:] == ["det:", "qdet:1:", "trace:"]
    # The determinant cost is affine equivariant, so its argmin survives.
    assert lines[1].endswith("preserved in 3/3 trials")
