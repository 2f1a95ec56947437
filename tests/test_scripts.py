"""Smoke runs of the experiment scripts at a tiny size, each in a fresh
interpreter with the package source on PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], capture_output=True, text=True, env=env,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_embedding_equivalence_one_row_per_family():
    rows = _run_script("embedding_equivalence.py", "--batch", "1")
    assert [row.split()[0] for row in rows] == [
        "extremal(r=2)", "extremal(r=4)", "power(m=1)", "power(m=2)"]
    assert all("spread=" in row for row in rows)


def test_conjugate_asymptotics_one_row_per_y():
    header, *rows = _run_script("conjugate_asymptotics.py", "--m", "1",
                                "--points", "2")
    assert header.split() == ["y", "ratio_m=1"]
    assert [float(row.split()[0]) for row in rows] == [10.0, 1e4]
    assert all(len(row.split()) == 2 for row in rows)
