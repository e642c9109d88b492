"""Smoke runs of the scripts in ``scripts/`` at their smallest settings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )


@pytest.mark.parametrize(
    "name, argv, marker",
    [
        ("boost_sweep.py", ("--max", "1", "--steps", "1"), "rapidity"),
        ("run_verification.py", ("--seeds", "1", "--groups", "clifford"), "no failures."),
        ("dispersion_scan.py", ("--steps", "3"), "exact root"),
    ],
)
def test_script_runs(name, argv, marker):
    proc = run_script(name, *argv)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert marker in proc.stdout


@pytest.mark.parametrize(
    "name, argv",
    [
        ("run_verification.py", ("--rapidity", "20", "--seeds", "1", "--groups", "clifford")),
        ("run_verification.py", ("--groups", "bogus", "--seeds", "1")),
        ("run_verification.py", ("--seeds", "-2")),
        ("run_verification.py", ("--seeds", "0")),
        ("run_verification.py", ("--start", "-1", "--seeds", "1", "--groups", "clifford")),
        ("boost_sweep.py", ("--steps", "0")),
        ("boost_sweep.py", ("--axis", "0,0,0")),
        ("boost_sweep.py", ("--max", "1e3")),
        ("boost_sweep.py", ("--max", "nan")),
        ("boost_sweep.py", ("--seed", "-1")),
        ("dispersion_scan.py", ("--steps", "-1")),
        ("dispersion_scan.py", ("--axis", "0,0,0")),
        ("dispersion_scan.py", ("--p", "1,2")),
        ("dispersion_scan.py", ("--rapidity", "1e3")),
        ("dispersion_scan.py", ("--d", "nan")),
    ],
)
def test_bad_argv_is_usage_error(name, argv):
    proc = run_script(name, *argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr
