"""Smoke runs of the scripts in ``scripts/`` at their smallest settings."""

import math

import pytest

from twistkit.dynamics import PROBLEM_KINDS


@pytest.mark.parametrize(
    "name, argv, marker",
    [
        ("boost_sweep.py", ("--max", "1", "--steps", "1"), "rapidity"),
        ("run_verification.py", ("--seeds", "1", "--groups", "clifford"), "no failures."),
        ("dispersion_scan.py", ("--steps", "3"), "exact root"),
        ("run_verification.py", ("--seeds", "1", "--groups", "clifford, actions"), "no failures."),
        ("dispersion_scan.py", ("--kind", "boosted-weyl-left", "--steps", "3"), "exact root"),
    ],
)
def test_script_runs(run_script, name, argv, marker):
    proc = run_script(name, *argv)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert marker in proc.stdout


def test_boost_sweep_reduction_columns_are_at_rounding_level(run_script):
    proc = run_script("boost_sweep.py", "--max", "1", "--steps", "1")
    assert proc.returncode == 0, proc.stderr
    _, header, *rows = proc.stdout.splitlines()
    assert len(rows) == 1
    cells = dict(zip(header.split(), rows[0].split()))
    for column in ("weyl-red", "dirac-red"):
        value = float(cells[column])
        assert math.isfinite(value) and value < 1e-9, (column, value)


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
        ("dispersion_scan.py", ("--kind", "boosted-weyl")),
        ("run_verification.py", ("--groups", "", "--seeds", "1")),
        ("dispersion_scan.py", ("--steps", "1000000000000")),
        ("dispersion_scan.py", ("--p", "0,1e308,1e308,0", "--steps", "3")),
        ("dispersion_scan.py", ("--kind", "dirac", "--d", "1e308", "--steps", "3")),
        ("run_verification.py", ("--seeds", "1000000000000")),
        ("boost_sweep.py", ("--steps", "1000000000000")),
    ],
)
def test_bad_argv_is_usage_error(run_script, name, argv):
    proc = run_script(name, *argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


@pytest.mark.parametrize(
    "name, argv",
    [
        ("boost_sweep.py", ("--steps", "0")),
        ("dispersion_scan.py", ("--steps", "-1")),
        ("run_verification.py", ("--seeds", "0")),
    ],
)
def test_script_runs_as_a_program(run_script, name, argv):
    proc = run_script(name, *argv, spawn=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_verification_refuses_empty_group_selection(run_script):
    proc = run_script("run_verification.py", "--groups", ",", "--seeds", "1")
    assert proc.returncode == 2
    assert "error: no check groups selected" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("--kind", "weyl-left", "--p", "0,0,0,0", "--steps", "5"),
        ("--kind", "dirac", "--d", "1+0j", "--p", "0,0,0,0", "--steps", "5"),
    ],
)
def test_dispersion_scan_grid_spreads_without_real_roots(run_script, argv):
    """Every closed-form root has real part 0 here; the grid still spans p0."""
    proc = run_script("dispersion_scan.py", *argv)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.split("\n\n")[0].splitlines()[2:]
    p0 = [float(row.split()[0]) for row in rows]
    assert len(p0) == 5 and len(set(p0)) == 5


def test_dispersion_scan_kinds_are_the_problem_kinds(run_script):
    proc = run_script("dispersion_scan.py", "--kind", "tachyon")
    assert proc.returncode == 2
    listed = proc.stderr.split("choose from ", 1)[1].split(")", 1)[0]
    assert tuple(k.strip(" '") for k in listed.split(",")) == PROBLEM_KINDS
