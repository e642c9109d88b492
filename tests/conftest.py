"""Shared fixtures: one full-registry run serves every test that reads it, one
runner serves every test of the command line and of the scripts, one helper
runs a registry check wherever a test asserts that check's claim, and one
trace-form oracle reads Pauli components for the Clifford and geometry tests."""

import functools
import importlib.util
import subprocess
import sys
import time
import warnings
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from twistkit import cli
from twistkit.checks import REGISTRY, RunConfig, reduce_residuals, run_checks
from twistkit.clifford import PAULI

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# Every run draws the same examples; ``--hypothesis-profile default`` draws
# fresh ones.
settings.register_profile("replayable", derandomize=True, database=None)
settings.load_profile("replayable")

SPECS = {spec.check_id: spec for spec in REGISTRY}


def pauli_components_reference(x):
    """The trace form over the last two axes: the oracle for
    ``clifford.pauli_components``' entry-by-entry read."""
    c0 = np.trace(x, axis1=-2, axis2=-1) / 2.0
    cj = [np.trace(PAULI[j] @ x, axis1=-2, axis2=-1) / 2.0 for j in range(3)]
    return np.stack([c0, *cj], axis=-1)


def check_error(check_id, gate, rng, runs=1):
    """The error of ``runs`` runs of registry check ``check_id`` on the one
    stream ``rng``, reduced by the runner's own reduction.  An unknown id is a
    ``KeyError`` and a gate looser than the check's registry tolerance a
    ``ValueError``."""
    spec = SPECS[check_id]
    if not gate <= spec.tolerance:
        raise ValueError(f"gate {gate:g} is looser than {check_id}'s {spec.tolerance:g}")
    cfg = RunConfig()
    return reduce_residuals(chain.from_iterable(spec.fn(rng, cfg) for _ in range(runs)))


@pytest.fixture(scope="session")
def seed11_run():
    """``(config, records, seconds)`` of one full-registry run at seed 11."""
    cfg = RunConfig(seed=11)
    start = time.perf_counter()
    records = run_checks(cfg)
    return cfg, records, time.perf_counter() - start


def _run(capsys, main, command, *argv, env_extra=None, spawn=False):
    """``main(argv)`` in this process with warnings raised as errors, or with
    ``spawn`` ``python *command *argv`` in a fresh one.  A usage error (exit 2)
    prints nothing but one ``error:`` line, on stderr."""
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.delenv("TWISTKIT_SEED", raising=False)
        for key, value in (env_extra or {}).items():
            mp.setenv(key, value)
        if spawn:
            args = [sys.executable, *command, *argv]
            proc = subprocess.run(args, capture_output=True, text=True)
        else:
            capsys.readouterr()
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            proc = subprocess.CompletedProcess(argv, code, *capsys.readouterr())
    if proc.returncode == 2:
        assert proc.stdout == "", proc.stdout
        assert sum("error:" in line for line in proc.stderr.splitlines()) == 1, proc.stderr
    return proc


@functools.cache
def _script_main(name):
    """The ``main`` of ``scripts/<name>``, loaded once from its path."""
    spec = importlib.util.spec_from_file_location(name[:-3], SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.fixture
def run_cli(capsys):
    """``twistkit *argv``; ``spawn=True`` runs ``python -m twistkit``."""
    return functools.partial(_run, capsys, cli.main, ("-m", "twistkit"))


@pytest.fixture
def run_script(capsys):
    """``scripts/<name> *argv``; ``spawn=True`` runs the script as a program."""
    return lambda name, *argv, spawn=False: _run(
        capsys, _script_main(name), (str(SCRIPTS / name),), *argv, spawn=spawn
    )
