"""Shared fixtures: one full-registry run serves every test that reads it."""

import time

import pytest

from twistkit.checks import RunConfig, run_checks


@pytest.fixture(scope="session")
def seed11_run():
    """``(config, records, seconds)`` of one full-registry run at seed 11."""
    cfg = RunConfig(seed=11)
    start = time.perf_counter()
    records = run_checks(cfg)
    return cfg, records, time.perf_counter() - start
