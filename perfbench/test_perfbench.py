"""Tests of the benchmark itself: smoke runs, tracer hygiene, failure accounting.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import ast
import dataclasses
import gc
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

run.use_source()

import tracing  # noqa: E402
import workloads  # noqa: E402
from twistkit.dynamics import PlaneWaveProblem  # noqa: E402
from twistkit.grassmann import GrassmannNumber  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workload_names_agree():
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(w["name"] for w in SPEC["workloads"])


def test_percentile_tail_needs_ten_samples_beyond():
    assert run.percentile_tail([1.0] * 99) is None
    p, value = run.percentile_tail([float(i) for i in range(1000)])
    assert p == 99.0 and 989 <= value <= 990


def test_speed_probe_cost_uses_samples_inside_or_around():
    probe = run.SpeedProbe()
    probe.samples = [(0.0, 1.0), (10.0, 2.0), (20.0, 4.0)]
    # the sample at 10 s ran inside the unit: its 2 s are not the unit's
    assert probe.cost(9.0, 13.0) == 1.0
    # no sample inside: the speed is the mean of the neighbours
    assert probe.cost(12.0, 14.0) == pytest.approx(2.0 / 3.0)


def test_reference_loop_runs_without_collection_and_restores_it():
    run.reference_s()
    assert gc.isenabled()
    gc.disable()
    try:
        run.reference_s()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_setup_is_scaled_by_the_reference_time_around_it(monkeypatch):
    monkeypatch.setattr(run, "reference_s", lambda: 2 * run.REF_NOMINAL_S)
    assert run.scaled_setup(lambda: 0.8) == pytest.approx((0.8, 0.4))


def test_speed_probe_samples_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with run.SpeedProbe() as probe:
        time.sleep(3 * run.REF_EVERY_S)
    assert len(probe.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def small_workloads():
    return [
        workloads.VerifyWorkload(5, groups=("clifford", "actions"), mode_cutoff=1),
        workloads.ActionWorkload(5, mode_cutoff=1, per_geometry=1),
        workloads.PlaneWaveWorkload(5, batches=2, batch=2),
    ]


@pytest.mark.parametrize("wl", small_workloads(), ids=lambda wl: wl.name)
def test_small_timed_run_is_clean(wl):
    tally, metrics, notes = run.timed_run(wl, seconds=0.05)
    assert tally.failed == 0 and tally.attempted > 0
    assert metrics["pass_ratio"][0] == 1.0
    assert metrics["unit_cost"][0] > 0


@pytest.mark.parametrize("wl", small_workloads(), ids=lambda wl: wl.name)
def test_small_traced_run_counts_whole_calls_per_round(wl, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    tally, metrics, _ = run.traced_run(wl, seconds=0.05)
    assert tally.failed == 0
    for name, (value, unit) in metrics.items():
        if name.endswith(".calls"):
            assert value == int(value), name
    solves = metrics["dynamics.solve.calls"][0]
    if wl.name == "planewave":
        assert solves == 8 * len(wl.batches[0]["dirac"])
        assert metrics["operator_algebra.compose.calls"][0] == 0
    if wl.name == "action":
        assert metrics["actions.generators"][0] > 0
        assert metrics["operator_algebra.operator_equal.calls"][0] == 0
    if wl.name == "verify":
        assert metrics["checks.group.actions.s"][0] > 0
    assert (tmp_path / f"spans-{wl.name}.npz").is_file()


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_declared_metric(trace, section):
    out = subprocess.run(
        SPEC["command"] + ["--workload", "planewave", "--seed", "2",
                           "--seconds", "0.2", "--trace", str(trace)],
        cwd=run.ROOT, check=True, capture_output=True, text=True,
    ).stdout
    result = last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_command_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ----- tracer ---------------------------------------------------------------


def bindings():
    """Every (namespace, name) -> object the tracer may patch, as it is now."""
    originals = set()
    for target in tracing.TARGETS:
        for path in target.owners:
            owner = tracing.resolve_owner(path)
            for attr in target.attrs:
                if isinstance(owner, type):
                    home = next(c for c in owner.__mro__ if attr in c.__dict__)
                    originals.add((home, attr, home.__dict__[attr]))
                else:
                    originals.add((owner, attr, owner.__dict__[attr]))
    out = {}
    for owner, attr, fn in originals:
        out[(owner, attr)] = fn
        if isinstance(owner, type):
            continue
        for module in list(sys.modules.values()):
            for key, value in list(getattr(module, "__dict__", {}).items()):
                if value is fn:
                    out[(module, key)] = fn
    return out


def current(owner, attr):
    return owner.__dict__[attr]


def test_tracer_patches_every_binding_and_restores_it():
    before = bindings()
    assert (workloads, "fermionic_action") in before
    assert (sys.modules["twistkit.checks"], "operator_equal") in before
    tracer = tracing.Tracer()
    for _ in range(2):  # a traced run enters the same tracer once per round
        with tracer:
            for (owner, attr), fn in before.items():
                assert current(owner, attr).__wrapped__ is fn, (owner, attr)
            GrassmannNumber.generator(0) * GrassmannNumber.generator(1)
        for (owner, attr), fn in before.items():
            assert current(owner, attr) is fn, (owner, attr)
    assert tracer.summary()["grassmann.mul"][0] == 2


def test_tracer_restores_after_an_exception():
    before = bindings()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            1 / 0
    assert all(current(o, a) is fn for (o, a), fn in before.items())


def test_self_time_excludes_children():
    class Fake:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    module = type(sys)("fake_layer")
    module.Fake = Fake
    sys.modules["fake_layer"] = module
    try:
        targets = (
            tracing.Target("fake.outer", ("fake_layer:Fake",), ("outer",)),
            tracing.Target("fake.inner", ("fake_layer:Fake",), ("inner",)),
        )
        with tracing.Tracer(targets) as tracer:
            Fake().outer()
    finally:
        del sys.modules["fake_layer"]
    cols = tracer.arrays()
    dur = cols["end"] - cols["start"]
    summary = tracer.summary()
    assert summary["fake.outer"][0] == 1 and summary["fake.inner"][0] == 2
    assert summary["fake.outer"][1] == pytest.approx(dur[0] - dur[1] - dur[2])
    assert list(cols["parent"]) == [-1, 0, 0]


# ----- failure accounting ---------------------------------------------------


def test_corrupted_route_value_counts_as_failure(monkeypatch):
    real = workloads.fermionic_action_quadratic

    def corrupted(*args, **kwargs):
        value = real(*args, **kwargs)
        return value + 1e-6 * GrassmannNumber.generator(0) * GrassmannNumber.generator(1)

    monkeypatch.setattr(workloads, "fermionic_action_quadratic", corrupted)
    wl = workloads.ActionWorkload(5, mode_cutoff=1, per_geometry=1)
    tally, metrics, notes = run.timed_run(wl, seconds=0.01)
    assert tally.failed >= 2
    assert metrics["pass_ratio"][0] < 1.0
    assert any(n.startswith("fail_ratio") and not n.startswith("fail_ratio 0 ") for n in notes)


def test_wrong_singular_flag_counts_as_failure(monkeypatch):
    real = PlaneWaveProblem.solve

    def no_kernel(self):
        return dataclasses.replace(real(self), kernel=())

    wl = workloads.PlaneWaveWorkload(5, batches=1, batch=4)
    singular = sum(flag for _, flag in wl.unit(0).fingerprint)
    assert singular > 0
    monkeypatch.setattr(PlaneWaveProblem, "solve", no_kernel)
    assert wl.unit(0).failed == singular


def test_failing_record_and_changed_report_count_as_failures(monkeypatch):
    real = workloads.run_checks
    calls = []

    def flaky(cfg):
        records = real(cfg)
        calls.append(cfg.seed)
        if len(calls) == 2:
            records[0] = dataclasses.replace(records[0], status="fail")
        return records

    monkeypatch.setattr(workloads, "run_checks", flaky)
    wl = workloads.VerifyWorkload(5, groups=("clifford",), mode_cutoff=1)
    tally = run.Tally()
    tally.add(0, wl.unit(0))
    assert tally.failed == 0
    tally.add(0, wl.unit(0))
    assert tally.failed == 2  # the failing record and the changed report


# ----- public surface -------------------------------------------------------


def test_benchmark_calls_only_listed_public_names():
    used = set()
    for path in HERE.glob("*.py"):
        if path.name.startswith("test_"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("twistkit"):
                module = node.module.split(".", 1)[1]
                used |= {f"{module}.{alias.name}" for alias in node.names}
    assert used == set(workloads.PUBLIC_API)
    for name in workloads.PUBLIC_API:
        module, attr = name.split(".")
        assert not attr.startswith("_")
        assert hasattr(sys.modules[f"twistkit.{module}"], attr)
