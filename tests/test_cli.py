"""Runner registry contract and command-line behaviour."""

import cProfile
import dataclasses
import inspect
import json
import os
import sys
import time
import warnings

import numpy as np
import pytest

import twistkit.checks
import twistkit.cli
from twistkit.checks import (
    GROUPS,
    REGISTRY,
    CheckSpec,
    RunConfig,
    SENTINEL_ERROR,
    check,
    report_document,
    report_json,
    run_checks,
)
from twistkit.cli import _resolve_run_config, build_parser
from twistkit.clifford import MAX_RAPIDITY
from twistkit.dynamics import PROBLEM_KINDS
from twistkit.operator_algebra import MAX_MODE_CUTOFF, MAX_PROBE_CUTOFF

EXPECTED_CHECK_IDS = (
    "clifford.euclidean_anticommutators",
    "clifford.minkowski_anticommutators",
    "clifford.sigma_pair_identities",
    "clifford.spin_boost_structure",
    "clifford.lorentz_extraction_routes",
    "axioms.ko_signs",
    "axioms.rho_adjoint_involution",
    "axioms.grading_relations",
    "axioms.full_axiom_suite",
    "axioms.fluctuation_round_trip",
    "manifold.integration_by_parts",
    "manifold.multiply_algebra",
    "manifold.real_closure",
    "manifold.action_closed_form",
    "manifold.selfadjoint_edge_cases",
    "doubled.action_closed_form",
    "doubled.selfadjoint_fluctuations",
    "electrodynamics.finite_part_commutes",
    "electrodynamics.finite_space_structure",
    "electrodynamics.action_closed_form",
    "actions.graded_commutativity",
    "actions.pair_form_oracle",
    "actions.operator_composition",
    "actions.term_symmetry_split",
    "actions.printed_factor_conventions",
    "actions.twisted_pairing_antisymmetry",
    "gauge.potential_shift_laws",
    "gauge.adjoint_action",
    "gauge.action_phase_absorption",
    "boost.action_invariance",
    "boost.manifold_closed_form",
    "boost.doubled_closed_form",
    "boost.electro_closed_form",
    "dynamics.determinant_kernel_duality",
    "dynamics.dispersion_surfaces",
    "dynamics.kernel_boost_covariance",
    "dynamics.euler_lagrange_consistency",
    "dynamics.boosted_reduction",
)

NEEDS_BOOST_IDS = {
    "clifford.spin_boost_structure",
    "clifford.lorentz_extraction_routes",
    "boost.action_invariance",
    "boost.manifold_closed_form",
    "boost.doubled_closed_form",
    "boost.electro_closed_form",
    "dynamics.kernel_boost_covariance",
    "dynamics.boosted_reduction",
}

#: A config file line that is a usage error, and the message it prints.
BAD_CONFIG_LINES = [
    ("rapidity_max = inf", "rapidity_max must be finite"),
    ("tolerance.actions = nan", "must be finite and positive"),
    (f"probe_cutoff = {MAX_PROBE_CUTOFF + 1}",
     f"probe_cutoff must be between 1 and {MAX_PROBE_CUTOFF}"),
    ("rapidity_max = 13", f"rapidity_max must be at most {MAX_RAPIDITY}"),
    (f"mode_cutoff = {MAX_MODE_CUTOFF + 1}",
     f"mode_cutoff must be between 1 and {MAX_MODE_CUTOFF}"),
    ("groups =", "no check groups selected"),
    ("groups = ,", "no check groups selected"),
    pytest.param("seed = 1\xff", "can't decode byte 0xff", id="not-utf8"),
    ("seed", ":1: expected key=value, got 'seed'"),
    ("tolerances = 1", "unknown config key 'tolerances'"),
    ("tolerance.boost = x", "bad tolerance value for tolerance.boost: 'x'"),
    ("tolerance.nope = 1", "tolerance override for unknown group 'nope'"),
    ("groups = nope,clifford", "unknown check groups: nope"),
    ("seed = 1.5", "invalid literal for int() with base 10: '1.5'"),
    ("rapidity_max = x", "could not convert string to float: 'x'"),
]


def assert_bad_config(run_cli, tmp_path, command, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes((line + "\n").encode("latin-1"))
    proc = run_cli(command, "--config", str(cfg))
    assert proc.returncode == 2
    assert message in proc.stderr


class TestRegistry:
    def test_frozen_id_list(self):
        assert tuple(s.check_id for s in REGISTRY) == EXPECTED_CHECK_IDS

    def test_ids_unique_and_grouped(self):
        ids = [s.check_id for s in REGISTRY]
        assert len(set(ids)) == len(ids) == 38
        for spec in REGISTRY:
            assert spec.group in GROUPS
            assert spec.check_id.partition(".")[2]

    def test_every_group_represented(self):
        present = {s.group for s in REGISTRY}
        assert present == set(GROUPS)

    def test_tolerances_positive(self):
        assert all(s.tolerance > 0 for s in REGISTRY)

    def test_costs_declared_positive(self):
        assert all(np.isfinite(s.cost) and s.cost > 0 for s in REGISTRY)

    def test_paper_refs_filled(self):
        assert all(s.paper_ref.strip() for s in REGISTRY)

    def test_boost_drawing_checks_are_declared(self):
        assert {s.check_id for s in REGISTRY if s.needs_boost} == NEEDS_BOOST_IDS

    def test_checks_are_generators(self):
        assert all(inspect.isgeneratorfunction(s.fn) for s in REGISTRY)

    def test_registration_refuses_duplicates_and_plain_functions(self):
        def residuals(rng, cfg):
            yield 0.0

        with pytest.raises(ValueError, match="duplicate"):
            check(EXPECTED_CHECK_IDS[0], 1e-12, "registered twice", cost=1.0)(residuals)
        with pytest.raises(TypeError, match="generator"):
            check("clifford.plain_function", 1e-12, "returns", cost=1.0)(lambda rng, cfg: 0.0)
        for cost in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive cost"):
                check("clifford.costless", 1e-12, "no weight", cost=cost)(residuals)
        with pytest.raises(TypeError, match="cost"):
            check("clifford.undeclared", 1e-12, "no weight")(residuals)
        assert twistkit.checks.REGISTRY == REGISTRY


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


class TestReduction:
    """The runner reduces each check's residuals once, NaN-propagating."""

    def _run(self, monkeypatch, residuals, needs_boost=False, **config):
        self.entered = False

        def fixture(rng, cfg):
            self.entered = True
            yield from residuals

        spec = CheckSpec(
            "clifford.fixture", "fixture residuals", 1e-12, fixture, needs_boost
        )
        monkeypatch.setattr(twistkit.checks, "REGISTRY", (spec,))
        cfg = RunConfig(groups=("clifford",), **config)
        (rec,) = run_checks(cfg)
        return rec, json.loads(report_json(cfg, [rec]), parse_constant=_refuse_constant)

    @pytest.mark.parametrize(
        "residuals",
        [[1e-15, float("nan")], [float("nan"), 1e-15], [1e-15, float("inf")]],
    )
    def test_non_finite_residual_fails_with_sentinel(self, monkeypatch, residuals):
        rec, doc = self._run(monkeypatch, residuals)
        assert rec.status == "fail"
        assert rec.max_abs_error == 9.9e99 == SENTINEL_ERROR
        assert doc["checks"][0]["max_abs_error"] == 9.9e99

    def test_finite_residuals_reduce_to_their_maximum(self, monkeypatch):
        rec, _ = self._run(monkeypatch, [1e-15, 3e-13, 0.0])
        assert (rec.status, rec.max_abs_error) == ("pass", 3e-13)

    def test_declared_boost_check_skips_at_zero_cap_unentered(self, monkeypatch):
        rec, doc = self._run(monkeypatch, [1e-15], needs_boost=True, rapidity_max=0.0)
        assert rec.status == doc["checks"][0]["status"] == "skip"
        assert rec.max_abs_error == SENTINEL_ERROR
        assert not self.entered

    def test_undeclared_check_yielding_nothing_fails(self, monkeypatch):
        rec, doc = self._run(monkeypatch, [], rapidity_max=0.0)
        assert rec.status == doc["checks"][0]["status"] == "fail"
        assert rec.max_abs_error == SENTINEL_ERROR
        assert self.entered


class TestRunner:
    def test_clifford_group_all_pass(self):
        records = run_checks(RunConfig(groups=("clifford",)))
        assert len(records) == 5
        assert all(r.status == "pass" for r in records)
        assert all(r.max_abs_error <= r.tolerance for r in records)

    def test_records_sorted_and_seed_echoed(self):
        records = run_checks(RunConfig(seed=11, groups=("gauge",)))
        ids = [r.check_id for r in records]
        assert ids == sorted(ids)
        assert all(r.seed == 11 for r in records)

    def test_group_filter_preserves_streams(self, seed11_run):
        """Filtering must not shift any check's random draws."""
        full = {r.check_id: r.max_abs_error for r in seed11_run[1]}
        part = run_checks(RunConfig(seed=11, groups=("dynamics",)))
        for rec in part:
            assert rec.max_abs_error == full[rec.check_id]

    def test_zero_rapidity_skips_boost_draws(self):
        records = run_checks(RunConfig(rapidity_max=0.0))
        by_status = {r.check_id: r.status for r in records}
        assert by_status["boost.action_invariance"] == "skip"
        assert by_status["clifford.spin_boost_structure"] == "skip"
        assert by_status["dynamics.kernel_boost_covariance"] == "skip"
        # the duality sweep still runs on the unboosted families
        assert by_status["dynamics.determinant_kernel_duality"] == "pass"
        skips = [r for r in records if r.status == "skip"]
        assert {r.check_id for r in skips} == NEEDS_BOOST_IDS
        assert all(r.max_abs_error == SENTINEL_ERROR for r in skips)
        assert not any(r.status == "fail" for r in records)

    def test_pass_iff_error_within_tolerance(self):
        for rec in run_checks(RunConfig(groups=("manifold", "actions"))):
            assert (rec.status == "pass") == (rec.max_abs_error <= rec.tolerance)

    def test_tolerance_override_applies(self):
        cfg = RunConfig(groups=("clifford",), tolerances={"clifford": 0.5})
        assert all(r.tolerance == 0.5 for r in run_checks(cfg))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode_cutoff": 0},
            {"probe_cutoff": 0},
            {"rapidity_max": -1.0},
            {"groups": ("clifford", "nope")},
            {"tolerances": {"nope": 1e-9}},
            {"tolerances": {"boost": 0.0}},
            {"probe_cutoff": MAX_PROBE_CUTOFF + 1},
            {"mode_cutoff": MAX_MODE_CUTOFF + 1},
            {"rapidity_max": float("nan")},
            {"rapidity_max": float("inf")},
            {"tolerances": {"boost": float("inf")}},
            {"tolerances": {"boost": float("nan")}},
            {"rapidity_max": MAX_RAPIDITY + 1},
            {"rapidity_max": 1e3},
            {"seed": -1},
            {"groups": ()},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_probe_cutoff_cap_is_accepted(self):
        assert RunConfig(probe_cutoff=MAX_PROBE_CUTOFF).probe_cutoff == MAX_PROBE_CUTOFF

    def test_duplicate_groups_kept_once_in_first_seen_order(self):
        cfg = RunConfig(groups=("gauge", "clifford", "gauge", "clifford"))
        assert cfg.groups == ("gauge", "clifford")

    def test_tolerances_are_a_fresh_dict(self):
        caller = {"clifford": 1}
        cfg = RunConfig(groups=("clifford",), tolerances=caller)
        assert cfg.tolerances == {"clifford": 1.0} and cfg.tolerances is not caller
        assert type(caller["clifford"]) is int


def _use_cpus(monkeypatch, k):
    """Make the affinity mask, and so the runner's process count, hold ``k`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


def _refuse_fork():
    raise AssertionError("the runner forked")


class TestSplitRunner:
    """The selected checks run in k shares balanced by declared cost, each
    share in registry order; k = 1 is the serial run."""

    @pytest.fixture(autouse=True)
    def no_child_outlives_the_call(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def fixture_registry(self, monkeypatch, *behaviours):
        """A registry of checks ``clifford.c0``, ``clifford.c1``, ...: a float
        is the check's one residual, a callable runs first (it may raise)."""

        def make(behaviour):
            def fixture(rng, cfg):
                if callable(behaviour):
                    behaviour()
                yield behaviour if isinstance(behaviour, float) else 0.0

            return fixture

        specs = tuple(
            CheckSpec(f"clifford.c{i}", "fixture", 1e-12, make(b))
            for i, b in enumerate(behaviours)
        )
        monkeypatch.setattr(twistkit.checks, "REGISTRY", specs)
        return RunConfig(groups=("clifford",))

    @pytest.mark.parametrize(
        "config",
        [
            {"seed": 3},
            {"seed": 11},
            {"seed": 5, "rapidity_max": 6.0, "groups": ("clifford", "boost")},
        ],
        ids=["seed3", "seed11", "rapidity6"],
    )
    def test_reports_identical_for_every_process_count(self, monkeypatch, seed11_run, config):
        cfg = RunConfig(**config)
        reports = {}
        if cfg == seed11_run[0]:  # the shared run, made with this machine's k
            shared_k = twistkit.checks._process_count(len(REGISTRY))
            reports[shared_k] = report_json(*seed11_run[:2])
        for k in {1, 2, 3} - set(reports):
            _use_cpus(monkeypatch, k)
            reports[k] = report_json(cfg, run_checks(cfg))
        assert len(set(reports.values())) == 1 and {1, 2, 3} <= set(reports)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("position", [0, 1])
    def test_raising_check_raises_in_either_process(self, monkeypatch, k, position):
        def boom():
            raise LookupError(f"c{position} raised")

        behaviours = [0.0] * 4
        behaviours[position] = boom
        cfg = self.fixture_registry(monkeypatch, *behaviours)
        _use_cpus(monkeypatch, k)
        with pytest.raises(LookupError, match=f"c{position} raised") as info:
            run_checks(cfg)
        if position % k and sys.version_info >= (3, 11):
            assert "in boom" in "".join(info.value.__notes__)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("pair", [(0, 1), (1, 2), (2, 3)])
    def test_earliest_raising_check_wins(self, monkeypatch, k, pair):
        def raiser(position):
            def boom():
                raise LookupError(f"c{position} raised")

            return boom

        behaviours = [0.0] * 4
        for position in pair:
            behaviours[position] = raiser(position)
        cfg = self.fixture_registry(monkeypatch, *behaviours)
        _use_cpus(monkeypatch, k)
        with pytest.raises(LookupError, match=f"c{pair[0]} raised"):
            run_checks(cfg)

    @staticmethod
    def _selected(groups=GROUPS):
        streams = np.random.SeedSequence(0).spawn(len(REGISTRY))
        return [
            (position, spec, stream)
            for position, (spec, stream) in enumerate(zip(REGISTRY, streams))
            if spec.group in groups
        ]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("groups", [GROUPS, GROUPS[:2] + GROUPS[3:]], ids=["all", "no-manifold"])
    def test_shares_partition_the_selection_in_registry_order(self, k, groups):
        selected = self._selected(groups)
        shares = twistkit.checks._plan_shares(selected, k)
        assert len(shares) == k and all(shares)
        positions = [[entry[0] for entry in share] for share in shares]
        assert sorted(p for share in positions for p in share) == [e[0] for e in selected]
        assert all(share == sorted(share) for share in positions)

    def test_plan_is_deterministic_and_greedy(self):
        """Longest first, ties by registry position, each to the least-loaded
        share (the first on a tie)."""
        costs = [1.0, 5.0, 3.0, 3.0, 2.0]
        selected = [
            (i, CheckSpec(f"clifford.c{i}", "fixture", 1e-12, None, cost=c), None)
            for i, c in enumerate(costs)
        ]
        plans = [twistkit.checks._plan_shares(list(selected), 2) for _ in range(3)]
        assert plans[0] == plans[1] == plans[2]
        assert [[e[0] for e in share] for share in plans[0]] == [[1, 4], [0, 2, 3]]
        full = self._selected()
        assert twistkit.checks._plan_shares(full, 2) == twistkit.checks._plan_shares(full, 2)

    def test_equal_costs_give_i_mod_k(self):
        selected = [
            (i, CheckSpec(f"clifford.c{i}", "fixture", 1e-12, None), None) for i in range(7)
        ]
        for k in (1, 2, 3):
            shares = twistkit.checks._plan_shares(selected, k)
            assert shares == [selected[share::k] for share in range(k)]

    def test_registry_split_is_balanced(self):
        """At k = 2 the registry's split is balanced within its largest cost."""
        for groups in (GROUPS, GROUPS[:2] + GROUPS[3:]):
            shares = twistkit.checks._plan_shares(self._selected(groups), 2)
            loads = [sum(e[1].cost for e in share) for share in shares]
            assert abs(loads[0] - loads[1]) <= max(s.cost for s in REGISTRY)
            assert abs(loads[0] - loads[1]) < 0.05 * sum(loads)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("pair", [(0, 3), (1, 2), (2, 3)])
    def test_earliest_raising_check_wins_under_costs(self, monkeypatch, k, pair):
        """Costs that put a later check first in a share still let the
        earliest raising check in registry order raise."""

        def raiser(position):
            def boom():
                raise LookupError(f"c{position} raised")

            return boom

        behaviours = [0.0] * 4
        for position in pair:
            behaviours[position] = raiser(position)
        cfg = self.fixture_registry(monkeypatch, *behaviours)
        weighted = tuple(
            dataclasses.replace(spec, cost=cost)
            for spec, cost in zip(twistkit.checks.REGISTRY, (1.0, 2.0, 3.0, 9.0))
        )
        monkeypatch.setattr(twistkit.checks, "REGISTRY", weighted)
        _use_cpus(monkeypatch, k)
        with pytest.raises(LookupError, match=f"c{pair[0]} raised"):
            run_checks(cfg)

    def test_exception_that_does_not_pickle_travels_as_runtime_error(self, monkeypatch):
        class Unpicklable(Exception):
            def __init__(self, a, b):
                super().__init__(a)

        def boom():
            raise Unpicklable("two", "arguments")

        cfg = self.fixture_registry(monkeypatch, 0.0, boom)
        _use_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="Unpicklable.*does not pickle"):
            run_checks(cfg)

    def test_worker_without_result_is_named(self, monkeypatch):
        parent = os.getpid()

        def vanish():
            if os.getpid() != parent:
                os._exit(0)

        cfg = self.fixture_registry(monkeypatch, 0.0, vanish, 0.0, 0.0, 0.0)
        _use_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"running clifford\.c1, clifford\.c3 exited"):
            run_checks(cfg)

    def test_interrupt_kills_the_workers(self, monkeypatch):
        parent = os.getpid()

        def interrupt_or_hang():
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        cfg = self.fixture_registry(monkeypatch, interrupt_or_hang, interrupt_or_hang)
        _use_cpus(monkeypatch, 2)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_checks(cfg)
        assert time.perf_counter() - start < 30

    def test_workers_write_nothing(self, monkeypatch, capfd):
        def boom():
            raise LookupError("c1 raised")

        cfg = self.fixture_registry(monkeypatch, 0.0, boom, 0.0, 1.0)
        _use_cpus(monkeypatch, 3)
        with pytest.raises(LookupError):
            run_checks(cfg)
        assert capfd.readouterr() == ("", "")

    def test_worker_warnings_are_shown_by_the_caller(self, monkeypatch):
        def warn():
            warnings.warn("from a worker")

        cfg = self.fixture_registry(monkeypatch, 0.0, warn)
        _use_cpus(monkeypatch, 2)
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            records = run_checks(cfg)
        assert [str(w.message) for w in shown] == ["from a worker"]
        assert [r.status for r in records] == ["pass", "pass"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="from a worker"):
                run_checks(cfg)

    def test_one_selected_check_never_forks(self, monkeypatch):
        def residual(rng, cfg):
            yield 0.0

        specs = (
            CheckSpec("clifford.only", "fixture", 1e-12, residual),
            CheckSpec("gauge.other", "fixture", 1e-12, residual),
        )
        monkeypatch.setattr(twistkit.checks, "REGISTRY", specs)
        _use_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", _refuse_fork)
        (rec,) = run_checks(RunConfig(groups=("clifford",)))
        assert rec.status == "pass"

    def test_profiled_run_never_forks(self, monkeypatch):
        cfg = self.fixture_registry(monkeypatch, 0.0, 0.0)
        _use_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", _refuse_fork)
        profile = cProfile.Profile()
        profile.enable()
        try:
            records = run_checks(cfg)
        finally:
            profile.disable()
        assert len(records) == 2


class TestReport:
    def test_json_byte_identical(self):
        cfg_a = RunConfig(seed=2, groups=("clifford", "gauge"))
        cfg_b = RunConfig(seed=2, groups=("clifford", "gauge"))
        assert report_json(cfg_a, run_checks(cfg_a)) == report_json(
            cfg_b, run_checks(cfg_b)
        )

    def test_document_zeroes_elapsed_and_sorts(self):
        cfg = RunConfig(groups=("dynamics",))
        records = run_checks(cfg)
        assert any(r.elapsed_ms > 0 for r in records)  # real timing in memory
        doc = report_document(cfg, records)
        assert all(c["elapsed_ms"] == 0.0 for c in doc["checks"])
        ids = [c["check_id"] for c in doc["checks"]]
        assert ids == sorted(ids)
        assert doc["config"]["seed"] == 0
        # strict JSON: no inf/nan anywhere
        json.dumps(doc, allow_nan=False)

    def test_record_fields(self):
        (rec,) = run_checks(RunConfig(groups=("electrodynamics",)))[:1]
        doc = report_document(RunConfig(), [rec])
        assert sorted(doc["checks"][0]) == [
            "check_id",
            "elapsed_ms",
            "max_abs_error",
            "paper_ref",
            "seed",
            "status",
            "tolerance",
        ]


class TestVerifyCommand:
    def test_unknown_group_usage_error(self, run_cli):
        proc = run_cli("verify", "--groups", "foo", spawn=True)
        assert proc.returncode == 2
        assert "unknown check groups" in proc.stderr

    @pytest.mark.parametrize("value", [",", "", " , "])
    def test_empty_group_selection_usage_error(self, run_cli, value):
        proc = run_cli("verify", "--groups", value)
        assert proc.returncode == 2
        assert "no check groups selected" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_group_run_exits_zero(self, run_cli, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("verify", "--groups", "clifford", "--json", str(out))
        assert proc.returncode == 0
        assert "5 checks: 5 passed, 0 failed, 0 skipped" in proc.stdout
        doc = json.loads(out.read_text())
        assert len(doc["checks"]) == 5

    @pytest.mark.parametrize("target", ["{tmp}", "{tmp}/missing/x.json", ""])
    def test_unwritable_json_path_usage_error(self, run_cli, tmp_path, monkeypatch, target):
        def refuse(cfg):
            raise AssertionError("checks ran before the report path was opened")

        monkeypatch.setattr(twistkit.cli, "run_checks", refuse)
        proc = run_cli("verify", "--json", target.format(tmp=tmp_path))
        assert proc.returncode == 2
        assert "cannot write the JSON report" in proc.stderr

    def test_duplicate_groups_write_the_single_group_report(self, run_cli, tmp_path):
        once, twice = tmp_path / "once.json", tmp_path / "twice.json"
        assert run_cli("verify", "--groups", "clifford", "--json", str(once)).returncode == 0
        argv = ("verify", "--groups", "clifford,clifford", "--json", str(twice))
        assert run_cli(*argv).returncode == 0
        assert twice.read_bytes() == once.read_bytes()

    def test_json_reports_byte_identical_across_runs(self, run_cli, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ("verify", "--groups", "gauge", "--seed", "6")
        assert run_cli(*argv, "--json", str(out1), spawn=True).returncode == 0
        assert run_cli(*argv, "--json", str(out2), spawn=True).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_precedence_flag_over_env(self, run_cli):
        proc = run_cli(
            "verify", "--groups", "clifford", "--seed", "5",
            env_extra={"TWISTKIT_SEED": "77"},
        )
        assert "seed=5" in proc.stdout.splitlines()[0]

    def test_seed_from_environment(self, run_cli):
        proc = run_cli(
            "verify", "--groups", "clifford",
            env_extra={"TWISTKIT_SEED": "77"}, spawn=True,
        )
        assert "seed=77" in proc.stdout.splitlines()[0]

    def test_config_file_layer(self, run_cli, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "seed = 9\ngroups = clifford\ntolerance.clifford = 1e-10\n# note\n"
        )
        proc = run_cli("verify", "--config", str(cfg))
        assert proc.returncode == 0
        head = proc.stdout.splitlines()[0]
        assert "seed=9" in head and "groups=clifford" in head

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rapidity_usage_error(self, run_cli, value):
        proc = run_cli("verify", "--rapidity", value)
        assert proc.returncode == 2
        assert "rapidity_max must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("line, message", BAD_CONFIG_LINES)
    def test_bad_config_value_usage_error(self, run_cli, tmp_path, line, message):
        assert_bad_config(run_cli, tmp_path, "verify", line, message)

    @pytest.mark.parametrize(
        "value, message",
        [("x", "invalid literal for int() with base 10: 'x'"), ("-3", "seed must be non-negative")],
    )
    @pytest.mark.parametrize("command", ["verify", "action"])
    def test_bad_environment_seed_usage_error(self, run_cli, command, value, message):
        proc = run_cli(command, env_extra={"TWISTKIT_SEED": value})
        assert proc.returncode == 2
        assert message in proc.stderr

    @pytest.mark.parametrize("value", ["12.5", "15", "20", "1e3"])
    def test_rapidity_above_cap_usage_error(self, run_cli, value):
        proc = run_cli("verify", "--groups", "boost", "--rapidity", value)
        assert proc.returncode == 2
        assert f"rapidity_max must be at most {MAX_RAPIDITY}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("seed", range(5))
    def test_rapidity_at_cap_runs_without_traceback(self, run_cli, seed):
        # boosted quantities outgrow their absolute gates long before the
        # cap, so checks may fail here; the run itself must not crash
        proc = run_cli(
            "verify", "--groups", "clifford,dynamics,boost",
            "--rapidity", str(MAX_RAPIDITY), "--seed", str(seed),
        )
        assert proc.returncode in (0, 1)
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["verify", "action"])
    @pytest.mark.parametrize("value", [str(MAX_MODE_CUTOFF + 1), "100000000000000000000"])
    def test_mode_cutoff_above_cap_usage_error(self, run_cli, command, value):
        proc = run_cli(command, "--mode-cutoff", value)
        assert proc.returncode == 2
        assert f"mode_cutoff must be between 1 and {MAX_MODE_CUTOFF}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_mode_cutoff_at_cap_runs_without_traceback(self, run_cli):
        # the absolute gates fail far below the cap; the draws must not raise
        proc = run_cli("verify", "--groups", "axioms", "--mode-cutoff", str(MAX_MODE_CUTOFF))
        assert proc.returncode in (0, 1)
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["verify", "action"])
    def test_negative_seed_usage_error(self, run_cli, command):
        proc = run_cli(command, "--seed", "-1")
        assert proc.returncode == 2
        assert "seed must be non-negative" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_config_key_usage_error(self, run_cli, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("volume = 11\n")
        proc = run_cli("verify", "--config", str(cfg))
        assert proc.returncode == 2
        assert "unknown config key" in proc.stderr


class TestRunSettings:
    """``RunConfig`` is the one home of the run settings: the command line
    layers the environment, the config file and the flags over it."""

    @staticmethod
    def resolve(monkeypatch, *argv, seed_env=None):
        monkeypatch.delenv("TWISTKIT_SEED", raising=False)
        if seed_env is not None:
            monkeypatch.setenv("TWISTKIT_SEED", seed_env)
        return _resolve_run_config(build_parser().parse_args(argv))

    @pytest.mark.parametrize("command", ["verify", "action"])
    def test_bare_command_gives_the_defaults(self, monkeypatch, command):
        assert self.resolve(monkeypatch, command) == RunConfig()

    @pytest.mark.parametrize("command", ["verify", "action"])
    def test_environment_seed_alone(self, monkeypatch, command):
        assert self.resolve(monkeypatch, command, seed_env="77") == RunConfig(seed=77)

    @pytest.mark.parametrize("command", ["verify", "action"])
    def test_flag_over_file_over_environment(self, monkeypatch, tmp_path, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "seed = 9\nmode_cutoff = 3\nprobe_cutoff = 2\nrapidity_max = 1.5\n"
            "groups = boost, clifford\ntolerance.boost = 1e-8\n"
        )
        from_file = RunConfig(
            seed=9, mode_cutoff=3, probe_cutoff=2, rapidity_max=1.5,
            groups=("boost", "clifford"), tolerances={"boost": 1e-8},
        )
        argv = (command, "--config", str(cfg))
        assert self.resolve(monkeypatch, *argv, seed_env="77") == from_file
        flags = ("--seed", "5", "--mode-cutoff", "4")
        assert self.resolve(monkeypatch, *argv, *flags, seed_env="77") == dataclasses.replace(
            from_file, seed=5, mode_cutoff=4
        )

    def test_verify_flags_over_file(self, monkeypatch, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rapidity_max = 1.5\ngroups = boost\n")
        argv = ("verify", "--config", str(cfg), "--rapidity", "0.5", "--groups", "gauge")
        assert self.resolve(monkeypatch, *argv) == RunConfig(rapidity_max=0.5, groups=("gauge",))


def _weyl_doc(mode=(0, 0, 0, 1), amplitude=((1, 0), (0, 1)), f=None) -> bytes:
    """A two-field Weyl file whose first term has ``mode`` and ``amplitude``."""
    first = {"mode": list(mode), "amplitude": amplitude}
    second = {"mode": [0, 0, 0, -1], "amplitude": [[1, 0], [0, 1]]}
    return json.dumps({"fields": [[first], [second]], "f": f}).encode()


class TestActionCommand:
    def test_zero_input_zero_action(self, run_cli, tmp_path):
        data = tmp_path / "zero.json"
        data.write_text('{"fields": [[], []]}')
        proc = run_cli("action", "--weyl-file", str(data))
        assert proc.returncode == 0
        assert "action: 0" in proc.stdout
        assert "comparison error: 0.000e+00" in proc.stdout

    def test_seeded_manifold_within_tolerance(self, run_cli):
        proc = run_cli("action", "--geometry", "manifold", "--seed", "5")
        assert proc.returncode == 0
        assert "degree-two coefficients" in proc.stdout
        error = float(proc.stdout.rsplit("comparison error:", 1)[1])
        assert error <= 1e-10

    @pytest.mark.parametrize(
        "geometry, group",
        [("manifold", "manifold"), ("doubled", "doubled"), ("electro", "electrodynamics")],
    )
    def test_gate_is_the_closed_form_check_tolerance(self, run_cli, tmp_path, geometry, group):
        """The closed-form spread meets the registry gate of the geometry's
        ``<group>.action_closed_form`` check, with the run's overrides."""
        tight, other = tmp_path / "tight.cfg", tmp_path / "other.cfg"
        tight.write_text(f"tolerance.{group} = 1e-30\n")
        other.write_text("tolerance.clifford = 1e-30\n")
        argv = ("action", "--geometry", geometry, "--seed", "5")
        assert run_cli(*argv).returncode == 0
        assert run_cli(*argv, "--config", str(other)).returncode == 0
        proc = run_cli(*argv, "--config", str(tight))
        assert proc.returncode == 1
        assert float(proc.stdout.rsplit("comparison error:", 1)[1]) > 1e-30

    @pytest.mark.parametrize("line, message", BAD_CONFIG_LINES)
    def test_bad_config_value_usage_error(self, run_cli, tmp_path, line, message):
        assert_bad_config(run_cli, tmp_path, "action", line, message)

    def test_listed_count_ignores_rounding_residues(self, run_cli):
        """Structurally zero pairings are not listed as nonzero coefficients."""
        proc = run_cli("action", "--geometry", "manifold", "--seed", "1")
        assert proc.returncode == 0
        assert "generators: 16" in proc.stdout
        assert "degree-two coefficients (24 nonzero):" in proc.stdout

    def test_electro_four_term_decomposition(self, run_cli):
        proc = run_cli("action", "--geometry", "electro", "--d", "1j", "--seed", "3")
        assert proc.returncode == 0
        for name in ("derivative", "chiral", "vector", "mass"):
            assert name in proc.stdout
        residual = float(
            proc.stdout.rsplit("piece-sum residual:", 1)[1].split()[0]
        )
        assert residual <= 1e-10

    def test_explicit_weyl_file(self, run_cli, tmp_path):
        data = tmp_path / "pair.json"
        data.write_text(
            json.dumps(
                {
                    "fields": [
                        [{"mode": [0, 0, 0, 1], "amplitude": [[1.0, 0.0], [0.5, -0.5]]}],
                        [{"mode": [0, 0, 0, -1], "amplitude": [[0.0, 1.0], [1.0, 0.0]]}],
                    ],
                    "f": [[{"mode": [0, 0, 0, 0], "value": [0.7, 0.0]}], [], [], []],
                }
            )
        )
        proc = run_cli("action", "--weyl-file", str(data))
        assert proc.returncode == 0
        assert "generators: 4" in proc.stdout

    def test_non_finite_file_value_usage_error(self, run_cli, tmp_path):
        data = tmp_path / "nan.json"
        data.write_text(
            '{"fields": [[{"mode": [0,0,0,1], "amplitude": [[NaN, 0], [1, 0]]}], []]}'
        )
        proc = run_cli("action", "--weyl-file", str(data))
        assert proc.returncode == 2
        assert "must be finite" in proc.stderr

    @pytest.mark.parametrize(
        "body, message",
        [
            (_weyl_doc(mode=[0, 0, 0.5, 1]), "four integers of size at most"),
            (_weyl_doc(mode=[0, 0, True, 1]), "four integers of size at most"),
            (b'{"fields": [[{"mode": [0, 0, 0, 1e400], "amplitude": [[1, 0], [0, 1]]}], []]}',
             "four integers of size at most"),
            (_weyl_doc(mode=[0, 0, 0, 10**400]), "four integers of size at most"),
            (_weyl_doc(mode=[0, 0, 0, MAX_MODE_CUTOFF + 1]), "four integers of size at most"),
            (_weyl_doc(amplitude=[[10**400, 0], [1, 0]]), "bad term in fields[0]"),
            (_weyl_doc(f=[[{"mode": [0, 0, 0, 0], "value": [10**400, 0]}], [], [], []]),
             "bad term in f[0]"),
            (b'{"fields": [[], []]}\xff', "can't decode byte 0xff"),
            (_weyl_doc(amplitude=[["1", 0], [0, 1]]), "pairs of shape (2,) as its amplitude"),
            (_weyl_doc(amplitude=[[" 2 ", 0], [0, 1]]), "pairs of shape (2,) as its amplitude"),
            (_weyl_doc(amplitude=[[1, 0], [0, True]]), "pairs of shape (2,) as its amplitude"),
            (_weyl_doc(f=[[{"mode": [0, 0, 0, 0], "value": ["1", 0]}], [], [], []]),
             "pairs of shape () as its value"),
            (_weyl_doc(f=[[{"mode": [0, 0, 0, 0], "value": [" 2 ", 0]}], [], [], []]),
             "pairs of shape () as its value"),
            (_weyl_doc(f=[[{"mode": [0, 0, 0, 0], "value": [True, 0]}], [], [], []]),
             "pairs of shape () as its value"),
        ],
        ids=[
            "mode-half", "mode-true", "mode-1e400", "mode-10**400", "mode-above-cap",
            "amplitude-10**400", "value-10**400", "not-utf8",
            "amplitude-string", "amplitude-padded-string", "amplitude-true",
            "value-string", "value-padded-string", "value-true",
        ],
    )
    def test_bad_weyl_file_number_usage_error(self, run_cli, tmp_path, body, message):
        data = tmp_path / "bad.json"
        data.write_bytes(body)
        proc = run_cli("action", "--weyl-file", str(data))
        assert proc.returncode == 2
        assert message in proc.stderr

    def test_integral_float_mode_reads_as_its_integer(self, run_cli, tmp_path):
        data = tmp_path / "modes.json"
        runs = []
        for mode in ([0, 0, 0, 1], [0, 0, 0, 1.0], [0, 0, 0, MAX_MODE_CUTOFF]):
            data.write_bytes(_weyl_doc(mode=mode))
            runs.append(run_cli("action", "--weyl-file", str(data)))
        assert runs[1].stdout == runs[0].stdout
        assert runs[2].returncode == 0

    def test_overflowing_action_usage_error(self, run_cli, tmp_path):
        """Finite amplitudes whose action overflows are refused, not passed."""
        data = tmp_path / "huge.json"
        term = {"amplitude": [[1e200, 0], [1e200, 0]]}
        data.write_text(
            json.dumps(
                {"fields": [[{"mode": [0, 0, 0, 1], **term}], [{"mode": [0, 0, 0, -1], **term}]]}
            )
        )
        proc = run_cli("action", "--weyl-file", str(data))
        assert proc.returncode == 2
        assert "engine action is not finite" in proc.stderr
        assert "coefficients" not in proc.stdout

    def test_malformed_file_usage_error(self, run_cli, tmp_path):
        data = tmp_path / "broken.json"
        data.write_text('{"fields": [[{"mode": [0,0,0]}], []]}')
        proc = run_cli("action", "--weyl-file", str(data), spawn=True)
        assert proc.returncode == 2

    def test_wrong_field_count_usage_error(self, run_cli, tmp_path):
        data = tmp_path / "short.json"
        data.write_text('{"fields": [[]]}')
        proc = run_cli("action", "--geometry", "electro", "--weyl-file", str(data))
        assert proc.returncode == 2
        assert "exactly 4" in proc.stderr


class TestDispersionCommand:
    def test_weyl_left_contract_example(self, run_cli):
        proc = run_cli(
            "dispersion", "--kind", "weyl-left", "--f0", "1", "--p", "0,0,0,1"
        )
        assert proc.returncode == 0
        assert "determinant: +0+0j" in proc.stdout
        assert "-1+0j" in proc.stdout  # the admissible p0 = -1 root
        kernel_line = proc.stdout.strip().splitlines()[-1]
        a, b = [complex(part) for part in
                kernel_line.strip(" []").replace("j,", "j|").split("|")]
        assert abs(a) < 1e-12 and abs(abs(b) - 1.0) < 1e-12

    def test_rest_frame_massive_roots(self, run_cli):
        proc = run_cli("dispersion", "--kind", "dirac", "--d", "1j", "--p", "0,0,0,0")
        assert proc.returncode == 0
        assert "+1+0j" in proc.stdout and "-1-0j" in proc.stdout

    def test_boosted_identity_matches_flat(self, run_cli):
        flat = run_cli(
            "dispersion", "--kind", "weyl-left", "--f0", "1", "--p", "0,0,0,1"
        )
        boosted = run_cli(
            "dispersion", "--kind", "boosted-weyl-left", "--f0", "1", "--p", "0,0,0,1"
        )
        flat_body = flat.stdout.split("\n", 1)[1]
        boosted_body = boosted.stdout.split("\n", 1)[1]
        assert flat_body == boosted_body

    @pytest.mark.parametrize(
        "argv",
        [
            ("--kind", "dirac", "--d", "nan+0j"),
            ("--kind", "weyl-left", "--f0", "nan"),
            ("--kind", "weyl-left", "--p", "0,inf,0,0"),
            ("--kind", "boosted-weyl-left", "--rapidity", "inf"),
        ],
    )
    def test_non_finite_usage_error(self, run_cli, argv):
        proc = run_cli("dispersion", *argv)
        assert proc.returncode == 2
        assert "must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("kind", PROBLEM_KINDS)
    @pytest.mark.parametrize(
        "argv",
        [
            ("--p", "0,1.7e308,0,0", "--g", "0,1.7e308,0,0"),
            ("--rapidity", "12", "--p", "1e305,1e305,1e305,1e305"),
            ("--p", "0,1e308,1e308,0"),
            ("--f", "1e308,1e308,0,0"),
        ],
    )
    def test_overflowing_system_usage_error(self, run_cli, kind, argv):
        proc = run_cli("dispersion", "--kind", kind, *argv)
        assert proc.returncode == 2
        assert "overflows double precision" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("--kind", "boosted-weyl-left", "--rapidity", "1e3"),
            ("--kind", "boosted-dirac", "--rapidity", "1e3"),
            ("--kind", "boosted-weyl-left", "--rapidity", "-13"),
            ("--kind", "boosted-dirac", "--rapidity", "12.5"),
        ],
    )
    def test_rapidity_above_cap_usage_error(self, run_cli, argv):
        proc = run_cli("dispersion", *argv)
        assert proc.returncode == 2
        assert f"|--rapidity| must be at most {MAX_RAPIDITY}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("kind", ["boosted-weyl-left", "boosted-dirac"])
    @pytest.mark.parametrize("rapidity", [MAX_RAPIDITY, -MAX_RAPIDITY])
    def test_rapidity_at_cap_solves(self, run_cli, kind, rapidity):
        proc = run_cli(
            "dispersion", "--kind", kind, "--rapidity", str(rapidity),
            "--f0", "1", "--p", "0,0,0,1", "--d", "1j",
        )
        assert proc.returncode == 0, proc.stderr
        assert "determinant:" in proc.stdout

    @pytest.mark.parametrize("axis", ["1e200,1e200,0", "1e-200,1e-200,0"])
    def test_extreme_axis_scale_solves_like_unit_axis(self, run_cli, axis):
        argv = ("dispersion", "--kind", "boosted-weyl-left", "--rapidity", "1",
                "--p", "0,0.4,0,1")
        unit = run_cli(*argv, "--axis", "1,1,0")
        scaled = run_cli(*argv, "--axis", axis)
        assert unit.returncode == scaled.returncode == 0, scaled.stderr
        assert "determinant: -1.16" in unit.stdout
        assert scaled.stdout.split("\n", 1)[1] == unit.stdout.split("\n", 1)[1]

    def test_malformed_vector_usage_error(self, run_cli):
        proc = run_cli("dispersion", "--kind", "weyl-left", "--p", "1,2", spawn=True)
        assert proc.returncode == 2

    def test_unknown_kind_usage_error(self, run_cli):
        for kind in ("tachyon", "boosted-weyl"):  # the left boosted kind has no alias
            proc = run_cli("dispersion", "--kind", kind)
            assert proc.returncode == 2
            assert "Traceback" not in proc.stderr

    def test_kind_choices_are_the_problem_kinds(self):
        (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
        (kind,) = [a for a in sub.choices["dispersion"]._actions if a.dest == "kind"]
        assert tuple(kind.choices) == PROBLEM_KINDS
