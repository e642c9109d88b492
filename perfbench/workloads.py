"""The benchmark's workloads: inputs drawn from a seed, units that check themselves.

Each workload draws its inputs from the workload seed when it is built
(that is the set-up the benchmark times) and then runs numbered units.
``unit(i)`` runs one unit, checks the program's outputs and returns an
:class:`Outcome`; running the same ``i`` again must reproduce the same
``fingerprint`` exactly.  A unit is built to cost about the same whatever
``i`` is, so that the median unit time is a steady figure.

Only the names in :data:`PUBLIC_API` are called, so refactors of the
package's private helpers do not break the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from twistkit.actions import (
    boosted_doubled_lagrangian_action,
    boosted_electro_lagrangian_action,
    boosted_manifold_lagrangian_action,
    doubled_lagrangian_action,
    electro_lagrangian_action,
    fermionic_action,
    fermionic_action_quadratic,
    manifold_lagrangian_action,
    overlapping_action_inputs,
    promote_weyl_fields,
    route_spread,
)
from twistkit.checks import GROUPS, RunConfig, report_json, run_checks
from twistkit.clifford import SpinBoost
from twistkit.dynamics import PROBLEM_KINDS, on_shell_problem, random_problem
from twistkit.geometries import (
    DoubledGeometry,
    ElectrodynamicsGeometry,
    ManifoldGeometry,
    chiral_vector_operator,
)
from twistkit.torus_fields import FourierScalar

#: Every twistkit name the benchmark calls, as ``module.name``.
PUBLIC_API = (
    "actions.boosted_doubled_lagrangian_action",
    "actions.boosted_electro_lagrangian_action",
    "actions.boosted_manifold_lagrangian_action",
    "actions.doubled_lagrangian_action",
    "actions.electro_lagrangian_action",
    "actions.fermionic_action",
    "actions.fermionic_action_quadratic",
    "actions.manifold_lagrangian_action",
    "actions.overlapping_action_inputs",
    "actions.promote_weyl_fields",
    "actions.route_spread",
    "checks.GROUPS",
    "checks.RunConfig",
    "checks.report_json",
    "checks.run_checks",
    "clifford.SpinBoost",
    "dynamics.PROBLEM_KINDS",
    "dynamics.on_shell_problem",
    "dynamics.random_problem",
    "geometries.DoubledGeometry",
    "geometries.ElectrodynamicsGeometry",
    "geometries.ManifoldGeometry",
    "geometries.chiral_vector_operator",
    "torus_fields.FourierScalar",
)

#: Gates of the registry's closed-form action checks.
PLAIN_GATE = 1e-10
BOOSTED_GATE = 1e-9
#: An action this small would make the route comparison vacuous.
MIN_ACTION = 1e-6
#: Determinant threshold of the registry's determinant/kernel duality check.
DET_THRESHOLD = 1e-10
KERNEL_RESIDUAL_GATE = 1e-9
#: Largest boost rapidity, as in the registry's default ``RunConfig``.
RAPIDITY_MAX = 2.0
#: Share of plane-wave problems drawn on shell.
ON_SHELL_SHARE = 0.3
#: The check groups ``verify`` runs: all but ``manifold``.  Its
#: ``integration_by_parts`` and ``real_closure`` checks hold random inputs to
#: an absolute 1e-12 gate that their errors exceed at about one seed in six
#: (up to 5.1e-12), so runs of the full registry fail whatever the program's
#: speed.  The group takes under 0.5 s of a pass.
VERIFY_GROUPS = tuple(g for g in GROUPS if g != "manifold")


@dataclass
class Outcome:
    """What one unit did: operations attempted and failed, and its output.

    ``parts`` maps pieces of the unit's work to their wall seconds, for the
    rates in the ``rates`` of the workload.  ``records`` holds the verify
    registry's check records.
    """

    attempted: int
    failed: int
    fingerprint: object
    parts: dict[str, float] = field(default_factory=dict)
    records: list = field(default_factory=list)


class VerifyWorkload:
    """One unit is ``run_checks`` at a fresh seed followed by ``report_json``.

    It runs the groups in :data:`VERIFY_GROUPS` unless ``groups`` is given.

    A failure is a record whose status is not ``pass``; the runner also
    fails a rerun whose report is not byte-identical.
    """

    name = "verify"
    #: Rate name -> (part-name prefix, work items per part).
    rates: dict[str, tuple[str, int]] = {}

    def __init__(self, seed: int, **config):
        self._rng = np.random.default_rng(seed)
        self._seeds: list[int] = []
        self._config = {"groups": VERIFY_GROUPS, **config}

    def _seed(self, i: int) -> int:
        while len(self._seeds) <= i:
            self._seeds.append(int(self._rng.integers(0, 2**31)))
        return self._seeds[i]

    def unit(self, i: int) -> Outcome:
        cfg = RunConfig(seed=self._seed(i), **self._config)
        records = run_checks(cfg)
        report = report_json(cfg, records)
        failed = sum(rec.status != "pass" for rec in records)
        return Outcome(len(records), failed, report, records=records)


@dataclass(frozen=True)
class ActionInput:
    geometry: object
    fields: list
    f: list
    g: list
    boost: SpinBoost


def draw_boost(rng) -> SpinBoost:
    """A boost drawn like the registry's: rapidity in (0.05, RAPIDITY_MAX], random axis."""
    rapidity = float(rng.uniform(0.05, RAPIDITY_MAX))
    axis = rng.standard_normal(3)
    while np.linalg.norm(axis) < 1e-3:
        axis = rng.standard_normal(3)
    return SpinBoost(0.5 * rapidity, tuple(axis))


def dressed_operator(geo, f, g):
    """The Dirac operator dressed with the potentials, as the registry builds it."""
    if geo.n_sectors == 1:
        return geo.dirac + chiral_vector_operator(f, [(-1.0) * c for c in f])
    if geo.n_sectors == 2:
        return geo.dirac + geo.selfadjoint_fluctuation(f, [FourierScalar.zero()] * 4)
    return geo.dirac + geo.selfadjoint_fluctuation(f, g)


def closed_form(geo, promoted, f, g, boost=None):
    """The hand-derived action density matching ``geo``."""
    fields = promoted.fields
    if isinstance(geo, ManifoldGeometry):
        if boost is None:
            return manifold_lagrangian_action(fields[0], fields[1], f[0])
        return boosted_manifold_lagrangian_action(fields[0], fields[1], f, boost)
    if isinstance(geo, DoubledGeometry):
        if boost is None:
            return doubled_lagrangian_action(fields[0], fields[1], f[0])
        return boosted_doubled_lagrangian_action(fields[0], fields[1], f, boost)
    if boost is None:
        return electro_lagrangian_action(fields, f, g, geo.d)
    return boosted_electro_lagrangian_action(fields, f, g, geo.d, boost)


GEOMETRY_NAMES = ("manifold", "doubled", "electro")


class ActionWorkload:
    """One unit evaluates the action once per geometry, unboosted then boosted.

    Each evaluation runs route 1 (``fermionic_action``), route 2
    (``fermionic_action_quadratic``) and the closed form; it fails when they
    spread beyond the registry gate or the action is too small to compare.
    Unit ``i`` takes the ``i``-th input set of each geometry, cycling.
    """

    name = "action"
    rates = {
        "actions_per_s": ("actions/", 1),
        "boosted_actions_per_s": ("boosted_actions/", 1),
    }

    def __init__(self, seed: int, mode_cutoff: int = 2, per_geometry: int = 8):
        rng = np.random.default_rng(seed)
        manifold, doubled = ManifoldGeometry(), DoubledGeometry()
        self.inputs: list[list[ActionInput]] = []
        for _ in range(per_geometry):
            group = []
            for geo in (manifold, doubled, None):
                if geo is None:
                    geo = ElectrodynamicsGeometry(
                        complex(rng.standard_normal(), rng.standard_normal())
                    )
                n_fields = 2 if geo.n_sectors == 1 else geo.n_sectors
                fields, f, g = overlapping_action_inputs(rng, n_fields, cutoff=mode_cutoff)
                geo.dirac  # build the cached operator as part of set-up
                group.append(ActionInput(geo, fields, f, g, draw_boost(rng)))
            self.inputs.append(group)

    def _evaluate(self, inp: ActionInput, op, boost) -> tuple[bool, dict]:
        promoted = promote_weyl_fields(inp.fields)
        route1 = fermionic_action(inp.geometry, op, promoted, boost=boost)
        route2 = fermionic_action_quadratic(inp.geometry, op, promoted, boost=boost)
        closed = closed_form(inp.geometry, promoted, inp.f, inp.g, boost)
        gate = PLAIN_GATE if boost is None else BOOSTED_GATE
        ok = route_spread(route1, route2, closed) <= gate and abs(route1) > MIN_ACTION
        return ok, dict(route1.coeffs)

    def unit(self, i: int) -> Outcome:
        failed = 0
        values = []
        parts = {}
        for geo_name, inp in zip(GEOMETRY_NAMES, self.inputs[i % len(self.inputs)]):
            t0 = perf_counter()
            op = dressed_operator(inp.geometry, inp.f, inp.g)
            plain_ok, plain = self._evaluate(inp, op, None)
            t1 = perf_counter()
            boosted_ok, boosted = self._evaluate(inp, op, inp.boost)
            parts[f"actions/{geo_name}"] = t1 - t0
            parts[f"boosted_actions/{geo_name}"] = perf_counter() - t1
            failed += (not plain_ok) + (not boosted_ok)
            values += [plain, boosted]
        return Outcome(2 * len(GEOMETRY_NAMES), failed, values, parts)


class PlaneWaveWorkload:
    """One unit solves a batch of plane-wave systems, ``batch`` of each kind.

    Each problem is on shell with probability ``ON_SHELL_SHARE``.  A system
    fails when ``singular`` disagrees with a vanishing determinant or a
    kernel vector is not annihilated.
    """

    name = "planewave"

    def __init__(self, seed: int, batches: int = 32, batch: int = 8):
        rng = np.random.default_rng(seed)
        self.batches = []
        for _ in range(batches):
            by_kind = {}
            for kind in PROBLEM_KINDS:
                by_kind[kind] = [
                    (on_shell_problem if rng.uniform() < ON_SHELL_SHARE else random_problem)(
                        rng, kind)
                    for _ in range(batch)
                ]
            self.batches.append(by_kind)
        self.rates = {"systems_per_s": ("systems/", batch)}

    def unit(self, i: int) -> Outcome:
        attempted = failed = 0
        values = []
        parts = {}
        for kind, problems in self.batches[i % len(self.batches)].items():
            t0 = perf_counter()
            for problem in problems:
                result = problem.solve()
                bad = result.singular != (abs(result.determinant) <= DET_THRESHOLD)
                for v in result.kernel:
                    bad |= float(np.abs(result.matrix @ v).max()) > KERNEL_RESIDUAL_GATE
                failed += bad
                values.append((result.determinant, result.singular))
            parts[f"systems/{kind}"] = perf_counter() - t0
            attempted += len(problems)
        return Outcome(attempted, failed, values, parts)


WORKLOADS = {w.name: w for w in (VerifyWorkload, ActionWorkload, PlaneWaveWorkload)}
