"""Ten-point sign-off battery for the whole package.

One test per release criterion.  Each prints a single ``ACCEPTANCE nn
PASS/FAIL`` line before asserting, so ``pytest tests/test_acceptance.py -s``
doubles as the sign-off sheet.  Boolean sub-conditions are folded into the
numeric error as ``inf`` so the line always carries the verdict.

Criteria 01-03 and 05-09 run the registry checks that make their claims,
as listed in ``BATTERY``, on the criterion's own seeded stream: each
predicate is written once, in ``twistkit.checks``, and ``twistkit verify``
reports the same one.  No gate is looser than the registry tolerance of a
check it runs.  A criterion keeps only what no check asserts: the literal
KO sign table, exact zeros, the exact signs of the Weyl identification,
criterion 04's predicate mix and balance counts, and criterion 10's timing
and byte identity.

The KO sign table: the manifold has KO-dimension 4 (``JΓ = +ΓJ``); the
doubled and electrodynamics spaces are the manifold times a finite space of
KO-dimension 6, so KO-dimension 4 + 6 ≡ 2 (mod 8), where ``JΓ = −ΓJ``.
"""

import numpy as np
import pytest

from twistkit import checks
from twistkit.actions import random_weyl_fields
from twistkit.checks import SENTINEL_ERROR, RunConfig, reduce_residuals, report_json, run_checks
from twistkit.dynamics import weyl_identification
from twistkit.geometries import (
    DoubledGeometry,
    ElectrodynamicsGeometry,
    ManifoldGeometry,
    random_element,
    selfadjoint_defect_parameters,
)
from twistkit.torus_fields import FourierScalar, random_scalar

from conftest import SPECS, check_error

#: criterion -> (gate, {registry check id: runs}).
BATTERY = {
    1: (1e-14, {"clifford.euclidean_anticommutators": 1, "clifford.minkowski_anticommutators": 1}),
    2: (1e-12, {"axioms.full_axiom_suite": 2, "axioms.ko_signs": 1}),
    3: (1e-12, {"axioms.fluctuation_round_trip": 2}),
    5: (1e-14, {"gauge.potential_shift_laws": 1, "gauge.adjoint_action": 1}),
    6: (1e-10, dict.fromkeys(("manifold.action_closed_form", "doubled.action_closed_form",
                              "electrodynamics.action_closed_form", "boost.manifold_closed_form",
                              "boost.doubled_closed_form", "boost.electro_closed_form"), 5)),
    7: (1e-10, {"actions.twisted_pairing_antisymmetry": 1}),
    8: (1e-9, {"dynamics.dispersion_surfaces": 3, "dynamics.boosted_reduction": 5,
               "dynamics.determinant_kernel_duality": 1}),
    9: (1e-9, {"boost.action_invariance": 3}),
}

# (J², J–D, J–Γ, J–R) signs: KO-dimension 4 for the manifold, 4 + 6 ≡ 2 for
# the products with the KO-dimension 6 finite space.
KO_SIGN_TABLE = {
    "manifold": (-1, 1, 1, -1),
    "doubled": (-1, 1, -1, -1),
    "electro": (-1, 1, -1, -1),
}


def _report(num: int, err: float, tol: float, detail: str) -> None:
    verdict = "PASS" if err <= tol else "FAIL"
    line = f"ACCEPTANCE {num:02d} {verdict}  max_err={err:.3e}  tol={tol:.1e}  {detail}"
    print(line)
    assert err <= tol, line


def _must(condition: bool) -> float:
    """Fold a boolean sub-condition into a numeric error."""
    return 0.0 if condition else float("inf")


def _three_geometries():
    return (
        ("manifold", ManifoldGeometry()),
        ("doubled", DoubledGeometry()),
        ("electro", ElectrodynamicsGeometry(0.45 - 0.8j)),
    )


def _run_battery(num: int, rng, counts: str, extra: float = 0.0) -> None:
    """Run criterion ``num``'s registry checks and report them with ``extra``.

    The residuals of a check's runs are reduced together by the runner's own
    reduction.  A check that yields nothing counts as a failure.
    """
    gate, runs = BATTERY[num]
    worst = {check_id: check_error(check_id, gate, rng, n) for check_id, n in runs.items()}
    listed = ", ".join(f"{cid} x{runs[cid]} {err:.1e}" for cid, err in worst.items())
    _report(num, max(extra, *worst.values()), gate, f"{counts}; {listed}")


def test_battery_names_registered_checks_within_their_gates():
    for gate, runs in BATTERY.values():
        for check_id, n in runs.items():
            assert check_id in SPECS
            assert n >= 1
            assert gate <= SPECS[check_id].tolerance, check_id


def test_check_runner_refuses_unknown_ids_and_loose_gates():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    tol = SPECS["axioms.ko_signs"].tolerance
    with pytest.raises(KeyError):
        check_error("axioms.no_such_check", tol, rng)
    for gate in (2 * tol, float("nan")):
        with pytest.raises(ValueError, match="looser"):
            check_error("axioms.ko_signs", gate, rng)
    assert rng.bit_generator.state == state
    assert check_error("axioms.ko_signs", tol, rng) <= tol


def test_criterion_01_gamma_tables_and_flip():
    _run_battery(1, np.random.default_rng(201), "both anticommutator tables, four flip images")


def test_criterion_02_real_structure_axioms():
    # the geometry's ko_signs data must equal the table: a flipped sign reads 2.0
    err = max(
        float(np.abs(np.subtract(geo.ko_signs, KO_SIGN_TABLE[name])).max())
        for name, geo in _three_geometries()
    )
    # a suite run draws 11, 11 and 10 order-condition pairs on the three spaces
    runs = BATTERY[2][1]["axioms.full_axiom_suite"]
    pairs = "/".join(str(runs * rounds) for rounds in (11, 11, 10))
    table = ", ".join(f"{k} {v}" for k, v in KO_SIGN_TABLE.items())
    counts = f"(J²,JD,JΓ,JR) signs {table}; order conditions on {pairs} pairs per geometry"
    _run_battery(2, np.random.default_rng(202), counts, err)


def test_criterion_03_potential_round_trips():
    rng = np.random.default_rng(203)
    elec = ElectrodynamicsGeometry(-0.7 + 0.2j)
    fp = elec.dirac_finite_part
    err = 0.0
    for _ in range(6):
        pa = elec.represent(random_element(rng, 2, cutoff=2))
        err = max(err, _must((fp @ pa - elec.twist(pa) @ fp).max_abs() == 0.0))
    n = 2 * BATTERY[3][1]["axioms.fluctuation_round_trip"]
    counts = f"{n} round trips per space; constant block commutes exactly with 6 elements"
    _run_battery(3, rng, counts, err)


def _selfadjoint_agreement(op, z, zp):
    """Whether (z, z') read self-adjoint, and the residuals that say the
    operator agrees at 1e-10; a NaN defect on either side fails."""
    op_defect = (op - op.adjoint()).max_abs()
    par_defect = selfadjoint_defect_parameters(z, zp)
    selfadjoint = par_defect <= 1e-10
    numbers = not np.isnan([op_defect, par_defect]).any()
    agreed = _must(numbers and (op_defect <= 1e-10) == selfadjoint)
    return selfadjoint, [agreed, op_defect if selfadjoint else 0.0]


def test_selfadjoint_predicates_fail_on_nan_defect():
    """Criterion 04's agreement and the registry's both fail a fluctuation
    whose operator and parameter defects are NaN."""
    geo = DoubledGeometry()
    z = [random_scalar(np.random.default_rng(mu)) for mu in range(4)]
    z[2] = FourierScalar({**z[2].coeffs, (1, 0, 0, 0): complex(np.nan, 0.0)})
    zp = [(-1.0) * c.conjugate() for c in z]
    fl = geo.fluctuation_from_z(z, zp)
    assert np.isnan((fl - fl.adjoint()).max_abs())
    assert np.isnan(selfadjoint_defect_parameters(z, zp))
    selfadjoint, found = _selfadjoint_agreement(fl, z, zp)
    assert not selfadjoint and reduce_residuals(found) == SENTINEL_ERROR
    assert checks._selfadjoint_agreement(geo, fl, fl.adjoint()) == SENTINEL_ERROR
    # the same predicates on the finite pair agree and read self-adjoint
    z[2] = random_scalar(np.random.default_rng(2))
    zp = [(-1.0) * c.conjugate() for c in z]
    fl = geo.fluctuation_from_z(z, zp)
    assert _selfadjoint_agreement(fl, z, zp)[0]
    assert checks._selfadjoint_agreement(geo, fl, fl.adjoint()) == 0.0


def test_criterion_04_selfadjoint_predicates():
    rng = np.random.default_rng(204)
    residuals = []
    tally = {True: 0, False: 0}

    def draw(kind):
        """(z, z') with z' = -conj(z) unless ``free``; z imaginary if ``imaginary``."""
        if kind == "imaginary":
            z = [1j * random_scalar(rng, real=True) for _ in range(4)]
        else:
            z = [random_scalar(rng) for _ in range(4)]
        if kind == "free":
            return z, [random_scalar(rng) for _ in range(4)]
        return z, [(-1.0) * c.conjugate() for c in z]

    def agree(op, z, zp):
        selfadjoint, found = _selfadjoint_agreement(op, z, zp)
        tally[selfadjoint] += 1
        residuals.extend(found)

    man = ManifoldGeometry()
    for i in range(400):
        kind = ("imaginary", "paired", "free", "free")[i % 4]
        h, hp = draw(kind)
        om = man.one_form_from_parameters(h, hp)
        agree(om, h, hp)
        if kind == "imaginary":
            residuals.append(man.fluctuation(om).max_abs())
    for geo in (DoubledGeometry(), ElectrodynamicsGeometry(0.6 - 0.4j)):
        for i in range(270):
            kind = "paired" if i % 9 < 4 else "imaginary" if i % 9 == 4 else "free"
            z, zp = draw(kind)
            fl = geo.fluctuation_from_z(z, zp)
            agree(fl, z, zp)
            if kind == "imaginary":
                residuals.extend(c.max_abs() for c in geo.vector_potentials(fl)[0])
        for _ in range(30):
            raw = geo.fluctuation(
                geo.one_form([(random_element(rng, 2), random_element(rng, 2))])
            )
            sym = raw + raw.adjoint()
            residuals.append(_must((sym - sym.adjoint()).max_abs() <= 1e-10))
            residuals.append(selfadjoint_defect_parameters(*geo.fluctuation_parameters(sym)))
            tally[True] += 1
    trues, falses = tally[True], tally[False]
    residuals += [_must(trues >= 300), _must(falses >= 300)]
    err = reduce_residuals(residuals)
    detail = f"1000 field draws, both directions ({trues} self-adjoint, {falses} not)"
    _report(4, err, 1e-12, detail)


def test_criterion_05_gauge_laws():
    counts = "phase shifts on all three spaces, doubled unitaries on both sectored ones"
    _run_battery(5, np.random.default_rng(205), counts)


def test_criterion_06_action_closed_forms():
    n = BATTERY[6][1]["manifold.action_closed_form"]
    counts = f"{2 * n} instances per closed form, {3 * n} of the unboosted four-sector one"
    _run_battery(6, np.random.default_rng(206), counts)


def test_criterion_07_fixed_subspace_pairing():
    rng = np.random.default_rng(207)
    err = 0.0
    for _, geo in _three_geometries():
        err = max(err, _must(geo.chirality_real_overlap() <= 1e-14))
        for _ in range(2):
            section = geo.h_r_section(random_weyl_fields(rng, geo.n_sectors, cutoff=2))
            err = max(err, _must(geo.r_defect(section) == 0.0))
    counts = "one pairing per space; 2 exact fixed sections per space, zero overlap"
    _run_battery(7, rng, counts, err)


def test_criterion_08_dispersion_shells():
    rng = np.random.default_rng(208)
    err = 0.0
    for _ in range(25):
        for handed, sign in (("left", -1.0), ("right", 1.0)):
            f = rng.standard_normal(4)
            pinned = weyl_identification(f, handed)
            err = max(err, _must(pinned[0] == sign * f[0]))
            err = max(err, _must(bool(np.all(pinned[1:] == -sign * f[1:]))))
    runs = BATTERY[8][1]
    shells = 10 * runs["dynamics.dispersion_surfaces"]
    boosts = 6 * runs["dynamics.boosted_reduction"]
    counts = (
        f"50 exact identifications; {shells} Weyl and {shells} massive shells; "
        f"{boosts} boosted reductions; 250 systems per kind"
    )
    _run_battery(8, rng, counts, err)


def test_criterion_09_boost_invariance():
    boosts = 2 * BATTERY[9][1]["boost.action_invariance"]
    _run_battery(9, np.random.default_rng(209), f"{boosts} boosts per space")


def test_criterion_10_deterministic_reports(seed11_run):
    cfg, first, elapsed = seed11_run
    second = run_checks(RunConfig(seed=11))
    err = _must(report_json(cfg, first) == report_json(cfg, second))
    err = max(err, _must(all(rec.status == "pass" for rec in first)))
    err = max(err, _must(elapsed < 60.0))
    detail = f"byte-identical reports, {len(first)} checks all green in {elapsed:.1f}s"
    _report(10, err, 0.0, detail)
