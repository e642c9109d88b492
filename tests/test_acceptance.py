"""Ten-point sign-off battery for the whole package.

One test per release criterion.  Each prints a single ``ACCEPTANCE nn
PASS/FAIL`` line before asserting, so ``pytest tests/test_acceptance.py -s``
doubles as the sign-off sheet.  Boolean sub-conditions are folded into the
numeric error as ``inf`` so the line always carries the verdict.

Criterion 02 checks each space against the sign table of its
KO-dimension, written out as literals below: the manifold has
KO-dimension 4 (``JΓ = +ΓJ``); the doubled and electrodynamics spaces are
the manifold times a finite space of KO-dimension 6, so KO-dimension
4 + 6 ≡ 2 (mod 8), where ``JΓ = −ΓJ``.  The criterion also asserts that
each geometry's ``ko_signs`` data equals that table.  The battery is all
green.
"""

import time

import numpy as np

from twistkit.actions import (
    fermionic_action,
    overlapping_action_inputs,
    promote_weyl_fields,
    random_weyl_fields,
    twisted_pairing,
    untwisted_pairing,
)
from twistkit.checks import RunConfig, report_json, run_checks
from twistkit.clifford import ETA, GAMMA, GAMMA_M, SpinBoost, anticommutator, twist_gamma
from twistkit.dynamics import (
    boosted_dirac_reduction_residual,
    boosted_weyl_reduction_residual,
    dirac_system,
    weyl_identification,
    weyl_system,
)
from twistkit.geometries import (
    DoubledGeometry,
    ElectrodynamicsGeometry,
    ManifoldGeometry,
    random_element,
    selfadjoint_defect_parameters,
    wave_phase,
)
from twistkit.operator_algebra import (
    FieldOperator,
    commutator,
    function_matrix_sum,
    normal_form_distance,
    operator_equal,
)
from twistkit.torus_fields import FourierScalar, random_scalar


def _report(num: int, err: float, tol: float, detail: str) -> None:
    verdict = "PASS" if err <= tol else "FAIL"
    line = f"ACCEPTANCE {num:02d} {verdict}  max_err={err:.3e}  tol={tol:.1e}  {detail}"
    print(line)
    assert err <= tol, line


def _must(condition: bool) -> float:
    """Fold a boolean sub-condition into a numeric error."""
    return 0.0 if condition else float("inf")


def _three_geometries(d: complex = 0.45 - 0.8j):
    return (
        ("manifold", ManifoldGeometry()),
        ("doubled", DoubledGeometry()),
        ("electro", ElectrodynamicsGeometry(d)),
    )


def _axis(rng) -> tuple:
    v = rng.standard_normal(3)
    while np.linalg.norm(v) < 1e-3:
        v = rng.standard_normal(3)
    return tuple(v)


def test_criterion_01_gamma_tables_and_flip():
    err = 0.0
    eye = np.eye(4)
    for mu in range(4):
        for nu in range(mu, 4):
            delta = 1.0 if mu == nu else 0.0
            err = max(err, np.abs(anticommutator(GAMMA[mu], GAMMA[nu]) - 2.0 * delta * eye).max())
            err = max(
                err,
                np.abs(anticommutator(GAMMA_M[mu], GAMMA_M[nu]) - 2.0 * ETA[mu, nu] * eye).max(),
            )
    err = max(err, np.abs(twist_gamma(0) - GAMMA[0]).max())
    for j in (1, 2, 3):
        err = max(err, np.abs(twist_gamma(j) + GAMMA[j]).max())
    _report(1, err, 1e-14, "both 10-entry anticommutator tables and the four flip images")


# (J², J–D, J–Γ, J–R) signs: KO-dimension 4 for the manifold, 4 + 6 ≡ 2 for
# the products with the KO-dimension 6 finite space.
KO_SIGN_TABLE = {
    "manifold": (-1, 1, 1, -1),
    "doubled": (-1, 1, -1, -1),
    "electro": (-1, 1, -1, -1),
}


def test_criterion_02_real_structure_axioms():
    rng = np.random.default_rng(202)
    per = {}
    for name, geo in _three_geometries():
        signs = KO_SIGN_TABLE[name]
        eps, eps_d, eps_gamma, eps_r = signs
        # the geometry's ko_signs data must equal the table: a flipped sign reads 2.0
        err = float(np.abs(np.subtract(geo.ko_signs, signs)).max())
        j = geo.real_structure
        for _ in range(20):
            a = random_element(rng, geo.n_slots, cutoff=2)
            b = random_element(rng, geo.n_slots, cutoff=2)
            opp = geo.real_conjugate(geo.represent(b))
            err = max(err, commutator(geo.represent(a), opp).max_abs())
            t = geo.twisted_commutator(a)
            err = max(err, (t @ opp - geo.twist(opp) @ t).max_abs())
        ident = FieldOperator.identity(geo.fiber_dim)
        err = max(err, normal_form_distance(j @ j, ident.scale(eps)))
        err = max(err, normal_form_distance(j @ geo.dirac, (geo.dirac @ j).scale(eps_d)))
        grading = FieldOperator.from_matrix(geo.grading_matrix)
        err = max(err, normal_form_distance(j @ grading, (grading @ j).scale(eps_gamma)))
        r = geo.r_operator
        err = max(err, normal_form_distance(j @ r, (r @ j).scale(eps_r)))
        per[name] = err
    detail = "order conditions, (J²,JD,JΓ,JR) signs, 20 elements each: " + ", ".join(
        f"{k} {KO_SIGN_TABLE[k]} {v:.1e}" for k, v in per.items()
    )
    _report(2, max(per.values()), 1e-12, detail)


def test_criterion_03_potential_round_trips():
    rng = np.random.default_rng(203)
    err = 0.0
    man = ManifoldGeometry()
    for _ in range(3):
        om = man.one_form(
            [(random_element(rng, 1, cutoff=2), random_element(rng, 1, cutoff=2))]
        )
        h, hp = man.one_form_parameters(om)
        rebuilt = man.one_form_from_parameters(h, hp)
        err = max(err, operator_equal(om, rebuilt, probe_cutoff=3).max_abs_error)
    for geo in (DoubledGeometry(), ElectrodynamicsGeometry(0.3 + 1.1j)):
        for _ in range(3):
            fl = geo.fluctuation(
                geo.one_form(
                    [(random_element(rng, 2, cutoff=2), random_element(rng, 2, cutoff=2))]
                )
            )
            z, zp = geo.fluctuation_parameters(fl)
            err = max(
                err,
                operator_equal(fl, geo.fluctuation_from_z(z, zp), probe_cutoff=3).max_abs_error,
            )
        f = [random_scalar(rng, real=True) for _ in range(4)]
        g = [random_scalar(rng, real=True) for _ in range(4)]
        f2, g2 = geo.vector_potentials(geo.selfadjoint_fluctuation(f, g))
        for mu in range(4):
            err = max(err, (f2[mu] - f[mu]).max_abs(), (g2[mu] - g[mu]).max_abs())
    elec = ElectrodynamicsGeometry(-0.7 + 0.2j)
    fp = elec.dirac_finite_part
    for _ in range(6):
        pa = elec.represent(random_element(rng, 2, cutoff=2))
        err = max(err, _must((fp @ pa - elec.twist(pa) @ fp).max_abs() == 0.0))
    _report(3, err, 1e-12, "parameter extraction round trips; constant block commutes exactly")


def test_criterion_04_selfadjoint_predicates():
    rng = np.random.default_rng(204)
    err = 0.0
    man = ManifoldGeometry()
    trues = falses = 0
    for i in range(400):
        if i % 4 == 0:
            h = [1j * random_scalar(rng, real=True) for _ in range(4)]
            hp = [(-1.0) * c.conjugate() for c in h]
        elif i % 4 == 1:
            h = [random_scalar(rng) for _ in range(4)]
            hp = [(-1.0) * c.conjugate() for c in h]
        else:
            h = [random_scalar(rng) for _ in range(4)]
            hp = [random_scalar(rng) for _ in range(4)]
        om = man.one_form_from_parameters(h, hp)
        op_defect = (om - om.adjoint()).max_abs()
        par_defect = selfadjoint_defect_parameters(h, hp)
        err = max(err, _must((op_defect <= 1e-10) == (par_defect <= 1e-10)))
        if par_defect <= 1e-10:
            trues += 1
            err = max(err, op_defect)
        else:
            falses += 1
        if i % 4 == 0:
            err = max(err, man.fluctuation(om).max_abs())
    for geo in (DoubledGeometry(), ElectrodynamicsGeometry(0.6 - 0.4j)):
        for i in range(270):
            if i % 9 < 4:
                z = [random_scalar(rng) for _ in range(4)]
                zp = [(-1.0) * c.conjugate() for c in z]
            elif i % 9 == 4:
                z = [1j * random_scalar(rng, real=True) for _ in range(4)]
                zp = [(-1.0) * c.conjugate() for c in z]
            else:
                z = [random_scalar(rng) for _ in range(4)]
                zp = [random_scalar(rng) for _ in range(4)]
            fl = geo.fluctuation_from_z(z, zp)
            op_defect = (fl - fl.adjoint()).max_abs()
            par_defect = selfadjoint_defect_parameters(z, zp)
            err = max(err, _must((op_defect <= 1e-10) == (par_defect <= 1e-10)))
            if par_defect <= 1e-10:
                trues += 1
                err = max(err, op_defect)
            else:
                falses += 1
            if i % 9 == 4:
                f_out, _ = geo.vector_potentials(fl)
                err = max(err, max(c.max_abs() for c in f_out))
        for _ in range(30):
            raw = geo.fluctuation(
                geo.one_form([(random_element(rng, 2), random_element(rng, 2))])
            )
            sym = raw + raw.adjoint()
            err = max(err, _must((sym - sym.adjoint()).max_abs() <= 1e-10))
            z, zp = geo.fluctuation_parameters(sym)
            err = max(err, selfadjoint_defect_parameters(z, zp))
            trues += 1
    err = max(err, _must(trues >= 300), _must(falses >= 300))
    detail = f"1000 field draws, both directions ({trues} self-adjoint, {falses} not)"
    _report(4, err, 1e-12, detail)


def test_criterion_05_gauge_laws():
    rng = np.random.default_rng(205)
    err = 0.0
    man = ManifoldGeometry()
    k = tuple(int(v) for v in rng.integers(-2, 3, size=4))
    kp = tuple(int(v) for v in rng.integers(-2, 3, size=4))
    u = man.element(wave_phase(k, 0.3), wave_phase(kp, -1.1))
    err = max(err, u.unitarity_defect())
    om = man.one_form([(random_element(rng, 1), random_element(rng, 1))])
    h, hp = man.one_form_parameters(om)
    h2, hp2 = man.one_form_parameters(man.gauge_transformed(om, u))
    for mu in range(4):
        err = max(err, (h2[mu] - h[mu] - FourierScalar.constant(-1j * k[mu])).max_abs())
        err = max(err, (hp2[mu] - hp[mu] - FourierScalar.constant(-1j * kp[mu])).max_abs())
    err = max(
        err,
        operator_equal(man.adjoint_action(u), FieldOperator.identity(4)).max_abs_error,
    )
    elec = ElectrodynamicsGeometry(d=-1j)
    ka = tuple(int(v) for v in rng.integers(-1, 2, size=4))
    kb = tuple(int(v) for v in rng.integers(-1, 2, size=4))
    f = [random_scalar(rng, real=True) for _ in range(4)]
    g = [random_scalar(rng, real=True) for _ in range(4)]
    z, _ = elec.fluctuation_parameters(elec.selfadjoint_fluctuation(f, g))
    gauged_z = [z[mu] + FourierScalar.constant(-1j * (ka[mu] - kb[mu])) for mu in range(4)]
    gauged = elec.fluctuation_from_z(gauged_z, [(-1.0) * c.conjugate() for c in gauged_z])
    f2, g2 = elec.vector_potentials(gauged)
    for mu in range(4):
        err = max(err, (f2[mu] - f[mu]).max_abs())
        err = max(err, (g2[mu] - (g[mu] + FourierScalar.constant(-(ka[mu] - kb[mu])))).max_abs())
    matched = elec.element(
        (wave_phase(ka), wave_phase(kb)), (wave_phase(ka), wave_phase(kb))
    )
    theta = wave_phase(ka) * wave_phase(kb).conjugate()
    entries = [theta] * 8 + [theta.conjugate()] * 8
    expected = function_matrix_sum(16, [(np.diag(u), c) for u, c in zip(np.eye(16), entries)])
    err = max(err, normal_form_distance(elec.adjoint_action(matched), expected))
    fields = random_weyl_fields(rng, 4, cutoff=1)
    s = elec.h_r_section(fields)
    err = max(err, elec.r_defect(elec.adjoint_action(matched).apply(s)))
    _report(5, err, 1e-14, "phase-gradient shifts, invariant f, trivial/phase doubled unitaries")


def test_criterion_06_action_closed_forms():
    rng = np.random.default_rng(206)
    man = ManifoldGeometry()
    dbl = DoubledGeometry()

    def imaginary_mass(rng):
        return ElectrodynamicsGeometry(1j * (abs(rng.standard_normal()) + 0.2))

    def complex_mass(rng):
        return ElectrodynamicsGeometry(complex(rng.standard_normal(), rng.standard_normal()))

    cases = (
        ("manifold", lambda rng: man, False),
        ("doubled", lambda rng: dbl, False),
        ("electro", imaginary_mass, False),
        ("boosted manifold", lambda rng: man, True),
        ("boosted doubled", lambda rng: dbl, True),
        ("boosted electro", complex_mass, True),
    )
    worst = {}
    for label, draw_geometry, boosted in cases:
        err = 0.0
        for _ in range(10):
            boost = SpinBoost(rng.uniform(0.05, 1.0), _axis(rng)) if boosted else None
            geo = draw_geometry(rng)
            w, f, g = overlapping_action_inputs(rng, geo.n_weyl_fields, cutoff=2)
            pro = promote_weyl_fields(w)
            eng = fermionic_action(geo, geo.dressed_dirac(f, g), pro, boost=boost)
            err = max(err, abs(eng - geo.closed_form_action(pro.fields, f, g, boost)))
            err = max(err, _must(abs(eng) > 1e-6))
        worst[label] = err
    detail = "10 instances per closed form: " + ", ".join(
        f"{k} {v:.1e}" for k, v in worst.items()
    )
    _report(6, max(worst.values()), 1e-10, detail)


def test_criterion_07_fixed_subspace_pairing():
    rng = np.random.default_rng(207)
    err = 0.0
    for name, geo in _three_geometries():
        err = max(err, _must(geo.chirality_real_overlap() <= 1e-14))
        n = geo.n_sectors
        w, f, g = overlapping_action_inputs(rng, 2 * n, cutoff=2)
        u = geo.h_r_section(list(w[:n]))
        v = geo.h_r_section(list(w[n:]))
        err = max(err, _must(geo.r_defect(u) == 0.0), _must(geo.r_defect(v) == 0.0))
        op = geo.dressed_dirac(f, g)
        p_uv = complex(twisted_pairing(geo, op, u, v).coefficient(()))
        p_vu = complex(twisted_pairing(geo, op, v, u).coefficient(()))
        err = max(err, abs(p_uv + p_vu))
        err = max(err, abs(complex(twisted_pairing(geo, op, u, u).coefficient(()))))
        q_uv = complex(untwisted_pairing(geo, op, u, v).coefficient(()))
        err = max(err, abs(p_uv + q_uv))
        err = max(err, _must(abs(p_uv) > 1e-6))
    _report(7, err, 1e-10, "exact fixed sections, zero projector overlap, twisted = -untwisted")


def test_criterion_08_dispersion_shells():
    rng = np.random.default_rng(208)
    err = 0.0
    for _ in range(25):
        sp = rng.standard_normal(3)
        radius = float(np.linalg.norm(sp))
        for handed, sign in (("left", -1.0), ("right", 1.0)):
            f = rng.standard_normal(4)
            pinned = weyl_identification(f, handed)
            err = max(err, _must(pinned[0] == sign * f[0]))
            err = max(err, _must(bool(np.all(pinned[1:] == -sign * f[1:]))))
            for root in (radius, -radius):
                f0 = sign * root
                res = weyl_system(f0, [root, *sp], handed)
                err = max(err, _must(res.singular), abs(res.determinant))
                for vec in res.kernel:
                    err = max(err, float(np.abs(res.matrix @ vec).max()))
                off = weyl_system(f0 + 0.3 + 2.2 * radius, [root, *sp], handed)
                err = max(err, _must(not off.singular))
    for _ in range(25):
        m = abs(rng.standard_normal()) + 0.3
        g3 = rng.standard_normal(3)
        p = rng.standard_normal(4)
        res = dirac_system(rng.standard_normal(), g3, 1j * m, p)
        big = np.asarray(p[1:4]) + g3
        for root in res.roots:
            err = max(err, abs(root * root - complex(np.dot(big, big)) - m * m))
        on = dirac_system(-float(res.roots[0].real), g3, 1j * m, p)
        err = max(err, _must(on.singular), abs(on.determinant))
    for _ in range(25):
        boost = SpinBoost(rng.uniform(0.05, 1.0), _axis(rng))
        f4 = rng.standard_normal(4)
        g4 = rng.standard_normal(4)
        d = complex(rng.standard_normal(), rng.standard_normal())
        for handed in ("left", "right"):
            err = max(err, boosted_weyl_reduction_residual(boost, f4, handed))
        for primed in (False, True):
            err = max(err, boosted_dirac_reduction_residual(boost, f4, g4, d, primed))
    _report(8, err, 1e-9, "kernels exactly on shell; mass-shell roots; boosted reductions")


def test_criterion_09_boost_invariance():
    rng = np.random.default_rng(209)
    per = {}
    for name, geo in _three_geometries(d=complex(0.8, -0.5)):
        err = 0.0
        w, f, g = overlapping_action_inputs(rng, geo.n_weyl_fields, cutoff=2)
        op = geo.dressed_dirac(f, g)
        pro = promote_weyl_fields(w)
        plain = fermionic_action(geo, op, pro)
        err = max(err, _must(abs(plain) > 1e-6))
        for _ in range(5):
            boost = SpinBoost(rng.uniform(0.05, 1.0), _axis(rng))
            err = max(err, abs(fermionic_action(geo, op, pro, boost=boost) - plain))
        per[name] = err
    detail = "5 boosts per space, per-coefficient: " + ", ".join(
        f"{k} {v:.1e}" for k, v in per.items()
    )
    _report(9, max(per.values()), 1e-9, detail)


def test_criterion_10_deterministic_reports():
    cfg = RunConfig(seed=11)
    start = time.perf_counter()
    first = run_checks(cfg)
    elapsed = time.perf_counter() - start
    second = run_checks(RunConfig(seed=11))
    err = _must(report_json(cfg, first) == report_json(cfg, second))
    err = max(err, _must(all(rec.status == "pass" for rec in first)))
    err = max(err, _must(elapsed < 60.0))
    detail = f"byte-identical reports, {len(first)} checks all green in {elapsed:.1f}s"
    _report(10, err, 0.0, detail)
