"""Structure checks for the three torus geometries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistkit.geometries import (
    DoubledGeometry,
    ElectrodynamicsGeometry,
    Element,
    ManifoldGeometry,
    chiral_vector_operator,
    chiral_vector_parameters,
    random_element,
    selfadjoint_defect_parameters,
    wave_phase,
)
from twistkit.actions import electro_operator_pieces
from twistkit.clifford import PAULI, SpinBoost
from twistkit.operator_algebra import (
    FieldOperator,
    normal_form_distance,
    operator_equal,
)
from twistkit.torus_fields import FourierScalar, random_scalar, random_section

from conftest import check_error

seeds = st.integers(min_value=0, max_value=2**32 - 1)

GEOMETRY_FACTORIES = {
    "manifold": ManifoldGeometry,
    "doubled": DoubledGeometry,
    "electro": lambda: ElectrodynamicsGeometry(d=0.8 - 0.3j),
}


GEO_PARAMS = pytest.mark.parametrize("geo_name", sorted(GEOMETRY_FACTORIES))


@pytest.fixture(params=sorted(GEOMETRY_FACTORIES), name="geo")
def _geo(request):
    return GEOMETRY_FACTORIES[request.param]()


class TestAxioms:
    def test_r_is_gamma0_in_every_sector(self, geo):
        # gamma^0 of the chiral basis, written out: any other self-adjoint
        # involution that anticommutes with J and Gamma passes axioms.ko_signs
        gamma0 = np.array(
            [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex
        )
        expected = np.kron(np.eye(geo.n_sectors), gamma0)
        assert np.array_equal(geo.r_matrix, expected)
        literal = FieldOperator.from_matrix(expected)
        assert normal_form_distance(geo.r_operator, literal) == 0.0

    def test_sign_and_grading_checks_are_exact(self):
        # J^2 = -1, JD = DJ, the KO grading sign, JR = -RJ, R a self-adjoint
        # involution, Gamma^2 = 1 and Gamma D = -D Gamma on all three spaces.
        rng = np.random.default_rng(46)
        for check_id in ("axioms.ko_signs", "axioms.grading_relations"):
            assert check_error(check_id, 1e-14, rng) <= 1e-14, check_id

    @GEO_PARAMS
    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_twist_is_conjugation_by_r(self, geo_name, seed):
        geo = GEOMETRY_FACTORIES[geo_name]()
        rng = np.random.default_rng(seed)
        a = random_element(rng, geo.n_slots)
        lhs = geo.represent(a.flip())
        rhs = geo.twist(geo.represent(a))
        assert normal_form_distance(lhs, rhs) < 1e-12


@pytest.mark.parametrize(
    "check_id, gate, runs",
    [
        # homomorphism, star, evenness and both order conditions: 20-22 pairs per space
        ("axioms.full_axiom_suite", 1e-12, 2),
        ("electrodynamics.finite_part_commutes", 0.0, 1),  # exactly, 8 elements
        ("gauge.potential_shift_laws", 1e-12, 10),  # 10 phases per law
        ("gauge.adjoint_action", 1e-12, 1),
    ],
)
def test_registry_claims(check_id, gate, runs):
    assert check_error(check_id, gate, np.random.default_rng(47), runs) <= gate


class TestManifoldForms:
    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_twisted_commutator_closed_form(self, seed):
        geo = ManifoldGeometry()
        rng = np.random.default_rng(seed)
        a = random_element(rng, 1)
        h = [a.unprimed[0].derivative(mu) for mu in range(4)]
        hp = [a.primed[0].derivative(mu) for mu in range(4)]
        assert normal_form_distance(
            geo.twisted_commutator(a), chiral_vector_operator(h, hp)
        ) < 1e-12

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_one_form_parameters_closed_form(self, seed):
        geo = ManifoldGeometry()
        rng = np.random.default_rng(seed)
        pairs = [
            (random_element(rng, 1), random_element(rng, 1)) for _ in range(2)
        ]
        omega = geo.one_form(pairs)
        h, hp = geo.one_form_parameters(omega)
        for mu in range(4):
            h_expect = FourierScalar.zero()
            hp_expect = FourierScalar.zero()
            for a, b in pairs:
                h_expect = h_expect + b.primed[0] * a.unprimed[0].derivative(mu)
                hp_expect = hp_expect + b.unprimed[0] * a.primed[0].derivative(mu)
            assert (h[mu] - h_expect).max_abs() < 1e-12
            assert (hp[mu] - hp_expect).max_abs() < 1e-12

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_one_form_parameter_roundtrip(self, seed):
        geo = ManifoldGeometry()
        rng = np.random.default_rng(seed)
        pairs = [(random_element(rng, 1), random_element(rng, 1))]
        omega = geo.one_form(pairs)
        h, hp = geo.one_form_parameters(omega)
        assert operator_equal(
            omega, geo.one_form_from_parameters(h, hp), probe_cutoff=2
        ).equal

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_fluctuation_conjugates_parameters(self, seed):
        geo = ManifoldGeometry()
        rng = np.random.default_rng(seed)
        omega = geo.one_form([(random_element(rng, 1), random_element(rng, 1))])
        h, hp = geo.one_form_parameters(omega)
        mirrored = geo.real_conjugate(omega)
        h2, hp2 = geo.one_form_parameters(mirrored)
        for mu in range(4):
            assert (h2[mu] - h[mu].conjugate()).max_abs() < 1e-12
            assert (hp2[mu] - hp[mu].conjugate()).max_abs() < 1e-12

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_selfadjointness_routes_agree(self, seed):
        geo = ManifoldGeometry()
        rng = np.random.default_rng(seed)
        h = [random_scalar(rng) for _ in range(4)]
        # parameter-level self-adjoint choice: second copy = -conj(first)
        hp = [(-1.0) * f.conjugate() for f in h]
        omega = geo.one_form_from_parameters(h, hp)
        assert (omega - omega.adjoint()).max_abs() < 1e-12
        assert selfadjoint_defect_parameters(h, hp) < 1e-12
        # generic parameters fail both routes together
        hp_bad = [f + FourierScalar.one() for f in hp]
        omega_bad = geo.one_form_from_parameters(h, hp_bad)
        op_defect = (omega_bad - omega_bad.adjoint()).max_abs()
        par_defect = selfadjoint_defect_parameters(h, hp_bad)
        assert op_defect > 1e-6 and par_defect > 1e-6

    def test_imaginary_parameters_have_silent_fluctuation(self):
        rng = np.random.default_rng(5)
        geo = ManifoldGeometry()
        h = [1j * random_scalar(rng, real=True) for _ in range(4)]
        hp = [1j * random_scalar(rng, real=True) for _ in range(4)]
        omega = geo.one_form_from_parameters(h, hp)
        assert geo.fluctuation(omega).max_abs() < 1e-14


@pytest.mark.parametrize("geo_name", ["doubled", "electro"])
class TestSectoredFluctuations:
    def _geo(self, geo_name):
        return GEOMETRY_FACTORIES[geo_name]()

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_fluctuation_z_closed_form(self, geo_name, seed):
        geo = self._geo(geo_name)
        rng = np.random.default_rng(seed)
        a = random_element(rng, 2)
        b = random_element(rng, 2)
        fluct = geo.fluctuation(geo.one_form([(a, b)]))
        z, zp = geo.fluctuation_parameters(fluct)
        (v, w), (vp, wp) = a.unprimed, a.primed
        (f, g), (fp, gp) = b.unprimed, b.primed
        for mu in range(4):
            z_expect = fp * v.derivative(mu) + (
                g * wp.derivative(mu)
            ).conjugate()
            zp_expect = f * vp.derivative(mu) + (
                gp * w.derivative(mu)
            ).conjugate()
            assert (z[mu] - z_expect).max_abs() < 1e-12
            assert (zp[mu] - zp_expect).max_abs() < 1e-12

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_fluctuation_roundtrip(self, geo_name, seed):
        geo = self._geo(geo_name)
        rng = np.random.default_rng(seed)
        pairs = [
            (random_element(rng, 2), random_element(rng, 2)) for _ in range(2)
        ]
        fluct = geo.fluctuation(geo.one_form(pairs))
        z, zp = geo.fluctuation_parameters(fluct)
        rebuilt = geo.fluctuation_from_z(z, zp)
        assert operator_equal(fluct, rebuilt, probe_cutoff=2).equal

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_selfadjoint_fluctuation_structure(self, geo_name, seed):
        geo = self._geo(geo_name)
        rng = np.random.default_rng(seed)
        f = [random_scalar(rng, real=True) for _ in range(4)]
        g = [random_scalar(rng, real=True) for _ in range(4)]
        fluct = geo.selfadjoint_fluctuation(f, g)
        assert (fluct - fluct.adjoint()).max_abs() < 1e-12
        z = [f[mu] + 1j * g[mu] for mu in range(4)]
        zp = [(-1.0) * f[mu] + 1j * g[mu] for mu in range(4)]
        assert normal_form_distance(fluct, geo.fluctuation_from_z(z, zp)) < 1e-12
        f2, g2 = geo.vector_potentials(fluct)
        for mu in range(4):
            assert (f2[mu] - f[mu]).max_abs() < 1e-12
            assert (g2[mu] - g[mu]).max_abs() < 1e-12

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_selfadjointness_criterion_on_z(self, geo_name, seed):
        geo = self._geo(geo_name)
        rng = np.random.default_rng(seed)
        fluct = geo.fluctuation(
            geo.one_form([(random_element(rng, 2), random_element(rng, 2))])
        )
        z, zp = geo.fluctuation_parameters(fluct)
        op_defect = (fluct - fluct.adjoint()).max_abs()
        par_defect = selfadjoint_defect_parameters(z, zp)
        assert (op_defect < 1e-12) == (par_defect < 1e-12)
        # symmetrize: adding the adjoint gives zp = -conj(z) exactly
        sym = fluct + fluct.adjoint()
        zs, zps = geo.fluctuation_parameters(sym)
        assert selfadjoint_defect_parameters(zs, zps) < 1e-12


def _pauli_components_reference(x):
    c0 = np.trace(x) / 2.0
    cj = [np.trace(PAULI[j] @ x) / 2.0 for j in range(3)]
    return np.array([c0, *cj])


def _chiral_vector_parameters_reference(op):
    """One Pauli read per term: the oracle for the batched read."""
    h_coeffs = [{} for _ in range(4)]
    hp_coeffs = [{} for _ in range(4)]
    for (k, d), g in op.terms.items():
        if d:
            raise ValueError("operator has derivative terms; not a one-form")
        lower = g[2:4, 0:2]
        upper = g[0:2, 2:4]
        if not (lower.any() or upper.any()):
            continue
        c = _pauli_components_reference(lower)
        cp = _pauli_components_reference(upper)
        vals_h = (1j * c[0], c[1], c[2], c[3])
        vals_hp = (1j * cp[0], -cp[1], -cp[2], -cp[3])
        for mu in range(4):
            if vals_h[mu] != 0:
                h_coeffs[mu][k] = vals_h[mu]
            if vals_hp[mu] != 0:
                hp_coeffs[mu][k] = vals_hp[mu]
    return [FourierScalar(c) for c in h_coeffs], [FourierScalar(c) for c in hp_coeffs]


class TestChiralVectorParameters:
    """The batched Pauli read repeats the per-term read exactly: the same
    modes in the same order and equal coefficients, NaN included."""

    @staticmethod
    def _assert_same(got, expected):
        for g_side, e_side in zip(got, expected, strict=True):
            for g_mu, e_mu in zip(g_side, e_side, strict=True):
                assert list(g_mu.coeffs) == list(e_mu.coeffs)
                values = [np.array(list(c.coeffs.values()), dtype=complex) for c in (g_mu, e_mu)]
                assert np.array_equal(*values, equal_nan=True)

    @pytest.mark.parametrize("nonfinite", [False, True])
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_matches_per_term_read(self, n, nonfinite):
        rng = np.random.default_rng(10 * n + nonfinite)
        terms = {}
        for i in range(12):
            mode = tuple(int(v) for v in rng.integers(-2, 3, size=4))
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            g[rng.random((n, n)) < 0.4] = 0.0
            if i % 4 == 0:  # both Weyl blocks vanish: the term is not read
                g[0:2, 2:4] = g[2:4, 0:2] = 0.0
            if i % 4 == 1:  # one Pauli component vanishes
                g[2:4, 0:2] = [[1.0, 2.0], [2.0, 1.0]]
            terms[(mode, ())] = g
        op = FieldOperator(n, terms)
        if nonfinite:
            keys = list(op.terms)
            op.terms[keys[1]][2, 1] = np.nan
            op.terms[keys[2]][0, 3] = np.inf
        with np.errstate(invalid="ignore"):
            expected = _chiral_vector_parameters_reference(op)
            got = chiral_vector_parameters(op)
        assert sum(len(c.coeffs) for c in expected[0]) > 0
        self._assert_same(got, expected)

    @pytest.mark.parametrize("geo_name", ["doubled", "electro"])
    def test_matches_on_fluctuations(self, geo_name):
        geo = GEOMETRY_FACTORIES[geo_name]()
        rng = np.random.default_rng(17)
        for _ in range(3):
            fl = geo.fluctuation(geo.one_form([(random_element(rng, 2), random_element(rng, 2))]))
            self._assert_same(
                geo.fluctuation_parameters(fl), _chiral_vector_parameters_reference(fl)
            )

    def test_empty_and_derivative_operators(self):
        empty = chiral_vector_parameters(FieldOperator.zero(4))
        assert all(not c.coeffs for side in empty for c in side)
        with pytest.raises(ValueError, match="derivative terms"):
            chiral_vector_parameters(FieldOperator.derivative(4, 1))


def _random_operator(rng, n, antilinear, n_terms=3):
    """Terms with random phase modes, derivatives of order 0-2 and matrices."""
    terms = {}
    for _ in range(n_terms):
        mode = tuple(int(v) for v in rng.integers(-1, 2, size=4))
        d = tuple(sorted(int(v) for v in rng.integers(0, 4, size=rng.integers(0, 3))))
        terms[(mode, d)] = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return FieldOperator(n, terms, antilinear)


class TestRealConjugate:
    @GEO_PARAMS
    @pytest.mark.parametrize("antilinear", [False, True])
    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_real_conjugation_is_an_involution(self, geo_name, antilinear, seed):
        geo = GEOMETRY_FACTORIES[geo_name]()
        op = _random_operator(np.random.default_rng(seed), geo.fiber_dim, antilinear)
        twice = geo.real_conjugate(geo.real_conjugate(op))
        assert twice.antilinear == antilinear
        assert normal_form_distance(twice, op) <= 1e-12

    @GEO_PARAMS
    @pytest.mark.parametrize("nonfinite", [False, True])
    @pytest.mark.parametrize("antilinear", [False, True])
    def test_matches_composed_conjugation(self, geo_name, antilinear, nonfinite):
        """The term-wise pass gives the keys, their order and the values of
        J op J composed and negated (zero signs aside), NaN and inf included."""
        geo = GEOMETRY_FACTORIES[geo_name]()
        rng = np.random.default_rng(31 + 2 * antilinear + nonfinite)
        j = geo.real_structure
        for _ in range(5):
            op = _random_operator(rng, geo.fiber_dim, antilinear, n_terms=6)
            assert any(d for _, d in op.terms)
            if nonfinite:
                keys = list(op.terms)
                op.terms[keys[0]][1, 2] = complex(np.nan, 1.0)
                op.terms[keys[1]][0, 0] = complex(0.5, np.inf)
            with np.errstate(invalid="ignore"):
                expected = (j @ op @ j).scale(-1.0)
                got = geo.real_conjugate(op)
            assert got.antilinear == expected.antilinear == antilinear
            assert list(got.terms) == list(expected.terms)
            for key, g in expected.terms.items():
                assert np.array_equal(got.terms[key], g, equal_nan=True), key


class TestDressedDirac:
    @GEO_PARAMS
    @given(seeds)
    @settings(max_examples=5, deadline=None)
    def test_is_selfadjoint(self, geo_name, seed):
        geo = GEOMETRY_FACTORIES[geo_name]()
        rng = np.random.default_rng(seed)
        f = [random_scalar(rng, real=True) for _ in range(4)]
        g = [random_scalar(rng, real=True) for _ in range(4)]
        dressed = geo.dressed_dirac(f, g)
        assert (dressed - geo.dirac).max_abs() > 0.0
        assert (dressed - dressed.adjoint()).max_abs() <= 1e-12

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_electro_vector_piece(self, seed):
        geo = GEOMETRY_FACTORIES["electro"]()
        rng = np.random.default_rng(seed)
        f = [random_scalar(rng, real=True) for _ in range(4)]
        g = [random_scalar(rng, real=True) for _ in range(4)]
        zeros = [FourierScalar.zero()] * 4
        vector = geo.dressed_dirac(f, g) - geo.dressed_dirac(f, zeros)
        expected = electro_operator_pieces(geo, f, g)["vector"]
        assert normal_form_distance(vector, expected) <= 1e-12


class TestGauge:
    def test_matched_adjoint_action_commutes_with_r(self):
        geo = DoubledGeometry()
        u = geo.element(
            (wave_phase((1, 0, 0, 0)), wave_phase((0, 0, 1, 0))),
            (wave_phase((1, 0, 0, 0)), wave_phase((0, 0, 1, 0))),
        )
        big_u = geo.adjoint_action(u)
        r = geo.r_operator
        assert normal_form_distance(big_u @ r, r @ big_u) < 1e-12


class TestDistinguishedSections:
    def test_r_invariance_is_exact(self, geo):
        rng = np.random.default_rng(3)
        fields = [random_section(rng, 2) for _ in range(geo.n_sectors)]
        eta = geo.h_r_section(fields)
        assert geo.r_defect(eta) == 0.0

    def test_chirality_real_overlap_vanishes(self, geo):
        assert geo.chirality_real_overlap() == 0.0

    def test_plus_projector_is_projector(self, geo):
        p = geo.plus_projector
        assert np.allclose(p @ p, p, atol=1e-14)


class TestBoostCompatibility:
    @given(st.floats(-1.5, 1.5), seeds)
    @settings(max_examples=10, deadline=None)
    def test_sectored_boost_commutes_with_real_structure(self, a, seed):
        rng = np.random.default_rng(seed)
        axis = rng.normal(size=3)
        boost = SpinBoost(a, tuple(axis / np.linalg.norm(axis)))
        for geo in (DoubledGeometry(), ElectrodynamicsGeometry()):
            b = FieldOperator.from_matrix(geo.boost_slot2_matrix(boost))
            j = geo.real_structure
            assert normal_form_distance(j @ b, b @ j) < 1e-10

    @given(st.floats(-1.5, 1.5))
    @settings(max_examples=10, deadline=None)
    def test_r_exchanges_boost_and_inverse(self, a):
        boost = SpinBoost(a, (0.0, 1.0, 0.0))
        for geo in (ManifoldGeometry(), DoubledGeometry(), ElectrodynamicsGeometry()):
            b2 = geo.boost_slot2_matrix(boost)
            b2_inv = np.linalg.inv(b2)
            assert np.allclose(geo.r_matrix @ b2, b2_inv @ geo.r_matrix, atol=1e-10)

    @given(st.floats(-1.5, 1.5))
    @settings(max_examples=10, deadline=None)
    def test_manifold_real_structure_inverts_boost(self, a):
        geo = ManifoldGeometry()
        boost = SpinBoost(a, (1.0, 0.0, 0.0))
        j = geo.real_structure
        s_op = FieldOperator.from_matrix(boost.matrix)
        s_inv = FieldOperator.from_matrix(boost.inverse)
        assert normal_form_distance(j @ s_op, s_inv @ j) < 1e-10

    @pytest.mark.parametrize(
        "geo_name, slot1, slot2",
        [
            ("manifold", ("inverse",), ("matrix",)),
            ("doubled", ("inverse", "matrix"), ("inverse", "matrix")),
            (
                "electro",
                ("inverse", "inverse", "matrix", "matrix"),
                ("inverse", "inverse", "matrix", "matrix"),
            ),
        ],
    )
    def test_boost_slot_tables(self, geo_name, slot1, slot2):
        """Slot by slot, the spin boost S ("matrix") or S^-1 ("inverse") on
        each sector, and the boosted operator conjugates by an inverse pair."""
        geo = GEOMETRY_FACTORIES[geo_name]()
        boost = SpinBoost(0.7, (0.6, 0.0, 0.8))
        for actual, table in (
            (geo.boost_slot1_matrix(boost), slot1),
            (geo.boost_slot2_matrix(boost), slot2),
        ):
            expected = np.zeros((geo.fiber_dim, geo.fiber_dim), dtype=complex)
            for s, name in enumerate(table):
                expected[4 * s : 4 * s + 4, 4 * s : 4 * s + 4] = getattr(boost, name)
            assert np.array_equal(actual, expected)
        one = FieldOperator.identity(geo.fiber_dim)
        assert normal_form_distance(geo.boosted_operator(one, boost), one) < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    @GEO_PARAMS
    def test_boosted_operator_matches_composed_conjugation(self, geo_name, seed):
        """Term by term, the same keys in the same order and the same bits,
        zero signs included, as ``B @ op @ B^-1`` with the slot-2 matrices,
        for a dressed Dirac operator, the antilinear real structure, an
        operator with an exactly zero term, which both drop, and one with an
        infinite entry, whose NaNs both place alike."""
        rng = np.random.default_rng(60 + seed)
        geo = GEOMETRY_FACTORIES[geo_name]()
        boost = SpinBoost(float(rng.uniform(0.05, 1.0)), tuple(rng.normal(size=3) / 2))
        n = geo.fiber_dim
        f = [random_scalar(rng, cutoff=1, n_modes=2, real=True) for _ in range(4)]
        g = [random_scalar(rng, cutoff=1, n_modes=2, real=True) for _ in range(4)]
        zero_key = ((0, 1, 0, 0), ())
        with_zero = FieldOperator(n, {zero_key: np.zeros((n, n)), **geo.dirac.terms})
        b = FieldOperator.from_matrix(geo.boost_slot2_matrix(boost))
        b_inv = FieldOperator.from_matrix(
            geo._sectorwise_boost(boost, 1.0 - geo._slot2_inverted)
        )
        blowup = np.eye(n, dtype=complex)
        blowup[0, 1] = np.inf
        with_inf = FieldOperator(n, {((1, 0, 0, 0), (2,)): blowup, **geo.dirac.terms})
        for op in (geo.dressed_dirac(f, g), geo.real_structure, with_zero, with_inf):
            with np.errstate(invalid="ignore"):
                got = geo.boosted_operator(op, boost)
                expected = b @ op @ b_inv
            assert got.antilinear == expected.antilinear == op.antilinear
            assert list(got.terms) == list(expected.terms)
            for key, m in got.terms.items():
                assert np.array_equal(m, expected.terms[key], equal_nan=True)
                for part in (np.real, np.imag):
                    assert np.array_equal(
                        np.signbit(part(m)), np.signbit(part(expected.terms[key]))
                    )
        assert zero_key in with_zero.terms
        assert zero_key not in geo.boosted_operator(with_zero, boost).terms

    def test_boosted_dirac_uses_boosted_gammas(self):
        geo = ManifoldGeometry()
        boost = SpinBoost(0.7, (0.0, 0.0, 1.0))
        lhs = geo.boosted_operator(geo.dirac, boost)
        rhs = FieldOperator(
            4,
            {
                ((0, 0, 0, 0), (mu,)): -1j * boost.gamma_boosted(mu)
                for mu in range(4)
            },
        )
        assert normal_form_distance(lhs, rhs) < 1e-12


class TestNanPropagation:
    """The defect folds are NaN if any coefficient is NaN, wherever it sits."""

    @pytest.mark.parametrize("mu", [0, 1, 3])
    def test_selfadjoint_defect_parameters(self, mu):
        z = [FourierScalar.constant(1.0 + 2.0j) for _ in range(4)]
        zp = [(-1.0) * c.conjugate() for c in z]
        assert selfadjoint_defect_parameters(z, zp) == 0.0
        zp[mu] = zp[mu] + FourierScalar({(1, 0, 0, 0): 0.5})
        assert selfadjoint_defect_parameters(z, zp) == 0.5
        zp[mu] = FourierScalar({(1, 0, 0, 0): np.nan})
        assert np.isnan(selfadjoint_defect_parameters(z, zp))

    @pytest.mark.parametrize("primed", [False, True])
    def test_unitarity_defect(self, primed):
        phase = wave_phase((1, 0, 0, 0), 0.3)
        assert Element((phase, phase), (phase, phase)).unitarity_defect() < 1e-15
        nan = FourierScalar({(0, 1, 0, 0): np.nan})
        slots = [[phase, phase], [phase, phase]]
        slots[primed][1] = nan
        assert np.isnan(Element(*map(tuple, slots)).unitarity_defect())
        slots[primed][1] = 2.0 * phase
        assert Element(*map(tuple, slots)).unitarity_defect() == 3.0
