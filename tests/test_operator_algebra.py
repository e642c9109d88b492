"""Normal-form operator calculus: composition, adjoints, probes."""

import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistkit import operator_algebra
from twistkit.geometries import (
    DoubledGeometry,
    ElectrodynamicsGeometry,
    ManifoldGeometry,
    chiral_vector_operator,
    random_element,
)
from twistkit.operator_algebra import (
    FieldOperator,
    OperatorComparison,
    _probe_distance,
    normal_form_distance,
    function_matrix_sum,
    operator_equal,
    twisted_commutator,
)
from twistkit.torus_fields import (
    ZERO_MODE,
    FourierScalar,
    Section,
    add_modes,
    negate_mode,
    random_scalar,
    random_section,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_operator(rng, n, n_terms=3, max_deriv=2, cutoff=1, antilinear=False):
    op = FieldOperator.zero(n, antilinear)
    for _ in range(n_terms):
        mode = tuple(int(v) for v in rng.integers(-cutoff, cutoff + 1, size=4))
        order = int(rng.integers(0, max_deriv + 1))
        d = tuple(sorted(int(v) for v in rng.integers(0, 4, size=order)))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        op = op + FieldOperator(n, {(mode, d): g}, antilinear)
    return op


class TestComposition:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_apply_respects_composition(self, seed):
        rng = np.random.default_rng(seed)
        a = random_operator(rng, 3)
        b = random_operator(rng, 3)
        s = random_section(rng, 3)
        lhs = (a @ b).apply(s)
        rhs = a.apply(b.apply(s))
        assert (lhs - rhs).max_abs() < 1e-10

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        a = random_operator(rng, 2)
        b = random_operator(rng, 2)
        c = random_operator(rng, 2)
        assert normal_form_distance((a @ b) @ c, a @ (b @ c)) < 1e-10

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_distributivity(self, seed):
        rng = np.random.default_rng(seed)
        a = random_operator(rng, 2)
        b = random_operator(rng, 2)
        c = random_operator(rng, 2)
        assert normal_form_distance(a @ (b + c), a @ b + a @ c) < 1e-10

    def test_derivative_pushes_through_phase(self):
        # d_mu e^{ik.x} = e^{ik.x} (i k_mu + d_mu)
        n = 2
        k = (2, 0, -1, 3)
        d1 = FieldOperator.derivative(n, 3)
        ph = FieldOperator.phase(n, k)
        composed = d1 @ ph
        expected = ph @ (d1 + FieldOperator.identity(n).scale(3j))
        assert normal_form_distance(composed, expected) == 0.0

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_multiplication_operators_multiply(self, seed):
        rng = np.random.default_rng(seed)
        f = random_scalar(rng)
        g = random_scalar(rng)
        mf = function_matrix_sum(1, [(np.eye(1), f)])
        mg = function_matrix_sum(1, [(np.eye(1), g)])
        mfg = function_matrix_sum(1, [(np.eye(1), f * g)])
        assert normal_form_distance(mf @ mg, mfg) < 1e-12

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_leibniz_commutator(self, seed):
        # [d_mu, f] = (d_mu f) as multiplication operators
        rng = np.random.default_rng(seed)
        f = random_scalar(rng)
        mu = int(rng.integers(0, 4))
        d_op = FieldOperator.derivative(1, mu)
        mf = function_matrix_sum(1, [(np.eye(1), f)])
        lhs = d_op @ mf - mf @ d_op
        rhs = function_matrix_sum(1, [(np.eye(1), f.derivative(mu))])
        assert normal_form_distance(lhs, rhs) < 1e-12


class TestFunctionMatrixSum:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_off_diagonal_matrix_of_functions(self, seed):
        rng = np.random.default_rng(seed)
        f = random_scalar(rng)
        g = random_scalar(rng)
        upper = np.array([[0, 1], [0, 0]])
        built = function_matrix_sum(2, [(upper, f), (upper.T, g)])
        by_hand = {}
        for (row, col), h in (((0, 1), f), ((1, 0), g)):
            for k, c in h.coeffs.items():
                by_hand.setdefault((k, ()), np.zeros((2, 2), dtype=complex))[row, col] += c
        assert normal_form_distance(built, FieldOperator(2, by_hand)) == 0.0
        # (s_0, s_1) -> (f s_1, g s_0), pointwise on a random section
        s = random_section(rng, 2)
        swapped = Section.from_components([f * s.component(1), g * s.component(0)])
        assert (built.apply(s) - swapped).max_abs() < 1e-12


class TestAntilinear:
    def test_conjugation_squares_to_identity(self):
        k = FieldOperator.conjugation(3)
        assert normal_form_distance(k @ k, FieldOperator.identity(3)) == 0.0

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_apply_matches_section_conjugation(self, seed):
        rng = np.random.default_rng(seed)
        s = random_section(rng, 4)
        k = FieldOperator.conjugation(4)
        assert (k.apply(s) - s.conjugate()).max_abs() == 0.0

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_antilinear_composition_applies(self, seed):
        rng = np.random.default_rng(seed)
        a = random_operator(rng, 3, antilinear=True)
        b = random_operator(rng, 3, antilinear=rng.integers(0, 2) == 1)
        s = random_section(rng, 3)
        composed = a @ b
        assert composed.antilinear == (a.antilinear != b.antilinear)
        lhs = composed.apply(s)
        rhs = a.apply(b.apply(s))
        assert (lhs - rhs).max_abs() < 1e-10

    def test_conjugation_flips_derivative_modes(self):
        # K e^{ik.x} d_mu = e^{-ik.x} d_mu K
        n = 1
        k = (1, -2, 0, 0)
        term = FieldOperator(n, {(k, (1,)): np.array([[2.0 + 1j]])})
        cc = FieldOperator.conjugation(n)
        lhs = cc @ term
        rhs = FieldOperator(
            n, {((-1, 2, 0, 0), (1,)): np.array([[2.0 - 1j]])}, antilinear=True
        )
        assert normal_form_distance(lhs, rhs) == 0.0


class TestAdjoint:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_adjoint_against_inner_product(self, seed):
        rng = np.random.default_rng(seed)
        a = random_operator(rng, 3)
        phi = random_section(rng, 3)
        psi = random_section(rng, 3)
        lhs = a.adjoint().apply(phi).inner(psi)
        rhs = phi.inner(a.apply(psi))
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_involution(self, seed):
        rng = np.random.default_rng(seed)
        a = random_operator(rng, 2)
        assert normal_form_distance(a.adjoint().adjoint(), a) < 1e-12

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_antihomomorphism(self, seed):
        rng = np.random.default_rng(seed)
        a = random_operator(rng, 2)
        b = random_operator(rng, 2)
        lhs = (a @ b).adjoint()
        rhs = b.adjoint() @ a.adjoint()
        assert normal_form_distance(lhs, rhs) < 1e-10

    def test_derivative_is_antiselfadjoint(self):
        d_op = FieldOperator.derivative(2, 1)
        assert normal_form_distance(d_op.adjoint(), -d_op) == 0.0

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_antilinear_adjoint_against_inner_product(self, seed):
        # for antilinear A: <A^+ phi, psi> = conj(<phi, A psi>)
        rng = np.random.default_rng(seed)
        a = random_operator(rng, 2, antilinear=True)
        phi = random_section(rng, 2)
        psi = random_section(rng, 2)
        lhs = a.adjoint().apply(phi).inner(psi)
        rhs = np.conj(phi.inner(a.apply(psi)))
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_antilinear_involution(self, seed):
        rng = np.random.default_rng(seed)
        a = random_operator(rng, 2, antilinear=True)
        assert normal_form_distance(a.adjoint().adjoint(), a) < 1e-12

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_antihomomorphism_any_linearity(self, seed):
        rng = np.random.default_rng(seed)
        a = random_operator(rng, 2, antilinear=rng.integers(0, 2) == 1)
        b = random_operator(rng, 2, antilinear=rng.integers(0, 2) == 1)
        lhs = (a @ b).adjoint()
        rhs = b.adjoint() @ a.adjoint()
        assert lhs.antilinear == rhs.antilinear
        assert normal_form_distance(lhs, rhs) < 1e-10

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_antilinear_adjoint_is_conjugated_linear_adjoint(self, seed):
        # A = L K with K the conjugation, so A^+ = K L^+
        rng = np.random.default_rng(seed)
        a = random_operator(rng, 3, n_terms=5, antilinear=True)
        linear = FieldOperator(3, a.terms)
        expected = FieldOperator.conjugation(3) @ linear.adjoint()
        assert normal_form_distance(a.adjoint(), expected) < 1e-12

    def test_many_terms_match_termwise_adjoints(self):
        """A 168-term adjoint equals the sum of its terms' adjoints."""
        rng = np.random.default_rng(168)
        derivs = [()] + [(mu,) for mu in range(4)] + [
            (mu, nu) for mu in range(4) for nu in range(mu, 4)
        ]
        keys = [
            (tuple(int(v) for v in rng.integers(-1, 2, size=4)), derivs[i])
            for i in rng.integers(0, len(derivs), size=400)
        ]
        keys = list(dict.fromkeys(keys))[:168]
        assert len(keys) == 168
        a = FieldOperator(
            2, {key: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for key in keys}
        )
        termwise = FieldOperator.zero(2)
        for key, g in a.terms.items():
            termwise = termwise + FieldOperator(2, {key: g}).adjoint()
        assert len(a.terms) == 168
        assert normal_form_distance(a.adjoint(), termwise) == 0.0


class TestConjugateBy:
    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_matches_composition(self, seed):
        rng = np.random.default_rng(seed)
        a = random_operator(rng, 2, antilinear=rng.integers(0, 2) == 1)
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u = np.linalg.qr(h)[0]
        direct = a.conjugate_by(u)
        mu = FieldOperator.from_matrix(u)
        mud = FieldOperator.from_matrix(u.conj().T)
        assert normal_form_distance(direct, mu @ a @ mud) < 1e-12

    def test_twisted_commutator_shape(self):
        # [D, a]_rho with rho(a) = R a R^+ reproduces D a - R a R^+ D
        n = 2
        r = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        d_op = FieldOperator.derivative(n, 0)
        f = FourierScalar.wave((1, 0, 0, 0))
        a = function_matrix_sum(2, [(np.diag([1, 0]), f), (np.diag([0, 1]), f.conjugate())])
        lhs = twisted_commutator(d_op, a, a.conjugate_by(r))
        rhs = d_op @ a - a.conjugate_by(r) @ d_op
        assert normal_form_distance(lhs, rhs) == 0.0


class TestOperatorEqual:
    def test_equal_operators_pass_both_routes(self):
        rng = np.random.default_rng(7)
        a = random_operator(rng, 2)
        cmp = operator_equal(a, a + FieldOperator.zero(2), probe_cutoff=2)
        assert isinstance(cmp, OperatorComparison)
        assert cmp.equal
        assert cmp.max_abs_error == 0.0

    def test_detects_perturbation(self):
        rng = np.random.default_rng(11)
        a = random_operator(rng, 2)
        bump = FieldOperator(2, {((0, 1, 0, 0), ()): 1e-6 * np.eye(2)})
        cmp = operator_equal(a, a + bump, probe_cutoff=2)
        assert not cmp.equal
        assert cmp.max_abs_error >= 1e-7

    def test_antilinear_mismatch_is_inequality(self):
        a = FieldOperator.identity(2)
        k = FieldOperator.conjugation(2)
        cmp = operator_equal(a, k, probe_cutoff=1)
        assert not cmp.equal

    def test_nan_term_is_inequality(self):
        nan_term = FieldOperator(2, {((1, 0, 0, 0), ()): [[np.nan, 0.0], [0.0, 0.0]]})
        ident = FieldOperator.identity(2)
        for a, b in ((ident, ident + nan_term), (ident + nan_term, ident)):
            cmp = operator_equal(a, b, probe_cutoff=1)
            assert not cmp.equal
            assert np.isnan(cmp.max_abs_error)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_routes_agree_on_random_pairs(self, seed):
        # both routes must return the same verdict on equal and unequal pairs
        rng = np.random.default_rng(seed)
        a = random_operator(rng, 2)
        b = random_operator(rng, 2)
        assert operator_equal(a @ b, a @ b, probe_cutoff=2).equal
        cmp = operator_equal(a, b, probe_cutoff=2)
        assert cmp.normal_form_error > 1e-12
        assert cmp.probe_error > 1e-12


def _probe_distance_reference(diff, probe_cutoff):
    """The probe route one plane wave at a time: the oracle for ``_probe_distance``."""
    rng = range(-probe_cutoff, probe_cutoff + 1)
    best = 0.0
    for k0 in rng:
        for k1 in rng:
            for k2 in rng:
                for k3 in rng:
                    m = (k0, k1, k2, k3)
                    m_eff = negate_mode(m) if diff.antilinear else m
                    acc = {}
                    for (k, d), g in diff.terms.items():
                        factor = 1.0 + 0.0j
                        for mu in d:
                            factor *= 1j * m_eff[mu]
                        if factor == 0:
                            continue
                        target = add_modes(m_eff, k)
                        if target in acc:
                            acc[target] = acc[target] + factor * g
                        else:
                            acc[target] = factor * g
                    for mat in acc.values():
                        best = max(best, float(np.max(np.abs(mat))))
    return best


def shared_mode_operator(rng, n, antilinear):
    """Terms of derivative order 0-2 on three phase modes, several per mode."""
    modes = [ZERO_MODE] + [
        tuple(int(v) for v in rng.integers(-2, 3, size=4)) for _ in range(2)
    ]
    terms = {}
    for i in range(9):
        order = i % 3
        d = tuple(sorted(int(v) for v in rng.integers(0, 4, size=order)))
        mode = modes[int(rng.integers(0, len(modes)))]
        terms[(mode, d)] = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return FieldOperator(n, terms, antilinear)


#: Derivative indices of ``distinct_mode_operator`` terms: multiplication
#: operators, each single active axis, and all four axes active.
ACTIVE_AXIS_CASES = {
    "order0": [(), (), ()],
    **{f"axis{mu}": [(), (mu,), (mu, mu), (mu,)] for mu in range(4)},
    "all_axes": [(0, 1), (2, 3), (0,), (3, 3), ()],
}


def distinct_mode_operator(rng, n, derivs, antilinear):
    """One term per derivative index in ``derivs``, each on its own phase
    mode, so both probe routes compute every output as one rounded product."""
    modes = set()
    while len(modes) < len(derivs):
        modes.add(tuple(int(v) for v in rng.integers(-2, 3, size=4)))
    terms = {
        (mode, d): rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for mode, d in zip(sorted(modes), derivs)
    }
    return FieldOperator(n, terms, antilinear)


class TestNanPropagation:
    """Every reduction across terms or probes is NaN if any entry is NaN."""

    @pytest.mark.parametrize("nan_first", [True, False])
    def test_reductions_in_either_insertion_order(self, nan_first):
        nan_term = (((1, 0, 0, 0), ()), [[np.nan, 0.0], [0.0, 0.0]])
        terms = [nan_term, ((ZERO_MODE, ()), np.eye(2))]
        op = FieldOperator(2, dict(terms if nan_first else terms[::-1]))
        ident = FieldOperator.identity(2)
        assert np.isnan(op.max_abs())
        assert np.isnan(normal_form_distance(op, ident))
        assert np.isnan(normal_form_distance(ident, op))
        assert np.isnan(normal_form_distance(FieldOperator.conjugation(2), op))
        assert np.isnan(_probe_distance(op, 1))

    def test_infinite_derivative_entry_is_nan_on_the_probe_route(self):
        """The probe route multiplies the zero factor of the m_0 = 0 probes
        into an inf entry (NaN); ``apply`` skips a zero factor, and the
        probe-by-probe reference, which skips it too, reads inf.  Both are
        inequality, so the two routes keep one verdict."""
        op = FieldOperator(2, {(ZERO_MODE, (0,)): [[np.inf, 0.0], [0.0, 1.0]]})
        still = Section(2, {(0, 1, 0, 0): np.array([1.0, 1.0], dtype=complex)})
        with np.errstate(invalid="ignore"):
            assert np.isnan(_probe_distance(op, 1))
            assert _probe_distance_reference(op, 1) == np.inf
            assert op.apply(still).coeffs == {}
            assert not operator_equal(op, FieldOperator.zero(2), probe_cutoff=1).equal

    def test_finite_values_unchanged(self):
        op = FieldOperator(2, {((1, 0, 0, 0), ()): 3 * np.eye(2), (ZERO_MODE, ()): np.eye(2)})
        assert op.max_abs() == 3.0
        assert normal_form_distance(op, FieldOperator.identity(2)) == 3.0
        assert FieldOperator.zero(2).max_abs() == 0.0


class TestProbeDistance:
    @pytest.mark.parametrize("cutoff", [1, 2, 3])
    @pytest.mark.parametrize("antilinear", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_probe_reference(self, seed, antilinear, cutoff):
        rng = np.random.default_rng(1000 * seed + 10 * cutoff + antilinear)
        op = shared_mode_operator(rng, int(rng.integers(1, 4)), antilinear)
        modes = [k for k, _ in op.terms]
        assert len(set(modes)) < len(modes)  # some terms share a phase mode
        assert {len(d) for _, d in op.terms} == {0, 1, 2}
        expected = _probe_distance_reference(op, cutoff)
        assert expected > 0.0
        assert abs(_probe_distance(op, cutoff) - expected) <= 1e-13 * max(1.0, expected)

    @pytest.mark.parametrize("antilinear", [False, True])
    def test_cancelling_difference(self, antilinear):
        rng = np.random.default_rng(5)
        op = shared_mode_operator(rng, 2, antilinear)
        twice = op + op
        diff = twice - op.scale(2.0)
        assert _probe_distance(diff, 2) == _probe_distance_reference(diff, 2) == 0.0

    @pytest.mark.parametrize("cutoff", [1, 2, 3])
    @pytest.mark.parametrize("antilinear", [False, True])
    def test_maximum_at_one_corner(self, antilinear, cutoff):
        # i + d_0 + d_1 maps e^{im.x} to i (1 + m_0 + m_1) e^{im.x}, of modulus
        # 1 + 2c only at m_0 = m_1 = c (at -c when conjugation flips the wave)
        one = np.eye(1, dtype=complex)
        op = FieldOperator(
            1,
            {(ZERO_MODE, ()): 1j * one, (ZERO_MODE, (0,)): one, (ZERO_MODE, (1,)): one},
            antilinear,
        )
        assert _probe_distance(op, cutoff) == 1.0 + 2 * cutoff
        assert _probe_distance_reference(op, cutoff) == 1.0 + 2 * cutoff

    @pytest.mark.parametrize("cutoff", [1, 2, 3])
    def test_empty_operator(self, cutoff):
        for antilinear in (False, True):
            empty = FieldOperator.zero(3, antilinear)
            assert _probe_distance(empty, cutoff) == 0.0
            assert _probe_distance_reference(empty, cutoff) == 0.0

    @pytest.mark.parametrize("cutoff", [1, 2, 3])
    @pytest.mark.parametrize("antilinear", [False, True])
    @pytest.mark.parametrize("case", sorted(ACTIVE_AXIS_CASES))
    def test_skipped_blocks_match_reference_exactly(self, case, antilinear, cutoff):
        # the route takes one block per distinct (m_0, m_1) on the active
        # axes; every skipped probe repeats a kept one, so the maximum is the
        # same number as over the full grid
        rng = np.random.default_rng(sorted(ACTIVE_AXIS_CASES).index(case) + 10 * cutoff)
        op = distinct_mode_operator(rng, 2, ACTIVE_AXIS_CASES[case], antilinear)
        expected = _probe_distance_reference(op, cutoff)
        assert expected > 0.0
        assert _probe_distance(op, cutoff) == expected

    @pytest.mark.parametrize("antilinear", [False, True])
    @pytest.mark.parametrize("cutoff", [1, 2, 3])
    @pytest.mark.parametrize("mu", range(4))
    def test_axis_no_other_term_touches_is_probed(self, mu, cutoff, antilinear):
        # eps e^{ik.x} G d_mu maps e^{im.x} to i m_mu eps G e^{i(m+k).x}, of
        # largest entry eps c max|G| at m_mu = +-c; eps a power of two and G
        # small integers keep every product exact
        eps = 2.0**-20
        g = np.array([[1.0, -3.0], [2.0, 0.5]])
        bump = FieldOperator(2, {((0, 1, -1, 0), (mu,)): eps * g}, antilinear)
        assert _probe_distance(bump, cutoff) == eps * cutoff * 3.0
        assert _probe_distance_reference(bump, cutoff) == eps * cutoff * 3.0
        rest = [nu for nu in range(4) if nu != mu]
        others = FieldOperator(
            2,
            {(ZERO_MODE, (rest[0], rest[1])): g, ((1, 0, 0, 0), (rest[2],)): 1j * g},
            antilinear,
        )
        for a, b in ((bump, FieldOperator.zero(2, antilinear)), (others + bump, others)):
            cmp = operator_equal(a, b, probe_cutoff=cutoff)
            assert not cmp.equal
            assert cmp.probe_error == eps * cutoff * 3.0


def _compose_reference(a, b):
    """The term-pair loop expanding each Leibniz product in place, skipping
    the pairs that ``pair_mask`` marks as not meeting: the oracle for
    ``compose`` and its cached Leibniz table."""
    if a.antilinear:
        b_terms = {(negate_mode(k), d): np.conj(g) for (k, d), g in b.terms.items()}
    else:
        b_terms = b.terms
    meets = iter(pair_mask(a, b))
    terms = {}
    for (ka, da), ga in a.terms.items():
        for (kb, db), gb in b_terms.items():
            if not next(meets):
                continue
            gab = ga @ gb
            mode = add_modes(ka, kb)
            positions = range(len(da))
            for r in range(len(da) + 1):
                for kept in combinations(positions, r):
                    kept_set = set(kept)
                    coeff = 1.0 + 0.0j
                    for p in positions:
                        if p not in kept_set:
                            coeff *= 1j * kb[da[p]]
                    if coeff == 0:
                        continue
                    key = (mode, tuple(sorted(tuple(da[p] for p in kept) + db)))
                    h = coeff * gab
                    terms[key] = terms[key] + h if key in terms else h
    out = FieldOperator(a.fiber_dim, {}, a.antilinear != b.antilinear)
    out.terms = {k: g for k, g in terms.items() if g.any()}
    return out


def _adjoint_reference(op):
    """Per-term adjoint composing (-1)^|d| G^+ d^d with the phase e^{-ik.x}:
    the oracle for the closed-form ``adjoint``."""
    n = op.fiber_dim
    if op.antilinear:
        adj = _adjoint_reference(FieldOperator(n, op.terms))
        conj = {(negate_mode(k), d): np.conj(g) for (k, d), g in adj.terms.items()}
        return FieldOperator(n, conj, True)
    terms = {}
    for (k, d), g in op.terms.items():
        head = FieldOperator(n, {(ZERO_MODE, d): ((-1.0) ** len(d)) * g.conj().T})
        tail = FieldOperator.phase(n, negate_mode(k))
        for key, h in _compose_reference(head, tail).terms.items():
            terms[key] = terms[key] + h if key in terms else h
    out = FieldOperator(n)
    out.terms = {k: g for k, g in terms.items() if g.any()}
    return out


#: Modes with zero components on derivative axes, so that some Leibniz
#: coefficients vanish, orders 0-2 and the repeated axis (mu, mu); the two
#: entries of (2, 2) that keep one derivative meet the key (2,) already filled.
ORACLE_KEYS = (
    (ZERO_MODE, ()),
    ((0, 1, 0, 2), (0,)),
    ((1, 0, -1, 0), (1, 1)),
    ((2, -1, 0, 1), (1, 3)),
    ((0, 0, 3, 0), (2,)),
    ((0, 0, 3, 0), (2, 2)),
    ((-1, 2, 1, -2), (0, 3)),
    ((1, 0, -1, 0), ()),
    (ZERO_MODE, (3,)),
)


def oracle_operator(rng, n, antilinear, nonfinite):
    """Nine terms on ORACLE_KEYS, some matrices sparse; with ``nonfinite``
    one entry is NaN and one is inf."""
    terms = {}
    for key in ORACLE_KEYS:
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        g[rng.random((n, n)) < 0.3] = 0.0
        terms[key] = g
    if nonfinite:
        terms[ORACLE_KEYS[2]][0, n - 1] = np.nan
        terms[ORACLE_KEYS[3]][n - 1, 0] = complex(0.5, np.inf)
    return FieldOperator(n, terms, antilinear)


def _pruned_reference(n, terms, antilinear):
    """The operator of ``terms`` without the exactly zero ones, term by term."""
    out = FieldOperator(n, {}, antilinear)
    out.terms = {key: g for key, g in terms.items() if np.count_nonzero(g)}
    return out


def _scale_reference(op, c):
    """One product per term: the oracle for the stacked ``scale``."""
    terms = {key: c * g for key, g in op.terms.items()}
    return _pruned_reference(op.fiber_dim, terms, op.antilinear)


def _conjugate_reference(op):
    """One conjugation per term: the oracle for the stacked ``conjugate``."""
    terms = {(negate_mode(k), d): np.conj(g) for (k, d), g in op.terms.items()}
    return _pruned_reference(op.fiber_dim, terms, op.antilinear)


def _conjugate_by_reference(op, u, u_inv):
    """Two matrix products per term: the oracle for the stacked ``conjugate_by``."""
    right = np.conj(u_inv) if op.antilinear else u_inv
    terms = {key: u @ g @ right for key, g in op.terms.items()}
    return _pruned_reference(op.fiber_dim, terms, op.antilinear)


def _adjoint_loop_reference(op):
    """The per-term loop with the closed form's arithmetic: each term's
    signed G^+ copied in C order, its Leibniz entries summed per term, the
    nonzero sums summed per key, conjugated for an antilinear operator and
    pruned.  The oracle for the stacked ``adjoint``."""
    terms = {}
    for (k, d), g in op.terms.items():
        mode = negate_mode(k)
        gab = np.ascontiguousarray(((-1.0) ** len(d)) * g.conj().T)
        pushed = {}
        for axes, d_new in operator_algebra._leibniz(d, ()):
            coeff = 1.0 + 0.0j
            for mu in axes:
                coeff *= 1j * mode[mu]
            if coeff != 0:
                h = coeff * gab
                pushed[d_new] = pushed[d_new] + h if d_new in pushed else h
        for d_new, h in pushed.items():
            if np.count_nonzero(h):
                key = (mode, d_new)
                terms[key] = terms[key] + h if key in terms else h
    if op.antilinear:
        terms = {(negate_mode(k), d): np.conj(g) for (k, d), g in terms.items()}
    return _pruned_reference(op.fiber_dim, terms, op.antilinear)


def map_operators(rng, n):
    """Operators in normal form for the term-wise maps, each linear and
    antilinear: the oracle terms with signed zeros planted, the same with a
    NaN and an inf entry, one with a NaN and no inf, one whose terms are
    purely imaginary, and the empty operator."""
    ops = []
    for antilinear in (False, True):
        for nonfinite in (False, True):
            op = oracle_operator(rng, n, antilinear, nonfinite)
            for g in op.terms.values():
                g[rng.random((n, n)) < 0.15] = complex(-0.0, 0.0)
                g[rng.random((n, n)) < 0.15] = complex(0.0, -0.0)
                g[rng.random((n, n)) < 0.15] = complex(-0.0, -0.0)
            ops.append(op)
        nan_only = oracle_operator(rng, n, antilinear, False)
        nan_only.terms[ORACLE_KEYS[4]][n - 1, n - 1] = complex(np.nan, 1.0)
        ops.append(nan_only)
        real = oracle_operator(rng, n, antilinear, False)
        ops.append(FieldOperator(n, {key: 1j * g.imag for key, g in real.terms.items()}, antilinear))
        ops.append(FieldOperator.zero(n, antilinear))
    return [op + FieldOperator.zero(n, op.antilinear) for op in ops]


def _has_inf(op):
    return any(np.isinf(g).any() for g in op.terms.values())


def assert_same_normal_form(got, expected):
    assert got.antilinear == expected.antilinear
    assert list(got.terms) == list(expected.terms)
    for key, g in expected.terms.items():
        assert np.array_equal(got.terms[key], g, equal_nan=True), key


def assert_same_bytes(got, expected):
    """The same keys in the same order and the same bits, zero signs included."""
    assert got.antilinear == expected.antilinear
    assert list(got.terms) == list(expected.terms)
    for key, g in expected.terms.items():
        assert got.terms[key].tobytes() == g.tobytes(), key


class TestReferenceArithmetic:
    """compose and adjoint repeat the reference loops' arithmetic exactly:
    the same keys in the same order and equal matrices, NaN included."""

    @pytest.mark.parametrize("nonfinite", [False, True])
    @pytest.mark.parametrize("antilinear", [False, True])
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_adjoint_matches_reference(self, n, antilinear, nonfinite):
        """G^+ is copied, not multiplied by the identity as in the reference,
        so a non-finite entry stays at its transposed place in every term it
        reaches instead of spreading over its row.  Every other entry is the
        reference's on the operator with the non-finite entries zeroed, and
        the result is unequal to itself and to the reference's."""
        rng = np.random.default_rng(100 * n + 10 * antilinear + nonfinite)
        op = oracle_operator(rng, n, antilinear, nonfinite)
        finite = {key: np.where(np.isfinite(g), g, 0.0) for key, g in op.terms.items()}
        expected = _adjoint_reference(FieldOperator(n, finite, antilinear))
        with np.errstate(invalid="ignore"):
            got = op.adjoint()
        assert len(expected.terms) > len(op.terms)  # derivatives pushed through phases
        spread = np.zeros((n, n), dtype=bool)
        spread[n - 1, 0] = spread[0, n - 1] = nonfinite
        reached = np.zeros_like(spread)
        for key, g in got.terms.items():
            reached |= ~np.isfinite(g)
            g[~np.isfinite(g)] = expected.terms[key][~np.isfinite(g)]
        assert np.array_equal(reached, spread)
        assert_same_normal_form(got, expected)
        if nonfinite:
            with np.errstate(invalid="ignore"):
                for other in (op.adjoint(), _adjoint_reference(op)):
                    assert not operator_equal(op.adjoint(), other, probe_cutoff=1).equal

    @pytest.mark.parametrize("nonfinite", [False, True])
    @pytest.mark.parametrize("linearity", ["ll", "la", "al", "aa"])
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_compose_matches_reference(self, n, linearity, nonfinite):
        rng = np.random.default_rng(1000 * n + 7 * len(linearity) + nonfinite)
        a = oracle_operator(rng, n, linearity[0] == "a", nonfinite)
        b = oracle_operator(rng, n, linearity[1] == "a", nonfinite)
        with np.errstate(invalid="ignore"):
            expected = _compose_reference(a, b)
            got = a @ b
        if nonfinite:
            assert_same_normal_form(got, expected)
        else:
            assert_same_bytes(got, expected)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_scale_matches_reference(self, n):
        for op in map_operators(np.random.default_rng(300 + n), n):
            for c in (-1.0, 0.0, 1e-300, np.nan, 2.5 - 0.5j):
                with np.errstate(invalid="ignore"):
                    expected = _scale_reference(op, c)
                    got = op.scale(c)
                assert_same_bytes(got, expected)
            if np.isfinite(op.max_abs()):
                assert op.scale(0.0).terms == {}

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_conjugate_matches_reference(self, n):
        for op in map_operators(np.random.default_rng(400 + n), n):
            assert_same_bytes(op.conjugate(), _conjugate_reference(op))

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_conjugate_by_matches_reference(self, n):
        """A random, hence non-unitary, ``u_inv`` and the unitary default."""
        rng = np.random.default_rng(500 + n)
        u = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        u_inv = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for op in map_operators(rng, n):
            with np.errstate(invalid="ignore"):
                pairs = [
                    (op.conjugate_by(u, u_inv), _conjugate_by_reference(op, u, u_inv)),
                    (op.conjugate_by(u), _conjugate_by_reference(op, u, u.conj().T)),
                ]
            for got, expected in pairs:
                assert_same_bytes(got, expected)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_stacked_adjoint_matches_loop(self, n):
        """Derivative terms up to the repeated axes (1, 1) and (2, 2), whose
        pushed entries add up within a term and across terms."""
        for op in map_operators(np.random.default_rng(600 + n), n):
            with np.errstate(invalid="ignore"):
                expected = _adjoint_loop_reference(op)
                got = op.adjoint()
            assert_same_bytes(got, expected)
            if op.terms:  # the entries of (2, 2) that keep one derivative meet (2,)
                mode = (0, 0, 3, 0) if op.antilinear else (0, 0, -3, 0)
                assert (mode, (2,)) in got.terms

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_mapped_terms_are_c_ordered_and_unwritten(self, n):
        """Each map's terms are C-ordered (later products round by the
        layout) and none writes the operator it maps."""
        rng = np.random.default_rng(700 + n)
        u = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for op in map_operators(rng, n):
            before = {key: g.copy() for key, g in op.terms.items()}
            with np.errstate(invalid="ignore"):
                mapped = [op.scale(2.0), op.conjugate(), op.conjugate_by(u), op.adjoint()]
            for out in mapped:
                assert all(g.flags.c_contiguous for g in out.terms.values())
            assert_same_bytes(op, FieldOperator(n, before, op.antilinear))

    def test_no_map_warns_on_a_nan_stack(self):
        op = map_operators(np.random.default_rng(8), 4)[2]
        assert not _has_inf(op) and np.isnan(op.max_abs())
        u = np.eye(4) + 0.5j * np.ones((4, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for adjoint_first in (op, op.conjugate()):
                adjoint_first.adjoint()
            op.scale(np.nan), op.scale(-1.0), op.conjugate_by(u, u), op.conjugate_by(u)

    def test_nonfinite_entries_reach_the_result(self):
        op = oracle_operator(np.random.default_rng(3), 4, False, True)
        with np.errstate(invalid="ignore"):
            assert np.isnan(op.adjoint().max_abs())
            assert np.isnan((op @ op).max_abs())

    def test_zero_term_leaves_no_trace_in_the_adjoint(self):
        """The constructor drops the zero derivative term, so the adjoint
        lists its keys in the order of the terms that remain, as a loop
        that skips each zero pushed entry does."""
        g = np.array([[1.0, 2.0j], [0.5, -1.0]])
        op = FieldOperator(2, {
            ((0, 0, 3, 0), (2,)): np.zeros((2, 2)),
            ((1, 0, 0, 0), ()): np.eye(2),
            ((0, 0, 3, 0), ()): g,
        })
        assert list(op.adjoint().terms) == [((-1, 0, 0, 0), ()), ((0, 0, -3, 0), ())]
        assert_same_bytes(op.adjoint(), _adjoint_loop_reference(op))

    def test_vanishing_leibniz_coefficients_are_skipped(self):
        # d_0 e^{i k.x} with k_0 = 0 is e^{i k.x} d_0: no underived term
        op = FieldOperator(2, {((0, 1, 0, 2), (0,)): np.eye(2)})
        assert list(op.adjoint().terms) == [((0, -1, 0, -2), (0,))]
        assert list((FieldOperator.derivative(2, 0) @ op).terms) == [((0, 1, 0, 2), (0, 0))]

    @pytest.mark.parametrize(
        "entry, kept",
        [
            (0.0, False),
            (-0.0, False),
            (complex(-0.0, -0.0), False),
            (complex(0.0, 5e-324), True),
            (complex(-5e-324, 0.0), True),
            (np.nan, True),
            (complex(0.0, np.nan), True),
            (np.inf, True),
        ],
    )
    def test_zero_terms_are_pruned(self, entry, kept):
        # a term is dropped only when every entry is +-0 in both parts
        g = np.zeros((2, 2), dtype=complex)
        g[1, 0] = entry
        key = ((1, 0, 0, 0), ())
        op = FieldOperator(2, {key: g, (ZERO_MODE, ()): np.eye(2)})
        with np.errstate(invalid="ignore"):
            scaled, adjoint = op.scale(2.0), op.adjoint()
        assert (key in op.terms) == kept
        assert (key in (op + FieldOperator.zero(2)).terms) == kept
        assert (key in scaled.terms) == kept
        assert ((negate_mode(key[0]), ()) in adjoint.terms) == kept


def multiplication_operator(rng, n, modes, antilinear=False):
    """Terms on ``modes`` without derivatives.  As ``represent`` gives each
    function its own mask, each matrix is diagonal on one residue class of
    the indices mod 3 (mod n when n < 3), and a fifth of them also link two
    classes by one off-diagonal entry."""
    classes = min(3, n)
    terms = {}
    for mode in modes:
        values = rng.normal(size=n) + 1j * rng.normal(size=n)
        g = np.diag(np.where(np.arange(n) % classes == rng.integers(classes), values, 0))
        if rng.random() < 0.2:
            g[rng.integers(n), rng.integers(n)] = values[0]
        terms[(mode, ())] = g
    return FieldOperator(n, terms, antilinear)


def pair_supports_meet(a, b):
    """Per term pair of ``a @ b`` (in loop order), whether some column of the
    left matrix and the same row of the right matrix are both nonzero."""
    b_terms = b.terms
    if a.antilinear:
        b_terms = {(negate_mode(k), d): np.conj(g) for (k, d), g in b.terms.items()}
    return [
        bool((ga.any(axis=0) & gb.any(axis=1)).any())
        for ga in a.terms.values()
        for gb in b_terms.values()
    ]


def pair_mask(a, b):
    """``compose``'s support mask for ``a @ b``, flattened in loop order."""
    b_terms = b.terms
    if a.antilinear:
        b_terms = {(negate_mode(k), d): np.conj(g) for (k, d), g in b.terms.items()}
    return [meet for row in operator_algebra._pair_mask(a.terms, b_terms) for meet in row]


NEGATIVE_ZERO = complex(-0.0, -0.0)
SMALL_MODES = [tuple(int(v) for v in m) for m in np.ndindex(2, 2, 1, 2)]


class TestComposeSkipsPairs:
    """``compose`` multiplies only the term pairs of two multiplication
    operators whose supports meet, with the arithmetic, keys and key order
    of the pair loop that skips the same pairs."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("space", ["manifold", "doubled", "electro"])
    def test_geometry_products(self, space, seed):
        geo = {
            "manifold": ManifoldGeometry,
            "doubled": DoubledGeometry,
            "electro": lambda: ElectrodynamicsGeometry(d=0.8 - 0.3j),
        }[space]()
        rng = np.random.default_rng(seed)
        a, b = (random_element(rng, geo.n_slots) for _ in range(2))
        pa, pb, pa_twisted = geo.represent(a), geo.represent(b), geo.represent(a.flip())
        products = [
            (pa, pb),
            (pb, pa_twisted),
            (geo.dirac, pa),
            (pa_twisted, geo.dirac),
            (pb, geo.twisted_commutator(a)),
            (geo.real_structure, pa),
            (pa, geo.real_structure),
            (geo.r_operator, pb),
        ]
        for left, right in products:
            assert_same_bytes(left @ right, _compose_reference(left, right))
        assert pair_mask(pa, pb) == pair_supports_meet(pa, pb)
        # distinct functions own distinct masks, so some pairs are skipped
        assert not all(pair_supports_meet(pa, pb))

    @pytest.mark.parametrize("linearity", ["ll", "la", "al", "aa"])
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_every_linearity(self, n, linearity):
        rng = np.random.default_rng(10 * n + ["ll", "la", "al", "aa"].index(linearity))
        a = multiplication_operator(rng, n, SMALL_MODES, linearity[0] == "a")
        b = multiplication_operator(rng, n, SMALL_MODES[::-1], linearity[1] == "a")
        assert 0 < sum(pair_supports_meet(a, b)) < len(a.terms) * len(b.terms)
        assert pair_mask(a, b) == pair_supports_meet(a, b)
        assert_same_bytes(a @ b, _compose_reference(a, b))

    @pytest.mark.parametrize("n", [2, 4])
    def test_planted_negative_zeros(self, n):
        """Keys 0 and 35 are reached by skipped pairs only and key 10 by a
        skipped pair before its one met pair, which comes last; every zero
        of the operands is -0.0 in both parts."""
        low = np.arange(n) < n // 2

        def masked(mask, seed):
            values = np.array([1, 1j]) @ np.random.default_rng(seed).normal(size=(2, n))
            g = np.full((n, n), NEGATIVE_ZERO)
            g[np.diag_indices(n)] = np.where(mask, values, NEGATIVE_ZERO)
            return g

        def op(modes_masks):
            out = FieldOperator(n)
            out.terms = {((m, 0, 0, 0), ()): masked(mask, m) for m, mask in modes_masks}
            return out

        a = op([(0, low), (10, ~low)])
        b = op([(10, ~low), (0, ~low), (25, low), (15, low)])
        got, expected = a @ b, _compose_reference(a, b)
        assert_same_bytes(got, expected)
        assert [k[0][0] for k in got.terms] == [25, 15, 20, 10]
        assert pair_supports_meet(a, b) == [False, False, True, True, True, True, False, False]
        assert pair_mask(a, b) == pair_supports_meet(a, b)

    def test_nonfinite_entries_turn_the_skip_off(self):
        """A NaN or inf entry times a zero of the other matrix is NaN, so
        every pair is multiplied and the NaN reaches a key no support test
        would fill."""
        rng = np.random.default_rng(7)
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            a = multiplication_operator(rng, 4, SMALL_MODES)
            b = multiplication_operator(rng, 4, SMALL_MODES[::-1])
            key = next(iter(a.terms))
            a.terms[key] = np.diag([bad, 0, 0, 0]).astype(complex)
            b_first = next(iter(b.terms))
            b.terms[b_first] = np.diag([0, 1.0, 1.0, 1.0]).astype(complex)
            with np.errstate(invalid="ignore"):
                got, expected = a @ b, _compose_reference(a, b)
            assert_same_bytes(got, expected)
            assert np.isnan(got.terms[(add_modes(key[0], b_first[0]), ())][0, 0])
            assert all(pair_mask(a, b)) and not all(pair_supports_meet(a, b))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_derivative_term_turns_the_skip_off(self, side):
        """One derivative term makes every pair meet: the support test covers
        products without derivatives only."""
        rng = np.random.default_rng(11)
        a = multiplication_operator(rng, 4, SMALL_MODES)
        b = multiplication_operator(rng, 4, SMALL_MODES[::-1])
        assert not all(pair_supports_meet(a, b))
        derived = b if side == "right" else a
        key = next(iter(derived.terms))
        derived.terms[(key[0], (1,))] = derived.terms.pop(key)
        assert all(pair_mask(a, b))
        assert_same_bytes(a @ b, _compose_reference(a, b))

    @pytest.mark.parametrize("antilinear", [False, True])
    def test_modes_at_two_to_the_62(self, antilinear):
        """Mode sums reach +-2^63, past int64, and stay Python integers."""
        big = 2**62
        rng = np.random.default_rng(62)
        modes = [(big, -big, 0, 1), (-big, big, big, 0), (big, 0, -big, -1)]
        a = multiplication_operator(rng, 4, modes, antilinear)
        b = multiplication_operator(rng, 4, [negate_mode(m) if antilinear else m for m in modes])
        got = a @ b
        assert_same_bytes(got, _compose_reference(a, b))
        assert any(abs(v) >= 2**63 for (k, _) in got.terms for v in k)
        assert all(type(v) is int for (k, _) in got.terms for v in k)

    @pytest.mark.parametrize("derivs", [False, True])
    def test_empty_operands(self, derivs):
        rng = np.random.default_rng(3)
        op = random_operator(rng, 3, max_deriv=2 if derivs else 0)
        empty = FieldOperator.zero(3)
        for left, right in ((op, empty), (empty, op), (empty, empty)):
            got = left @ right
            assert got.terms == {}
            assert_same_bytes(got, _compose_reference(left, right))

    @pytest.mark.parametrize("antilinear", [False, True])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_one_constant_term(self, side, antilinear):
        """J, R and the grading are one constant term: the pair loop makes
        each term of the other operand, derivatives and NaN included, one
        product in its own key, with no support test."""
        rng = np.random.default_rng(20 + antilinear)
        const = FieldOperator(
            4, {(ZERO_MODE, ()): rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))},
            antilinear,
        )
        for other in (
            oracle_operator(rng, 4, False, False),
            oracle_operator(rng, 4, True, True),
            multiplication_operator(rng, 4, SMALL_MODES),
        ):
            left, right = (const, other) if side == "left" else (other, const)
            with np.errstate(invalid="ignore"):
                got, expected = left @ right, _compose_reference(left, right)
            assert_same_bytes(got, expected)
            assert all(pair_mask(left, right))


def _max_abs_reference(op):
    """One reduction per term: the oracle for the stacked ``max_abs``."""
    peaks = [np.max(np.abs(g)) for g in op.terms.values()]
    return float(np.max(peaks, initial=0.0))


def _normal_form_distance_reference(o1, o2):
    """One reduction per key: the oracle for the stacked distance."""
    if o1.antilinear != o2.antilinear:
        return float(np.max([_max_abs_reference(o1), _max_abs_reference(o2)]))
    zero = np.zeros((o1.fiber_dim, o1.fiber_dim))
    keys = set(o1.terms) | set(o2.terms)
    peaks = [np.max(np.abs(o1.terms.get(k, zero) - o2.terms.get(k, zero))) for k in keys]
    return float(np.max(peaks, initial=0.0))


def _function_matrix_sum_reference(n, pairs):
    """The terms built as ``function_matrix_sum`` builds them, then copied
    through the constructor, which drops the exactly zero ones."""
    terms = {}
    for g, f in pairs:
        g = np.asarray(g, dtype=complex)
        for k, c in f.coeffs.items():
            terms.setdefault((k, ()), np.zeros((n, n), dtype=complex))
            terms[(k, ())] += c * g
    return FieldOperator(n, terms)


class TestStackedReductions:
    """One reduction per operator gives the bits of one per term: the same
    float, NaN where any entry is NaN, 0.0 for no term."""

    @staticmethod
    def _operators(rng, n):
        finite = [oracle_operator(rng, n, antilinear, False) for antilinear in (False, True)]
        nonfinite = [oracle_operator(rng, n, antilinear, True) for antilinear in (False, True)]
        perturbed = FieldOperator(n, finite[0].terms) + FieldOperator(
            n, {ORACLE_KEYS[0]: 1e-13 * np.eye(n), ((5, 0, 0, 0), ()): 1e200 * np.eye(n)}
        )
        empty = [FieldOperator.zero(n), FieldOperator.zero(n, antilinear=True)]
        return finite + nonfinite + [perturbed] + empty

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_max_abs_matches_per_term(self, n):
        for op in self._operators(np.random.default_rng(n), n):
            expected = _max_abs_reference(op)
            assert np.array_equal(op.max_abs(), expected, equal_nan=True)
            assert type(op.max_abs()) is float

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_normal_form_distance_matches_per_key(self, n):
        ops = self._operators(np.random.default_rng(50 + n), n)
        with np.errstate(invalid="ignore"):
            for o1 in ops:
                for o2 in ops:
                    expected = _normal_form_distance_reference(o1, o2)
                    got = normal_form_distance(o1, o2)
                    assert np.array_equal(got, expected, equal_nan=True), (o1, o2)

    def test_empty_operators(self):
        for antilinear in (False, True):
            empty = FieldOperator.zero(3, antilinear)
            assert empty.max_abs() == 0.0
            assert normal_form_distance(empty, empty) == 0.0
        assert normal_form_distance(FieldOperator.zero(3), FieldOperator.conjugation(3)) == 1.0


class TestFunctionMatrixSumBuild:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_matches_constructor_copy(self, seed):
        rng = np.random.default_rng(seed)
        pairs = [(rng.normal(size=(4, 4)), random_scalar(rng)) for _ in range(3)]
        pairs.append((np.eye(4), pairs[0][1]))  # a shared function's modes add up
        assert_same_bytes(function_matrix_sum(4, pairs), _function_matrix_sum_reference(4, pairs))

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (1, 1)])
    def test_matrix_shape_is_checked(self, shape):
        with pytest.raises(ValueError, match="fiber dimension"):
            function_matrix_sum(4, [(np.ones(shape), FourierScalar.one())])


def _zero_terms(op):
    return [key for key, g in op.terms.items() if not np.count_nonzero(g)]


class TestBuildersGiveNormalForm:
    """Every public builder of multiplication operators, the constructor
    included, drops the modes whose matrices come out exactly zero, as ``+``
    does."""

    #: a function whose stored coefficients include an exact zero and a -0.0
    HOLLOW = FourierScalar({(1, 0, 0, 0): 0j, (0, 2, 0, 0): complex(-0.0), ZERO_MODE: 1.5 - 0.5j})

    def test_cancelling_pairs(self):
        f = FourierScalar({(0, 1, 0, 0): 1.0 + 2.0j})
        eye = np.eye(2)
        assert function_matrix_sum(2, [(eye, f), (-eye, f)]).terms == {}
        kept = function_matrix_sum(2, [(eye, f), (eye, self.HOLLOW), (-eye, f)])
        assert list(kept.terms) == [(ZERO_MODE, ())]

    @pytest.mark.parametrize("antilinear", [False, True])
    def test_constructor(self, antilinear):
        """A zero matrix, one of signed zeros and two orderings of one
        derivative index whose matrices cancel leave no term."""
        eye = np.eye(2)
        op = FieldOperator(2, {
            ((1, 0, 0, 0), ()): np.zeros((2, 2)),
            ((0, 2, 0, 0), ()): np.array([[-0.0, complex(0.0, -0.0)], [NEGATIVE_ZERO, 0.0]]),
            (ZERO_MODE, (1, 2)): eye,
            (ZERO_MODE, (2, 1)): -eye,
            (ZERO_MODE, ()): eye,
        }, antilinear)
        assert list(op.terms) == [(ZERO_MODE, ())]
        assert _zero_terms(op) == []

    @pytest.mark.parametrize("space", [ManifoldGeometry, DoubledGeometry, ElectrodynamicsGeometry])
    def test_geometry_builders(self, space):
        geo = space()
        h = [self.HOLLOW] * 4
        slots = (self.HOLLOW,) * geo.n_slots
        built = {
            "represent": geo.represent(geo.element(slots, slots)),
            "selfadjoint_fluctuation": geo.selfadjoint_fluctuation(h, h),
            "fluctuation_from_z": geo.fluctuation_from_z(h, h),
            "chiral_vector_operator": chiral_vector_operator(h, h),
        }
        for name, op in built.items():
            assert op.terms, name
            assert _zero_terms(op) == [], name

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        for geo in (ManifoldGeometry(), DoubledGeometry(), ElectrodynamicsGeometry()):
            f, g = ([random_scalar(rng) for _ in range(4)] for _ in range(2))
            for op in (
                geo.represent(random_element(rng, geo.n_slots)),
                geo.selfadjoint_fluctuation(f, g),
                geo.fluctuation_from_z(f, g),
                chiral_vector_operator(f, g),
            ):
                assert _zero_terms(op) == []


class TestSummed:
    def test_cancelled_key_keeps_its_first_reached_place(self):
        """Pieces are added per key and only the final sums are tested: a key
        whose pieces cancel partway through and that a later piece fills
        again keeps its first place, and one that ends at zero is dropped.
        A chain of ``+`` drops the key when it cancels, so the refill lands
        at the end."""
        a, b, c = ((1, 0, 0, 0), ()), (ZERO_MODE, (2,)), ((0, 3, 0, -3), ())
        g = np.array([[1.0, 2.0j], [0.0, -1.5]])
        eye = np.eye(2, dtype=complex)
        pieces = [(a, g), (b, eye), (a, -g), (c, eye), (a, 2 * g), (c, -eye)]
        op = FieldOperator.summed(2, pieces)
        assert list(op.terms) == [a, b]
        assert op.terms[a].tobytes() == (g + -g + 2 * g).tobytes()
        chain = FieldOperator.zero(2)
        for key, m in pieces:
            chain = chain + FieldOperator(2, {key: m})
        assert list(chain.terms) == [b, a]
        assert chain.terms[a].tobytes() == op.terms[a].tobytes()


class TestConjugate:
    @pytest.mark.parametrize("antilinear", [False, True])
    def test_is_k_o_k(self, antilinear):
        """K O K equals the composition with K on both sides, term for term."""
        rng = np.random.default_rng(8 + antilinear)
        op = oracle_operator(rng, 4, antilinear, False)
        k = FieldOperator.conjugation(4)
        got = op.conjugate()
        assert_same_normal_form(got, k @ op @ k)
        assert list(got.terms) == [(negate_mode(m), d) for m, d in op.terms]
        s = random_section(rng, 4)
        assert (got.apply(s) - op.apply(s.conjugate()).conjugate()).max_abs() < 1e-12
