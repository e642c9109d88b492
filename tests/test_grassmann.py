"""Exterior-algebra arithmetic and the antisymmetric pair-form oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistkit.grassmann import (
    GrassmannNumber,
    _upper_pairs,
    antisymmetric_pair_form,
    pair_coefficient_matrix,
)
from twistkit.operator_algebra import FieldOperator
from twistkit.torus_fields import Section

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_element(rng, n_gen=5, max_degree=2):
    out = GrassmannNumber.scalar(complex(rng.normal(), rng.normal()))
    for _ in range(4):
        deg = int(rng.integers(1, max_degree + 1))
        idx = tuple(sorted(rng.choice(n_gen, size=deg, replace=False).tolist()))
        out = out + GrassmannNumber(
            {idx: complex(rng.normal(), rng.normal())}
        )
    return out


class TestAlgebra:
    def test_anticommutation(self):
        t = [GrassmannNumber.generator(i) for i in range(4)]
        for i in range(4):
            for j in range(4):
                assert abs(t[i] * t[j] + t[j] * t[i]) == 0.0

    def test_nilpotency(self):
        t2 = GrassmannNumber.generator(2)
        assert abs(t2 * t2) == 0.0
        expr = (1.5 * t2 + GrassmannNumber.scalar(2.0)) * t2
        assert expr == 2.0 * t2

    def test_sign_of_triple_product(self):
        t0, t1, t2 = (GrassmannNumber.generator(i) for i in range(3))
        assert (t2 * t0 * t1).coefficient((0, 1, 2)) == 1.0
        assert (t2 * t1 * t0).coefficient((0, 1, 2)) == -1.0

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        a = random_element(rng)
        b = random_element(rng)
        c = random_element(rng)
        assert abs((a * b) * c - a * (b * c)) < 1e-12

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_distributivity(self, seed):
        rng = np.random.default_rng(seed)
        a = random_element(rng)
        b = random_element(rng)
        c = random_element(rng)
        assert abs(a * (b + c) - (a * b + a * c)) < 1e-12

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_conjugation_is_multiplicative(self, seed):
        # amplitude-only conjugation with self-conjugate generators
        rng = np.random.default_rng(seed)
        a = random_element(rng)
        b = random_element(rng)
        assert abs((a * b).conjugate() - a.conjugate() * b.conjugate()) < 1e-12

    def test_degree_filter(self):
        t0, t1 = GrassmannNumber.generator(0), GrassmannNumber.generator(1)
        g = GrassmannNumber.scalar(3.0) + 2.0 * t0 + 5.0 * (t0 * t1)
        assert g.degree_part(0).coefficient(()) == 3.0
        assert g.degree_part(1).coefficient((0,)) == 2.0
        assert g.degree_part(2).coefficient((0, 1)) == 5.0
        assert g.degree_part(0) + g.degree_part(1) + g.degree_part(2) == g

    def test_abs_propagates_nan_in_any_insertion_order(self):
        nan_term = ((0, 2), np.nan)
        finite_term = ((0, 1), 3.0 + 4.0j)
        for terms in ([nan_term, finite_term], [finite_term, nan_term]):
            assert np.isnan(abs(GrassmannNumber(dict(terms))))
        assert abs(GrassmannNumber(dict([finite_term]))) == 5.0
        assert abs(GrassmannNumber.zero()) == 0.0


class TestPairForm:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_quadratic_form_collapses_to_antisymmetric_part(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        t = [GrassmannNumber.generator(i) for i in range(n)]
        direct = GrassmannNumber.zero()
        for i in range(n):
            for j in range(n):
                direct = direct + b[i, j] * (t[i] * t[j])
        assert abs(direct - antisymmetric_pair_form(b)) < 1e-12

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_coefficient_matrix_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        g = antisymmetric_pair_form(b)
        m = pair_coefficient_matrix(g, n)
        assert np.allclose(m, -m.T)
        assert np.allclose(m, b - b.T)

    def test_symmetric_matrix_gives_zero(self):
        b = np.array([[1.0, 2.0], [2.0, 5.0]])
        assert abs(antisymmetric_pair_form(b)) == 0.0


class TestNumpyInterop:
    def test_matrix_action_on_grassmann_vector(self):
        t = [GrassmannNumber.generator(i) for i in range(2)]
        v = np.array(t, dtype=object)
        m = np.array([[0.0, 1.0j], [1.0, 0.0]])
        w = np.dot(m, v)
        assert w[0] == 1j * t[1]
        assert w[1] == t[0]

    def test_conj_dispatches_to_conjugate(self):
        g = GrassmannNumber({(0,): 1.0 + 2.0j})
        arr = np.array([g], dtype=object)
        assert np.conj(arr)[0] == GrassmannNumber({(0,): 1.0 - 2.0j})

    def test_field_operator_acts_on_grassmann_section(self):
        """The block ``[[1, 0], [0, 1]]`` is the amplitude ``(t0, t1)``."""
        t0, t1 = GrassmannNumber.generator(0), GrassmannNumber.generator(1)
        sec = Section(2, {(1, 0, 0, 0): np.eye(2, dtype=complex)})
        d_op = FieldOperator.derivative(2, 0)
        out = d_op.apply(sec)
        v = out.coeffs[(1, 0, 0, 0)]
        assert v.shape == (2, 2)
        rows = [GrassmannNumber({(i,): c for i, c in enumerate(row)}) for row in v]
        assert rows[0] == 1j * t0
        assert rows[1] == 1j * t1
        assert out.max_abs() == 1.0


def constructor_pair_form(matrix):
    """``antisymmetric_pair_form`` through the validating constructor."""
    b = np.asarray(matrix)
    rows, cols = np.triu_indices(b.shape[0], k=1)
    pairs = zip(rows.tolist(), cols.tolist(), (b[rows, cols] - b[cols, rows]).tolist())
    return GrassmannNumber({(i, j): c for i, j, c in pairs})


def coefficient_bits(g):
    """Keys in insertion order with each value's type and exact parts."""
    return [(k, type(c), c.real.hex(), c.imag.hex()) for k, c in g.coeffs.items()]


def special_matrix(n, dtype=complex):
    """Random entries, with exact zeros, -0.0, NaN and inf sprinkled in."""
    rng = np.random.default_rng(n)
    b = rng.normal(size=(n, n)).astype(dtype)
    if dtype == complex:
        b = b + 1j * rng.normal(size=(n, n))
    if n > 1:
        b[0, 1] = b[1, 0]  # an exact zero difference
    if n > 3:
        b[1, 2], b[2, 1] = -0.0, 0.0
        b[0, 3] = np.nan
        b[2, 3] = np.inf
        b[3, 2] = np.inf  # inf - inf is NaN
        b[1, 3] = -np.inf
    return b


class TestFastPaths:
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    @pytest.mark.parametrize("dtype", [complex, float])
    def test_pair_form_matches_constructor(self, n, dtype):
        b = special_matrix(n, dtype)
        with np.errstate(invalid="ignore"):
            got = antisymmetric_pair_form(b)
            expected = constructor_pair_form(b)
        assert coefficient_bits(got) == coefficient_bits(expected)
        assert len(got.coeffs) == (n * (n - 1)) // 2 - (n > 1) - (n > 3)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_cached_indices_survive_mutated_forms(self):
        b = special_matrix(5)
        first = antisymmetric_pair_form(b)
        first.coeffs.clear()
        first.coeffs[(0, 1)] = 7.0 + 0j
        with pytest.raises(ValueError):
            _upper_pairs(5)[0][0] = 3
        assert coefficient_bits(antisymmetric_pair_form(b)) == coefficient_bits(
            constructor_pair_form(b)
        )
        rows, cols, keys = _upper_pairs(5)
        np.testing.assert_array_equal(rows, np.triu_indices(5, k=1)[0])
        np.testing.assert_array_equal(cols, np.triu_indices(5, k=1)[1])
        assert keys == tuple(zip(rows.tolist(), cols.tolist()))

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_sum_and_negation_match_constructor(self, n):
        x = antisymmetric_pair_form(special_matrix(n))
        y = antisymmetric_pair_form(special_matrix(n).T)  # -x: cancels to zero
        z = GrassmannNumber({(): -0.0, (0,): 1.0, (0, 1): np.inf, (1, 2): -2.0j})
        for value in (x + y, x + z, z + x, y + z + 1.5, -x, -z, x - z, 2.0 - x):
            rebuilt = GrassmannNumber(dict(value.coeffs))
            assert coefficient_bits(value) == coefficient_bits(rebuilt)
        # finite entries cancel exactly; NaN and inf - inf entries stay
        assert bool((x + y).coeffs) == (n > 3)
        assert list((-x).coeffs) == list(x.coeffs)
