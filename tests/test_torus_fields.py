import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistkit.torus_fields import (
    CELL_VOLUME,
    FourierScalar,
    Section,
    random_scalar,
    random_section,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def pair(seed):
    rng = np.random.default_rng(seed)
    return random_scalar(rng, cutoff=2), random_scalar(rng, cutoff=2)


class TestScalarAlgebra:
    def test_wave_derivative(self):
        f = FourierScalar.wave((1, 0, -2, 3))
        for mu, k in enumerate((1, 0, -2, 3)):
            np.testing.assert_allclose(
                (f.derivative(mu) - 1j * k * f).max_abs(), 0.0, atol=1e-15
            )

    def test_integral_picks_zero_mode(self):
        f = FourierScalar({(0, 0, 0, 0): 2.5 - 1j, (1, 0, 0, 0): 3.0})
        assert np.isclose(f.integral(), CELL_VOLUME * (2.5 - 1j))

    def test_product_is_pointwise(self):
        rng = np.random.default_rng(3)
        f = random_scalar(rng)
        g = random_scalar(rng)
        x = rng.uniform(0, 2 * np.pi, size=4)
        assert np.isclose((f * g)(x), f(x) * g(x))

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_leibniz(self, seed):
        f, g = pair(seed)
        for mu in range(4):
            lhs = (f * g).derivative(mu)
            rhs = f.derivative(mu) * g + f * g.derivative(mu)
            assert (lhs - rhs).max_abs() <= 1e-12

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_integration_by_parts(self, seed):
        f, g = pair(seed)
        for mu in range(4):
            lhs = (f.derivative(mu) * g).integral()
            rhs = -(f * g.derivative(mu)).integral()
            assert abs(lhs - rhs) <= 1e-10

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_conjugation(self, seed):
        f, g = pair(seed)
        assert ((f * g).conjugate() - f.conjugate() * g.conjugate()).max_abs() <= 1e-12
        assert (f.conjugate().conjugate() - f).max_abs() == 0.0
        x = np.random.default_rng(seed).uniform(0, 2 * np.pi, size=4)
        assert np.isclose(f.conjugate()(x), np.conj(f(x)))

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_real_imag_split(self, seed):
        f, _ = pair(seed)
        re, im = f.real_part(), ((-1j) * f).real_part()
        for part in (re, im):
            assert (part - part.conjugate()).max_abs() <= 1e-12
        assert (f - (re + 1j * im)).max_abs() <= 1e-12

    def test_max_abs_propagates_nan_in_any_mode_order(self):
        nan_mode = ((1, 0, 0, 0), np.nan)
        finite_mode = ((0, 0, 0, 0), 1.0)
        for modes in ([nan_mode, finite_mode], [finite_mode, nan_mode]):
            assert np.isnan(FourierScalar(dict(modes)).max_abs())
        assert FourierScalar(dict([finite_mode])).max_abs() == 1.0
        assert FourierScalar().max_abs() == 0.0

    def test_derivative_kills_constant(self):
        c = FourierScalar.constant(4.2)
        for mu in range(4):
            assert c.derivative(mu).max_abs() == 0.0


class TestSections:
    def test_component_round_trip(self):
        rng = np.random.default_rng(11)
        comps = [random_scalar(rng) for _ in range(4)]
        s = Section.from_components(comps)
        for i, f in enumerate(comps):
            assert (s.component(i) - f).max_abs() <= 1e-15

    def test_inner_conjugate_linear_first_slot(self):
        rng = np.random.default_rng(5)
        a = random_section(rng, 4)
        b = random_section(rng, 4)
        lam = 0.7 - 2.1j
        assert np.isclose(a.scale(lam).inner(b), np.conj(lam) * a.inner(b))
        assert np.isclose(a.inner(b.scale(lam)), lam * a.inner(b))
        assert np.isclose(a.inner(b), np.conj(b.inner(a)))

    def test_matmul_applies_fiberwise(self):
        rng = np.random.default_rng(9)
        s = random_section(rng, 2)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        t = s.matmul(m)
        for k, v in s.coeffs.items():
            np.testing.assert_allclose(t.coeffs[k], m @ v)

    def test_block_refused_where_a_vector_is_needed(self):
        """A Grassmann block has no complex L2 pairing and no scalar component."""
        block = Section(2, {(1, 0, 0, 0): np.ones((2, 3), dtype=complex)})
        vector = Section.plane_wave((1, 0, 0, 0), np.ones(2, dtype=complex))
        for call in (
            lambda: block.inner(vector),
            lambda: vector.inner(block),
            lambda: block.component(0),
        ):
            with pytest.raises(ValueError, match="Grassmann block"):
                call()
        assert block.max_abs() == 1.0

    def test_max_abs_propagates_nan_in_any_mode_order(self):
        nan_mode = ((1, 0, 0, 0), np.array([np.nan, 0.0]))
        finite_mode = ((0, 1, 0, 0), np.array([1.0, 0.0]))
        for modes in ([nan_mode, finite_mode], [finite_mode, nan_mode], [nan_mode]):
            assert np.isnan(Section(2, dict(modes)).max_abs())
        assert Section(2, dict([finite_mode])).max_abs() == 1.0
        assert Section(2).max_abs() == 0.0

    def test_conjugate_flips_modes(self):
        s = Section.plane_wave((1, 2, 0, -1), np.array([1.0 + 1j, 0.0]))
        t = s.conjugate()
        assert set(t.coeffs) == {(-1, -2, 0, 1)}
        np.testing.assert_allclose(t.coeffs[(-1, -2, 0, 1)], np.array([1.0 - 1j, 0.0]))
