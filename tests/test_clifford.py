import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistkit import clifford as cl

from conftest import check_error

TOL = 1e-14

rapidities = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
axes = st.tuples(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
).filter(lambda n: np.linalg.norm(n) > 0.1)


class TestGammaMatrices:
    def test_pauli_values(self):
        np.testing.assert_array_equal(cl.PAULI[0], np.array([[0, 1], [1, 0]], dtype=complex))
        np.testing.assert_array_equal(cl.PAULI[1], np.array([[0, -1j], [1j, 0]]))
        np.testing.assert_array_equal(cl.PAULI[2], np.array([[1, 0], [0, -1]], dtype=complex))

    def test_gamma5_diagonal(self):
        np.testing.assert_allclose(cl.GAMMA5, np.diag([1, 1, -1, -1]).astype(complex), atol=TOL)

    def test_gamma5_product_orderings_agree(self):
        alt = cl.GAMMA[1] @ cl.GAMMA[2] @ cl.GAMMA[3] @ cl.GAMMA[0]
        np.testing.assert_allclose(alt, cl.GAMMA5, atol=TOL)

    def test_gammas_self_adjoint(self):
        for mu in range(4):
            np.testing.assert_allclose(cl.GAMMA[mu], cl.GAMMA[mu].conj().T, atol=TOL)

    def test_block_sum_and_difference(self):
        for mu in range(4):
            s = cl.SIGMA[mu] + cl.SIGMA_TILDE[mu]
            d = cl.SIGMA[mu] - cl.SIGMA_TILDE[mu]
            if mu == 0:
                np.testing.assert_allclose(s, 2 * cl.I2, atol=TOL)
                np.testing.assert_allclose(d, 0 * cl.I2, atol=TOL)
            else:
                np.testing.assert_allclose(s, 0 * cl.I2, atol=TOL)
                np.testing.assert_allclose(d, -2j * cl.PAULI[mu - 1], atol=TOL)


@pytest.mark.parametrize(
    "check_id", ["clifford.euclidean_anticommutators", "clifford.minkowski_anticommutators"]
)
def test_registry_claims(check_id):
    # both gamma tables; the grading twist flips the spatial gammas
    assert check_error(check_id, TOL, np.random.default_rng(50)) <= TOL


class TestSpinBoost:
    def test_identity(self):
        s = cl.SpinBoost(0.0)
        np.testing.assert_allclose(s.matrix, np.eye(4), atol=TOL)
        np.testing.assert_allclose(cl.lorentz_matrix(s), np.eye(4), atol=TOL)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            cl.SpinBoost(1.0, (0.0, 0.0, 0.0))

    @pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-200])
    def test_extreme_axis_scale_keeps_direction(self, scale):
        """Axes whose squares overflow, go subnormal or underflow normalise
        like (1, 1, 0)."""
        s = cl.SpinBoost(0.5, (scale, scale, 0.0))
        assert s.axis == cl.SpinBoost(0.5, (1.0, 1.0, 0.0)).axis

    @pytest.mark.parametrize("axis", [(np.inf, 0.0, 0.0), (np.nan, 1.0, 0.0)])
    def test_non_finite_axis_rejected(self, axis):
        with pytest.raises(ValueError, match="finite"):
            cl.SpinBoost(0.5, axis)

    @given(rapidities, axes)
    @settings(max_examples=60, deadline=None)
    def test_self_adjoint_not_unitary(self, a, axis):
        s = cl.SpinBoost(a, axis)
        np.testing.assert_allclose(s.matrix, s.matrix.conj().T, atol=1e-12)
        if abs(a) > 1e-3:
            assert np.max(np.abs(s.matrix @ s.matrix.conj().T - np.eye(4))) > 1e-4

    @given(rapidities, axes)
    @settings(max_examples=60, deadline=None)
    def test_inverse_blocks(self, a, axis):
        s = cl.SpinBoost(a, axis)
        np.testing.assert_allclose(s.matrix @ s.inverse, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(
            s.lambda_plus @ s.lambda_minus, cl.I2, atol=1e-12
        )

    @given(rapidities, axes)
    @settings(max_examples=60, deadline=None)
    def test_gamma0_conjugation_inverts(self, a, axis):
        s = cl.SpinBoost(a, axis)
        np.testing.assert_allclose(cl.GAMMA0 @ s.matrix @ cl.GAMMA0, s.inverse, atol=1e-12)

    @given(rapidities, axes)
    @settings(max_examples=60, deadline=None)
    def test_commutes_with_chirality(self, a, axis):
        s = cl.SpinBoost(a, axis)
        np.testing.assert_allclose(
            s.matrix @ cl.GAMMA5, cl.GAMMA5 @ s.matrix, atol=1e-12
        )

    @given(rapidities, axes)
    @settings(max_examples=60, deadline=None)
    def test_boosted_gamma_blocks(self, a, axis):
        s = cl.SpinBoost(a, axis)
        s_inv = s.inverse
        for mu in range(4):
            full = s.matrix @ cl.GAMMA[mu] @ s_inv
            np.testing.assert_allclose(full, s.gamma_boosted(mu), atol=1e-12)

    @staticmethod
    def _random_boosts(n):
        """Boosts of full rapidity up to MAX_RAPIDITY along random axes."""
        rng = np.random.default_rng(71)
        half = cl.MAX_RAPIDITY / 2
        for _ in range(n):
            yield cl.SpinBoost(float(rng.uniform(-half, half)), tuple(rng.normal(size=3)))

    def test_boosted_sigma_stacks_match_per_mu_products(self):
        for s in self._random_boosts(500):
            lm, lp = s.lambda_minus, s.lambda_plus
            for mu in range(4):
                assert s.sigma_boosted(mu).tobytes() == (lm @ cl.SIGMA[mu] @ lm).tobytes()
                assert (
                    s.sigma_tilde_boosted(mu).tobytes()
                    == (lp @ cl.SIGMA_TILDE[mu] @ lp).tobytes()
                )

    def test_boosted_sigma_rows_are_read_only(self):
        s = cl.SpinBoost(0.7, (0.3, -0.5, 0.8))
        for family in (s.sigma_boosted, s.sigma_tilde_boosted):
            for mu in range(4):
                with pytest.raises(ValueError):
                    family(mu)[0, 0] = 0.0

    def test_gamma_boosted_unchanged(self):
        for s in self._random_boosts(100):
            lm, lp = s.lambda_minus, s.lambda_plus
            for mu in range(4):
                gamma = s.gamma_boosted(mu)
                expected = cl._offdiag(lm @ cl.SIGMA[mu] @ lm, lp @ cl.SIGMA_TILDE[mu] @ lp)
                assert gamma.tobytes() == expected.tobytes()
                assert gamma.flags.writeable

    def test_conjugation_block_identity(self):
        # sigma_2 intertwines Lambda_+ with the conjugate of Lambda_-.
        s = cl.SpinBoost(0.7, (0.3, -0.5, 0.8))
        np.testing.assert_allclose(
            s.lambda_plus @ cl.PAULI[1], cl.PAULI[1] @ s.lambda_minus.conj(), atol=1e-12
        )
        np.testing.assert_allclose(
            s.lambda_minus @ cl.PAULI[1], cl.PAULI[1] @ s.lambda_plus.conj(), atol=1e-12
        )


class TestLorentzExtraction:
    def test_z_boost_entries(self):
        a = 0.45
        lam = cl.lorentz_matrix(cl.SpinBoost(a, (0, 0, 1)))
        b = 2 * a
        expected = np.eye(4)
        expected[0, 0] = expected[3, 3] = np.cosh(b)
        expected[0, 3] = expected[3, 0] = -np.sinh(b)
        np.testing.assert_allclose(lam, expected, atol=1e-12)

    @given(rapidities, axes)
    @settings(max_examples=80, deadline=None)
    def test_preserves_metric(self, a, axis):
        lam = cl.lorentz_matrix(cl.SpinBoost(a, axis))
        np.testing.assert_allclose(lam.T @ cl.ETA @ lam, cl.ETA, atol=1e-10)
        assert abs(np.linalg.det(lam) - 1.0) < 1e-10
        assert lam[0, 0] >= 1.0 - 1e-12

    @given(
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
        axes,
    )
    @settings(max_examples=40, deadline=None)
    def test_rapidity_additivity(self, a1, a2, axis):
        lam1 = cl.lorentz_matrix(cl.SpinBoost(a1, axis))
        lam2 = cl.lorentz_matrix(cl.SpinBoost(a2, axis))
        lam12 = cl.lorentz_matrix(cl.SpinBoost(a1 + a2, axis))
        np.testing.assert_allclose(lam1 @ lam2, lam12, atol=1e-10)

    @given(rapidities, axes)
    @settings(max_examples=60, deadline=None)
    def test_covector_norm_invariant(self, a, axis):
        rng = np.random.default_rng(7)
        p = rng.normal(size=4)
        q = cl.boost_covector(cl.SpinBoost(a, axis), p)
        np.testing.assert_allclose(q @ cl.ETA @ q, p @ cl.ETA @ p, atol=1e-9)


def _pauli_components_reference(x):
    """The trace form: the oracle for the entry-by-entry read."""
    c0 = np.trace(x, axis1=-2, axis2=-1) / 2.0
    cj = [np.trace(cl.PAULI[j] @ x, axis1=-2, axis2=-1) / 2.0 for j in range(3)]
    return np.stack([c0, *cj], axis=-1)


def _assert_same_floats(got, expected):
    """NaN at the same places, and the same bits, zero signs included,
    everywhere else."""
    got, expected = (np.ascontiguousarray(a).view(float) for a in (got, expected))
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


#: Entry parts that reach every rounding and non-finite case of the read.
PAULI_POOL = np.array(
    [1.5, -2.25, 0.0, -0.0, 1.0, 3e-300, -5e-324, 1.7e308, -1.7e308, np.inf, -np.inf, np.nan]
)


class TestPauliComponents:
    @staticmethod
    def _blocks(rng, shape, pool=PAULI_POOL):
        x = np.empty(shape + (2, 2), dtype=complex)
        x.real, x.imag = rng.choice(pool, size=x.shape), rng.choice(pool, size=x.shape)
        return x

    @pytest.mark.parametrize("layout", ["single", "stack", "strided", "nested"])
    def test_matches_trace_form(self, layout):
        rng = np.random.default_rng(len(layout))
        with np.errstate(all="ignore"):
            for _ in range(300):
                if layout == "single":
                    x = self._blocks(rng, ())
                elif layout == "stack":
                    x = self._blocks(rng, (int(rng.integers(1, 9)),))
                elif layout == "strided":  # Weyl blocks of a stack of 4 x 4 terms
                    full = self._blocks(rng, (5, 2)).reshape(5, 4, 2)
                    x = np.concatenate([full, full[:, :, ::-1]], axis=2)[:, 2:4, 0:2]
                else:
                    x = self._blocks(rng, (2, 3))
                _assert_same_floats(cl.pauli_components(x), _pauli_components_reference(x))

    def test_finite_blocks(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
        _assert_same_floats(cl.pauli_components(x), _pauli_components_reference(x))
        one = cl.pauli_components(x[0])
        assert one.shape == (4,)
        _assert_same_floats(one, _pauli_components_reference(x[0]))

    def test_nan_pattern(self):
        """A non-finite entry spoils c_1..c_3 and, on the diagonal, c_0."""
        x = np.ones((3, 2, 2), dtype=complex)
        x[0, 0, 1] = np.nan
        x[1, 1, 1] = np.inf
        x[2, 1, 0] = 1e308
        x[2, 0, 1] = 1e308
        with np.errstate(all="ignore"):
            c = cl.pauli_components(x)
        assert np.isfinite(c[0, 0]) and np.isnan(c[0, 1:]).all()
        assert np.isinf(c[1, 0].real) and np.isnan(c[1, 0].imag) and np.isnan(c[1, 1:]).all()
        # an overflowing finite sum is inf, its partner NaN by the division
        assert np.isinf(c[2, 1].real) and np.isnan(c[2, 1].imag) and np.isfinite(c[2, 3])


def _lorentz_matrix_reference(boost):
    """One Pauli read per block: the oracle for the stacked read."""
    lam_tilde = np.zeros((4, 4), dtype=complex)
    lam_sigma = np.zeros((4, 4), dtype=complex)
    for mu in range(4):
        x = boost.sigma_tilde_boosted(mu)
        y = boost.sigma_boosted(mu)
        if mu != 0:
            x, y = 1j * x, 1j * y
        c = _pauli_components_reference(x)
        lam_tilde[mu, 0], lam_tilde[mu, 1:] = c[0], -c[1:]
        lam_sigma[mu] = _pauli_components_reference(y)
    return lam_tilde, lam_sigma


def _boost_blocks_reference(boost):
    """The per-boost expressions: the oracle for the shared block arithmetic."""
    n = np.asarray(boost.axis)
    n_sigma = n[0] * cl.PAULI[0] + n[1] * cl.PAULI[1] + n[2] * cl.PAULI[2]
    a = boost.half_rapidity
    lp = np.cosh(a) * cl.I2 + np.sinh(a) * n_sigma
    lm = np.cosh(a) * cl.I2 - np.sinh(a) * n_sigma
    return lp, lm, lm @ cl.SIGMA @ lm, lp @ cl.SIGMA_TILDE @ lp


def _extreme_boosts(n):
    """Boosts up to MAX_RAPIDITY, with axes scaled by 1e+-200 and along the
    coordinate axes."""
    rng = np.random.default_rng(72)
    half = cl.MAX_RAPIDITY / 2
    boosts = [cl.SpinBoost(half, (0.0, 0.0, 1.0)), cl.SpinBoost(-half, (1.0, 0.0, 0.0))]
    for i in range(n):
        scale = (1.0, 1e200, 1e-200)[i % 3]
        a = float(rng.uniform(-half, half))
        boosts.append(cl.SpinBoost(a, tuple(scale * rng.normal(size=3))))
    return boosts


class TestBoostBlocks:
    @staticmethod
    def _blocks(boost):
        return (
            boost.lambda_plus,
            boost.lambda_minus,
            boost.sigma_boosted_stack,
            boost.sigma_tilde_boosted_stack,
        )

    def test_lazy_blocks_match_per_boost_expressions(self):
        for boost in _extreme_boosts(150):
            for got, expected in zip(self._blocks(boost), _boost_blocks_reference(boost)):
                _assert_same_floats(got, expected)

    def test_batch_fill_matches_lazy_blocks(self):
        boosts = _extreme_boosts(300)
        lazy = [self._blocks(boost) for boost in _extreme_boosts(300)]
        cl.SpinBoost.fill_blocks(boosts)
        cl.SpinBoost.fill_blocks([])
        for boost, expected in zip(boosts, lazy):
            assert {"_lambdas", "sigma_boosted_stack"} <= set(vars(boost))
            for got, want in zip(self._blocks(boost), expected):
                _assert_same_floats(got, want)
            for stack in self._blocks(boost)[2:]:
                assert not stack.flags.writeable
        assert boosts[0].lambda_plus is not boosts[1].lambda_plus
        _assert_same_floats(boosts[5].matrix, _extreme_boosts(300)[5].matrix)

    def test_lorentz_matrix_matches_per_block_read(self):
        for boost in _extreme_boosts(60)[:40]:
            with np.errstate(all="ignore"):
                lam_tilde, lam_sigma = _lorentz_matrix_reference(boost)
            try:
                got = cl.lorentz_matrix(boost)
            except ValueError:
                routes = np.abs(lam_tilde - lam_sigma).max() > 1e-10
                residue = max(np.abs(lam_tilde.imag).max(), np.abs(lam_sigma.imag).max())
                assert routes or residue > 1e-10
                continue
            _assert_same_floats(got, lam_tilde.real)
