"""Action engine against closed-form densities and pairing lemmas."""

import numpy as np
import pytest

from twistkit.clifford import IDENTITY_BOOST, SpinBoost
from twistkit.actions import (
    bilinear_integral,
    boosted_pairing,
    boosted_electro_lagrangian_action,
    boosted_manifold_lagrangian_action,
    electro_lagrangian_action,
    electro_operator_pieces,
    fermionic_action,
    fermionic_action_quadratic,
    grassmann_inner,
    manifold_lagrangian_action,
    overlapping_action_inputs,
    pairing_coefficients,
    promote_weyl_fields,
    route_spread,
    twisted_pairing,
    unit_weyl_fields,
    untwisted_pairing,
    weyl_derivative_form,
    weyl_mass_form,
    weyl_potential_form,
    weyl_vector_form,
)
from twistkit.geometries import (
    DOUBLED,
    MANIFOLD,
    ElectrodynamicsGeometry,
)
from twistkit.grassmann import GrassmannNumber, pair_coefficient_matrix
from twistkit.torus_fields import ZERO_MODE, FourierScalar, Section, negate_mode

TOL = 1e-10
BOOST_TOL = 1e-9


def random_boost(rng, max_half_rapidity=1.0):
    axis = rng.standard_normal(3)
    while np.linalg.norm(axis) < 1e-3:
        axis = rng.standard_normal(3)
    return SpinBoost(float(rng.uniform(0.1, max_half_rapidity)), tuple(axis))


def geometry_instance(name, rng):
    """The named space; the four-sector mass costs two normals from ``rng``."""
    if name == "manifold":
        return MANIFOLD
    if name == "doubled":
        return DOUBLED
    d = complex(rng.standard_normal() + 1j * rng.standard_normal())
    return ElectrodynamicsGeometry(d)


GEO_NAMES = ["manifold", "doubled", "electro"]


class TestPairingLemmas:
    @pytest.mark.parametrize("geo_name", GEO_NAMES)
    def test_plain_antisymmetry(self, geo_name):
        """<J phi, D xi> = -<J xi, D phi> on the invariant subspace."""
        rng = np.random.default_rng(41)
        geo = geometry_instance(geo_name, rng)
        for _ in range(5):
            w, f, g = overlapping_action_inputs(rng, 2 * geo.n_sectors)
            op = geo.dressed_dirac(f, g)
            phi = geo.h_r_section(w[: geo.n_sectors])
            xi = geo.h_r_section(w[geo.n_sectors :])
            fwd = untwisted_pairing(geo, op, phi, xi)
            bwd = untwisted_pairing(geo, op, xi, phi)
            assert abs(fwd + bwd) < TOL
            assert abs(fwd) > 1.0  # non-vacuous

    @pytest.mark.parametrize("geo_name", GEO_NAMES)
    def test_diagonal_vanishes(self, geo_name):
        """The untwisted pairing of a plain section with itself is zero."""
        rng = np.random.default_rng(42)
        geo = geometry_instance(geo_name, rng)
        w, f, g = overlapping_action_inputs(rng, geo.n_weyl_fields)
        op = geo.dressed_dirac(f, g)
        eta = geo.h_r_section(w[: geo.n_sectors])
        assert abs(untwisted_pairing(geo, op, eta, eta)) < TOL

    @pytest.mark.parametrize("geo_name", GEO_NAMES)
    def test_twisted_is_minus_untwisted(self, geo_name):
        """Inserting R flips the sign of the pairing on R-invariant vectors."""
        rng = np.random.default_rng(43)
        geo = geometry_instance(geo_name, rng)
        for _ in range(3):
            w, f, g = overlapping_action_inputs(rng, 2 * geo.n_sectors)
            op = geo.dressed_dirac(f, g)
            phi = geo.h_r_section(w[: geo.n_sectors])
            xi = geo.h_r_section(w[geo.n_sectors :])
            twisted = twisted_pairing(geo, op, phi, xi)
            plain = untwisted_pairing(geo, op, phi, xi)
            assert abs(twisted + plain) < TOL
            assert abs(twisted) > 1.0

    def test_twisted_is_minus_untwisted_grassmann(self):
        """Same sign flip for the promoted (anticommuting) evaluation."""
        rng = np.random.default_rng(44)
        geo = geometry_instance("electro", rng)
        w, f, g = overlapping_action_inputs(rng, geo.n_weyl_fields)
        op = geo.dressed_dirac(f, g)
        pro = promote_weyl_fields(w)
        eta = geo.h_r_section(list(pro.fields))
        twisted = twisted_pairing(geo, op, eta, eta)
        plain = untwisted_pairing(geo, op, eta, eta)
        assert abs(twisted + plain) < TOL
        assert abs(twisted) > 1.0


class TestPairingCoefficients:
    @pytest.mark.parametrize("boosted", [False, True])
    @pytest.mark.parametrize("geo_name", GEO_NAMES)
    def test_matrix_matches_pairwise_pairings(self, geo_name, boosted):
        """The hoisted slot maps give the matrix of one pairing per (i, j)."""
        rng = np.random.default_rng(45)
        geo = geometry_instance(geo_name, rng)
        w, f, g = overlapping_action_inputs(rng, geo.n_weyl_fields)
        op = geo.dressed_dirac(f, g)
        pro = promote_weyl_fields(w)
        boost = random_boost(rng) if boosted else None

        def slots(i):
            units = unit_weyl_fields(pro, i)
            if geo.n_sectors == 1:
                return geo.h_r_section(units[:1]), geo.h_r_section(units[1:])
            return geo.h_r_section(units), geo.h_r_section(units)

        n = pro.n_generators
        expected = np.zeros((n, n), dtype=complex)
        for i in range(n):
            first = slots(i)[0]
            for j in range(n):
                second = slots(j)[1]
                if boost is None:
                    val = twisted_pairing(geo, op, first, second)
                else:
                    val = boosted_pairing(geo, op, boost, first, second)
                expected[i, j] = (
                    pro.amplitudes[i] * pro.amplitudes[j] * val.coefficient(())
                )
        got = pairing_coefficients(geo, op, pro, boost)
        assert np.max(np.abs(expected)) > 1.0
        assert np.max(np.abs(got - expected)) <= 1e-13


class TestPromotion:
    def test_generators_and_amplitudes_align(self):
        rng = np.random.default_rng(5)
        fields, _, _ = overlapping_action_inputs(rng, 3)
        pro = promote_weyl_fields(fields)
        assert pro.n_generators == sum(2 * len(f.coeffs) for f in fields)
        # each promoted amplitude is a_i * theta_i
        for i, (slot, comp, mode) in enumerate(pro.table):
            val = pro.fields[slot].coeffs[mode][comp]
            expected = pro.amplitudes[i] * GrassmannNumber.generator(i)
            assert abs(val - expected) == 0.0

    def test_unit_fields_reconstruct(self):
        rng = np.random.default_rng(6)
        fields, _, _ = overlapping_action_inputs(rng, 2)
        pro = promote_weyl_fields(fields)
        rebuilt = [Section(2) for _ in fields]
        for i in range(pro.n_generators):
            units = unit_weyl_fields(pro, i)
            for s in range(len(fields)):
                rebuilt[s] = rebuilt[s] + units[s].scale(pro.amplitudes[i])
        for orig, reb in zip(fields, rebuilt):
            assert (orig - reb).max_abs() < 1e-14

    def test_action_is_pure_degree_two(self):
        rng = np.random.default_rng(7)
        w, f, g = overlapping_action_inputs(rng, 2)
        op = DOUBLED.dressed_dirac(f, g)
        pro = promote_weyl_fields(w)
        val = fermionic_action(DOUBLED, op, pro)
        assert val.max_degree() == 2
        assert abs(val.degree_part(0)) == 0.0

    def test_coefficient_matrix_antisymmetric(self):
        rng = np.random.default_rng(8)
        w, f, g = overlapping_action_inputs(rng, 2)
        op = DOUBLED.dressed_dirac(f, g)
        pro = promote_weyl_fields(w)
        val = fermionic_action(DOUBLED, op, pro)
        m = pair_coefficient_matrix(val, pro.n_generators)
        assert np.max(np.abs(m + m.T)) < 1e-12

    def test_integrals_on_plain_sections(self):
        """grassmann_inner conjugates slot one, bilinear_integral does not."""
        rng = np.random.default_rng(9)
        s = Section(2)
        s.coeffs[(1, 0, -1, 0)] = np.array([2.0 + 1j, 0.0], dtype=complex)
        t = Section(2)
        t.coeffs[(1, 0, -1, 0)] = np.array([3.0 - 1j, 0.0], dtype=complex)
        t.coeffs[(-1, 0, 1, 0)] = np.array([0.5j, 0.0], dtype=complex)
        vol = (2 * np.pi) ** 4
        inner = grassmann_inner(s, t)
        assert abs(inner - vol * np.conj(2 + 1j) * (3 - 1j)) < 1e-9
        bil = bilinear_integral(s, t)
        assert abs(bil - vol * (2 + 1j) * 0.5j) < 1e-9


class TestOverlappingInputs:
    @pytest.mark.parametrize("seed", range(6))
    def test_fiber_four_sections_share_one_pool(self, seed):
        rng = np.random.default_rng(seed)
        sections, f, g = overlapping_action_inputs(rng, 3, fiber=4)
        pool = set(sections[0].coeffs)
        assert pool == {negate_mode(k) for k in pool}
        # two carrier modes and their negatives; only the zero mode is its own
        assert len(pool) == (3 if ZERO_MODE in pool else 4)
        for s in sections:
            assert s.fiber_dim == 4
            assert set(s.coeffs) == pool
            assert all(v.shape == (4,) and np.all(v != 0) for v in s.coeffs.values())
        assert len(f) == len(g) == 4
        assert all(c.is_real() for c in f + g)

    @pytest.mark.parametrize("name", ["manifold", "doubled", "electro"])
    def test_weyl_field_count_fits_the_action(self, name):
        rng = np.random.default_rng(13)
        geo = geometry_instance(name, rng)
        w, f, g = overlapping_action_inputs(rng, geo.n_weyl_fields + 1)
        op = geo.dressed_dirac(f, g)
        assert abs(fermionic_action(geo, op, promote_weyl_fields(w[:-1]))) > 1e-6
        with pytest.raises(ValueError):
            fermionic_action(geo, op, promote_weyl_fields(w))


class TestClosedForms:
    @pytest.mark.parametrize(
        "geo_name, boosted, seed",
        [
            ("manifold", False, 100),
            ("doubled", False, 200),
            ("electro", False, 300),
            ("manifold", True, 401),
            ("doubled", True, 402),
            ("electro", True, 403),
        ],
    )
    def test_engine_matches_density(self, geo_name, boosted, seed):
        """Engine, quadratic route and the geometry's closed density agree."""
        rng = np.random.default_rng(seed)
        for _ in range(10):
            boost = random_boost(rng) if boosted else None
            geo = geometry_instance(geo_name, rng)
            w, f, g = overlapping_action_inputs(rng, geo.n_weyl_fields)
            op = geo.dressed_dirac(f, g)
            pro = promote_weyl_fields(w)
            eng = fermionic_action(geo, op, pro, boost=boost)
            lag = geo.closed_form_action(pro.fields, f, g, boost)
            quad = fermionic_action_quadratic(geo, op, pro, boost=boost)
            assert route_spread(eng, lag, quad) < TOL
            assert abs(eng) > 1.0


class TestManifoldAction:
    def test_spatial_potential_is_silent(self):
        """The density only sees f0: zeroing the spatial f changes nothing."""
        rng = np.random.default_rng(101)
        w, f, _ = overlapping_action_inputs(rng, 2)
        pro = promote_weyl_fields(w)
        zero = FourierScalar.zero()
        full = fermionic_action(MANIFOLD, MANIFOLD.dressed_dirac(f, None), pro)
        time_only = fermionic_action(
            MANIFOLD, MANIFOLD.dressed_dirac([f[0], zero, zero, zero], None), pro
        )
        assert abs(full - time_only) < TOL


class TestDoubledAction:
    def test_doubling_factor(self):
        """Each sheet contributes the single-sheet density once."""
        rng = np.random.default_rng(201)
        w, f, _ = overlapping_action_inputs(rng, 2)
        pro = promote_weyl_fields(w)
        single = fermionic_action(MANIFOLD, MANIFOLD.dressed_dirac(f, None), pro)
        double = fermionic_action(DOUBLED, DOUBLED.dressed_dirac(f, None), pro)
        assert abs(double - 2 * single) < TOL


class TestElectroAction:
    def test_massless_limit(self):
        rng = np.random.default_rng(301)
        geo = ElectrodynamicsGeometry(0.0)
        w, f, g = overlapping_action_inputs(rng, 4)
        op = geo.dressed_dirac(f, g)
        pro = promote_weyl_fields(w)
        eng = fermionic_action(geo, op, pro)
        lag = electro_lagrangian_action(pro.fields, f, g, 0.0)
        assert abs(eng - lag) < TOL

    def test_piece_decomposition(self):
        """The four operator summands map onto signed single-sheet densities."""
        rng = np.random.default_rng(302)
        for _ in range(3):
            geo = geometry_instance("electro", rng)
            d = geo.d
            w, f, g = overlapping_action_inputs(rng, geo.n_weyl_fields)
            pro = promote_weyl_fields(w)
            p1, p2, z1, z2 = pro.fields
            pieces = electro_operator_pieces(geo, f, g)
            vals = {k: fermionic_action(geo, op, pro) for k, op in pieces.items()}
            total = fermionic_action(geo, geo.dressed_dirac(f, g), pro)
            assert abs(sum(vals.values(), start=0) - total) < TOL

            expected = {
                "derivative": -2 * (weyl_derivative_form(p1, z1) + weyl_derivative_form(p2, z2)),
                "chiral": -2 * weyl_potential_form(p1, z1, f[0])
                + 2 * weyl_potential_form(p2, z2, f[0]),
                "vector": 2 * weyl_vector_form(p1, z1, g)
                + 2 * weyl_vector_form(p2, z2, g),
                "mass": -2 * np.conj(d) * weyl_mass_form(p1, z2)
                - 2 * d * weyl_mass_form(p2, z1),
            }
            for name in pieces:
                assert abs(vals[name] - expected[name]) < TOL, name


class TestBoostedActions:
    @pytest.mark.parametrize("geo_name", GEO_NAMES)
    def test_boost_invariance(self, geo_name):
        """Boosting slots and operator together leaves the action unchanged."""
        rng = np.random.default_rng(400)
        geo = geometry_instance(geo_name, rng)
        w, f, g = overlapping_action_inputs(rng, geo.n_weyl_fields)
        op = geo.dressed_dirac(f, g)
        pro = promote_weyl_fields(w)
        plain = fermionic_action(geo, op, pro)
        for _ in range(5):
            boost = random_boost(rng)
            boosted = fermionic_action(geo, op, pro, boost=boost)
            assert abs(boosted - plain) < BOOST_TOL

    def test_identity_boost_reduces_to_plain_density(self):
        """At zero rapidity the boosted densities collapse to the plain ones,
        including the cancellation of the spatial potential components."""
        rng = np.random.default_rng(404)
        w, f, g = overlapping_action_inputs(rng, 4)
        pro2 = promote_weyl_fields(w[:2])
        b_man = boosted_manifold_lagrangian_action(
            pro2.fields[0], pro2.fields[1], f, IDENTITY_BOOST
        )
        p_man = manifold_lagrangian_action(pro2.fields[0], pro2.fields[1], f[0])
        assert abs(b_man - p_man) < TOL

        d = 0.4 + 0.9j
        pro4 = promote_weyl_fields(w)
        b_el = boosted_electro_lagrangian_action(pro4.fields, f, g, d, IDENTITY_BOOST)
        p_el = electro_lagrangian_action(pro4.fields, f, g, d)
        assert abs(b_el - p_el) < TOL
