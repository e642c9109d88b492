"""Action engine against closed-form densities and pairing lemmas."""

import numpy as np
import pytest

import twistkit.actions as actions
from twistkit.clifford import PAULI
from twistkit.actions import (
    bilinear_integral,
    boosted_pairing,
    boosted_weyl_density_operators,
    covariant_weyl_density_operators,
    electro_lagrangian_action,
    electro_operator_pieces,
    fermionic_action,
    fermionic_action_quadratic,
    grassmann_inner,
    overlapping_action_inputs,
    pairing_coefficients,
    pairing_slots,
    promote_weyl_fields,
    route_spread,
    twisted_pairing,
    unit_weyl_fields,
    untwisted_pairing,
    weyl_derivative_form,
    weyl_potential_form,
)
from twistkit.dynamics import _random_boost
from twistkit.geometries import (
    DoubledGeometry,
    ElectrodynamicsGeometry,
    ManifoldGeometry,
    _GeometryBase,
)
from twistkit.grassmann import GrassmannNumber, pair_coefficient_matrix
from twistkit.operator_algebra import FieldOperator, function_matrix_sum
from twistkit.torus_fields import (
    CELL_VOLUME,
    ZERO_MODE,
    FourierScalar,
    Section,
    negate_mode,
)

from conftest import check_error

TOL = 1e-10
BOOST_TOL = 1e-9
MANIFOLD = ManifoldGeometry()
DOUBLED = DoubledGeometry()
_S2 = PAULI[1]


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


@pytest.mark.parametrize(
    "check_id, gate, runs",
    [
        ("doubled.action_closed_form", TOL, 1),  # twice the single sheet, 3 instances
        ("actions.printed_factor_conventions", TOL, 1),  # zero-rapidity collapse
        ("actions.twisted_pairing_antisymmetry", TOL, 3),  # -untwisted, 3 pairs per space
        ("boost.action_invariance", BOOST_TOL, 3),  # 6 boosts per space
    ],
)
def test_registry_claims(check_id, gate, runs):
    assert check_error(check_id, gate, np.random.default_rng(48), runs) <= gate


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
        boost = _random_boost(rng) if boosted else None

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

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("boosted", [False, True])
    @pytest.mark.parametrize("geo_name", GEO_NAMES)
    def test_bit_identical_to_looped_inner_products(self, geo_name, boosted, seed):
        rng = np.random.default_rng(1000 + seed)
        geo = geometry_instance(geo_name, rng)
        w, f, g = overlapping_action_inputs(rng, geo.n_weyl_fields)
        op = geo.dressed_dirac(f, g)
        boost = _random_boost(rng) if boosted else None
        pro = promote_weyl_fields(w)
        expected = looped_pairing_coefficients(geo, op, pro, boost)
        assert np.max(np.abs(expected)) > 1.0
        assert_same_bits(pairing_coefficients(geo, op, pro, boost), expected)

    @pytest.mark.parametrize("geo_name", GEO_NAMES)
    def test_zero_generators(self, geo_name):
        geo = geometry_instance(geo_name, np.random.default_rng(0))
        pro = promote_weyl_fields([Section(2) for _ in range(geo.n_weyl_fields)])
        got = pairing_coefficients(geo, geo.dirac, pro)
        assert got.shape == (0, 0) and got.dtype == complex
        assert_same_bits(got, looped_pairing_coefficients(geo, geo.dirac, pro))

    @pytest.mark.parametrize("boosted", [False, True])
    def test_empty_first_slot_images(self, boosted):
        """Manifold units of field 1 leave the first slot empty."""
        rng = np.random.default_rng(47)
        w, f, g = overlapping_action_inputs(rng, 2)
        op = MANIFOLD.dressed_dirac(f, g)
        boost = _random_boost(rng) if boosted else None
        pro = promote_weyl_fields([Section(2), w[1]])
        got = pairing_coefficients(MANIFOLD, op, pro, boost)
        assert pro.n_generators > 0 and not np.any(got)
        assert_same_bits(got, looped_pairing_coefficients(MANIFOLD, op, pro, boost))

    @pytest.mark.parametrize("boosted", [False, True])
    @pytest.mark.parametrize("n_modes", [2, 3])
    def test_multi_mode_left_images(self, n_modes, boosted):
        """A real structure with phase terms at a - b and b - a, for carrier
        modes a and b, gives every left image two or three modes that one
        right image also carries, so entries sum that many products in the
        left image's order."""
        rng = np.random.default_rng(48)
        w, f, g = overlapping_action_inputs(rng, 2)
        a, *rest = w[0].coeffs
        b = next(k for k in rest if k != negate_mode(a))
        diff = tuple(x - y for x, y in zip(a, b))
        geo = ManifoldGeometry()
        j = geo.real_structure.terms[(ZERO_MODE, ())]
        terms = {(ZERO_MODE, ()): j, (diff, ()): 0.5j * j, (negate_mode(diff), ()): -0.25 * j}
        geo.real_structure = FieldOperator(
            4, dict(list(terms.items())[:n_modes]), antilinear=True
        )
        op = geo.dressed_dirac(f, g)
        boost = _random_boost(rng) if boosted else None
        pro = promote_weyl_fields(w)
        left, right = pairing_slots(geo, op, boost)
        units = [unit_weyl_fields(pro, i) for i in range(pro.n_generators)]
        lefts = [set(left(geo.h_r_section(u[:1])).coeffs) for u in units]
        rights = [set(right(geo.h_r_section(u[1:])).coeffs) for u in units]
        assert {len(modes) for modes in lefts if modes} == {n_modes}
        assert any(lm <= rm for lm in lefts if lm for rm in rights)
        assert_same_bits(
            pairing_coefficients(geo, op, pro, boost),
            looped_pairing_coefficients(geo, op, pro, boost),
        )

    @pytest.mark.parametrize("boosted", [False, True])
    @pytest.mark.parametrize("geo_name", GEO_NAMES)
    def test_overflowing_amplitudes_give_the_same_nans(self, geo_name, boosted):
        rng = np.random.default_rng(49)
        geo = geometry_instance(geo_name, rng)
        w, f, g = overlapping_action_inputs(rng, geo.n_weyl_fields)
        op = geo.dressed_dirac(f, g)
        boost = _random_boost(rng) if boosted else None
        pro = promote_weyl_fields([w[0].scale(1e200), *w[1:]])
        with np.errstate(over="ignore", invalid="ignore"):
            got = pairing_coefficients(geo, op, pro, boost)
            expected = looped_pairing_coefficients(geo, op, pro, boost)
        assert np.isnan(expected).any() and np.isfinite(expected).any()
        assert_same_bits(got, expected)


def looped_pairing_coefficients(geo, op, pro, boost=None):
    """Route 2 as one ``Section.inner`` per generator pair:
    ``a_i a_j <J first_i, R op second_j>``."""
    left, right = pairing_slots(geo, op, boost)
    n = pro.n_generators
    lefts, rights = [], []
    for i in range(n):
        units = unit_weyl_fields(pro, i)
        if geo.n_sectors == 1:
            first, second = geo.h_r_section(units[:1]), geo.h_r_section(units[1:])
        else:
            first = second = geo.h_r_section(units)
        lefts.append(left(first))
        rights.append(right(second))
    a = pro.amplitudes
    out = np.zeros((n, n), dtype=complex)
    for i, lhs in enumerate(lefts):
        for j, rhs in enumerate(rights):
            out[i, j] = a[i] * a[j] * complex(lhs.inner(rhs))
    return out


def assert_same_bits(got, expected):
    """Equal entries, NaN where the other has NaN, and the same zero signs."""
    assert got.shape == expected.shape
    assert np.array_equal(got, expected, equal_nan=True)
    for part in (np.real, np.imag):
        np.testing.assert_array_equal(np.signbit(part(got)), np.signbit(part(expected)))


def counted_sections(monkeypatch):
    """The geometries whose ``h_r_section`` is called, one entry per call."""
    built = []
    h_r_section = _GeometryBase.h_r_section

    def counted(self, weyl_fields):
        built.append(self)
        return h_r_section(self, weyl_fields)

    monkeypatch.setattr(_GeometryBase, "h_r_section", counted)
    return built


class TestRouteIndependence:
    @pytest.mark.parametrize("boosted", [False, True])
    @pytest.mark.parametrize("geo_name", GEO_NAMES)
    def test_route_two_runs_no_route_one_code(self, monkeypatch, geo_name, boosted):
        """Route 2 never integrates through ``_mode_sum``, and it applies J to
        each left unit and op, then R, to each right unit: 3n applications.
        It builds one section per unit on the sectored spaces, which put the
        same section in both slots, and two on the manifold."""

        def refuse(*args, **kwargs):
            raise AssertionError("route 2 called route-1 code")

        for name in ("_mode_sum", "grassmann_inner", "bilinear_integral"):
            monkeypatch.setattr(actions, name, refuse)
        sections = counted_sections(monkeypatch)
        calls = []
        apply = FieldOperator.apply

        def counted(self, section):
            calls.append(self)
            return apply(self, section)

        monkeypatch.setattr(FieldOperator, "apply", counted)
        rng = np.random.default_rng(50)
        geo = geometry_instance(geo_name, rng)
        w, f, g = overlapping_action_inputs(rng, geo.n_weyl_fields)
        op = geo.dressed_dirac(f, g)
        boost = _random_boost(rng) if boosted else None
        pro = promote_weyl_fields(w)
        value = fermionic_action_quadratic(geo, op, pro, boost)
        assert abs(value) > 1.0
        n = pro.n_generators
        assert n == (32 if geo_name == "electro" else 16)
        assert len(calls) == 3 * n
        assert sum(c is geo.real_structure for c in calls) == n
        assert sum(c is geo.r_operator for c in calls) == n
        assert len(sections) == (2 * n if geo_name == "manifold" else n)

    @pytest.mark.parametrize("boosted", [False, True])
    @pytest.mark.parametrize("geo_name", GEO_NAMES)
    def test_route_one_builds_each_slot_section_once(self, monkeypatch, geo_name, boosted):
        sections = counted_sections(monkeypatch)
        rng = np.random.default_rng(51)
        geo = geometry_instance(geo_name, rng)
        w, f, g = overlapping_action_inputs(rng, geo.n_weyl_fields)
        boost = _random_boost(rng) if boosted else None
        value = fermionic_action(geo, geo.dressed_dirac(f, g), promote_weyl_fields(w), boost)
        assert abs(value) > 1.0
        assert len(sections) == (2 if geo_name == "manifold" else 1)


class TestPromotion:
    def test_generators_and_amplitudes_align(self):
        rng = np.random.default_rng(5)
        fields, _, _ = overlapping_action_inputs(rng, 3)
        pro = promote_weyl_fields(fields)
        n = pro.n_generators
        assert n == sum(2 * len(f.coeffs) for f in fields)
        # column i of the blocks is a_i theta_i at table[i] and zero elsewhere
        for i, (slot, comp, mode) in enumerate(pro.table):
            for s, field in enumerate(pro.fields):
                for k, block in field.coeffs.items():
                    assert block.shape == (2, n)
                    expected = np.zeros(2, dtype=complex)
                    if (s, k) == (slot, mode):
                        expected[comp] = pro.amplitudes[i]
                    np.testing.assert_array_equal(block[:, i], expected)

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
        assert val.degree_part(2) == val
        assert abs(val) > 1.0

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


def explicit_rows(section):
    """Each block row as the Grassmann sum ``sum_i block[r, i] theta_i``."""
    return {
        k: [
            sum((GrassmannNumber({(i,): c}) for i, c in enumerate(row)),
                GrassmannNumber.zero())
            for row in block
        ]
        for k, block in section.coeffs.items()
    }


def explicit_integral(first, second, conjugate):
    """The mode and fiber sum of ``first`` and ``second`` in Grassmann arithmetic."""
    rows, others = explicit_rows(first), explicit_rows(second)
    acc = GrassmannNumber.zero()
    for k, row in rows.items():
        other = others.get(k if conjugate else negate_mode(k))
        if other is None:
            continue
        for x, y in zip(row, other):
            acc = acc + (x.conjugate() if conjugate else x) * y
    return CELL_VOLUME * acc


class TestBlocksAgainstOracle:
    @pytest.mark.parametrize("geo_name", GEO_NAMES)
    def test_integrals_match_explicit_grassmann_sums(self, geo_name):
        """Block pairings equal the generator-by-generator expansion."""
        rng = np.random.default_rng(46)
        geo = geometry_instance(geo_name, rng)
        w, f, g = overlapping_action_inputs(rng, geo.n_weyl_fields, cutoff=1)
        if geo.n_sectors == 4:  # one mode pair keeps four fields at 16 generators
            k = next(iter(w[0].coeffs))
            w = [Section(2, {m: s.coeffs[m] for m in (k, negate_mode(k))}) for s in w]
        pro = promote_weyl_fields(w)
        assert pro.n_generators <= 16
        left, right = pairing_slots(geo, geo.dressed_dirac(f, g))
        first, second = geo.action_sections(pro.fields)
        lhs, rhs = left(first), right(second)
        for integral, conjugate in ((grassmann_inner, True), (bilinear_integral, False)):
            value = integral(lhs, rhs)
            oracle = explicit_integral(lhs, rhs, conjugate)
            assert abs(oracle) > 1.0
            assert abs(value - oracle) <= 1e-13 * max(1.0, abs(oracle))

    def test_vector_and_block_do_not_pair(self):
        pro = promote_weyl_fields([Section.plane_wave((1, 0, 0, 0), [1.0, 2.0])])
        vector = Section.plane_wave((1, 0, 0, 0), np.ones(2, dtype=complex))
        with pytest.raises(ValueError, match="amplitude shapes"):
            grassmann_inner(vector, pro.fields[0])


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
        assert all((c - c.conjugate()).max_abs() <= 1e-12 for c in f + g)

    @pytest.mark.parametrize("name", ["manifold", "doubled", "electro"])
    def test_weyl_field_count_fits_the_action(self, name):
        """Both routes take ``n_weyl_fields`` fields and refuse one too few or
        too many, also when the fields carry no generators."""
        rng = np.random.default_rng(13)
        geo = geometry_instance(name, rng)
        n = geo.n_weyl_fields
        w, f, g = overlapping_action_inputs(rng, n + 1)
        op = geo.dressed_dirac(f, g)
        for route in (fermionic_action, fermionic_action_quadratic):
            assert abs(route(geo, op, promote_weyl_fields(w[:-1]))) > 1e-6
            for fields in (w[: n - 1], w, [Section(2)] * (n + 1)):
                with pytest.raises(ValueError, match=f"^{n} Weyl fields required$"):
                    route(geo, op, promote_weyl_fields(fields))


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
            boost = _random_boost(rng) if boosted else None
            geo = geometry_instance(geo_name, rng)
            w, f, g = overlapping_action_inputs(rng, geo.n_weyl_fields)
            op = geo.dressed_dirac(f, g)
            pro = promote_weyl_fields(w)
            eng = fermionic_action(geo, op, pro, boost=boost)
            lag = geo.closed_form_action(pro.fields, f, g, boost)
            quad = fermionic_action_quadratic(geo, op, pro, boost=boost)
            assert route_spread(eng, lag, quad) < TOL
            assert abs(eng) > 1.0

    def test_route_spread_propagates_nan(self):
        one = GrassmannNumber({(0, 1): 1.0})
        nan = GrassmannNumber({(0, 1): complex("nan")})
        assert np.isnan(route_spread(one, one, nan))
        assert np.isnan(route_spread(nan, one, one))
        assert route_spread(one, one) == 0.0


def chained_mult(matrix, f):
    return function_matrix_sum(2, [(matrix, f)])


def chained_deriv(matrix, mu):
    return FieldOperator.from_matrix(np.asarray(matrix, dtype=complex)) @ (
        FieldOperator.derivative(2, mu)
    )


def chained_covariant_densities(f0, g):
    """The unboosted density builder as a chain of one-term operators
    joined by ``+`` and ``-``: the oracle for the one-pass builder."""
    op_minus = chained_mult(1j * _S2, f0)
    op_plus = chained_mult(1j * _S2, f0)
    for j in (1, 2, 3):
        sj = _S2 @ PAULI[j - 1]
        cov_j = chained_deriv(sj, j) - chained_mult(1j * sj, g[j])
        op_minus = op_minus - cov_j
        op_plus = op_plus + cov_j
    return op_minus, op_plus


def chained_boosted_densities(f, boost, g):
    """The boosted density builder as the same kind of chain."""
    op_left = FieldOperator.zero(2)
    op_right = FieldOperator.zero(2)
    for mu in range(4):
        st = boost.sigma_tilde_boosted(mu)
        sb = boost.sigma_boosted(mu)
        op_left = op_left + chained_deriv(st, mu) + chained_mult(st, f[mu] - 1j * g[mu])
        op_right = op_right + chained_deriv(sb, mu) + chained_mult(sb, -f[mu] - 1j * g[mu])
    return op_left, op_right


def assert_same_operator(got, expected):
    """The same keys in the same insertion order, and matrices with the same bits."""
    assert (got.fiber_dim, got.antilinear) == (expected.fiber_dim, expected.antilinear)
    assert list(got.terms) == list(expected.terms)
    for key, g in got.terms.items():
        assert_same_bits(g, expected.terms[key])


def assert_same_grassmann(got, expected):
    assert list(got.coeffs) == list(expected.coeffs)
    assert_same_bits(np.array(list(got.coeffs.values())), np.array(list(expected.coeffs.values())))


def with_zero_coefficient(f, mode):
    """``f`` with an explicit zero coefficient at ``mode``, which no
    ``FourierScalar`` arithmetic keeps: the density term it makes is exactly zero."""
    return FourierScalar({**f.coeffs, mode: 0j})


class TestDensityBuilders:
    def density_pairs(self, f, g, boost):
        """(one-pass, chained) density operator pairs for one input set."""
        if boost is None:
            return [
                (covariant_weyl_density_operators(f[0], g), chained_covariant_densities(f[0], g))
            ]
        flipped = [-c for c in f]
        return [
            (boosted_weyl_density_operators(h, boost, g), chained_boosted_densities(h, boost, g))
            for h in (f, flipped)
        ]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("vector", [False, True])
    @pytest.mark.parametrize("boosted", [False, True])
    @pytest.mark.parametrize("geo_name", GEO_NAMES)
    def test_same_terms_as_chained_construction(self, geo_name, boosted, vector, seed):
        rng = np.random.default_rng(1010 + seed)
        geo = geometry_instance(geo_name, rng)
        _, f, g = overlapping_action_inputs(rng, geo.n_weyl_fields)
        boost = _random_boost(rng) if boosted else None
        if not vector:
            g = [FourierScalar.zero()] * 4
        for got, expected in self.density_pairs(f, g, boost):
            for op, oracle in zip(got, expected):
                assert len(oracle.terms) > 4
                assert_same_operator(op, oracle)

    @pytest.mark.parametrize("boosted", [False, True])
    def test_mode_cancelling_between_potentials(self, boosted):
        """A mode of f_1 that i g_1 cancels leaves f_1 - i g_1 without it, so
        the left boosted density meets the mode first at mu = 2."""
        rng = np.random.default_rng(1020)
        _, f, g = overlapping_action_inputs(rng, 2)
        k = (3, 0, -3, 0)
        f[1] = f[1] + FourierScalar.wave(k, 0.5 + 0.25j)
        g[1] = g[1] + FourierScalar.wave(k, 0.25 - 0.5j)
        f[2] = f[2] + FourierScalar.wave(k, -0.75)
        assert k not in (f[1] - 1j * g[1]).coeffs and k in (-f[1] - 1j * g[1]).coeffs
        boost = _random_boost(rng) if boosted else None
        for got, expected in self.density_pairs(f, g, boost):
            for op, oracle in zip(got, expected):
                assert (k, ()) in oracle.terms
                assert_same_operator(op, oracle)
        if boosted:
            keys = list(boosted_weyl_density_operators(f, boost, g)[0].terms)
            assert keys.index((k, ())) > keys.index((ZERO_MODE, (2,)))

    def test_zero_term_keeps_its_first_reached_place(self):
        """A zero coefficient of f_0 makes an exactly zero start term.  The
        chain drops it at its first ``+``, so g_2's piece at that mode goes in
        after d_2; the one-pass builder tests only the final sums, so the
        mode keeps its place among f_0's, and its sum starts from the zero
        term, whose +0.0 entries take the sign off the piece's -0.0 ones.
        Keys, values and bits otherwise match the chain."""
        rng = np.random.default_rng(1021)
        _, f, g = overlapping_action_inputs(rng, 2)
        k = (0, 3, 0, -3)
        f0 = with_zero_coefficient(f[0], k)
        g[2] = g[2] + FourierScalar.wave(k, 0.5 - 0.5j)
        got = covariant_weyl_density_operators(f0, g)
        for op, oracle in zip(got, chained_covariant_densities(f0, g)):
            keys = list(oracle.terms)
            assert keys.index((k, ())) > keys.index((ZERO_MODE, (2,)))
            keys.remove((k, ()))
            keys.insert(list(f0.coeffs).index(k), (k, ()))
            assert list(op.terms) == keys
            for key in keys:
                expected = oracle.terms[key]
                assert_same_bits(op.terms[key], 0.0 + expected if key == (k, ()) else expected)

    def test_sub_densities_match_chained_operators(self):
        rng = np.random.default_rng(1022)
        w, f, _ = overlapping_action_inputs(rng, 2)
        pro = promote_weyl_fields(w)
        phi, zeta = pro.fields
        f0 = with_zero_coefficient(f[0], (2, 0, 0, 0))
        deriv = FieldOperator.zero(2)
        for j in (1, 2, 3):
            deriv = deriv + chained_deriv(_S2 @ PAULI[j - 1], j)
        assert_same_grassmann(
            weyl_derivative_form(phi, zeta), 2 * bilinear_integral(phi, deriv.apply(zeta))
        )
        assert_same_grassmann(
            weyl_potential_form(phi, zeta, f0),
            -2j * bilinear_integral(phi, chained_mult(_S2, f0).apply(zeta)),
        )

    def test_builders_call_no_operator_arithmetic(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a density builder called operator arithmetic")

        for name in ("compose", "__matmul__", "__add__", "__sub__", "scale"):
            monkeypatch.setattr(FieldOperator, name, refuse)
        rng = np.random.default_rng(1023)
        w, f, g = overlapping_action_inputs(rng, 2)
        boost = _random_boost(rng)
        covariant_weyl_density_operators(f[0], g)
        boosted_weyl_density_operators(f, boost, g)
        weyl_derivative_form(w[0], w[1])
        weyl_potential_form(w[0], w[1], f[0])


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


def weyl_vector_form(phi_w: Section, zeta_w: Section, g):
    """``2i int phi^T s2 sigma_j g_j zeta`` - the vector-potential sub-density."""
    op = FieldOperator.zero(2)
    for j in (1, 2, 3):
        op = op + function_matrix_sum(2, [(_S2 @ PAULI[j - 1], g[j])])
    return 2j * bilinear_integral(phi_w, op.apply(zeta_w))


def weyl_mass_form(phi_w: Section, zeta_w: Section):
    """``-2 int phi^T s2 zeta`` - the sector-mixing sub-density."""
    return -2 * bilinear_integral(phi_w, zeta_w.matmul(_S2))


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
