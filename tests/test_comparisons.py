"""``checks.close``, the one home of the registry's two-sided comparisons.

``close(a, b)`` must give, bit for bit, the residual that each operand type
spelled before it existed, so a report built through it is byte-identical.
The census runs the registry on its seed-0 streams through a recording
``close`` and pins, per check, how many comparisons it makes and how many
of them compare an exact zero with an exact zero.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistkit import checks
from twistkit.checks import REGISTRY, SENTINEL_ERROR, RunConfig, close, reduce_residuals
from twistkit.geometries import (
    DoubledGeometry,
    ElectrodynamicsGeometry,
    ManifoldGeometry,
    random_element,
)
from twistkit.grassmann import antisymmetric_pair_form
from twistkit.operator_algebra import FieldOperator, normal_form_distance
from twistkit.torus_fields import FourierScalar, Section, random_scalar, random_section

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _complex_array(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_close_keeps_the_bits_of_each_spelling(seed):
    rng = np.random.default_rng(seed)
    a, b = _complex_array(rng, (4, 4)), _complex_array(rng, (4, 4))
    assert _bits(close(a, b)) == _bits(np.abs(a - b).max())
    assert _bits(close(a, -b)) == _bits(np.abs(a + b).max())
    x, y = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
    assert _bits(close(x, y)) == _bits(abs(x - y))
    assert _bits(close(x, -y)) == _bits(abs(x + y))
    x, y = np.complex128(x), np.complex128(y)
    assert _bits(close(x, y)) == _bits(abs(x - y))
    assert _bits(close(x, -y)) == _bits(abs(x + y))
    g, h = (antisymmetric_pair_form(_complex_array(rng, (5, 5))) for _ in range(2))
    assert _bits(close(g, h)) == _bits(abs(g - h))
    assert _bits(close(g, -h)) == _bits(abs(g + h))
    f, f2 = random_scalar(rng, cutoff=1), random_scalar(rng, cutoff=1)
    assert _bits(close(f, f2)) == _bits((f - f2).max_abs())
    u, v = random_section(rng, 4, cutoff=1), random_section(rng, 4, cutoff=1)
    assert _bits(close(u, v)) == _bits((u - v).max_abs())


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_close_keeps_the_bits_of_operator_spellings(seed):
    rng = np.random.default_rng(seed)
    mass = complex(*rng.standard_normal(2))
    for geo in (ManifoldGeometry(), DoubledGeometry(), ElectrodynamicsGeometry(mass)):
        a = random_element(rng, geo.n_slots, cutoff=1)
        pa = geo.represent(a)
        opp = geo.real_conjugate(geo.represent(random_element(rng, geo.n_slots, cutoff=1)))
        t = geo.twisted_commutator(a)
        one_form = t @ pa
        pairs = ((pa, opp), (t, opp), (one_form, one_form.adjoint()))
        for x, y in pairs:
            assert _bits(close(x @ y, y @ x)) == _bits((x @ y - y @ x).max_abs())
        for x, y in pairs + ((t @ opp, geo.twist(opp) @ t),):
            assert _bits(close(x, y)) == _bits((x - y).max_abs())


def test_close_of_a_nan_operand_reduces_to_the_sentinel():
    nan = complex(np.nan, 0.0)
    operands = [
        (np.array([1.0, np.nan]), np.zeros(2)),
        (nan, 1.0),
        (np.complex128(nan), np.complex128(1.0)),
        (antisymmetric_pair_form(np.array([[0.0, nan], [0.0, 0.0]])), 0.0),
        (FourierScalar.constant(nan), FourierScalar.one()),
        (Section.plane_wave((0, 0, 0, 0), np.array([nan, 1.0])), Section(2)),
        (FieldOperator.from_matrix(np.diag([nan, 1.0])), FieldOperator.identity(2)),
    ]
    for a, b in operands:
        assert np.isnan(close(a, b))
        assert reduce_residuals([0.0, close(a, b), 1.0]) == SENTINEL_ERROR


def test_close_takes_a_linear_and_an_antilinear_operator():
    linear = FieldOperator.from_matrix(np.diag([2.0, 1.0]))
    antilinear = FieldOperator.conjugation(2)
    with pytest.raises(ValueError):
        linear - antilinear
    assert close(linear, antilinear) == normal_form_distance(linear, antilinear) == 2.0


#: check id -> (two-sided comparisons, comparisons of an exact zero with an
#: exact zero) on the check's seed-0 registry stream.  The clifford zeros
#: are exact cancellations in the constant gamma tables; the others are
#: pairings of sections drawn on modes that do not meet.
SEED0_CENSUS = {
    "clifford.euclidean_anticommutators": (20, 6),
    "clifford.minkowski_anticommutators": (11, 6),
    "clifford.sigma_pair_identities": (72, 48),
    "clifford.spin_boost_structure": (48, 0),
    "clifford.lorentz_extraction_routes": (61, 0),
    "axioms.ko_signs": (18, 0),
    "axioms.rho_adjoint_involution": (36, 7),
    "axioms.grading_relations": (9, 0),
    "axioms.full_axiom_suite": (160, 0),
    "axioms.fluctuation_round_trip": (16, 0),
    "manifold.integration_by_parts": (4, 3),
    "manifold.multiply_algebra": (36, 0),
    "manifold.real_closure": (19, 2),
    "manifold.action_closed_form": (4, 0),
    "manifold.selfadjoint_edge_cases": (4, 0),
    "doubled.action_closed_form": (9, 0),
    "doubled.selfadjoint_fluctuations": (30, 0),
    "electrodynamics.finite_part_commutes": (8, 0),
    "electrodynamics.finite_space_structure": (6, 0),
    "electrodynamics.action_closed_form": (9, 0),
    "actions.graded_commutativity": (3, 0),
    "actions.pair_form_oracle": (4, 0),
    "actions.operator_composition": (6, 0),
    "actions.term_symmetry_split": (16, 0),
    "actions.printed_factor_conventions": (3, 0),
    "actions.twisted_pairing_antisymmetry": (6, 0),
    "gauge.potential_shift_laws": (32, 0),
    "gauge.adjoint_action": (2, 0),
    "gauge.action_phase_absorption": (2, 0),
    "boost.action_invariance": (12, 5),
    "boost.manifold_closed_form": (4, 0),
    "boost.doubled_closed_form": (4, 0),
    "boost.electro_closed_form": (4, 0),
    "dynamics.determinant_kernel_duality": (0, 0),
    "dynamics.dispersion_surfaces": (70, 0),
    "dynamics.kernel_boost_covariance": (0, 0),
    "dynamics.euler_lagrange_consistency": (0, 0),
    "dynamics.boosted_reduction": (0, 0),
}


def _is_zero(x) -> bool:
    if isinstance(x, (FieldOperator, FourierScalar, Section)):
        return x.max_abs() == 0.0
    if isinstance(x, np.ndarray):
        return not x.any()
    return abs(x) == 0.0


def test_seed0_comparison_census(monkeypatch):
    census = {}

    def recording_close(a, b):
        count = census[check_id]
        count[0] += 1
        count[1] += _is_zero(a) and _is_zero(b)
        return close(a, b)

    monkeypatch.setattr(checks, "close", recording_close)
    cfg = RunConfig(seed=0)
    streams = np.random.SeedSequence(cfg.seed).spawn(len(REGISTRY))
    for spec, stream in zip(REGISTRY, streams):
        check_id = spec.check_id
        census[check_id] = [0, 0]
        for _ in spec.fn(np.random.default_rng(stream), cfg):
            pass
    assert {k: tuple(v) for k, v in census.items()} == SEED0_CENSUS
