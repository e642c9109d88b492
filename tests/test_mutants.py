"""Each registry check that stands in for a retired unit test fails under that
test's hand mutant.

A mutant is one edit of the source, made in this process: the edited
function, property or table replaces the original through ``monkeypatch``,
and the check runs once at its registry tolerance.  A mutant of a geometry
method is confined to one of the three spaces, so a check that stopped
reading a space would let that row pass.  A source edit that no longer
matches the code exactly once is an error, so the table follows the code.
"""

import __future__
import inspect
import sys
import textwrap

import numpy as np
import pytest

from twistkit import actions, clifford, dynamics, operator_algebra
from twistkit.geometries import (
    DoubledGeometry,
    ElectrodynamicsGeometry,
    Element,
    ManifoldGeometry,
)

from conftest import SPECS, check_error

SPACES = {
    "manifold": ManifoldGeometry,
    "doubled": DoubledGeometry,
    "electro": ElectrodynamicsGeometry,
}


def _rebind(monkeypatch, old, new):
    """Point every name that a twistkit module binds to ``old`` at ``new``."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "twistkit" or module_name.startswith("twistkit."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    monkeypatch.setattr(module, attr, new)


def edit(owner, name, old, new):
    """The mutant that rebuilds ``owner.name`` from its source with ``old``
    replaced by ``new``.  On a class only that class (and not its base) sees
    the edit; a module function is replaced wherever it is imported."""

    def apply(monkeypatch):
        original = inspect.getattr_static(owner, name)
        fn = getattr(original, "func", None) or getattr(original, "fget", None) or original
        source = textwrap.dedent(inspect.getsource(fn))
        assert source.count(old) == 1, f"{name}: {old!r} is not in the source once"
        code = compile(
            source.replace(old, new),
            inspect.getsourcefile(fn),
            "exec",
            flags=__future__.annotations.compiler_flag,
            dont_inherit=True,
        )
        scope = {}
        exec(code, vars(sys.modules[fn.__module__]), scope)
        mutant = scope[name]
        if isinstance(owner, type):
            monkeypatch.setattr(owner, name, mutant)
            if hasattr(mutant, "__set_name__"):
                mutant.__set_name__(owner, name)
        else:
            _rebind(monkeypatch, original, mutant)

    return apply


def block(table, mu, upper_right):
    """The mutant that sets the upper-right block of ``table[mu]``."""

    def apply(monkeypatch):
        mutated = table.copy()
        mutated[mu, :2, 2:] = upper_right
        _rebind(monkeypatch, table, mutated)

    return apply


#: (check id, what the mutant does, attribute, source edit) per space.
GEOMETRY_MUTANTS = [
    ("axioms.ko_signs", "J squares to +1", "_j_matrix",
     ("np.kron(self._j_swap, _J_SPINOR)", "np.kron(self._j_swap, np.kron(np.eye(2), PAULI[0]))")),
    ("axioms.ko_signs", "free Dirac without -i", "_free_dirac",
     ("-1j * GAMMA[mu]", "GAMMA[mu]")),
    ("axioms.ko_signs", "KO grading sign flipped", "ko_signs",
     ("1 if self.n_sectors == 1 else -1", "-1 if self.n_sectors == 1 else 1")),
    ("axioms.ko_signs", "R is gamma5", "r_matrix", ("GAMMA0)", "GAMMA5)")),
    ("axioms.ko_signs", "R is 2 gamma0", "r_matrix", ("GAMMA0)", "2 * GAMMA0)")),
    ("axioms.grading_relations", "grading doubled", "grading_matrix",
     ("return np.kron(", "return 2 * np.kron(")),
    ("axioms.full_axiom_suite", "representation not diagonal", "represent",
     ("(np.diag(m), f)", "(np.diag(m) + np.diag(m[:-1], 1), f)")),
    ("axioms.full_axiom_suite", "real conjugate adds D", "real_conjugate",
     ("op.conjugate().conjugate_by(u, -u.conj())",
      "op.conjugate().conjugate_by(u, -u.conj()) + self.dirac")),
    ("axioms.full_axiom_suite", "twist is the identity", "twist",
     ("return op.conjugate_by(self.r_matrix)", "return op")),
    ("gauge.potential_shift_laws", "gauge transform by u, not its flip", "gauge_transformed",
     ("self.represent(u.flip()) @ inner", "self.represent(u) @ inner")),
    ("gauge.adjoint_action", "adjoint action conjugates u*", "adjoint_action",
     ("self.real_conjugate(self.represent(u))", "self.real_conjugate(self.represent(u.star()))")),
    ("boost.action_invariance", "boosted operator not boosted", "boosted_operator",
     ("return op.conjugate_by(self.boost_slot2_matrix(boost), b_inv)", "return op")),
]

MUTANTS = [
    pytest.param(check_id, edit(SPACES[space], name, *change), id=f"{check_id}-{what}-{space}")
    for check_id, what, name, change in GEOMETRY_MUTANTS
    for space in SPACES
] + [
    pytest.param(check_id, mutant, id=f"{check_id}-{what}")
    for check_id, what, mutant in [
        ("axioms.full_axiom_suite", "star keeps the unprimed functions",
         edit(Element, "star", "f.conjugate() for f in self.unprimed", "f for f in self.unprimed")),
        ("axioms.full_axiom_suite", "compose also skips pairs that meet past index 0",
         edit(operator_algebra, "_pair_mask",
              "left.any(axis=1) @ right.any(axis=2).T",
              "left.any(axis=1)[:, :1] @ right.any(axis=2)[:, :1].T")),
        # the sectored potentials; the gauge law reads them on the four-sector space
        ("gauge.potential_shift_laws", "vector potential g negated",
         edit(ElectrodynamicsGeometry, "vector_potentials", "* (-0.5j)", "* (0.5j)")),
        ("electrodynamics.finite_part_commutes", "mass block with d on its diagonal",
         edit(ElectrodynamicsGeometry, "internal_dirac", "[0.0, d, 0.0, 0.0]", "[d, d, 0.0, 0.0]")),
        ("doubled.action_closed_form", "chiral sign read from the particle table",
         edit(DoubledGeometry, "_sector_signs", "2.0 * exchanged", "2.0 * particle")),
        ("actions.printed_factor_conventions", "right boosted density with +f",
         edit(actions, "boosted_weyl_density_operators", "_mult_terms(sb, -f[mu]",
              "_mult_terms(sb, f[mu]")),
        ("actions.twisted_pairing_antisymmetry", "untwisted pairing inserts R",
         edit(actions, "untwisted_pairing", "op.apply(second))",
              "geometry.r_operator.apply(op.apply(second)))")),
        ("dynamics.kernel_boost_covariance", "flat reference not transported",
         edit(dynamics, "_flat_reference", "boost_covector(problem.spin_boost, momentum)",
              "momentum")),
        ("dynamics.euler_lagrange_consistency", "plane-wave symbol with +i p",
         edit(dynamics, "_plane_wave_symbol", "factor *= -1j * p[mu]", "factor *= 1j * p[mu]")),
        ("dynamics.euler_lagrange_consistency", "Weyl sigma_2 entry with flipped sign",
         edit(dynamics, "minkowski_weyl_matrix", "complex(p1, -p2)", "complex(p1, p2)")),
        ("dynamics.boosted_reduction", "boosted sum drops mu = 0",
         edit(dynamics, "_boosted_sum", "stack * coeff[:, None, None]",
              "stack[1:] * coeff[1:, None, None]")),
        ("clifford.euclidean_anticommutators", "sigma_2 block set to sigma_1",
         block(clifford.GAMMA, 2, -1j * clifford.PAULI[0])),
        ("clifford.minkowski_anticommutators", "sigma_3 block set to sigma_2",
         block(clifford.GAMMA_M, 3, clifford.PAULI[1])),
        ("clifford.euclidean_anticommutators", "grading twist is the identity",
         edit(clifford, "twist_gamma", "GAMMA0 @ GAMMA[mu] @ GAMMA0", "GAMMA[mu]")),
        # the trace route of the check reads the components without the helper
        ("clifford.lorentz_extraction_routes", "sigma_2 component with a sign slip",
         edit(clifford, "pauli_components", "np.subtract(im[..., 1, 0], im[..., 0, 1]",
              "np.subtract(im[..., 0, 1], im[..., 1, 0]")),
    ]
] + [
    # J's entries are imaginary and R's real, so a peak modulus that reads one
    # part of each entry misses the one or the other
    pytest.param("axioms.ko_signs", edit(operator_algebra, "_peak_modulus", "np.abs(stack)", peak),
                 id=f"axioms.ko_signs-peak modulus reads {peak}")
    for peak in ("stack.real", "np.abs(stack.real)", "stack.imag", "np.abs(stack.imag)")
] + [
    # J's entries are imaginary, and so are those of its products with the
    # grading and with R, which a scale that prunes on real parts drops
    pytest.param("axioms.ko_signs",
                 edit(operator_algebra, "_nonzero_rows", "(stack != 0)", "(stack.real != 0)"),
                 id="axioms.ko_signs-stacked prune drops a purely imaginary term")
]


@pytest.mark.parametrize("check_id, mutant", MUTANTS)
def test_check_fails_under_mutant(monkeypatch, check_id, mutant):
    tol = SPECS[check_id].tolerance
    mutant(monkeypatch)
    assert check_error(check_id, tol, np.random.default_rng(51)) > tol
    monkeypatch.undo()
    assert check_error(check_id, tol, np.random.default_rng(51)) <= tol


def test_dirac_assembly_needs_no_weyl_writer(monkeypatch):
    """The ``minkowski`` Euler-Lagrange comparison sets the flat Dirac matrix
    against two Weyl matrices, so the Dirac matrix builds without them."""
    p, m = (0.5, -1.25, 2.0, 0.75), 0.3 - 0.2j
    expected = dynamics.minkowski_dirac_matrix(p, m)

    def refuse(*args, **kwargs):
        raise AssertionError("the Dirac assembly called the Weyl writer")

    monkeypatch.setattr(dynamics, "minkowski_weyl_matrix", refuse)
    assert np.array_equal(dynamics.minkowski_dirac_matrix(p, m), expected)
    with pytest.raises(AssertionError, match="Weyl writer"):
        dynamics.euler_lagrange_check("minkowski", np.ones(4), p, mass=0.3)
