"""Three twisted geometries over the flat 4-torus.

All three share the same pattern: the algebra is a direct sum of two copies
of a function algebra, the twist flips the copies, and the flip is
implemented on operators by conjugation with the grading-compatible unitary
R (the time gamma matrix on the spinor factor).

The fiber holds one four-spinor per internal sector, with the internal index
outermost and the spinor index innermost, i.e. "spinor x internal" is
``np.kron(internal, spinor)``.  A geometry is declared by its sector tables,
from which ``_GeometryBase`` builds the real structure, grading,
representation and fluctuation maps:

* ``_j_swap`` -- the internal factor of the real structure J;
* ``_sector_is_particle`` -- 1 where a sector carries (f, f') and the
  fluctuation parameters (z, z'), 0 where it carries (g', g) and their
  conjugates; a boosted pairing's first slot takes the inverse boost on 1;
* ``_sector_is_exchanged`` -- 1 where a sector's Weyl pair sits in exchanged
  (right-handed) order;
* ``_slot2_inverted`` -- 1 where the operator's slot takes the inverse boost.

The internal grading is the particle sign times the exchange sign.
``ManifoldGeometry`` has the one sector {e}, ``DoubledGeometry`` the two
{e, ebar}, and ``ElectrodynamicsGeometry`` the four {e_L, e_R, ebar_L,
ebar_R} with an off-diagonal internal Dirac matrix of coupling d.

Representations are diagonal multiplication operators; twisted commutators,
fluctuations, gauge transforms and the adjoint action are assembled from
``FieldOperator`` primitives so every claimed closed form can be checked
against the operator route.  Each geometry also names its dressed Dirac
operator (``dressed_dirac``), the sections in its action's two slots
(``action_sections``) and that action's hand-derived density, plain or
boosted (``closed_form_action``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .actions import (
    boosted_doubled_lagrangian_action,
    boosted_electro_lagrangian_action,
    boosted_manifold_lagrangian_action,
    doubled_lagrangian_action,
    electro_lagrangian_action,
    manifold_lagrangian_action,
)
from .clifford import (
    GAMMA,
    GAMMA0,
    GAMMA5,
    PAULI,
    SpinBoost,
    pauli_components,
)
from .operator_algebra import FieldOperator, function_matrix_sum, twisted_commutator
from .torus_fields import FourierScalar, Mode, Section, random_scalar

_P_UPPER = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
_P_LOWER = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)

# linear part of charge conjugation on the spinor factor: diag(-s2, s2)
_J_SPINOR = np.block(
    [[-PAULI[1], np.zeros((2, 2))], [np.zeros((2, 2)), PAULI[1]]]
).astype(complex)


@dataclass(frozen=True)
class Element:
    """Algebra element: a tuple of functions and its twisted partner tuple."""

    unprimed: tuple[FourierScalar, ...]
    primed: tuple[FourierScalar, ...]

    def __post_init__(self):
        if len(self.unprimed) != len(self.primed):
            raise ValueError("component counts differ")

    @property
    def n_slots(self) -> int:
        return len(self.unprimed)

    def flip(self) -> "Element":
        return Element(self.primed, self.unprimed)

    def star(self) -> "Element":
        return Element(
            tuple(f.conjugate() for f in self.unprimed),
            tuple(f.conjugate() for f in self.primed),
        )

    def __mul__(self, other: "Element") -> "Element":
        return Element(
            tuple(f * g for f, g in zip(self.unprimed, other.unprimed)),
            tuple(f * g for f, g in zip(self.primed, other.primed)),
        )

    def unitarity_defect(self) -> float:
        one = FourierScalar.one()
        prod = self * self.star()
        return float(np.max([(c - one).max_abs() for c in prod.unprimed + prod.primed]))


def random_element(rng, n_slots: int, cutoff: int = 2) -> Element:
    return Element(
        tuple(random_scalar(rng, cutoff, 3) for _ in range(n_slots)),
        tuple(random_scalar(rng, cutoff, 3) for _ in range(n_slots)),
    )


def wave_phase(mode: Mode, alpha: float = 0.0) -> FourierScalar:
    """The unit-modulus function e^{i alpha} e^{i k.x} (an exact unitary)."""
    return np.exp(1j * alpha) * FourierScalar.wave(mode)


def chiral_vector_parameters(
    op: FieldOperator,
) -> tuple[list[FourierScalar], list[FourierScalar]]:
    """Read (h_mu, h'_mu) off the first sector of a one-form.

    The operator is assumed to be of multiplication type with the chiral
    block structure produced by twisted commutators; h sits in the
    lower-left Weyl block of the first four-spinor, h' in the upper-right.
    The blocks of all terms are read in one batched pass; a mode enters a
    component's coefficients where that component is nonzero, so a term
    whose Weyl blocks vanish enters none.
    """
    if any(d for _, d in op.terms):
        raise ValueError("operator has derivative terms; not a one-form")
    modes = [k for k, _ in op.terms]
    blocks = np.stack(list(op.terms.values())) if modes else np.zeros((0, 4, 4))
    c = pauli_components(blocks[:, 2:4, 0:2])
    cp = pauli_components(blocks[:, 0:2, 2:4])
    vals_h = (1j * c[:, 0], c[:, 1], c[:, 2], c[:, 3])
    vals_hp = (1j * cp[:, 0], -cp[:, 1], -cp[:, 2], -cp[:, 3])
    return tuple(
        [FourierScalar({modes[t]: v[t] for t in np.flatnonzero(v != 0)}) for v in vals]
        for vals in (vals_h, vals_hp)
    )


#: The matrices of the one-form -i gamma^mu diag(h 1, h' 1): per mu, the one
#: that multiplies h_mu, then the one that multiplies h'_mu.
_CHIRAL_VECTOR_BASIS = tuple(
    -1j * (GAMMA[mu] @ block) for mu in range(4) for block in (_P_UPPER, _P_LOWER)
)


def _chiral_vector_functions(
    h: Sequence[FourierScalar], hp: Sequence[FourierScalar]
) -> list[FourierScalar]:
    """The functions of the one-form, in the order of ``_CHIRAL_VECTOR_BASIS``."""
    return [c for mu in range(4) for c in (h[mu], hp[mu])]


def chiral_vector_operator(
    h: Sequence[FourierScalar], hp: Sequence[FourierScalar]
) -> FieldOperator:
    """Rebuild the spinor-fiber one-form -i gamma^mu diag(h 1, h' 1)."""
    return function_matrix_sum(4, zip(_CHIRAL_VECTOR_BASIS, _chiral_vector_functions(h, hp)))


def selfadjoint_defect_parameters(
    first: Sequence[FourierScalar], second: Sequence[FourierScalar]
) -> float:
    """Parameter-level self-adjointness: second_mu = -conj(first_mu); NaN if any
    coefficient is NaN."""
    defects = [(second[mu] + first[mu].conjugate()).max_abs() for mu in range(4)]
    return float(np.max(defects))


class _GeometryBase:
    """A twisted geometry; subclasses declare the sector tables."""

    fiber_dim: int
    n_sectors: int
    n_slots: int
    #: Weyl fields an action input takes: two slots on the single sector,
    #: one field per sector otherwise.
    n_weyl_fields: int
    _j_swap: np.ndarray
    _sector_is_particle: np.ndarray
    _sector_is_exchanged: np.ndarray
    _slot2_inverted: np.ndarray

    @property
    def ko_signs(self) -> tuple[int, int, int, int]:
        """(J², J–D, J–grading, J–R) commutation signs, kept as data.

        The spinor factor contributes (-1, +1, +1, -1); an internal swap
        whose two sectors carry opposite internal grading flips the third
        sign, which is what happens as soon as there is more than one
        sector.
        """
        eps_gamma = 1 if self.n_sectors == 1 else -1
        return (-1, 1, eps_gamma, -1)

    # ----- sector tables ---------------------------------------------------
    @cached_property
    def _sector_signs(self) -> tuple[np.ndarray, np.ndarray]:
        """(particle, exchange) signs: -1 off particle sectors, -1 on exchanged ones."""
        particle, exchanged = self._sector_is_particle, self._sector_is_exchanged
        return 2.0 * particle - 1.0, 1.0 - 2.0 * exchanged

    def _sector_pairs(self, particle_pair, conjugate_pair):
        """Per sector, the pair it carries, in the sector's Weyl order."""
        tables = zip(self._sector_is_particle, self._sector_is_exchanged)
        for particle, exchanged in tables:
            pair = particle_pair if particle else conjugate_pair
            yield pair[::-1] if exchanged else pair

    # ----- constant structures ---------------------------------------------
    def _free_dirac(self) -> FieldOperator:
        """-i gamma^mu d_mu on every sector."""
        return FieldOperator(
            self.fiber_dim,
            {
                ((0, 0, 0, 0), (mu,)): np.kron(np.eye(self.n_sectors), -1j * GAMMA[mu])
                for mu in range(4)
            },
        )

    @cached_property
    def dirac(self) -> FieldOperator:
        return self._free_dirac()

    @cached_property
    def r_matrix(self) -> np.ndarray:
        return np.kron(np.eye(self.n_sectors), GAMMA0)

    @cached_property
    def r_operator(self) -> FieldOperator:
        return FieldOperator.from_matrix(self.r_matrix)

    @cached_property
    def _j_matrix(self) -> np.ndarray:
        """The linear part of the real structure J = (this matrix) K."""
        return np.kron(self._j_swap, _J_SPINOR)

    @cached_property
    def real_structure(self) -> FieldOperator:
        return FieldOperator(self.fiber_dim, {((0, 0, 0, 0), ()): self._j_matrix}, antilinear=True)

    @cached_property
    def grading_matrix(self) -> np.ndarray:
        particle, exchange = self._sector_signs
        return np.kron(np.diag(particle * exchange), GAMMA5)

    @cached_property
    def plus_projector(self) -> np.ndarray:
        return (np.eye(self.fiber_dim) + self.grading_matrix) / 2.0

    def chirality_real_overlap(self) -> float:
        """Norm of P_+ R P_+; zero forces H_+ and the R eigenspace apart."""
        p = self.plus_projector
        return float(np.max(np.abs(p @ self.r_matrix @ p)))

    # ----- algebra action -------------------------------------------------
    def element(self, unprimed, primed) -> Element:
        if self.n_slots == 1:
            unprimed = (unprimed,) if isinstance(unprimed, FourierScalar) else tuple(unprimed)
            primed = (primed,) if isinstance(primed, FourierScalar) else tuple(primed)
        else:
            unprimed = tuple(unprimed)
            primed = tuple(primed)
        e = Element(unprimed, primed)
        if e.n_slots != self.n_slots:
            raise ValueError(f"expected {self.n_slots} components per copy")
        return e

    def _diagonal_functions(self, e: Element) -> list[FourierScalar]:
        """The function on each fiber entry: (f, f') on particle-type sectors
        and (g', g) on the others, each in its sector's Weyl order."""
        f, fp = e.unprimed[0], e.primed[0]
        # g is the last slot; the single-slot manifold has no sector that reads it
        g, gp = e.unprimed[-1], e.primed[-1]
        out = []
        for first, second in self._sector_pairs((f, fp), (gp, g)):
            out += [first, first, second, second]
        return out

    def represent(self, e: Element) -> FieldOperator:
        # entries holding the same function share one diagonal mask, so the
        # builder scales one matrix per function rather than one per entry
        masks: dict = {}
        for i, f in enumerate(self._diagonal_functions(e)):
            masks.setdefault(id(f), (f, np.zeros(self.fiber_dim)))[1][i] = 1.0
        return function_matrix_sum(
            self.fiber_dim, [(np.diag(m), f) for f, m in masks.values()]
        )

    def twist(self, op: FieldOperator) -> FieldOperator:
        """The automorphism on operators: conjugation by R."""
        return op.conjugate_by(self.r_matrix)

    def twisted_commutator(self, e: Element) -> FieldOperator:
        return twisted_commutator(
            self.dirac, self.represent(e), self.represent(e.flip())
        )

    def one_form(
        self, terms: Sequence[tuple[Element, Element]]
    ) -> FieldOperator:
        """sum_i pi(b_i) [D, pi(a_i)]_rho for (a_i, b_i) pairs."""
        out = FieldOperator.zero(self.fiber_dim)
        for a, b in terms:
            out = out + self.represent(b) @ self.twisted_commutator(a)
        return out

    # ----- real structure and fluctuations ------------------------------
    def real_conjugate(self, op: FieldOperator) -> FieldOperator:
        """J op J^{-1} in one term-wise pass.  With J = U K and J^2 = -1,
        J^{-1} = -U K, so J op J^{-1} = U (K op K) (-conj U)."""
        u = self._j_matrix
        return op.conjugate().conjugate_by(u, -u.conj())

    def fluctuation(self, omega: FieldOperator) -> FieldOperator:
        return omega + self.real_conjugate(omega)

    def fluctuation_parameters(self, fluct: FieldOperator):
        """(z_mu, z'_mu) from the first (particle-type) sector of a fluctuation."""
        return chiral_vector_parameters(fluct)

    @cached_property
    def _fluctuation_basis(self) -> list[np.ndarray]:
        """The matrices of ``fluctuation_from_z``: ``_CHIRAL_VECTOR_BASIS``
        on each sector in turn."""
        return [
            np.kron(np.diag(mask), g)
            for mask in np.eye(self.n_sectors)
            for g in _CHIRAL_VECTOR_BASIS
        ]

    def fluctuation_from_z(self, z, zp) -> FieldOperator:
        """Rebuild a fluctuation from (z, z'): the parameters on particle-type
        sectors, their conjugates on the others, in each sector's Weyl order."""
        conjugates = ([c.conjugate() for c in z], [c.conjugate() for c in zp])
        functions = []
        for pair in self._sector_pairs((z, zp), conjugates):
            functions += _chiral_vector_functions(*pair)
        return function_matrix_sum(self.fiber_dim, zip(self._fluctuation_basis, functions))

    @cached_property
    def _selfadjoint_basis(self) -> list[np.ndarray]:
        """The matrices of ``selfadjoint_fluctuation``: per mu, -i gamma^mu
        gamma5 negated on exchanged sectors, then gamma^mu negated off
        particle-type sectors."""
        vector, chiral = map(np.diag, self._sector_signs)
        return [
            m
            for mu in range(4)
            for m in (np.kron(chiral, -1j * (GAMMA[mu] @ GAMMA5)), np.kron(vector, GAMMA[mu]))
        ]

    def selfadjoint_fluctuation(self, f, g) -> FieldOperator:
        """-i gamma^mu gamma5 f_mu, negated on exchanged sectors, plus
        gamma^mu g_mu, negated off particle-type sectors."""
        functions = [c for mu in range(4) for c in (f[mu], g[mu])]
        return function_matrix_sum(self.fiber_dim, zip(self._selfadjoint_basis, functions))

    def dressed_dirac(self, f, g) -> FieldOperator:
        """D plus the self-adjoint fluctuation of (f, 0); g is not read."""
        return self.dirac + self.selfadjoint_fluctuation(f, [FourierScalar.zero()] * 4)

    def vector_potentials(self, fluct: FieldOperator):
        """Real potentials (f_mu, g_mu) of a self-adjoint sectored fluctuation."""
        z, zp = self.fluctuation_parameters(fluct)
        f = [(z[mu] + z[mu].conjugate()) * 0.5 for mu in range(4)]
        g = [(z[mu] - z[mu].conjugate()) * (-0.5j) for mu in range(4)]
        return f, g

    # ----- gauge ---------------------------------------------------------
    def gauge_transformed(
        self, omega: FieldOperator, u: Element
    ) -> FieldOperator:
        u_star = u.star()
        inner = self.twisted_commutator(u_star) + omega @ self.represent(u_star)
        return self.represent(u.flip()) @ inner

    def adjoint_action(self, u: Element) -> FieldOperator:
        return self.represent(u) @ self.real_conjugate(self.represent(u))

    # ----- distinguished sections ----------------------------------------
    def h_r_section(self, weyl_fields: Sequence[Section]) -> Section:
        """Assemble the R-invariant section from one Weyl field per sector."""
        if len(weyl_fields) != self.n_sectors:
            raise ValueError(f"{self.n_sectors} Weyl fields required")
        out = Section(self.fiber_dim)
        for s, w in enumerate(weyl_fields):
            if w.fiber_dim != 2:
                raise ValueError("sector fields must have two components")
            for k, v in w.coeffs.items():
                if k not in out.coeffs:
                    shape = (self.fiber_dim,) + v.shape[1:]
                    out.coeffs[k] = np.zeros(shape, dtype=complex)
                blk = out.coeffs[k]
                blk[4 * s : 4 * s + 2] = blk[4 * s : 4 * s + 2] + v
                blk[4 * s + 2 : 4 * s + 4] = blk[4 * s + 2 : 4 * s + 4] + v
        return out

    def action_sections(self, fields: Sequence[Section]) -> tuple[Section, Section]:
        """One R-invariant section, one field per sector, fills both action slots."""
        section = self.h_r_section(fields)
        return section, section

    def r_defect(self, section: Section) -> float:
        return (self.r_operator.apply(section) - section).max_abs()

    # ----- boosts ----------------------------------------------------------
    def _sectorwise_boost(self, boost: SpinBoost, inverted: np.ndarray) -> np.ndarray:
        """The inverse spin boost on sectors flagged 1, the boost on the rest."""
        out = np.zeros((self.fiber_dim, self.fiber_dim), dtype=complex)
        for s, flag in enumerate(inverted):
            block = slice(4 * s, 4 * s + 4)
            out[block, block] = boost.inverse if flag else boost.matrix
        return out

    def boost_slot1_matrix(self, boost: SpinBoost) -> np.ndarray:
        """Boost action on the pairing's first slot."""
        return self._sectorwise_boost(boost, self._sector_is_particle)

    def boost_slot2_matrix(self, boost: SpinBoost) -> np.ndarray:
        """Boost action on the vector the operator is applied to."""
        return self._sectorwise_boost(boost, self._slot2_inverted)

    def boosted_operator(self, op: FieldOperator, boost: SpinBoost) -> FieldOperator:
        """``B op B^-1`` for the slot-2 boost action B, whose inverse is the
        sectorwise boost with the inverted flags swapped."""
        b_inv = self._sectorwise_boost(boost, 1.0 - self._slot2_inverted)
        return op.conjugate_by(self.boost_slot2_matrix(boost), b_inv)


class ManifoldGeometry(_GeometryBase):
    """Minimal twist of the flat 4-torus spin geometry."""

    fiber_dim = 4
    n_sectors = 1
    n_slots = 1
    n_weyl_fields = 2
    _j_swap = np.eye(1)
    _sector_is_particle = np.array([1.0])
    _sector_is_exchanged = np.array([0.0])
    _slot2_inverted = np.array([0.0])  # the one sector's slots take S^-1 and S

    # on the one sector a one-form is read and rebuilt like a fluctuation, and
    # the dressing -i gamma^mu gamma5 f_mu is the chiral one-form h = f, h' = -f
    one_form_parameters = _GeometryBase.fluctuation_parameters
    one_form_from_parameters = _GeometryBase.fluctuation_from_z

    def action_sections(self, fields: Sequence[Section]) -> tuple[Section, Section]:
        """Field 0 fills the action's first slot and field 1 its second."""
        if len(fields) != self.n_weyl_fields:
            raise ValueError(f"{self.n_weyl_fields} Weyl fields required")
        return self.h_r_section(fields[:1]), self.h_r_section(fields[1:])

    def closed_form_action(self, fields, f, g, boost: SpinBoost | None = None):
        """The hand-derived Weyl density of the action on ``fields``; g is not read."""
        if boost is None:
            return manifold_lagrangian_action(fields[0], fields[1], f[0])
        return boosted_manifold_lagrangian_action(fields[0], fields[1], f, boost)


class DoubledGeometry(_GeometryBase):
    """Two-sheeted version: functions (f, g) on the sheets {e, ebar}."""

    fiber_dim = 8
    n_sectors = 2
    n_slots = 2
    n_weyl_fields = 2
    _j_swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    _sector_is_particle = np.array([1.0, 0.0])
    _sector_is_exchanged = np.array([0.0, 0.0])
    _slot2_inverted = np.array([1.0, 0.0])

    def closed_form_action(self, fields, f, g, boost: SpinBoost | None = None):
        """Twice the single-sheet density on ``fields``; g is not read."""
        if boost is None:
            return doubled_lagrangian_action(fields[0], fields[1], f[0])
        return boosted_doubled_lagrangian_action(fields[0], fields[1], f, boost)


class ElectrodynamicsGeometry(_GeometryBase):
    """Four internal states {e_L, e_R, ebar_L, ebar_R} with coupling d."""

    fiber_dim = 16
    n_sectors = 4
    n_slots = 2
    n_weyl_fields = 4
    _j_swap = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    _sector_is_particle = np.array([1.0, 1.0, 0.0, 0.0])
    _sector_is_exchanged = np.array([0.0, 1.0, 0.0, 1.0])
    _slot2_inverted = np.array([1.0, 1.0, 0.0, 0.0])

    def __init__(self, d: complex = -1j):
        self.d = complex(d)

    @cached_property
    def internal_dirac(self) -> np.ndarray:
        d = self.d
        db = np.conj(d)
        return np.array(
            [
                [0.0, d, 0.0, 0.0],
                [db, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, db],
                [0.0, 0.0, d, 0.0],
            ],
            dtype=complex,
        )

    @cached_property
    def dirac(self) -> FieldOperator:
        return self._free_dirac() + self.dirac_finite_part

    @cached_property
    def dirac_finite_part(self) -> FieldOperator:
        return FieldOperator.from_matrix(np.kron(self.internal_dirac, GAMMA5))

    def dressed_dirac(self, f, g) -> FieldOperator:
        """D plus the self-adjoint fluctuation of (f, g)."""
        return self.dirac + self.selfadjoint_fluctuation(f, g)

    def closed_form_action(self, fields, f, g, boost: SpinBoost | None = None):
        """The hand-derived Dirac density with mass coupling ``d`` on the four
        sector fields."""
        if boost is None:
            return electro_lagrangian_action(fields, f, g, self.d)
        return boosted_electro_lagrangian_action(fields, f, g, self.d, boost)
