"""Three twisted geometries over the flat 4-torus.

All three share the same pattern: the algebra is a direct sum of two copies
of a function algebra, the twist flips the copies, and the flip is
implemented on operators by conjugation with the grading-compatible unitary
R (the time gamma matrix on the spinor factor).  The three concrete cases
are

* ``ManifoldGeometry``   -- fiber 4, one algebra slot (f, f');
* ``DoubledGeometry``    -- fiber 8, two slots (f, g) and their primes, with
                            a two-point internal space {e, ebar};
* ``ElectrodynamicsGeometry`` -- fiber 16, two slots, internal basis
                            {e_L, e_R, ebar_L, ebar_R} and an off-diagonal
                            internal Dirac matrix with coupling d.

Tensor factors are laid out with the internal index outermost and the
spinor index innermost, i.e. "spinor x internal" is ``np.kron(internal,
spinor)``.

Representations are diagonal multiplication operators; twisted commutators,
fluctuations, gauge transforms and the adjoint action are assembled from
``FieldOperator`` primitives so every claimed closed form can be checked
against the operator route.  Each geometry also names its dressed Dirac
operator (``dressed_dirac``) and the hand-derived density of its fermionic
action (``closed_form_action``, plain or boosted).
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
    I2,
    PAULI,
    SpinBoost,
    _pauli_components,
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

    @staticmethod
    def identity(n_slots: int) -> "Element":
        one = FourierScalar.one()
        return Element((one,) * n_slots, (one,) * n_slots)

    def unitarity_defect(self) -> float:
        one = FourierScalar.one()
        prod = self * self.star()
        return max(
            (c - one).max_abs() for c in prod.unprimed + prod.primed
        )


def random_element(rng, n_slots: int, cutoff: int = 2, n_modes: int = 3) -> Element:
    return Element(
        tuple(random_scalar(rng, cutoff, n_modes) for _ in range(n_slots)),
        tuple(random_scalar(rng, cutoff, n_modes) for _ in range(n_slots)),
    )


def wave_phase(mode: Mode, alpha: float = 0.0) -> FourierScalar:
    """The unit-modulus function e^{i alpha} e^{i k.x} (an exact unitary)."""
    return np.exp(1j * alpha) * FourierScalar.wave(mode)


def embed_sector(op4: FieldOperator, n_sectors: int, sector: int) -> FieldOperator:
    """Embed a spinor-fiber operator into one internal diagonal sector."""
    sel = np.zeros((n_sectors, n_sectors), dtype=complex)
    sel[sector, sector] = 1.0
    out = FieldOperator(4 * n_sectors, {}, op4.antilinear)
    for key, g in op4.terms.items():
        out.terms[key] = np.kron(sel, g)
    return out


def sector_block(op: FieldOperator, n_sectors: int, sector: int) -> FieldOperator:
    """Extract the diagonal 4x4 spinor block of one internal sector."""
    lo, hi = 4 * sector, 4 * sector + 4
    out = FieldOperator(4, {}, op.antilinear)
    for (k, d), g in op.terms.items():
        blk = g[lo:hi, lo:hi]
        if np.any(blk != 0):
            out.terms[(k, d)] = blk.copy()
    return out


def chiral_vector_parameters(
    op4: FieldOperator,
) -> tuple[list[FourierScalar], list[FourierScalar]]:
    """Read (h_mu, h'_mu) off a spinor-fiber one-form.

    The operator is assumed to be of multiplication type with the chiral
    block structure produced by twisted commutators; h sits in the
    lower-left Weyl block, h' in the upper-right.
    """
    h_coeffs: list[dict] = [{} for _ in range(4)]
    hp_coeffs: list[dict] = [{} for _ in range(4)]
    for (k, d), g in op4.terms.items():
        if d:
            raise ValueError("operator has derivative terms; not a one-form")
        lower = g[2:4, 0:2]
        upper = g[0:2, 2:4]
        c = _pauli_components(lower)
        cp = _pauli_components(upper)
        vals_h = (1j * c[0], c[1], c[2], c[3])
        vals_hp = (1j * cp[0], -cp[1], -cp[2], -cp[3])
        for mu in range(4):
            if vals_h[mu] != 0:
                h_coeffs[mu][k] = vals_h[mu]
            if vals_hp[mu] != 0:
                hp_coeffs[mu][k] = vals_hp[mu]
    return (
        [FourierScalar(c) for c in h_coeffs],
        [FourierScalar(c) for c in hp_coeffs],
    )


def chiral_vector_operator(
    h: Sequence[FourierScalar], hp: Sequence[FourierScalar]
) -> FieldOperator:
    """Rebuild the spinor-fiber one-form -i gamma^mu diag(h 1, h' 1)."""
    pairs = []
    for mu in range(4):
        pairs.append((-1j * (GAMMA[mu] @ _P_UPPER), h[mu]))
        pairs.append((-1j * (GAMMA[mu] @ _P_LOWER), hp[mu]))
    return function_matrix_sum(4, pairs)


def selfadjoint_defect_parameters(
    first: Sequence[FourierScalar], second: Sequence[FourierScalar]
) -> float:
    """Parameter-level self-adjointness: second_mu = -conj(first_mu)."""
    return max(
        (second[mu] + first[mu].conjugate()).max_abs() for mu in range(4)
    )


class _GeometryBase:
    fiber_dim: int
    n_sectors: int
    n_slots: int
    #: Weyl fields an action input takes: two slots on the single sector,
    #: one field per sector otherwise.
    n_weyl_fields: int

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

    # ----- constant structures (subclasses fill the raw matrices) --------
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
    def real_structure(self) -> FieldOperator:
        return FieldOperator(
            self.fiber_dim,
            {((0, 0, 0, 0), ()): self._j_linear},
            antilinear=True,
        )

    @cached_property
    def grading_matrix(self) -> np.ndarray:
        return np.kron(self._internal_grading, GAMMA5)

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
        """J op J^{-1}; the real structure squares to -1 here."""
        j = self.real_structure
        return (j @ op @ j).scale(-1.0)

    def fluctuation(self, omega: FieldOperator) -> FieldOperator:
        return omega + self.real_conjugate(omega)

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
            raise ValueError(f"expected {self.n_sectors} Weyl fields")
        out = Section(self.fiber_dim)
        for s, w in enumerate(weyl_fields):
            if w.fiber_dim != 2:
                raise ValueError("sector fields must have two components")
            for k, v in w.coeffs.items():
                if k not in out.coeffs:
                    out.coeffs[k] = np.zeros(self.fiber_dim, dtype=v.dtype)
                blk = out.coeffs[k]
                if blk.dtype != v.dtype:
                    blk = blk.astype(object)
                    out.coeffs[k] = blk
                blk[4 * s : 4 * s + 2] = blk[4 * s : 4 * s + 2] + v
                blk[4 * s + 2 : 4 * s + 4] = blk[4 * s + 2 : 4 * s + 4] + v
        return out

    def r_defect(self, section: Section) -> float:
        return (self.r_operator.apply(section) - section).max_abs()

    # ----- boosts ----------------------------------------------------------
    def _sectorwise_boost(self, boost: SpinBoost, particle_inverse: bool) -> np.ndarray:
        sel_e = np.diag(self._sector_is_particle)
        sel_c = np.diag(1.0 - self._sector_is_particle)
        on_e = boost.inverse if particle_inverse else boost.matrix
        on_c = boost.matrix if particle_inverse else boost.inverse
        return np.kron(sel_e, on_e) + np.kron(sel_c, on_c)

    def boost_slot2_matrix(self, boost: SpinBoost) -> np.ndarray:
        """Boost action on the vector the operator is applied to: inverse
        spin boost on particle-type sectors, direct on conjugate-type."""
        return self._sectorwise_boost(boost, particle_inverse=True)

    def boost_slot1_matrix(self, boost: SpinBoost) -> np.ndarray:
        """Boost action on the pairing's first slot (same matrix here; the
        single-sector geometry overrides this asymmetrically)."""
        return self.boost_slot2_matrix(boost)

    def boosted_operator(self, op: FieldOperator, boost: SpinBoost) -> FieldOperator:
        """Conjugate an operator by the slot-2 boost action."""
        b = FieldOperator.from_matrix(self.boost_slot2_matrix(boost))
        b_inv = FieldOperator.from_matrix(
            self._sectorwise_boost(boost, particle_inverse=False)
        )
        return b @ op @ b_inv


class ManifoldGeometry(_GeometryBase):
    """Minimal twist of the flat 4-torus spin geometry."""

    fiber_dim = 4
    n_sectors = 1
    n_slots = 1
    n_weyl_fields = 2

    def dressed_dirac(self, f, g) -> FieldOperator:
        """D plus the self-adjoint chiral one-form h = f, h' = -f; g is not read."""
        return self.dirac + chiral_vector_operator(f, [(-1.0) * c for c in f])

    def closed_form_action(self, fields, f, g, boost: SpinBoost | None = None):
        """The hand-derived Weyl density of the action on ``fields``; g is not read."""
        if boost is None:
            return manifold_lagrangian_action(fields[0], fields[1], f[0])
        return boosted_manifold_lagrangian_action(fields[0], fields[1], f, boost)

    @cached_property
    def _j_linear(self) -> np.ndarray:
        return _J_SPINOR

    @cached_property
    def _internal_grading(self) -> np.ndarray:
        return np.eye(1)

    @cached_property
    def _sector_is_particle(self) -> np.ndarray:
        return np.array([1.0])

    def _diagonal_functions(self, e: Element) -> list[FourierScalar]:
        (f,), (fp,) = e.unprimed, e.primed
        return [f, f, fp, fp]

    # parameter maps specific to the single-sector case
    def one_form_parameters(self, omega: FieldOperator):
        return chiral_vector_parameters(omega)

    def one_form_from_parameters(self, h, hp) -> FieldOperator:
        return chiral_vector_operator(h, hp)

    # the single-sector boost pairs an inverse-boosted first slot with a
    # boosted second slot instead of acting sectorwise
    def boost_slot2_matrix(self, boost: SpinBoost) -> np.ndarray:
        return boost.matrix

    def boost_slot1_matrix(self, boost: SpinBoost) -> np.ndarray:
        return boost.inverse

    def boosted_operator(self, op: FieldOperator, boost: SpinBoost) -> FieldOperator:
        b = FieldOperator.from_matrix(boost.matrix)
        b_inv = FieldOperator.from_matrix(boost.inverse)
        return b @ op @ b_inv


class DoubledGeometry(_GeometryBase):
    """Two-sheeted version: functions (f, g) on the sheets {e, ebar}."""

    fiber_dim = 8
    n_sectors = 2
    n_slots = 2
    n_weyl_fields = 2

    def dressed_dirac(self, f, g) -> FieldOperator:
        """D plus the self-adjoint fluctuation of (f, 0); g is not read."""
        return self.dirac + self.selfadjoint_fluctuation(f, [FourierScalar.zero()] * 4)

    def closed_form_action(self, fields, f, g, boost: SpinBoost | None = None):
        """Twice the single-sheet density on ``fields``; g is not read."""
        if boost is None:
            return doubled_lagrangian_action(fields[0], fields[1], f[0])
        return boosted_doubled_lagrangian_action(fields[0], fields[1], f, boost)

    @cached_property
    def _j_linear(self) -> np.ndarray:
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        return np.kron(swap, _J_SPINOR)

    @cached_property
    def _internal_grading(self) -> np.ndarray:
        return np.diag([1.0, -1.0])

    @cached_property
    def _sector_is_particle(self) -> np.ndarray:
        return np.array([1.0, 0.0])

    def _diagonal_functions(self, e: Element) -> list[FourierScalar]:
        (f, g), (fp, gp) = e.unprimed, e.primed
        return [f, f, fp, fp, gp, gp, g, g]

    def fluctuation_parameters(self, fluct: FieldOperator):
        """(z_mu, z'_mu) from the particle sector of a fluctuation."""
        return chiral_vector_parameters(sector_block(fluct, 2, 0))

    def fluctuation_from_z(self, z, zp) -> FieldOperator:
        zbar = [c.conjugate() for c in z]
        zpbar = [c.conjugate() for c in zp]
        return embed_sector(chiral_vector_operator(z, zp), 2, 0) + embed_sector(
            chiral_vector_operator(zbar, zpbar), 2, 1
        )

    def selfadjoint_fluctuation(self, f, g) -> FieldOperator:
        """-i gamma^mu f_mu gamma5 on both sheets (+/-) i g_mu gamma^mu."""
        pairs = []
        for mu in range(4):
            pairs.append((np.kron(I2, -1j * (GAMMA[mu] @ GAMMA5)), f[mu]))
            pairs.append((np.kron(np.diag([1.0, -1.0]), GAMMA[mu]), g[mu]))
        return function_matrix_sum(8, pairs)


class ElectrodynamicsGeometry(_GeometryBase):
    """Four internal states {e_L, e_R, ebar_L, ebar_R} with coupling d."""

    fiber_dim = 16
    n_sectors = 4
    n_slots = 2
    n_weyl_fields = 4

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

    @cached_property
    def _j_linear(self) -> np.ndarray:
        swap = np.zeros((4, 4))
        swap[0, 2] = swap[2, 0] = 1.0
        swap[1, 3] = swap[3, 1] = 1.0
        return np.kron(swap, _J_SPINOR)

    @cached_property
    def _internal_grading(self) -> np.ndarray:
        return np.diag([1.0, -1.0, -1.0, 1.0])

    @cached_property
    def _sector_is_particle(self) -> np.ndarray:
        return np.array([1.0, 1.0, 0.0, 0.0])

    def _diagonal_functions(self, e: Element) -> list[FourierScalar]:
        (f, g), (fp, gp) = e.unprimed, e.primed
        return [
            f, f, fp, fp,      # e_L
            fp, fp, f, f,      # e_R
            gp, gp, g, g,      # ebar_L
            g, g, gp, gp,      # ebar_R
        ]

    def fluctuation_parameters(self, fluct: FieldOperator):
        """(z_mu, z'_mu) from the e_L sector of a fluctuation."""
        return chiral_vector_parameters(sector_block(fluct, 4, 0))

    def fluctuation_from_z(self, z, zp) -> FieldOperator:
        zbar = [c.conjugate() for c in z]
        zpbar = [c.conjugate() for c in zp]
        blocks = [
            chiral_vector_operator(z, zp),
            chiral_vector_operator(zp, z),
            chiral_vector_operator(zbar, zpbar),
            chiral_vector_operator(zpbar, zbar),
        ]
        out = FieldOperator.zero(16)
        for s, blk in enumerate(blocks):
            out = out + embed_sector(blk, 4, s)
        return out

    def selfadjoint_fluctuation(self, f, g) -> FieldOperator:
        pairs = []
        x_signs = np.diag([1.0, -1.0, 1.0, -1.0])
        y_signs = np.diag([1.0, 1.0, -1.0, -1.0])
        for mu in range(4):
            pairs.append((np.kron(x_signs, -1j * (GAMMA[mu] @ GAMMA5)), f[mu]))
            pairs.append((np.kron(y_signs, GAMMA[mu]), g[mu]))
        return function_matrix_sum(16, pairs)


MANIFOLD = ManifoldGeometry()
DOUBLED = DoubledGeometry()
