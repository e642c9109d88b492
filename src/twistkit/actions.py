"""Fermionic action functionals on the R-invariant subspace.

The central object is the pairing ``A(phi, xi) = <J phi, R D xi>`` evaluated
on sections linear in anticommuting generators.  Inputs are plain Weyl fields
(fiber-two sections); :func:`promote_weyl_fields` replaces every nonzero
amplitude ``a`` by ``a * theta_i`` with a fresh generator ``theta_i``.  A
promoted section stores, per Fourier mode, a complex ``(fiber, n)`` block
whose column i is the coefficient of ``theta_i``, so the pairing is the
antisymmetric part of ``sum_k A_k^dagger B_k``: a rank-two element of the
exterior algebra.

Two independent evaluation routes are provided and must agree:

* :func:`fermionic_action` pushes the promoted blocks through the actual
  operators (real structure, twist, Dirac) and pairs them once;
* :func:`fermionic_action_quadratic` evaluates the same pairing on complex
  unit sections, one per generator: it applies each slot map once per unit,
  sums ``vdot`` over the modes a left and a right image share, and
  reassembles the result through the antisymmetrised quadratic form.

Both routes pair the geometry's ``action_sections`` through :func:`pairing_slots`.

The ``*_lagrangian_action`` functions are closed-form integrands written
directly in terms of the Weyl components; they are the hand-derived targets
the operator engine is checked against.  Each geometry's
``closed_form_action`` picks the plain or boosted one that belongs to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clifford import PAULI, SpinBoost
from .grassmann import GrassmannNumber, antisymmetric_pair_form
from .operator_algebra import FieldOperator
from .torus_fields import (
    CELL_VOLUME,
    ZERO_MODE,
    FourierScalar,
    Mode,
    Section,
    add_modes,
    negate_mode,
    random_section,
)

_S2 = PAULI[1]


# ---------------------------------------------------------------------------
# integrals of section pairs
# ---------------------------------------------------------------------------


def _mode_sum(first: Section, second: Section, conjugate: bool) -> GrassmannNumber:
    """``CELL_VOLUME * sum_k a_k^T b_k``, pairing mode k with k (``conjugate``,
    which conjugates ``a``) or with -k.  Complex ``(fiber,)`` sections give a
    scalar; ``(fiber, n)`` Grassmann blocks give the ``(n, n)`` sum M read as
    ``sum_ij M_ij theta_i theta_j`` (generators are self-conjugate)."""
    if first.fiber_dim != second.fiber_dim:
        raise ValueError("fiber dimensions differ")
    acc = 0.0
    for mode, a in first.coeffs.items():
        b = second.coeffs.get(mode if conjugate else negate_mode(mode))
        if b is None:
            continue
        if a.shape != b.shape:
            raise ValueError("cannot pair sections of different amplitude shapes")
        acc = acc + (np.conj(a) if conjugate else a).T @ b
    if np.ndim(acc) == 0:
        return GrassmannNumber.scalar(CELL_VOLUME * acc)
    return antisymmetric_pair_form(CELL_VOLUME * acc)


def grassmann_inner(first: Section, second: Section) -> GrassmannNumber:
    """Integral of ``first^dagger second``; amplitude-conjugates slot one."""
    return _mode_sum(first, second, conjugate=True)


def bilinear_integral(first: Section, second: Section) -> GrassmannNumber:
    """Integral of ``first^T second`` with no conjugation anywhere."""
    return _mode_sum(first, second, conjugate=False)


# ---------------------------------------------------------------------------
# pairings against the twisted structure
# ---------------------------------------------------------------------------


def pairing_slots(geometry, op: FieldOperator, boost: SpinBoost | None = None):
    """The two slot maps of the twisted pairing ``<J first, R op second>``.

    Returns ``(left, right)`` with ``left(first) = J first`` and
    ``right(second) = R op second``, so that the pairing of ``first`` and
    ``second`` is ``grassmann_inner(left(first), right(second))``.  With a
    boost, the first slot is multiplied by the slot-one matrix before ``J``,
    the second by the slot-two matrix, and ``op`` is replaced by its boosted
    conjugate: the single-sector space pairs an inverse-boosted first slot
    with a boosted second slot, the sectored spaces act with the same
    sectorwise matrix on both slots.
    """
    j = geometry.real_structure
    r = geometry.r_operator
    if boost is None:
        return j.apply, lambda second: r.apply(op.apply(second))
    b1 = geometry.boost_slot1_matrix(boost)
    b2 = geometry.boost_slot2_matrix(boost)
    boosted = geometry.boosted_operator(op, boost)
    return (
        lambda first: j.apply(first.matmul(b1)),
        lambda second: r.apply(boosted.apply(second.matmul(b2))),
    )


def twisted_pairing(geometry, op: FieldOperator, first: Section, second: Section):
    """``<J first, R op second>`` - the twisted fermionic pairing."""
    left, right = pairing_slots(geometry, op)
    return grassmann_inner(left(first), right(second))


def untwisted_pairing(geometry, op: FieldOperator, first: Section, second: Section):
    """``<J first, op second>`` without the R insertion."""
    lhs = geometry.real_structure.apply(first)
    return grassmann_inner(lhs, op.apply(second))


def boosted_pairing(
    geometry, op: FieldOperator, boost: SpinBoost, first: Section, second: Section
):
    """Twisted pairing with boosted slots and a conjugated operator."""
    left, right = pairing_slots(geometry, op, boost)
    return grassmann_inner(left(first), right(second))


# ---------------------------------------------------------------------------
# Grassmann promotion of Weyl data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PromotedWeyl:
    """Weyl fields whose amplitudes have been tensored with generators.

    ``table[i]`` records which (field, component, mode) slot generator ``i``
    occupies and ``amplitudes[i]`` the complex amplitude it multiplies.  Each
    of ``fields`` has a ``(2, n_generators)`` block per mode; column i holds
    ``amplitudes[i]`` at ``table[i]`` and zeros elsewhere.
    """

    fields: tuple[Section, ...]
    table: tuple[tuple[int, int, Mode], ...]
    amplitudes: tuple[complex, ...]

    @property
    def n_generators(self) -> int:
        return len(self.table)


def promote_weyl_fields(fields: Sequence[Section]) -> PromotedWeyl:
    """Replace every nonzero amplitude ``a`` by ``a * theta_i``, numbering
    generators by field, then mode in sorted order, then component."""
    table: list[tuple[int, int, Mode]] = []
    amplitudes: list[complex] = []
    for slot, field in enumerate(fields):
        if field.fiber_dim != 2:
            raise ValueError("expected fiber-two Weyl fields")
        for mode in sorted(field.coeffs):
            for comp in range(2):
                a = complex(field.coeffs[mode][comp])
                if a != 0:
                    table.append((slot, comp, mode))
                    amplitudes.append(a)
    n = len(table)
    promoted = [
        Section(2, {k: np.zeros((2, n), dtype=complex) for k in sorted(field.coeffs)})
        for field in fields
    ]
    for i, ((slot, comp, mode), a) in enumerate(zip(table, amplitudes)):
        promoted[slot].coeffs[mode][comp, i] = a
    return PromotedWeyl(tuple(promoted), tuple(table), tuple(amplitudes))


def unit_weyl_fields(promoted: PromotedWeyl, index: int) -> list[Section]:
    """Complex Weyl fields with a single unit amplitude at generator ``index``."""
    slot, comp, mode = promoted.table[index]
    fields = [Section(2) for _ in promoted.fields]
    v = np.zeros(2, dtype=complex)
    v[comp] = 1.0
    fields[slot].coeffs[mode] = v
    return fields


def fermionic_action(
    geometry, op: FieldOperator, promoted: PromotedWeyl, boost: SpinBoost | None = None
) -> GrassmannNumber:
    """Operator-engine evaluation of the twisted pairing on promoted fields."""
    lhs, rhs = geometry.action_sections(promoted.fields)
    if boost is None:
        return twisted_pairing(geometry, op, lhs, rhs)
    return boosted_pairing(geometry, op, boost, lhs, rhs)


def pairing_coefficients(
    geometry, op: FieldOperator, promoted: PromotedWeyl, boost: SpinBoost | None = None
) -> np.ndarray:
    """Matrix ``B_ij = a_i a_j pair(e_i, e_j)`` over complex unit sections.

    Each slot map is applied once per generator (2n operator applications).
    The right images are indexed by mode once; each left image then walks
    its own modes and adds ``vdot`` into one accumulator per column, so only
    pairs that share a mode cost an inner product.  Each entry sums in the
    order and with the arithmetic of ``Section.inner``, bit for bit.
    """
    left, right = pairing_slots(geometry, op, boost)
    n = promoted.n_generators
    if n == 0:
        geometry.action_sections(promoted.fields)  # refuses a wrong field count
    slots = [geometry.action_sections(unit_weyl_fields(promoted, i)) for i in range(n)]
    lefts = [left(first) for first, _ in slots]
    by_mode: dict[Mode, list[tuple[int, np.ndarray]]] = {}
    for j, (_, second) in enumerate(slots):
        for mode, w in right(second).coeffs.items():
            by_mode.setdefault(mode, []).append((j, w))
    a = promoted.amplitudes
    rows = []
    for ai, lhs in zip(a, lefts):
        acc = [0.0 + 0.0j] * n
        for mode, v in lhs.coeffs.items():
            for j, w in by_mode.get(mode, ()):
                acc[j] += np.vdot(v, w)
        rows.append([ai * aj * complex(CELL_VOLUME * s) for aj, s in zip(a, acc)])
    return np.array(rows, dtype=complex).reshape(n, n)


def fermionic_action_quadratic(
    geometry, op: FieldOperator, promoted: PromotedWeyl, boost: SpinBoost | None = None
) -> GrassmannNumber:
    """Second route: complex pairings reassembled as an antisymmetric form."""
    return antisymmetric_pair_form(pairing_coefficients(geometry, op, promoted, boost))


def route_spread(*values) -> float:
    """Largest pairwise difference between evaluation routes; NaN if any is."""
    diffs = [abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]]
    return float(np.max(diffs, initial=0.0))


# ---------------------------------------------------------------------------
# closed-form integrands
# ---------------------------------------------------------------------------


_EYE2 = np.eye(2, dtype=complex)


def _deriv_term(matrix: np.ndarray, mu: int):
    """The term ``matrix d_mu``, rounded as ``from_matrix(matrix) @ derivative(2, mu)``."""
    return (ZERO_MODE, (mu,)), (1.0 + 0.0j) * (matrix @ _EYE2)


def _mult_terms(matrix: np.ndarray, f: FourierScalar):
    """The terms of ``matrix f(x)``, rounded as ``function_matrix_sum`` rounds them."""
    return [((k, ()), 0.0 + c * matrix) for k, c in f.coeffs.items()]


#: Per spatial axis j: the term ``s2 sigma_j d_j`` and the matrix ``i s2 sigma_j``.
_SPATIAL = tuple(
    (_deriv_term(_S2 @ PAULI[j - 1], j), 1j * (_S2 @ PAULI[j - 1])) for j in (1, 2, 3)
)


def _summed(start, batches=()) -> FieldOperator:
    """The fiber-two operator that ``+`` builds from the terms ``start``, then
    each batch of ``(key, matrix)`` pieces: a new key stores its matrix, a
    present one adds to its own, and each batch ends by dropping the exactly
    zero keys touched since the last, so a key filled again sits at the end."""
    terms = dict(start)
    touched = list(terms)
    for batch in batches:
        for key, g in batch:
            terms[key] = terms[key] + g if key in terms else g
            touched.append(key)
        for key in touched:
            if key in terms and not np.count_nonzero(terms[key]):
                del terms[key]
        touched = []
    op = FieldOperator(2)
    op.terms = terms
    return op


def covariant_weyl_density_operators(
    f0: FourierScalar, g: Sequence[FourierScalar]
) -> tuple[FieldOperator, FieldOperator]:
    """``s2 (i f0 -+ sigma_j (d_j - i g_j))`` for the two chirality branches;
    at ``g = 0`` the first is the single-sheet density kernel."""
    start = _mult_terms(1j * _S2, f0)
    covariant = []  # per j, the nonzero terms of s2 sigma_j (d_j - i g_j)
    for j, (deriv, isj) in enumerate(_SPATIAL, start=1):
        pieces = [deriv] + [(key, -1.0 * m) for key, m in _mult_terms(isj, g[j])]
        covariant.append([(key, m) for key, m in pieces if np.count_nonzero(m)])
    op_minus = _summed(start, [[(key, -1.0 * m) for key, m in cov] for cov in covariant])
    return op_minus, _summed(start, covariant)


def _potential_pair(f: FourierScalar, g: FourierScalar):
    """``f - 1j * g`` and ``-f - 1j * g``, built together without the seven
    intermediate scalars of those expressions.

    Each coefficient goes through the operations the ``FourierScalar``
    expressions apply, with their drops of exact zeros and their key order:
    ``f``'s modes (for the second, the nonzero ones), then ``g``'s new ones.
    """
    shift = {}  # -1.0 * (1j * g), as the subtraction adds it
    for k, v in g.coeffs.items():
        w = 1j * v
        if w != 0:
            shift[k] = -1.0 * complex(w)
    plus = dict(f.coeffs)
    minus = {}
    for k, v in f.coeffs.items():
        w = -1.0 * v
        if w != 0:
            minus[k] = w
    for k, w in shift.items():
        plus[k] = plus.get(k, 0.0) + w
        minus[k] = minus.get(k, 0.0) + w
    return tuple(
        FourierScalar({k: complex(v) for k, v in c.items() if v != 0}) for c in (plus, minus)
    )


def boosted_weyl_density_operators(
    f: Sequence[FourierScalar], boost: SpinBoost, g: Sequence[FourierScalar]
) -> tuple[FieldOperator, FieldOperator]:
    """``st_L^mu (d_mu + f_mu - i g_mu)`` and ``s_L^mu (d_mu - f_mu - i g_mu)``
    (no s2 factor; that lives in the first-slot row transformations)."""
    left, right = [], []
    for mu in range(4):
        st = boost.sigma_tilde_boosted(mu)
        sb = boost.sigma_boosted(mu)
        plus, minus = _potential_pair(f[mu], g[mu])
        left.append([_deriv_term(st, mu), *_mult_terms(st, plus)])
        right.append([_deriv_term(sb, mu), *_mult_terms(sb, minus)])
    return _summed((), left), _summed((), right)


def manifold_lagrangian_action(phi_w: Section, zeta_w: Section, f0: FourierScalar):
    """``2 int phi^T s2 (i f0 - sigma_j d_j) zeta``.

    Only the time component of the chiral potential survives on the
    R-invariant subspace; the spatial components cancel between the two
    chirality blocks.
    """
    op = covariant_weyl_density_operators(f0, [FourierScalar.zero()] * 4)[0]
    return 2 * bilinear_integral(phi_w, op.apply(zeta_w))


def doubled_lagrangian_action(phi_w: Section, zeta_w: Section, f0: FourierScalar):
    """Two-sheet action: each sheet contributes one copy of the same density."""
    return 2 * manifold_lagrangian_action(phi_w, zeta_w, f0)


def electro_lagrangian_action(
    weyls: Sequence[Section],
    f: Sequence[FourierScalar],
    g: Sequence[FourierScalar],
    d: complex,
):
    """Dirac-type density with covariant derivative ``d_j - i g_j`` and mass d.

    ``weyls`` are the four sector fields (particle left/right, conjugate
    left/right).  The unboosted density reads only ``f[0]`` and the spatial
    ``g``; the remaining potential components drop out of the pairing.
    """
    phi1, phi2, zeta1, zeta2 = weyls
    op1, op2 = covariant_weyl_density_operators(f[0], g)
    t1 = bilinear_integral(phi1, op1.apply(zeta1))
    t2 = bilinear_integral(phi2, op2.apply(zeta2))
    t3 = bilinear_integral(phi1, zeta2.matmul(_S2))
    t4 = bilinear_integral(phi2, zeta1.matmul(_S2))
    return 4 * (t1 - t2 + np.conj(d) * t3 + d * t4)


def _chirality_rows(phi: Section, boost: SpinBoost) -> tuple[Section, Section]:
    """The first-slot rows ``-phi^T s2 L-`` and ``+phi^T s2 L+``."""
    lm, lp = boost.lambda_minus, boost.lambda_plus
    return phi.matmul(-(_S2 @ lm).T), phi.matmul((_S2 @ lp).T)


def _chirality_halves(zeta: Section, boost: SpinBoost) -> tuple[Section, Section]:
    """The boosted chirality halves ``L- zeta`` and ``L+ zeta``."""
    return zeta.matmul(boost.lambda_minus), zeta.matmul(boost.lambda_plus)


def boosted_manifold_lagrangian_action(
    phi_w: Section,
    zeta_w: Section,
    f: Sequence[FourierScalar],
    boost: SpinBoost,
):
    """Boosted density ``-i int [phi_l+ st_L (d+f) zeta_l + phi_r+ s_L (d-f) zeta_r]``.

    The chirality halves carry opposite boost factors: ``zeta_l = L- zeta``,
    ``zeta_r = L+ zeta``, and the first-slot rows are ``-phi^T s2 L-`` and
    ``+phi^T s2 L+``.  All four potential components appear.
    """
    phi_left, phi_right = _chirality_rows(phi_w, boost)
    zeta_left, zeta_right = _chirality_halves(zeta_w, boost)
    op_left, op_right = boosted_weyl_density_operators(
        f, boost, [FourierScalar.zero()] * 4
    )
    return -1j * (
        bilinear_integral(phi_left, op_left.apply(zeta_left))
        + bilinear_integral(phi_right, op_right.apply(zeta_right))
    )


def boosted_doubled_lagrangian_action(
    phi_w: Section,
    zeta_w: Section,
    f: Sequence[FourierScalar],
    boost: SpinBoost,
):
    return 2 * boosted_manifold_lagrangian_action(phi_w, zeta_w, f, boost)


def boosted_electro_lagrangian_action(
    weyls: Sequence[Section],
    f: Sequence[FourierScalar],
    g: Sequence[FourierScalar],
    d: complex,
    boost: SpinBoost,
):
    """Boosted Dirac-type density, ``-2 int L``.

    ``L`` couples the chirality halves of the four sector fields through the
    boosted sigma blocks, the covariant derivative ``D_mu = d_mu - i g_mu``
    (all four components), the chiral potential ``f`` with opposite signs on
    the two particle fields, and mass cross terms between opposite sectors
    and chiralities.
    """
    phi1, phi2, zeta1, zeta2 = weyls
    p1l, p1r = _chirality_rows(phi1, boost)
    p2l, p2r = _chirality_rows(phi2, boost)
    z1l, z1r = _chirality_halves(zeta1, boost)
    z2l, z2r = _chirality_halves(zeta2, boost)
    left1, right1 = boosted_weyl_density_operators(f, boost, g)
    left2, right2 = boosted_weyl_density_operators([-c for c in f], boost, g)

    lag = 1j * (
        bilinear_integral(p1l, left1.apply(z1l))
        + bilinear_integral(p1r, right1.apply(z1r))
    )
    lag = lag + d * (bilinear_integral(p2l, z1r) - bilinear_integral(p2r, z1l))
    lag = lag + 1j * (
        bilinear_integral(p2l, left2.apply(z2l))
        + bilinear_integral(p2r, right2.apply(z2r))
    )
    lag = lag + np.conj(d) * (
        bilinear_integral(p1l, z2r) - bilinear_integral(p1r, z2l)
    )
    return -2 * lag


# ---------------------------------------------------------------------------
# elementary sub-densities (untwisted, single sheet)
# ---------------------------------------------------------------------------


def weyl_derivative_form(phi_w: Section, zeta_w: Section):
    """``2 int phi^T s2 sigma_j d_j zeta`` - the kinetic sub-density."""
    op = _summed((), [[deriv for deriv, _ in _SPATIAL]])
    return 2 * bilinear_integral(phi_w, op.apply(zeta_w))


def weyl_potential_form(phi_w: Section, zeta_w: Section, f0: FourierScalar):
    """``-2i int f0 phi^T s2 zeta`` - the chiral-potential sub-density."""
    return -2j * bilinear_integral(phi_w, _summed(_mult_terms(_S2, f0)).apply(zeta_w))


def electro_operator_pieces(geometry, f, g) -> dict[str, FieldOperator]:
    """Split the dressed four-sector operator into its four summands."""
    zeros = [FourierScalar.zero()] * 4
    return {
        "derivative": geometry.dirac - geometry.dirac_finite_part,
        "chiral": geometry.selfadjoint_fluctuation(f, zeros),
        "vector": geometry.selfadjoint_fluctuation(zeros, g),
        "mass": geometry.dirac_finite_part,
    }


# ---------------------------------------------------------------------------
# random inputs shared by the tests and the command-line checks
# ---------------------------------------------------------------------------


def random_weyl_fields(rng, n_fields: int, cutoff: int = 1) -> list[Section]:
    return [random_section(rng, 2, cutoff=cutoff, n_modes=2) for _ in range(n_fields)]


def overlapping_action_inputs(rng, n_fields: int, cutoff: int = 1, fiber: int = 2):
    """Weyl fields and potentials whose Fourier modes actually pair up.

    The integral of a product of fields only sees mode combinations summing
    to zero, so fully random inputs almost always integrate to nothing.
    Here every field is supported on a negation-symmetric pool of carrier
    modes, and the potentials combine a constant with a harmonic at a pool
    difference, which keeps every term of the action populated.

    Returns ``(weyl_fields, f, g)`` with four real potential components each;
    the fields have ``fiber`` components (two for Weyl fields, four for
    whole spinors).
    """
    while True:
        a = tuple(int(x) for x in rng.integers(-cutoff, cutoff + 1, size=4))
        b = tuple(int(x) for x in rng.integers(-cutoff, cutoff + 1, size=4))
        if a != b and a != negate_mode(b):
            break
    pool = {a, negate_mode(a), b, negate_mode(b)}
    fields = []
    for _ in range(n_fields):
        s = Section(fiber)
        for k in pool:
            s.coeffs[k] = 0.5 * (
                rng.standard_normal(fiber) + 1j * rng.standard_normal(fiber)
            )
        fields.append(s)
    diff = add_modes(a, negate_mode(b))

    def real_potential() -> FourierScalar:
        out = FourierScalar.constant(0.5 * float(rng.standard_normal()))
        if diff != ZERO_MODE:
            c = 0.25 * (rng.standard_normal() + 1j * rng.standard_normal())
            out = out + FourierScalar({diff: c, negate_mode(diff): np.conj(c)})
        return out

    f = [real_potential() for _ in range(4)]
    g = [real_potential() for _ in range(4)]
    return fields, f, g
