"""Exact calculus of constant-fiber differential operators on torus sections.

A ``FieldOperator`` is a finite sum of terms

    e^{i k.x} . G . d^alpha        (optionally followed by componentwise
                                    complex conjugation, for antilinear
                                    operators)

where k is an integer mode, G a constant n x n matrix and d^alpha a product
of coordinate derivatives recorded as a sorted multi-index tuple.  This term
dictionary is a *normal form*: two operators are equal on all sections if
and only if their term dictionaries coincide, so zero-tests and equality
checks are exact.  Composition pushes derivatives through phases with the
finite Leibniz expansion, and conjugation flips modes and conjugates
matrices.  Adjoints are closed form per term: by (d_mu)^+ = -d_mu and
(e^{ik.x})^+ = e^{-ik.x}, the adjoint of e^{ik.x} G d^alpha is
(-1)^|alpha| G^+ d^alpha e^{-ik.x}, whose derivatives are pushed through the
phase by the same cached Leibniz table that composition reads.

Every operator gets its terms from one builder, ``FieldOperator._build``:
the constructor, ``summed`` (through which ``+`` and ``function_matrix_sum``
add their pieces), ``compose`` and the term-wise maps all end in it.  It
keeps, in key order, the rows of one stack of term matrices that are not
exactly zero, by one stacked test.  A build that adds pieces per key keeps
each key where it was first reached and tests only the final sums, so a key
whose pieces cancel exactly partway through, and that a later piece fills
again, keeps its first place.

Composition multiplies only the term pairs whose supports meet: in the
product of two multiplication operators a pair whose supports do not meet
(functions with their own diagonal masks, as the geometries represent them,
never meet) does no work at all.  Each key holds the sum, in pair order, of
the products of the pairs that meet; a pair left out would only have added
signed zeros, so the sum is the all-pairs loop's up to the sign of a zero
entry.  Keys come in the order in which multiplied pairs first reach them.

``apply`` multiplies each amplitude by the term matrices, so the same
operator acts on vector amplitudes ``(n,)`` and on the ``(n, G)`` blocks of
sections linear in G anticommuting generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np

from .torus_fields import (
    FourierScalar,
    Mode,
    Section,
    ZERO_MODE,
    add_modes,
    negate_mode,
)

DerivIndex = tuple[int, ...]
TermKey = tuple[Mode, DerivIndex]

#: Largest probe cutoff a run may ask for.  The probe route applies each
#: difference to at most (2c+1)^4 plane waves, 28,561 at this cap, and to
#: (2c+1)^2 when no derivative acts on the first two axes.
MAX_PROBE_CUTOFF = 6

#: Largest mode cutoff a run may ask for.  Random fields draw their modes
#: from the box |k|_inf <= c through numpy's int64 ``Generator.integers``,
#: whose exclusive upper end c + 1 must not pass 2^63.  The absolute gates
#: fail long before this cap (ROADMAP item 1); it only keeps the draws from
#: raising.
MAX_MODE_CUTOFF = 2**63 - 1


def _stacked(n: int, matrices) -> np.ndarray:
    """The matrices as one new C-ordered ``(T, n, n)`` stack."""
    return np.array(list(matrices), dtype=complex).reshape(-1, n, n)


def _peak_modulus(stack: np.ndarray) -> float:
    """Largest entry modulus of a stack of term matrices, 0.0 for an empty
    stack; NaN if any entry is NaN.  The maximum is exact, so one reduction
    per operator gives the bits of one per term."""
    return float(np.abs(stack).max(initial=0.0))


def _accumulate(terms: dict, key, g: np.ndarray) -> None:
    """Add g into terms[key]; a new key stores g itself, not a copy."""
    held = terms.get(key)
    terms[key] = g if held is None else held + g


@lru_cache(maxsize=1024)
def _leibniz(da: DerivIndex, db: DerivIndex) -> tuple[tuple[DerivIndex, DerivIndex], ...]:
    """Expansion of d^{da} e^{i k.x} d^{db} = e^{i k.x} prod_mu (i k_mu + d_mu) d^{db}:
    per subset of da's factors kept as derivatives (by size, then in order),
    the axes whose i k_mu make up the coefficient and the merged index."""
    positions = range(len(da))
    table = []
    for r in range(len(da) + 1):
        for kept in combinations(positions, r):
            axes = tuple(da[p] for p in positions if p not in kept)
            table.append((axes, tuple(sorted(tuple(da[p] for p in kept) + db))))
    return tuple(table)


def _leibniz_coefficient(axes: DerivIndex, k: Mode) -> complex:
    coeff = 1.0 + 0.0j
    for mu in axes:
        coeff *= 1j * k[mu]
    return coeff


def _pair_mask(a_terms: Mapping, b_terms: Mapping) -> list[list[bool]]:
    """Per term pair, whether some column of the left matrix and the same
    row of the right matrix are both nonzero.  Every pair counts as meeting
    when an operand has fewer than two terms (J, R and the grading are one
    constant term that meets nearly every other, so the test costs more
    than it saves), a derivative term or a non-finite entry (NaN or inf
    times a zero is NaN)."""
    every = [[True] * len(b_terms)] * len(a_terms)
    if len(a_terms) < 2 or len(b_terms) < 2:
        return every
    if any(d for _, d in a_terms) or any(d for _, d in b_terms):
        return every
    left = np.stack(list(a_terms.values()))
    right = np.stack(list(b_terms.values()))
    if not (np.isfinite(left).all() and np.isfinite(right).all()):
        return every
    return (left.any(axis=1) @ right.any(axis=2).T).tolist()


class FieldOperator:
    """Normal form: ``terms`` maps each term key to a matrix that is not
    exactly zero, and only ``_build`` sets it.  The constructor sums its
    matrices per normalised key into a new stack; no term matrix is written
    after its operator is built, so results share them."""

    __slots__ = ("fiber_dim", "antilinear", "terms")

    def __init__(
        self,
        fiber_dim: int,
        terms: Mapping[TermKey, np.ndarray] | None = None,
        antilinear: bool = False,
    ):
        n = int(fiber_dim)
        added: dict[TermKey, np.ndarray] = {}
        for (k, d), g in (terms or {}).items():
            g = np.asarray(g, dtype=complex)
            if g.shape != (n, n):
                raise ValueError("matrix shape does not match fiber dimension")
            _accumulate(added, (tuple(k), tuple(sorted(d))), g)
        self._build(n, added, _stacked(n, added.values()), bool(antilinear))

    def _build(self, n: int, keys, stack: np.ndarray, antilinear: bool) -> "FieldOperator":
        """The one place an operator gets its terms: ``keys[i]: stack[i]``
        for the rows of the C-ordered ``(T, n, n)`` stack that are not
        exactly zero, in key order, stored as views of the stack.  A row is
        zero when every entry is +-0.0 in both parts; NaN, inf and
        subnormal entries keep it.  The test reads the stack's floats, so it
        does not warn on NaN."""
        self.fiber_dim = n
        self.antilinear = antilinear
        kept = stack.view(float).any(axis=(1, 2)).tolist()
        self.terms = {key: g for key, g, keep in zip(keys, stack, kept) if keep}
        return self

    def _stack(self) -> np.ndarray:
        """The term matrices as one ``(T, n, n)`` stack, in term order."""
        return _stacked(self.fiber_dim, self.terms.values())

    # ----- constructors -------------------------------------------------
    @staticmethod
    def summed(n: int, pieces, antilinear: bool = False) -> "FieldOperator":
        """The operator of the ``(key, matrix)`` pieces added per key: a new
        key stores its matrix, a present one adds to its own, keys in
        first-reached order, and the exactly zero sums are dropped once at
        the end.  Keys must be in normal form and matrices complex ``(n,
        n)`` arrays; nothing is checked."""
        terms: dict[TermKey, np.ndarray] = {}
        for key, g in pieces:
            _accumulate(terms, key, g)
        return _built(n, terms, _stacked(n, terms.values()), antilinear)

    @staticmethod
    def zero(n: int, antilinear: bool = False) -> "FieldOperator":
        return FieldOperator(n, {}, antilinear)

    @staticmethod
    def identity(n: int) -> "FieldOperator":
        return FieldOperator(n, {(ZERO_MODE, ()): np.eye(n, dtype=complex)})

    @staticmethod
    def from_matrix(g: np.ndarray) -> "FieldOperator":
        g = np.asarray(g, dtype=complex)
        return FieldOperator(g.shape[0], {(ZERO_MODE, ()): g})

    @staticmethod
    def derivative(n: int, mu: int) -> "FieldOperator":
        return FieldOperator(n, {(ZERO_MODE, (mu,)): np.eye(n, dtype=complex)})

    @staticmethod
    def phase(n: int, mode: Mode) -> "FieldOperator":
        return FieldOperator(n, {(tuple(mode), ()): np.eye(n, dtype=complex)})

    @staticmethod
    def conjugation(n: int) -> "FieldOperator":
        return FieldOperator(n, {(ZERO_MODE, ()): np.eye(n, dtype=complex)}, antilinear=True)

    # ----- linear structure ---------------------------------------------
    def __add__(self, other: "FieldOperator") -> "FieldOperator":
        if self.fiber_dim != other.fiber_dim:
            raise ValueError("fiber dimensions differ")
        if self.antilinear != other.antilinear:
            raise ValueError("cannot add linear and antilinear operators")
        pieces = [*self.terms.items(), *other.terms.items()]
        return FieldOperator.summed(self.fiber_dim, pieces, self.antilinear)

    def __sub__(self, other: "FieldOperator") -> "FieldOperator":
        return self + other.scale(-1.0)

    def __neg__(self) -> "FieldOperator":
        return self.scale(-1.0)

    def scale(self, c: complex) -> "FieldOperator":
        return _built(self.fiber_dim, self.terms, c * self._stack(), self.antilinear)

    # ----- composition ---------------------------------------------------
    def __matmul__(self, other: "FieldOperator") -> "FieldOperator":
        return self.compose(other)

    def compose(self, other: "FieldOperator") -> "FieldOperator":
        """The term-pair loop over the pairs that meet (:func:`_pair_mask`):
        each is multiplied, expanded by the Leibniz table and summed into its
        key in pair order."""
        if self.fiber_dim != other.fiber_dim:
            raise ValueError("fiber dimensions differ")
        # K T = T' K: an antilinear left operand meets the conjugate of the right
        b_terms = other.conjugate().terms if self.antilinear else other.terms
        terms: dict[TermKey, np.ndarray] = {}
        for ((ka, da), ga), row in zip(self.terms.items(), _pair_mask(self.terms, b_terms)):
            for ((kb, db), gb), meet in zip(b_terms.items(), row):
                if not meet:
                    continue
                mode, gab = add_modes(ka, kb), ga @ gb
                for axes, d_new in _leibniz(da, db):
                    coeff = _leibniz_coefficient(axes, kb)
                    if coeff != 0:
                        _accumulate(terms, (mode, d_new), coeff * gab)
        return _built(self.fiber_dim, terms, _stacked(self.fiber_dim, terms.values()),
                      self.antilinear != other.antilinear)

    # ----- involutions ---------------------------------------------------
    def conjugate(self) -> "FieldOperator":
        """K O K for the componentwise conjugation K: every mode negated and
        every matrix conjugated."""
        keys = [(negate_mode(k), d) for k, d in self.terms]
        return _built(self.fiber_dim, keys, np.conj(self._stack()), self.antilinear)

    def conjugate_by(self, u: np.ndarray, u_inv: np.ndarray | None = None) -> "FieldOperator":
        """U O U^-1 for a constant invertible U: G -> U G U^-1 (U G conj(U^-1)
        for an antilinear operator) over the stack of terms, dropping the
        terms that come out exactly zero.  ``u_inv`` defaults to U^dagger,
        the inverse of a unitary U."""
        u = np.asarray(u, dtype=complex)
        u_inv = u.conj().T if u_inv is None else np.asarray(u_inv, dtype=complex)
        right = np.conj(u_inv) if self.antilinear else u_inv
        return _built(self.fiber_dim, self.terms, u @ self._stack() @ right, self.antilinear)

    def adjoint(self) -> "FieldOperator":
        """Sum of (-1)^|d| G^+ d^d e^{-ik.x} over terms.  The signed G^+ are
        one stack in C order (later products round by it); each entry of a
        term's Leibniz table scales its G^+ by the entry's coefficient, all
        in one product; entries are summed per term, then per key.  An
        antilinear A = L K has A^+ = K L^+ = (K L^+ K) K, the conjugate of
        the summed L^+."""
        signs = np.array([(-1.0) ** len(d) for _, d in self.terms]).reshape(-1, 1, 1)
        g_plus = np.multiply(signs, self._stack().conj().transpose(0, 2, 1), order="C")
        entries: list[tuple[int, TermKey]] = []  # (term, key) per row of the products
        coeffs: list[complex] = []
        for t, (k, d) in enumerate(self.terms):
            mode = negate_mode(k)
            for axes, d_new in _leibniz(d, ()):
                coeff = _leibniz_coefficient(axes, mode)
                if coeff != 0:
                    entries.append((t, (mode, d_new)))
                    coeffs.append(coeff)
        rows = [t for t, _ in entries]
        products = np.array(coeffs, dtype=complex).reshape(-1, 1, 1) * g_plus[rows]
        per_term: dict[tuple[int, TermKey], np.ndarray] = {}
        for entry, g in zip(entries, products):
            _accumulate(per_term, entry, g)
        pieces = [(key, g) for (_, key), g in per_term.items()]
        out = FieldOperator.summed(self.fiber_dim, pieces, self.antilinear)
        return out.conjugate() if self.antilinear else out

    # ----- action on sections ---------------------------------------------
    def apply(self, section: Section) -> Section:
        if section.fiber_dim != self.fiber_dim:
            raise ValueError("fiber dimensions differ")
        src = section.conjugate() if self.antilinear else section
        out = Section(self.fiber_dim)
        for (k, d), g in self.terms.items():
            for m, v in src.coeffs.items():
                factor = 1.0 + 0.0j
                for mu in d:
                    factor *= 1j * m[mu]
                if factor == 0:
                    continue
                target = add_modes(m, k)
                w = np.dot(g, factor * v)
                if target in out.coeffs:
                    out.coeffs[target] = out.coeffs[target] + w
                else:
                    out.coeffs[target] = w
        return out

    # ----- diagnostics -----------------------------------------------------
    def max_abs(self) -> float:
        """Largest matrix entry modulus, 0.0 with no term; NaN if any entry is NaN."""
        return _peak_modulus(self._stack())

    def max_deriv_order(self) -> int:
        return max((len(d) for _, d in self.terms), default=0)

    def __repr__(self) -> str:
        kind = "antilinear" if self.antilinear else "linear"
        return f"FieldOperator(n={self.fiber_dim}, {kind}, {len(self.terms)} terms)"


def _built(n: int, keys, stack: np.ndarray, antilinear: bool) -> FieldOperator:
    """A new operator from :meth:`FieldOperator._build`."""
    return FieldOperator.__new__(FieldOperator)._build(n, keys, stack, antilinear)


# ----- derived constructions ------------------------------------------------

def function_matrix_sum(
    n: int, pairs: Iterable[tuple[np.ndarray, FourierScalar]]
) -> FieldOperator:
    """Multiplication operator sum_i G_i f_i(x) with constant matrices G_i:
    the pieces ``0.0 + c G_i`` per mode of f_i, summed, so a mode whose
    matrices cancel exactly leaves no term."""
    pieces = []
    for g, f in pairs:
        g = np.asarray(g, dtype=complex)
        if g.shape != (n, n):
            raise ValueError("matrix shape does not match fiber dimension")
        pieces += [((k, ()), 0.0 + c * g) for k, c in f.coeffs.items()]
    return FieldOperator.summed(n, pieces)


def twisted_commutator(
    d_op: FieldOperator, a: FieldOperator, a_twisted: FieldOperator
) -> FieldOperator:
    """D a - rho(a) D with the twisted image supplied by the caller."""
    return d_op.compose(a) - a_twisted.compose(d_op)


def normal_form_distance(o1: FieldOperator, o2: FieldOperator) -> float:
    """Largest entry of the normal-form difference; NaN if any entry is NaN."""
    if o1.antilinear != o2.antilinear:
        return float(np.max([o1.max_abs(), o2.max_abs()]))
    keys = set(o1.terms) | set(o2.terms)
    zero = np.zeros((o1.fiber_dim, o1.fiber_dim))
    left = np.array([o1.terms.get(k, zero) for k in keys])
    right = np.array([o2.terms.get(k, zero) for k in keys])
    return _peak_modulus(left - right)


def _probe_distance(diff: FieldOperator, probe_cutoff: int) -> float:
    """Max output amplitude of diff over all plane-wave basis probes.

    At probe mode m (m negated for an antilinear operator, whose conjugation
    flips the wave first), applying diff to every fiber basis vector at once
    puts sum_{(k, d, G)} prod_{mu in d} (i m_mu) G at output mode m + k.
    Terms sharing the phase mode k land on the same output mode and on no
    other, so each such group is one matrix product of the derivative
    factors F[probe, term] with the stacked term matrices (T, n^2).  Probes
    are taken in blocks of (2c+1)^2 modes, one per (m_0, m_1) with every
    (m_2, m_3) in a fixed order, which keeps the products small.  F reads m
    only along the active axes (those in some derivative index of diff), so
    a block is taken once per distinct projection of (m_0, m_1) onto them,
    an inactive component being 0: from (2c+1)^2 probes for a
    multiplication operator to (2c+1)^4.  Rows are never deduplicated
    within a block, since BLAS may round a row by its place in the block.
    An infinite entry of a derivative term times the zero factor of a probe
    with m_mu = 0 gives NaN here, where ``apply`` skips a zero factor and a
    probe-by-probe maximum reads inf; both read as unequal, so no verdict
    changes.
    """
    if not diff.terms:
        return 0.0
    active = {mu for _, d in diff.terms for mu in d}
    axis = np.arange(-probe_cutoff, probe_cutoff + 1)
    outer = [axis if mu in active else np.zeros(1, axis.dtype) for mu in (0, 1)]
    probes = np.stack(np.meshgrid(*outer, axis, axis, indexing="ij"), axis=-1)
    probes = probes.reshape(-1, 4)
    if diff.antilinear:
        probes = -probes
    groups: dict[Mode, list[tuple[DerivIndex, np.ndarray]]] = {}
    for (k, d), g in diff.terms.items():
        groups.setdefault(k, []).append((d, g))
    derivs = sorted({d for _, d in diff.terms})
    column = {d: i for i, d in enumerate(derivs)}
    stacked = [
        ([column[d] for d, _ in members], np.stack([g.ravel() for _, g in members]))
        for members in groups.values()
    ]
    block = len(axis) ** 2
    peaks = []
    for start in range(0, len(probes), block):
        i_m = 1j * probes[start : start + block]
        factors = np.stack([np.prod(i_m[:, list(d)], axis=1) for d in derivs], axis=1)
        for cols, mats in stacked:
            peaks.append(np.max(np.abs(factors[:, cols] @ mats)))
    return float(np.max(peaks))


@dataclass(frozen=True)
class OperatorComparison:
    equal: bool
    max_abs_error: float
    normal_form_error: float
    probe_error: float


def operator_equal(
    o1: FieldOperator,
    o2: FieldOperator,
    probe_cutoff: int = 3,
    tol: float = 1e-12,
) -> OperatorComparison:
    """Compare two operators along two independent routes.

    Route one compares canonical normal forms; route two applies the
    difference to every plane-wave probe within the cutoff.  The two routes
    must agree on the verdict (the probe route's threshold is scaled by the
    worst derivative amplification) -- a disagreement raises, since it would
    mean the normal form is not faithful.
    """
    nf = normal_form_distance(o1, o2)
    if o1.antilinear != o2.antilinear:
        pr = float(np.max([_probe_distance(o, probe_cutoff) for o in (o1, o2)]))
    else:
        pr = _probe_distance(o1 - o2, probe_cutoff)
    order = max(o1.max_deriv_order(), o2.max_deriv_order())
    probe_tol = tol * max(1.0, float(probe_cutoff) ** order) * 4.0
    equal_nf = nf <= tol
    equal_pr = pr <= probe_tol
    if equal_nf != equal_pr:
        raise RuntimeError(
            f"equality routes disagree: normal-form {nf:.3e}, probe {pr:.3e}"
        )
    return OperatorComparison(equal_nf, float(np.max([nf, pr])), nf, pr)
