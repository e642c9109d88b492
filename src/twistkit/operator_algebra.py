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

Composition gives the keys of the term-pair loop that multiplies every
pair, their order and their values, while doing less of it: the product of
two multiplication operators multiplies only the term pairs whose supports
meet (functions with their own diagonal masks, as the geometries represent
them, never meet).  The sign of a zero entry is not part of that contract,
since a pair left out would only have added signed zeros.

``apply`` multiplies each amplitude by the term matrices, so the same
operator acts on vector amplitudes ``(n,)`` and on the ``(n, G)`` blocks of
sections linear in G anticommuting generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import add
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


def _conj_pushed(terms: Mapping[TermKey, np.ndarray]) -> dict[TermKey, np.ndarray]:
    """Rewrite K . T as T' . K for the linear part T (K = conjugation)."""
    return {(negate_mode(k), d): np.conj(g) for (k, d), g in terms.items()}


def _is_nonzero(g: np.ndarray | None) -> bool:
    """Whether some entry of g is nonzero: NaN counts, +-0.0 does not, and a
    complex entry is zero only when both of its parts are.  None, a key that
    no product filled, is zero."""
    return g is not None and np.count_nonzero(g) > 0


def _nonzero_rows(stack: np.ndarray) -> np.ndarray:
    """Per matrix of a ``(T, n, n)`` stack, whether it is nonzero by
    :func:`_is_nonzero`'s rules, in one comparison that does not warn on NaN."""
    return (stack != 0).any(axis=(1, 2))


def _peak_modulus(stack: np.ndarray) -> float:
    """Largest entry modulus of a stack of term matrices, 0.0 for an empty
    stack; NaN if any entry is NaN.  The maximum is exact, so one reduction
    per operator gives the bits of one per term."""
    return float(np.abs(stack).max(initial=0.0))


def _accumulate(terms: dict, key, g: np.ndarray) -> None:
    """Add g into terms[key]; a new key, or one that holds None, stores g
    itself, not a copy."""
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


def _compose_pairs(a_terms: Mapping, b_terms: Mapping) -> dict[TermKey, np.ndarray | None]:
    """The term-pair loop: each pair whose supports meet is multiplied,
    expanded by the Leibniz table and summed into its key in pair order.  A
    pair that cannot meet has no derivatives (:func:`_pair_mask`) and a
    product of signed zeros, so it only reserves its key where the pair is
    first reached; a key that no met pair fills holds None, which the prune
    drops."""
    terms: dict[TermKey, np.ndarray | None] = {}
    for ((ka, da), ga), row in zip(a_terms.items(), _pair_mask(a_terms, b_terms)):
        for ((kb, db), gb), meet in zip(b_terms.items(), row):
            mode = add_modes(ka, kb)
            if not meet:
                terms.setdefault((mode, ()), None)
                continue
            gab = ga @ gb
            for axes, d_new in _leibniz(da, db):
                coeff = _leibniz_coefficient(axes, kb)
                if coeff != 0:
                    _accumulate(terms, (mode, d_new), coeff * gab)
    return terms


class FieldOperator:
    """Normal form.  The constructor copies its matrices; no term matrix is
    written after its operator is built, so results share them, and the
    terms of a term-wise map are views of the one stack it computed."""

    __slots__ = ("fiber_dim", "antilinear", "terms")

    def __init__(
        self,
        fiber_dim: int,
        terms: Mapping[TermKey, np.ndarray] | None = None,
        antilinear: bool = False,
    ):
        self.fiber_dim = int(fiber_dim)
        self.antilinear = bool(antilinear)
        self.terms: dict[TermKey, np.ndarray] = {}
        if terms:
            for (k, d), g in terms.items():
                g = np.array(g, dtype=complex, order="C")
                if g.shape != (self.fiber_dim, self.fiber_dim):
                    raise ValueError("matrix shape does not match fiber dimension")
                _accumulate(self.terms, (tuple(k), tuple(sorted(d))), g)

    def _pruned(self) -> "FieldOperator":
        self.terms = {k: g for k, g in self.terms.items() if _is_nonzero(g)}
        return self

    def _stack(self) -> np.ndarray:
        """The term matrices as one ``(T, n, n)`` stack, in term order."""
        if not self.terms:
            return np.zeros((0, self.fiber_dim, self.fiber_dim), dtype=complex)
        return np.array(list(self.terms.values()))

    def _mapped(self, keys, stack: np.ndarray, antilinear: bool) -> "FieldOperator":
        """The operator with the terms ``keys[i]: stack[i]`` (views) whose
        matrices are nonzero, in key order."""
        out = FieldOperator(self.fiber_dim, {}, antilinear)
        kept = _nonzero_rows(stack).tolist()
        out.terms = {key: g for key, g, keep in zip(keys, stack, kept) if keep}
        return out

    # ----- constructors -------------------------------------------------
    @staticmethod
    def summed(n: int, start=(), batches=(), antilinear: bool = False) -> "FieldOperator":
        """The operator with the terms ``start`` (a mapping or ``(key,
        matrix)`` pairs), then each batch of ``(key, matrix)`` pieces added
        in: a new key stores its matrix, a present one adds to its own, and
        each batch ends by dropping the exactly zero keys touched since the
        last, so a key filled again sits at the end.  The first batch counts
        every key of ``start`` as touched; with no batch nothing is dropped.
        Keys must be in normal form and matrices complex ``(n, n)`` arrays;
        nothing is copied or checked.  ``+`` is one batch on the left
        operand's terms."""
        terms = dict(start)
        touched = dict.fromkeys(terms)
        for batch in batches:
            for key, g in batch:
                terms[key] = terms[key] + g if key in terms else g
                touched[key] = None
            for key in touched:
                if not np.count_nonzero(terms[key]):
                    del terms[key]
            touched = {}
        out = FieldOperator(n, {}, antilinear)
        out.terms = terms
        return out

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
        batch = other.terms.items()
        return FieldOperator.summed(self.fiber_dim, self.terms, [batch], self.antilinear)

    def __sub__(self, other: "FieldOperator") -> "FieldOperator":
        return self + other.scale(-1.0)

    def __neg__(self) -> "FieldOperator":
        return self.scale(-1.0)

    def scale(self, c: complex) -> "FieldOperator":
        return self._mapped(self.terms, c * self._stack(), self.antilinear)

    # ----- composition ---------------------------------------------------
    def __matmul__(self, other: "FieldOperator") -> "FieldOperator":
        return self.compose(other)

    def compose(self, other: "FieldOperator") -> "FieldOperator":
        if self.fiber_dim != other.fiber_dim:
            raise ValueError("fiber dimensions differ")
        b_terms = _conj_pushed(other.terms) if self.antilinear else other.terms
        out = FieldOperator(
            self.fiber_dim, {}, self.antilinear != other.antilinear
        )
        out.terms = _compose_pairs(self.terms, b_terms)
        return out._pruned()

    # ----- involutions ---------------------------------------------------
    def conjugate(self) -> "FieldOperator":
        """K O K for the componentwise conjugation K: every mode negated and
        every matrix conjugated."""
        keys = [(negate_mode(k), d) for k, d in self.terms]
        return self._mapped(keys, np.conj(self._stack()), self.antilinear)

    def conjugate_by(self, u: np.ndarray, u_inv: np.ndarray | None = None) -> "FieldOperator":
        """U O U^-1 for a constant invertible U: G -> U G U^-1 (U G conj(U^-1)
        for an antilinear operator) over the stack of terms, dropping the
        terms that come out exactly zero.  ``u_inv`` defaults to U^dagger,
        the inverse of a unitary U."""
        u = np.asarray(u, dtype=complex)
        u_inv = u.conj().T if u_inv is None else np.asarray(u_inv, dtype=complex)
        right = np.conj(u_inv) if self.antilinear else u_inv
        return self._mapped(self.terms, u @ self._stack() @ right, self.antilinear)

    def adjoint(self) -> "FieldOperator":
        """Sum of (-1)^|d| G^+ d^d e^{-ik.x} over terms.  The signed G^+ are
        one stack in C order (later products round by it); each entry of a
        term's Leibniz table scales its G^+ by the entry's coefficient, all
        in one product; entries are summed per term, then per key, and the
        sums are pruned once.  An antilinear A = L K has A^+ = K L^+."""
        signs = np.array([(-1.0) ** len(d) for _, d in self.terms]).reshape(-1, 1, 1)
        g_plus = np.multiply(signs, self._stack().conj().transpose(0, 2, 1), order="C")
        # per key, the pushed entries of each term that reaches it, as rows of
        # the product stack
        rows: list[int] = []
        coeffs: list[complex] = []
        reached: dict[TermKey, list[list[int]]] = {}
        for t, (k, d) in enumerate(self.terms):
            mode = negate_mode(k)
            pushed: dict[DerivIndex, list[int]] = {}
            for axes, d_new in _leibniz(d, ()):
                coeff = _leibniz_coefficient(axes, mode)
                if coeff != 0:
                    pushed.setdefault(d_new, []).append(len(rows))
                    rows.append(t)
                    coeffs.append(coeff)
            for d_new, entries in pushed.items():
                reached.setdefault((mode, d_new), []).append(entries)
        products = np.array(coeffs, dtype=complex).reshape(-1, 1, 1) * g_plus[rows]
        stack = products[[groups[0][0] for groups in reached.values()]]
        for i, groups in enumerate(reached.values()):
            if len(groups) > 1 or len(groups[0]) > 1:
                stack[i] = reduce(add, [reduce(add, products[entries]) for entries in groups])
        keys = list(reached)
        if self.antilinear:
            keys = [(negate_mode(k), d) for k, d in keys]
            stack = np.conj(stack)
        return self._mapped(keys, stack, self.antilinear)

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
        return _peak_modulus(np.array(list(self.terms.values())))

    def max_deriv_order(self) -> int:
        return max((len(d) for _, d in self.terms), default=0)

    def __repr__(self) -> str:
        kind = "antilinear" if self.antilinear else "linear"
        return f"FieldOperator(n={self.fiber_dim}, {kind}, {len(self.terms)} terms)"


# ----- derived constructions ------------------------------------------------

def function_matrix_sum(
    n: int, pairs: Iterable[tuple[np.ndarray, FourierScalar]]
) -> FieldOperator:
    """Multiplication operator sum_i G_i f_i(x) with constant matrices G_i.
    Its term matrices are built here, so they are not copied again, and go
    to ``summed`` as one batch, which drops the modes whose matrices cancel
    exactly."""
    terms: dict[TermKey, np.ndarray] = {}
    for g, f in pairs:
        g = np.asarray(g, dtype=complex)
        if g.shape != (n, n):
            raise ValueError("matrix shape does not match fiber dimension")
        for k, c in f.coeffs.items():
            key = (k, ())
            if key not in terms:
                terms[key] = np.zeros((n, n), dtype=complex)
            terms[key] += c * g
    return FieldOperator.summed(n, (), [terms.items()])


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
