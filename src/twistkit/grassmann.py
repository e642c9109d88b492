"""Finite-dimensional Grassmann arithmetic for fermionic quadratic forms.

Elements live in the exterior algebra over a finite set of anticommuting
generators theta_0, theta_1, ...  A ``GrassmannNumber`` stores its expansion
as a map from strictly increasing generator tuples to complex amplitudes, so
products are exact: merging two index tuples counts inversions for the sign
and kills any repeated generator.

The generators are their own conjugates; ``conjugate`` therefore conjugates
amplitudes and leaves monomials untouched (no order reversal).  This is the
convention under which a quadratic form built from an antisymmetric matrix
transforms the way sesquilinear pairings of field amplitudes do.

``antisymmetric_pair_form`` reads a matrix B as the quadratic form
sum_ij B_ij t_i t_j = sum_{i<j} (B_ij - B_ji) t_i t_j.  This is how the action
engine turns the ``(n, n)`` pairing of two sections stored as complex
(fiber x generators) blocks into an element of the algebra; the explicit
generator arithmetic here is the exact oracle that reading is tested against.
"""

from __future__ import annotations

import numbers
from functools import lru_cache

import numpy as np

Monomial = tuple[int, ...]


def _merge(a: Monomial, b: Monomial) -> tuple[Monomial, int] | None:
    """Merge two increasing tuples; return (merged, sign) or None if repeated."""
    out = []
    sign = 1
    i, j = 0, 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] moves past the remaining len(a) - i generators of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


class GrassmannNumber:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[Monomial, complex] | None = None):
        self.coeffs: dict[Monomial, complex] = {}
        if coeffs:
            for key, c in coeffs.items():
                if c != 0:
                    self.coeffs[tuple(key)] = complex(c)

    @classmethod
    def _clean(cls, coeffs: dict[Monomial, complex]) -> "GrassmannNumber":
        """Wrap ``coeffs`` as is: tuple keys, nonzero Python complex values."""
        out = cls.__new__(cls)
        out.coeffs = coeffs
        return out

    @staticmethod
    def scalar(c: complex) -> "GrassmannNumber":
        return GrassmannNumber({(): c})

    @staticmethod
    def zero() -> "GrassmannNumber":
        return GrassmannNumber()

    @staticmethod
    def generator(i: int) -> "GrassmannNumber":
        return GrassmannNumber({(int(i),): 1.0})

    # ----- ring structure -------------------------------------------------
    def __add__(self, other):
        if isinstance(other, numbers.Number):
            other = GrassmannNumber.scalar(other)
        if not isinstance(other, GrassmannNumber):
            return NotImplemented
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            s = out.get(key, 0.0) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return GrassmannNumber._clean(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, numbers.Number):
            other = GrassmannNumber.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return GrassmannNumber._clean({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, numbers.Number):
            return GrassmannNumber({k: c * other for k, c in self.coeffs.items()})
        if not isinstance(other, GrassmannNumber):
            return NotImplemented
        out: dict[Monomial, complex] = {}
        for ka, ca in self.coeffs.items():
            for kb, cb in other.coeffs.items():
                merged = _merge(ka, kb)
                if merged is None:
                    continue
                key, sign = merged
                s = out.get(key, 0.0) + sign * ca * cb
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return GrassmannNumber(out)

    def __rmul__(self, other):
        if isinstance(other, numbers.Number):
            return GrassmannNumber({k: other * c for k, c in self.coeffs.items()})
        return NotImplemented

    # ----- involution ------------------------------------------------------
    def conjugate(self) -> "GrassmannNumber":
        return GrassmannNumber({k: np.conj(c) for k, c in self.coeffs.items()})

    # ----- inspection --------------------------------------------------------
    def coefficient(self, key: Monomial) -> complex:
        return self.coeffs.get(tuple(key), 0.0 + 0.0j)

    def degree_part(self, degree: int) -> "GrassmannNumber":
        return GrassmannNumber(
            {k: c for k, c in self.coeffs.items() if len(k) == degree}
        )

    def max_degree(self) -> int:
        return max((len(k) for k in self.coeffs), default=0)

    def __abs__(self) -> float:
        """Largest amplitude modulus; NaN if any amplitude is NaN."""
        moduli = np.fromiter(map(abs, self.coeffs.values()), float, len(self.coeffs))
        return float(moduli.max(initial=0.0))

    def __eq__(self, other):
        if isinstance(other, numbers.Number):
            other = GrassmannNumber.scalar(other)
        if not isinstance(other, GrassmannNumber):
            return NotImplemented
        return abs(self - other) == 0.0

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "GrassmannNumber(0)"
        bits = []
        for key in sorted(self.coeffs, key=lambda k: (len(k), k)):
            mono = "".join(f"t{i}" for i in key) or "1"
            bits.append(f"({self.coeffs[key]:.4g})*{mono}")
        return "GrassmannNumber(" + " + ".join(bits) + ")"


@lru_cache(maxsize=64)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray, tuple[Monomial, ...]]:
    """Read-only strict upper-triangle indices of an n x n matrix, and their
    ``(i, j)`` monomials in the same order."""
    rows, cols = np.triu_indices(n, k=1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols, tuple(zip(rows.tolist(), cols.tolist()))


def antisymmetric_pair_form(matrix: np.ndarray) -> GrassmannNumber:
    """sum_{i<j} (B_ij - B_ji) t_i t_j, the value of sum_ij B_ij t_i t_j."""
    b = np.asarray(matrix)
    rows, cols, keys = _upper_pairs(b.shape[0])
    values = (b[rows, cols] - b[cols, rows]).astype(complex, copy=False).tolist()
    return GrassmannNumber._clean({k: c for k, c in zip(keys, values) if c != 0})


def pair_coefficient_matrix(g: GrassmannNumber, n: int) -> np.ndarray:
    """Antisymmetric matrix of the degree-2 part over generators 0..n-1."""
    m = np.zeros((n, n), dtype=complex)
    for key, c in g.degree_part(2).coeffs.items():
        i, j = key
        if j >= n:
            raise ValueError(f"generator t{j} outside range 0..{n - 1}")
        m[i, j] = c
        m[j, i] = -c
    return m
