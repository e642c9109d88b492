"""Finite Fourier models of functions and spinor sections on the flat 4-torus.

A smooth function is modelled by a finite sum  f(x) = sum_k c_k e^{i k.x}
over integer modes k in Z^4, stored as a dict {mode: coefficient}.  All
operations (products, derivatives, conjugates, integrals) are exact on this
class: a product is a finite convolution, a derivative rescales mode k by
i k_mu, and the integral over the torus is (2 pi)^4 times the zero-mode
coefficient.  Nothing is ever truncated, so identities that hold for smooth
functions hold here to machine rounding only.

Sections of a rank-n spinor bundle are finite sums of plane waves with complex
amplitudes: ``(n,)`` vectors, or ``(n, G)`` blocks for a section linear in
anticommuting generators theta_0 .. theta_{G-1}, column i holding the
coefficient of theta_i.  ``inner`` and ``component`` refuse blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

Mode = tuple[int, int, int, int]

ZERO_MODE: Mode = (0, 0, 0, 0)

#: Volume of the fundamental cell [0, 2pi)^4.
CELL_VOLUME = (2.0 * np.pi) ** 4


def add_modes(a: Mode, b: Mode) -> Mode:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def negate_mode(a: Mode) -> Mode:
    return (-a[0], -a[1], -a[2], -a[3])


def _cleaned(coeffs: Mapping[Mode, complex]) -> dict[Mode, complex]:
    return {k: complex(v) for k, v in coeffs.items() if v != 0}


@dataclass(frozen=True)
class FourierScalar:
    """A finite Fourier sum sum_k c_k e^{i k.x} on the 4-torus."""

    coeffs: dict[Mode, complex] = field(default_factory=dict)

    @staticmethod
    def zero() -> "FourierScalar":
        return FourierScalar({})

    @staticmethod
    def one() -> "FourierScalar":
        return FourierScalar({ZERO_MODE: 1.0 + 0.0j})

    @staticmethod
    def constant(c: complex) -> "FourierScalar":
        return FourierScalar({ZERO_MODE: complex(c)}) if c != 0 else FourierScalar({})

    @staticmethod
    def wave(mode: Iterable[int], amplitude: complex = 1.0) -> "FourierScalar":
        k = tuple(int(m) for m in mode)
        if len(k) != 4:
            raise ValueError("mode must have four components")
        return FourierScalar(_cleaned({k: amplitude}))

    def __add__(self, other: "FourierScalar") -> "FourierScalar":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) + v
        return FourierScalar(_cleaned(out))

    def __sub__(self, other: "FourierScalar") -> "FourierScalar":
        return self + (-1.0) * other

    def __neg__(self) -> "FourierScalar":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, FourierScalar):
            out: dict[Mode, complex] = {}
            for ka, va in self.coeffs.items():
                for kb, vb in other.coeffs.items():
                    k = add_modes(ka, kb)
                    out[k] = out.get(k, 0.0) + va * vb
            return FourierScalar(_cleaned(out))
        return FourierScalar(_cleaned({k: other * v for k, v in self.coeffs.items()}))

    __rmul__ = __mul__

    def conjugate(self) -> "FourierScalar":
        return FourierScalar(
            _cleaned({negate_mode(k): np.conj(v) for k, v in self.coeffs.items()})
        )

    def derivative(self, mu: int) -> "FourierScalar":
        return FourierScalar(
            _cleaned({k: 1j * k[mu] * v for k, v in self.coeffs.items()})
        )

    def integral(self) -> complex:
        return CELL_VOLUME * self.coeffs.get(ZERO_MODE, 0.0)

    def real_part(self) -> "FourierScalar":
        return 0.5 * (self + self.conjugate())

    def max_abs(self) -> float:
        """Largest coefficient modulus; NaN if any coefficient is NaN."""
        moduli = np.fromiter(map(abs, self.coeffs.values()), float, len(self.coeffs))
        return float(moduli.max(initial=0.0))

    def __call__(self, x: Iterable[float]) -> complex:
        x = np.asarray(x, dtype=float)
        return sum(v * np.exp(1j * np.dot(k, x)) for k, v in self.coeffs.items())


def random_scalar(
    rng: np.random.Generator,
    cutoff: int = 2,
    n_modes: int = 4,
    real: bool = False,
) -> FourierScalar:
    """A random finite Fourier sum with modes in the box |k|_inf <= cutoff."""
    out: dict[Mode, complex] = {}
    for _ in range(n_modes):
        k = tuple(rng.integers(-cutoff, cutoff + 1, size=4).tolist())
        c = rng.normal() + 1j * rng.normal()
        out[k] = out.get(k, 0.0) + c
    f = FourierScalar(_cleaned(out))
    if real:
        f = f.real_part()
    return f


class Section:
    """A finite sum of plane waves with rank-n amplitude vectors."""

    __slots__ = ("fiber_dim", "coeffs")

    def __init__(self, fiber_dim: int, coeffs: Mapping[Mode, np.ndarray] | None = None):
        self.fiber_dim = int(fiber_dim)
        self.coeffs: dict[Mode, np.ndarray] = {}
        if coeffs:
            for k, v in coeffs.items():
                v = np.asarray(v)
                if v.ndim not in (1, 2) or v.shape[0] != self.fiber_dim:
                    raise ValueError("amplitude shape does not match fiber dimension")
                self.coeffs[tuple(k)] = v

    @staticmethod
    def plane_wave(mode: Iterable[int], amplitude: np.ndarray) -> "Section":
        amplitude = np.asarray(amplitude)
        return Section(len(amplitude), {tuple(int(m) for m in mode): amplitude})

    @staticmethod
    def from_components(components: list[FourierScalar]) -> "Section":
        """Assemble a section from one scalar function per fiber index."""
        n = len(components)
        out: dict[Mode, np.ndarray] = {}
        for i, f in enumerate(components):
            for k, v in f.coeffs.items():
                if k not in out:
                    out[k] = np.zeros(n, dtype=complex)
                out[k][i] += v
        return Section(n, out)

    def _require_vector(self) -> None:
        if any(v.ndim != 1 for v in self.coeffs.values()):
            raise ValueError("operation needs vector amplitudes, not a Grassmann block")

    def component(self, i: int) -> FourierScalar:
        self._require_vector()
        return FourierScalar(
            _cleaned({k: v[i] for k, v in self.coeffs.items()})
        )

    def __add__(self, other: "Section") -> "Section":
        if self.fiber_dim != other.fiber_dim:
            raise ValueError("fiber dimensions differ")
        out = Section(self.fiber_dim)
        for k, v in self.coeffs.items():
            out.coeffs[k] = v.copy()
        for k, v in other.coeffs.items():
            if k in out.coeffs:
                out.coeffs[k] = out.coeffs[k] + v
            else:
                out.coeffs[k] = v.copy()
        return out

    def __sub__(self, other: "Section") -> "Section":
        return self + other.scale(-1.0)

    def scale(self, c) -> "Section":
        out = Section(self.fiber_dim)
        for k, v in self.coeffs.items():
            out.coeffs[k] = c * v
        return out

    def conjugate(self) -> "Section":
        out = Section(self.fiber_dim)
        for k, v in self.coeffs.items():
            out.coeffs[negate_mode(k)] = np.conj(v)
        return out

    def inner(self, other: "Section") -> complex:
        """Integral of psi^dagger phi; conjugate-linear in the first slot."""
        if self.fiber_dim != other.fiber_dim:
            raise ValueError("fiber dimensions differ")
        self._require_vector()
        other._require_vector()
        acc = 0.0 + 0.0j
        for k, v in self.coeffs.items():
            w = other.coeffs.get(k)
            if w is not None:
                acc += np.vdot(v, w)
        return CELL_VOLUME * acc

    def max_abs(self) -> float:
        """Largest amplitude modulus; NaN if any amplitude is NaN."""
        peaks = [np.max(np.abs(v)) for v in self.coeffs.values() if v.size]
        return float(np.max(peaks, initial=0.0))

    def matmul(self, matrix: np.ndarray) -> "Section":
        """Apply a constant fiber matrix to every amplitude."""
        out = Section(matrix.shape[0])
        for k, v in self.coeffs.items():
            out.coeffs[k] = np.dot(matrix, v)
        return out


def random_section(
    rng: np.random.Generator,
    fiber_dim: int,
    cutoff: int = 2,
    n_modes: int = 3,
) -> Section:
    out = Section(fiber_dim)
    for _ in range(n_modes):
        k = tuple(rng.integers(-cutoff, cutoff + 1, size=4).tolist())
        v = rng.normal(size=fiber_dim) + 1j * rng.normal(size=fiber_dim)
        if k in out.coeffs:
            out.coeffs[k] = out.coeffs[k] + v
        else:
            out.coeffs[k] = v
    return out
