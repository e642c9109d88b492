"""Gamma matrices in the chiral basis, and the spinor representation of boosts.

Conventions used throughout the package:

* Pauli matrices ``sigma_1 = [[0,1],[1,0]]``, ``sigma_2 = [[0,-i],[i,0]]``,
  ``sigma_3 = [[1,0],[0,-1]]``.
* Euclidean two-by-two blocks ``SIGMA[mu] = {I, -i sigma_j}`` and
  ``SIGMA_TILDE[mu] = {I, +i sigma_j}``; the euclidean gamma matrices are
  off-diagonal with ``SIGMA`` upper-right and ``SIGMA_TILDE`` lower-left, all
  self-adjoint, satisfying {gamma^mu, gamma^nu} = 2 delta^{mu nu}.
* Minkowski blocks ``SIGMA_M[mu] = {I, sigma_j}``, ``SIGMA_M_BAR[mu] = {I,
  -sigma_j}`` with metric signature (+,-,-,-); the Minkowski gammas satisfy
  {gamma_M^mu, gamma_M^nu} = 2 eta^{mu nu}.
* The chirality operator is ``GAMMA5 = gamma^1 gamma^2 gamma^3 gamma^0 =
  diag(I, -I)``; its Minkowski counterpart is ``-i GAMMA5``.
* A boost with unit axis ``n`` and half-rapidity ``a`` acts on spinors through
  ``S = diag(Lambda_minus, Lambda_plus)`` with ``Lambda_pm = exp(+-a n.sigma)``;
  ``S`` is self-adjoint but not unitary, and ``gamma^0 S gamma^0 = S^{-1}``.
  The corresponding vector boost has rapidity ``2a``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

I2 = np.eye(2, dtype=complex)

PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# Euclidean blocks: SIGMA[0] = SIGMA_TILDE[0] = I, SIGMA[j] = -i sigma_j,
# SIGMA_TILDE[j] = +i sigma_j.
SIGMA = np.stack([I2, -1j * PAULI[0], -1j * PAULI[1], -1j * PAULI[2]])
SIGMA_TILDE = np.stack([I2, 1j * PAULI[0], 1j * PAULI[1], 1j * PAULI[2]])

# Minkowski blocks, signature (+,-,-,-).
SIGMA_M = np.stack([I2, PAULI[0], PAULI[1], PAULI[2]])
SIGMA_M_BAR = np.stack([I2, -PAULI[0], -PAULI[1], -PAULI[2]])

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def _offdiag(upper_right: np.ndarray, lower_left: np.ndarray) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    out[:2, 2:] = upper_right
    out[2:, :2] = lower_left
    return out


def chiral_blocks(upper: np.ndarray, lower: np.ndarray, off: complex = 0) -> np.ndarray:
    """4x4 chiral-basis matrix: ``upper``/``lower`` on the diagonal, ``off * I``
    coupling the two chiralities."""
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2], out[2:, 2:] = upper, lower
    out[:2, 2:] = out[2:, :2] = off * I2
    return out


GAMMA = np.stack([_offdiag(SIGMA[mu], SIGMA_TILDE[mu]) for mu in range(4)])
GAMMA5 = GAMMA[1] @ GAMMA[2] @ GAMMA[3] @ GAMMA[0]

GAMMA_M = np.stack([_offdiag(SIGMA_M[mu], SIGMA_M_BAR[mu]) for mu in range(4)])

# gamma^0 doubles as the unitary implementing the twist on spinors.
GAMMA0 = GAMMA[0]


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def twist_gamma(mu: int) -> np.ndarray:
    """Conjugation of gamma^mu by gamma^0; equals -gamma^j for spatial mu."""
    return GAMMA0 @ GAMMA[mu] @ GAMMA0


def pauli_components(x: np.ndarray) -> np.ndarray:
    """Coefficients (c_0, c_1, c_2, c_3) of x = c_0 I + sum_j c_j sigma_j.

    A stack of blocks (..., 2, 2) gives the coefficients along the last axis.
    They are tr(sigma_j x) / 2 read entry by entry, with the bits of the
    traces of matrix products: each part of x00 + x11, x10 + x01,
    -i (x10 - x01) and x00 - x11 is one sum, which starts from +0.0; the
    products 0 . x_ab make c_1..c_3 NaN wherever an entry is not finite; and
    the complex division by 2 makes the partner of an infinite part NaN.
    """
    x = np.asarray(x, dtype=complex)
    re, im = x.real, x.imag
    out = np.empty(x.shape[:-2] + (4,), dtype=complex)
    out_re, out_im = out.real, out.imag
    np.add(re[..., 0, 0], re[..., 1, 1], out=out_re[..., 0])
    np.add(im[..., 0, 0], im[..., 1, 1], out=out_im[..., 0])
    np.add(re[..., 1, 0], re[..., 0, 1], out=out_re[..., 1])
    np.add(im[..., 1, 0], im[..., 0, 1], out=out_im[..., 1])
    np.subtract(im[..., 1, 0], im[..., 0, 1], out=out_re[..., 2])
    np.subtract(re[..., 0, 1], re[..., 1, 0], out=out_im[..., 2])
    np.subtract(re[..., 0, 0], re[..., 1, 1], out=out_re[..., 3])
    np.subtract(im[..., 0, 0], im[..., 1, 1], out=out_im[..., 3])
    out[..., 1:] += (0.0 * x).sum(axis=(-2, -1))[..., None]
    out += 0.0
    out /= 2.0
    return out


def _boost_lambdas(half_rapidity, axis) -> tuple[np.ndarray, np.ndarray]:
    """``(Lambda_plus, Lambda_minus) = cosh(a) I +- sinh(a) n.sigma``, shape
    S + (2, 2), for half-rapidities of shape S and unit axes of shape
    S + (3,); elementwise, so a boost gets the same bits alone or in a batch."""
    a = np.asarray(half_rapidity, dtype=float)[..., None, None]
    n = np.asarray(axis, dtype=float)[..., None, None]
    n_sigma = n[..., 0, :, :] * PAULI[0] + n[..., 1, :, :] * PAULI[1] + n[..., 2, :, :] * PAULI[2]
    cosh, sinh = np.cosh(a) * I2, np.sinh(a) * n_sigma
    return cosh + sinh, cosh - sinh


def _boosted_sigmas(lam: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``lam sigma[mu] lam`` for the four blocks of ``sigma``, read-only, shape
    S + (4, 2, 2) for ``lam`` of shape S + (2, 2)."""
    out = lam[..., None, :, :] @ sigma @ lam[..., None, :, :]
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SpinBoost:
    """Spinor representation of a boost: half_rapidity along a unit axis.

    The boosted families ``Lambda_minus SIGMA[mu] Lambda_minus`` and
    ``Lambda_plus SIGMA_TILDE[mu] Lambda_plus`` are built once per boost, as the
    read-only (4, 2, 2) stacks ``sigma_boosted_stack`` and ``sigma_tilde_boosted_stack``;
    ``sigma_boosted(mu)`` and ``sigma_tilde_boosted(mu)`` return their rows.
    The blocks come from :func:`_boost_lambdas` and :func:`_boosted_sigmas`,
    lazily for one boost or filled for many at once by :meth:`fill_blocks`.
    """

    half_rapidity: float = 0.0
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self) -> None:
        n = np.asarray(self.axis, dtype=float)
        if not (np.isfinite(n).all() and n.any()):
            raise ValueError("boost axis must be finite and nonzero")
        with np.errstate(over="ignore", under="ignore"):
            norm = math.sqrt(n.dot(n))  # np.linalg.norm's arithmetic on a real vector
        if not 1e-150 < norm < 1e150:  # the squares lose bits or overflow
            n = n / np.max(np.abs(n))
            norm = math.sqrt(n.dot(n))
        object.__setattr__(self, "axis", tuple(n / norm))

    @cached_property
    def _lambdas(self) -> tuple[np.ndarray, np.ndarray]:
        return _boost_lambdas(self.half_rapidity, self.axis)

    @property
    def lambda_plus(self) -> np.ndarray:
        return self._lambdas[0]

    @property
    def lambda_minus(self) -> np.ndarray:
        return self._lambdas[1]

    @cached_property
    def matrix(self) -> np.ndarray:
        return chiral_blocks(self.lambda_minus, self.lambda_plus)

    @cached_property
    def inverse(self) -> np.ndarray:
        return chiral_blocks(self.lambda_plus, self.lambda_minus)

    @cached_property
    def sigma_boosted_stack(self) -> np.ndarray:
        return _boosted_sigmas(self.lambda_minus, SIGMA)

    @cached_property
    def sigma_tilde_boosted_stack(self) -> np.ndarray:
        return _boosted_sigmas(self.lambda_plus, SIGMA_TILDE)

    @staticmethod
    def fill_blocks(boosts: Sequence["SpinBoost"]) -> None:
        """Cache ``Lambda_+-`` and both boosted sigma stacks of ``boosts``
        with one broadcast each, the bits each boost would compute alone."""
        if not boosts:
            return
        plus, minus = _boost_lambdas(
            [boost.half_rapidity for boost in boosts], [boost.axis for boost in boosts]
        )
        stacks = zip(_boosted_sigmas(minus, SIGMA), _boosted_sigmas(plus, SIGMA_TILDE))
        for boost, lp, lm, (sigma, sigma_tilde) in zip(boosts, plus, minus, stacks):
            boost.__dict__.update(
                _lambdas=(lp, lm),
                sigma_boosted_stack=sigma,
                sigma_tilde_boosted_stack=sigma_tilde,
            )

    def sigma_boosted(self, mu: int) -> np.ndarray:
        return self.sigma_boosted_stack[mu]

    def sigma_tilde_boosted(self, mu: int) -> np.ndarray:
        return self.sigma_tilde_boosted_stack[mu]

    def gamma_boosted(self, mu: int) -> np.ndarray:
        return _offdiag(self.sigma_boosted(mu), self.sigma_tilde_boosted(mu))


IDENTITY_BOOST = SpinBoost(0.0, (0.0, 0.0, 1.0))

#: Largest full rapidity a run or a plane-wave solve may ask for.  Boosted
#: blocks grow like e^{rapidity}, and from rapidity 14 on the two extraction
#: routes of :func:`lorentz_matrix` part by more than their absolute gate.
MAX_RAPIDITY = 12

_IMAG_RESIDUE_TOL = 1e-10


def _route_components(stack: np.ndarray) -> np.ndarray:
    """Pauli components of a boosted sigma stack, its spatial blocks times i:
    row mu holds those of block mu."""
    x = 1j * stack
    x[0] = stack[0]
    return pauli_components(x)


def lorentz_matrix(boost: SpinBoost) -> np.ndarray:
    """Extract the vector (one-index-up, one-down) boost matrix from S.

    Two independent extractions are performed, one from the boosted
    sigma-tilde blocks and one from the boosted sigma blocks; they must agree
    and be real, otherwise a ValueError is raised.  The row index is the
    boosted-frame label, the column the rest-frame one, so plane-wave
    covectors transform as p'_nu = Lam[mu, nu] p_mu.
    """
    # Tilde route: the mu = 0 block decomposes on {I, -sigma_j}; the spatial
    # blocks carry an extra factor -i.  Sigma route: on {I, +sigma_j}.
    lam_tilde = _route_components(boost.sigma_tilde_boosted_stack)
    np.negative(lam_tilde[:, 1:], out=lam_tilde[:, 1:])
    lam_sigma = _route_components(boost.sigma_boosted_stack)

    disagreement = np.max(np.abs(lam_tilde - lam_sigma))
    if disagreement > _IMAG_RESIDUE_TOL:
        raise ValueError(f"boost extraction routes disagree by {disagreement:.3e}")
    residue = max(np.max(np.abs(lam_tilde.imag)), np.max(np.abs(lam_sigma.imag)))
    if residue > _IMAG_RESIDUE_TOL:
        raise ValueError(f"boost extraction has imaginary residue {residue:.3e}")
    return lam_tilde.real.copy()


def boost_covector(boost: SpinBoost, p: np.ndarray) -> np.ndarray:
    """Components p'_nu = Lam^mu_nu p_mu of a boosted plane-wave covector."""
    lam = lorentz_matrix(boost)
    return np.asarray(p, dtype=float) @ lam


def draw_rapidity(rng, cap: float) -> float:
    """One uniform draw in (0.05, cap), or in (cap / 2, cap) for a cap below
    0.06, so that for every positive cap the draw is positive and at most cap."""
    return float(rng.uniform(0.05 if cap >= 0.06 else 0.5 * cap, cap))
