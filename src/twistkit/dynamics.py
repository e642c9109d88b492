"""Momentum-space plane-wave systems: dispersion relations and kernels.

Everything here lives at the symbol level: on a plane wave ``exp(-i p.x)``
each derivative becomes ``-i p_mu``, so a constant-coefficient equation of
motion collapses to a finite matrix.  Momenta are arbitrary reals (not
torus-quantized).  The ``p_0`` roots come in closed form; each solve takes
its determinant from one LU factorisation and its kernel from one SVD.  The
determinant-kernel duality sweep builds a batch of systems and factors them
with one stacked call each, which gives every matrix the bits of a single
call.

Conventions
-----------
* ``p`` is always a covector ``(p_0, p_1, p_2, p_3)``.  The unboosted Weyl
  and Dirac systems read only the spatial part plus the scalar potential
  ``f_0``; the time component enters through the identification of ``p_0``
  with ``-f_0`` (unprimed/left) or ``+f_0`` (primed/right).
* Flat-space reference matrices: ``minkowski_weyl_matrix`` gives
  ``p_0 -+ sigma.p`` and ``minkowski_dirac_matrix`` couples the two with a
  mass on the off-diagonal block.  The unboosted systems are these
  matrices with ``f_0`` in the place of ``p_0``.
* Boosted systems carry the half-rapidity factors inside the sigma
  matrices (``SpinBoost.sigma_boosted`` / ``sigma_tilde_boosted``); under
  the momentum identification they reduce to ``-(1+i)`` times the flat
  reference at the transported momentum ``p' = boost_covector(boost, p)``.
* Every claim takes the kind (``FLAT_KINDS``, ``BOOSTED_KINDS``) and
  reads it through one parser: ``identified_problem`` places any kind at
  its identification momentum, ``on_shell`` puts it on its mass shell, and
  ``reduction_residual`` / ``kernel_covariance`` check a boosted problem
  against its flat reference and its kernel transport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .actions import (
    boosted_weyl_density_operators,
    covariant_weyl_density_operators,
)
from .clifford import (
    I2,
    IDENTITY_BOOST,
    PAULI,
    SIGMA_M,
    SIGMA_M_BAR,
    SpinBoost,
    boost_covector,
    chiral_blocks,
    draw_rapidity,
)
from .operator_algebra import FieldOperator
from .torus_fields import ZERO_MODE, FourierScalar

#: singular values at or below ``KERNEL_THRESHOLD * max(1, s_max)`` count
#: as kernel directions.
KERNEL_THRESHOLD = 1e-10

#: A generic (off-shell) draw is kept only when its smallest singular value
#: exceeds this; otherwise it is drawn again.
GENERIC_MIN_SINGULAR = 1e-4

ZERO4 = (0.0, 0.0, 0.0, 0.0)

#: ``chiral_blocks(SIGMA_M_BAR[mu], SIGMA_M[mu])`` flattened, one row per
#: ``mu``: the massless flat Dirac system is ``p`` times this stack.
_DIRAC_STACK = np.stack([chiral_blocks(*pair).ravel() for pair in zip(SIGMA_M_BAR, SIGMA_M)])


def _as_covector(p: Sequence[float]) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise ValueError("momentum must be a real 4-covector")
    return p


def _require_handed(handed: str) -> str:
    if handed not in ("left", "right"):
        raise ValueError(f"handed must be 'left' or 'right', got {handed!r}")
    return handed


def minkowski_weyl_matrix(p: Sequence[float], handed: str = "left") -> np.ndarray:
    """``p_0 - sigma.p`` (left) or ``p_0 + sigma.p`` (right), entry by entry."""
    p0, p1, p2, p3 = _as_covector(p).tolist()
    if _require_handed(handed) == "left":
        p1, p2, p3 = -p1, -p2, -p3
    return np.array([[p0 + p3, complex(p1, -p2)], [complex(p1, p2), p0 - p3]], dtype=complex)


def _boosted_sum(stack: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """``sum_mu stack[mu] * coeff[mu]`` for a boosted sigma stack, in order of ``mu``."""
    return (stack * coeff[:, None, None]).sum(axis=0)


def minkowski_dirac_matrix(p: Sequence[float], m: complex) -> np.ndarray:
    """Massive flat-space block system, assembled from the Minkowski sigmas.

    Rows read ``(p_0 - sigma.p) psi_l = m psi_r`` and
    ``(p_0 + sigma.p) psi_r = m psi_l``.
    """
    out = (_as_covector(p) @ _DIRAC_STACK).reshape(4, 4)
    out[:2, 2:] = out[2:, :2] = -m * I2
    return out


@dataclass(frozen=True)
class DispersionResult:
    """System matrix at a trial momentum plus its closed-form diagnostics.

    ``roots`` are the admissible ``p_0`` values for the supplied spatial
    data (the mass shell); ``kernel`` is the numerically extracted null
    space of ``matrix``, empty when the trial momentum is off shell, and
    ``singular_values`` are those of the one SVD it came from, descending.
    """

    kind: str
    matrix: np.ndarray
    determinant: complex
    roots: tuple
    kernel: tuple
    singular_values: np.ndarray

    @property
    def singular(self) -> bool:
        return len(self.kernel) > 0


def _factored(
    kind: str, matrix: np.ndarray, roots: tuple, determinant, s: np.ndarray, vh: np.ndarray
) -> DispersionResult:
    """``matrix`` with its determinant and kernel: the right-singular
    directions whose singular value is negligible against the largest."""
    cut = KERNEL_THRESHOLD * max(1.0, float(s[0]))
    kernel = tuple(vh[i].conj() for i in range(len(s)) if s[i] <= cut)
    return DispersionResult(kind, matrix, complex(determinant), roots, kernel, s)


def _weyl(f0: float, p: Sequence[float], handed: str) -> tuple[np.ndarray, tuple]:
    """Massless system ``f_0 +- sigma.p``: the flat Weyl matrix at ``(f_0, -p_j)``.

    The matrix uses only the spatial part of ``p``; a plane wave at the full
    ``p`` solves the equation of motion exactly when ``p_0 = -f_0`` (left)
    or ``p_0 = f_0`` (right) and the matrix below is singular.
    """
    p = _as_covector(p)
    matrix = minkowski_weyl_matrix(np.concatenate(([f0], -p[1:4])), handed)
    radius = math.sqrt(p[1:4].dot(p[1:4]))
    return matrix, (radius, -radius)


def _dirac(
    f0: float, g: Sequence[float], d: complex, p: Sequence[float], primed: bool
) -> tuple[np.ndarray, tuple]:
    """Coupled pair ``(f_0 +- sigma.(p+g)) psi = m psi_other`` with ``m = -i d``.

    The flat Dirac matrix at ``(f_0, -+P_j)`` with ``P = p + g``, where
    ``g`` is the spatial gauge 3-vector (temporal gauge: no ``g_0``); the
    primed variant (``+``) swaps the diagonal blocks and keeps the mass.  The
    4x4 determinant is ``(f_0^2 - |p+g|^2 - m^2)^2``, so the ``p_0`` roots
    satisfy ``p_0^2 - |p+g|^2 = m^2`` under either identification
    ``p_0 = -+ f_0``.
    """
    p = _as_covector(p)
    g = np.asarray(g, dtype=float)
    if g.shape != (3,):
        raise ValueError("gauge potential must be a spatial 3-vector")
    m = -1j * complex(d)
    big_p = p[1:4] + g
    matrix = minkowski_dirac_matrix(np.concatenate(([f0], big_p if primed else -big_p)), m)
    shell = np.sqrt(complex(np.dot(big_p, big_p)) + m * m)
    return matrix, (shell, -shell)


def _boosted_weyl(
    boost: SpinBoost, f: Sequence[float], p: Sequence[float], handed: str
) -> tuple[np.ndarray, tuple]:
    """``sum_mu st_L^mu (-i p_mu + f_mu)`` (left) / ``s_L^mu (-i p_mu - f_mu)``.

    All four components of ``f`` and ``p`` enter.  Under the identification
    ``p = weyl_identification(f, handed)`` the matrix equals
    ``-(1+i) * minkowski_weyl_matrix(p', handed)`` at the transported
    momentum ``p' = boost_covector(boost, p)``, so the kernel is the flat
    one at ``p'``.
    """
    p = _as_covector(p)
    f = _as_covector(f)
    if _require_handed(handed) == "left":
        matrix = _boosted_sum(boost.sigma_tilde_boosted_stack, -1j * p + f)
    else:
        matrix = _boosted_sum(boost.sigma_boosted_stack, -1j * p - f)
    radius = math.sqrt(p[1:4].dot(p[1:4]))
    return matrix, (radius, -radius)


def boosted_dirac_mass(d: complex, primed: bool = False) -> complex:
    """Mass extracted from the coupling ``d`` under the two identifications."""
    if primed:
        return (1 + 1j) * np.conj(complex(d)) / 2
    return -(1 + 1j) * complex(d) / 2


def _boosted_dirac(
    boost: SpinBoost,
    f: Sequence[float],
    g: Sequence[float],
    d: complex,
    p: Sequence[float],
    primed: bool,
) -> tuple[np.ndarray, tuple]:
    """Boosted coupled pair in the generalized momentum ``P = p + g``.

    Unprimed rows: ``st_L(-iP + f) psi_l = i d psi_r`` and
    ``s_L(-iP + f) psi_r = i d psi_l``; the primed system flips the sign of
    ``f`` and couples through ``+i conj(d)``.  Under ``P_0 = -f_0, P_j = f_j``
    (unprimed; signs flipped for primed) the matrix reduces to
    ``-(1+i) * minkowski_dirac_matrix(P', m)`` with
    ``m = boosted_dirac_mass(d, primed)``.
    """
    p = _as_covector(p)
    f = _as_covector(f)
    g = _as_covector(g)
    big_p = p + g
    coeff = (-1j * big_p) + (-f if primed else f)
    upper = _boosted_sum(boost.sigma_tilde_boosted_stack, coeff)
    lower = _boosted_sum(boost.sigma_boosted_stack, coeff)
    off = 1j * np.conj(complex(d)) if primed else -1j * complex(d)
    m = boosted_dirac_mass(d, primed)
    shell = np.sqrt(complex(np.dot(big_p[1:4], big_p[1:4])) + m * m)
    return chiral_blocks(upper, lower, off), (-g[0] + shell, -g[0] - shell)


# ---------------------------------------------------------------------------
# momentum identifications


def weyl_identification(f: Sequence[float], handed: str = "left") -> np.ndarray:
    """Momentum at which the (boosted) Weyl plane wave solves the system.

    Left: ``p_0 = -f_0, p_j = f_j``; right: signs flipped.
    """
    f = _as_covector(f)
    if _require_handed(handed) == "left":
        return np.array([-f[0], f[1], f[2], f[3]])
    return np.array([f[0], -f[1], -f[2], -f[3]])


def identified_problem(
    kind: str,
    f: Sequence[float],
    g: Sequence[float] = ZERO4,
    d: complex = 0j,
    boost: Optional[SpinBoost] = None,
) -> PlaneWaveProblem:
    """The ``kind`` problem at its identification momentum: Weyl kinds at
    ``weyl_identification(f, variant)``, Dirac kinds with ``P = p + g`` at
    ``(-f_0, f_j)`` (unprimed) or ``(f_0, -f_j)`` (primed)."""
    _, family, variant = _kind_parts(kind)
    if family == "weyl":
        p = weyl_identification(f, variant)
    else:
        handed = "right" if variant == "primed" else "left"
        p = weyl_identification(f, handed) - _as_covector(g)
    return PlaneWaveProblem(kind, tuple(p), tuple(f), tuple(g), d, boost)


def on_shell(
    kind: str,
    f_spatial: Sequence[float],
    sign: float = 1.0,
    g: Sequence[float] = ZERO4,
    mass: float = 0.0,
    boost: Optional[SpinBoost] = None,
) -> PlaneWaveProblem:
    """The identified ``kind`` problem with ``f_0 = sign * sqrt(|f|^2 + mass^2)``.

    Weyl kinds are massless.  Boosted Dirac kinds couple through
    ``d = mass * (i -+ 1)`` (unprimed/primed), which extracts the real mass;
    flat Dirac kinds through ``d = i * mass`` with ``g_0 = 0``.
    """
    boosted, family, variant = _kind_parts(kind)
    f_spatial = np.asarray(f_spatial, dtype=float)
    if family == "weyl":
        f = np.array([sign * np.linalg.norm(f_spatial), *f_spatial])
        return identified_problem(kind, f, boost=boost)
    f = np.array([sign * np.sqrt(np.dot(f_spatial, f_spatial) + mass**2), *f_spatial])
    g = np.array(g, dtype=float)
    if boosted:
        d = mass * ((1j + 1) if variant == "primed" else (1j - 1))
    else:
        d = 1j * mass
        g[0] = 0.0
    return identified_problem(kind, f, g, d, boost)


# ---------------------------------------------------------------------------
# boosted systems against their flat references


def _flat_reference(problem: PlaneWaveProblem, transported: bool) -> np.ndarray:
    """Flat system of a boosted kind at ``p`` (Weyl) or ``P = p + g`` (Dirac),
    carried to ``boost_covector(boost, .)`` when ``transported``."""
    boosted, family, variant = _kind_parts(problem.kind)
    if not boosted:
        raise ValueError(f"{problem.kind!r} has no boost to reduce or transport")
    momentum = _as_covector(problem.p)
    if family == "dirac":
        momentum = momentum + _as_covector(problem.g)
    if transported:
        momentum = boost_covector(problem.spin_boost, momentum)
    if family == "weyl":
        return minkowski_weyl_matrix(momentum, variant)
    mass = boosted_dirac_mass(problem.d, variant == "primed")
    return minkowski_dirac_matrix(momentum, mass)


def reduction_residual(problem: PlaneWaveProblem) -> float:
    """``max | system - (-(1+i)) * flat reference at p' |`` for a boosted
    problem at its identification momentum (:func:`identified_problem`)."""
    target = -(1 + 1j) * _flat_reference(problem, transported=True)
    return float(np.abs(problem._system()[0] - target).max())


def kernel_covariance(problem: PlaneWaveProblem) -> float:
    """Worst of ``|flat' v|`` and ``|flat (T v)|`` over the kernel vectors
    ``v`` of an on-shell boosted problem (:func:`on_shell`).

    ``flat'`` and ``flat`` are the flat references at the transported and
    the original momentum; the kernel transport ``T`` is ``Lambda_plus``
    (left), ``Lambda_minus`` (right) or ``boost.inverse`` (Dirac).  Raises
    on a flat kind or an empty kernel.
    """
    flat_prime = _flat_reference(problem, transported=True)
    flat = _flat_reference(problem, transported=False)
    boost = problem.spin_boost
    transport = {"left": boost.lambda_plus, "right": boost.lambda_minus}.get(
        _kind_parts(problem.kind)[2], boost.inverse
    )
    kernel = problem.solve().kernel
    if not kernel:
        raise ValueError("on-shell boosted system has empty kernel")
    worst = 0.0
    for v in kernel:
        worst = max(worst, float(np.abs(flat_prime @ v).max()))
        worst = max(worst, float(np.abs(flat @ (transport @ v)).max()))
    return worst


# ---------------------------------------------------------------------------
# problem wrapper


FLAT_KINDS = ("weyl-left", "weyl-right", "dirac", "dirac-primed")
BOOSTED_KINDS = tuple("boosted-" + kind for kind in FLAT_KINDS)
PROBLEM_KINDS = FLAT_KINDS + BOOSTED_KINDS


def _kind_parts(kind: str) -> tuple[bool, str, str]:
    """``(boosted, family, variant)``, e.g. ``(True, "weyl", "right")``.

    The family is ``weyl`` (variant ``left``/``right``) or ``dirac``
    (variant ``""``/``primed``).
    """
    flat = kind.removeprefix("boosted-")
    family, _, variant = flat.partition("-")
    return flat != kind, family, variant


_KIND_PARTS = {kind: _kind_parts(kind) for kind in PROBLEM_KINDS}


@dataclass(frozen=True)
class PlaneWaveProblem:
    """Constant-coefficient plane-wave problem, dispatched by ``kind``.

    Unboosted kinds ignore ``boost``; Weyl kinds ignore ``g`` and ``d``;
    the unboosted Dirac kinds use only the spatial part of ``g``.
    """

    kind: str
    p: tuple = ZERO4
    f: tuple = ZERO4
    g: tuple = ZERO4
    d: complex = 0j
    boost: Optional[SpinBoost] = None

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(f"unknown system kind {self.kind!r}")

    @property
    def spin_boost(self) -> SpinBoost:
        """``boost``, or the identity when none is given."""
        return self.boost if self.boost is not None else IDENTITY_BOOST

    def solve(self) -> DispersionResult:
        """The system factored by one LU (the determinant) and one SVD."""
        matrix, roots = self._system()
        determinant = np.linalg.det(matrix)
        _, s, vh = np.linalg.svd(matrix)
        return _factored(self.kind, matrix, roots, determinant, s, vh)

    def _system(self) -> tuple[np.ndarray, tuple]:
        """``(matrix, roots)``, built but not factored."""
        boosted, family, variant = _KIND_PARTS[self.kind]
        boost = self.spin_boost
        if family == "weyl" and boosted:
            return _boosted_weyl(boost, self.f, self.p, variant)
        if family == "weyl":
            return _weyl(self.f[0], self.p, variant)
        primed = variant == "primed"
        if boosted:
            return _boosted_dirac(boost, self.f, self.g, self.d, self.p, primed)
        return _dirac(self.f[0], self.g[1:4], self.d, self.p, primed)


# ---------------------------------------------------------------------------
# determinant-kernel duality sweeps


def random_problem(rng, kind: str, max_half_rapidity: float = 1.0) -> PlaneWaveProblem:
    """Generic (off-shell) draw: redraws until comfortably nonsingular."""
    for _ in range(100):
        problem = _random_draw(rng, kind, max_half_rapidity)
        if problem.solve().singular_values[-1] > GENERIC_MIN_SINGULAR:
            return problem
    raise RuntimeError("could not draw a generic off-shell sample")


def _random_draw(rng, kind: str, max_half_rapidity: float) -> PlaneWaveProblem:
    """One generic draw, before its nonsingularity test."""
    return PlaneWaveProblem(
        kind=kind,
        p=tuple(rng.normal(size=4)),
        f=tuple(rng.normal(size=4)),
        g=tuple(rng.normal(size=4)),
        d=complex(rng.normal(), rng.normal()),
        boost=_random_boost(rng, max_half_rapidity) if kind in BOOSTED_KINDS else None,
    )


def on_shell_problem(rng, kind: str, max_half_rapidity: float = 1.0) -> PlaneWaveProblem:
    """Constructed singular draw: identification momentum on the mass shell."""
    boosted, family, _ = _kind_parts(kind)
    boost = _random_boost(rng, max_half_rapidity) if boosted else None
    f_spatial = rng.normal(size=3)
    sign = (-1.0, 1.0)[rng.integers(0, 2)]
    if family == "weyl":
        return on_shell(kind, f_spatial, sign, boost=boost)
    mass = abs(rng.normal()) + 0.1
    return on_shell(kind, f_spatial, sign, rng.normal(size=4), mass, boost)


def _random_boost(rng, max_half_rapidity: float = 1.0) -> SpinBoost:
    axis = rng.normal(0.0, 1.0, 3)
    axis = axis / math.sqrt(axis.dot(axis))
    return SpinBoost(half_rapidity=draw_rapidity(rng, max_half_rapidity), axis=tuple(axis))


#: Probability that a sweep sample is constructed on shell.
_ON_SHELL_SHARE = 0.3


def _sample(rng, kind: str, max_half_rapidity: float) -> tuple[PlaneWaveProblem, bool]:
    """One sweep sample and whether it is generic: the on-shell coin, then
    :func:`on_shell_problem` or one :func:`_random_draw`."""
    on_shell_draw = rng.uniform() < _ON_SHELL_SHARE
    draw = on_shell_problem if on_shell_draw else _random_draw
    return draw(rng, kind, max_half_rapidity), not on_shell_draw


def duality_sweep(rng, kind: str, n_samples: int = 1000, max_half_rapidity: float = 1.0) -> dict:
    """Check `kernel nonempty <=> |det| <= 1e-10` over a random parameter sweep.

    About 30 % of the samples are constructed on shell.  The samples still
    missing are drawn as a batch (:func:`_sample`), their boosts' blocks are
    filled by one broadcast (:meth:`SpinBoost.fill_blocks`), and the systems
    are factored by one stacked ``det`` and one stacked ``svd``; both give
    the bits, matrix by matrix, of single calls.  The batch keeps the
    samples before its first generic draw that fails the nonsingularity
    test; the generator goes back to the batch start, replays the kept draws
    and that sample's coin, and :func:`random_problem` draws the sample
    again, so every sample comes from the stream of a one-at-a-time loop.  A
    new batch takes the rest.
    Returns counters plus the worst determinant/kernel residuals seen on
    each side of the dichotomy.
    """
    results = []
    while len(results) < n_samples:
        start = rng.bit_generator.state
        draws = [_sample(rng, kind, max_half_rapidity) for _ in range(n_samples - len(results))]
        SpinBoost.fill_blocks([p.boost for p, _ in draws if p.boost is not None])
        systems = [problem._system() for problem, _ in draws]
        matrices = np.stack([matrix for matrix, _ in systems])
        determinants = np.linalg.det(matrices)
        _, s, vh = np.linalg.svd(matrices)
        passed = s[:, -1] > GENERIC_MIN_SINGULAR
        failed = (i for i, (_, generic) in enumerate(draws) if generic and not passed[i])
        kept = next(failed, len(draws))
        results += [
            _factored(draws[i][0].kind, *systems[i], determinants[i], s[i], vh[i])
            for i in range(kept)
        ]
        if kept < len(draws):
            rng.bit_generator.state = start
            for _ in range(kept):
                _sample(rng, kind, max_half_rapidity)
            rng.uniform()
            results.append(random_problem(rng, kind, max_half_rapidity).solve())
    violations = 0
    singular_count = 0
    min_generic_det = np.inf
    max_singular_det = 0.0
    worst_kernel_residual = 0.0
    for result in results:
        small_det = abs(result.determinant) <= 1e-10
        if result.singular != small_det:
            violations += 1
        if result.singular:
            singular_count += 1
            max_singular_det = max(max_singular_det, abs(result.determinant))
            for v in result.kernel:
                residual = float(np.abs(result.matrix @ v).max())
                worst_kernel_residual = max(worst_kernel_residual, residual)
        else:
            min_generic_det = min(min_generic_det, abs(result.determinant))
    return {
        "kind": kind,
        "samples": n_samples,
        "singular": singular_count,
        "violations": violations,
        "min_generic_det": float(min_generic_det),
        "max_singular_det": float(max_singular_det),
        "worst_kernel_residual": worst_kernel_residual,
    }


# ---------------------------------------------------------------------------
# Euler-Lagrange consistency with the action densities


def _plane_wave_symbol(op: FieldOperator, p: Sequence[float]) -> np.ndarray:
    """Symbol of a constant-coefficient operator: ``d_mu -> -i p_mu``."""
    if op.antilinear:
        raise ValueError("plane-wave symbols are defined for linear operators")
    p = _as_covector(p)
    out = np.zeros((op.fiber_dim, op.fiber_dim), dtype=complex)
    for (mode, derivs), matrix in op.terms.items():
        if mode != ZERO_MODE:
            raise ValueError("plane-wave symbols need constant coefficients")
        factor = 1.0 + 0j
        for mu in derivs:
            factor *= -1j * p[mu]
        out = out + factor * np.asarray(matrix, dtype=complex)
    return out


_S2 = PAULI[1]

#: Euler-Lagrange kinds and the length of the spinor each acts on.
EL_KINDS = {
    "weyl-left": 2,
    "weyl-right": 2,
    "dirac": 4,
    "dirac-primed": 4,
    "boosted-weyl": 4,
    "minkowski": 4,
}


def euler_lagrange_check(
    kind: str,
    psi: Sequence[complex],
    p: Sequence[float],
    f: Sequence[float] = ZERO4,
    g: Sequence[float] = ZERO4,
    d: complex = 0j,
    boost: Optional[SpinBoost] = None,
    mass: float = 0.0,
) -> float:
    """Residual between action stationarity and the system matrix, on ``psi``.

    The left-hand side is the plane-wave symbol of the exact density
    operators used by the closed-form action integrands (no re-derivation);
    the right-hand side is the corresponding system matrix times a frozen
    proportionality constant:

    * ``weyl-left``: ``s2-stripped symbol == i * system(p)``;
    * ``weyl-right``: same density, ``i * system`` at reflected spatial
      momentum (the one density carries both chirality readings);
    * ``dirac`` / ``dirac-primed``: block matrix with mass ``-i d`` equals
      ``-1 *`` the system;
    * ``boosted-weyl``: the two boosted densities equal the two boosted
      systems directly (block diagonal over chiralities, ``psi`` length 4);
    * ``minkowski``: the flat massive block system decomposes into the two
      flat Weyl matrices plus the mass coupling (``mass`` parameter).
    """
    p = _as_covector(p)
    psi = np.asarray(psi, dtype=complex)
    if kind in ("weyl-left", "weyl-right"):
        op = covariant_weyl_density_operators(
            FourierScalar.constant(f[0]), [FourierScalar.zero()] * 4
        )[0]
        el = _S2 @ _plane_wave_symbol(op, p)
        handed = _kind_parts(kind)[2]
        q = p if handed == "left" else np.array([p[0], -p[1], -p[2], -p[3]])
        system = 1j * PlaneWaveProblem(kind, tuple(q), (f[0], 0.0, 0.0, 0.0))._system()[0]
    elif kind in ("dirac", "dirac-primed"):
        primed = kind == "dirac-primed"
        g_scalars = [FourierScalar.constant(component) for component in g]
        op_minus, op_plus = covariant_weyl_density_operators(
            FourierScalar.constant(f[0]), g_scalars
        )
        if primed:
            op_minus, op_plus = op_plus, op_minus
        el = chiral_blocks(
            1j * (_S2 @ _plane_wave_symbol(op_minus, p)),
            1j * (_S2 @ _plane_wave_symbol(op_plus, p)),
            -1j * complex(d),
        )
        system = -1.0 * PlaneWaveProblem(kind, tuple(p), tuple(f), tuple(g), d)._system()[0]
    elif kind == "boosted-weyl":
        boost = boost if boost is not None else IDENTITY_BOOST
        f_scalars = [FourierScalar.constant(component) for component in f]
        op_left, op_right = boosted_weyl_density_operators(
            f_scalars, boost, [FourierScalar.zero()] * 4
        )
        el = chiral_blocks(_plane_wave_symbol(op_left, p), _plane_wave_symbol(op_right, p))
        system = chiral_blocks(
            *(
                PlaneWaveProblem(weyl, tuple(p), tuple(f), boost=boost)._system()[0]
                for weyl in BOOSTED_KINDS[:2]
            )
        )
    elif kind == "minkowski":
        el = minkowski_dirac_matrix(p, mass)
        system = chiral_blocks(
            minkowski_weyl_matrix(p, "left"), minkowski_weyl_matrix(p, "right"), -mass
        )
    else:
        raise ValueError(f"unknown Euler-Lagrange kind {kind!r}")
    if psi.shape != (el.shape[0],):
        raise ValueError(f"psi must have length {el.shape[0]} for kind {kind!r}")
    return float(np.abs((el - system) @ psi).max())
