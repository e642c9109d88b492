"""Seeded verification registry behind the command-line runner.

A check is a generator of residuals, registered where it is defined::

    @check("group.name", tolerance, "the paper's claim", cost=milliseconds)
    def _chk_name(rng, cfg):
        ...
        yield residual

It draws from a dedicated random stream and reads the run configuration,
and yields the absolute defects it measures, each of which should sit at
machine epsilon: ``close(a, b)`` for a two-sided claim ``a == b``,
a bare modulus for a one-sided claim that something vanishes, and
:func:`_fail_unless` for a predicate.  The plane-wave probe route keeps its
own :func:`operator_equal`.  A check that draws boosts declares it with
``@check(..., needs_boost=True)``; at a zero rapidity cap the runner records
it as a ``skip`` without calling it.  No other check is ever skipped: one
that yields nothing fails.  Streams are spawned from the root seed by
registry position, which is definition order, so filtering by group never
changes what any individual check draws.

One reduction, :func:`reduce_residuals`, turns the residuals into the
record's error: their maximum, which propagates NaN.  Two reporting
conventions keep the JSON strict and reproducible:

* boolean predicate failures, skipped checks, checks that yield nothing and
  NaN or infinite errors report ``SENTINEL_ERROR`` instead of
  ``inf``/``nan``, preserving both
  serializability and the rule that a record passes exactly when
  ``max_abs_error <= tolerance``;
* ``elapsed_ms`` in the JSON document is always ``0.0`` - wall-clock noise
  would break byte-level reproducibility - while the real per-check timing
  is kept on the in-memory records for the human-readable summary.

:func:`run_checks` splits the selected checks into ``k`` shares, with
``k`` the smaller of the CPUs in the affinity mask and the number of
selected checks.  Each check declares a static ``cost``, its serial time in
milliseconds frozen from a profile (medians over seeds 3000-3011 on a
2-CPU x86_64 machine, Python 3.11, numpy 2.4; only their ratios matter, and
nothing is timed to plan a run).  The checks go longest first, ties in
registry order, each to the share with the least cost so far, and each
share runs in registry order.  The calling process runs share 0, and
``k - 1`` workers forked inside the call run the others and pickle their
records back over one pipe each.  ``k`` is 1, the serial run through the
same loop, while a profiler, coverage tool or debugger watches the
process, so that it sees every check.  Records carry the time a check
took in its own process.  Each check keeps its stream and its
configuration, so the report is the same for every ``k``.
"""

from __future__ import annotations

import inspect
import json
import os
import pickle
import signal
import sys
import time
import traceback
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .actions import (
    boosted_electro_lagrangian_action,
    boosted_manifold_lagrangian_action,
    boosted_pairing,
    electro_lagrangian_action,
    electro_operator_pieces,
    fermionic_action,
    fermionic_action_quadratic,
    grassmann_inner,
    manifold_lagrangian_action,
    overlapping_action_inputs,
    promote_weyl_fields,
    random_weyl_fields,
    twisted_pairing,
    unit_weyl_fields,
    untwisted_pairing,
    weyl_derivative_form,
    weyl_potential_form,
)
from .clifford import (
    ETA,
    GAMMA,
    GAMMA5,
    GAMMA_M,
    PAULI,
    SIGMA,
    SIGMA_M,
    SIGMA_M_BAR,
    SIGMA_TILDE,
    IDENTITY_BOOST,
    MAX_RAPIDITY,
    SpinBoost,
    anticommutator,
    boost_covector,
    draw_rapidity,
    lorentz_matrix,
    twist_gamma,
)
from .dynamics import (
    BOOSTED_KINDS,
    EL_KINDS,
    FLAT_KINDS,
    PROBLEM_KINDS,
    PlaneWaveProblem,
    duality_sweep,
    euler_lagrange_check,
    identified_problem,
    kernel_covariance,
    on_shell,
    on_shell_problem,
    reduction_residual,
)
from .geometries import (
    DoubledGeometry,
    ElectrodynamicsGeometry,
    ManifoldGeometry,
    chiral_vector_operator,
    random_element,
    selfadjoint_defect_parameters,
    wave_phase,
)
from .grassmann import (
    GrassmannNumber,
    antisymmetric_pair_form,
    pair_coefficient_matrix,
)
from .operator_algebra import (
    MAX_MODE_CUTOFF,
    MAX_PROBE_CUTOFF,
    FieldOperator,
    function_matrix_sum,
    normal_form_distance,
    operator_equal,
)
from .torus_fields import (
    FourierScalar,
    Section,
    random_scalar,
    random_section,
)

GROUPS = (
    "clifford",
    "axioms",
    "manifold",
    "doubled",
    "electrodynamics",
    "gauge",
    "actions",
    "boost",
    "dynamics",
)

#: Reported in place of inf/nan so the JSON stays strict while keeping
#: ``status == "pass"  <=>  max_abs_error <= tolerance`` true for every record.
SENTINEL_ERROR = 9.9e99

_S2 = PAULI[1]
_I2 = np.eye(2)


# ---------------------------------------------------------------------------
# run configuration, records and registration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """Knobs shared by every check; tolerances may be overridden per group."""

    seed: int = 0
    mode_cutoff: int = 2
    probe_cutoff: int = 3
    rapidity_max: float = 2.0
    groups: tuple[str, ...] = GROUPS
    tolerances: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        self.seed = int(self.seed)
        self.mode_cutoff = int(self.mode_cutoff)
        self.probe_cutoff = int(self.probe_cutoff)
        self.rapidity_max = float(self.rapidity_max)
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 1 <= self.mode_cutoff <= MAX_MODE_CUTOFF:
            raise ValueError(f"mode_cutoff must be between 1 and {MAX_MODE_CUTOFF}")
        if not 1 <= self.probe_cutoff <= MAX_PROBE_CUTOFF:
            raise ValueError(f"probe_cutoff must be between 1 and {MAX_PROBE_CUTOFF}")
        if not (np.isfinite(self.rapidity_max) and self.rapidity_max >= 0):
            raise ValueError("rapidity_max must be finite and non-negative")
        if self.rapidity_max > MAX_RAPIDITY:
            raise ValueError(f"rapidity_max must be at most {MAX_RAPIDITY}")
        self.groups = tuple(dict.fromkeys(self.groups))
        if not self.groups:
            raise ValueError("no check groups selected")
        unknown = [g for g in self.groups if g not in GROUPS]
        if unknown:
            raise ValueError(f"unknown check groups: {', '.join(sorted(unknown))}")
        for key, value in self.tolerances.items():
            if key not in GROUPS:
                raise ValueError(f"tolerance override for unknown group {key!r}")
            if not (np.isfinite(float(value)) and float(value) > 0):
                raise ValueError(
                    f"tolerance for group {key!r} must be finite and positive"
                )
        self.tolerances = {key: float(value) for key, value in self.tolerances.items()}


@dataclass(frozen=True)
class CheckRecord:
    """One verification outcome; ``seed`` is the root seed of the run."""

    check_id: str
    paper_ref: str
    status: str
    max_abs_error: float
    tolerance: float
    seed: int
    elapsed_ms: float


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    paper_ref: str
    tolerance: float
    fn: Callable
    needs_boost: bool = False
    #: Serial milliseconds, the runner's static weight (:func:`_plan_shares`).
    cost: float = 1.0

    @property
    def group(self) -> str:
        """The check id's prefix, ``"boost"`` for ``"boost.action_invariance"``."""
        return self.check_id.partition(".")[0]

    def gate(self, cfg: RunConfig) -> float:
        """The tolerance under ``cfg``: the group's override, else the registered one."""
        return cfg.tolerances.get(self.group, self.tolerance)


# Definition order is registry order, and registry order is stream order.
REGISTRY: tuple[CheckSpec, ...] = ()


def check(
    check_id: str, tolerance: float, paper_ref: str, *, cost: float, needs_boost: bool = False
):
    """Register the decorated generator of residuals as check ``check_id``;
    ``cost`` is its serial time in milliseconds, frozen from a profile, and
    ``needs_boost`` declares that it draws boosts (a zero cap skips it).  It
    yields ``close(a, b)`` per two-sided claim, a bare modulus per one-sided
    zero claim, ``_fail_unless`` per predicate and ``operator_equal``'s error
    on the probe route."""

    def register(fn):
        global REGISTRY
        if any(spec.check_id == check_id for spec in REGISTRY):
            raise ValueError(f"duplicate check id {check_id!r}")
        if not inspect.isgeneratorfunction(fn):
            raise TypeError(f"check {check_id!r} must be a generator of residuals")
        if not (np.isfinite(cost) and cost > 0):
            raise ValueError(f"check {check_id!r} must declare a positive cost")
        REGISTRY += (CheckSpec(check_id, paper_ref, tolerance, fn, needs_boost, cost),)
        return fn

    return register


def reduce_residuals(residuals: Iterable[float]) -> float:
    """A check's error: its largest residual.

    The maximum propagates NaN; no residual at all, a NaN or infinite maximum
    (and anything past the sentinel) reports ``SENTINEL_ERROR``.
    """
    error = float(np.max(list(residuals), initial=-np.inf))
    return min(error, SENTINEL_ERROR) if np.isfinite(error) else SENTINEL_ERROR


def close(a, b) -> float:
    """The residual of the claim ``a == b``: the largest modulus in ``a - b``,
    NaN if any is NaN; for operators the normal-form distance, which also
    compares a linear with an antilinear operand."""
    if isinstance(a, FieldOperator):
        return normal_form_distance(a, b)
    if isinstance(a, (FourierScalar, Section)):
        return (a - b).max_abs()
    if isinstance(a, np.ndarray):
        return np.abs(a - b).max()
    return abs(a - b)


# ---------------------------------------------------------------------------
# shared draw helpers
# ---------------------------------------------------------------------------


def _fail_unless(condition: bool) -> float:
    return 0.0 if condition else SENTINEL_ERROR


def _closed_form_residuals(geo, pro, f, g, boost=None):
    """Yield the dressed action's residuals on promoted ``pro``; return its value.

    The residuals are the engine's distance to the geometry's closed density
    and to the quadratic route, and the sentinel when the engine value vanishes.
    """
    op = geo.dressed_dirac(f, g)
    eng = fermionic_action(geo, op, pro, boost=boost)
    lag = geo.closed_form_action(pro.fields, f, g, boost)
    quad = fermionic_action_quadratic(geo, op, pro, boost=boost)
    yield close(eng, lag)
    yield close(eng, quad)
    yield _fail_unless(abs(eng) > 1e-6)
    return eng


def _boosted_closed_form_residuals(rng, cfg, make_geo):
    """Two rounds of :func:`_closed_form_residuals` under a boost; each round
    draws the boost, then the geometry ``make_geo(rng)``, then its inputs."""
    for _ in range(2):
        boost = _draw_boost(rng, cfg)
        geo = make_geo(rng)
        w, f, g = overlapping_action_inputs(
            rng, geo.n_weyl_fields, cutoff=cfg.mode_cutoff
        )
        yield from _closed_form_residuals(geo, promote_weyl_fields(w), f, g, boost)


def _random_one_form(rng, geo, cutoff: int):
    """One product of two random elements: 2 x ``geo.n_slots`` x 2 scalars."""
    a, b = (random_element(rng, geo.n_slots, cutoff=cutoff) for _ in range(2))
    return geo.one_form([(a, b)])


def _random_mode(rng, r: int) -> tuple[int, ...]:
    """A Fourier mode with integer components in [-r, r]: 4 integers."""
    return tuple(rng.integers(-r, r + 1, size=4).tolist())


def _electro_geometry(rng):
    """The four-sector space; its mass parameter costs two normals."""
    return ElectrodynamicsGeometry(complex(rng.standard_normal(), rng.standard_normal()))


def _geometries(rng):
    """The three spaces, drawing the four-sector mass parameter."""
    return (ManifoldGeometry(), DoubledGeometry(), _electro_geometry(rng))


def _draw_boost(rng, cfg: RunConfig) -> SpinBoost:
    """One boost: full rapidity drawn by ``draw_rapidity`` up to
    ``rapidity_max``, random axis."""
    rapidity = draw_rapidity(rng, cfg.rapidity_max)
    axis = rng.standard_normal(3)
    while np.linalg.norm(axis) < 1e-3:
        axis = rng.standard_normal(3)
    return SpinBoost(0.5 * rapidity, tuple(axis))


def _half_cap(cfg: RunConfig) -> float:
    return min(1.0, 0.5 * cfg.rapidity_max)


# ---------------------------------------------------------------------------
# clifford group
# ---------------------------------------------------------------------------


@check(
    "clifford.euclidean_anticommutators",
    1e-14,
    "gamma matrices pair to twice the Kronecker delta; the grading twist flips the "
    "spatial ones",
    cost=0.2,
)
def _chk_euclidean_anticommutators(rng, cfg):
    """Euclidean gamma table, chirality element, grading twist.  Draws: none."""
    eye = np.eye(4)
    for mu in range(4):
        for nu in range(mu, 4):
            yield close(anticommutator(GAMMA[mu], GAMMA[nu]), 2.0 * (mu == nu) * eye)
        yield close(GAMMA5 @ GAMMA[mu], -(GAMMA[mu] @ GAMMA5))
    yield close(GAMMA5 @ GAMMA5, eye)
    yield close(GAMMA5, GAMMA5.conj().T)
    yield close(twist_gamma(0), GAMMA[0])
    for j in (1, 2, 3):
        yield close(twist_gamma(j), -GAMMA[j])


@check(
    "clifford.minkowski_anticommutators",
    1e-14,
    "flat-metric gamma matrices pair to twice the metric",
    cost=0.11,
)
def _chk_minkowski_anticommutators(rng, cfg):
    """Flat-metric gamma table; shared time component.  Draws: none."""
    eye = np.eye(4)
    for mu in range(4):
        for nu in range(mu, 4):
            yield close(anticommutator(GAMMA_M[mu], GAMMA_M[nu]), 2.0 * ETA[mu, nu] * eye)
    yield close(GAMMA_M[0], GAMMA[0])


@check(
    "clifford.sigma_pair_identities",
    1e-14,
    "two-by-two sigma blocks assemble the gammas and trace to the metric",
    cost=0.73,
)
def _chk_sigma_pair_identities(rng, cfg):
    """Two-by-two blocks assemble the gammas and pair into the metric.

    Draws: none.
    """
    zero2 = np.zeros((2, 2))
    for mu in range(4):
        for nu in range(4):
            de = 2.0 * (mu == nu) * _I2
            dm = 2.0 * ETA[mu, nu] * _I2
            yield close(SIGMA[mu] @ SIGMA_TILDE[nu] + SIGMA[nu] @ SIGMA_TILDE[mu], de)
            yield close(SIGMA_TILDE[mu] @ SIGMA[nu] + SIGMA_TILDE[nu] @ SIGMA[mu], de)
            yield close(SIGMA_M[mu] @ SIGMA_M_BAR[nu] + SIGMA_M[nu] @ SIGMA_M_BAR[mu], dm)
            yield close(np.trace(SIGMA_M[mu] @ SIGMA_M_BAR[nu]), 2.0 * ETA[mu, nu])
        block = np.block([[zero2, SIGMA[mu]], [SIGMA_TILDE[mu], zero2]])
        yield close(GAMMA[mu], block)
        block_m = np.block([[zero2, SIGMA_M[mu]], [SIGMA_M_BAR[mu], zero2]])
        yield close(GAMMA_M[mu], block_m)


@check(
    "clifford.spin_boost_structure",
    1e-12,
    "self-adjoint non-unitary spin boosts with mutually inverse half-blocks swapped "
    "by conjugation",
    needs_boost=True,
    cost=0.72,
)
def _chk_spin_boost_structure(rng, cfg):
    """Boost half-blocks: mutual inverses, self-adjoint, non-unitary, the
    grading twist inverts them and conjugation swaps them.

    Draws: 6 boosts x (1 uniform + 3 normals).
    """
    eye4 = np.eye(4)
    for _ in range(6):
        b = _draw_boost(rng, cfg)
        lp, lm = b.lambda_plus, b.lambda_minus
        yield close(lp @ lm, _I2)
        yield close(lp, lp.conj().T)
        yield close(lm, lm.conj().T)
        yield close(np.linalg.det(lp), 1.0)
        s = b.matrix
        zero2 = np.zeros((2, 2))
        yield close(s, np.block([[lm, zero2], [zero2, lp]]))
        yield close(s, s.conj().T)
        yield close(GAMMA[0] @ s @ GAMMA[0], b.inverse)
        yield close(_S2 @ np.conj(lp) @ _S2, lm)
        yield _fail_unless(np.abs(s.conj().T @ s - eye4).max() > 1e-6)


@check(
    "clifford.lorentz_extraction_routes",
    1e-12,
    "vector boost matrix from the spinor one: trace route, sigma decomposition, "
    "metric preservation, rapidity additivity",
    needs_boost=True,
    cost=2.3,
)
def _chk_lorentz_extraction_routes(rng, cfg):
    """Vector matrix from the spin boost: independent trace extraction,
    sigma-block decomposition, metric preservation, additivity, covectors.

    Draws: 4 boosts x (1 uniform + 3 normals) + 2 half-rapidity uniforms +
    3 probe covectors x 4 normals.
    """
    for _ in range(4):
        b = _draw_boost(rng, cfg)
        lam = lorentz_matrix(b)
        yield close(lam @ ETA @ lam.T, ETA)
        yield close(lam.T @ ETA @ lam, ETA)
        yield close(np.linalg.det(lam), 1.0)
        yield _fail_unless(lam[0, 0] >= 1.0 - 1e-12)
        trace_route = np.zeros((4, 4), dtype=complex)
        for mu in range(4):
            phase = 1.0 if mu == 0 else 1j
            x = phase * b.sigma_tilde_boosted(mu)
            y = phase * b.sigma_boosted(mu)
            for a in range(4):
                trace_route[mu, a] = np.trace(SIGMA_M[a] @ x) / (2.0 * ETA[a, a])
            yield close(x, sum(lam[mu, nu] * SIGMA_M_BAR[nu] for nu in range(4)))
            yield close(y, sum(lam[mu, nu] * SIGMA_M[nu] for nu in range(4)))
        yield close(trace_route, lam)
        for _ in range(3):
            p = rng.standard_normal(4)
            yield close(boost_covector(b, p), lam.T @ p)
    axis = tuple(rng.standard_normal(3))
    h1, h2 = rng.uniform(0.05, 0.5, size=2)
    composed = lorentz_matrix(SpinBoost(h1, axis)) @ lorentz_matrix(SpinBoost(h2, axis))
    yield close(lorentz_matrix(SpinBoost(h1 + h2, axis)), composed)


# ---------------------------------------------------------------------------
# axioms group
# ---------------------------------------------------------------------------


@check(
    "axioms.ko_signs",
    1e-12,
    "conjugation squares to minus one, commutes with the operator, carries the "
    "per-geometry grading sign, anticommutes with the twist unitary",
    cost=1.5,
)
def _chk_ko_signs(rng, cfg):
    """Sign table of the real structure against each geometry's data table,
    plus the unitary self-adjoint involution implementing the twist.

    Draws: 2 normals (mass).
    """
    for geo in _geometries(rng):
        j = geo.real_structure
        dim = geo.fiber_dim
        # J's entries are +-i and R's 0 or 1, so reading one part of each
        # entry, real or imaginary, misses the peak of one of the two
        yield _fail_unless(j.max_abs() == 1.0)
        yield close(j @ j, FieldOperator.identity(dim).scale(-1.0))
        yield close(j @ geo.dirac, geo.dirac @ j)
        g = FieldOperator.from_matrix(geo.grading_matrix)
        sign = geo.ko_signs[2]
        yield close(j @ g, (g @ j).scale(sign))
        r = geo.r_operator
        yield _fail_unless(r.max_abs() == 1.0)
        yield close(j @ r, (r @ j).scale(-1.0))
        rm = geo.r_matrix
        yield close(rm @ rm, np.eye(dim))
        yield close(rm, rm.conj().T)


@check(
    "axioms.rho_adjoint_involution",
    1e-10,
    "the flip is conjugation by the twist unitary and its adjoint is involutive, also "
    "through the twisted product",
    cost=31.0,
)
def _chk_rho_adjoint_involution(rng, cfg):
    """The flip is conjugation by the involution, squares to the identity,
    and its adjoint moves through the twisted product.

    Draws: 2 normals + per geometry 3 rounds x (3 elements + 2 sections).
    """
    for geo in _geometries(rng):
        for _ in range(3):
            a = random_element(rng, geo.n_slots, cutoff=cfg.mode_cutoff)
            yield close(geo.twist(geo.represent(a)), geo.represent(a.flip()))
            om = _random_one_form(rng, geo, cfg.mode_cutoff)
            yield close(geo.twist(geo.twist(om)), om)
            plus = geo.twist(om).adjoint()
            yield close(geo.twist(plus).adjoint(), om)
            phi = random_section(rng, geo.fiber_dim, cutoff=1, n_modes=3)
            xi = random_section(rng, geo.fiber_dim, cutoff=1, n_modes=3)
            lhs = phi.inner(geo.r_operator.apply(om.apply(xi)))
            rhs = plus.apply(phi).inner(geo.r_operator.apply(xi))
            yield close(lhs, rhs)


@check(
    "axioms.grading_relations",
    1e-12,
    "grading is a self-adjoint involution and odd for the operator",
    cost=0.93,
)
def _chk_grading_relations(rng, cfg):
    """Grading squares to one, is self-adjoint and anticommutes with the
    operator; :func:`_chk_full_axiom_suite` checks that it is even for the
    algebra.

    Draws: 2 normals (mass).
    """
    for geo in _geometries(rng):
        g = geo.grading_matrix
        yield close(g @ g, np.eye(geo.fiber_dim))
        yield close(g, g.conj().T)
        g_op = FieldOperator.from_matrix(g)
        yield close(g_op @ geo.dirac, (geo.dirac @ g_op).scale(-1.0))


@check(
    "axioms.full_axiom_suite",
    1e-12,
    "star homomorphism, evenness, and both order conditions at volume",
    cost=110.0,
)
def _chk_full_axiom_suite(rng, cfg):
    """Volume battery and the one home of the algebra claims: homomorphism,
    star, evenness, order zero (the represented algebra commutes with its
    conjugated copy) and the twisted first-order condition (twisted
    commutators commute with the conjugated algebra up to the twist).

    Draws: 2 normals + 32 rounds (11 + 11 + 10 across the geometries) x 2
    elements each.
    """
    for geo, rounds in zip(_geometries(rng), (11, 11, 10)):
        g_op = FieldOperator.from_matrix(geo.grading_matrix)
        for _ in range(rounds):
            a = random_element(rng, geo.n_slots, cutoff=cfg.mode_cutoff)
            b = random_element(rng, geo.n_slots, cutoff=cfg.mode_cutoff)
            pa, pb = geo.represent(a), geo.represent(b)
            yield close(geo.represent(a * b), pa @ pb)
            yield close(geo.represent(a.star()), pa.adjoint())
            yield close(g_op @ pa, pa @ g_op)
            opp = geo.real_conjugate(pb)
            yield close(pa @ opp, opp @ pa)
            t = geo.twisted_commutator(a)
            yield close(t @ opp, geo.twist(opp) @ t)


@check(
    "axioms.fluctuation_round_trip",
    1e-12,
    "potential extraction inverts fluctuation assembly on every geometry",
    cost=33.0,
)
def _chk_fluctuation_round_trip(rng, cfg):
    """Potential extraction inverts assembly on every geometry.

    Draws: 2 normals + 2 manifold one-form pairs + per sectored geometry
    (2 one-form pairs + 8 real scalars).
    """
    man, dbl, elec = _geometries(rng)
    for _ in range(2):
        om = _random_one_form(rng, man, cfg.mode_cutoff)
        h, hp = man.one_form_parameters(om)
        rebuilt = man.one_form_from_parameters(h, hp)
        yield operator_equal(om, rebuilt, probe_cutoff=cfg.probe_cutoff).max_abs_error
    for geo in (dbl, elec):
        for _ in range(2):
            fl = geo.fluctuation(_random_one_form(rng, geo, cfg.mode_cutoff))
            z, zp = geo.fluctuation_parameters(fl)
            rebuilt = geo.fluctuation_from_z(z, zp)
            cmp_res = operator_equal(fl, rebuilt, probe_cutoff=cfg.probe_cutoff)
            yield cmp_res.max_abs_error
        f = [random_scalar(rng, real=True) for _ in range(4)]
        g = [random_scalar(rng, real=True) for _ in range(4)]
        f2, g2 = geo.vector_potentials(geo.selfadjoint_fluctuation(f, g))
        for mu in range(4):
            yield close(f2[mu], f[mu])
            yield close(g2[mu], g[mu])


# ---------------------------------------------------------------------------
# manifold group
# ---------------------------------------------------------------------------


@check(
    "manifold.integration_by_parts",
    1e-12,
    "total derivatives integrate away and the flat operator is symmetric",
    cost=1.1,
)
def _chk_integration_by_parts(rng, cfg):
    """Total derivatives integrate away; the flat operator is symmetric.

    Draws: 3 rounds x (2 scalars + 2 fiber-4 sections).
    """
    man = ManifoldGeometry()
    yield close(man.dirac, man.dirac.adjoint())
    for _ in range(3):
        f = random_scalar(rng, cutoff=cfg.mode_cutoff)
        g = random_scalar(rng, cutoff=cfg.mode_cutoff)
        for mu in range(4):
            yield abs((f * g).derivative(mu).integral())
        u = random_section(rng, 4, cutoff=1)
        v = random_section(rng, 4, cutoff=1)
        yield close(man.dirac.apply(u).inner(v), u.inner(man.dirac.apply(v)))


@check(
    "manifold.multiply_algebra",
    1e-12,
    "commutative associative function product with Leibniz derivative, pinned to "
    "pointwise evaluation",
    cost=2.6,
)
def _chk_multiply_algebra(rng, cfg):
    """Commutative associative product with Leibniz derivatives, pinned to
    pointwise evaluation.

    Draws: 3 rounds x (3 scalars + 5 sample points x 4 uniforms).
    """
    for _ in range(3):
        f = random_scalar(rng, cutoff=cfg.mode_cutoff)
        g = random_scalar(rng, cutoff=cfg.mode_cutoff)
        h = random_scalar(rng, cutoff=cfg.mode_cutoff)
        yield close(f * g, g * f)
        yield close((f * g) * h, f * (g * h))
        yield close(f * FourierScalar.one(), f)
        for mu in range(4):
            leib = (f * g).derivative(mu) - f.derivative(mu) * g
            yield close(leib, f * g.derivative(mu))
        prod = f * g
        for _ in range(5):
            x = rng.uniform(0.0, 2.0 * np.pi, size=4)
            yield close(prod(x), f(x) * g(x))


@check(
    "manifold.real_closure",
    1e-12,
    "charge conjugation is antiunitary and conjugates one-form coefficients",
    cost=3.0,
)
def _chk_real_closure(rng, cfg):
    """Antilinear structure: antiunitary on sections, conjugates one-form
    coefficients, fixes the identity.

    Draws: 2 rounds x (2 sections + 2 elements).
    """
    man = ManifoldGeometry()
    j = man.real_structure
    yield close(man.real_conjugate(FieldOperator.identity(4)), FieldOperator.identity(4))
    for _ in range(2):
        u = random_section(rng, 4, cutoff=1)
        v = random_section(rng, 4, cutoff=1)
        yield close(j.apply(u).inner(j.apply(v)), v.inner(u))
        om = _random_one_form(rng, man, cfg.mode_cutoff)
        h, hp = man.one_form_parameters(om)
        h2, hp2 = man.one_form_parameters(man.real_conjugate(om))
        for mu in range(4):
            yield close(h2[mu], h[mu].conjugate())
            yield close(hp2[mu], hp[mu].conjugate())


@check(
    "manifold.action_closed_form",
    1e-10,
    "single-sheet engine equals the closed two-spinor density",
    cost=2.8,
)
def _chk_manifold_action_closed_form(rng, cfg):
    """Engine, quadratic reassembly, and the closed density agree
    coefficient by coefficient.

    Draws: 2 instances of overlapping Weyl inputs.
    """
    man = ManifoldGeometry()
    for _ in range(2):
        w, f, g = overlapping_action_inputs(rng, 2, cutoff=cfg.mode_cutoff)
        yield from _closed_form_residuals(man, promote_weyl_fields(w), f, g)


@check(
    "manifold.selfadjoint_edge_cases",
    1e-12,
    "imaginary chiral parameters: self-adjoint one-form, silent fluctuation; real "
    "ones stay audible",
    cost=4.9,
)
def _chk_selfadjoint_edge_cases(rng, cfg):
    """Imaginary chiral parameters give a self-adjoint one-form with a
    silent fluctuation; real ones keep it audible; mismatched conjugates
    break self-adjointness on both detection routes.

    Draws: 2 rounds x 8 real scalars.
    """
    man = ManifoldGeometry()
    for _ in range(2):
        h_im = [1j * random_scalar(rng, real=True) for _ in range(4)]
        hp_im = [(-1.0) * c.conjugate() for c in h_im]
        om = man.one_form_from_parameters(h_im, hp_im)
        yield close(om, om.adjoint())
        yield man.fluctuation(om).max_abs()

        h_re = [random_scalar(rng, real=True) for _ in range(4)]
        hp_re = [(-1.0) * c.conjugate() for c in h_re]
        om2 = man.one_form_from_parameters(h_re, hp_re)
        yield close(om2, om2.adjoint())
        yield _fail_unless(man.fluctuation(om2).max_abs() > 1e-6)

        hp_bad = [c + FourierScalar.one() for c in hp_re]
        om3 = man.one_form_from_parameters(h_re, hp_bad)
        yield _fail_unless((om3 - om3.adjoint()).max_abs() > 1e-6)
        yield _fail_unless(selfadjoint_defect_parameters(h_re, hp_bad) > 1e-6)


# ---------------------------------------------------------------------------
# doubled group
# ---------------------------------------------------------------------------


@check(
    "doubled.action_closed_form",
    1e-10,
    "two-sheet engine equals the closed density and twice the single sheet",
    cost=6.2,
)
def _chk_doubled_action_closed_form(rng, cfg):
    """Two-sheet engine vs closed density vs twice the single sheet, the one
    home of sheet doubling.

    Draws: 3 instances of overlapping Weyl inputs.
    """
    man = ManifoldGeometry()
    dbl = DoubledGeometry()
    for _ in range(3):
        w, f, g = overlapping_action_inputs(rng, 2, cutoff=cfg.mode_cutoff)
        pro = promote_weyl_fields(w)
        eng = yield from _closed_form_residuals(dbl, pro, f, g)
        single = fermionic_action(man, man.dressed_dirac(f, None), pro)
        yield close(eng, 2 * single)


def _selfadjoint_agreement(geo, fl, adjoint) -> float:
    """The sentinel unless the operator and parameter self-adjointness tests
    of ``fl`` (whose adjoint is ``adjoint``) agree at 1e-9; a NaN defect on
    either side fails."""
    z, zp = geo.fluctuation_parameters(fl)
    op_defect = (fl - adjoint).max_abs()
    par_defect = selfadjoint_defect_parameters(z, zp)
    if np.isnan([op_defect, par_defect]).any():
        return SENTINEL_ERROR
    return _fail_unless((op_defect < 1e-9) == (par_defect < 1e-9))


@check(
    "doubled.selfadjoint_fluctuations",
    1e-12,
    "the conjugate-pair parameter test tracks operator self-adjointness in both "
    "directions on the sectored spaces",
    cost=170.0,
)
def _chk_selfadjoint_fluctuations(rng, cfg):
    """Parameter test `z' = -conj(z)` tracks operator self-adjointness in
    both directions on the sectored spaces, with the symmetrized completion
    and the forced-parameter construction; imaginary parameters kill the
    chiral potential.

    Draws: 2 normals + per sectored geometry (20 one-form pairs + 10 x 4
    scalars + 4 real scalars).
    """
    _, dbl, elec = _geometries(rng)
    for geo in (dbl, elec):
        for _ in range(20):
            fl = geo.fluctuation(_random_one_form(rng, geo, 1))
            adjoint = fl.adjoint()
            yield _selfadjoint_agreement(geo, fl, adjoint)
            sym = fl + adjoint
            zs, zps = geo.fluctuation_parameters(sym)
            yield selfadjoint_defect_parameters(zs, zps)
        for _ in range(10):
            z = [random_scalar(rng) for _ in range(4)]
            forced = geo.fluctuation_from_z(z, [(-1.0) * c.conjugate() for c in z])
            yield close(forced, forced.adjoint())
        g = [random_scalar(rng, real=True) for _ in range(4)]
        z_im = [1j * c for c in g]
        purely = geo.fluctuation_from_z(z_im, z_im)
        f2, g2 = geo.vector_potentials(purely)
        for mu in range(4):
            yield f2[mu].max_abs()
            yield close(g2[mu], g[mu])
        yield close(purely, purely.adjoint())


# ---------------------------------------------------------------------------
# electrodynamics group
# ---------------------------------------------------------------------------


@check(
    "electrodynamics.finite_part_commutes",
    1e-14,
    "the constant mass block has exactly vanishing twisted commutators",
    cost=4.0,
)
def _chk_finite_part_commutes(rng, cfg):
    """The constant mass block has exactly vanishing twisted commutators.

    Draws: 2 normals (mass) + 8 elements.
    """
    geo = _electro_geometry(rng)
    fp = geo.dirac_finite_part
    for _ in range(8):
        pa = geo.represent(random_element(rng, 2, cutoff=cfg.mode_cutoff))
        yield close(fp @ pa, geo.twist(pa) @ fp)


@check(
    "electrodynamics.finite_space_structure",
    1e-14,
    "hermitian mass block layout, its tensor assembly with the chirality element, and "
    "the internal grading anticommutation",
    cost=0.3,
)
def _chk_finite_space_structure(rng, cfg):
    """Mass block layout: the four-by-four internal matrix, its hermiticity,
    the tensor assembly with the chirality element, and its anticommutation
    with the internal grading.

    Draws: 2 normals (mass).
    """
    geo = _electro_geometry(rng)
    d = geo.d
    dc = np.conj(d)
    internal = np.array(
        [[0, d, 0, 0], [dc, 0, 0, 0], [0, 0, 0, dc], [0, 0, d, 0]], dtype=complex
    )
    yield close(geo.internal_dirac, internal)
    yield close(internal, internal.conj().T)
    yield close(geo.dirac_finite_part, FieldOperator.from_matrix(np.kron(internal, GAMMA5)))
    gf = np.diag([1.0, -1.0, -1.0, 1.0])
    yield close(gf @ internal, -(internal @ gf))
    yield close(geo.grading_matrix, np.kron(gf, GAMMA5))
    j = geo.real_structure
    yield close(j @ geo.dirac_finite_part, geo.dirac_finite_part @ j)


@check(
    "electrodynamics.action_closed_form",
    1e-10,
    "four-sector engine equals the closed covariant density and the four-piece split "
    "is additive",
    cost=16.0,
)
def _chk_electro_action_closed_form(rng, cfg):
    """Four-sector engine vs the closed density and the additive split of
    the four operator summands, including the imaginary-mass point.

    Draws: 3 instances x (2 normals for the mass + overlapping inputs).
    """
    for k in range(3):
        if k == 2:
            d = 1j * (abs(rng.standard_normal()) + 0.2)
            rng.standard_normal()
        else:
            d = complex(rng.standard_normal(), rng.standard_normal())
        geo = ElectrodynamicsGeometry(d)
        w, f, g = overlapping_action_inputs(rng, 4, cutoff=cfg.mode_cutoff)
        pro = promote_weyl_fields(w)
        eng = yield from _closed_form_residuals(geo, pro, f, g)
        total = GrassmannNumber.zero()
        for piece in electro_operator_pieces(geo, f, g).values():
            total = total + fermionic_action(geo, piece, pro)
        yield close(total, eng)


# ---------------------------------------------------------------------------
# actions group
# ---------------------------------------------------------------------------


@check(
    "actions.graded_commutativity",
    1e-10,
    "anticommuting generators square to zero; the pairing is pure degree two after "
    "promotion and null on plain diagonal data",
    cost=1.2,
)
def _chk_graded_commutativity(rng, cfg):
    """Generator algebra plus the plain-vs-promoted dichotomy: the engine
    output is pure degree two and vanishes on unpromoted diagonal data.

    Draws: 1 overlapping input set.
    """
    t1, t2 = GrassmannNumber.generator(0), GrassmannNumber.generator(1)
    yield close(t1 * t2, -(t2 * t1))
    yield abs(t1 * t1)
    yield close((t1 + t2) * (t1 - t2), -(2 * (t1 * t2)))
    dbl = DoubledGeometry()
    w, f, _ = overlapping_action_inputs(rng, 2, cutoff=cfg.mode_cutoff)
    op = dbl.dressed_dirac(f, None)
    pro = promote_weyl_fields(w)
    eng = fermionic_action(dbl, op, pro)
    yield close(eng, eng.degree_part(2))
    yield _fail_unless(abs(eng) > 1e-6)
    yield abs(twisted_pairing(dbl, op, *dbl.action_sections(w)))


@check(
    "actions.pair_form_oracle",
    1e-12,
    "quadratic form expansion equals the explicit generator double loop; coefficient "
    "matrices round-trip antisymmetrized",
    cost=0.8,
)
def _chk_pair_form_oracle(rng, cfg):
    """Quadratic form expansion against an explicit generator double loop
    and the coefficient-matrix round trip.

    Draws: 2 rounds x 72 normals.
    """
    for _ in range(2):
        n = 6
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        form = antisymmetric_pair_form(b)
        oracle = GrassmannNumber.zero()
        for i in range(n):
            for j in range(n):
                oracle = oracle + b[i, j] * (
                    GrassmannNumber.generator(i) * GrassmannNumber.generator(j)
                )
        yield close(form, oracle)
        yield close(pair_coefficient_matrix(form, n), b - b.T)


@check(
    "actions.operator_composition",
    1e-12,
    "operators act generator-linearly on promoted sections and compose associatively",
    cost=0.93,
)
def _chk_operator_composition(rng, cfg):
    """Operators act on promoted sections exactly as on their generator
    decomposition, and composition matches sequential application.

    Draws: 3 rounds x (1 Weyl field + 8 normals for matrices).
    """
    d_0, d_2 = FieldOperator.derivative(2, 0), FieldOperator.derivative(2, 2)
    for _ in range(3):
        w = random_weyl_fields(rng, 1, cutoff=1)[0]
        m1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        op = FieldOperator.from_matrix(m1) + FieldOperator.from_matrix(m2) @ d_2
        pro = promote_weyl_fields([w])
        applied = op.apply(pro.fields[0])
        rebuilt = Section(2)
        for i, column in enumerate(np.diag(pro.amplitudes)):
            piece = op.apply(unit_weyl_fields(pro, i)[0])
            rebuilt = rebuilt + Section(
                2, {k: np.outer(v, column) for k, v in piece.coeffs.items()}
            )
        yield close(applied, rebuilt)
        op2 = FieldOperator.from_matrix(m2) + FieldOperator.from_matrix(m1) @ d_0
        yield close((op @ op2).apply(pro.fields[0]), op.apply(op2.apply(pro.fields[0])))


@check(
    "actions.term_symmetry_split",
    1e-10,
    "the vector term form is symmetric on plain spinors, the derivative, chiral, and "
    "chirality-block forms antisymmetric, with both characters exchanged after "
    "promotion",
    cost=4.7,
)
def _chk_term_symmetry_split(rng, cfg):
    """Single-sheet component forms sort by conjugation behaviour: the
    vector term is symmetric on plain spinors and antisymmetric after
    promotion, the derivative, chiral, and chirality-block terms the
    opposite.

    Draws: 2 rounds x (pool construction + 2 fiber-4 sections + 8
    potentials + independently promoted copies).
    """
    man = ManifoldGeometry()
    j = man.real_structure
    for _ in range(2):
        sections, f, g = overlapping_action_inputs(
            rng, 2, cutoff=cfg.mode_cutoff, fiber=4
        )
        phi, xi = sections
        halves = [Section.from_components([s.component(0), s.component(1)]) for s in sections]
        halves += [Section.from_components([s.component(2), s.component(3)]) for s in sections]
        pro = promote_weyl_fields(halves)
        upper, lower = np.eye(4, 2), np.eye(4, 2, k=-2)
        phi_g = pro.fields[0].matmul(upper) + pro.fields[2].matmul(lower)
        xi_g = pro.fields[1].matmul(upper) + pro.fields[3].matmul(lower)
        ops = (
            ("derivative", man.dirac, -1.0),
            ("chiral", chiral_vector_operator(f, [(-1.0) * c for c in f]), -1.0),
            ("vector", function_matrix_sum(4, [(GAMMA[mu], g[mu]) for mu in range(4)]), 1.0),
            ("chirality-block", FieldOperator.from_matrix(GAMMA5), -1.0),
        )
        for _name, op, sign in ops:
            p_uv = grassmann_inner(j.apply(phi), op.apply(xi)).coefficient(())
            p_vu = grassmann_inner(j.apply(xi), op.apply(phi)).coefficient(())
            yield close(p_uv, sign * p_vu)
            yield _fail_unless(abs(p_uv) > 1e-6)
            g_uv = grassmann_inner(j.apply(phi_g), op.apply(xi_g))
            g_vu = grassmann_inner(j.apply(xi_g), op.apply(phi_g))
            yield close(g_uv, -(sign * g_vu))


@check(
    "actions.printed_factor_conventions",
    1e-10,
    "the sub-density split and the zero-rapidity collapse of the boosted densities",
    cost=3.5,
)
def _chk_printed_factor_conventions(rng, cfg):
    """Relative normalisations: the density split of the single-sheet form
    and the zero-rapidity collapse of the boosted densities.  Sheet doubling
    is :func:`_chk_doubled_action_closed_form`'s.

    Draws: 1 overlapping input set (4 fields) + 2 normals for the mass.
    """
    w, f, g = overlapping_action_inputs(rng, 4, cutoff=cfg.mode_cutoff)
    pro2 = promote_weyl_fields(w[:2])
    lag = manifold_lagrangian_action(pro2.fields[0], pro2.fields[1], f[0])
    yield _fail_unless(abs(lag) > 1e-6)
    split = weyl_potential_form(
        pro2.fields[0], pro2.fields[1], f[0]
    ) + weyl_derivative_form(pro2.fields[0], pro2.fields[1])
    yield close(lag, -split)
    b_man = boosted_manifold_lagrangian_action(
        pro2.fields[0], pro2.fields[1], f, IDENTITY_BOOST
    )
    yield close(b_man, lag)
    d = complex(rng.standard_normal(), rng.standard_normal())
    pro4 = promote_weyl_fields(w)
    b_el = boosted_electro_lagrangian_action(pro4.fields, f, g, d, IDENTITY_BOOST)
    p_el = electro_lagrangian_action(pro4.fields, f, g, d)
    yield close(b_el, p_el)


@check(
    "actions.twisted_pairing_antisymmetry",
    1e-10,
    "dressed pairing is antisymmetric with null diagonal, equals minus the untwisted "
    "one on the fixed subspace, and the chirality-positive fixed part is null",
    cost=4.1,
)
def _chk_twisted_pairing_antisymmetry(rng, cfg):
    """Full dressed pairing on distinguished sections: antisymmetric with a
    vanishing diagonal, equal to minus the untwisted pairing, and the
    chirality-positive part of the fixed subspace is null.

    Draws: 2 normals + per geometry 1 overlapping input set (2 x slots).
    """
    for geo in _geometries(rng):
        n = geo.n_sectors
        w, f, g = overlapping_action_inputs(rng, 2 * n, cutoff=cfg.mode_cutoff)
        op = geo.dressed_dirac(f, g)
        u = geo.h_r_section(list(w[:n]))
        v = geo.h_r_section(list(w[n:]))
        yield geo.r_defect(u)
        yield geo.r_defect(v)
        p_uv = complex(grassmann_inner(
            geo.real_structure.apply(u), geo.r_operator.apply(op.apply(v))
        ).coefficient(()))
        p_vu = complex(twisted_pairing(geo, op, v, u).coefficient(()))
        yield close(p_uv, -p_vu)
        yield _fail_unless(abs(p_uv) > 1e-6)
        yield abs(twisted_pairing(geo, op, u, u).coefficient(()))
        p_tw = complex(twisted_pairing(geo, op, u, v).coefficient(()))
        yield close(p_tw, -complex(untwisted_pairing(geo, op, u, v).coefficient(())))
        yield geo.chirality_real_overlap()


# ---------------------------------------------------------------------------
# gauge group
# ---------------------------------------------------------------------------


@check(
    "gauge.potential_shift_laws",
    1e-12,
    "pure phases shift the chiral potentials by their gradient; matched sector phases "
    "shift only the vector potential",
    cost=16.0,
)
def _chk_potential_shift_laws(rng, cfg):
    """Pure-phase transforms shift the chiral potentials by the phase
    gradient; matched sector phases leave the chiral field alone and shift
    only the vector one.

    Draws: phase modes and one one-form per geometry, then 8 mode
    integers + 8 real scalars for the matched-phase split.
    """
    man = ManifoldGeometry()
    k = _random_mode(rng, 2)
    kp = _random_mode(rng, 2)
    u = man.element(wave_phase(k, 0.3), wave_phase(kp, -1.1))
    yield u.unitarity_defect()
    om = _random_one_form(rng, man, 2)
    h, hp = man.one_form_parameters(om)
    h2, hp2 = man.one_form_parameters(man.gauge_transformed(om, u))
    for mu in range(4):
        yield close(h2[mu] - h[mu], FourierScalar.constant(-1j * k[mu]))
        yield close(hp2[mu] - hp[mu], FourierScalar.constant(-1j * kp[mu]))
    for geo in (DoubledGeometry(), ElectrodynamicsGeometry(d=0.5 + 0.2j)):
        ka = _random_mode(rng, 1)
        kb = _random_mode(rng, 1)
        kap = _random_mode(rng, 1)
        kbp = _random_mode(rng, 1)
        u2 = geo.element(
            (wave_phase(ka, 0.2), wave_phase(kb, 0.7)),
            (wave_phase(kap, -0.4), wave_phase(kbp, 1.5)),
        )
        om2 = _random_one_form(rng, geo, 2)
        z, zp = geo.fluctuation_parameters(geo.fluctuation(om2))
        z2, zp2 = geo.fluctuation_parameters(
            geo.fluctuation(geo.gauge_transformed(om2, u2))
        )
        for mu in range(4):
            shift = FourierScalar.constant(-1j * (ka[mu] - kbp[mu]))
            shift_p = FourierScalar.constant(-1j * (kap[mu] - kb[mu]))
            yield close(z2[mu] - z[mu], shift)
            yield close(zp2[mu] - zp[mu], shift_p)
    elec = ElectrodynamicsGeometry(d=-1j)
    ka = _random_mode(rng, 1)
    kb = _random_mode(rng, 1)
    f = [random_scalar(rng, real=True) for _ in range(4)]
    g = [random_scalar(rng, real=True) for _ in range(4)]
    z, zp = elec.fluctuation_parameters(elec.selfadjoint_fluctuation(f, g))
    gauged_z = [
        z[mu] + FourierScalar.constant(-1j * (ka[mu] - kb[mu])) for mu in range(4)
    ]
    gauged = elec.fluctuation_from_z(
        gauged_z, [(-1.0) * c.conjugate() for c in gauged_z]
    )
    f2, g2 = elec.vector_potentials(gauged)
    for mu in range(4):
        yield close(f2[mu], f[mu])
        expected = g[mu] + FourierScalar.constant(-(ka[mu] - kb[mu]))
        yield close(g2[mu], expected)


@check(
    "gauge.adjoint_action",
    1e-12,
    "doubled-unitary conjugation: trivial single-sector, component phases sectored, "
    "fixed subspace preserved for matched phases",
    cost=2.4,
)
def _chk_adjoint_action(rng, cfg):
    """Doubled-unitary conjugation: trivial on the single-sector space,
    component phases on the sectored ones, and matched phases preserve the
    fixed subspace.

    Draws: 16 mode integers + per geometry section fields.
    """
    man = ManifoldGeometry()
    k = _random_mode(rng, 2)
    kp = _random_mode(rng, 2)
    u = man.element(wave_phase(k, 0.9), wave_phase(kp))
    yield operator_equal(
        man.adjoint_action(u), FieldOperator.identity(4), probe_cutoff=cfg.probe_cutoff
    ).max_abs_error
    for geo in (DoubledGeometry(), ElectrodynamicsGeometry(d=-1j)):
        ka = _random_mode(rng, 1)
        kb = _random_mode(rng, 1)
        kap = _random_mode(rng, 1)
        kbp = _random_mode(rng, 1)
        u2 = geo.element(
            (wave_phase(ka), wave_phase(kb)), (wave_phase(kap), wave_phase(kbp))
        )
        theta = wave_phase(ka) * wave_phase(kbp).conjugate()
        theta_p = wave_phase(kap) * wave_phase(kb).conjugate()
        block = [theta, theta, theta_p, theta_p]
        block_swap = [theta_p, theta_p, theta, theta]
        if geo.n_sectors == 2:
            entries = block + [c.conjugate() for c in block]
        else:
            entries = (
                block
                + block_swap
                + [c.conjugate() for c in block]
                + [c.conjugate() for c in block_swap]
            )
        expected = function_matrix_sum(
            geo.fiber_dim,
            [(np.diag(u), c) for u, c in zip(np.eye(geo.fiber_dim), entries)],
        )
        yield close(geo.adjoint_action(u2), expected)
        matched = geo.element(
            (wave_phase(ka), wave_phase(kb)), (wave_phase(ka), wave_phase(kb))
        )
        fields = random_weyl_fields(rng, geo.n_sectors, cutoff=1)
        s = geo.h_r_section(fields)
        yield geo.r_defect(geo.adjoint_action(matched).apply(s))


@check(
    "gauge.action_phase_absorption",
    1e-10,
    "matched-phase gauge moves leave the four-sector pairing untouched",
    cost=20.0,
)
def _chk_action_phase_absorption(rng, cfg):
    """Matched-phase gauge moves leave the four-sector pairing untouched
    when the operator and both distinguished slots transform together.

    Draws: 2 rounds x (2 normals + 8 overlapping fields + 2 one-form
    elements + 8 mode integers).
    """
    for _ in range(2):
        geo = _electro_geometry(rng)
        fields, _, _ = overlapping_action_inputs(rng, 8, cutoff=cfg.mode_cutoff)
        s = geo.h_r_section(fields[:4])
        t = geo.h_r_section(fields[4:])
        om = _random_one_form(rng, geo, 2)
        op = geo.dirac + geo.fluctuation(om)
        ka = _random_mode(rng, 1)
        kb = _random_mode(rng, 1)
        u = geo.element(
            (wave_phase(ka), wave_phase(kb)), (wave_phase(ka), wave_phase(kb))
        )
        op_u = geo.dirac + geo.fluctuation(geo.gauge_transformed(om, u))
        big_u = geo.adjoint_action(u)
        base = complex(twisted_pairing(geo, op, s, t).coefficient(()))
        moved = complex(
            twisted_pairing(geo, op_u, big_u.apply(s), big_u.apply(t)).coefficient(())
        )
        yield close(moved, base)
        yield _fail_unless(abs(base) > 1e-6)
        yield geo.r_defect(big_u.apply(s))


# ---------------------------------------------------------------------------
# boost group
# ---------------------------------------------------------------------------


@check(
    "boost.action_invariance",
    1e-9,
    "boosting operator and slots together fixes the pairing; the twisted product is "
    "boost-invariant",
    needs_boost=True,
    cost=7.1,
)
def _chk_boost_action_invariance(rng, cfg):
    """Boosting the operator and both slots fixes the pairing; the twisted
    product itself is boost-invariant.

    Draws: 2 normals + per geometry (1 input set + 2 boosts + 2 plain
    sections).
    """
    for geo in _geometries(rng):
        w, f, g = overlapping_action_inputs(rng, geo.n_weyl_fields, cutoff=cfg.mode_cutoff)
        op = geo.dressed_dirac(f, g)
        pro = promote_weyl_fields(w)
        plain = fermionic_action(geo, op, pro)
        yield _fail_unless(abs(plain) > 1e-6)
        ident = FieldOperator.identity(geo.fiber_dim)
        for _ in range(2):
            boost = _draw_boost(rng, cfg)
            moved = fermionic_action(geo, op, pro, boost=boost)
            yield close(moved, plain)
            u = random_section(rng, geo.fiber_dim, cutoff=1)
            v = random_section(rng, geo.fiber_dim, cutoff=1)
            lhs = boosted_pairing(geo, ident, boost, u, v)
            rhs = twisted_pairing(geo, ident, u, v)
            yield close(complex(lhs.coefficient(())), complex(rhs.coefficient(())))


@check(
    "boost.manifold_closed_form",
    1e-9,
    "boosted single-sheet engine equals the boosted closed density",
    needs_boost=True,
    cost=4.2,
)
def _chk_boosted_manifold_closed_form(rng, cfg):
    """Boosted single-sheet engine vs the boosted closed density.

    Draws: 2 boosts x 1 overlapping input set.
    """
    yield from _boosted_closed_form_residuals(rng, cfg, lambda rng: ManifoldGeometry())


@check(
    "boost.doubled_closed_form",
    1e-9,
    "boosted two-sheet engine equals the boosted closed density",
    needs_boost=True,
    cost=4.9,
)
def _chk_boosted_doubled_closed_form(rng, cfg):
    """Boosted two-sheet engine vs the boosted closed density.

    Draws: 2 boosts x 1 overlapping input set.
    """
    yield from _boosted_closed_form_residuals(rng, cfg, lambda rng: DoubledGeometry())


@check(
    "boost.electro_closed_form",
    1e-9,
    "boosted four-sector engine equals the boosted closed density",
    needs_boost=True,
    cost=11.0,
)
def _chk_boosted_electro_closed_form(rng, cfg):
    """Boosted four-sector engine vs the boosted closed density.

    Draws: 2 boosts x (2 normals + 1 overlapping input set).
    """
    yield from _boosted_closed_form_residuals(rng, cfg, _electro_geometry)


# ---------------------------------------------------------------------------
# dynamics group
# ---------------------------------------------------------------------------


@check(
    "dynamics.determinant_kernel_duality",
    1e-9,
    "vanishing determinant coincides with a nontrivial kernel across all plane-wave "
    "families",
    cost=92.0,
)
def _chk_determinant_kernel_duality(rng, cfg):
    """Vanishing determinant coincides with a nontrivial kernel over every
    system family.

    Draws: 250 samples per kind; boosted families drop out at zero rapidity
    cap and draw their own boosts within it otherwise.
    """
    kinds = FLAT_KINDS if cfg.rapidity_max == 0 else PROBLEM_KINDS
    for kind in kinds:
        sweep = duality_sweep(
            rng, kind, n_samples=250, max_half_rapidity=_half_cap(cfg)
        )
        yield sweep["worst_kernel_residual"]
        yield _fail_unless(sweep["violations"] == 0)
        yield _fail_unless(sweep["singular"] >= 25)
        yield _fail_unless(sweep["min_generic_det"] > 1e-10)
        yield _fail_unless(sweep["max_singular_det"] <= 1e-10)


@check(
    "dynamics.dispersion_surfaces",
    1e-9,
    "closed determinant formulas and mass-shell roots for every family",
    cost=3.7,
)
def _chk_dispersion_surfaces(rng, cfg):
    """Closed determinant formulas and mass-shell roots.

    Draws: 10 generic four-by-four draws x 2 + 10 two-by-two draws + 10
    imaginary-mass shell draws + 10 on-shell boosted problems.
    """
    for _ in range(10):
        f0 = float(rng.standard_normal())
        g3 = rng.standard_normal(3)
        d = complex(rng.standard_normal(), rng.standard_normal())
        p = rng.standard_normal(4)
        for kind in FLAT_KINDS[2:]:
            problem = PlaneWaveProblem(kind, tuple(p), (f0, 0.0, 0.0, 0.0), (0.0, *g3), d)
            res = problem.solve()
            mass = -1j * d
            big_p = p[1:] + g3
            closed = (f0**2 - big_p @ big_p - mass * mass) ** 2
            yield close(res.determinant, closed)
    for _ in range(10):
        f0 = float(rng.standard_normal())
        p = rng.standard_normal(4)
        handed = "left" if rng.uniform() < 0.5 else "right"
        kind = f"weyl-{handed}"
        res = PlaneWaveProblem(kind, tuple(p), (f0, 0.0, 0.0, 0.0)).solve()
        norm = float(np.linalg.norm(p[1:]))
        yield close(res.determinant, f0**2 - norm**2)
        yield close(abs(res.roots[0]), norm)
        yield close(abs(res.roots[1]), norm)
        f_shell = (float(res.roots[1]), 0.0, 0.0, 0.0)
        on_shell = PlaneWaveProblem(kind, tuple(p), f_shell).solve()
        yield abs(on_shell.determinant)
        yield _fail_unless(on_shell.singular)
    for _ in range(10):
        mass = abs(rng.standard_normal()) + 0.1
        g3 = rng.standard_normal(3)
        p = rng.standard_normal(4)
        primed = rng.uniform() < 0.5
        shell = float(np.sqrt((p[1:] + g3) @ (p[1:] + g3) + mass**2))
        kind = "dirac-primed" if primed else "dirac"
        problem = PlaneWaveProblem(kind, tuple(p), (shell, 0.0, 0.0, 0.0), (0.0, *g3), 1j * mass)
        res = problem.solve()
        yield abs(res.determinant)
        yield _fail_unless(res.singular)
        yield close(res.roots[0], shell)
        yield close(res.roots[1], -shell)
    boosted_kinds = ("boosted-dirac", "boosted-dirac-primed")
    if cfg.rapidity_max > 0:
        for _ in range(10):
            kind = boosted_kinds[int(rng.uniform() < 0.5)]
            problem = on_shell_problem(rng, kind, max_half_rapidity=_half_cap(cfg))
            res = problem.solve()
            yield _fail_unless(res.singular)
            yield abs(res.determinant)


@check(
    "dynamics.kernel_boost_covariance",
    1e-9,
    "on-shell kernels transport through the boost half-blocks",
    needs_boost=True,
    cost=2.0,
)
def _chk_kernel_boost_covariance(rng, cfg):
    """On-shell kernels transport through the boost half-blocks.

    Draws: 3 boosts x (2 Weyl chiralities + 2 Dirac branches) x field
    normals.
    """
    for _ in range(3):
        boost = _draw_boost(rng, cfg)
        for kind in BOOSTED_KINDS[:2]:  # Weyl: massless, no gauge potential
            yield kernel_covariance(on_shell(kind, rng.standard_normal(3), boost=boost))
        for kind in BOOSTED_KINDS[2:]:
            f_spatial, g = rng.standard_normal(3), rng.standard_normal(4)
            mass = abs(rng.standard_normal()) + 0.1
            yield kernel_covariance(on_shell(kind, f_spatial, g=g, mass=mass, boost=boost))


@check(
    "dynamics.euler_lagrange_consistency",
    1e-12,
    "variational matrices of the densities equal the dispersion systems",
    cost=2.2,
)
def _chk_euler_lagrange_consistency(rng, cfg):
    """Variational matrices agree with the dispersion systems for every
    density family.

    Draws: 6 kinds x 3 rounds x (psi, p, f, g, d, mass normals + 1 boost).
    """
    for kind, dim in EL_KINDS.items():
        for _ in range(3):
            psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            p = rng.standard_normal(4)
            fvec = tuple(rng.standard_normal(4))
            gvec = tuple(rng.standard_normal(4))
            d = complex(rng.standard_normal(), rng.standard_normal())
            mass = float(rng.standard_normal())
            boost = (
                _draw_boost(rng, cfg) if cfg.rapidity_max > 0 else IDENTITY_BOOST
            )
            yield euler_lagrange_check(
                kind, psi, p, f=fvec, g=gvec, d=d, boost=boost, mass=mass
            )


@check(
    "dynamics.boosted_reduction",
    1e-9,
    "boosted systems reduce to scaled flat ones at identification momenta",
    needs_boost=True,
    cost=2.3,
)
def _chk_boosted_reduction(rng, cfg):
    """Boosted systems reduce to scaled flat ones at identification momenta.

    Draws: 6 boosts x (2 chiralities + 2 branches) x field normals.
    """
    for _ in range(6):
        boost = _draw_boost(rng, cfg)
        f4 = rng.standard_normal(4)
        g4 = rng.standard_normal(4)
        d = complex(rng.standard_normal(), rng.standard_normal())
        for kind in BOOSTED_KINDS:
            yield reduction_residual(identified_problem(kind, f4, g4, d, boost))


# ---------------------------------------------------------------------------
# runner and report
# ---------------------------------------------------------------------------


def _run_share(share, cfg: RunConfig):
    """Run ``share``'s ``(position, spec, stream)`` entries in order.

    Returns their records and ``(position, exception)`` for a check that
    raised, else ``None``; the first check that raises ends the share, as it
    ends a serial run.
    """
    records = []
    for position, spec, stream in share:
        rng = np.random.default_rng(stream)
        tol = spec.gate(cfg)
        start = time.perf_counter()
        try:
            if spec.needs_boost and cfg.rapidity_max == 0:
                status, error = "skip", SENTINEL_ERROR
            else:
                error = reduce_residuals(spec.fn(rng, cfg))
                status = "pass" if error <= tol else "fail"
        except Exception as exc:
            return records, (position, exc)
        elapsed = (time.perf_counter() - start) * 1e3
        records.append(
            CheckRecord(
                check_id=spec.check_id,
                paper_ref=spec.paper_ref,
                status=status,
                max_abs_error=error,
                tolerance=tol,
                seed=cfg.seed,
                elapsed_ms=elapsed,
            )
        )
    return records, None


def _watched() -> bool:
    """Whether a profiler, coverage tool or debugger watches this process;
    it would see only the calling process's share of a split run."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12 and later
    return (
        sys.getprofile() is not None
        or sys.gettrace() is not None
        or (monitoring is not None and any(map(monitoring.get_tool, range(6))))
    )


def _process_count(n_checks: int) -> int:
    """k: one process per CPU this process may run on, at most one per check,
    and one while :func:`_watched` holds."""
    if n_checks < 2 or not hasattr(os, "fork") or _watched():
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, n_checks)


def _plan_shares(selected, k: int) -> list[list]:
    """Split ``selected`` (``(position, spec, stream)`` in registry order)
    into ``k`` shares: by declared cost, longest first and ties in registry
    order, each check goes to the share with the least cost so far (the
    first such share on a tie); each share keeps registry order."""
    loads = [0.0] * k
    shares: list[list] = [[] for _ in range(k)]
    for entry in sorted(selected, key=lambda entry: -entry[1].cost):
        lightest = loads.index(min(loads))
        loads[lightest] += entry[1].cost
        shares[lightest].append(entry)
    return [sorted(share, key=lambda entry: entry[0]) for share in shares]


def _worker_result(share, cfg: RunConfig) -> bytes:
    """The pickled ``(records, failure, warnings)`` of ``share`` run here.

    A check's exception carries its traceback as a note, and one that does
    not survive pickling travels as a ``RuntimeError`` naming it.  Warnings
    are recorded under the inherited filters, for the parent to show.
    """
    with warnings.catch_warnings(record=True) as shown:
        records, failure = _run_share(share, cfg)
    if failure is not None:
        position, exc = failure
        trace = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"{exc!r}, which does not pickle")
        if hasattr(exc, "add_note"):  # Python 3.11 and later
            exc.add_note(f"raised in a worker process:\n{trace}")
        failure = position, exc
    shown = [(str(w.message), w.category, w.filename, w.lineno) for w in shown]
    return pickle.dumps((records, failure, shown))


def _fork_share(share, cfg: RunConfig):
    """Fork a worker that runs ``share`` and writes its result to a pipe.

    Returns ``(pid, pipe, check ids)``.  The worker leaves through
    ``os._exit`` on every path, so it writes nothing else, flushes none of
    the parent's buffers and runs none of its clean-up.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb"), [spec.check_id for _, spec, _ in share]
    status = 1
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:
            pipe.write(_worker_result(share, cfg))
        status = 0
    finally:
        os._exit(status)


def run_checks(config: Optional[RunConfig] = None) -> list[CheckRecord]:
    """Run the selected groups; records come back sorted by check id.

    Every check receives a stream spawned from the root seed at its fixed
    registry position, so group filtering does not move anyone's draws.
    The checks run in ``k`` shares balanced by declared cost (see the module
    docstring); the calling process runs share 0 and reaps every worker
    before it returns or raises.  A check that raises makes this raise the
    exception of the earliest such check in the registry.
    ``elapsed_ms`` on the returned records is the real wall-clock time in the
    process that ran the check; the JSON report replaces it with zero (see
    :func:`report_document`).
    """
    cfg = config if config is not None else RunConfig()
    streams = np.random.SeedSequence(cfg.seed).spawn(len(REGISTRY))
    selected = [
        (position, spec, stream)
        for position, (spec, stream) in enumerate(zip(REGISTRY, streams))
        if spec.group in cfg.groups
    ]
    shares = _plan_shares(selected, _process_count(len(selected)))
    workers = []  # (pid, pipe, check ids) of the workers not yet reaped
    try:
        for share in shares[1:]:
            workers.append(_fork_share(share, cfg))
        records, failure = _run_share(shares[0], cfg)
        failures = [failure]
        while workers:
            pid, pipe, ids = workers[0]
            data = pipe.read()
            pipe.close()
            os.waitpid(pid, 0)
            workers.pop(0)
            try:
                part, failure, shown = pickle.loads(data)
            except Exception:
                raise RuntimeError(
                    f"the worker process running {', '.join(ids)} exited "
                    "without its result"
                ) from None
            records += part
            failures.append(failure)
            for args in shown:
                warnings.showwarning(*args)
    finally:
        for pid, pipe, _ in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    raised = [failure for failure in failures if failure is not None]
    if raised:
        raise min(raised, key=lambda failure: failure[0])[1]
    records.sort(key=lambda r: r.check_id)
    return records


def config_echo(cfg: RunConfig) -> dict:
    return {**asdict(cfg), "groups": sorted(cfg.groups)}


def report_document(cfg: RunConfig, records: Sequence[CheckRecord]) -> dict:
    """Reproducible report: config echo plus records ordered by check id.

    ``elapsed_ms`` is pinned to zero here - the document must be
    byte-identical across runs with the same seed and configuration, and
    wall-clock timings are not.
    """
    checks = [
        asdict(replace(rec, elapsed_ms=0.0))
        for rec in sorted(records, key=lambda r: r.check_id)
    ]
    return {"config": config_echo(cfg), "checks": checks}


def report_json(cfg: RunConfig, records: Sequence[CheckRecord]) -> str:
    return json.dumps(report_document(cfg, records), indent=2, sort_keys=True) + "\n"
