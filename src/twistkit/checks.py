"""Seeded verification registry behind the command-line runner.

Each check is a pure function of a dedicated random stream plus the run
configuration and returns the largest absolute defect it measured, or
``None`` when the configuration makes it inapplicable (which becomes a
``skip`` record).  Streams are spawned from the root seed by fixed registry
position, so filtering by group never changes what any individual check
draws.

Two reporting conventions keep the JSON strict and reproducible:

* boolean predicate failures and skipped checks report ``SENTINEL_ERROR``
  instead of ``inf``/``nan``, preserving both serializability and the rule
  that a record passes exactly when ``max_abs_error <= tolerance``;
* ``elapsed_ms`` in the JSON document is always ``0.0`` - wall-clock noise
  would break byte-level reproducibility - while the real per-check timing
  is kept on the in-memory records for the human-readable summary.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

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
    lorentz_matrix,
    twist_gamma,
)
from .dynamics import (
    EL_KINDS,
    KERNEL_THRESHOLD,
    PROBLEM_KINDS,
    boosted_dirac_reduction_residual,
    boosted_weyl_reduction_residual,
    dirac_kernel_covariance,
    dirac_system,
    duality_sweep,
    euler_lagrange_check,
    on_shell_problem,
    weyl_kernel_covariance,
    weyl_system,
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
    MAX_PROBE_CUTOFF,
    FieldOperator,
    commutator as op_commutator,
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
# run configuration and records
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
        if self.mode_cutoff < 1:
            raise ValueError("mode_cutoff must be at least 1")
        if not 1 <= self.probe_cutoff <= MAX_PROBE_CUTOFF:
            raise ValueError(f"probe_cutoff must be between 1 and {MAX_PROBE_CUTOFF}")
        if not (np.isfinite(self.rapidity_max) and self.rapidity_max >= 0):
            raise ValueError("rapidity_max must be finite and non-negative")
        if self.rapidity_max > MAX_RAPIDITY:
            raise ValueError(f"rapidity_max must be at most {MAX_RAPIDITY}")
        self.groups = tuple(self.groups)
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
            self.tolerances[key] = float(value)


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

    @property
    def group(self) -> str:
        """The check id's prefix, ``"boost"`` for ``"boost.action_invariance"``."""
        return self.check_id.partition(".")[0]


# ---------------------------------------------------------------------------
# shared draw helpers
# ---------------------------------------------------------------------------


def _fail_unless(condition: bool) -> float:
    return 0.0 if condition else SENTINEL_ERROR


def _closed_form_error(geo, pro, f, g, boost=None):
    """(error, engine value) of the dressed action on promoted ``pro``.

    The error is the engine's distance to the geometry's closed density and
    to the quadratic route, or the sentinel when the engine value vanishes.
    """
    op = geo.dressed_dirac(f, g)
    eng = fermionic_action(geo, op, pro, boost=boost)
    lag = geo.closed_form_action(pro.fields, f, g, boost)
    quad = fermionic_action_quadratic(geo, op, pro, boost=boost)
    return max(abs(eng - lag), abs(eng - quad), _fail_unless(abs(eng) > 1e-6)), eng


def _geometries(rng):
    """The three spaces; the four-sector mass parameter costs two normals."""
    d = complex(rng.standard_normal(), rng.standard_normal())
    return (ManifoldGeometry(), DoubledGeometry(), ElectrodynamicsGeometry(d))


def _draw_boost(rng, cfg: RunConfig) -> SpinBoost:
    """One boost: full rapidity uniform in (0.05, rapidity_max], random axis."""
    hi = max(cfg.rapidity_max, 0.06)
    rapidity = float(rng.uniform(0.05, hi))
    axis = rng.standard_normal(3)
    while np.linalg.norm(axis) < 1e-3:
        axis = rng.standard_normal(3)
    return SpinBoost(0.5 * rapidity, tuple(axis))


def _half_cap(cfg: RunConfig) -> float:
    return min(1.0, 0.5 * cfg.rapidity_max)


# ---------------------------------------------------------------------------
# clifford group
# ---------------------------------------------------------------------------


def _chk_euclidean_anticommutators(rng, cfg):
    """Euclidean gamma table, chirality element, grading twist.  Draws: none."""
    err = 0.0
    eye = np.eye(4)
    for mu in range(4):
        for nu in range(mu, 4):
            target = 2.0 * (mu == nu) * eye
            err = max(err, np.abs(anticommutator(GAMMA[mu], GAMMA[nu]) - target).max())
        err = max(err, np.abs(anticommutator(GAMMA5, GAMMA[mu])).max())
    err = max(err, np.abs(GAMMA5 @ GAMMA5 - eye).max())
    err = max(err, np.abs(GAMMA5 - GAMMA5.conj().T).max())
    err = max(err, np.abs(twist_gamma(0) - GAMMA[0]).max())
    for j in (1, 2, 3):
        err = max(err, np.abs(twist_gamma(j) + GAMMA[j]).max())
    return err


def _chk_minkowski_anticommutators(rng, cfg):
    """Flat-metric gamma table; shared time component.  Draws: none."""
    err = 0.0
    eye = np.eye(4)
    for mu in range(4):
        for nu in range(mu, 4):
            target = 2.0 * ETA[mu, nu] * eye
            err = max(
                err, np.abs(anticommutator(GAMMA_M[mu], GAMMA_M[nu]) - target).max()
            )
    err = max(err, np.abs(GAMMA_M[0] - GAMMA[0]).max())
    return err


def _chk_sigma_pair_identities(rng, cfg):
    """Two-by-two blocks assemble the gammas and pair into the metric.

    Draws: none.
    """
    err = 0.0
    zero2 = np.zeros((2, 2))
    for mu in range(4):
        for nu in range(4):
            de = 2.0 * (mu == nu) * _I2
            dm = 2.0 * ETA[mu, nu] * _I2
            err = max(
                err,
                np.abs(
                    SIGMA[mu] @ SIGMA_TILDE[nu] + SIGMA[nu] @ SIGMA_TILDE[mu] - de
                ).max(),
                np.abs(
                    SIGMA_TILDE[mu] @ SIGMA[nu] + SIGMA_TILDE[nu] @ SIGMA[mu] - de
                ).max(),
                np.abs(
                    SIGMA_M[mu] @ SIGMA_M_BAR[nu]
                    + SIGMA_M[nu] @ SIGMA_M_BAR[mu]
                    - dm
                ).max(),
                abs(np.trace(SIGMA_M[mu] @ SIGMA_M_BAR[nu]) - 2.0 * ETA[mu, nu]),
            )
        block = np.block([[zero2, SIGMA[mu]], [SIGMA_TILDE[mu], zero2]])
        err = max(err, np.abs(GAMMA[mu] - block).max())
        block_m = np.block([[zero2, SIGMA_M[mu]], [SIGMA_M_BAR[mu], zero2]])
        err = max(err, np.abs(GAMMA_M[mu] - block_m).max())
    return err


def _chk_spin_boost_structure(rng, cfg):
    """Boost half-blocks: mutual inverses, self-adjoint, non-unitary, the
    grading twist inverts them and conjugation swaps them.

    Draws: 6 boosts x (1 uniform + 3 normals).  Skipped at zero rapidity cap.
    """
    if cfg.rapidity_max == 0:
        return None
    err = 0.0
    eye4 = np.eye(4)
    for _ in range(6):
        b = _draw_boost(rng, cfg)
        lp, lm = b.lambda_plus, b.lambda_minus
        err = max(err, np.abs(lp @ lm - _I2).max())
        err = max(err, np.abs(lp - lp.conj().T).max())
        err = max(err, np.abs(lm - lm.conj().T).max())
        err = max(err, abs(np.linalg.det(lp) - 1.0))
        s = b.matrix
        zero2 = np.zeros((2, 2))
        err = max(err, np.abs(s - np.block([[lm, zero2], [zero2, lp]])).max())
        err = max(err, np.abs(s - s.conj().T).max())
        err = max(err, np.abs(GAMMA[0] @ s @ GAMMA[0] - b.inverse).max())
        err = max(err, np.abs(_S2 @ np.conj(lp) @ _S2 - lm).max())
        err = max(err, _fail_unless(np.abs(s.conj().T @ s - eye4).max() > 1e-6))
    return err


def _chk_lorentz_extraction_routes(rng, cfg):
    """Vector matrix from the spin boost: independent trace extraction,
    sigma-block decomposition, metric preservation, additivity, covectors.

    Draws: 4 boosts x (1 uniform + 3 normals) + 2 half-rapidity uniforms +
    3 probe covectors x 4 normals.  Skipped at zero rapidity cap.
    """
    if cfg.rapidity_max == 0:
        return None
    err = 0.0
    for _ in range(4):
        b = _draw_boost(rng, cfg)
        lam = lorentz_matrix(b)
        err = max(err, np.abs(lam @ ETA @ lam.T - ETA).max())
        err = max(err, np.abs(lam.T @ ETA @ lam - ETA).max())
        err = max(err, abs(np.linalg.det(lam) - 1.0))
        err = max(err, _fail_unless(lam[0, 0] >= 1.0 - 1e-12))
        trace_route = np.zeros((4, 4), dtype=complex)
        for mu in range(4):
            phase = 1.0 if mu == 0 else 1j
            x = phase * b.sigma_tilde_boosted(mu)
            y = phase * b.sigma_boosted(mu)
            for a in range(4):
                trace_route[mu, a] = np.trace(SIGMA_M[a] @ x) / (2.0 * ETA[a, a])
            err = max(
                err,
                np.abs(
                    x - sum(lam[mu, nu] * SIGMA_M_BAR[nu] for nu in range(4))
                ).max(),
                np.abs(y - sum(lam[mu, nu] * SIGMA_M[nu] for nu in range(4))).max(),
            )
        err = max(err, np.abs(trace_route - lam).max())
        for _ in range(3):
            p = rng.standard_normal(4)
            err = max(err, np.abs(boost_covector(b, p) - lam.T @ p).max())
    axis = tuple(rng.standard_normal(3))
    h1, h2 = rng.uniform(0.05, 0.5, size=2)
    err = max(
        err,
        np.abs(
            lorentz_matrix(SpinBoost(h1 + h2, axis))
            - lorentz_matrix(SpinBoost(h1, axis)) @ lorentz_matrix(SpinBoost(h2, axis))
        ).max(),
    )
    return err


# ---------------------------------------------------------------------------
# axioms group
# ---------------------------------------------------------------------------


def _chk_order_zero(rng, cfg):
    """Represented elements commute with conjugated ones.

    Draws: 2 normals (mass) + per geometry 4 rounds x 2 elements.
    """
    err = 0.0
    for geo in _geometries(rng):
        for _ in range(4):
            a = random_element(rng, geo.n_slots, cutoff=cfg.mode_cutoff)
            b = random_element(rng, geo.n_slots, cutoff=cfg.mode_cutoff)
            opp = geo.real_conjugate(geo.represent(b))
            err = max(err, op_commutator(geo.represent(a), opp).max_abs())
    return err


def _chk_twisted_first_order(rng, cfg):
    """Twisted commutators commute with the conjugated algebra up to twist.

    Draws: 2 normals + per geometry 4 rounds x 2 elements.
    """
    err = 0.0
    for geo in _geometries(rng):
        for _ in range(4):
            a = random_element(rng, geo.n_slots, cutoff=cfg.mode_cutoff)
            b = random_element(rng, geo.n_slots, cutoff=cfg.mode_cutoff)
            t = geo.twisted_commutator(a)
            opp = geo.real_conjugate(geo.represent(b))
            err = max(err, (t @ opp - geo.twist(opp) @ t).max_abs())
    return err


def _chk_ko_signs(rng, cfg):
    """Sign table of the real structure against each geometry's data table,
    plus the unitary self-adjoint involution implementing the twist.

    Draws: 2 normals (mass).
    """
    err = 0.0
    for geo in _geometries(rng):
        j = geo.real_structure
        dim = geo.fiber_dim
        err = max(
            err,
            normal_form_distance(j @ j, FieldOperator.identity(dim).scale(-1.0)),
        )
        err = max(err, normal_form_distance(j @ geo.dirac, geo.dirac @ j))
        g = FieldOperator.from_matrix(geo.grading_matrix)
        sign = geo.ko_signs[2]
        err = max(err, normal_form_distance(j @ g, (g @ j).scale(sign)))
        r = geo.r_operator
        err = max(err, normal_form_distance(j @ r, (r @ j).scale(-1.0)))
        rm = geo.r_matrix
        err = max(err, np.abs(rm @ rm - np.eye(dim)).max())
        err = max(err, np.abs(rm - rm.conj().T).max())
    return err


def _chk_rho_adjoint_involution(rng, cfg):
    """The flip is conjugation by the involution, squares to the identity,
    and its adjoint moves through the twisted product.

    Draws: 2 normals + per geometry 3 rounds x (3 elements + 2 sections).
    """
    err = 0.0
    for geo in _geometries(rng):
        for _ in range(3):
            a = random_element(rng, geo.n_slots, cutoff=cfg.mode_cutoff)
            err = max(
                err,
                normal_form_distance(
                    geo.twist(geo.represent(a)), geo.represent(a.flip())
                ),
            )
            om = geo.one_form(
                [
                    (
                        random_element(rng, geo.n_slots, cutoff=cfg.mode_cutoff),
                        random_element(rng, geo.n_slots, cutoff=cfg.mode_cutoff),
                    )
                ]
            )
            err = max(err, normal_form_distance(geo.twist(geo.twist(om)), om))
            plus = geo.twist(om).adjoint()
            err = max(err, normal_form_distance(geo.twist(plus).adjoint(), om))
            phi = random_section(rng, geo.fiber_dim, cutoff=1, n_modes=3)
            xi = random_section(rng, geo.fiber_dim, cutoff=1, n_modes=3)
            lhs = phi.inner(geo.r_operator.apply(om.apply(xi)))
            rhs = plus.apply(phi).inner(geo.r_operator.apply(xi))
            err = max(err, abs(lhs - rhs))
    return err


def _chk_grading_relations(rng, cfg):
    """Grading squares to one, is self-adjoint, anticommutes with the
    operator and commutes with the algebra.

    Draws: 2 normals + per geometry 2 elements.
    """
    err = 0.0
    for geo in _geometries(rng):
        g = geo.grading_matrix
        err = max(err, np.abs(g @ g - np.eye(geo.fiber_dim)).max())
        err = max(err, np.abs(g - g.conj().T).max())
        g_op = FieldOperator.from_matrix(g)
        err = max(
            err, normal_form_distance(g_op @ geo.dirac, (geo.dirac @ g_op).scale(-1.0))
        )
        for _ in range(2):
            pa = geo.represent(random_element(rng, geo.n_slots, cutoff=cfg.mode_cutoff))
            err = max(err, op_commutator(g_op, pa).max_abs())
    return err


def _chk_full_axiom_suite(rng, cfg):
    """Volume battery: homomorphism, star, evenness, order conditions.

    Draws: 2 normals + 20 rounds (7 + 7 + 6 across the geometries) x 2
    elements each.
    """
    err = 0.0
    for geo, rounds in zip(_geometries(rng), (7, 7, 6)):
        g_op = FieldOperator.from_matrix(geo.grading_matrix)
        for _ in range(rounds):
            a = random_element(rng, geo.n_slots, cutoff=cfg.mode_cutoff)
            b = random_element(rng, geo.n_slots, cutoff=cfg.mode_cutoff)
            pa, pb = geo.represent(a), geo.represent(b)
            err = max(err, normal_form_distance(geo.represent(a * b), pa @ pb))
            err = max(err, normal_form_distance(geo.represent(a.star()), pa.adjoint()))
            err = max(err, op_commutator(g_op, pa).max_abs())
            opp = geo.real_conjugate(pb)
            err = max(err, op_commutator(pa, opp).max_abs())
            t = geo.twisted_commutator(a)
            err = max(err, (t @ opp - geo.twist(opp) @ t).max_abs())
    return err


def _chk_fluctuation_round_trip(rng, cfg):
    """Potential extraction inverts assembly on every geometry.

    Draws: 2 normals + 2 manifold one-form pairs + per sectored geometry
    (2 one-form pairs + 8 real scalars).
    """
    err = 0.0
    man, dbl, elec = _geometries(rng)
    for _ in range(2):
        om = man.one_form(
            [
                (
                    random_element(rng, 1, cutoff=cfg.mode_cutoff),
                    random_element(rng, 1, cutoff=cfg.mode_cutoff),
                )
            ]
        )
        h, hp = man.one_form_parameters(om)
        rebuilt = man.one_form_from_parameters(h, hp)
        err = max(err, operator_equal(om, rebuilt, probe_cutoff=cfg.probe_cutoff).max_abs_error)
    for geo in (dbl, elec):
        for _ in range(2):
            fl = geo.fluctuation(
                geo.one_form(
                    [
                        (
                            random_element(rng, 2, cutoff=cfg.mode_cutoff),
                            random_element(rng, 2, cutoff=cfg.mode_cutoff),
                        )
                    ]
                )
            )
            z, zp = geo.fluctuation_parameters(fl)
            rebuilt = geo.fluctuation_from_z(z, zp)
            err = max(
                err, operator_equal(fl, rebuilt, probe_cutoff=cfg.probe_cutoff).max_abs_error
            )
        f = [random_scalar(rng, real=True) for _ in range(4)]
        g = [random_scalar(rng, real=True) for _ in range(4)]
        f2, g2 = geo.vector_potentials(geo.selfadjoint_fluctuation(f, g))
        for mu in range(4):
            err = max(err, (f2[mu] - f[mu]).max_abs(), (g2[mu] - g[mu]).max_abs())
    return err


# ---------------------------------------------------------------------------
# manifold group
# ---------------------------------------------------------------------------


def _chk_integration_by_parts(rng, cfg):
    """Total derivatives integrate away; the flat operator is symmetric.

    Draws: 3 rounds x (2 scalars + 2 fiber-4 sections).
    """
    err = 0.0
    man = ManifoldGeometry()
    err = max(err, (man.dirac - man.dirac.adjoint()).max_abs())
    for _ in range(3):
        f = random_scalar(rng, cutoff=cfg.mode_cutoff)
        g = random_scalar(rng, cutoff=cfg.mode_cutoff)
        for mu in range(4):
            err = max(err, abs((f * g).derivative(mu).integral()))
        u = random_section(rng, 4, cutoff=1)
        v = random_section(rng, 4, cutoff=1)
        err = max(err, abs(man.dirac.apply(u).inner(v) - u.inner(man.dirac.apply(v))))
    return err


def _chk_multiply_algebra(rng, cfg):
    """Commutative associative product with Leibniz derivatives, pinned to
    pointwise evaluation.

    Draws: 3 rounds x (3 scalars + 5 sample points x 4 uniforms).
    """
    err = 0.0
    for _ in range(3):
        f = random_scalar(rng, cutoff=cfg.mode_cutoff)
        g = random_scalar(rng, cutoff=cfg.mode_cutoff)
        h = random_scalar(rng, cutoff=cfg.mode_cutoff)
        err = max(err, ((f * g) - (g * f)).max_abs())
        err = max(err, (((f * g) * h) - (f * (g * h))).max_abs())
        err = max(err, ((f * FourierScalar.one()) - f).max_abs())
        for mu in range(4):
            leib = (f * g).derivative(mu) - f.derivative(mu) * g - f * g.derivative(mu)
            err = max(err, leib.max_abs())
        prod = f * g
        for _ in range(5):
            x = rng.uniform(0.0, 2.0 * np.pi, size=4)
            err = max(err, abs(prod(x) - f(x) * g(x)))
    return err


def _chk_real_closure(rng, cfg):
    """Antilinear structure: antiunitary on sections, conjugates one-form
    coefficients, fixes the identity.

    Draws: 2 rounds x (2 sections + 2 elements).
    """
    err = 0.0
    man = ManifoldGeometry()
    j = man.real_structure
    err = max(
        err,
        normal_form_distance(
            man.real_conjugate(FieldOperator.identity(4)), FieldOperator.identity(4)
        ),
    )
    for _ in range(2):
        u = random_section(rng, 4, cutoff=1)
        v = random_section(rng, 4, cutoff=1)
        err = max(err, abs(j.apply(u).inner(j.apply(v)) - v.inner(u)))
        om = man.one_form(
            [
                (
                    random_element(rng, 1, cutoff=cfg.mode_cutoff),
                    random_element(rng, 1, cutoff=cfg.mode_cutoff),
                )
            ]
        )
        h, hp = man.one_form_parameters(om)
        h2, hp2 = man.one_form_parameters(man.real_conjugate(om))
        for mu in range(4):
            err = max(err, (h2[mu] - h[mu].conjugate()).max_abs())
            err = max(err, (hp2[mu] - hp[mu].conjugate()).max_abs())
    return err


def _chk_manifold_action_closed_form(rng, cfg):
    """Engine, quadratic reassembly, and the closed density agree
    coefficient by coefficient.

    Draws: 2 instances of overlapping Weyl inputs.
    """
    err = 0.0
    man = ManifoldGeometry()
    for _ in range(2):
        w, f, g = overlapping_action_inputs(rng, 2, cutoff=cfg.mode_cutoff)
        err = max(err, _closed_form_error(man, promote_weyl_fields(w), f, g)[0])
    return err


def _chk_selfadjoint_edge_cases(rng, cfg):
    """Imaginary chiral parameters give a self-adjoint one-form with a
    silent fluctuation; real ones keep it audible; mismatched conjugates
    break self-adjointness on both detection routes.

    Draws: 2 rounds x 8 real scalars.
    """
    err = 0.0
    man = ManifoldGeometry()
    for _ in range(2):
        h_im = [1j * random_scalar(rng, real=True) for _ in range(4)]
        hp_im = [(-1.0) * c.conjugate() for c in h_im]
        om = man.one_form_from_parameters(h_im, hp_im)
        err = max(err, (om - om.adjoint()).max_abs())
        err = max(err, man.fluctuation(om).max_abs())

        h_re = [random_scalar(rng, real=True) for _ in range(4)]
        hp_re = [(-1.0) * c.conjugate() for c in h_re]
        om2 = man.one_form_from_parameters(h_re, hp_re)
        err = max(err, (om2 - om2.adjoint()).max_abs())
        err = max(err, _fail_unless(man.fluctuation(om2).max_abs() > 1e-6))

        hp_bad = [c + FourierScalar.one() for c in hp_re]
        om3 = man.one_form_from_parameters(h_re, hp_bad)
        err = max(err, _fail_unless((om3 - om3.adjoint()).max_abs() > 1e-6))
        err = max(err, _fail_unless(selfadjoint_defect_parameters(h_re, hp_bad) > 1e-6))
    return err


# ---------------------------------------------------------------------------
# doubled group
# ---------------------------------------------------------------------------


def _chk_doubled_action_closed_form(rng, cfg):
    """Two-sheet engine vs closed density vs twice the single sheet.

    Draws: 2 instances of overlapping Weyl inputs.
    """
    err = 0.0
    man = ManifoldGeometry()
    dbl = DoubledGeometry()
    for _ in range(2):
        w, f, g = overlapping_action_inputs(rng, 2, cutoff=cfg.mode_cutoff)
        pro = promote_weyl_fields(w)
        route_err, eng = _closed_form_error(dbl, pro, f, g)
        single = fermionic_action(man, man.dressed_dirac(f, None), pro)
        err = max(err, route_err, abs(eng - 2 * single))
    return err


def _chk_selfadjoint_fluctuations(rng, cfg):
    """Parameter test `z' = -conj(z)` tracks operator self-adjointness in
    both directions on the sectored spaces, with the symmetrized completion
    and the forced-parameter construction; imaginary parameters kill the
    chiral potential.

    Draws: 2 normals + per sectored geometry (20 one-form pairs + 10 x 4
    scalars + 4 real scalars).
    """
    err = 0.0
    _, dbl, elec = _geometries(rng)
    for geo in (dbl, elec):
        for _ in range(20):
            fl = geo.fluctuation(
                geo.one_form(
                    [
                        (
                            random_element(rng, 2, cutoff=1),
                            random_element(rng, 2, cutoff=1),
                        )
                    ]
                )
            )
            z, zp = geo.fluctuation_parameters(fl)
            op_defect = (fl - fl.adjoint()).max_abs()
            par_defect = selfadjoint_defect_parameters(z, zp)
            err = max(err, _fail_unless((op_defect < 1e-9) == (par_defect < 1e-9)))
            sym = fl + fl.adjoint()
            zs, zps = geo.fluctuation_parameters(sym)
            err = max(err, selfadjoint_defect_parameters(zs, zps))
        for _ in range(10):
            z = [random_scalar(rng) for _ in range(4)]
            forced = geo.fluctuation_from_z(z, [(-1.0) * c.conjugate() for c in z])
            err = max(err, (forced - forced.adjoint()).max_abs())
        g = [random_scalar(rng, real=True) for _ in range(4)]
        z_im = [1j * c for c in g]
        purely = geo.fluctuation_from_z(z_im, z_im)
        f2, g2 = geo.vector_potentials(purely)
        for mu in range(4):
            err = max(err, f2[mu].max_abs(), (g2[mu] - g[mu]).max_abs())
        err = max(err, (purely - purely.adjoint()).max_abs())
    return err


# ---------------------------------------------------------------------------
# electrodynamics group
# ---------------------------------------------------------------------------


def _chk_finite_part_commutes(rng, cfg):
    """The constant mass block has exactly vanishing twisted commutators.

    Draws: 2 normals (mass) + 8 elements.
    """
    err = 0.0
    d = complex(rng.standard_normal(), rng.standard_normal())
    geo = ElectrodynamicsGeometry(d)
    fp = geo.dirac_finite_part
    for _ in range(8):
        pa = geo.represent(random_element(rng, 2, cutoff=cfg.mode_cutoff))
        err = max(err, (fp @ pa - geo.twist(pa) @ fp).max_abs())
    return err


def _chk_finite_space_structure(rng, cfg):
    """Mass block layout: the four-by-four internal matrix, its hermiticity,
    the tensor assembly with the chirality element, and its anticommutation
    with the internal grading.

    Draws: 2 normals (mass).
    """
    err = 0.0
    d = complex(rng.standard_normal(), rng.standard_normal())
    geo = ElectrodynamicsGeometry(d)
    dc = np.conj(d)
    internal = np.array(
        [[0, d, 0, 0], [dc, 0, 0, 0], [0, 0, 0, dc], [0, 0, d, 0]], dtype=complex
    )
    err = max(err, np.abs(geo.internal_dirac - internal).max())
    err = max(err, np.abs(internal - internal.conj().T).max())
    err = max(
        err,
        normal_form_distance(
            geo.dirac_finite_part, FieldOperator.from_matrix(np.kron(internal, GAMMA5))
        ),
    )
    gf = np.diag([1.0, -1.0, -1.0, 1.0])
    err = max(err, np.abs(gf @ internal + internal @ gf).max())
    err = max(err, np.abs(geo.grading_matrix - np.kron(gf, GAMMA5)).max())
    j = geo.real_structure
    err = max(
        err, normal_form_distance(j @ geo.dirac_finite_part, geo.dirac_finite_part @ j)
    )
    return err


def _chk_electro_action_closed_form(rng, cfg):
    """Four-sector engine vs the closed density and the additive split of
    the four operator summands, including the imaginary-mass point.

    Draws: 3 instances x (2 normals for the mass + overlapping inputs).
    """
    err = 0.0
    for k in range(3):
        if k == 2:
            d = 1j * (abs(rng.standard_normal()) + 0.2)
            rng.standard_normal()
        else:
            d = complex(rng.standard_normal(), rng.standard_normal())
        geo = ElectrodynamicsGeometry(d)
        w, f, g = overlapping_action_inputs(rng, 4, cutoff=cfg.mode_cutoff)
        pro = promote_weyl_fields(w)
        route_err, eng = _closed_form_error(geo, pro, f, g)
        total = GrassmannNumber.zero()
        for piece in electro_operator_pieces(geo, f, g).values():
            total = total + fermionic_action(geo, piece, pro)
        err = max(err, route_err, abs(total - eng))
    return err


# ---------------------------------------------------------------------------
# actions group
# ---------------------------------------------------------------------------


def _chk_graded_commutativity(rng, cfg):
    """Generator algebra plus the plain-vs-promoted dichotomy: the engine
    output is pure degree two and vanishes on unpromoted diagonal data.

    Draws: 1 overlapping input set.
    """
    t1, t2 = GrassmannNumber.generator(0), GrassmannNumber.generator(1)
    err = abs(t1 * t2 + t2 * t1)
    err = max(err, abs(t1 * t1))
    err = max(err, abs((t1 + t2) * (t1 - t2) + 2 * (t1 * t2)))
    dbl = DoubledGeometry()
    w, f, _ = overlapping_action_inputs(rng, 2, cutoff=cfg.mode_cutoff)
    op = dbl.dressed_dirac(f, None)
    pro = promote_weyl_fields(w)
    eng = fermionic_action(dbl, op, pro)
    err = max(err, abs(eng - eng.degree_part(2)))
    err = max(err, _fail_unless(abs(eng) > 1e-6))
    plain = dbl.h_r_section(list(w))
    err = max(err, abs(twisted_pairing(dbl, op, plain, plain)))
    return err


def _chk_pair_form_oracle(rng, cfg):
    """Quadratic form expansion against an explicit generator double loop
    and the coefficient-matrix round trip.

    Draws: 2 rounds x 72 normals.
    """
    err = 0.0
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
        err = max(err, abs(form - oracle))
        err = max(err, np.abs(pair_coefficient_matrix(form, n) - (b - b.T)).max())
    return err


def _chk_operator_composition(rng, cfg):
    """Operators act on promoted sections exactly as on their generator
    decomposition, and composition matches sequential application.

    Draws: 3 rounds x (1 Weyl field + 8 normals for matrices).
    """
    err = 0.0
    from .actions import _deriv2

    for _ in range(3):
        w = random_weyl_fields(rng, 1, cutoff=1)[0]
        m1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        op = FieldOperator.from_matrix(m1) + _deriv2(m2, 2)
        pro = promote_weyl_fields([w])
        applied = op.apply(pro.fields[0])
        rebuilt = Section(2)
        for i, column in enumerate(np.diag(pro.amplitudes)):
            piece = op.apply(unit_weyl_fields(pro, i)[0])
            rebuilt = rebuilt + Section(
                2, {k: np.outer(v, column) for k, v in piece.coeffs.items()}
            )
        err = max(err, (applied - rebuilt).max_abs())
        op2 = FieldOperator.from_matrix(m2) + _deriv2(m1, 0)
        err = max(
            err,
            ((op @ op2).apply(pro.fields[0]) - op.apply(op2.apply(pro.fields[0]))).max_abs(),
        )
    return err


def _chk_term_symmetry_split(rng, cfg):
    """Single-sheet component forms sort by conjugation behaviour: the
    vector term is symmetric on plain spinors and antisymmetric after
    promotion, the derivative, chiral, and chirality-block terms the
    opposite.

    Draws: 2 rounds x (pool construction + 2 fiber-4 sections + 8
    potentials + independently promoted copies).
    """
    err = 0.0
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
            err = max(err, abs(p_uv - sign * p_vu))
            err = max(err, _fail_unless(abs(p_uv) > 1e-6))
            g_uv = grassmann_inner(j.apply(phi_g), op.apply(xi_g))
            g_vu = grassmann_inner(j.apply(xi_g), op.apply(phi_g))
            err = max(err, abs(g_uv + sign * g_vu))
    return err


def _chk_printed_factor_conventions(rng, cfg):
    """Relative normalisations: sheet doubling, the density split of the
    single-sheet form, and the zero-rapidity collapse of the boosted
    densities.

    Draws: 1 overlapping input set (4 fields) + 2 normals for the mass.
    """
    err = 0.0
    man = ManifoldGeometry()
    dbl = DoubledGeometry()
    w, f, g = overlapping_action_inputs(rng, 4, cutoff=cfg.mode_cutoff)
    pro2 = promote_weyl_fields(w[:2])
    man_eng = fermionic_action(man, man.dressed_dirac(f, None), pro2)
    dbl_eng = fermionic_action(dbl, dbl.dressed_dirac(f, None), pro2)
    err = max(err, abs(dbl_eng - 2 * man_eng))
    err = max(err, _fail_unless(abs(man_eng) > 1e-6))
    lag = manifold_lagrangian_action(pro2.fields[0], pro2.fields[1], f[0])
    split = weyl_potential_form(
        pro2.fields[0], pro2.fields[1], f[0]
    ) + weyl_derivative_form(pro2.fields[0], pro2.fields[1])
    err = max(err, abs(lag + split))
    b_man = boosted_manifold_lagrangian_action(
        pro2.fields[0], pro2.fields[1], f, IDENTITY_BOOST
    )
    err = max(err, abs(b_man - lag))
    d = complex(rng.standard_normal(), rng.standard_normal())
    pro4 = promote_weyl_fields(w)
    b_el = boosted_electro_lagrangian_action(pro4.fields, f, g, d, IDENTITY_BOOST)
    p_el = electro_lagrangian_action(pro4.fields, f, g, d)
    err = max(err, abs(b_el - p_el))
    return err


def _chk_twisted_pairing_antisymmetry(rng, cfg):
    """Full dressed pairing on distinguished sections: antisymmetric with a
    vanishing diagonal, equal to minus the untwisted pairing, and the
    chirality-positive part of the fixed subspace is null.

    Draws: 2 normals + per geometry 1 overlapping input set (2 x slots).
    """
    err = 0.0
    for geo in _geometries(rng):
        n = geo.n_sectors
        w, f, g = overlapping_action_inputs(rng, 2 * n, cutoff=cfg.mode_cutoff)
        op = geo.dressed_dirac(f, g)
        u = geo.h_r_section(list(w[:n]))
        v = geo.h_r_section(list(w[n:]))
        err = max(err, geo.r_defect(u), geo.r_defect(v))
        p_uv = complex(grassmann_inner(
            geo.real_structure.apply(u), geo.r_operator.apply(op.apply(v))
        ).coefficient(()))
        p_vu = complex(twisted_pairing(geo, op, v, u).coefficient(()))
        err = max(err, abs(p_uv + p_vu))
        err = max(err, _fail_unless(abs(p_uv) > 1e-6))
        err = max(err, abs(twisted_pairing(geo, op, u, u).coefficient(())))
        err = max(
            err,
            abs(
                complex(twisted_pairing(geo, op, u, v).coefficient(()))
                + complex(untwisted_pairing(geo, op, u, v).coefficient(()))
            ),
        )
        err = max(err, geo.chirality_real_overlap())
    return err


# ---------------------------------------------------------------------------
# gauge group
# ---------------------------------------------------------------------------


def _chk_potential_shift_laws(rng, cfg):
    """Pure-phase transforms shift the chiral potentials by the phase
    gradient; matched sector phases leave the chiral field alone and shift
    only the vector one.

    Draws: phase modes and one one-form per geometry, then 8 mode
    integers + 8 real scalars for the matched-phase split.
    """
    err = 0.0
    man = ManifoldGeometry()
    k = tuple(int(v) for v in rng.integers(-2, 3, size=4))
    kp = tuple(int(v) for v in rng.integers(-2, 3, size=4))
    u = man.element(wave_phase(k, 0.3), wave_phase(kp, -1.1))
    err = max(err, u.unitarity_defect())
    om = man.one_form([(random_element(rng, 1), random_element(rng, 1))])
    h, hp = man.one_form_parameters(om)
    h2, hp2 = man.one_form_parameters(man.gauge_transformed(om, u))
    for mu in range(4):
        err = max(
            err, (h2[mu] - h[mu] - FourierScalar.constant(-1j * k[mu])).max_abs()
        )
        err = max(
            err, (hp2[mu] - hp[mu] - FourierScalar.constant(-1j * kp[mu])).max_abs()
        )
    for geo in (DoubledGeometry(), ElectrodynamicsGeometry(d=0.5 + 0.2j)):
        ka = tuple(int(v) for v in rng.integers(-1, 2, size=4))
        kb = tuple(int(v) for v in rng.integers(-1, 2, size=4))
        kap = tuple(int(v) for v in rng.integers(-1, 2, size=4))
        kbp = tuple(int(v) for v in rng.integers(-1, 2, size=4))
        u2 = geo.element(
            (wave_phase(ka, 0.2), wave_phase(kb, 0.7)),
            (wave_phase(kap, -0.4), wave_phase(kbp, 1.5)),
        )
        om2 = geo.one_form([(random_element(rng, 2), random_element(rng, 2))])
        z, zp = geo.fluctuation_parameters(geo.fluctuation(om2))
        z2, zp2 = geo.fluctuation_parameters(
            geo.fluctuation(geo.gauge_transformed(om2, u2))
        )
        for mu in range(4):
            shift = FourierScalar.constant(-1j * (ka[mu] - kbp[mu]))
            shift_p = FourierScalar.constant(-1j * (kap[mu] - kb[mu]))
            err = max(err, (z2[mu] - z[mu] - shift).max_abs())
            err = max(err, (zp2[mu] - zp[mu] - shift_p).max_abs())
    elec = ElectrodynamicsGeometry(d=-1j)
    ka = tuple(int(v) for v in rng.integers(-1, 2, size=4))
    kb = tuple(int(v) for v in rng.integers(-1, 2, size=4))
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
        err = max(err, (f2[mu] - f[mu]).max_abs())
        expected = g[mu] + FourierScalar.constant(-(ka[mu] - kb[mu]))
        err = max(err, (g2[mu] - expected).max_abs())
    return err


def _chk_adjoint_action(rng, cfg):
    """Doubled-unitary conjugation: trivial on the single-sector space,
    component phases on the sectored ones, and matched phases preserve the
    fixed subspace.

    Draws: 16 mode integers + per geometry section fields.
    """
    err = 0.0
    man = ManifoldGeometry()
    k = tuple(int(v) for v in rng.integers(-2, 3, size=4))
    kp = tuple(int(v) for v in rng.integers(-2, 3, size=4))
    u = man.element(wave_phase(k, 0.9), wave_phase(kp))
    cmp_res = operator_equal(
        man.adjoint_action(u), FieldOperator.identity(4), probe_cutoff=cfg.probe_cutoff
    )
    err = max(err, cmp_res.max_abs_error)
    for geo in (DoubledGeometry(), ElectrodynamicsGeometry(d=-1j)):
        ka = tuple(int(v) for v in rng.integers(-1, 2, size=4))
        kb = tuple(int(v) for v in rng.integers(-1, 2, size=4))
        kap = tuple(int(v) for v in rng.integers(-1, 2, size=4))
        kbp = tuple(int(v) for v in rng.integers(-1, 2, size=4))
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
        err = max(err, normal_form_distance(geo.adjoint_action(u2), expected))
        matched = geo.element(
            (wave_phase(ka), wave_phase(kb)), (wave_phase(ka), wave_phase(kb))
        )
        fields = random_weyl_fields(rng, geo.n_sectors, cutoff=1)
        s = geo.h_r_section(fields)
        err = max(err, geo.r_defect(geo.adjoint_action(matched).apply(s)))
    return err


def _chk_action_phase_absorption(rng, cfg):
    """Matched-phase gauge moves leave the four-sector pairing untouched
    when the operator and both distinguished slots transform together.

    Draws: 2 rounds x (2 normals + 8 overlapping fields + 2 one-form
    elements + 8 mode integers).
    """
    err = 0.0
    for _ in range(2):
        d = complex(rng.standard_normal(), rng.standard_normal())
        geo = ElectrodynamicsGeometry(d)
        fields, _, _ = overlapping_action_inputs(rng, 8, cutoff=cfg.mode_cutoff)
        s = geo.h_r_section(fields[:4])
        t = geo.h_r_section(fields[4:])
        om = geo.one_form([(random_element(rng, 2), random_element(rng, 2))])
        op = geo.dirac + geo.fluctuation(om)
        ka = tuple(int(v) for v in rng.integers(-1, 2, size=4))
        kb = tuple(int(v) for v in rng.integers(-1, 2, size=4))
        u = geo.element(
            (wave_phase(ka), wave_phase(kb)), (wave_phase(ka), wave_phase(kb))
        )
        op_u = geo.dirac + geo.fluctuation(geo.gauge_transformed(om, u))
        big_u = geo.adjoint_action(u)
        base = complex(twisted_pairing(geo, op, s, t).coefficient(()))
        moved = complex(
            twisted_pairing(geo, op_u, big_u.apply(s), big_u.apply(t)).coefficient(())
        )
        err = max(err, abs(moved - base))
        err = max(err, _fail_unless(abs(base) > 1e-6))
        err = max(err, geo.r_defect(big_u.apply(s)))
    return err


# ---------------------------------------------------------------------------
# boost group
# ---------------------------------------------------------------------------


def _chk_boost_action_invariance(rng, cfg):
    """Boosting the operator and both slots fixes the pairing; the twisted
    product itself is boost-invariant.

    Draws: 2 normals + per geometry (1 input set + 2 boosts + 2 plain
    sections).  Skipped at zero rapidity cap.
    """
    if cfg.rapidity_max == 0:
        return None
    err = 0.0
    for geo in _geometries(rng):
        w, f, g = overlapping_action_inputs(rng, geo.n_weyl_fields, cutoff=cfg.mode_cutoff)
        op = geo.dressed_dirac(f, g)
        pro = promote_weyl_fields(w)
        plain = fermionic_action(geo, op, pro)
        err = max(err, _fail_unless(abs(plain) > 1e-6))
        ident = FieldOperator.identity(geo.fiber_dim)
        for _ in range(2):
            boost = _draw_boost(rng, cfg)
            moved = fermionic_action(geo, op, pro, boost=boost)
            err = max(err, abs(moved - plain))
            u = random_section(rng, geo.fiber_dim, cutoff=1)
            v = random_section(rng, geo.fiber_dim, cutoff=1)
            lhs = boosted_pairing(geo, ident, boost, u, v)
            rhs = twisted_pairing(geo, ident, u, v)
            err = max(err, abs(complex(lhs.coefficient(())) - complex(rhs.coefficient(()))))
    return err


def _chk_boosted_manifold_closed_form(rng, cfg):
    """Boosted single-sheet engine vs the boosted closed density.

    Draws: 2 boosts x 1 overlapping input set.  Skipped at zero rapidity cap.
    """
    if cfg.rapidity_max == 0:
        return None
    err = 0.0
    man = ManifoldGeometry()
    for _ in range(2):
        boost = _draw_boost(rng, cfg)
        w, f, g = overlapping_action_inputs(rng, 2, cutoff=cfg.mode_cutoff)
        err = max(err, _closed_form_error(man, promote_weyl_fields(w), f, g, boost)[0])
    return err


def _chk_boosted_doubled_closed_form(rng, cfg):
    """Boosted two-sheet engine vs the boosted closed density.

    Draws: 2 boosts x 1 overlapping input set.  Skipped at zero rapidity cap.
    """
    if cfg.rapidity_max == 0:
        return None
    err = 0.0
    dbl = DoubledGeometry()
    for _ in range(2):
        boost = _draw_boost(rng, cfg)
        w, f, g = overlapping_action_inputs(rng, 2, cutoff=cfg.mode_cutoff)
        err = max(err, _closed_form_error(dbl, promote_weyl_fields(w), f, g, boost)[0])
    return err


def _chk_boosted_electro_closed_form(rng, cfg):
    """Boosted four-sector engine vs the boosted closed density.

    Draws: 2 boosts x (2 normals + 1 overlapping input set).  Skipped at
    zero rapidity cap.
    """
    if cfg.rapidity_max == 0:
        return None
    err = 0.0
    for _ in range(2):
        boost = _draw_boost(rng, cfg)
        d = complex(rng.standard_normal(), rng.standard_normal())
        geo = ElectrodynamicsGeometry(d)
        w, f, g = overlapping_action_inputs(rng, 4, cutoff=cfg.mode_cutoff)
        err = max(err, _closed_form_error(geo, promote_weyl_fields(w), f, g, boost)[0])
    return err


# ---------------------------------------------------------------------------
# dynamics group
# ---------------------------------------------------------------------------


def _chk_determinant_kernel_duality(rng, cfg):
    """Vanishing determinant coincides with a nontrivial kernel over every
    system family.

    Draws: 250 samples per kind; boosted families drop out at zero rapidity
    cap and draw their own boosts within it otherwise.
    """
    kinds = PROBLEM_KINDS
    if cfg.rapidity_max == 0:
        kinds = tuple(k for k in kinds if not k.startswith("boosted"))
    err = 0.0
    for kind in kinds:
        sweep = duality_sweep(
            rng, kind, n_samples=250, max_half_rapidity=_half_cap(cfg)
        )
        err = max(err, sweep["worst_kernel_residual"])
        err = max(err, _fail_unless(sweep["violations"] == 0))
        err = max(err, _fail_unless(sweep["singular"] >= 25))
        err = max(err, _fail_unless(sweep["min_generic_det"] > 1e-10))
        err = max(err, _fail_unless(sweep["max_singular_det"] <= 1e-10))
    return err


def _chk_dispersion_surfaces(rng, cfg):
    """Closed determinant formulas and mass-shell roots.

    Draws: 10 generic four-by-four draws x 2 + 10 two-by-two draws + 10
    imaginary-mass shell draws + 10 on-shell boosted problems.
    """
    err = 0.0
    for _ in range(10):
        f0 = float(rng.standard_normal())
        g3 = rng.standard_normal(3)
        d = complex(rng.standard_normal(), rng.standard_normal())
        p = rng.standard_normal(4)
        for primed in (False, True):
            res = dirac_system(f0, g3, d, p, primed=primed)
            mass = -1j * d
            big_p = p[1:] + g3
            closed = (f0**2 - big_p @ big_p - mass * mass) ** 2
            err = max(err, abs(res.determinant - closed))
    for _ in range(10):
        f0 = float(rng.standard_normal())
        p = rng.standard_normal(4)
        handed = "left" if rng.uniform() < 0.5 else "right"
        res = weyl_system(f0, p, handed)
        norm = float(np.linalg.norm(p[1:]))
        err = max(err, abs(res.determinant - (f0**2 - norm**2)))
        err = max(err, abs(abs(res.roots[0]) - norm), abs(abs(res.roots[1]) - norm))
        on_shell = weyl_system(float(res.roots[1]), p, handed)
        err = max(err, abs(on_shell.determinant))
        err = max(err, _fail_unless(on_shell.singular))
    for _ in range(10):
        mass = abs(rng.standard_normal()) + 0.1
        g3 = rng.standard_normal(3)
        p = rng.standard_normal(4)
        primed = rng.uniform() < 0.5
        shell = float(np.sqrt((p[1:] + g3) @ (p[1:] + g3) + mass**2))
        res = dirac_system(shell, g3, 1j * mass, p, primed=primed)
        err = max(err, abs(res.determinant))
        err = max(err, _fail_unless(res.singular))
        err = max(err, abs(res.roots[0] - shell), abs(res.roots[1] + shell))
    boosted_kinds = ("boosted-dirac", "boosted-dirac-primed")
    if cfg.rapidity_max > 0:
        for _ in range(10):
            kind = boosted_kinds[int(rng.uniform() < 0.5)]
            problem = on_shell_problem(rng, kind, max_half_rapidity=_half_cap(cfg))
            res = problem.solve()
            err = max(err, _fail_unless(res.singular))
            err = max(err, abs(res.determinant))
    return err


def _chk_kernel_boost_covariance(rng, cfg):
    """On-shell kernels transport through the boost half-blocks.

    Draws: 3 boosts x (2 Weyl chiralities + 2 Dirac branches) x field
    normals.  Skipped at zero rapidity cap.
    """
    if cfg.rapidity_max == 0:
        return None
    err = 0.0
    for _ in range(3):
        boost = _draw_boost(rng, cfg)
        for handed in ("left", "right"):
            err = max(err, weyl_kernel_covariance(boost, rng.standard_normal(3), handed))
        for primed in (False, True):
            err = max(
                err,
                dirac_kernel_covariance(
                    boost,
                    rng.standard_normal(3),
                    rng.standard_normal(4),
                    abs(rng.standard_normal()) + 0.1,
                    primed,
                ),
            )
    return err


def _chk_euler_lagrange_consistency(rng, cfg):
    """Variational matrices agree with the dispersion systems for every
    density family.

    Draws: 6 kinds x 3 rounds x (psi, p, f, g, d, mass normals + 1 boost).
    """
    err = 0.0
    for kind in EL_KINDS:
        dim = 4 if kind in ("dirac", "dirac-primed", "boosted-weyl", "minkowski") else 2
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
            err = max(
                err,
                euler_lagrange_check(
                    kind, psi, p, f=fvec, g=gvec, d=d, boost=boost, mass=mass
                ),
            )
    return err


def _chk_boosted_reduction(rng, cfg):
    """Boosted systems reduce to scaled flat ones at identification momenta.

    Draws: 6 boosts x (2 chiralities + 2 branches) x field normals.
    Skipped at zero rapidity cap.
    """
    if cfg.rapidity_max == 0:
        return None
    err = 0.0
    for _ in range(6):
        boost = _draw_boost(rng, cfg)
        f4 = rng.standard_normal(4)
        g4 = rng.standard_normal(4)
        d = complex(rng.standard_normal(), rng.standard_normal())
        for handed in ("left", "right"):
            err = max(err, boosted_weyl_reduction_residual(boost, f4, handed))
        for primed in (False, True):
            err = max(err, boosted_dirac_reduction_residual(boost, f4, g4, d, primed))
    return err


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


REGISTRY: tuple[CheckSpec, ...] = (
    CheckSpec(
        "clifford.euclidean_anticommutators",
        "gamma matrices pair to twice the Kronecker delta; the grading "
        "twist flips the spatial ones",
        1e-14,
        _chk_euclidean_anticommutators,
    ),
    CheckSpec(
        "clifford.minkowski_anticommutators",
        "flat-metric gamma matrices pair to twice the metric",
        1e-14,
        _chk_minkowski_anticommutators,
    ),
    CheckSpec(
        "clifford.sigma_pair_identities",
        "two-by-two sigma blocks assemble the gammas and trace to the metric",
        1e-14,
        _chk_sigma_pair_identities,
    ),
    CheckSpec(
        "clifford.spin_boost_structure",
        "self-adjoint non-unitary spin boosts with mutually inverse "
        "half-blocks swapped by conjugation",
        1e-12,
        _chk_spin_boost_structure,
    ),
    CheckSpec(
        "clifford.lorentz_extraction_routes",
        "vector boost matrix from the spinor one: trace route, sigma "
        "decomposition, metric preservation, rapidity additivity",
        1e-12,
        _chk_lorentz_extraction_routes,
    ),
    CheckSpec(
        "axioms.order_zero",
        "represented algebra commutes with its conjugated copy",
        1e-12,
        _chk_order_zero,
    ),
    CheckSpec(
        "axioms.twisted_first_order",
        "twisted commutators commute with the conjugated algebra up to the "
        "twist",
        1e-12,
        _chk_twisted_first_order,
    ),
    CheckSpec(
        "axioms.ko_signs",
        "conjugation squares to minus one, commutes with the operator, "
        "carries the per-geometry grading sign, anticommutes with the "
        "twist unitary",
        1e-12,
        _chk_ko_signs,
    ),
    CheckSpec(
        "axioms.rho_adjoint_involution",
        "the flip is conjugation by the twist unitary and its adjoint is "
        "involutive, also through the twisted product",
        1e-10,
        _chk_rho_adjoint_involution,
    ),
    CheckSpec(
        "axioms.grading_relations",
        "grading is a self-adjoint involution, odd for the operator, even "
        "for the algebra",
        1e-12,
        _chk_grading_relations,
    ),
    CheckSpec(
        "axioms.full_axiom_suite",
        "star homomorphism, evenness, and both order conditions at volume",
        1e-12,
        _chk_full_axiom_suite,
    ),
    CheckSpec(
        "axioms.fluctuation_round_trip",
        "potential extraction inverts fluctuation assembly on every "
        "geometry",
        1e-12,
        _chk_fluctuation_round_trip,
    ),
    CheckSpec(
        "manifold.integration_by_parts",
        "total derivatives integrate away and the flat operator is "
        "symmetric",
        1e-12,
        _chk_integration_by_parts,
    ),
    CheckSpec(
        "manifold.multiply_algebra",
        "commutative associative function product with Leibniz derivative, "
        "pinned to pointwise evaluation",
        1e-12,
        _chk_multiply_algebra,
    ),
    CheckSpec(
        "manifold.real_closure",
        "charge conjugation is antiunitary and conjugates one-form "
        "coefficients",
        1e-12,
        _chk_real_closure,
    ),
    CheckSpec(
        "manifold.action_closed_form",
        "single-sheet engine equals the closed two-spinor density",
        1e-10,
        _chk_manifold_action_closed_form,
    ),
    CheckSpec(
        "manifold.selfadjoint_edge_cases",
        "imaginary chiral parameters: self-adjoint one-form, silent "
        "fluctuation; real ones stay audible",
        1e-12,
        _chk_selfadjoint_edge_cases,
    ),
    CheckSpec(
        "doubled.action_closed_form",
        "two-sheet engine equals the closed density and twice the single "
        "sheet",
        1e-10,
        _chk_doubled_action_closed_form,
    ),
    CheckSpec(
        "doubled.selfadjoint_fluctuations",
        "the conjugate-pair parameter test tracks operator self-adjointness "
        "in both directions on the sectored spaces",
        1e-12,
        _chk_selfadjoint_fluctuations,
    ),
    CheckSpec(
        "electrodynamics.finite_part_commutes",
        "the constant mass block has exactly vanishing twisted commutators",
        1e-14,
        _chk_finite_part_commutes,
    ),
    CheckSpec(
        "electrodynamics.finite_space_structure",
        "hermitian mass block layout, its tensor assembly with the "
        "chirality element, and the internal grading anticommutation",
        1e-14,
        _chk_finite_space_structure,
    ),
    CheckSpec(
        "electrodynamics.action_closed_form",
        "four-sector engine equals the closed covariant density and the "
        "four-piece split is additive",
        1e-10,
        _chk_electro_action_closed_form,
    ),
    CheckSpec(
        "actions.graded_commutativity",
        "anticommuting generators square to zero; the pairing is pure "
        "degree two after promotion and null on plain diagonal data",
        1e-10,
        _chk_graded_commutativity,
    ),
    CheckSpec(
        "actions.pair_form_oracle",
        "quadratic form expansion equals the explicit generator double "
        "loop; coefficient matrices round-trip antisymmetrized",
        1e-12,
        _chk_pair_form_oracle,
    ),
    CheckSpec(
        "actions.operator_composition",
        "operators act generator-linearly on promoted sections and compose "
        "associatively",
        1e-12,
        _chk_operator_composition,
    ),
    CheckSpec(
        "actions.term_symmetry_split",
        "the vector term form is symmetric on plain spinors, the "
        "derivative, chiral, and chirality-block forms antisymmetric, "
        "with both characters exchanged after promotion",
        1e-10,
        _chk_term_symmetry_split,
    ),
    CheckSpec(
        "actions.printed_factor_conventions",
        "sheet doubling, the sub-density split, and the zero-rapidity "
        "collapse of the boosted densities",
        1e-10,
        _chk_printed_factor_conventions,
    ),
    CheckSpec(
        "actions.twisted_pairing_antisymmetry",
        "dressed pairing is antisymmetric with null diagonal, equals minus "
        "the untwisted one on the fixed subspace, and the "
        "chirality-positive fixed part is null",
        1e-10,
        _chk_twisted_pairing_antisymmetry,
    ),
    CheckSpec(
        "gauge.potential_shift_laws",
        "pure phases shift the chiral potentials by their gradient; "
        "matched sector phases shift only the vector potential",
        1e-12,
        _chk_potential_shift_laws,
    ),
    CheckSpec(
        "gauge.adjoint_action",
        "doubled-unitary conjugation: trivial single-sector, component "
        "phases sectored, fixed subspace preserved for matched phases",
        1e-12,
        _chk_adjoint_action,
    ),
    CheckSpec(
        "gauge.action_phase_absorption",
        "matched-phase gauge moves leave the four-sector pairing untouched",
        1e-10,
        _chk_action_phase_absorption,
    ),
    CheckSpec(
        "boost.action_invariance",
        "boosting operator and slots together fixes the pairing; the "
        "twisted product is boost-invariant",
        1e-9,
        _chk_boost_action_invariance,
    ),
    CheckSpec(
        "boost.manifold_closed_form",
        "boosted single-sheet engine equals the boosted closed density",
        1e-9,
        _chk_boosted_manifold_closed_form,
    ),
    CheckSpec(
        "boost.doubled_closed_form",
        "boosted two-sheet engine equals the boosted closed density",
        1e-9,
        _chk_boosted_doubled_closed_form,
    ),
    CheckSpec(
        "boost.electro_closed_form",
        "boosted four-sector engine equals the boosted closed density",
        1e-9,
        _chk_boosted_electro_closed_form,
    ),
    CheckSpec(
        "dynamics.determinant_kernel_duality",
        "vanishing determinant coincides with a nontrivial kernel across "
        "all plane-wave families",
        1e-9,
        _chk_determinant_kernel_duality,
    ),
    CheckSpec(
        "dynamics.dispersion_surfaces",
        "closed determinant formulas and mass-shell roots for every family",
        1e-9,
        _chk_dispersion_surfaces,
    ),
    CheckSpec(
        "dynamics.kernel_boost_covariance",
        "on-shell kernels transport through the boost half-blocks",
        1e-9,
        _chk_kernel_boost_covariance,
    ),
    CheckSpec(
        "dynamics.euler_lagrange_consistency",
        "variational matrices of the densities equal the dispersion "
        "systems",
        1e-12,
        _chk_euler_lagrange_consistency,
    ),
    CheckSpec(
        "dynamics.boosted_reduction",
        "boosted systems reduce to scaled flat ones at identification "
        "momenta",
        1e-9,
        _chk_boosted_reduction,
    ),
)


if len({spec.check_id for spec in REGISTRY}) != len(REGISTRY):
    raise RuntimeError("duplicate check ids in registry")


# ---------------------------------------------------------------------------
# runner and report
# ---------------------------------------------------------------------------


def run_checks(config: Optional[RunConfig] = None) -> list[CheckRecord]:
    """Run the selected groups; records come back sorted by check id.

    Every check receives a stream spawned from the root seed at its fixed
    registry position, so group filtering does not move anyone's draws.
    ``elapsed_ms`` on the returned records is the real wall-clock time; the
    JSON report replaces it with zero (see :func:`report_document`).
    """
    cfg = config if config is not None else RunConfig()
    streams = np.random.SeedSequence(cfg.seed).spawn(len(REGISTRY))
    records = []
    for spec, stream in zip(REGISTRY, streams):
        if spec.group not in cfg.groups:
            continue
        rng = np.random.default_rng(stream)
        tol = cfg.tolerances.get(spec.group, spec.tolerance)
        start = time.perf_counter()
        error = spec.fn(rng, cfg)
        elapsed = (time.perf_counter() - start) * 1e3
        if error is None:
            status, error = "skip", SENTINEL_ERROR
        else:
            error = float(min(error, SENTINEL_ERROR))
            status = "pass" if error <= tol else "fail"
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
    records.sort(key=lambda r: r.check_id)
    return records


def config_echo(cfg: RunConfig) -> dict:
    return {
        "seed": cfg.seed,
        "mode_cutoff": cfg.mode_cutoff,
        "probe_cutoff": cfg.probe_cutoff,
        "rapidity_max": cfg.rapidity_max,
        "groups": sorted(cfg.groups),
        "tolerances": {k: cfg.tolerances[k] for k in sorted(cfg.tolerances)},
    }


def report_document(cfg: RunConfig, records: Sequence[CheckRecord]) -> dict:
    """Reproducible report: config echo plus records ordered by check id.

    ``elapsed_ms`` is pinned to zero here - the document must be
    byte-identical across runs with the same seed and configuration, and
    wall-clock timings are not.
    """
    checks = []
    for rec in sorted(records, key=lambda r: r.check_id):
        rec = replace(rec, elapsed_ms=0.0)
        checks.append(
            {
                "check_id": rec.check_id,
                "paper_ref": rec.paper_ref,
                "status": rec.status,
                "max_abs_error": rec.max_abs_error,
                "tolerance": rec.tolerance,
                "seed": rec.seed,
                "elapsed_ms": rec.elapsed_ms,
            }
        )
    return {"config": config_echo(cfg), "checks": checks}


def report_json(cfg: RunConfig, records: Sequence[CheckRecord]) -> str:
    return json.dumps(report_document(cfg, records), indent=2, sort_keys=True) + "\n"
