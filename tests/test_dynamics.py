"""Plane-wave systems: dispersion surfaces, kernels, boost covariance,
and stationarity consistency with the action densities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistkit import checks, dynamics as dyn
from twistkit.clifford import (
    IDENTITY_BOOST,
    MAX_RAPIDITY,
    PAULI,
    SIGMA_M,
    SIGMA_M_BAR,
    SpinBoost,
    boost_covector,
    chiral_blocks,
)

from conftest import check_error

EL_TOL = 1e-12
DISPERSION_TOL = 1e-9
COVARIANCE_TOL = 1e-9

coord = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def parallel_gap(u, v):
    """0 when u and v span the same line."""
    overlap = abs(np.vdot(u, v))
    return abs(overlap - np.linalg.norm(u) * np.linalg.norm(v))


class TestWeylSystem:
    def test_axis_aligned_kernel(self):
        result = dyn.PlaneWaveProblem("weyl-left", (0.0, 0.0, 0.0, 1.0), (1.0, 0, 0, 0)).solve()
        assert abs(result.determinant) < 1e-14
        assert len(result.kernel) == 1
        assert parallel_gap(result.kernel[0], np.array([0.0, 1.0])) < 1e-12

    def test_zero_field_whole_space(self):
        result = dyn.PlaneWaveProblem("weyl-left").solve()
        assert len(result.kernel) == 2

    def test_identification_reproduces_flat_system(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f0 = rng.normal()
            p_spatial = rng.normal(0.0, 1.0, 3)
            left = dyn.PlaneWaveProblem("weyl-left", (-f0, *p_spatial), (f0, 0, 0, 0))
            left = left.solve().matrix
            flat_left = dyn.minkowski_weyl_matrix((-f0, *p_spatial), "left")
            assert np.array_equal(left, -flat_left)
            right = dyn.PlaneWaveProblem("weyl-right", (f0, *p_spatial), (f0, 0, 0, 0))
            right = right.solve().matrix
            flat_right = dyn.minkowski_weyl_matrix((f0, *(-p_spatial)), "right")
            assert np.array_equal(right, flat_right)

    def test_roots_sit_on_determinant_zeros(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = (0.0, *rng.normal(0.0, 1.0, 3))
            result = dyn.PlaneWaveProblem("weyl-left", p, (rng.normal(), 0, 0, 0)).solve()
            for root in result.roots:
                on_shell = dyn.PlaneWaveProblem("weyl-left", p, (-float(root), 0, 0, 0)).solve()
                assert abs(on_shell.determinant) < 1e-12
                assert on_shell.singular

    @given(f0=coord, p1=coord, p2=coord, p3=coord)
    @settings(max_examples=50, deadline=None)
    def test_handedness_is_spatial_reflection(self, f0, p1, p2, p3):
        right = dyn.PlaneWaveProblem("weyl-right", (0.0, p1, p2, p3), (f0, 0, 0, 0)).solve()
        left = dyn.PlaneWaveProblem("weyl-left", (0.0, -p1, -p2, -p3), (f0, 0, 0, 0)).solve()
        right, left = right.matrix, left.matrix
        assert np.abs(right - left).max() == 0.0


class TestDiracSystem:
    def test_unit_negative_mass_example(self):
        # d = -i gives mass -1; on-shell kernel with p0^2 - |p|^2 = 1
        rng = np.random.default_rng(21)
        p_spatial = rng.normal(0.0, 1.0, 3)
        f0 = np.sqrt(p_spatial @ p_spatial + 1.0)
        p = (-f0, *p_spatial)
        result = dyn.PlaneWaveProblem("dirac", p, (f0, 0, 0, 0), (0, 0.0, 0.0, 0.0), -1j).solve()
        assert abs(result.determinant) < 1e-10
        assert result.singular
        assert abs(p[0] ** 2 - p_spatial @ p_spatial - 1.0) < 1e-12

    def test_zero_coupling_decouples_into_weyl_pair(self):
        rng = np.random.default_rng(22)
        f0 = rng.normal()
        g = rng.normal(0.0, 1.0, 3)
        p = rng.normal(0.0, 1.0, 4)
        result = dyn.PlaneWaveProblem("dirac", p, (f0, 0, 0, 0), (0, *g), 0.0).solve()
        shifted = (p[0], *(p[1:4] + g))
        left = dyn.PlaneWaveProblem("weyl-left", shifted, (f0, 0, 0, 0)).solve().matrix
        right = dyn.PlaneWaveProblem("weyl-right", shifted, (f0, 0, 0, 0)).solve().matrix
        assert np.abs(result.matrix[:2, :2] - left).max() == 0.0
        assert np.abs(result.matrix[2:, 2:] - right).max() == 0.0
        assert np.abs(result.matrix[:2, 2:]).max() == 0.0
        assert np.abs(result.matrix[2:, :2]).max() == 0.0

    @given(f0=coord, d_re=coord, d_im=coord, p3=coord, g3=coord)
    @settings(max_examples=50, deadline=None)
    def test_determinant_closed_form(self, f0, d_re, d_im, p3, g3):
        d = complex(d_re, d_im)
        m = -1j * d
        result = dyn.PlaneWaveProblem(
            "dirac", (0.0, 0.4, 0.7, p3), (f0, 0, 0, 0), (0, 0.1, -0.2, g3), d
        ).solve()
        big_p = np.array([0.4 + 0.1, 0.7 - 0.2, p3 + g3])
        expected = (f0**2 - big_p @ big_p - m * m) ** 2
        assert abs(result.determinant - expected) < 1e-9 * max(1.0, abs(expected))

    def test_dispersion_surface(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = abs(rng.normal()) + 0.1
            g = rng.normal(0.0, 1.0, 3)
            p = rng.normal(0.0, 1.0, 4)
            result = dyn.PlaneWaveProblem("dirac", p, (rng.normal(), 0, 0, 0), (0, *g), 1j * m)
            result = result.solve()
            big_p = p[1:4] + g
            for root in result.roots:
                assert abs(root.imag) < 1e-12
                gap = root.real**2 - big_p @ big_p - m**2
                assert abs(gap) < DISPERSION_TOL

    def test_primed_swaps_diagonal_blocks(self):
        f, g = (0.7, 0, 0, 0), (0, 0.1, 0.2, 0.3)
        plain, primed = (
            dyn.PlaneWaveProblem(kind, (0, 1, 2, 3), f, g, 0.4 + 0.5j).solve()
            for kind in ("dirac", "dirac-primed")
        )
        assert np.abs(plain.matrix[:2, :2] - primed.matrix[2:, 2:]).max() == 0.0
        assert np.abs(plain.matrix[2:, 2:] - primed.matrix[:2, :2]).max() == 0.0
        assert np.abs(plain.matrix[:2, 2:] - primed.matrix[:2, 2:]).max() == 0.0

    @pytest.mark.parametrize("mass_sign,primed", [(-1.0, False), (1.0, True)])
    def test_mass_sign_selects_identification(self, mass_sign, primed):
        # m < 0 pairs with p0 = -f0 (unprimed), m > 0 with p0 = f0 (primed)
        rng = np.random.default_rng(24)
        mass = mass_sign * (abs(rng.normal()) + 0.2)
        f_spatial = rng.normal(0.0, 1.0, 3)
        f0 = np.sqrt(f_spatial @ f_spatial + mass**2)
        g = rng.normal(0.0, 1.0, 3)
        kind = "dirac-primed" if primed else "dirac"
        p = dyn.identified_problem(kind, (f0, *f_spatial), (0.0, *g)).p
        assert abs(p[0] - (f0 if primed else -f0)) < 1e-14
        result = dyn.PlaneWaveProblem(kind, p, (f0, 0, 0, 0), (0, *g), 1j * mass).solve()
        assert result.singular
        assert abs(result.determinant) <= 1e-10


class TestBoostedWeylSystem:
    def test_identity_boost_reduces_to_plain_left(self):
        rng = np.random.default_rng(31)
        f0 = rng.normal()
        p = (0.0, *rng.normal(0.0, 1.0, 3))
        boosted = dyn.PlaneWaveProblem("boosted-weyl-left", p, (f0, 0, 0, 0), boost=IDENTITY_BOOST)
        plain = dyn.PlaneWaveProblem("weyl-left", p, (f0, 0, 0, 0))
        boosted, plain = boosted.solve(), plain.solve()
        assert np.abs(boosted.matrix - plain.matrix).max() < 1e-14

    def test_identity_boost_right_is_reflected_negation(self):
        rng = np.random.default_rng(32)
        f0 = rng.normal()
        p_spatial = rng.normal(0.0, 1.0, 3)
        boosted = dyn.PlaneWaveProblem(
            "boosted-weyl-right", (0.0, *p_spatial), (f0, 0, 0, 0), boost=IDENTITY_BOOST
        ).solve()
        plain = dyn.PlaneWaveProblem("weyl-right", (0.0, *(-p_spatial)), (f0, 0, 0, 0)).solve()
        assert np.abs(boosted.matrix + plain.matrix).max() < 1e-14

    @pytest.mark.parametrize("handed", ["left", "right"])
    def test_reduction_to_transported_flat_system(self, handed):
        rng = np.random.default_rng(33)
        for _ in range(10):
            boost = dyn._random_boost(rng)
            f = rng.normal(0.0, 1.0, 4)
            problem = dyn.identified_problem(f"boosted-weyl-{handed}", f, boost=boost)
            assert dyn.reduction_residual(problem) < EL_TOL

    def test_z_boost_kernel_matches_transported_frame(self):
        rng = np.random.default_rng(34)
        boost = SpinBoost(half_rapidity=0.8, axis=(0.0, 0.0, 1.0))
        p_spatial = rng.normal(0.0, 1.0, 3)
        p = np.array([-np.linalg.norm(p_spatial), *p_spatial])
        f = np.array([-p[0], *p_spatial])  # f0 = -p0, f_j = p_j
        result = dyn.PlaneWaveProblem("boosted-weyl-left", p, f, boost=boost).solve()
        assert abs(result.determinant) <= 1e-10
        assert len(result.kernel) == 1
        flat = dyn.minkowski_weyl_matrix(boost_covector(boost, p), "left")
        _, s, vh = np.linalg.svd(flat)
        assert s[-1] < 1e-12
        assert parallel_gap(result.kernel[0], vh[-1].conj()) < 1e-10


class TestBoostedDiracSystem:
    def test_reduction_to_transported_flat_system(self):
        rng = np.random.default_rng(41)
        for kind in ("boosted-dirac", "boosted-dirac-primed"):
            for _ in range(10):
                boost = dyn._random_boost(rng)
                f = rng.normal(0.0, 1.0, 4)
                g = rng.normal(0.0, 1.0, 4)
                d = complex(rng.normal(), rng.normal())
                problem = dyn.identified_problem(kind, f, g, d, boost)
                assert dyn.reduction_residual(problem) < EL_TOL

    def test_identity_boost_mass_bookkeeping(self):
        # at the identified momentum the identity-boost system is (1+i) times
        # the plain one with coupling rescaled to (i-1)d/2
        rng = np.random.default_rng(42)
        for _ in range(10):
            f = rng.normal(0.0, 1.0, 4)
            d = complex(rng.normal(), rng.normal())
            p = dyn.identified_problem("dirac", f).p
            boosted = dyn.PlaneWaveProblem(
                "boosted-dirac", p, f, (0, 0, 0, 0), d, IDENTITY_BOOST
            ).solve().matrix
            plain = dyn.PlaneWaveProblem("dirac", p, f, (0, 0, 0, 0), (1j - 1) * d / 2)
            plain = plain.solve().matrix
            assert np.abs(boosted - (1 + 1j) * plain).max() < 1e-13

    def test_gauge_potential_shifts_momentum(self):
        rng = np.random.default_rng(43)
        boost = dyn._random_boost(rng)
        f = rng.normal(0.0, 1.0, 4)
        g = rng.normal(0.0, 1.0, 4)
        d = complex(rng.normal(), rng.normal())
        p = rng.normal(0.0, 1.0, 4)
        gauged = dyn.PlaneWaveProblem("boosted-dirac-primed", p, f, g, d, boost).solve()
        shifted = dyn.PlaneWaveProblem("boosted-dirac-primed", p + g, f, (0, 0, 0, 0), d, boost)
        gauged, shifted = gauged.matrix, shifted.solve().matrix
        assert np.abs(gauged - shifted).max() == 0.0

    def test_light_cone_couplings_give_real_positive_mass(self):
        mass = 1.7
        assert abs(dyn.boosted_dirac_mass(mass * (1j - 1), False) - mass) < 1e-14
        assert abs(dyn.boosted_dirac_mass(mass * (1j + 1), True) - mass) < 1e-14
        # the mismatched branch extracts a purely imaginary value instead
        cross = dyn.boosted_dirac_mass(mass * (1j - 1), True)
        assert abs(cross.real) < 1e-14 and abs(cross.imag) > 1.0

    def test_dispersion_roots_with_gauge_offset(self):
        rng = np.random.default_rng(44)
        for primed in (False, True):
            mass = abs(rng.normal()) + 0.3
            d = mass * ((1j + 1) if primed else (1j - 1))
            boost = dyn._random_boost(rng)
            g = rng.normal(0.0, 1.0, 4)
            p = rng.normal(0.0, 1.0, 4)
            kind = "boosted-dirac-primed" if primed else "boosted-dirac"
            result = dyn.PlaneWaveProblem(kind, p, rng.normal(0.0, 1.0, 4), g, d, boost).solve()
            big_p_spatial = p[1:4] + g[1:4]
            for root in result.roots:
                assert abs(root.imag) < 1e-12
                gap = (root.real + g[0]) ** 2 - big_p_spatial @ big_p_spatial - mass**2
                assert abs(gap) < DISPERSION_TOL


class TestBoostDraws:
    @pytest.mark.parametrize("cap", [0.01, 0.055, 0.1, 2.0, 6.0])
    def test_full_rapidity_stays_under_the_cap(self, cap):
        """The registry's boosts and the sweep's (drawn at half the cap, as
        half-rapidities) have full rapidity in (0, cap]; from cap 0.06 on
        (half-cap 0.06 for the sweep) they keep the floor 0.05."""
        rng = np.random.default_rng(71)
        cfg = checks.RunConfig(rapidity_max=cap)
        half_cap = checks._half_cap(cfg)
        for _ in range(200):
            full = 2 * checks._draw_boost(rng, cfg).half_rapidity
            assert 0 < full <= cap
            assert full >= 0.05 or cap < 0.06
            half = dyn._random_boost(rng, half_cap).half_rapidity
            assert 0 < 2 * half <= cap
            assert half >= 0.05 or half_cap < 0.06


class TestDeterminantKernelDuality:
    @pytest.mark.parametrize("kind", dyn.PROBLEM_KINDS)
    def test_sweep(self, kind):
        # the kind's position seeds the sweep, so every run draws the same samples
        rng = np.random.default_rng(dyn.PROBLEM_KINDS.index(kind))
        report = dyn.duality_sweep(rng, kind, n_samples=1000)
        assert report["violations"] == 0
        assert report["singular"] > 100
        assert report["min_generic_det"] > 1e-10
        assert report["max_singular_det"] <= 1e-10
        assert report["worst_kernel_residual"] < 1e-12

    @staticmethod
    def _two_solve_sweep(rng, kind, n_samples, max_half_rapidity):
        """The sweep as it was before generic draws kept their solve: draw a
        problem through the public constructors, then solve it again."""
        violations = singular_count = 0
        min_generic_det, max_singular_det, worst_kernel_residual = np.inf, 0.0, 0.0
        for _ in range(n_samples):
            make = dyn.on_shell_problem if rng.uniform() < 0.3 else dyn.random_problem
            result = make(rng, kind, max_half_rapidity=max_half_rapidity).solve()
            if result.singular != (abs(result.determinant) <= 1e-10):
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

    @pytest.mark.parametrize("kind", dyn.PROBLEM_KINDS)
    @pytest.mark.parametrize("max_half_rapidity", [1.0, 6.0])
    def test_sweep_matches_two_solve_loop(self, kind, max_half_rapidity):
        seed = 80 + dyn.PROBLEM_KINDS.index(kind)
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        report = dyn.duality_sweep(rng_new, kind, 300, max_half_rapidity)
        oracle = self._two_solve_sweep(rng_old, kind, 300, max_half_rapidity)
        assert report == oracle
        assert rng_new.bit_generator.state == rng_old.bit_generator.state

    @staticmethod
    def _factored_matrices(monkeypatch):
        """Per factorisation, the stack shape ``det`` and ``svd`` were handed:
        ``(n,)`` for a stacked call of ``n`` matrices, ``()`` for a single
        matrix."""
        counts = {"det": [], "svd": []}
        for name in counts:
            factor = getattr(np.linalg, name)

            def counted(a, *args, _factor=factor, _seen=counts[name], **kwargs):
                a = np.asarray(a)
                _seen.append(a.shape[:-2])
                return _factor(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    @pytest.mark.parametrize("kind", dyn.PROBLEM_KINDS)
    def test_sweep_solves_each_sample_once(self, kind, monkeypatch):
        """Each sample is factored exactly once: one stacked ``det`` and one
        stacked ``svd`` per sweep take every sample, and no generic draw
        here fails its test."""
        counts = self._factored_matrices(monkeypatch)
        rng = np.random.default_rng(90 + dyn.PROBLEM_KINDS.index(kind))
        dyn.duality_sweep(rng, kind, n_samples=200)
        assert counts == {"det": [(200,)], "svd": [(200,)]}

    @pytest.mark.parametrize("kind", ["weyl-left", "boosted-weyl-right", "boosted-dirac"])
    def test_sweep_fills_each_batch_of_boosts_once(self, kind, monkeypatch):
        """The boosts of each batch get their blocks from one fill, before
        any system is built; at this cap some generic draws fail, so later
        batches are smaller.  The report is the lazy blocks' (two-solve
        oracle)."""
        fills = []

        def fill(boosts, _fill=dyn.SpinBoost.fill_blocks):
            fills.append(len(boosts))
            _fill(boosts)
            assert all("sigma_boosted_stack" in vars(boost) for boost in boosts)

        monkeypatch.setattr(dyn.SpinBoost, "fill_blocks", staticmethod(fill))
        seed = 60 + dyn.PROBLEM_KINDS.index(kind)
        report = dyn.duality_sweep(np.random.default_rng(seed), kind, 150, 6.0)
        if kind.startswith("boosted"):
            assert fills[0] == 150 and len(fills) > 1
            assert all(later < earlier for earlier, later in zip(fills, fills[1:]))
        else:
            assert fills == [0]
        assert report == self._two_solve_sweep(np.random.default_rng(seed), kind, 150, 6.0)

    @pytest.mark.parametrize("kind", dyn.PROBLEM_KINDS)
    def test_failed_generic_draw_resumes_the_batch(self, kind, monkeypatch):
        """With a test that a tenth to a third of generic draws fail, each
        batch keeps its samples up to the first failed draw, ``random_problem``
        draws that sample again, and a smaller batch takes the rest; the
        sweep gives the two-solve oracle's report and final generator state."""
        monkeypatch.setattr(dyn, "GENERIC_MIN_SINGULAR", 0.5)
        seed = 70 + dyn.PROBLEM_KINDS.index(kind)
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        oracle = self._two_solve_sweep(rng_old, kind, 100, 1.0)
        counts = self._factored_matrices(monkeypatch)
        report = dyn.duality_sweep(rng_new, kind, 100, 1.0)
        assert report == oracle
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        # single factorisations are the redraws' own solves
        stacked = [shape for shape in counts["det"] if shape]
        assert stacked == [shape for shape in counts["svd"] if shape]
        assert stacked[0] == (100,) and len(stacked) > 1
        assert all(later < earlier for earlier, later in zip(stacked, stacked[1:]))

    @pytest.mark.parametrize("kind", ["weyl-left", "boosted-dirac"])
    def test_redraw_cap(self, kind, monkeypatch):
        """A generic sample that no draw makes nonsingular is given up after
        100 draws, by ``random_problem`` and by the sweep through it."""
        monkeypatch.setattr(dyn, "GENERIC_MIN_SINGULAR", np.inf)
        draws = []

        def counted(*args, _draw=dyn._random_draw):
            draws.append(args)
            return _draw(*args)

        monkeypatch.setattr(dyn, "_random_draw", counted)
        message = "^could not draw a generic off-shell sample$"
        with pytest.raises(RuntimeError, match=message):
            dyn.random_problem(np.random.default_rng(6), kind)
        assert len(draws) == 100
        with pytest.raises(RuntimeError, match=message):
            dyn.duality_sweep(np.random.default_rng(6), kind, n_samples=10)

    def test_empty_sweep(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        report = dyn.duality_sweep(rng, "dirac", n_samples=0)
        assert (report["samples"], report["singular"], report["violations"]) == (0, 0, 0)
        assert rng.bit_generator.state == state

    def test_root_count_bounded_by_degree(self):
        rng = np.random.default_rng(51)
        for kind in ("weyl-left", "dirac", "boosted-dirac"):
            result = dyn.random_problem(rng, kind).solve()
            assert len(result.roots) <= result.matrix.shape[0]


IDENTIFICATION_F = (0.5, -1.25, 2.0, 0.75)
IDENTIFICATION_G = (0.125, 0.25, -0.5, 1.0)
# left and unprimed kinds sit at (-f_0, f_j), right and primed at (f_0, -f_j);
# the Dirac kinds subtract g, the Weyl kinds ignore it
IDENTIFIED_MOMENTA = {
    "weyl-left": (-0.5, -1.25, 2.0, 0.75),
    "weyl-right": (0.5, 1.25, -2.0, -0.75),
    "dirac": (-0.625, -1.5, 2.5, -0.25),
    "dirac-primed": (0.375, 1.0, -1.5, -1.75),
    "boosted-weyl-left": (-0.5, -1.25, 2.0, 0.75),
    "boosted-weyl-right": (0.5, 1.25, -2.0, -0.75),
    "boosted-dirac": (-0.625, -1.5, 2.5, -0.25),
    "boosted-dirac-primed": (0.375, 1.0, -1.5, -1.75),
}


class TestIdentification:
    def test_table_covers_the_kinds(self):
        assert tuple(IDENTIFIED_MOMENTA) == dyn.PROBLEM_KINDS
        assert dyn.PROBLEM_KINDS == dyn.FLAT_KINDS + dyn.BOOSTED_KINDS

    @pytest.mark.parametrize("kind, momentum", IDENTIFIED_MOMENTA.items())
    def test_identified_momentum(self, kind, momentum):
        problem = dyn.identified_problem(kind, IDENTIFICATION_F, IDENTIFICATION_G)
        assert np.array_equal(problem.p, momentum)

    @pytest.mark.parametrize("kind", dyn.FLAT_KINDS)
    def test_flat_kinds_refused(self, kind):
        problem = dyn.on_shell(kind, (0.3, -0.4, 1.2), mass=0.7)
        assert problem.solve().singular
        with pytest.raises(ValueError):
            dyn.reduction_residual(problem)
        with pytest.raises(ValueError):
            dyn.kernel_covariance(problem)


@pytest.mark.parametrize(
    "check_id, gate, runs",
    [
        ("dynamics.kernel_boost_covariance", COVARIANCE_TOL, 2),  # 6 boosts per kind
        ("dynamics.euler_lagrange_consistency", EL_TOL, 4),  # 12 spinors per kind
    ],
)
def test_registry_claims(check_id, gate, runs):
    assert check_error(check_id, gate, np.random.default_rng(49), runs) <= gate


class TestEulerLagrangeConsistency:
    def test_massless_flat_system_is_weyl_pair(self):
        rng = np.random.default_rng(74)
        p = rng.normal(0.0, 1.0, 4)
        psi = rng.normal(0.0, 1.0, 4) + 1j * rng.normal(0.0, 1.0, 4)
        assert dyn.euler_lagrange_check("minkowski", psi, p, mass=0.0) == 0.0
        block = dyn.minkowski_dirac_matrix(p, 0.0)
        assert np.abs(block[:2, :2] - dyn.minkowski_weyl_matrix(p, "left")).max() == 0.0
        assert np.abs(block[2:, 2:] - dyn.minkowski_weyl_matrix(p, "right")).max() == 0.0
        assert np.abs(block[:2, 2:]).max() == 0.0

    def test_massive_flat_system(self):
        rng = np.random.default_rng(75)
        psi = rng.normal(0.0, 1.0, 4) + 1j * rng.normal(0.0, 1.0, 4)
        assert dyn.euler_lagrange_check("minkowski", psi, rng.normal(0.0, 1.0, 4), mass=1.3) < EL_TOL
        # (p_0 -+ sigma.p) psi = m psi_other: the mass couples the chiralities as -m
        block = dyn.minkowski_dirac_matrix(rng.normal(0.0, 1.0, 4), 1.3)
        assert np.array_equal(block[:2, 2:], -1.3 * np.eye(2))
        assert np.array_equal(block[2:, :2], -1.3 * np.eye(2))

    def test_zero_field_trivial(self):
        psi = np.array([0.3 + 0.1j, -0.2j])
        assert dyn.euler_lagrange_check("weyl-left", psi, (0.4, 0.1, -0.7, 0.2)) == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            dyn.euler_lagrange_check("dirac-boosted", np.ones(4), (0, 0, 0, 0))

    def test_wrong_spinor_length_rejected(self):
        with pytest.raises(ValueError):
            dyn.euler_lagrange_check("weyl-left", np.ones(4), (0, 0, 0, 0))


class TestPlaneWaveProblem:
    def test_unknown_kind_rejected(self):
        for kind in ("weyl", "boosted-weyl"):  # the left boosted kind has no alias
            with pytest.raises(ValueError):
                dyn.PlaneWaveProblem(kind=kind)

    def test_dispatch_shapes(self):
        rng = np.random.default_rng(81)
        boost = dyn._random_boost(rng)
        sizes = {
            "weyl-left": 2,
            "weyl-right": 2,
            "dirac": 4,
            "dirac-primed": 4,
            "boosted-weyl-left": 2,
            "boosted-weyl-right": 2,
            "boosted-dirac": 4,
            "boosted-dirac-primed": 4,
        }
        # the order is the random-stream order of every check that loops over kinds
        assert tuple(sizes) == dyn.PROBLEM_KINDS
        for kind, n in sizes.items():
            problem = dyn.PlaneWaveProblem(
                kind=kind,
                p=tuple(rng.normal(0.0, 1.0, 4)),
                f=tuple(rng.normal(0.0, 1.0, 4)),
                g=tuple(rng.normal(0.0, 1.0, 4)),
                d=0.3 - 0.2j,
                boost=boost,
            )
            result = problem.solve()
            assert result.matrix.shape == (n, n)
            assert result.kind == kind


def bits(x):
    """dtype and bytes of ``x`` as an array: equal only when bit for bit equal."""
    x = np.asarray(x)
    return x.dtype, x.tobytes()


class TestOnePassAssembly:
    """Every solve against the per-term assembly it replaced, spelled out here
    as the reference: ``p_0 I -+ sum_j p_j sigma_j`` for the flat Weyl
    systems, one ``einsum`` per Minkowski stack for the flat Dirac systems,
    and a per-``mu`` loop over the boosted sigmas.  The determinant, singular
    values, kernel and roots agree bit for bit and the matrix under ``==``
    (a zero entry may change sign)."""

    @staticmethod
    def _weyl(p, handed):
        p = np.asarray(p, dtype=complex)
        sign = -1.0 if handed == "left" else 1.0
        sigma_p = p[1] * PAULI[0] + p[2] * PAULI[1] + p[3] * PAULI[2]
        return p[0] * np.eye(2, dtype=complex) + sign * sigma_p

    @staticmethod
    def _dirac(p, m):
        p = np.asarray(p, dtype=complex)
        upper = np.einsum("m,mij->ij", p, SIGMA_M_BAR)
        lower = np.einsum("m,mij->ij", p, SIGMA_M)
        return chiral_blocks(upper, lower, -m)

    @staticmethod
    def _boosted_sum(sigma, coeff):
        out = np.zeros((2, 2), dtype=complex)
        for mu in range(4):
            out = out + sigma(mu) * coeff[mu]
        return out

    @classmethod
    def _matrix_and_roots(cls, problem):
        p, f, g = (np.asarray(v, dtype=float) for v in (problem.p, problem.f, problem.g))
        boost, kind = problem.spin_boost, problem.kind
        radius = float(np.linalg.norm(p[1:4]))
        if kind in ("weyl-left", "weyl-right"):
            return cls._weyl((f[0], *-p[1:4]), kind[5:]), (radius, -radius)
        if kind == "boosted-weyl-left":
            return cls._boosted_sum(boost.sigma_tilde_boosted, -1j * p + f), (radius, -radius)
        if kind == "boosted-weyl-right":
            return cls._boosted_sum(boost.sigma_boosted, -1j * p - f), (radius, -radius)
        primed = kind.endswith("primed")
        d = complex(problem.d)
        if kind in ("dirac", "dirac-primed"):
            m = -1j * d
            big_p = p[1:4] + g[1:4]
            shell = np.sqrt(complex(np.dot(big_p, big_p)) + m * m)
            return cls._dirac((f[0], *(big_p if primed else -big_p)), m), (shell, -shell)
        big_p = p + g
        coeff = (-1j * big_p) + (-f if primed else f)
        m = dyn.boosted_dirac_mass(d, primed)
        shell = np.sqrt(complex(np.dot(big_p[1:4], big_p[1:4])) + m * m)
        matrix = chiral_blocks(
            cls._boosted_sum(boost.sigma_tilde_boosted, coeff),
            cls._boosted_sum(boost.sigma_boosted, coeff),
            1j * np.conj(d) if primed else -1j * d,
        )
        return matrix, (-g[0] + shell, -g[0] - shell)

    @classmethod
    def _reference(cls, problem):
        """``(matrix, determinant, singular values, kernel, roots)``."""
        matrix, roots = cls._matrix_and_roots(problem)
        determinant = complex(np.linalg.det(matrix))
        _, s, vh = np.linalg.svd(matrix)
        cut = dyn.KERNEL_THRESHOLD * max(1.0, float(s[0]))
        kernel = tuple(vh[i].conj() for i in range(len(s)) if s[i] <= cut)
        return matrix, determinant, s, kernel, roots

    @pytest.mark.parametrize("kind", dyn.PROBLEM_KINDS)
    def test_solve_matches_per_term_assembly(self, kind):
        rng = np.random.default_rng(60 + dyn.PROBLEM_KINDS.index(kind))
        singular = 0
        for max_half_rapidity in (0.5, 2.0, MAX_RAPIDITY / 2):
            for _ in range(40):
                for draw in (dyn.random_problem, dyn.on_shell_problem):
                    problem = draw(rng, kind, max_half_rapidity)
                    result = problem.solve()
                    matrix, determinant, s, kernel, roots = self._reference(problem)
                    assert np.array_equal(result.matrix, matrix)
                    assert bits(result.determinant) == bits(determinant)
                    assert bits(result.singular_values) == bits(s)
                    assert bits(result.kernel) == bits(kernel)
                    assert bits(result.roots) == bits(roots)
                    singular += result.singular
        assert singular >= 100


def test_draw_spellings_match_the_old_ones():
    """The draw path's short spellings give the bits and the streams of the
    ones they replaced, on fixed seeds: the boost axis norm
    ``math.sqrt(n.dot(n))`` against ``np.linalg.norm``, the axis test
    ``np.isfinite(n).all() and n.any()``, the on-shell sign
    ``(-1.0, 1.0)[rng.integers(0, 2)]`` against ``rng.choice((-1.0, 1.0))``
    and the mode tuples ``tuple(arr.tolist())`` against ``int`` per entry."""
    rng = np.random.default_rng(2024)
    axes = [rng.normal(size=3) * 10.0 ** rng.integers(-140, 140) for _ in range(500)]
    axes += [np.zeros(3), np.array([0.0, -0.0, 5e-324]), np.array([np.nan, 1.0, 0.0]),
             np.array([np.inf, 0.0, 0.0]), np.array([1e200, 1e200, 0.0])]
    with np.errstate(over="ignore", under="ignore"):
        for n in axes:
            assert (np.isfinite(n).all() and n.any()) == (np.all(np.isfinite(n)) and n.any())
            if np.isfinite(n).all():
                assert math.sqrt(n.dot(n)) == np.linalg.norm(n)
    new, old = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(1000):
        assert (-1.0, 1.0)[new.integers(0, 2)] == old.choice((-1.0, 1.0))
    assert new.random() == old.random()
    new, old = np.random.default_rng(8), np.random.default_rng(8)
    for cutoff in (1, 2, 3, 2**62):
        got = tuple(new.integers(-cutoff, cutoff + 1, size=4).tolist())
        expected = tuple(int(m) for m in old.integers(-cutoff, cutoff + 1, size=4))
        assert got == expected and all(type(m) is int for m in got)
