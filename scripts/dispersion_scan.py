"""Scan the frequency axis across the mass shell for one plane-wave family.

For fixed spatial momentum the determinant of the system matrix is a
polynomial in p0 whose real zeros are the shell; the scan prints |det|
and the smallest singular value on a grid so the crossing is visible,
then solves exactly at the closed-form roots.  For the boosted families
the same shell appears in the transported frame.  Kinds and solver are
those of ``twistkit dispersion`` (``PROBLEM_KINDS``, ``PlaneWaveProblem``).

    python3 scripts/dispersion_scan.py --kind weyl-left --p 0,0.4,-0.3,1.1
    python3 scripts/dispersion_scan.py --kind dirac --d 0+1.5j --g 0.2,0,0
    python3 scripts/dispersion_scan.py --kind boosted-weyl-left --rapidity 1.2
"""

import argparse
import sys

import numpy as np

from twistkit.cli import (
    UsageError,
    checked_solve,
    parse_axis,
    parse_complex,
    parse_rapidity,
    parse_vector,
)
from twistkit.clifford import SpinBoost
from twistkit.dynamics import PROBLEM_KINDS, PlaneWaveProblem, weyl_identification


def _system(kind, p0, sp, g3, d, boost):
    """Solve at trial frequency p0; the identification is its own inverse.
    A system that overflows double precision raises ``UsageError``."""
    big_p = np.asarray(sp) + g3 if "dirac" in kind else np.asarray(sp)
    handed = "right" if kind.endswith(("right", "primed")) else "left"
    f = tuple(weyl_identification([p0, *big_p], handed))
    return checked_solve(PlaneWaveProblem(kind, (p0, *sp), f, (0.0, *g3), d, boost))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", default="weyl-left", choices=PROBLEM_KINDS)
    parser.add_argument("--p", default="0,0.4,-0.3,1.1", help="trial momentum; p0 is scanned")
    parser.add_argument("--g", default="0,0,0", help="spatial gauge potential (dirac kinds)")
    parser.add_argument("--d", default="0+1j", help="coupling; mass is -i*d")
    parser.add_argument("--rapidity", type=float, default=1.0)
    parser.add_argument("--axis", default="0,0,1")
    parser.add_argument("--steps", type=int, default=21)
    args = parser.parse_args(argv)
    try:
        sp = list(parse_vector(args.p, 4, "--p")[1:])
        g3 = np.array(parse_vector(args.g, 3, "--g"))
        d = parse_complex(args.d, "--d")
        boost = SpinBoost(0.5 * parse_rapidity(args.rapidity, "--rapidity"), parse_axis(args.axis))
        if not 1 <= args.steps <= 10_000:
            raise UsageError("--steps must be between 1 and 10000")
        # every system is solved before anything is printed, so an overflow
        # anywhere on the grid leaves only the error line
        probe = _system(args.kind, 0.0, sp, g3, d, boost)
        top = max(abs(complex(r).real) for r in probe.roots) if probe.roots else 1.0
        grid = [
            (p0, _system(args.kind, p0, sp, g3, d, boost))
            for p0 in np.linspace(-1.6 * top, 1.6 * top, args.steps)
        ]
        exact = [
            (r, _system(args.kind, float(complex(r).real), sp, g3, d, boost))
            for r in probe.roots
            if abs(complex(r).imag) < 1e-12
        ]
    except UsageError as exc:
        parser.error(str(exc))

    print(f"{args.kind}: spatial p {sp}, closed-form roots {[complex(r) for r in probe.roots]}")
    print(f"{'p0':>8}  {'|det|':>10}  {'sigma_min':>10}  kernel")
    for p0, res in grid:
        mark = f"dim {len(res.kernel)}" if res.singular else "-"
        print(f"{p0:8.3f}  {abs(res.determinant):10.3e}  {res.singular_values[-1]:10.3e}  {mark}")
    for r, res in exact:
        print(f"\nexact root p0 = {complex(r).real:+.6f}: |det| = {abs(res.determinant):.3e}, "
              f"kernel dim {len(res.kernel)}")
        for vec in res.kernel:
            entries = ", ".join(f"{z.real:+.4f}{z.imag:+.4f}j" for z in vec)
            print(f"  [{entries}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
