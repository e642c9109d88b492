"""Scan the frequency axis across the mass shell for one plane-wave family.

For fixed spatial momentum the determinant of the system matrix is a
polynomial in p0 whose real zeros are the shell; the scan prints |det|
and the smallest singular value on a grid so the crossing is visible,
then solves exactly at the closed-form roots.  For the boosted families
the same shell appears in the transported frame.

    python3 scripts/dispersion_scan.py --kind weyl-left --p 0,0.4,-0.3,1.1
    python3 scripts/dispersion_scan.py --kind dirac --d 0+1.5j --g 0.2,0,0
    python3 scripts/dispersion_scan.py --kind boosted-weyl-left --rapidity 1.2
"""

import argparse
import sys

import numpy as np

from twistkit.cli import UsageError, parse_axis, parse_complex, parse_rapidity, parse_vector
from twistkit.clifford import SpinBoost
from twistkit.dynamics import (
    boosted_dirac_system,
    boosted_weyl_system,
    dirac_system,
    weyl_system,
)

FLAT_KINDS = ("weyl-left", "weyl-right", "dirac", "dirac-primed")
BOOSTED_KINDS = tuple("boosted-" + k for k in FLAT_KINDS)


def _system(kind, p0, sp, g3, d, boost):
    """System matrix at trial frequency p0 under the kind's identification."""
    p = np.array([p0, *sp])
    handed = "right" if kind.endswith("right") else "left"
    primed = kind.endswith("primed")
    sign = 1.0 if handed == "right" or primed else -1.0
    f0 = sign * p0
    if kind in ("weyl-left", "weyl-right"):
        return weyl_system(f0, p, handed)
    if kind in ("dirac", "dirac-primed"):
        return dirac_system(f0, g3, d, p, primed)
    if kind in ("boosted-weyl-left", "boosted-weyl-right"):
        f = np.array([f0, *(-sign * np.asarray(sp))])
        return boosted_weyl_system(boost, f, p, handed)
    f = np.array([f0, *(-sign * (np.asarray(sp) + g3))])
    g4 = np.array([0.0, *g3])
    return boosted_dirac_system(boost, f, g4, d, p, primed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", default="weyl-left", choices=FLAT_KINDS + BOOSTED_KINDS)
    parser.add_argument("--p", default="0,0.4,-0.3,1.1", help="trial momentum; p0 is scanned")
    parser.add_argument("--g", default="0,0,0", help="spatial gauge potential (dirac kinds)")
    parser.add_argument("--d", default="0+1j", help="coupling; mass is -i*d")
    parser.add_argument("--rapidity", type=float, default=1.0)
    parser.add_argument("--axis", default="0,0,1")
    parser.add_argument("--steps", type=int, default=21)
    args = parser.parse_args()
    try:
        sp = list(parse_vector(args.p, 4, "--p")[1:])
        g3 = np.array(parse_vector(args.g, 3, "--g"))
        d = parse_complex(args.d, "--d")
        boost = SpinBoost(0.5 * parse_rapidity(args.rapidity, "--rapidity"), parse_axis(args.axis))
    except UsageError as exc:
        parser.error(str(exc))
    if args.steps < 1:
        parser.error("--steps must be at least 1")

    probe = _system(args.kind, 0.0, sp, g3, d, boost)
    roots = [r for r in probe.roots if abs(complex(r).imag) < 1e-12]
    top = max(abs(complex(r).real) for r in probe.roots) if probe.roots else 1.0
    print(f"{args.kind}: spatial p {sp}, closed-form roots {[complex(r) for r in probe.roots]}")
    print(f"{'p0':>8}  {'|det|':>10}  {'sigma_min':>10}  kernel")
    for p0 in np.linspace(-1.6 * top, 1.6 * top, args.steps):
        res = _system(args.kind, p0, sp, g3, d, boost)
        smin = np.linalg.svd(res.matrix, compute_uv=False)[-1]
        mark = f"dim {len(res.kernel)}" if res.singular else "-"
        print(f"{p0:8.3f}  {abs(res.determinant):10.3e}  {smin:10.3e}  {mark}")
    for r in roots:
        res = _system(args.kind, float(complex(r).real), sp, g3, d, boost)
        print(f"\nexact root p0 = {complex(r).real:+.6f}: |det| = {abs(res.determinant):.3e}, "
              f"kernel dim {len(res.kernel)}")
        for vec in res.kernel:
            entries = ", ".join(f"{z.real:+.4f}{z.imag:+.4f}j" for z in vec)
            print(f"  [{entries}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
