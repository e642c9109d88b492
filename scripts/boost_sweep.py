"""Rapidity sweep for the boosted action and the plane-wave reductions.

The fermionic action returns the same Grassmann number whether or not the
operator and both pairing slots are transported by a boost.  Matrix
entries of the transport grow like cosh(rapidity), so the cancellation
gets numerically harder as the boost grows; this sweep shows how far the
invariance defect and the boosted-system reduction residuals drift, per
geometry, across a rapidity grid.

    python3 scripts/boost_sweep.py
    python3 scripts/boost_sweep.py --max 4 --steps 9 --axis 0,0,1
"""

import argparse
import sys

import numpy as np

from twistkit.actions import (
    fermionic_action,
    overlapping_action_inputs,
    promote_weyl_fields,
)
from twistkit.cli import UsageError, parse_axis, parse_rapidity
from twistkit.clifford import SpinBoost
from twistkit.dynamics import (
    boosted_dirac_reduction_residual,
    boosted_weyl_reduction_residual,
)
from twistkit.geometries import DoubledGeometry, ElectrodynamicsGeometry, ManifoldGeometry


def _fixtures(seed: int):
    """One dressed operator + promoted field set per geometry."""
    rng = np.random.default_rng(seed)
    out = []
    for geo in (ManifoldGeometry(), DoubledGeometry(), ElectrodynamicsGeometry(0.6 - 0.9j)):
        w, f, g = overlapping_action_inputs(rng, geo.n_weyl_fields, cutoff=2)
        op = geo.dressed_dirac(f, g)
        pro = promote_weyl_fields(w)
        out.append((geo, op, pro, fermionic_action(geo, op, pro)))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max", type=float, default=3.0, help="largest rapidity")
    parser.add_argument("--steps", type=int, default=7, help="grid points (excluding 0)")
    parser.add_argument("--axis", default="1,0,0", help="boost axis, three comma floats")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    try:
        axis = parse_axis(args.axis)
        parse_rapidity(args.max, "--max")
    except UsageError as exc:
        parser.error(str(exc))
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    fixtures = _fixtures(args.seed)
    rng = np.random.default_rng(args.seed + 1)
    f4 = rng.standard_normal(4)
    g4 = rng.standard_normal(4)
    d = complex(rng.standard_normal(), rng.standard_normal())

    names = ["manifold", "doubled", "electro"]
    print(f"axis {axis}, seed {args.seed}")
    header = f"{'rapidity':>8}  " + "  ".join(f"{n:>10}" for n in names)
    print(header + f"  {'weyl-red':>10}  {'dirac-red':>10}")
    for rap in np.linspace(args.max / args.steps, args.max, args.steps):
        boost = SpinBoost(0.5 * rap, axis)
        defects = [
            abs(fermionic_action(geo, op, pro, boost=boost) - plain)
            for geo, op, pro, plain in fixtures
        ]
        wred = max(
            boosted_weyl_reduction_residual(boost, f4, handed)
            for handed in ("left", "right")
        )
        dred = max(
            boosted_dirac_reduction_residual(boost, f4, g4, d, primed)
            for primed in (False, True)
        )
        cells = "  ".join(f"{v:10.3e}" for v in defects)
        print(f"{rap:8.3f}  {cells}  {wred:10.3e}  {dred:10.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
