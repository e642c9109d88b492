"""Margin survey for the verification registry.

Runs the full battery over a range of seeds and reports, per check, the
worst observed error and its distance to the gate.  Useful when touching
tolerances or numerics: a check whose margin ratio creeps toward 1 is
about to start flaking.

    python3 scripts/run_verification.py --seeds 10
    python3 scripts/run_verification.py --groups actions,boost --seeds 25
"""

import argparse
import sys

from twistkit.checks import GROUPS, RunConfig, run_checks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=8, help="number of consecutive seeds")
    parser.add_argument("--start", type=int, default=0, help="first seed")
    parser.add_argument("--groups", default=None, help="comma-separated group subset")
    parser.add_argument("--rapidity", type=float, default=2.0, help="boost rapidity cap")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    groups = tuple(args.groups.split(",")) if args.groups else GROUPS
    try:
        configs = [
            RunConfig(seed=seed, groups=groups, rapidity_max=args.rapidity)
            for seed in range(args.start, args.start + args.seeds)
        ]
    except ValueError as exc:
        parser.error(str(exc))
    worst: dict[str, float] = {}
    gates: dict[str, float] = {}
    failures = []
    for cfg in configs:
        for rec in run_checks(cfg):
            if rec.status == "fail":
                failures.append((cfg.seed, rec.check_id, rec.max_abs_error))
            if rec.status != "pass":
                continue
            gates[rec.check_id] = rec.tolerance
            worst[rec.check_id] = max(worst.get(rec.check_id, 0.0), rec.max_abs_error)

    rows = sorted(worst, key=lambda cid: worst[cid] / gates[cid], reverse=True)
    width = max(len(cid) for cid in rows) if rows else 10
    print(f"{args.seeds} seeds starting at {args.start}; worst error per check:")
    print(f"{'check':<{width}}  {'worst':>10}  {'gate':>8}  {'margin':>7}")
    for cid in rows:
        ratio = worst[cid] / gates[cid]
        print(f"{cid:<{width}}  {worst[cid]:10.3e}  {gates[cid]:8.1e}  {ratio:7.1%}")
    if failures:
        print(f"\n{len(failures)} failure(s):")
        for seed, cid, err in failures:
            print(f"  seed {seed}: {cid} err={err:.3e}")
        return 1
    print("\nno failures.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
