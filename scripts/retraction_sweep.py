#!/usr/bin/env python3
"""Sweep the retraction sampling harness over (d, p) configurations and
print the certified Lipschitz evidence next to the theoretical sandwich.

Usage: python3 scripts/retraction_sweep.py [--samples N] [--seed S] [--out-dir DIR]
"""

import argparse
from pathlib import Path

from freep.cubes import CubeComplex
from freep.reportio import report_json
from freep.retraction import build_context, estimate_lipschitz

COMPLEXES = {
    1: CubeComplex(d=1, R=1.0, offsets=((0,), (1,), (2,), (3,))),
    2: CubeComplex(d=2, R=1.0, offsets=((0, 0), (1, 0), (1, 1), (2, 1))),
    3: CubeComplex(d=3, R=1.0, offsets=((0, 0, 0), (1, 0, 0))),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args()

    header = (
        f"{'d':>2} {'p':>5} {'lower':>9} {'max low':>9} "
        f"{'max cost':>9} {'upper':>9} {'residual':>9}"
    )
    print(header)
    print("-" * len(header))
    for d, complex in COMPLEXES.items():
        ctx = build_context(complex)
        for p in (1.0, 0.75, 0.5):
            report = estimate_lipschitz(ctx, p, args.samples, args.seed)
            print(
                f"{d:>2} {p:>5.2f} {report['theoretical_lower']:>9.4f} "
                f"{report['max_lower_ratio']:>9.4f} {report['max_upper_cost_ratio']:>9.4f} "
                f"{report['theoretical_upper']:>9.4f} "
                f"{report['max_reconstruction_residual']:>9.2e}"
            )
            if args.out_dir:
                out = Path(args.out_dir)
                out.mkdir(parents=True, exist_ok=True)
                (out / f"retraction_d{d}_p{p:g}.json").write_text(report_json(report))


if __name__ == "__main__":
    main()
