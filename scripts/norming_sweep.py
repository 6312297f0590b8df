#!/usr/bin/env python3
"""Sweep the dyadic norming verification over (d, alpha, p) and print the
observed maxima against the certified bounds. Each call computes one basis
norm per class, a level and a count of odd coordinates: (kmax + 1) d values.
At d = 3 the hosts of the classes with three odd coordinates exceed the
exact-norm cap, so the sweep runs the fallback cost next to the exact norms.

Usage: python3 scripts/norming_sweep.py [--kmax K] [--out-dir DIR]
"""

import argparse
from pathlib import Path

from freep.dyadic import verify_norming
from freep.reportio import report_json


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmax", type=int, default=2)
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args()

    header = (
        f"{'d':>2} {'alpha':>6} {'p':>5} {'basis max':>10} {'basis bnd':>10} "
        f"{'mol max':>9} {'mol bnd':>12} {'bm bound':>12}"
    )
    print(header)
    print("-" * len(header))
    for d in (1, 2, 3):
        for alpha in (0.25, 0.5, 0.75):
            for p in (1.0, 0.5):
                report = verify_norming(d, alpha, p, args.kmax)
                print(
                    f"{d:>2} {alpha:>6.2f} {p:>5.2f} {report['max_basis_norm']:>10.4f} "
                    f"{report['basis_bound']:>10.4f} {report['max_molecule_cost']:>9.4f} "
                    f"{report['molecule_bound']:>12.4g} {report['bm_bound']:>12.4g}"
                )
                if args.out_dir:
                    out = Path(args.out_dir)
                    out.mkdir(parents=True, exist_ok=True)
                    name = f"norming_d{d}_a{alpha:g}_p{p:g}.json"
                    (out / name).write_text(report_json(report))


if __name__ == "__main__":
    main()
