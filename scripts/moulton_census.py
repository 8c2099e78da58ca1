"""Census of collinear central configurations over random mass draws.

For each trial draws a mass vector, solves every reflection class of
ordering through ``solve_collinear_all`` (which checks the n!/2 count),
and records the residual and Hessian signature of each solution.

Example:
    python scripts/moulton_census.py --n 4 --trials 20 --seed 7 --out census
"""
import argparse
import csv
import time
from pathlib import Path

import numpy as np

from qhnbody.central_config import CCQuery, solve_collinear_all
from qhnbody.model import MassSystem, PotentialParams


def main():
    p = argparse.ArgumentParser(
        description="Count and certify collinear central configurations"
    )
    p.add_argument("--n", type=int, default=4, help="number of bodies (2..6)")
    p.add_argument("--trials", type=int, default=20, help="mass vectors to draw")
    p.add_argument("--seed", type=int, default=7, help="RNG seed")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=3.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--mass-lo", type=float, default=0.2)
    p.add_argument("--mass-hi", type=float, default=5.0)
    p.add_argument("--out", type=str, default="census", help="output directory")
    args = p.parse_args()

    if not 2 <= args.n <= 6:
        p.error("--n must be between 2 and 6")
    if args.trials < 1:
        p.error("--trials must be at least 1")
    pp = PotentialParams(a=args.a, b=args.b, alpha=args.alpha, beta=args.beta)
    rng = np.random.default_rng(args.seed)

    rows = []
    t0 = time.monotonic()
    for trial in range(args.trials):
        masses = rng.uniform(args.mass_lo, args.mass_hi, size=args.n)
        for cc in solve_collinear_all(CCQuery(ms=MassSystem(masses), pp=pp)):
            rows.append(
                {
                    "trial": trial,
                    "ordering": "".join(map(str, cc.ordering.perm)),
                    "sigma": cc.sigma,
                    "residual": cc.residual,
                    "min_hess_eig": float(cc.hess_eigs.min()) if cc.hess_eigs.size else 0.0,
                    "index": cc.index,
                    **{f"m{k + 1}": m for k, m in enumerate(masses)},
                }
            )
    elapsed = time.monotonic() - t0

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "census.csv"
    with path.open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)

    n_min = sum(1 for r in rows if r["min_hess_eig"] > 0.0)
    print(f"n={args.n}: {len(rows) // args.trials} classes x {args.trials} trials, "
          f"{elapsed:.2f}s total")
    print(f"worst residual {max(r['residual'] for r in rows):.3e}; "
          f"{n_min}/{len(rows)} solutions are constrained minima")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
