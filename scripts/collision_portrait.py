"""Portrait of the flow on the total-collision manifold.

Starts a batch of perturbed equilateral shapes on the manifold and
follows each orbit of the rescaled flow, recording how far the
Lyapunov-like coordinate v drops and which rest point of the pure-b
catalog, aligned over rotations, the orbit ends nearest.  On the way it
cross-checks the advertised monotonicity: v never increases along any
orbit.

Example:
    python scripts/collision_portrait.py --trials 12 --tau-max 40 --out portrait
"""
import argparse
import csv
from pathlib import Path

import numpy as np

from qhnbody.collision_flow import (
    integrate_on_C,
    manifold_start,
    nearest_equilibrium,
    pure_b_catalog,
)
from qhnbody.mcgehee import unpack_mcgehee
from qhnbody.model import MassSystem, PotentialParams


def main():
    p = argparse.ArgumentParser(
        description="Batch portrait of orbits on the total-collision manifold"
    )
    p.add_argument("--trials", type=int, default=12)
    p.add_argument("--seed", type=int, default=3,
                   help="trial k perturbs with seed + k")
    p.add_argument("--masses", type=float, nargs=3, default=[1.0, 2.0, 3.0])
    p.add_argument("--b", type=float, default=3.0)
    p.add_argument("--scale", type=float, default=0.08,
                   help="tangential perturbation size")
    p.add_argument("--tau-max", type=float, default=40.0)
    p.add_argument("--out", type=str, default="portrait")
    args = p.parse_args()
    if args.trials < 1:
        p.error("--trials must be at least 1")

    ms = MassSystem(args.masses)
    pp = PotentialParams(a=1.0, b=args.b, alpha=1.0, beta=1.0)
    catalog = pure_b_catalog(ms, args.b)

    rows = []
    for trial in range(args.trials):
        v_sign = +1 if trial % 2 == 0 else -1
        try:
            st0 = manifold_start(catalog[0].config, ms, pp, args.scale, args.seed + trial, v_sign)
        except ValueError as exc:
            p.error(str(exc))
        tr = integrate_on_C(st0, ms, pp, tau_max=args.tau_max)
        vs = tr.states[:, 1]
        if np.any(np.diff(vs) > 1e-9 * max(1.0, float(np.abs(vs).max()))):
            raise SystemExit(f"trial {trial}: v increased along the orbit")
        st1 = unpack_mcgehee(tr.states[-1], ms.n, 2)
        near = nearest_equilibrium(st1.s, st1.v, catalog, ms, pp)
        label = near.cc.kind
        if near.cc.ordering is not None:
            label += "".join(map(str, near.cc.ordering.perm))
        rows.append(
            {
                "trial": trial,
                "v_sign": v_sign,
                "v_start": float(vs[0]),
                "v_end": float(vs[-1]),
                "v_drop": float(vs[0] - vs[-1]),
                "tau_end": float(tr.times[-1]),
                "termination": tr.termination,
                "nearest": f"{label}:{'+' if near.v_sign > 0 else '-'}",
                "distance": float(np.hypot(near.shape_distance, near.v_distance)),
            }
        )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "portrait.csv"
    with path.open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)

    drops = [r["v_drop"] for r in rows]
    print(f"{len(rows)} orbits, v monotone on all; "
          f"drop range [{min(drops):.3e}, {max(drops):.3e}]")
    for r in rows:
        print(f"  trial {r['trial']:2d} v {r['v_start']:+.4f} -> "
              f"{r['v_end']:+.4f}  {r['termination']:<18} near {r['nearest']}")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
