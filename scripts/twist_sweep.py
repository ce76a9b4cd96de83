"""Sweep the twist level k of a blow-up model and watch the period not move.

Every k gives a different bundle Gr(r, sum O(k - c_j)) presenting the same
blow-up, so the regularised period must be identical column by column.
Lattice floors, class enumeration, and per-degree point counts all change
with k, which makes this a decent stress test of the bookkeeping.  A k whose
class enumeration is not finite raises GradingError, and a blow-up that is
not Fano raises NotFanoError at every k; the sweep prints either and goes
on to the next k.  It exits nonzero if a period moves or if no level gave a
series, since then it compared nothing.
"""

import argparse
import time

from grperiod.assembler import NotFanoError, estimate_points, period_series
from grperiod.targets import BlowUpSpec, GradingError, normalize_blowup


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base-dim", type=int, default=4)
    ap.add_argument("--center-degrees", default="1,1,2")
    ap.add_argument("--dmax", type=int, default=8)
    ap.add_argument("--kmin", type=int, default=0)
    ap.add_argument("--kmax", type=int, default=4)
    args = ap.parse_args()

    degrees = tuple(int(p) for p in args.center_degrees.split(","))
    spec = BlowUpSpec(args.base_dim, degrees)
    print(f"blow-up of P^{spec.base_dim} in degrees {degrees}, dmax {args.dmax}")
    print(f"{'k':>3} {'points':>8} {'time':>8}  series")

    reference, compared = None, 0
    levels = range(args.kmin, args.kmax + 1)
    for k in levels:
        target, twist = normalize_blowup(spec, twist_k=k)
        try:
            points = estimate_points(target, twist, args.dmax)
            t0 = time.perf_counter()
            ps = period_series(target, twist, args.dmax, budget=None)
        except (GradingError, NotFanoError) as exc:
            print(f"{k:>3} {type(exc).__name__}: {exc}")
            continue
        dt = time.perf_counter() - t0
        row = " ".join(str(v) for v in ps.regularised)
        print(f"{k:>3} {points:>8} {dt:>7.2f}s  {row}")
        compared += 1
        if reference is None:
            reference = ps.regularised
        elif ps.regularised != reference:
            raise SystemExit(f"period moved at k={k} -- this is a bug")
    if not compared:
        raise SystemExit("no twist level gave a series, so nothing was compared")
    print(f"{compared} of {len(levels)} twist levels gave a series; no period moved")


if __name__ == "__main__":
    main()
