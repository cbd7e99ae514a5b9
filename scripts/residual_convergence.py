#!/usr/bin/env python3
"""Grid-refinement study of the arc-indicator eigenvector residuals.

For each test angle, computes ||T chi_lam - e^{i lam} chi_lam|| / ||chi_lam||
across a ladder of grid sizes and checks that each doubling shrinks the
residual by the pinned ratio.  Also verifies the fixed vector T1 = 1 at
first order.  Writes the residual table as a JSON artifact.
"""

import argparse
import math

from hyperlab.jsonio import write_json
from hyperlab.runner import residual_rows, t1_error

RATIO_BOUND = 0.75
T1_FACTOR = 50.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grids", type=lambda s: [int(v) for v in s.split(",")],
                    default=[1024, 2048, 4096])
    ap.add_argument("--angle", type=float, action="append",
                    help="test angle in (0, 2pi); repeatable")
    ap.add_argument("--out", default="residual-table.json")
    args = ap.parse_args()
    angles = args.angle or [2.0 * math.pi / 3.0, math.pi, 2.0 * math.pi * 0.811]

    print(f"{'lambda':>10}  {'grid':>6}  {'residual':>12}  {'ratio':>8}")
    rows = residual_rows(angles, args.grids)
    for lam, M, r, ratio in rows:
        print(f"{lam:10.6f}  {M:6d}  {r:12.3e}  {ratio:8.3f}")
    ok = not any(ratio > RATIO_BOUND for _, _, _, ratio in rows)

    t1_ok = True
    for M in args.grids:
        err = t1_error(M)
        t1_ok = t1_ok and err <= T1_FACTOR / M
        print(f"T1 error at M={M}: {err:.3e} (bound {T1_FACTOR / M:.3e})")

    print(("PASS" if ok else "FAIL")
          + f": residual decay ratio <= {RATIO_BOUND} at every doubling")
    print(("PASS" if t1_ok else "FAIL") + f": T1 = 1 within {T1_FACTOR}/M")

    write_json(args.out, {"schema": "residual-table/1", "grids": args.grids,
                          "ratio_bound": RATIO_BOUND,
                          "rows": [{"lambda": lam, "grid": M, "residual": r}
                                   for lam, M, r, _ in rows]})
    print(f"wrote {args.out}")
    return 0 if ok and t1_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
