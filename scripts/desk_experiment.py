#!/usr/bin/env python3
"""Walk the worked example f(z) = z + t z^2 + z^3 over F_3((t)) end to end.

Prints the ramification data, the iterative residue, the periodic-point
valuation bound, and the Newton polygons of the first two cycle
quotients, then cross-checks the polygon roots against the bound.  Exits 1
when a period-3 root valuation exceeds the bound, with or without --json.
"""

import argparse
import json
import sys
import time

from parabolic_lab import (
    ParabolicGerm,
    cycle_valuations,
    parse_field,
    parse_series,
    periodic_valuation_bound,
    ramification_profile,
    resit,
)


def run(as_json: bool) -> int:
    start = time.monotonic()
    ring = parse_field("Laurent(GF(3))")
    f = ParabolicGerm(parse_series("z + t*z^2 + z^3", ring))

    prof = ramification_profile(f, 2, 40)
    r = resit(f)
    bound = periodic_valuation_bound(f, 1)
    fixed = cycle_valuations(f, 0)
    cycle = cycle_valuations(f, 1)

    doc = {
        "germ": "z + t*z^2 + z^3",
        "field": "Laurent(GF(3))",
        "profile": prof.to_jsonable(),
        "resit": str(r),
        "bound": bound.to_jsonable(),
        "fixed_points": fixed.to_jsonable(),
        "period_three": cycle.to_jsonable(),
        "seconds": round(time.monotonic() - start, 3),
    }
    worst = max((v for v, _ in cycle.root_valuations() if v > 0), default=None)
    within = worst is None or worst <= bound.bound_valuation
    if as_json:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0 if within else 1

    print(f"germ f(z) = {doc['germ']}  over  {doc['field']}")
    for e in prof.entries:
        print(f"  level {e.n}:  jump i_{e.n} = {e.i},  delta_{e.n} = {e.delta}")
    print(f"  iterative residue: {r}")
    print(f"  valuation bound for period-3 points: {bound.bound_valuation} "
          f"(branch {bound.branch})")
    print("  fixed-point polygon:", fixed.to_jsonable()["root_valuations"])
    print("  period-3 polygon:  ", cycle.to_jsonable()["root_valuations"])
    print(f"  largest positive root valuation {worst} <= bound "
          f"{bound.bound_valuation}: {within}")
    print(f"  done in {doc['seconds']}s")
    return 0 if within else 1


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", action="store_true", help="emit one JSON document")
    raise SystemExit(run(ap.parse_args().json))
