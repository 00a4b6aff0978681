#!/usr/bin/env python3
"""Run every randomized verification sweep across the standard (p, q) pairs.

Thin driver over parabolic_lab.sweeps.SWEEPS, the table the CLI's `verify`
subcommands run one (p, q) at a time; each pair gets a fresh Random(seed).
A sweep that reads no --q runs on the pairs with q = 1, and one that reads
--n runs levels 1 and 2 on one rng.  Exits nonzero if any case in any sweep
fails.
"""

import argparse
import sys
import time
from random import Random

from parabolic_lab import sweeps
from parabolic_lab.samplers import STANDARD_PAIRS, standard_field


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--cases", type=int, default=50,
                    help="cases per (p, q) pair per sweep")
    args = ap.parse_args()

    failures = 0
    for name, sweep in sweeps.SWEEPS.items():
        t0 = time.monotonic()
        bad = 0
        for p, q in STANDARD_PAIRS:
            if q != 1 and "q" not in sweep.flags:
                continue
            rng, field = Random(args.seed), standard_field(p, q)
            for n in (1, 2) if "n" in sweep.flags else (None,):
                kw = sweep.keywords({"q": q, "n": n})
                bad += len(sweep.run(rng, field, cases=args.cases, **kw))
        dt = time.monotonic() - t0
        status = "ok" if bad == 0 else f"{bad} FAILED"
        print(f"{name:24s} {status:12s} ({dt:.1f}s)")
        failures += bad
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
