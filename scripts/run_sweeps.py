#!/usr/bin/env python3
"""Run every randomized verification sweep across the standard (p, q) pairs.

Thin driver over parabolic_lab.sweeps, the same definitions the CLI's
`verify` subcommands run one (p, q) at a time; each pair gets a fresh
Random(seed).  Exits nonzero if any case in any sweep fails.
"""

import argparse
import sys
import time
from random import Random

from parabolic_lab import sweeps
from parabolic_lab.samplers import STANDARD_PAIRS, standard_field


def main_lemma_levels(rng, field, q, cases):
    # one rng across both levels
    return [w for n in (1, 2)
            for w in sweeps.main_lemma(rng, field, q, n, cases=cases)]


# (name, (p, q) pairs, sweep(rng, field, q, cases) -> failure witnesses)
SWEEPS = [
    ("closed-form iterates", STANDARD_PAIRS, main_lemma_levels),
    ("difference tower", ((2, 1), (3, 1), (5, 1)),
     lambda rng, field, q, cases:
         sweeps.difference_tower(rng, field, cases=cases)),
    ("semiconjugacy", STANDARD_PAIRS,
     lambda rng, field, q, cases: sweeps.semiconj(rng, field, q, cases=cases)),
    ("quasi-invariance", STANDARD_PAIRS,
     lambda rng, field, q, cases:
         sweeps.quasi_invariance(rng, field, q, cases=cases)),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--cases", type=int, default=50,
                    help="cases per (p, q) pair per sweep")
    args = ap.parse_args()

    failures = 0
    for name, pairs, sweep in SWEEPS:
        t0 = time.monotonic()
        bad = sum(len(sweep(Random(args.seed), standard_field(p, q), q,
                            args.cases))
                  for p, q in pairs)
        dt = time.monotonic() - t0
        status = "ok" if bad == 0 else f"{bad} FAILED"
        print(f"{name:24s} {status:12s} ({dt:.1f}s)")
        failures += bad
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
