"""The four randomized verification sweeps, each defined once.

A sweep draws `cases` inputs from the random.Random it is given, runs the
library's oracle on each and returns the failure witnesses in case order (an
empty list when every case passes).  Each witness is a JSON-ready dict whose
first key is the case index.  The `parabolic-lab verify` subcommands and
scripts/run_sweeps.py run them from SWEEPS, the acceptance tests directly, so
one rng state means the same sampled inputs everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable

from .closed_forms import delta_tower, semiconj_check, verify_main_lemma
from .coeff_rings import FiniteField
from .formal_series import identity
from .literals import scalar_to_jsonable, series_to_str
from .ramification import check_quasi_invariance
from .samplers import (
    random_coeff_tuple,
    random_coordinate_change,
    random_parabolic_germ,
    random_reduced_germ,
    random_vanishing_series,
)


def main_lemma(rng: Random, field: FiniteField, q: int, n: int,
               N: int | None = None, cases: int = 50) -> list[dict]:
    """Closed-form chi/xi against the iterate of gamma*z*(1 + a1 z^q + a2 z^2q)."""
    failures = []
    for i in range(cases):
        a = random_coeff_tuple(rng, field)
        rep = verify_main_lemma(field, q, n, a, N=N)
        if not rep.ok:
            failures.append({"case": i,
                             "coeffs": [scalar_to_jsonable(c) for c in a],
                             "mismatch": rep.mismatch})
    return failures


def semiconj(rng: Random, field: FiniteField, q: int,
             N: int | None = None, cases: int = 50) -> list[dict]:
    """z -> z^q intertwines a reduced germ with its shadow for m in {q, qp}."""
    failures = []
    for i in range(cases):
        g = random_reduced_germ(rng, field, q, N=N)
        for m in (q, q * field.char):
            rep = semiconj_check(g, m)
            if not rep.ok:
                failures.append({"case": i, "m": m,
                                 "series": series_to_str(g.series),
                                 "mismatch": rep.mismatch})
    return failures


def difference_tower(rng: Random, field: FiniteField, N: int,
                     cases: int = 100) -> list[dict]:
    """The p-step difference tower of f against f^p - z mod z^N, p = char."""
    p = field.char
    failures = []
    for i in range(cases):
        f = random_vanishing_series(rng, field, N)
        o = (delta_tower(f, p) - (f.iterate(p) - identity(field, N))).order()
        if o is not None:
            failures.append({"case": i, "series": series_to_str(f),
                             "mismatch": o})
    return failures


def quasi_invariance(rng: Random, field: FiniteField, q: int, n_max: int,
                     N: int | None = None, cases: int = 50) -> list[dict]:
    """The profile of f against that of a random conjugate, levels <= n_max."""
    failures = []
    for i in range(cases):
        f = random_parabolic_germ(rng, field, q, N=N)
        h = random_coordinate_change(rng, field, f.n_trunc)
        rep = check_quasi_invariance(f, h, n_max=n_max)
        if not rep.ok:
            failures.append({"case": i, "series": series_to_str(f.series),
                             "change": series_to_str(h),
                             "rows": rep.to_jsonable()["rows"]})
    return failures


@dataclass(frozen=True)
class Sweep:
    """How `parabolic-lab verify` and scripts/run_sweeps.py run one sweep.

    flags maps each flag the command reads besides --p and --seed to the
    value it takes when not given.  run is called as run(rng, field,
    cases=cases, **keywords(values)): --field picks the field, --coeffs asks
    for main-lemma's single check instead, and --nmax passes as n_max.  The
    document shows the keywords in shown, in that order.
    """

    run: Callable[..., list[dict]]
    cases: int
    flags: dict[str, int | None]
    shown: tuple[str, ...]

    def keywords(self, values: dict) -> dict:
        """The keyword arguments of run for the flag values given."""
        return {"n_max" if flag == "nmax" else flag:
                default if values.get(flag) is None else values[flag]
                for flag, default in self.flags.items()
                if flag not in ("field", "coeffs")}


SWEEPS = {
    "main-lemma": Sweep(main_lemma, 50, dict.fromkeys(
        ("field", "coeffs", "q", "n", "N")), ("q", "n")),
    "semiconj": Sweep(semiconj, 50, {"q": None, "N": None}, ("q",)),
    "delta-tower": Sweep(difference_tower, 100, {"N": 12}, ("N",)),
    "quasi-invariance": Sweep(quasi_invariance, 50,
                              {"q": None, "nmax": 1, "N": None},
                              ("q", "n_max")),
}
