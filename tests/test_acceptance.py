"""The release gate.

Each test here is one acceptance criterion, numbered c01 through c12.
Every comparison is bit-exact: no tolerances anywhere.  A summary line
per criterion is printed at the end of the pytest run (see conftest).
Seeds are pinned so the sampled sweeps are reproducible.
"""

import json
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from parabolic_lab import (
    NotDivisible,
    ParabolicGerm,
    ResitUndefined,
    UnboundedBound,
    cycle_valuations,
    identity,
    is_minimally_ramified,
    iterate_q_closed,
    mq_evaluate,
    parse_field,
    parse_series,
    periodic_valuation_bound,
    ramification_lower_bound,
    ramification_profile,
    reduced_leading_pair,
    resit,
    root_of_unity,
    series,
    to_normal_form,
    verify_main_lemma,
)
from parabolic_lab import sweeps
from parabolic_lab.cli import main as cli_main
from parabolic_lab.samplers import (
    STANDARD_PAIRS,
    random_minimal_polynomial_germ,
    random_parabolic_germ,
    random_polynomial_germ,
    standard_field,
)

GOLDEN = Path(__file__).parent / "golden"


def test_c01_closed_form_iterates_sweep():
    # 50 coefficient tuples per admissible pair and level, exact agreement
    # through the window bound+2q+1, in under a minute
    start = time.monotonic()
    for p, q in STANDARD_PAIRS:
        field = standard_field(p, q)
        rng = Random(1000 + 10 * p + q)
        for n in (1, 2):
            failures = sweeps.main_lemma(rng, field, q, n, cases=50)
            assert failures == [], (p, q, n)
            # the window depends on (p, q, n) only, not on the coefficients
            zero = field.zero()
            rep = verify_main_lemma(field, q, n, (zero, zero))
            assert rep.window == ramification_lower_bound(p, q, n) + 2 * q + 1
    assert time.monotonic() - start < 60.0


def test_c02_q_fold_iterate_closed_form():
    # the three low-order coefficients of f^q from the closed form match
    # direct q-fold composition through z^(3q+1)
    for p, q in STANDARD_PAIRS:
        field = standard_field(p, q)
        g = root_of_unity(field, q)
        rng = Random(2000 + 10 * p + q)
        for _ in range(50):
            a1 = field.from_int(rng.randrange(field.order))
            a2 = field.from_int(rng.randrange(field.order))
            N = 3 * q + 1
            f = series(field, {1: g, q + 1: g * a1, 2 * q + 1: g * a2}, N)
            fq = f.iterate(q)
            u0, u1, u2 = iterate_q_closed(g, q, a1, a2)
            assert fq.coeff(1) == u0
            assert fq.coeff(q + 1) == u1
            assert fq.coeff(2 * q + 1) == u2
            for e in range(2, 2 * q + 1):
                if e != q + 1:
                    assert fq.coeff(e).is_certified_zero()


def test_c03_difference_tower_oracle():
    # the p-step difference tower equals f^p - z, two independent routes,
    # on random series vanishing at 0 mod z^12
    for p in (2, 3, 5):
        field = standard_field(p, 1)
        failures = sweeps.difference_tower(Random(3000 + p), field, N=12,
                                           cases=100)
        assert failures == [], p


def test_c04_jump_bound_and_monotonicity():
    # every exact jump clears the universal lower bound and the sequence
    # is strictly increasing where defined
    for p, q in STANDARD_PAIRS:
        field = standard_field(p, q)
        rng = Random(4000 + 10 * p + q)
        for _ in range(200):
            f = random_parabolic_germ(rng, field, q)
            prof = ramification_profile(f, 2)
            exact = [e.i for e in prof.entries if isinstance(e.i, int)]
            for e in prof.entries:
                if isinstance(e.i, int):
                    assert e.i >= ramification_lower_bound(p, q, e.n)
            assert all(a < b for a, b in zip(exact, exact[1:]))


def test_c05_genericity_criterion_matches_definition():
    # criterion-mode and definitional-mode verdicts agree, and the
    # polynomial invariant vanishes exactly on the non-minimal germs
    for p, q in STANDARD_PAIRS:
        field = standard_field(p, q)
        rng = Random(5000 + 10 * p + q)
        for _ in range(40):
            f = random_parabolic_germ(rng, field, q)
            crit = is_minimally_ramified(f, "criterion", n_max=2)
            defi = is_minimally_ramified(f, "definitional", n_max=2)
            assert crit.minimal == defi.minimal, (p, q, f)
            mq = mq_evaluate(f)
            assert (mq == field.zero()) == (not crit.minimal)


def test_c06_normal_form_support_and_recomposition():
    # support lands on exponents 1 mod q, the conjugation recomposes
    # through z^(2q+2), and delta_0(f^q) = q * a1
    cases = 0
    for q, p in ((2, 3), (2, 5), (4, 5), (4, 3)):
        field = standard_field(p, q)
        rng = Random(6000 + 10 * p + q)
        for _ in range(25):
            N = 2 * q + 2
            f = random_parabolic_germ(rng, field, q, N=N)
            nf = to_normal_form(f, N=N)
            for j in range(nf.g.n_trunc):
                if not nf.g.coeff(j).is_certified_zero():
                    assert j % q == 1
            assert (nf.h.compose(f.series) - nf.g.compose(nf.h)).order() is None
            a1, _ = reduced_leading_pair(f)
            fq = f.series.iterate(q)
            assert fq.coeff(q + 1) == field.from_int(q) * a1
            gq = ParabolicGerm(nf.g).series.iterate(q)
            assert gq.coeff(q + 1) == field.from_int(q) * a1
            cases += 1
    assert cases == 100


def test_c07_profile_quasi_invariance_under_conjugation():
    # jumps match and leading coefficients scale by h'(0)^(i_n) for n <= 1
    done = 0
    for p, q in STANDARD_PAIRS:
        field = standard_field(p, q)
        cases = 9 if (p, q) != (2, 1) else 5
        failures = sweeps.quasi_invariance(Random(7000 + 10 * p + q), field,
                                           q, n_max=1, cases=cases)
        assert failures == [], (p, q)
        done += cases
    assert done == 50


def test_c08_desk_experiment():
    start = time.monotonic()
    L3 = parse_field("Laurent(GF(3))")
    f = ParabolicGerm(parse_series("z + t*z^2 + z^3", L3))
    t = L3.t

    prof = ramification_profile(f, 0, 10)
    assert (prof.entries[0].delta - t(1)).is_certified_zero()

    r = resit(f)
    assert (r - (L3.one() - t(-2))).is_certified_zero()

    assert periodic_valuation_bound(f, 1).bound_valuation == Fraction(1, 3)

    rep1 = cycle_valuations(f, 1)
    quot_degree = rep1.polygon.vertices[-1][0]
    assert quot_degree == 24
    for val, _ in rep1.root_valuations():
        if val > 0:
            assert val <= Fraction(1, 3)

    rep0 = cycle_valuations(f, 0)
    assert rep0.root_valuations() == [(Fraction(1), 1)]
    assert rep0.wideg == 3 == 1 + 1 + 1  # i_0 + q + 1
    assert rep0.equality_condition_holds == "yes"
    assert rep0.cycle_points == 1
    assert time.monotonic() - start < 5.0


def test_c09_uniform_bound_across_levels():
    # for a criterion-certified polynomial germ the bound is finite and
    # the same at every level: one punctured neighborhood works for all
    # high periods at once
    L3 = parse_field("Laurent(GF(3))")
    rng = Random(11)
    f = random_minimal_polynomial_germ(rng, L3, 1)
    assert is_minimally_ramified(f, "criterion").minimal
    bounds = [periodic_valuation_bound(f, n).bound_valuation for n in (1, 2, 3)]
    assert bounds[0] == bounds[1] == bounds[2]
    assert bounds[0] > 0


def test_c10_iterate_divisibility_with_integral_quotient():
    # f^(q p^(n-1)) - z divides f^(q p^n) - z with integral quotient;
    # NotDivisible anywhere in the pipeline is a build failure
    L3 = parse_field("Laurent(GF(3))")
    L2 = parse_field("Laurent(GF(2))")
    rng = Random(10010)
    try:
        for ring, q, degree in ((L3, 1, 2), (L3, 1, 3), (L2, 1, 2)):
            for _ in range(6):
                f = random_polynomial_germ(rng, ring, q, degree=degree)
                rep = cycle_valuations(f, 1)
                assert rep.expected_cycle_points == q * f.char
        # characteristic 2 reaches n = 2 exactly on quadratic germs
        for _ in range(4):
            f = random_polynomial_germ(rng, L2, 1, degree=2)
            rep = cycle_valuations(f, 2)
            assert rep.polygon.vertices[-1][0] == 12  # 16 - 4
        # truncated route: the bottom-up quotient stays integral
        for _ in range(10):
            f = random_parabolic_germ(rng, standard_field(3, 1), 1, N=40)
            num = f.series.iterate(9) - identity(f.ring, 40)
            den = f.series.iterate(3) - identity(f.ring, 40)
            if den.order() in (None, float("inf")):
                continue
            quot = num.divide_exact(den)
            assert all(c.valuation_lower_bound() >= 0 for c in quot.coeffs)
    except NotDivisible as e:  # pragma: no cover - build-failing by contract
        pytest.fail(f"divisibility broke: {e}")


def test_c11_power_map_semiconjugacy():
    # z -> z^q intertwines the reduced germ with its stretched shadow for
    # m in {q, q*p}
    for p, q in STANDARD_PAIRS:
        field = standard_field(p, q)
        failures = sweeps.semiconj(Random(11000 + 10 * p + q), field, q,
                                   N=4 * q + 2, cases=50)
        assert failures == [], (p, q)


def test_c12_cli_golden_files(tmp_path):
    jobs = [
        ("ramify.json",
         ["ramify", "--field", "GF(2)", "--series", "z + z^2",
          "--nmax", "2", "--N", "20"]),
        ("main_lemma.json",
         ["verify", "main-lemma", "--p", "3", "--q", "1", "--n", "1",
          "--coeffs", "1,0", "--N", "10"]),
        ("newton.json",
         ["newton", "--field", "Laurent(GF(3))", "--poly", "t*z^2 + z^3"]),
        ("main_lemma_sweep.json",
         ["verify", "main-lemma", "--p", "3", "--q", "2", "--n", "1",
          "--seed", "2026"]),
        ("bounds_desk.json",
         ["bounds", "--field", "Laurent(GF(3))", "--series",
          "z + t*z^2 + z^3", "--n", "1"]),
        ("cycle_desk.json",
         ["cycle-valuations", "--field", "Laurent(GF(3))", "--series",
          "z + t*z^2 + z^3", "--n", "1"]),
    ]
    for name, argv in jobs:
        out = tmp_path / name
        assert cli_main(argv + ["--json-out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes(), name
    # spot-check the pinned contents themselves
    doc = json.loads((GOLDEN / "ramify.json").read_text())
    assert doc == {"q": 1, "N": 20, "i": [1, 3, 15], "delta": [1, 1, 1],
                   "resit": 1}
    doc = json.loads((GOLDEN / "newton.json").read_text())
    assert doc["segments"] == [{"slope": "-1/1", "length": 1}]
