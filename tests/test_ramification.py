"""Ramification numbers, the iterative residue, and minimality verdicts.

Frozen expectations were derived by composing iterates step by step and
reading coefficients off by hand before the profile code existed; the
independence test below re-runs that brute-force route in-process.
"""

import math

import pytest
from random import Random

from parabolic_lab import (
    IndeterminateValuation,
    NotMinimallyRamifiedAtLevelZero,
    ParabolicGerm,
    ParabolicLabError,
    check_quasi_invariance,
    identity,
    is_minimally_ramified,
    mq_evaluate,
    parse_series,
    ramification_lower_bound,
    ramification_profile,
    resit,
    series,
)
from parabolic_lab.ramification import _levels
from parabolic_lab.samplers import (
    random_integral_scalar,
    random_parabolic_germ,
    standard_field,
)

from conftest import germ


def brute_profile(f, n_max, N):
    """Independent route: compose step by step, then scan for the order."""
    s = f.series.truncate(N)
    q, p = f.q, f.char
    out = []
    cur = s
    for _ in range(q - 1):
        cur = cur.compose(s)
    for n in range(n_max + 1):
        d = cur - identity(s.ring, N)
        o = next((i for i in range(1, N)
                  if not d.coeff(i + 1).is_certified_zero()), None)
        out.append((o, None if o is None else d.coeff(o + 1)))
        # p-fold composition of the current iterate with itself, step by step
        base = cur
        for _ in range(p - 1):
            cur = cur.compose(base)
    return out


def test_lower_bound_table():
    assert ramification_lower_bound(2, 1, 0) == 1
    assert ramification_lower_bound(2, 1, 1) == 3
    assert ramification_lower_bound(2, 1, 2) == 7
    assert ramification_lower_bound(3, 1, 2) == 13
    assert ramification_lower_bound(3, 2, 1) == 8
    assert ramification_lower_bound(5, 4, 2) == 124


def test_profile_of_the_simplest_wild_germ(F2):
    prof = ramification_profile(germ("z + z^2 mod z^20", F2), 2)
    assert [e.i for e in prof.entries] == [1, 3, 15]
    assert [e.delta for e in prof.entries] == [F2.one()] * 3
    assert prof.q == 1


def test_profile_matches_brute_force_composition(F3):
    f = germ("z + z^2 + 2*z^3 mod z^30", F3)
    prof = ramification_profile(f, 2, 30)
    brute = brute_profile(f, 2, 30)
    for entry, (i, delta) in zip(prof.entries, brute):
        assert entry.i == i
        if isinstance(i, int):
            assert entry.delta == delta


def test_profile_of_desk_germ(L3):
    f = germ("z + t*z^2 + z^3", L3)
    prof = ramification_profile(f, 2, 40)
    assert [e.i for e in prof.entries] == [1, 4, 13]
    t = L3.t
    assert (prof.entries[0].delta - t(1)).is_certified_zero()
    assert prof.entries[1].delta.valuation() == 2
    assert prof.entries[2].delta.valuation() == 5


def test_profile_beyond_window_is_open(F3):
    prof = ramification_profile(germ("2*z + 2*z^3 mod z^30", F3), 2)
    assert [e.i for e in prof.entries] == [2, 26, None]
    assert prof.entries[2].delta is None


def test_exact_linear_germ_has_infinite_jumps(F3):
    prof = ramification_profile(germ("2*z", F3), 1)
    assert [e.i for e in prof.entries] == [math.inf, math.inf]


@pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (2, 3), (5, 4)])
def test_levels_are_the_direct_iterates(p, q):
    # GF(4) carries q = 3 and GF(5) carries q = 4
    rng = Random(3100 + p * 10 + q)
    field = standard_field(p, q)
    for N in (q + 2, 8, 12):
        f = random_parabolic_germ(rng, field, q, N=N)
        s = f.series
        levels = _levels(s, q)
        for n in range(3):
            assert next(levels) == s.iterate(q * p ** n) - identity(field, N)


def test_levels_keep_t_precision(L3):
    # the tower and binary powering compose in different orders; the
    # O(t^k) bookkeeping must not depend on it
    rng = Random(3200)
    germs = [parse_series(text, L3) for text in (
        "z + (t + t^2 + O(t^6))*z^2 + (1 + O(t^3))*z^3 mod z^12",
        "z + t*z^2 + (1 + t^4 + O(t^7))*z^3 mod z^12")]
    for N in (6, 9):
        entries = {1: 1}
        for e in range(2, N):
            c = random_integral_scalar(rng, L3, 3)
            entries[e] = c.clip(rng.randrange(2, 6)) if e % 2 else c
        germs.append(series(L3, entries, N))
    for s in germs:
        levels = _levels(s, 1)
        for n in range(3):
            assert next(levels) == s.iterate(3 ** n) - identity(L3, s.n_trunc)


def test_parabolic_sampler_refuses_a_window_without_a_tail(F3):
    for N in (1, 2):
        with pytest.raises(ParabolicLabError, match="no room for a tail"):
            random_parabolic_germ(Random(1), F3, 1, N=N)


def test_resit_values(F3, L3):
    assert resit(germ("z + z^2 + 2*z^3 mod z^30", F3)) == F3.from_int(2)
    r = resit(germ("z + t*z^2 + z^3", L3))
    t = L3.t
    want = L3.one() - t(-2)  # 1 - t^(-2), printed 2*t^-2 + 1
    assert (r - want).is_certified_zero()
    assert r.valuation() == -2


def test_printed_resit_keeps_its_relative_precision(L3):
    # resit = m/a_1^2 with m = t^70 and a_1 = 1 + t: 1/a_1^2 is expanded far
    # enough to print resit to relative precision 64 from v(resit) = 70
    f = germ("z + (1 + t)*z^2 + (1 + 2*t + t^2 + 2*t^70)*z^3", L3)
    r = resit(f)
    assert r.valuation() == 70 and r.tprec == 70 + 64
    verdict = is_minimally_ramified(f, "criterion")
    assert verdict.minimal
    assert verdict.witness["resit"].startswith("t^70 + t^71 + 2*t^73 + ")
    assert verdict.witness["resit"].endswith(" + O(t^134)")
    # a monomial a_1 inverts exactly, and a_2 = 0 leaves resit = (q+1)/2
    assert resit(germ("z + t*z^2 + z^3", L3)).is_exact()
    assert resit(germ("z + (1 + t)*z^2", L3)) == L3.one()


def test_resit_needs_minimal_level_zero(F3, L3):
    with pytest.raises(NotMinimallyRamifiedAtLevelZero):
        resit(germ("z + z^3 mod z^20", F3))  # i_0 = 2 > q = 1
    with pytest.raises((NotMinimallyRamifiedAtLevelZero, IndeterminateValuation)):
        resit(germ("z mod z^20", F3))


def test_resit_in_reduced_coordinates(F3):
    # gamma*z*(1 + a1 z^2 + a2 z^4): resit = (q+1)/2 - a2/a1^2 = -a2 over GF(3)
    assert resit(germ("2*z + 2*z^3 + z^5 mod z^30", F3)) == F3.one()
    assert resit(germ("2*z + 2*z^3 mod z^30", F3)) == F3.zero()


def test_minimality_modes_and_witnesses(F3, L2, L3, L5):
    v1 = is_minimally_ramified(germ("z + z^2 + 2*z^3 mod z^30", F3), "criterion")
    v2 = is_minimally_ramified(germ("z + z^2 + 2*z^3 mod z^30", F3), "definitional")
    assert v1.minimal and v2.minimal
    assert v1.mode == "criterion" and v2.mode == "definitional"
    assert [e.i for e in v2.profile.entries] == [1, 4, 13]

    bad = germ("2*z + 2*z^3 mod z^30", F3)  # resit 0, jump skips level 1
    assert not is_minimally_ramified(bad, "criterion").minimal
    assert not is_minimally_ramified(bad, "definitional").minimal

    # a_2 = a_1^2 with a_1 not a monomial in t: resit is exactly 0, which
    # 1/a_1^2 expanded to finite t-precision could not show
    for text, ring in (("z + (1 + t)*z^2 + (1 + 2*t + t^2)*z^3", L3),
                       ("z + (2 + t)*z^2 + (4 + 4*t + t^2)*z^3", L5),
                       ("z + (1 + t)*z^2 + (1 + t^2)*z^3", L2)):
        f = germ(text, ring)
        crit = is_minimally_ramified(f, "criterion")
        assert crit.witness == {"failed": "resit-zero"}
        assert not is_minimally_ramified(f, "definitional").minimal

    # resit = 1 in characteristic 2
    one = is_minimally_ramified(germ("z + (1 + t)*z^2", L2), "criterion")
    assert one.witness == {"failed": "resit-one", "resit": "1"}


def test_mq_vanishes_exactly_off_the_minimal_locus(F3):
    assert mq_evaluate(germ("z + z^2 + 2*z^3 mod z^30", F3)) == F3.from_int(2)
    assert mq_evaluate(germ("z + z^2 + z^3 mod z^30", F3)) == F3.zero()
    assert mq_evaluate(germ("2*z + 2*z^3 mod z^30", F3)) == F3.zero()
    assert mq_evaluate(germ("2*z + 2*z^3 + z^5 mod z^30", F3)) == F3.one()


@pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (3, 2), (5, 2)])
def test_jumps_respect_the_lower_bound(p, q):
    rng = Random(20240 + p * 10 + q)
    field = standard_field(p, q)
    for _ in range(25):
        f = random_parabolic_germ(rng, field, q)
        for entry in ramification_profile(f, 2).entries:
            if isinstance(entry.i, int):
                assert entry.i >= ramification_lower_bound(p, q, entry.n)


def test_quasi_invariance_frozen_example(F3):
    f = germ("z + z^2 + 2*z^3 mod z^30", F3)
    h = parse_series("2*z + z^2 mod z^30", F3)
    rep = check_quasi_invariance(f, h, 1)
    assert rep.ok
    assert rep.scale == F3.from_int(2)
    assert [r["i"] for r in rep.rows] == [1, 4]
    assert [r["matched"] for r in rep.rows] == [True, True]


def test_quasi_invariance_random_conjugations(F3):
    from parabolic_lab.samplers import random_coordinate_change
    rng = Random(77)
    for _ in range(10):
        f = random_parabolic_germ(rng, F3, 1, N=30)
        h = random_coordinate_change(rng, F3, 30)
        rep = check_quasi_invariance(f, h, 1)
        assert rep.ok
