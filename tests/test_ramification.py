"""Ramification numbers, the iterative residue, and minimality verdicts.

Frozen expectations were derived by composing iterates step by step and
reading coefficients off by hand before the profile code existed; the
independence test below re-runs that brute-force route in-process.
"""

import math
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st
from random import Random

from parabolic_lab import (
    DEFAULT_TPREC,
    FiniteField,
    IndeterminateValuation,
    LaurentRing,
    NotMinimallyRamifiedAtLevelZero,
    ParabolicGerm,
    ParabolicLabError,
    TruncationTooSmall,
    check_quasi_invariance,
    identity,
    is_minimally_ramified,
    mq_evaluate,
    parse_series,
    ramification_lower_bound,
    ramification_profile,
    reduced_leading_pair,
    resit,
    root_of_unity,
    series,
)
from parabolic_lab.literals import scalar_to_jsonable
from parabolic_lab.ramification import (
    _levels,
    _resit_numerators,
    _resit_pair,
    default_window,
)
from parabolic_lab.samplers import (
    random_integral_scalar,
    random_parabolic_germ,
    random_polynomial_germ,
    standard_field,
)

from conftest import germ
from test_formal_series import (
    KERNEL_FIELDS,
    LAURENT_FIELDS,
    _kernel_field,
    laurent_scalar,
)


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


def test_resit_refuses_a_window_below_2q_plus_2(F3):
    # f^q is read mod z^(2q+2); a germ stored below it is refused with the
    # text the clearing route gave
    with pytest.raises(TruncationTooSmall,
                       match="cannot extend truncation 3 to 4"):
        resit(germ("z + z^2 mod z^3", F3))


# -- the residue route against the clearing algorithm ----------------------

@lru_cache(maxsize=None)
def _multiplier(p, d, q):
    return root_of_unity(_kernel_field(p, d), q)


@st.composite
def residue_germs(draw):
    """gamma*z plus a tail that is not reduced, gamma of order q in
    {1, 2, 3, 4} (every order the field has), stored mod z^N for N from
    2q + 2 to 2q + 5 or exact of degree up to 2q + 4.  Half the germs lie
    over a kernel field, GF(4), GF(9) and GF(25) among them, with
    coordinates leaning on 0, 1 and p - 1; the others over GF(p^d)((t)),
    all coefficients exact or some known only to O(t^k).

    The tail is drawn at random, or the germ is a reduced one,
    gamma*z*(1 + a_1 z^q + a_2 z^(2q)), moved out of reduced form by a
    change of coordinates z + h_2 z^2 + ...; there resit = (q+1)/2 -
    a_2/a_1^2 is often set to 0 or 1, which random tails seldom hit."""
    F = _kernel_field(*draw(st.sampled_from(
        KERNEL_FIELDS if draw(st.booleans()) else LAURENT_FIELDS + [(3, 2)])))
    q = draw(st.sampled_from([q for q in (1, 2, 3, 4)
                              if (F.order - 1) % q == 0]))
    gamma = _multiplier(F.p, F.d, q)
    if draw(st.booleans()):
        ring = F
        coord = st.one_of(st.sampled_from([0, 1, F.p - 1]),
                          st.integers(0, F.p - 1))
        scalar = st.lists(coord, min_size=F.d, max_size=F.d).map(F.element)
    else:
        ring = LaurentRing(F)
        gamma = ring.embed(gamma)
        # a zero coefficient is drawn less often than laurent_scalar's
        # default, or level zero would fail in most germs
        scalar = laurent_scalar(ring, ("zero", "exact", "exact", "exact")
                                if draw(st.booleans()) else
                                ("zero", "O(t^k)", "exact", "exact",
                                 "truncated", "truncated"))
    N = draw(st.sampled_from([None, 2 * q + 2, 2 * q + 3, 2 * q + 5]))
    if draw(st.booleans()):
        top = N or draw(st.integers(2 * q + 2, 2 * q + 5))
        tail = draw(st.lists(scalar, min_size=top - 2, max_size=top - 2))
        return ParabolicGerm(series(
            ring, {1: gamma, **dict(enumerate(tail, 2))}, N))
    N = N or 2 * q + 2
    a1, a2, *hs = draw(st.lists(scalar, min_size=N, max_size=N))
    a1 = a1 or ring.one()
    r = draw(st.sampled_from([0, 1, None]))
    if r is not None:
        a2 = (ring.half(q + 1) - r) * a1 * a1
    g = series(ring, {1: gamma, q + 1: gamma * a1, 2 * q + 1: gamma * a2}, N)
    h = series(ring, {1: ring.one(), **dict(enumerate(hs, 2))}, N)
    return ParabolicGerm(g).conjugate(h, N)


def _decided(x):
    """True or False for a certified scalar, None for a zero known only to
    its precision."""
    if x.is_certified_nonzero():
        return True
    return False if x.is_certified_zero() else None


def _clearing_route(f):
    """The criterion's verdict ("minimal" or the failed condition; None
    when a deciding scalar is zero only to its precision), the resit
    numerator and resit itself, all from the reduced pair (a_1, a_2) of the
    clearing algorithm, resit printed as that route printed it."""
    q = f.q
    a1, a2 = reduced_leading_pair(f)
    m, m1 = _resit_numerators(q, a1 * a1, -a2)
    verdict = "minimal"
    for x, failed in ((m1, "resit-one"), (m, "resit-zero"), (a1, "level-zero")):
        decided = True if x is None else _decided(x)
        if not decided:
            verdict = failed if decided is False else None
    if not a1:
        return verdict, None, None
    ring = f.ring
    half = ring.half(q + 1)
    if not isinstance(ring, LaurentRing):
        return verdict, m, half - a2 / (a1 * a1)
    rel = DEFAULT_TPREC
    if m.is_certified_nonzero() and a2.is_certified_nonzero():
        rel += max(0, m.v0 - a2.v0)
    return verdict, m, half - a2 * (a1 * a1).inverse(rel)


@given(f=residue_germs())
@settings(max_examples=300, deadline=None)
def test_residue_route_matches_the_clearing_route(f):
    # the criterion, resit and v(resit) read off f^q mod z^(2q+2) agree with
    # the clearing algorithm's reduced pair, which is their oracle
    want, m, r_old = _clearing_route(f)
    try:
        verdict = is_minimally_ramified(f, "criterion")
        got = "minimal" if verdict.minimal else verdict.witness["failed"]
    except IndeterminateValuation:
        got = verdict = None
    exact = isinstance(f.ring, FiniteField) or all(
        c.is_exact() for c in f.series.coeffs)
    if exact:
        assert got == want is not None
    elif got is None or want is None:
        # a germ known only to O(t^k): each route loses precision its own
        # way, so one may leave open what the other decides
        return
    assert got == want
    if got == "level-zero":
        return
    q = f.q
    c, s = _resit_pair(f)
    n, _ = _resit_numerators(q, c ** (q + 1), s)
    r = resit(f)
    if isinstance(f.ring, FiniteField):
        assert r == r_old
        if got == "minimal":
            assert verdict.witness == {"resit": scalar_to_jsonable(r_old)}
        return
    assert _decided(n) == _decided(m)
    if n.is_certified_nonzero() and m.is_certified_nonzero():
        v = n.valuation() - (q + 1) * c.valuation()
        assert v == m.valuation() - 2 * reduced_leading_pair(f)[0].valuation()
    # equal to the shorter of the two precisions
    assert not (r - r_old).coeffs


@pytest.mark.parametrize("p,q", [(3, 1), (3, 2), (5, 1), (5, 2), (5, 4)])
def test_printed_resit_keeps_its_relative_precision_for_every_q(p, q):
    # exact polynomial germs whose c = q*a_1 is not a monomial in t, so
    # 1/c^(q+1) is a truncated series: the printed resit still has at least
    # DEFAULT_TPREC t-terms from its valuation on
    ring = LaurentRing(FiniteField(p))
    rng = Random(1800 + 10 * p + q)
    truncated = 0
    for _ in range(12):
        f = random_polynomial_germ(rng, ring, q, degree=2 * q + 1)
        if not is_minimally_ramified(f, "criterion").minimal:
            continue
        r = resit(f)
        if r.tprec is not None:
            truncated += 1
            assert r.tprec - r.valuation() >= DEFAULT_TPREC
    assert truncated >= 4


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


def test_quasi_invariance_reports_a_conjugate_whose_jumps_differ(
        F3, monkeypatch):
    # a true conjugate keeps every jump; a stand-in whose jumps differ from
    # those of f fails on every level, with no scaled coefficient to compare
    f = germ("z + z^2 + 2*z^3 mod z^30", F3)
    other = germ("z + z^3 mod z^30", F3)
    monkeypatch.setattr(ParabolicGerm, "conjugate",
                        lambda self, h, n_trunc=None: other)
    rep = check_quasi_invariance(f, parse_series("2*z + z^2 mod z^30", F3), 1)
    assert not rep.ok
    assert rep.rows == [
        {"n": 0, "i": 1, "i_conjugate": 2, "matched": False},
        {"n": 1, "i": 4, "i_conjugate": 26, "matched": False}]


def test_quasi_invariance_stops_at_the_first_level_past_the_window(F3):
    # from level 3 on the least jump, 40, is past the window z^30, so the
    # rows stop there however many levels are asked for
    f = germ("z + z^2 + 2*z^3 mod z^30", F3)
    h = parse_series("2*z + z^2 mod z^30", F3)
    rep = check_quasi_invariance(f, h, 100000)
    assert rep.ok and rep.n_max == 100000
    assert [(r["n"], r["i"]) for r in rep.rows] == [
        (0, 1), (1, 4), (2, 13), (3, "beyond-truncation")]
    with pytest.raises(ParabolicLabError, match="n_max must be >= 0, got -1"):
        check_quasi_invariance(f, h, -1)


def test_quasi_invariance_random_conjugations(F3):
    from parabolic_lab.samplers import random_coordinate_change
    rng = Random(77)
    for _ in range(10):
        f = random_parabolic_germ(rng, F3, 1, N=30)
        h = random_coordinate_change(rng, F3, 30)
        rep = check_quasi_invariance(f, h, 1)
        assert rep.ok


# (p, d) of the finite fields Sen's congruence is drawn over
SEN_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)]


@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_decided_jumps_satisfy_sen_congruence(data, seed):
    # Sen (Ann. of Math. 90, 1969): the jumps of the p^n-th iterates of a
    # series tangent to the identity satisfy i_n = i_(n-1) mod p^n.  f^q is
    # such a series, so every profile obeys it, minimal or not; half the
    # finite-field germs lose their low tail terms, so that non-minimal
    # profiles are drawn too
    rng = Random(seed)
    if data.draw(st.booleans()):
        p = data.draw(st.sampled_from([2, 3, 5]))
        ring = LaurentRing(FiniteField(p))
        q = data.draw(st.sampled_from([q for q in (1, 2, 4)
                                       if (p - 1) % q == 0]))
        f = random_polynomial_germ(rng, ring, q,
                                   degree=data.draw(st.integers(2, 4)))
        prof = ramification_profile(f, 2 if p < 5 else 1)
    else:
        p, d = data.draw(st.sampled_from(SEN_FIELDS))
        field = FiniteField(p, d)
        q = data.draw(st.sampled_from([q for q in range(1, 5)
                                       if (p ** d - 1) % q == 0]))
        n_max = 3 if p == 2 else 2
        N = 2 * default_window(p, q, n_max)
        f = random_parabolic_germ(rng, field, q, N)
        k = data.draw(st.integers(1, 3 * q)) if data.draw(st.booleans()) else 0
        kept = {e: c for e, c in enumerate(f.series.coeffs)
                if e < 2 or e >= k + 2}
        assume(any(kept[e] for e in kept if e >= 2))
        prof = ramification_profile(ParabolicGerm(series(field, kept, N)),
                                    n_max, N)
    es = prof.entries
    for a, b in zip(es, es[1:]):
        if isinstance(a.i, int) and isinstance(b.i, int):
            assert (b.i - a.i) % p ** b.n == 0, (b.n, a.i, b.i)
