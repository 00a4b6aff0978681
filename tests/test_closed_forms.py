"""Closed-form iterate coefficients against brute-force composition.

Every formula here has an iteration oracle: build the germ, compose it the
stated number of times, read coefficients out of the window, compare
exactly.  The frozen tuples were produced by those oracles and pinned.
"""

import functools
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from parabolic_lab import (
    FiniteField,
    IndeterminateValuation,
    LaurentRing,
    POrderRequested,
    ParabolicGerm,
    ParabolicLabError,
    ScalarRingMismatch,
    SupportViolation,
    TruncationTooSmall,
    chi_xi,
    closed_forms,
    delta_tower,
    ell_iterate_quadratic,
    identity,
    iterate_q_closed,
    parse_series,
    ramification_lower_bound,
    root_of_unity,
    semiconj_check,
    series,
    smallest_field_with_root,
    sweeps,
    verify_main_lemma,
)
from parabolic_lab.samplers import (
    STANDARD_PAIRS,
    random_coeff_tuple,
    random_reduced_germ,
    standard_field,
)

import series_oracle
from conftest import germ


# -- chi and xi ------------------------------------------------------------

@pytest.mark.parametrize("p,q,n,a1,a2,chi,xi", [
    (3, 1, 1, 1, 0, 1, 2),
    (3, 1, 1, 1, 1, 0, 0),
    (2, 1, 2, 1, 1, 0, 0),
    (3, 2, 1, 1, 2, 2, 1),
    (5, 4, 1, 2, 3, 3, 2),
])
def test_chi_xi_frozen_values(p, q, n, a1, a2, chi, xi):
    field = smallest_field_with_root(p, q)
    pair = chi_xi(q, n, field.from_int(a1), field.from_int(a2))
    assert pair.chi == field.from_int(chi)
    assert pair.xi == field.from_int(xi)


def test_chi_xi_validates_arguments():
    field = smallest_field_with_root(3, 1)
    one = field.one()
    with pytest.raises(ParabolicLabError, match="level must be >= 1"):
        chi_xi(1, 0, one, one)
    with pytest.raises(POrderRequested, match="must be prime to p"):
        chi_xi(3, 1, one, one)


def test_chi_xi_char_two_recursion():
    # one level up: chi doubles through chi*xi, xi squares
    field = smallest_field_with_root(2, 3)
    rng = Random(3)
    for _ in range(10):
        a1 = field.from_int(rng.randrange(1, field.order))
        a2 = field.from_int(rng.randrange(field.order))
        lo = chi_xi(3, 1, a1, a2)
        hi = chi_xi(3, 2, a1, a2)
        assert hi.chi == lo.chi * lo.xi
        assert hi.xi == lo.xi * lo.xi


def test_main_lemma_report_shape():
    rep = verify_main_lemma(FiniteField(3), 1, 1, (1, 0), N=10)
    assert rep.ok and rep.mismatch is None
    assert rep.p == 3 and rep.q == 1 and rep.n == 1
    # the verified window is the bound plus 2q+1, independent of N
    assert rep.window == ramification_lower_bound(3, 1, 1) + 3
    doc = rep.to_jsonable()
    assert doc["ok"] is True
    assert doc["chi"] == 1 and doc["xi"] == 2


@pytest.mark.parametrize("p,q", STANDARD_PAIRS)
def test_main_lemma_sampled(p, q):
    field = standard_field(p, q)
    rng = Random(100 + p * 10 + q)
    for n in (1, 2):
        for _ in range(5):
            a = random_coeff_tuple(rng, field)
            rep = verify_main_lemma(field, q, n, a)
            assert rep.ok


@pytest.mark.parametrize("wrong", ["chi", "xi"])
def test_main_lemma_reports_where_a_wrong_closed_form_differs(wrong,
                                                              monkeypatch):
    # a closed form off by one is caught at its own exponent, E + 1 for chi
    # and E + q + 1 for xi, and at no lower one
    right = closed_forms.chi_xi

    def off_by_one(*args):
        pair = right(*args)
        setattr(pair, wrong, getattr(pair, wrong) + 1)
        return pair

    monkeypatch.setattr(closed_forms, "chi_xi", off_by_one)
    q, n = 2, 1
    E = ramification_lower_bound(3, q, n)
    rep = verify_main_lemma(FiniteField(3), q, n, (1, 1))
    assert not rep.ok
    assert rep.mismatch == (E + 1 if wrong == "chi" else E + q + 1)


def test_main_lemma_extension_field_case():
    # q = 4 over characteristic 3 needs the quadratic extension
    field = smallest_field_with_root(3, 4)
    assert field.d == 2
    rep = verify_main_lemma(field, 4, 1, (field.gen(), field.one()))
    assert rep.ok


def test_main_lemma_window_too_small():
    with pytest.raises(TruncationTooSmall):
        verify_main_lemma(FiniteField(3), 1, 1, (1, 0), N=6)


def test_laurent_ring_is_refused_where_a_finite_field_is_needed():
    # a root of unity and random field elements exist only over GF(p^d)
    L3 = LaurentRing(FiniteField(3))
    calls = [lambda: verify_main_lemma(L3, 1, 1, [1, 0]),
             lambda: sweeps.main_lemma(Random(0), L3, 1, 1),
             lambda: root_of_unity(L3, 1)]
    for call in calls:
        with pytest.raises(ScalarRingMismatch,
                           match=r"needs a finite field, not Laurent\(GF\(3\)\)"):
            call()


# -- the q-fold iterate in reduced coordinates -----------------------------

def test_iterate_q_frozen_values(F3):
    g2 = root_of_unity(F3, 2)
    got = iterate_q_closed(g2, 2, F3.one(), F3.from_int(2))
    assert [str(c) for c in got] == ["1", "2", "1"]
    got1 = iterate_q_closed(F3.one(), 1, F3.from_int(2), F3.one())
    assert [str(c) for c in got1] == ["1", "2", "1"]


def test_iterate_q_rejects_wrong_order(F3):
    with pytest.raises(ParabolicLabError, match="gamma\\^q must be 1"):
        iterate_q_closed(F3.from_int(2), 1, F3.one(), F3.one())


def test_iterate_q_matches_composition():
    rng = Random(41)
    for p, q in STANDARD_PAIRS:
        field = standard_field(p, q)
        g = root_of_unity(field, q)
        for _ in range(5):
            a1 = field.from_int(rng.randrange(field.order))
            a2 = field.from_int(rng.randrange(field.order))
            N = 3 * q + 1
            f = series(field, {1: g, q + 1: g * a1, 2 * q + 1: g * a2}, N)
            fq = f.iterate(q)
            u0, u1, u2 = iterate_q_closed(g, q, a1, a2)
            assert fq.coeff(1) == u0
            assert fq.coeff(q + 1) == u1
            assert fq.coeff(2 * q + 1) == u2


def test_ell_iterate_frozen_values(F3):
    got = ell_iterate_quadratic(2, F3.one(), F3.one())
    assert [str(c) for c in got] == ["2", "1"]
    # multiples of the characteristic are legal iteration counts
    gotp = ell_iterate_quadratic(3, F3.one(), F3.from_int(2))
    assert [str(c) for c in gotp] == ["0", "0"]


def test_ell_iterate_matches_composition(F5):
    rng = Random(8)
    for _ in range(8):
        a = F5.from_int(rng.randrange(5))
        b = F5.from_int(rng.randrange(5))
        f = series(F5, {1: F5.one(), 2: a, 3: b}, 4)
        for ell in (1, 2, 3, 5, 6):
            it = f.iterate(ell)
            c2, c3 = ell_iterate_quadratic(ell, a, b)
            assert it.coeff(2) == c2
            assert it.coeff(3) == c3


# -- difference towers -----------------------------------------------------

def test_delta_tower_frozen_example(F2):
    f = parse_series("z + z^2 mod z^6", F2)
    top = delta_tower(f, 2)
    assert (top - parse_series("2*z^3 + z^4 mod z^6", F2)).order() is None


def test_delta_tower_p_steps_recover_the_iterate():
    rng = Random(14)
    for p in (2, 3, 5):
        field = standard_field(p, 1)
        for _ in range(10):
            f = series(field,
                       {1: field.one(),
                        **{i: field.from_int(rng.randrange(p))
                           for i in range(2, 6)}}, 12)
            lhs = delta_tower(f, p)
            rhs = f.iterate(p) - identity(field, 12)
            assert (lhs - rhs).order() is None


def test_delta_tower_requires_vanishing_base(F3):
    from parabolic_lab import NonzeroConstantTerm
    with pytest.raises(NonzeroConstantTerm):
        delta_tower(parse_series("1 + z mod z^5", F3), 1)


# -- semiconjugacy ---------------------------------------------------------

def test_semiconj_frozen_example(F3):
    g = germ("2*z + 2*z^3 + z^5 mod z^30", F3)
    rep = semiconj_check(g, 2)
    assert rep.ok and rep.q == 2 and rep.m == 2
    assert rep.window == 30


def test_semiconj_sampled():
    rng = Random(6)
    for p, q in [(3, 2), (5, 2), (5, 4)]:
        field = standard_field(p, q)
        for _ in range(5):
            g = random_reduced_germ(rng, field, q, N=4 * q + 2)
            for m in (q, q * p):
                assert semiconj_check(g, m).ok


def test_semiconj_rejects_off_support_germs(F3):
    with pytest.raises(SupportViolation):
        semiconj_check(germ("2*z + z^2 mod z^10", F3), 2)


# (p, d, orders q of multipliers), q from 1 to 6 over GF(p) and GF(p^d)
PUSHFORWARD_FIELDS = [(7, 1, (1, 2, 3, 6)), (5, 1, (4,)), (11, 1, (5,)),
                 (2, 2, (1, 3)), (3, 2, (2, 4))]


@functools.cache
def _pushforward_field(p, d, q):
    field = FiniteField(p, d)
    return field, root_of_unity(field, q)


@st.composite
def pushforward_germs(draw):
    """A germ gamma*z*U(z^q) over GF(p^d) or GF(p^d)((t)), exact or mod z^N;
    Laurent coefficients are exact or known to O(t^k), and sometimes a row
    off the support 1 + qZ is a nonzero or a zero known to O(t^k)."""
    p, d, qs = draw(st.sampled_from(PUSHFORWARD_FIELDS))
    q = draw(st.sampled_from(qs))
    field, gamma = _pushforward_field(p, d, q)
    laurent = draw(st.booleans())
    ring = LaurentRing(field) if laurent else field
    unit = st.lists(st.integers(0, p - 1), min_size=d, max_size=d).map(
        field.element)
    if laurent:
        v0 = st.integers(-2, 3)
        unit = st.one_of(
            st.tuples(unit, v0).map(lambda cv: ring.monomial(*cv)),
            st.builds(lambda c, v, k: ring.element({v: c}, v + k), unit, v0,
                      st.integers(1, 3)),
            v0.map(lambda v: ring.element({}, v)))
    N = draw(st.sampled_from([None, 2, 3, q + 2, 2 * q + 2, 13]))
    size = N if N is not None else draw(st.integers(2, 13))
    coeffs = {1: gamma}
    for e in range(1 + q, size, q):
        coeffs[e] = draw(unit)
    if draw(st.integers(0, 3)) == 0 and size > 2:
        e = draw(st.integers(2, size - 1))
        if (e - 1) % q:
            coeffs[e] = draw(unit)
    return ParabolicGerm(series(ring, coeffs, N))


def _outcome(pushforward, g):
    try:
        return pushforward(g)
    except (SupportViolation, IndeterminateValuation) as err:
        return type(err), str(err)


@given(g=pushforward_germs())
@settings(max_examples=300, deadline=None)
def test_packed_pushforward_matches_the_coefficient_oracle(g):
    # == also compares every row's t-precision and the window
    assert (_outcome(ParabolicGerm.pushforward, g)
            == _outcome(series_oracle._pushforward, g))


@pytest.mark.parametrize("text,error,message", [
    ("2*z + 2*z^3 + z^4 + z^6 mod z^10", SupportViolation,
     "exponent 4 is not congruent to 1 mod 2"),
    ("2*z + (t + O(t^3))*z^4 + O(t^2)*z^6 + z^7", SupportViolation,
     "exponent 4 is not congruent to 1 mod 2"),
    ("2*z + z^3 + O(t^2)*z^4 + z^6", IndeterminateValuation,
     "exponent 4 is zero only to stored precision"),
    ("2*z + O(t^0)*z^2 + z^4 mod z^8", IndeterminateValuation,
     "exponent 2 is zero only to stored precision"),
])
def test_pushforward_names_the_first_row_off_the_support(text, error, message,
                                                         L3):
    # q = 2 over Laurent(GF(3)): the first row at an even exponent that is
    # not a certified zero raises, by the kind of that row
    g = germ(text, L3)
    assert g.q == 2
    with pytest.raises(error, match=f"^{message}$"):
        semiconj_check(g, 2)
