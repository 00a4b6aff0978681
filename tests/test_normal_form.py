"""Reduction to the sparse conjugacy representative supported on 1 mod q."""

import math

import pytest
from random import Random

from parabolic_lab import (
    FiniteField,
    LaurentRing,
    ParabolicGerm,
    is_minimally_ramified,
    parse_series,
    ramification_profile,
    reduced_leading_pair,
    root_of_unity,
    series,
    smallest_field_with_root,
    to_normal_form,
)
from parabolic_lab.normal_form import _move_inverse
from parabolic_lab.samplers import random_parabolic_germ, standard_field

from conftest import germ


def test_frozen_reduction(F3):
    from parabolic_lab import series_to_str
    nf = to_normal_form(germ("2*z + z^2 + z^3 mod z^8", F3), N=8)
    assert nf.q == 2
    assert nf.gamma == F3.from_int(2)
    assert series_to_str(nf.g) == "2*z + 2*z^3 mod z^8"
    assert series_to_str(nf.h) == "z + z^2 + 2*z^4 + 2*z^5 + z^6 + 2*z^7 mod z^8"
    assert [str(a) for a in nf.a] == ["1", "0", "0"]


def test_reduction_window_default_is_two_coefficients(F3):
    nf = to_normal_form(germ("2*z + z^2 + z^3", F3))
    # enough window for a1 and a2, the invariants everything else reads
    assert nf.g.n_trunc == 6
    assert [str(a) for a in nf.a] == ["1", "0"]


def test_support_lands_on_one_mod_q():
    rng = Random(4)
    for q in (2, 4):
        field = standard_field(3 if q == 2 else 5, q)
        for _ in range(15):
            f = random_parabolic_germ(rng, field, q, N=3 * q + 2)
            nf = to_normal_form(f)
            for j in range(nf.g.n_trunc):
                if not nf.g.coeff(j).is_certified_zero():
                    assert j % q == 1


def test_conjugation_recomposes():
    rng = Random(9)
    field = standard_field(3, 2)
    for _ in range(10):
        f = random_parabolic_germ(rng, field, 2, N=8)
        nf = to_normal_form(f)
        lhs = nf.h.compose(f.series)
        rhs = nf.g.compose(nf.h)
        assert (lhs - rhs).order() is None


def test_tangency_of_the_conjugator():
    rng = Random(10)
    field = standard_field(5, 4)
    for _ in range(5):
        f = random_parabolic_germ(rng, field, 4, N=14)
        nf = to_normal_form(f)
        assert nf.h.coeff(1) == field.one()


def test_reduced_leading_pair_reads_off_normal_form(F3):
    a1, a2 = reduced_leading_pair(germ("2*z + 2*z^3 + z^5 mod z^30", F3))
    assert a1 == F3.one()
    # coefficient of z^5 is gamma * a2, so a2 = 1 / 2 = 2
    assert a2 == F3.from_int(2)


def test_first_iterate_coefficient_is_q_times_a1():
    # delta_0(f^q) = q * a1 whenever i_0 = q
    rng = Random(12)
    field = standard_field(3, 2)
    for _ in range(10):
        f = random_parabolic_germ(rng, field, 2, N=10)
        a1, _ = reduced_leading_pair(f)
        prof = ramification_profile(f, 0, 10)
        e = prof.entries[0]
        expected = field.from_int(f.q) * a1
        if a1 != field.zero():
            assert e.i == f.q
            assert e.delta == expected
        elif isinstance(e.i, int):
            assert e.i > f.q


def _minimal(field, q, a1, a2):
    """The criterion verdict on gamma*z*(1 + a1*z^q + a2*z^(2q)), a germ
    already in reduced form with pair (a1, a2)."""
    g = root_of_unity(field, q)
    f = ParabolicGerm(series(field, {1: g, q + 1: g * a1, 2 * q + 1: g * a2},
                             None))
    assert reduced_leading_pair(f) == (a1, a2)
    return is_minimally_ramified(f).minimal


def test_criterion_witness_pair_for_q_ge_2():
    # one of gamma*z*(1+z^q), gamma*z*(1+z^q+gamma*z^(2q)) satisfies the
    # genericity criterion for every admissible pair with q >= 2
    for p, q in [(3, 2), (5, 2), (5, 4), (3, 4)]:
        field = smallest_field_with_root(p, q)
        g = root_of_unity(field, q)
        one, zero = field.one(), field.zero()
        assert _minimal(field, q, one, zero) or _minimal(field, q, one, g)


def test_no_minimal_germ_with_trivial_multiplier_in_char_two():
    F2 = FiniteField(2)
    for a1 in F2.elements():
        for a2 in F2.elements():
            assert not _minimal(F2, 1, a1, a2)


def test_criterion_for_q_one_odd_characteristic():
    F3 = FiniteField(3)
    assert _minimal(F3, 1, F3.one(), F3.zero())
    # resit = 1 - a2/a1^2 = 0 here, so the criterion fails
    assert not _minimal(F3, 1, F3.one(), F3.one())
    assert not _minimal(F3, 1, F3.zero(), F3.one())


# -- the closed-form inverse of an elementary move ---------------------------

@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2),
                                 (2 ** 61 - 1, 1)])
def test_move_inverse_matches_newton_over_finite_fields(p, d):
    rng = Random(13)
    field = FiniteField(p, d)
    for _ in range(25):
        B = field.element([rng.randrange(p) for _ in range(d)])
        ell, N = rng.randint(1, 6), rng.randint(2, 20)
        step = series(field, {1: field.one(), ell + 1: B}, N)
        assert _move_inverse(field, B, ell, N) == step.inverse(N)


def _tprec(c):
    return math.inf if c.tprec is None else c.tprec


@pytest.mark.parametrize("p", [2, 3, 5])
def test_move_inverse_is_never_less_t_precise_than_newton(p):
    # over Laurent rings an integer coefficient that vanishes mod p makes an
    # exact zero in the closed form, where Newton's iteration may carry a
    # zero known only to O(t^k); below the smaller precision they agree
    rng = Random(14)
    ring = LaurentRing(FiniteField(p))
    for _ in range(60):
        v0 = rng.randint(-2, 3)
        kind = rng.choice(["exact", "O(t^k)", "zero to O(t^k)"])
        pairs = {} if kind.startswith("zero") else {
            v0 + i: rng.randrange(1, p) for i in range(rng.randint(1, 3))}
        tprec = None if kind == "exact" else v0 + len(pairs) + rng.randint(0, 3)
        B = ring.element(pairs, tprec)
        ell, N = rng.randint(1, 4), rng.randint(3, 12)
        step = series(ring, {1: ring.one(), ell + 1: B}, N)
        closed, newton = _move_inverse(ring, B, ell, N), step.inverse(N)
        for a, b in zip(closed.coeffs, newton.coeffs, strict=True):
            assert _tprec(a) >= _tprec(b)
            if b.tprec is None:
                assert a == b
            else:
                assert a.clip(b.tprec) == b
