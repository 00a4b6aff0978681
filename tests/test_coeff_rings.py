"""Field and Laurent-scalar arithmetic, plus the root-of-unity helpers."""

import operator
import time
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import isprime, primefactors
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_gcdex,
    gf_irreducible_p,
    gf_mul,
    gf_rem,
    gf_strip,
)

from parabolic_lab import (
    CompositeP,
    DivisionByZero,
    FiniteField,
    IndeterminateValuation,
    LaurentRing,
    NoSuchRoot,
    POrderRequested,
    ReducibleModulus,
    ScalarRingMismatch,
    WorkBudgetExceeded,
    root_of_unity,
    smallest_field_with_root,
)
from parabolic_lab.coeff_rings import (
    _MR_LIMIT,
    _is_irreducible,
    _is_prime,
    _prime_factors,
)
from parabolic_lab.errors import ParabolicLabError


FIELDS = [FiniteField(2), FiniteField(3), FiniteField(5),
          FiniteField(2, 2), FiniteField(3, 2)]


def elements(field):
    return st.integers(0, field.order - 1).map(field.from_int)


# -- finite fields ---------------------------------------------------------

def test_construction_rejects_composite_characteristic():
    with pytest.raises(CompositeP):
        FiniteField(4)
    with pytest.raises(CompositeP):
        FiniteField(1)
    # over p = 4 no p^d - 1 is even: the degree search would never end
    with pytest.raises(CompositeP):
        smallest_field_with_root(4, 2)


def test_primality_matches_sympy():
    # 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7 at once
    rng = Random(5)
    cases = (list(range(2000)) + [3215031751, 2 ** 31 - 1, 3037000507,
                                  2 ** 61 - 1, _MR_LIMIT - 2, _MR_LIMIT - 1]
             + [rng.randrange(2 ** 81) for _ in range(300)]
             + [rng.randrange(2 ** 40) | 1 for _ in range(300)])
    for n in cases:
        assert _is_prime(n) == isprime(n), n
    assert not _is_prime(3215031751)
    FiniteField(2 ** 61 - 1)
    for n in (_MR_LIMIT, _MR_LIMIT + 2, 2 ** 89 - 1):
        with pytest.raises(ParabolicLabError, match="cannot certify"):
            FiniteField(n)


def test_prime_factors_match_sympy():
    # the orders p^d - 1 of the test fields, including a safe prime whose
    # (p - 1)/2 is a 62-bit prime, and random 40- to 80-bit n
    rng = Random(6)
    orders = [p ** d - 1 for p, d in (
        (2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2), (65521, 1),
        (2 ** 31 - 1, 1), (3037000507, 1), (2 ** 61 - 1, 1), (2 ** 61 - 1, 2),
        (2 ** 64 + 13, 1), (4611686018427394499, 1))]
    cases = orders + [rng.randrange(2 ** 40, 2 ** 80) for _ in range(60)]
    for n in cases:
        assert list(_prime_factors(n)) == primefactors(n), n
    # a cofactor too large to certify is refused, not taken for a prime
    with pytest.raises(ParabolicLabError, match="cannot factor"):
        _prime_factors(6 * (2 ** 89 - 1))


def test_construction_rejects_reducible_modulus():
    # x^2 - 1 = (x-1)(x+1) over GF(3)
    with pytest.raises(ReducibleModulus):
        FiniteField(3, 2, modulus=(2, 0, 1))


def test_irreducibility_matches_sympy():
    rng = Random(7)
    for p in (2, 3, 5, 7, 65521):
        for _ in range(150):
            d = rng.randint(1, 6)
            f = [rng.randrange(p) for _ in range(d)] + [1]
            assert _is_irreducible(f, p) == gf_irreducible_p(f[::-1], p, ZZ), (p, f)
    # squares and products of two irreducibles of equal degree
    # over GF(2): (x^2 + x + 1)^2, and (x^3 + x + 1)(x^3 + x^2 + 1)
    assert not _is_irreducible([1, 0, 1, 0, 1], 2)
    assert not _is_irreducible([1, 1, 1, 1, 1, 1, 1], 2)


def test_large_characteristic_extension_is_built_quickly():
    # the default modulus is found by Rabin's test, whose cost is polynomial
    # in log p; trial division would need about p candidates
    start = time.perf_counter()
    F = FiniteField(2147483647, 2)
    assert time.perf_counter() - start < 10
    assert F.modulus == (1, 0, 1)  # -1 is a non-residue, p = 3 mod 4
    x = F.gen()
    assert x * x == F.from_int(-1)


def test_default_modulus_skips_only_reducible_binomials():
    # the scan passes over x^d + c only when no binomial of degree d is
    # irreducible, so every default modulus is the first irreducible monic
    # of the full scan
    def full_scan(p, d):
        for code in range(p ** d):
            g = [code // p ** i % p for i in range(d)] + [1]
            if _is_irreducible(g, p):
                return tuple(g)

    for p in (2, 3, 5, 7, 11, 13):
        for d in range(2, 7):
            assert FiniteField(p, d).modulus == full_scan(p, d), (p, d)


def test_extension_without_irreducible_binomials_is_built_quickly():
    # p = 2 mod 3 makes every element a cube, so no x^3 + c is irreducible
    start = time.perf_counter()
    F = FiniteField(65537, 3)
    assert time.perf_counter() - start < 5
    assert F.modulus == (4, 1, 0, 1)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF({f.order})")
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_field_axioms(field, data):
    a = data.draw(elements(field))
    b = data.draw(elements(field))
    c = data.draw(elements(field))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + field.zero() == a
    assert a * field.one() == a
    assert a - a == field.zero()
    if b != field.zero():
        assert (a / b) * b == a


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF({f.order})")
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_frobenius_is_additive(field, data):
    a = data.draw(elements(field))
    b = data.draw(elements(field))
    p = field.p
    assert (a + b) ** p == a ** p + b ** p


def test_every_nonzero_element_has_multiplicative_order_dividing_group():
    field = FiniteField(3, 2)
    for a in field.elements():
        if a != field.zero():
            assert a ** (field.order - 1) == field.one()


def test_division_by_zero():
    field = FiniteField(5)
    with pytest.raises(DivisionByZero):
        field.one() / field.zero()


@pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (2, 8), (3, 5), (65537, 2)])
def test_inverse_is_the_power_p_to_the_d_minus_2(p, d):
    # the extended Euclidean inverse against c^(p^d - 2) by scalar products,
    # through FieldElement.inverse and through the packed row that inverts
    # an exact Laurent monomial (and seeds every series division)
    field = FiniteField(p, d)
    ring = LaurentRing(field)
    rng = Random(p * 100 + d)
    cs = [field.one(), -field.one(), field.gen()] + [
        field.element([rng.randrange(p) for _ in range(d)]) for _ in range(60)]
    for c in cs:
        if c.is_zero():
            continue
        want = c ** (field.order - 2)
        assert c.inverse() == want and c * want == field.one()
        v = rng.randrange(-3, 4)
        assert ring.monomial(c, v).inverse() == ring.monomial(want, -v)


# GF(p^d) arithmetic checked against sympy's galoistools, which hold
# polynomials big-endian: from GF(4) up to GF(3^24), and past 2^63, where
# the kernel's table of x^k mod the modulus holds Python integers
ORACLE_FIELDS = [(2, 2), (3, 2), (7, 12), (3, 24), (65537, 2),
                 (9223372036854775837, 2)]


def _big_endian(coords):
    return gf_strip([int(c) for c in reversed(coords)])


def _as_coords(poly, d):
    little = [int(c) for c in reversed(poly)]
    return tuple(little + [0] * (d - len(little)))


@pytest.mark.parametrize("p,d", ORACLE_FIELDS)
def test_extension_arithmetic_matches_sympy(p, d):
    field = FiniteField(p, d)
    f = list(field.modulus[::-1])
    assert field._npred.shape == (2 * d - 1, d)
    for k, row in enumerate(field._npred.tolist()):
        assert tuple(row) == _as_coords(gf_rem([1] + [0] * k, f, p, ZZ), d)
    rng = Random(p * 100 + d)
    cs = [field.zero(), field.one(), -field.one(), field.gen()] + [
        field.element([rng.randrange(p) for _ in range(d)]) for _ in range(50)]
    for a, b in zip(cs, cs[1:] + cs[:1]):
        ab = gf_rem(gf_mul(_big_endian(a.coords), _big_endian(b.coords),
                           p, ZZ), f, p, ZZ)
        assert (a * b).coords == _as_coords(ab, d)
        if not b.is_zero():
            s, _, h = gf_gcdex(_big_endian(b.coords), f, p, ZZ)
            assert h == [1]
            assert b.inverse().coords == _as_coords(s, d)


def test_zero_power_zero_is_one():
    # the closed forms rely on the empty-product convention
    field = FiniteField(3)
    assert field.zero() ** 0 == field.one()


@pytest.mark.parametrize("p,d", [(2, 1), (5, 1), (3, 2), (2, 6)])
def test_power_reduces_its_exponent(p, d):
    # x^n against plain square-and-multiply: exponents around multiples of
    # p^d - 1, where a nonzero base takes n mod p^d - 1, and a zero base
    field = FiniteField(p, d)
    rng = Random(10 * p + d)

    def plain(x, n):
        result = field.one()
        while n:
            if n & 1:
                result = result * x
            x, n = x * x, n >> 1
        return result

    m = field.order - 1
    exponents = [0, 1] + [k * m + r for k in (1, 2, 5) for r in (-1, 0, 1)]
    bases = [field.zero(), field.one(), field.gen()] + [
        field.element([rng.randrange(p) for _ in range(d)]) for _ in range(6)]
    for x in bases:
        for n in exponents:
            assert x ** n == plain(x, n), (x, n)


# -- roots of unity --------------------------------------------------------

@pytest.mark.parametrize("p,q,expected_degree", [
    (2, 1, 1), (3, 1, 1), (3, 2, 1), (5, 1, 1), (5, 2, 1), (5, 4, 1),
    (2, 3, 2), (3, 4, 2), (2, 7, 3),
])
def test_smallest_field_with_root(p, q, expected_degree):
    field = smallest_field_with_root(p, q)
    assert field.p == p
    assert field.d == expected_degree
    g = root_of_unity(field, q)
    assert g ** q == field.one()
    for d in range(1, q):
        if q % d == 0:
            assert g ** d != field.one()


def _multiplicative_order(g):
    one, x, k = g.field.one(), g, 1
    while x != one:
        x, k = x * g, k + 1
    return k


@pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (2, 6), (3, 4), (13, 2),
                                 (5, 1), (7, 1)])
def test_root_of_unity_is_that_of_the_full_scan(p, d):
    # the scan skips the prime field of a proper extension, where no element
    # is primitive; it must pick what a scan of every code from 0 picks
    field = FiniteField(p, d)
    e = field.order - 1
    primitive = next(g for g in field.elements() if not g.is_zero()
                     and _multiplicative_order(g) == e)
    for q in range(1, e + 1):
        if e % q == 0:
            assert root_of_unity(field, q) == primitive ** (e // q)


@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2),
                                 (2, 3), (2, 4), (2, 6), (3, 2), (3, 3),
                                 (3, 4), (5, 2), (13, 2)])
def test_multiplicative_order_is_the_brute_force_one(p, d):
    field = FiniteField(p, d)
    for g in field.elements():
        if not g.is_zero():
            assert g.multiplicative_order() == _multiplicative_order(g), g


def test_multiplicative_order_factors_only_the_least_subfield(monkeypatch):
    # 1 lies in GF(3) and an element of order 8 in GF(9): inside GF(3^4)
    # only 3 - 1 and 3^2 - 1 are factored, never 3^4 - 1
    from parabolic_lab import coeff_rings
    field = FiniteField(3, 4)
    g = root_of_unity(field, 80) ** 10
    factored = []

    def spy(n):
        factored.append(n)
        return _prime_factors(n)

    monkeypatch.setattr(coeff_rings, "_prime_factors", spy)
    assert field.one().multiplicative_order() == 1
    assert g.multiplicative_order() == 8
    assert factored == [2, 8]


def test_root_of_unity_over_a_large_extension_is_quick():
    # the prime field of GF(65537^6) holds 65537 elements none of which is
    # primitive: scanning them first took half a minute
    start = time.perf_counter()
    g = root_of_unity(FiniteField(65537, 6), 13)
    assert time.perf_counter() - start < 2
    assert str(g) == ("32866 + 6045*x + 61733*x^2 + 50414*x^3 + 7200*x^4 "
                      "+ 44700*x^5")


def test_root_of_unity_exact_order_required():
    with pytest.raises(NoSuchRoot):
        root_of_unity(FiniteField(5), 3)  # 3 does not divide 4


def test_root_of_unity_rejects_p_power_order():
    with pytest.raises(POrderRequested):
        root_of_unity(FiniteField(3), 3)
    with pytest.raises(POrderRequested):
        smallest_field_with_root(2, 6)


def test_half_odd_characteristic():
    F5 = FiniteField(5)
    L5 = LaurentRing(F5)
    # (q+1)/2 for q = 2: 3/2 = 3 * inverse(2) = 3 * 3 = 9 = 4 mod 5
    assert F5.half(3) == F5.from_int(4)
    assert F5.half(3) + F5.half(3) == F5.from_int(3)
    assert L5.half(3) == L5.from_int(4) and L5.half(-4) == L5.from_int(-2)


# -- Laurent scalars -------------------------------------------------------

def laurent_elems(ring, exact=True):
    field = ring.field
    coeff = st.integers(0, field.order - 1)
    return st.builds(
        lambda v, cs: ring.element({v + i: field.from_int(c)
                                   for i, c in enumerate(cs)},
                                  None if exact else v + len(cs)),
        st.integers(-3, 3), st.lists(coeff, min_size=0, max_size=4))


@pytest.fixture(scope="module")
def R3():
    return LaurentRing(FiniteField(3))


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_laurent_ring_axioms(R3, data):
    a = data.draw(laurent_elems(R3))
    b = data.draw(laurent_elems(R3))
    c = data.draw(laurent_elems(R3))
    assert ((a + b) + c - (a + (b + c))).is_certified_zero()
    assert ((a * b) * c - (a * (b * c))).is_certified_zero()
    assert (a * (b + c) - (a * b + a * c)).is_certified_zero()
    assert (a * R3.one() - a).is_certified_zero()


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_laurent_valuation_is_multiplicative(R3, data):
    a = data.draw(laurent_elems(R3))
    b = data.draw(laurent_elems(R3))
    if a.is_certified_zero() or b.is_certified_zero():
        return
    assert (a * b).valuation() == a.valuation() + b.valuation()


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_laurent_division_inverts_multiplication(R3, data):
    a = data.draw(laurent_elems(R3, exact=False))
    b = data.draw(laurent_elems(R3))
    if b.is_certified_zero():
        with pytest.raises(DivisionByZero):
            a / b
        return
    d = (a / b) * b - a
    # exact inputs cancel exactly; truncated ones cancel through their window
    if not d.is_certified_zero():
        with pytest.raises(IndeterminateValuation):
            d.valuation()


def test_a_sum_far_apart_in_t_is_refused(R3):
    # the sum is stored densely from t^2 up: a gap of 2^32 would be a
    # t-frame of 34 GB, which the work limit refuses before it is allocated
    near = R3.t(2) + R3.t(30000)
    assert near.valuation() == 2 and len(near.coeffs) == 29999
    with pytest.raises(WorkBudgetExceeded, match="t-frame of 34359738312 bytes"):
        R3.t(2) + R3.t(2 ** 32 - 6)
    # a scalar built from {exponent: coefficient} is stored the same way,
    # and its span is checked before the list of coefficients is made
    assert R3.element({2: 1, 30000: 1}) == R3({2: 1, 30000: 1}) == near
    for build in (R3.element, R3):
        start = time.perf_counter()
        with pytest.raises(WorkBudgetExceeded,
                           match="t-frame of 536870920 bytes"):
            build({0: 1, 2 ** 26: 1})
        assert time.perf_counter() - start < 0.1
    # terms at or past the precision are dropped before the span is sized,
    # but each coefficient is still read into the residue field
    start = time.perf_counter()
    clipped = R3.element({0: 1, 2 ** 26: 1}, tprec=3)
    assert time.perf_counter() - start < 0.1
    assert clipped == R3.element({0: 1}, tprec=3) and clipped.coeffs == (1,)
    gone = R3.element({5: 1, 2 ** 26: 1}, tprec=3)
    assert gone.coeffs == () and gone.tprec == 3
    with pytest.raises(ScalarRingMismatch):
        R3.element({0: 1, 9: FiniteField(7).one()}, tprec=3)


def test_truncated_zero_has_indeterminate_valuation(R3):
    field = R3.field
    clipped = R3.element({}, 4)  # zero up to t^4, unknown beyond
    assert not clipped.is_certified_zero()
    with pytest.raises(IndeterminateValuation):
        clipped.valuation()
    assert clipped.valuation_lower_bound() == 4
    exact = R3.element({}, None)
    assert exact.is_certified_zero()
    assert exact.valuation_lower_bound() == float("inf")


def test_valuation_of_exact_scalar(R3):
    field = R3.field
    s = R3.element({-2: field.one(), 1: field.from_int(2)}, None)
    assert s.valuation() == -2
    assert s.valuation_lower_bound() == -2


def test_scalar_rings_do_not_mix(R3):
    other = LaurentRing(FiniteField(5))
    with pytest.raises(ScalarRingMismatch):
        R3.one() + other.one()


def test_equal_rings_built_apart_still_mix(R3):
    # rings are compared by identity first, then by value
    F3b = FiniteField(3)
    assert F3b is not R3.field
    a, b = R3.field.from_int(2), F3b.from_int(2)
    assert a == b and a * b == R3.field.one() and (a - b).is_zero()
    Rb = LaurentRing(F3b)
    assert R3.t() + Rb.t() == R3.t(1) * 2
    assert R3.t() * Rb.one() == Rb.t()
    assert R3.embed(b) == Rb.embed(a)


PROTOCOL_RINGS = {
    "GF(5)": lambda: FiniteField(5),
    "GF(3^2)": lambda: FiniteField(3, 2),
    "Laurent(GF(5))": lambda: LaurentRing(FiniteField(5)),
    "Laurent(GF(3^2))": lambda: LaurentRing(FiniteField(3, 2)),
}


def _protocol_scalars(R):
    """A constant c of R's residue field and a scalar x of R made from it."""
    laurent = isinstance(R, LaurentRing)
    F = R.field if laurent else R
    c = F.gen() + 1 if F.d > 1 else F.from_int(3)
    return c, (R.t(-1) + R(c) if laurent else c * (c + 1))


@pytest.mark.parametrize("name", PROTOCOL_RINGS)
def test_both_rings_answer_one_scalar_protocol(name):
    R = PROTOCOL_RINGS[name]()
    c, x = _protocol_scalars(R)
    # an int or a residue-field constant on either side is R(it)
    for k in (2, c):
        assert x + k == k + x == x + R(k)
        assert x - k == x + R(-k) and k - x == R(k) - x == -(x - k)
        assert x * k == k * x == x * R(k)
        assert x / k * k == x and x / k == x * R(k).inverse()
    assert 2 * x == x + x
    # there is no reflected division: a field element divides a field
    # element, but an int divides nothing
    with pytest.raises(TypeError):
        2 / x
    if isinstance(R, LaurentRing):
        with pytest.raises(TypeError):
            c / x
    else:
        assert c / x * x == c
    # equal rings built apart mix, and so do their constants
    R2 = PROTOCOL_RINGS[name]()
    c2, x2 = _protocol_scalars(R2)
    assert R2 is not R and x2 == x
    assert x + x2 == x2 + x == 2 * x and (x - x2) == 0
    assert x * c2 == c2 * x == x * c and x / c2 == x / c
    assert R(x2) is x2 and R(c2) == R(c)
    # scalars of another ring do not mix, on either side
    G = FiniteField(7)
    others = [G.from_int(3)]
    if isinstance(R, LaurentRing):
        others.append(LaurentRing(G).t())
    for y in others:
        with pytest.raises(ScalarRingMismatch):
            R(y)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ScalarRingMismatch):
                op(x, y)
            with pytest.raises(ScalarRingMismatch):
                op(y, x)
        with pytest.raises(ScalarRingMismatch):
            x / y
    # an operand that is neither an int nor a scalar is not converted
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(x, Fraction(1, 2))
        with pytest.raises(TypeError):
            op(Fraction(1, 2), x)


def test_scalars_know_their_ring(R3):
    F3 = R3.field
    assert F3.one().ring is F3 and F3.residue_field is F3
    assert R3.one().ring is R3 and R3.one().field is F3
    assert R3.residue_field is F3
    # only a Laurent ring has .field: perfbench's tracer tells the rings
    # apart by it (tests/test_trace_counts.py)
    assert not hasattr(F3, "field")


def test_embed_keeps_residue_arithmetic(R3):
    F3 = R3.field
    a = R3.embed(F3.from_int(2))
    assert (a * a - R3.embed(F3.from_int(1))).is_certified_zero()
    assert a.valuation() == 0
