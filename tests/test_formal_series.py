"""Truncated series arithmetic: ring laws, composition, iteration, division.

Products and compositions run on one packed Kronecker kernel, over finite
fields and over Laurent rings alike; the tests below run the scalar loops of
`series_oracle` on the same data and demand identical results.
"""

import math
import random
from contextlib import ExitStack
from functools import lru_cache
from itertools import zip_longest
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_rem

from parabolic_lab import (
    DivisionByZero,
    FiniteField,
    IndeterminateValuation,
    LaurentRing,
    NonIntegralCoefficient,
    NonUnitLinearTerm,
    NonzeroConstantTerm,
    NotDivisible,
    NotParabolic,
    ParabolicGerm,
    ParabolicLabError,
    TruncationTooSmall,
    WorkBudgetExceeded,
    formal_series,
    identity,
    monomial,
    parse_series,
    ramification_profile,
    reduce_and_wideg,
    series,
    zero_series,
)
from parabolic_lab.coeff_rings import DEFAULT_TPREC, LaurentScalar
from parabolic_lab.formal_series import TruncatedSeries
from series_oracle import (
    _gcompose,
    _gconv,
    _inverse_by_division,
    _series_quotient,
    laurent_add,
    laurent_mul,
)


F3 = FiniteField(3)
F5 = FiniteField(5)


def rand_series(field, order_ge=0, size=8):
    coeff = st.integers(0, field.order - 1)
    return st.lists(coeff, min_size=order_ge, max_size=size).map(
        lambda cs: series(field,
                          {i: field.from_int(c) for i, c in enumerate(cs)
                           if i >= order_ge},
                          size))


# -- basic shapes ----------------------------------------------------------

def test_series_factory_and_order():
    s = series(F3, {1: F3.one(), 4: F3.from_int(2)}, 10)
    assert s.order() == 1
    assert s.coeff(4) == F3.from_int(2)
    assert s.coeff(7) == F3.zero()
    assert zero_series(F3, 5).order() is None      # zero through the window
    assert zero_series(F3, None).order() is math.inf  # exactly zero
    assert identity(F3, 6).order() == 1
    assert monomial(F3, F3.one(), 3, 8).order() == 3


def test_truncate_tightens_the_window():
    s = parse_series("z + z^2 + z^5 mod z^9", F3)
    t = s.truncate(4)
    assert t.n_trunc == 4
    assert t.coeff(2) == F3.one()
    assert t.order() == 1


@given(a=rand_series(F3), b=rand_series(F3), c=rand_series(F3))
@settings(max_examples=40, deadline=None)
def test_ring_laws(a, b, c):
    assert ((a + b) + c - (a + (b + c))).order() is None
    assert ((a * b) * c - (a * (b * c))).order() is None
    assert (a * (b + c) - (a * b + a * c)).order() is None
    assert (a * b - b * a).order() is None


@given(a=rand_series(F5, order_ge=1), b=rand_series(F5, order_ge=1),
       c=rand_series(F5, order_ge=1))
@settings(max_examples=30, deadline=None)
def test_composition_is_associative(a, b, c):
    lhs = a.compose(b).compose(c)
    rhs = a.compose(b.compose(c))
    assert (lhs - rhs).order() is None


# primes on both sides of 64-bit digits: from 2^31 - 1 up, a digit of the
# packed product can pass 2^64, 3037000507 > sqrt(2^63), and coordinates
# mod 2^64 + 13 no longer fit int64 themselves; over GF(p^2) with
# p = 9223372036854775837 > 2^63 the table of x^k mod the modulus is object
KERNEL_FIELDS = ([(p, 1) for p in (2, 3, 5, 65521, 2 ** 31 - 1, 3037000507,
                                   2 ** 61 - 1, 2 ** 64 + 13)]
                 + [(2, 2), (3, 2), (5, 2), (9223372036854775837, 2)])
# residue fields of the Laurent operands: GF(2), GF(3), GF(4), GF(5)
LAURENT_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1)]


@lru_cache(maxsize=None)
def _kernel_field(p, d):
    return FiniteField(p, d)


@st.composite
def laurent_scalar(draw, ring, kinds=("zero", "O(t^k)", "exact", "truncated")):
    """An exact zero, a zero known to O(t^k), or a few terms from t^v0 up
    (v0 may be negative), exact or known to a precision that may clip them."""
    F = ring.field
    kind = draw(st.sampled_from(kinds))
    v0 = draw(st.integers(-3, 4))
    if kind == "zero":
        return ring.zero()
    if kind == "O(t^k)":
        return ring.element({}, v0)
    coord = st.integers(0, F.p - 1)
    cs = draw(st.lists(st.lists(coord, min_size=F.d, max_size=F.d),
                       min_size=1, max_size=5))
    pairs = {v0 + i: F.element(c) for i, c in enumerate(cs)}
    slack = draw(st.integers(-2, 3))
    return ring.element(pairs, None if kind == "exact" else v0 + len(cs) + slack)


@st.composite
def kernel_operands(draw):
    """(ring, a, b, g): a and b to multiply, g vanishing at 0 to compose into
    a.  a has 1, 2, k^2 or k^2 + 1 coefficients for k up to 6: a
    composition's blocks of k then end exactly at a's last coefficient or
    one short of it, or there is no giant step at all.  Over a finite field,
    coordinates lean on 0, 1 and p - 1, the largest digits.  Over a Laurent
    ring, coefficients carry their own t-precision; half the time all of
    them are exact (v0 may be negative, so the powers of g sit on different
    t-bases), which is the Brent-Kung path, and otherwise Horner's."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(2, 6))
    n_outer = draw(st.sampled_from([1, 2, k * k, k * k + 1]))
    if draw(st.booleans()):
        ring = _kernel_field(*draw(st.sampled_from(KERNEL_FIELDS)))
        p = ring.p
        coord = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
        scalar = st.lists(coord, min_size=ring.d, max_size=ring.d).map(
            ring.element)
    else:
        ring = LaurentRing(_kernel_field(*draw(st.sampled_from(LAURENT_FIELDS))))
        exact = draw(st.booleans())
        scalar = laurent_scalar(ring, ("zero", "exact") if exact else
                                ("zero", "O(t^k)", "exact", "truncated"))

    def operand(order_ge, size=n, min_size=0, windows=(n, None)):
        n_trunc = draw(st.sampled_from(windows))
        return draw(st.lists(scalar, min_size=min_size, max_size=size).map(
            lambda cs: series(ring, {i: c for i, c in enumerate(cs)
                                     if i >= order_ge}, n_trunc)))

    # g's window may reach past its terms to a's length, so that long
    # compositions are truncated as well as z-exact.  Over a Laurent ring
    # a's window may also pass its terms, padding it with exact zero rows
    pad = draw(st.sampled_from([0, k])) if isinstance(ring, LaurentRing) else 0
    a = operand(0, n_outer, n_outer, (n_outer + pad, None))
    return ring, a, operand(0), operand(1, windows=(n, n_outer, None))


@given(ops=kernel_operands())
@settings(max_examples=300, deadline=None)
def test_generic_convolution_matches_packed_kernel(ops):
    # mul and compose against the scalar oracle, coefficient by coefficient
    # and precision by precision, and over Laurent rings the packed a - z*b
    # that Newton division uses against scalar sums.  The kernel may refuse
    # with WorkBudgetExceeded only an answer whose own packed form is over
    # the work limit (an exact z^35 at t^5*z^6 plus a low term of a spans
    # t^5 .. t^175 over 211 rows)
    ring, a, b, g = ops
    mul_n, comp_n = a._meet(b), a._meet(g)
    for kernel, oracle, n in (
            (lambda: a * b, lambda: _gconv(ring, a.coeffs, b.coeffs, mul_n),
             mul_n),
            (lambda: a.compose(g),
             lambda: _gcompose(ring, a.coeffs, g.coeffs, comp_n), comp_n)):
        coeffs = oracle()
        try:
            out = kernel()
        except WorkBudgetExceeded:
            with pytest.raises(WorkBudgetExceeded):
                TruncatedSeries(ring, coeffs, n)
            continue
        assert out == TruncatedSeries(ring, coeffs, n)
    if isinstance(ring, LaurentRing):
        A, B = (formal_series._pack_laurent(ring, s.coeffs) for s in (a, b))
        diff = formal_series._add_laurent(ring.field, A, B, shift=1, sign=-1)
        zero = ring.zero()
        assert formal_series._unpack_laurent(ring, diff) == [
            x - y for x, y in zip_longest(a.coeffs, (zero, *b.coeffs),
                                          fillvalue=zero)]


@given(data=st.data(), field=st.sampled_from(LAURENT_FIELDS))
@settings(max_examples=100, deadline=None)
def test_adding_an_exact_zero_keeps_the_scalar(data, field):
    # x + 0 and x - 0 return x itself, and 0 - x is -x, field by field
    ring = LaurentRing(_kernel_field(*field))
    x = data.draw(laurent_scalar(ring))
    zero = ring.zero()

    def fields(c):
        return c.v0, c.coeffs, c.tprec

    for y in (x + zero, zero + x, x - zero, x + 0, 0 + x):
        assert fields(y) == fields(x)
    assert fields(zero - x) == fields(-x)


def _count_laurent_kernels(fn):
    """fn() and the numbers of _mul_laurent and _antidiagonal_min calls."""
    calls = {"mul": 0, "minplus": 0}

    def counted(name, kernel):
        def wrapped(*args):
            calls[name] += 1
            return kernel(*args)
        return wrapped

    with patch.object(formal_series, "_mul_laurent", counted(
            "mul", formal_series._mul_laurent)), \
         patch.object(formal_series, "_antidiagonal_min", counted(
             "minplus", formal_series._antidiagonal_min)):
        return fn(), calls


def test_exact_laurent_composition_is_brent_kung():
    # k - 1 baby powers and m - 1 giant steps (k = ceil(sqrt(n))), and no
    # precision bookkeeping, where Horner would make n - 1 products
    ring = LaurentRing(F3)
    for N, products in ((4, 2), (10, 5), (25, 8), (26, 9)):
        f = series(ring, {i: ring.element({-1: 1, i % 3: 2})
                          for i in range(N)}, N)
        g = series(ring, {1: 1, 2: ring.t(), 3: ring.t(-1)}, N)
        out, calls = _count_laurent_kernels(lambda: f.compose(g))
        assert calls == {"mul": products, "minplus": 0}
        assert out == TruncatedSeries(
            ring, _gcompose(ring, f.coeffs, g.coeffs, N), N)


def test_truncated_laurent_composition_takes_one_row_blocks():
    # with one row of F or of G known only to O(t^k), the blocks are single
    # rows (k = 1): one giant step per row of F below the window, minus one,
    # as in Horner
    ring = LaurentRing(F3)
    loose = ring.element({0: 1}, 3)
    for N, window in ((4, 4), (10, 10), (26, 26), (26, 9), (5, None)):
        fc = {i: ring.element({-1: 1, i % 3: 2}) for i in range(N)}
        gc = {1: 1, 2: ring.t(), 3: ring.t(-1)}
        for a, b in (({**fc, 2: loose}, gc), (fc, {**gc, 2: loose})):
            f, g = series(ring, a, window), series(ring, b, window)
            out, calls = _count_laurent_kernels(lambda: f.compose(g))
            assert calls["mul"] == min(N, window or N) - 1
            assert out == TruncatedSeries(
                ring, _gcompose(ring, f.coeffs, g.coeffs, window), window)
    # the GF(4) example of the Horner test below: F's last live row is z^2,
    # so Horner runs on its rows 0 .. 2 only
    ring = LaurentRing(_kernel_field(2, 2))
    x = ring.embed(ring.field.gen())
    f = series(ring, {2: ring.element({}, 0)}, 8)
    g = series(ring, {1: x, 2: x}, 8)
    assert _count_laurent_kernels(lambda: f.compose(g))[1]["mul"] == 2


def test_laurent_composition_stops_at_the_last_live_row():
    # a germ mod z^N is stored padded with exact zero rows to its window;
    # the rows after the last live one add nothing, so it composes with the
    # products of the exact germ, whatever N
    ring = LaurentRing(F3)
    c = ring.element({0: 2, 1: 1})
    exact = series(ring, {1: 1, 2: c}, None)
    for N in (10, 15, 25):
        f = series(ring, {1: 1, 2: c}, N)
        g = series(ring, {1: 1, 2: ring.t(), 3: ring.element({-1: 1, 0: 2}),
                          N - 1: 1}, N)
        want, calls = _count_laurent_kernels(lambda: exact.compose(g))
        out, padded = _count_laurent_kernels(lambda: f.compose(g))
        assert padded == calls
        assert out == want == TruncatedSeries(
            ring, _gcompose(ring, f.coeffs, g.coeffs, N), N)
        # an outer series of exact zeros only is the zero series
        zero, calls = _count_laurent_kernels(
            lambda: zero_series(ring, N).compose(g))
        assert zero == zero_series(ring, N)
        assert calls == {"mul": 0, "minplus": 0}
        # a trailing zero known only to O(t^2) is live: it stays, and its
        # precision reaches the result as the scalar oracle's does
        f = series(ring, {1: 1, 2: c, 5: ring.element({}, 2)}, N)
        out = f.compose(g)
        assert out == TruncatedSeries(
            ring, _gcompose(ring, f.coeffs, g.coeffs, N), N)
        assert out.coeff(5) == ring.element({0: 1, 1: 1}, 2)


def test_horner_keeps_the_precision_of_truncated_rows():
    # F = O(t^0)*z^2 at G = x*z + x*z^2 over GF(4)((t)): Horner knows the
    # z^3 coefficient only to O(t^0), as the scalar oracle does, although
    # G^2 = x^2*z^2 + x^2*z^4 in characteristic 2 would make it exact
    ring = LaurentRing(_kernel_field(2, 2))
    x = ring.embed(ring.field.gen())
    f = series(ring, {2: ring.element({}, 0)}, 8)
    g = series(ring, {1: x, 2: x}, 8)
    out = f.compose(g)
    assert out == TruncatedSeries(
        ring, _gcompose(ring, f.coeffs, g.coeffs, 8), 8)
    assert out.coeff(3) == ring.element({}, 0)
    assert not out.coeff(3).is_exact()


def test_products_past_the_int64_limit_stay_exact():
    # (p-1)(1 + z + z^2 + ...) squared is 1 + 2z + 3z^2 + ... mod z^N; at
    # N = 3 the z^2 coefficient sums 3(p-1)^2 > 2^63 for p = 2^31 - 1
    for p in (2 ** 31 - 1, 3037000507):
        F = _kernel_field(p, 1)
        for N in (3, 4):
            a = series(F, {i: F.from_int(-1) for i in range(N)}, N)
            assert [c.coords[0] for c in (a * a).coeffs] == [1, 2, 3, 4][:N]
    # over GF(p^2), p = 2^61 - 1, even the x^k reduction passes 2^63.  x^2 - 3
    # is irreducible (p = 7 mod 12, so 3 is a non-residue)
    F = FiniteField(2 ** 61 - 1, 2, modulus=(-3, 0, 1))
    a = series(F, {i: F.element((-1, -1 - i)) for i in range(4)}, 4)
    g = series(F, {1: F.element((-1, 0)), 2: F.element((0, -1))}, 4)
    assert a * a == TruncatedSeries(F, _gconv(F, a.coeffs, a.coeffs, 4), 4)
    assert a.compose(g) == TruncatedSeries(F, _gcompose(F, a.coeffs, g.coeffs, 4), 4)


def test_composition_reduces_every_step_to_coordinates():
    # GF(9) by x^2 + x + 2, so x^2 = 2x + 1: a digit of the x^k basis folds
    # into a coordinate up to 2 + 2*2 = 6, not 2, unless reduced mod 3.  At
    # N = 25 (k = 5) the digit bound (25 + 5)*2*2^2 = 240 fills one byte, so
    # a baby or giant step left unreduced carries into the next digit.
    F = FiniteField(3, 2, modulus=(2, 1, 1))
    N, k = 25, 5
    assert formal_series._bk_shape(N)[0] == k
    assert formal_series._digit_bytes((N + k) * 2 * 2 ** 2) == 1
    rng = random.Random(0)
    for _ in range(8):
        a, g = ([F.element((rng.randrange(3), rng.randrange(3)))
                 for _ in range(N)] for _ in range(2))
        g[0] = F.zero()
        a, g = TruncatedSeries(F, a, N), TruncatedSeries(F, g, N)
        assert a.compose(g) == TruncatedSeries(
            F, _gcompose(F, a.coeffs, g.coeffs, N), N)


def test_exact_laurent_composition_skips_blocks_of_exact_zeros():
    # z^35 at t^5*z^6 is t^175*z^210, one t-slot per row.  The exact
    # Brent-Kung blocks of z^35 below row 30 are zeros at t^0, and adding
    # them to R*G^6, which sits at t^175, made a t-frame of 297088 bytes.
    # With z + z^35 the answer spans t^5 .. t^175 itself and is refused.
    ring = LaurentRing(_kernel_field(2, 1))
    g = series(ring, {6: ring.t(5)}, None)
    assert series(ring, {35: 1}, None).compose(g) == series(
        ring, {210: ring.t(175)}, None)
    with pytest.raises(WorkBudgetExceeded, match="t-frame of 288648 bytes"):
        series(ring, {1: 1, 35: 1}, None).compose(g)


# fields of the Taylor route's tests: small p, where one-byte digits are
# reduced by a byte table; GF(p^d); and primes past the int64 products of
# the Hasse columns (p >= 2^31), past int64 coordinates, and GF(p^2) with
# p > 2^63
TAYLOR_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 3),
                 (65537, 1), (2 ** 31 - 1, 1), (2 ** 61 - 1, 1),
                 (2 ** 64 + 13, 1), (9223372036854775837, 2)]


def _r_min(N):
    """The least ord(G - z) at which composition modulo z^N takes Taylor."""
    k, m, _ = formal_series._bk_shape(N)
    k_max = min(math.isqrt(N), k + m - 1 - formal_series._TAYLOR_SETUP)
    return max(2, -(-N // k_max))


def _brent_kung_only():
    return patch.object(formal_series, "_compose_taylor", lambda *args: None)


def _taylor_runs(fn):
    """fn() and, per call of the Taylor route, whether it answered."""
    runs = []
    taylor = formal_series._compose_taylor

    def recorded(*args):
        out = taylor(*args)
        runs.append(out is not None)
        return out

    with patch.object(formal_series, "_compose_taylor", recorded):
        return fn(), runs


@st.composite
def near_identity_operands(draw):
    """(a, g) with g = z + B mod z^N, ord B a little on either side of the
    switch (_r_min) or anywhere from 2 to N; a dense to the window, or an
    exact polynomial shorter than it.  Coordinates lean on 0, 1 and p - 1."""
    F = _kernel_field(*draw(st.sampled_from(TAYLOR_FIELDS)))
    # from N = 29 on, the route takes some G - z of order below N
    N = draw(st.integers(29, 32) | st.integers(33, 130))
    r_min = _r_min(N)
    r = draw(st.integers(max(2, r_min - 2), min(N, r_min + 2))
             | st.integers(2, N))
    coord = st.one_of(st.sampled_from([0, 1, F.p - 1]),
                      st.integers(0, F.p - 1))
    scalar = st.lists(coord, min_size=F.d, max_size=F.d).map(F.element)
    outer = draw(st.sampled_from([N, N // 4 + 1, 2]))
    a = draw(st.lists(scalar, min_size=outer, max_size=outer))
    b = draw(st.lists(scalar, min_size=0, max_size=N - r))
    return (series(F, dict(enumerate(a)), N if outer == N else None),
            series(F, {1: 1, **{r + i: c for i, c in enumerate(b)}}, N))


@given(ops=near_identity_operands())
@settings(max_examples=150, deadline=None)
def test_taylor_composition_matches_brent_kung(ops):
    # the route against Brent-Kung, and on windows of at most 32 rows
    # against the scalar oracle
    a, g = ops
    out = a.compose(g)
    with _brent_kung_only():
        assert out == a.compose(g)
    if g.n_trunc <= 32:
        assert out == TruncatedSeries(
            g.ring, _gcompose(g.ring, a.coeffs, g.coeffs, g.n_trunc),
            g.n_trunc)


def test_taylor_digits_at_their_widest():
    # every coordinate p - 1 in both operands, G = z + B with ord B = r_min,
    # at windows where Brent-Kung's digits just fit one byte (p = 2, N = 239;
    # p = 3, N = 55), where they just do not (p = 2, N = 254), and over GF(4)
    for (p, d), N in (((2, 1), 239), ((2, 1), 254), ((3, 1), 55),
                      ((2, 2), 60)):
        F = _kernel_field(p, d)
        top = F.element([p - 1] * d)
        a = series(F, {i: top for i in range(N)}, N)
        g = series(F, {1: 1, **{i: top for i in range(_r_min(N), N)}}, N)
        out, runs = _taylor_runs(lambda: a.compose(g))
        assert runs == [True]
        with _brent_kung_only():
            assert out == a.compose(g)


def test_taylor_route_runs_on_near_identity_inner_series_only():
    # a deep tower takes it, with Brent-Kung's answer; a non-tangent inner
    # series, one with ord(G - z) below r_min and exact polynomials
    # (limit None) never reach it
    F2 = _kernel_field(2, 1)
    f = ParabolicGerm(series(F2, {1: 1, 2: 1, 3: 1}, None))
    prof, runs = _taylor_runs(lambda: ramification_profile(f, 6, 300))
    assert runs and all(runs)
    with _brent_kung_only():
        assert ramification_profile(f, 6, 300) == prof
    F = _kernel_field(3, 1)
    N = 100
    a = series(F, {i: 1 + i % 2 for i in range(N)}, N)
    for g in (series(F, {1: 2, 60: 1}, N),
              series(F, {1: 1, _r_min(N) - 1: 1}, N)):
        assert _taylor_runs(lambda: a.compose(g))[1] == []
    exact = series(F, {1: 1, 2: 1, 3: 2}, None)
    assert _taylor_runs(lambda: exact.compose(series(
        F, {1: 1, 90: 1}, None)))[1] == []
    assert _taylor_runs(lambda: a.compose(series(
        F, {1: 1, _r_min(N): 1}, N)))[1] == [True]


def test_hasse_columns_are_binomials_mod_p_in_a_bounded_cache():
    for p in (2, 3, 7, 2 ** 31 - 1, 2 ** 64 + 13):
        T = formal_series._hasse(p, 6, 40)
        assert [[int(x) for x in row[:40]] for row in T[:6]] == [
            [math.comb(m + j, j) % p for m in range(40)] for j in range(6)]
    tables = formal_series._hasse_tables
    assert len(tables) <= formal_series._HASSE_PRIMES
    assert all(T.size * T.itemsize <= formal_series._WORK_LIMIT
               for T in tables.values())
    # a table over the work limit is not built, and Brent-Kung answers
    assert formal_series._hasse(2, 600, 600) is None
    F = _kernel_field(2, 1)
    a = series(F, {i: 1 for i in range(40)}, 40)
    g = series(F, {1: 1, _r_min(40): 1}, 40)
    with patch.object(formal_series, "_WORK_LIMIT", 128):
        formal_series._hasse_tables.clear()
        out, runs = _taylor_runs(lambda: a.compose(g))
    assert runs == [False]
    assert out == a.compose(g)


# ((p, d), digit bytes): one-byte digits over GF(p) are reduced by a byte
# table, two-byte digits and those over GF(p^d) by numpy, and digits past
# eight bytes as Python integers
DIGIT_CASES = ([((p, 1), 1) for p in (2, 3, 5, 7, 11, 13)]
               + [((5, 1), 2), ((2, 2), 1), ((9223372036854775837, 2), 17)])


@given(case=st.sampled_from(DIGIT_CASES), data=st.data())
@settings(max_examples=200, deadline=None)
def test_digit_reduction_matches_a_plain_oracle(case, data):
    # each digit int.from_bytes(...) % p, then the x^k -> power basis map,
    # x^k mod the modulus by sympy; the integer may run past the count
    # slots, as a product's tail does
    (p, d), nbytes = case
    F = _kernel_field(p, d)
    X = 2 * d - 1
    rows = []
    for k in range(X):
        r = gf_rem([1] + [0] * k, list(F.modulus[::-1]), p, ZZ)[::-1]
        rows.append([int(c) for c in r] + [0] * (d - len(r)))
    count = data.draw(st.integers(1, 40))
    top = 256 ** nbytes - 1
    digit = st.one_of(st.sampled_from([0, p - 1, p, top]),
                      st.integers(0, top))
    digits = data.draw(st.lists(digit, min_size=count * X,
                                max_size=count * X + 8))
    raw = b"".join(v.to_bytes(nbytes, "little") for v in digits)
    x = int.from_bytes(raw, "little")
    residues = [int.from_bytes(raw[i:i + nbytes], "little") % p
                for i in range(0, count * X * nbytes, nbytes)]
    want = []
    for i in range(count):
        slot = residues[i * X:(i + 1) * X]
        want.append([sum(c * row[j] for c, row in zip(slot, rows)) % p
                     for j in range(d)])
    got = formal_series._digits(F, x, count, nbytes)
    assert isinstance(got, bytes) == (nbytes == 1 and d == 1)
    assert np.array(list(got) if isinstance(got, bytes) else got).reshape(
        count, d).tolist() == want
    packed = b"".join(c.to_bytes(nbytes, "little")
                      for row in want for c in row + [0] * (X - d))
    assert formal_series._reduce_int(F, x, count, nbytes) == int.from_bytes(
        packed, "little")


# -- packed storage ---------------------------------------------------------

def _normal(ring, coeffs, n):
    """The coefficients a series stores: dense of length n when truncated,
    without trailing exact zeros when exact."""
    coeffs = list(coeffs)
    if n is not None:
        return tuple(coeffs[:n] + [ring.zero()] * (n - len(coeffs)))
    while coeffs and coeffs[-1].is_certified_zero():
        coeffs.pop()
    return tuple(coeffs)


def _scalar_order(coeffs, n):
    """order() read off coefficient objects, one at a time."""
    for i, c in enumerate(coeffs):
        if c.is_certified_nonzero():
            return i
        if not c.is_certified_zero():
            return IndeterminateValuation
    return math.inf if n is None else None


def _outcome(fn):
    try:
        return fn()
    except ParabolicLabError as e:
        return type(e)


@st.composite
def storage_operands(draw):
    """(ring, (coefficients, window) twice): over a kernel field (p up to
    2^64 + 13, d = 2), or over Laurent(GF(2/3/4/5)) with exact zeros, zeros
    known to O(t^k), negative v0 and truncated coefficients; each series
    exact or truncated, the window above or below its length."""
    if draw(st.booleans()):
        ring = _kernel_field(*draw(st.sampled_from(KERNEL_FIELDS)))
        p = ring.p
        coord = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
        scalar = st.lists(coord, min_size=ring.d, max_size=ring.d).map(
            ring.element)
    else:
        ring = LaurentRing(_kernel_field(*draw(st.sampled_from(LAURENT_FIELDS))))
        scalar = laurent_scalar(ring)
    return ring, *((draw(st.lists(scalar, max_size=7)),
                    draw(st.sampled_from([None, 1, 2, 4, 7])))
                   for _ in range(2))


def _three_ways(ring, coeffs, n, slack):
    """The series built from coefficient objects, from an array packed here
    with `slack` empty t-slots at both ends and `slack` exact zero rows past
    the end, and from the kernel's array of its product by 1."""
    objects = TruncatedSeries(ring, coeffs, n)
    pack = (formal_series._pack_laurent if isinstance(ring, LaurentRing)
            else formal_series._pack)
    M, base, tp = pack(ring, coeffs)
    rows, W, d = M.shape
    wide = np.zeros((rows + slack, W + 2 * slack, d), dtype=M.dtype)
    wide[:rows, slack:slack + W] = M
    arr = (wide, base - slack, None if tp is None
           else np.concatenate([tp, formal_series._exact_rows(slack)]))
    packed = TruncatedSeries._from_packed(ring, arr, n)
    return objects, packed, objects * series(ring, {0: 1}, None)


@given(ops=storage_operands(), slack=st.integers(0, 2), q=st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_packed_storage_matches_coefficient_objects(ops, slack, q):
    ring, (ca, na), (cb, nb) = ops
    zero = ring.zero()
    want_a, want_b = _normal(ring, ca, na), _normal(ring, cb, nb)
    meet = nb if na is None else na if nb is None else min(na, nb)
    for a, b in zip(_three_ways(ring, ca, na, slack),
                    _three_ways(ring, cb, nb, slack)):
        assert a.coeffs == want_a and b.coeffs == want_b
        top = len(want_a) + 2 if na is None else na
        assert [a.coeff(i) for i in range(top)] == list(
            want_a + (zero,) * (top - len(want_a)))
        if na is not None:
            with pytest.raises(TruncationTooSmall):
                a.coeff(na)
        assert _outcome(a.order) == _scalar_order(want_a, na)
        assert _outcome(a.degree) == (
            ParabolicLabError if na is not None
            else len(want_a) - 1 if want_a else -math.inf)
        assert (-a).coeffs == _normal(ring, [-c for c in want_a], na)
        pairs = list(zip_longest(want_a, want_b, fillvalue=zero))
        assert (a + b).coeffs == _normal(ring, [x + y for x, y in pairs], meet)
        assert (a - b).coeffs == _normal(ring, [x - y for x, y in pairs], meet)
        assert (a == b) == (want_a == want_b and na == nb)
        for m in range(1, top + 1 if na is None else na + 1):
            assert a.truncate(m).coeffs == _normal(ring, want_a[:m], m)
        stretched = [zero] * max(0, (len(want_a) - 1) * q + 1)
        stretched[::q] = want_a
        assert a.stretch(q).coeffs == _normal(
            ring, stretched, None if na is None else (na - 1) * q + 1)
        if na == 1:
            with pytest.raises(TruncationTooSmall):
                a.derivative()
        else:
            assert a.derivative().coeffs == _normal(
                ring, [ring.from_int(i) * c for i, c in enumerate(want_a)][1:],
                None if na is None else na - 1)
    objects, packed, kernel = _three_ways(ring, ca, na, slack)
    for s in (packed, kernel):
        assert s == objects and hash(s) == hash(objects)
        assert repr(s) == repr(objects)


def test_stored_arrays_are_read_only():
    # truncate and the kernels' slot trimming return views, so a write into
    # a stored array, such as the in-place clip of _mul_laurent, would
    # change every series sharing it
    # (an exact Laurent series stores no precision array, so the last
    # series has a row known only to O(t^3))
    L3 = LaurentRing(F3)
    for ring, text in ((F3, "z + 2*z^2 + z^4 mod z^6"),
                       (L3, "z + 2*z^2 + z^4 mod z^6"),
                       (L3, "z + 2*z^2 + O(t^3)*z^3 + z^4 mod z^6")):
        s = parse_series(text, ring)
        for t in (s, s.truncate(3), s * s, s - s, s.compose(s)):
            M, _, tp = t._arr
            for arr in (M,) if tp is None else (M, tp):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1
    assert s._arr[2] is not None
    M, base, tp = series(L3, {0: 1, 1: 1}, 6)._arr
    with pytest.raises(ValueError, match="read-only"):
        formal_series._clip(M, base, np.zeros(len(M), dtype=np.int64))


def test_the_tower_stays_packed_between_compositions():
    # ramification_profile over GF(5) with q = 4 (window N = 129): no
    # coefficient object is packed or unpacked on the way up the tower, and
    # each composition reads its digits back into an array once
    F = F5
    f = ParabolicGerm(series(F, {1: 2, 2: 1, 5: 3, 6: 1}, None))
    assert f.q == 4
    calls = dict.fromkeys(("_pack", "_unpack", "_pack_laurent",
                           "_unpack_laurent", "_from_int", "_compose_ff"), 0)

    def counted(name):
        fn = getattr(formal_series, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    with ExitStack() as stack:
        for name in calls:
            stack.enter_context(patch.object(formal_series, name,
                                             counted(name)))
        prof = ramification_profile(f, 2)
    assert prof.N == 129
    assert calls["_compose_ff"] > 0
    assert calls["_from_int"] == calls["_compose_ff"]
    assert calls["_pack"] == calls["_unpack"] == 0
    assert calls["_pack_laurent"] == calls["_unpack_laurent"] == 0


def test_division_inverts_the_lead_on_its_packed_row():
    # an exact and a truncated Laurent division whose divisor's lead 1 + t
    # is not a monomial: the lead is inverted on its packed row, so no
    # coefficient object is packed, unpacked or inverted on the way
    ring = LaurentRing(F3)
    den = series(ring, {1: ring.element({0: 1, 1: 1}), 2: ring.t(1)}, None)
    quot = series(ring, {0: 1, 1: ring.t(2), 3: ring.element({-1: 2, 1: 1})},
                  None)
    num = den * quot
    calls = dict.fromkeys(("_pack_laurent", "_unpack_laurent", "inverse"), 0)

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    with ExitStack() as stack:
        for owner, name in ((formal_series, "_pack_laurent"),
                            (formal_series, "_unpack_laurent"),
                            (LaurentScalar, "inverse")):
            stack.enter_context(patch.object(owner, name,
                                             counted(owner, name)))
        exact = num.divide_exact(den)
        truncated = num.truncate(8).divide_exact(den.truncate(8))
    assert calls == {"_pack_laurent": 0, "_unpack_laurent": 0, "inverse": 0}
    assert exact == quot
    assert truncated.n_trunc == 7
    assert not any(c.is_certified_nonzero()
                   for c in (truncated - quot.truncate(7)).coeffs)


def test_large_t_exponents_are_stored_but_not_multiplied():
    # a series holds any t-exponent below 2^60 while its t-frame stays under
    # the work limit; products and compositions take operands below 2^32 in
    # magnitude, whatever they produce
    ring = LaurentRing(F3)
    s = series(ring, {1: ring.t(5 * 10 ** 9), 2: ring.t(5 * 10 ** 9 + 1)}, None)
    assert s.order() == 1 and s.coeff(1) == ring.t(5 * 10 ** 9)
    assert (s - s).order() == math.inf and -(-s) == s
    with pytest.raises(ParabolicLabError, match="2\\^32 in magnitude"):
        s * s
    with pytest.raises(ParabolicLabError, match="2\\^32 in magnitude"):
        s.compose(identity(ring, None))
    with pytest.raises(WorkBudgetExceeded, match="t-frame .* work limit"):
        series(ring, {1: 1, 2: ring.t(5 * 10 ** 9)}, None)
    a = series(ring, {1: ring.t(2 ** 31)}, None)
    assert (a * a).coeff(2) == ring.t(2 ** 32)


def test_work_past_the_limit_is_refused():
    # a window or t-frame that the input sets is refused before it is
    # allocated (8 and 16 MB here), a product when it is read back, and the
    # precision pass of a product by the row pairs it visits
    ring = LaurentRing(F3)
    with pytest.raises(WorkBudgetExceeded, match="series window .* limit"):
        identity(F3, 2 ** 20)
    with pytest.raises(WorkBudgetExceeded, match="t-frame .* limit"):
        series(ring, {1: 1, 2: ring.t(2 ** 20)}, None)
    # two series far apart in t: the frame of their sum spans the gap
    far = series(ring, {1: ring.t(2 ** 40)}, None)
    with pytest.raises(WorkBudgetExceeded, match="t-frame .* limit"):
        far + identity(ring, None)
    s = series(F3, {i: 1 for i in range(1, 40)}, None)
    with patch.object(formal_series, "_WORK_LIMIT", 64):
        with pytest.raises(WorkBudgetExceeded, match="product of 79 bytes"):
            s * s
    t, u = np.zeros(512, dtype=np.int64), np.zeros(513, dtype=np.int64)
    assert len(formal_series._antidiagonal_min(t, t, t, t)) == 1023
    with pytest.raises(WorkBudgetExceeded,
                       match="precision pass of 262656 cells"):
        formal_series._antidiagonal_min(t, t, u, u)


def test_precision_pass_takes_its_operands_in_either_order():
    # the pass puts the shorter operand first; either order gives the least
    # min(tA[i] + vB[j], vA[i] + tB[j]) over each anti-diagonal i + j = k
    rng = np.random.default_rng(3)
    tA, vA = rng.integers(0, 50, (2, 3))
    tB, vB = rng.integers(0, 50, (2, 7))
    least = [min(min(tA[i] + vB[k - i], vA[i] + tB[k - i])
                 for i in range(3) if 0 <= k - i < 7) for k in range(9)]
    assert list(formal_series._antidiagonal_min(tA, vA, tB, vB)) == least
    assert list(formal_series._antidiagonal_min(tB, vB, tA, vA)) == least


def test_packed_laurent_precision_never_reads_as_exact():
    # packed precisions sit far below the "exact" sentinel: an exponent just
    # inside the packed range keeps its O(t^k), one at 2^32 is refused
    ring = LaurentRing(F3)
    b = series(ring, {0: ring.element({0: 1}, 64)}, None)
    a = series(ring, {0: ring.t(2 ** 32 - 65)}, None)
    assert (a * b).coeff(0) == ring.element({2 ** 32 - 65: 1}, 2 ** 32 - 1)
    for c in (ring.t(2 ** 32), ring.t(-2 ** 32), ring.element({}, 10 ** 19)):
        with pytest.raises(ParabolicLabError, match="2\\^32"):
            series(ring, {0: c}, None) * b


def test_finite_field_and_laurent_kernels_agree():
    ring = LaurentRing(F3)
    a = parse_series("z + 2*z^2 + z^4 mod z^12", F3)
    b = parse_series("2*z + z^3 mod z^12", F3)
    al = parse_series("z + 2*z^2 + z^4 mod z^12", ring)
    bl = parse_series("2*z + z^3 mod z^12", ring)
    prod = a * b
    prodl = al * bl
    comp = a.compose(b)
    compl = al.compose(bl)
    for i in range(12):
        assert ring.embed(prod.coeff(i)) == prodl.coeff(i)
        assert ring.embed(comp.coeff(i)) == compl.coeff(i)


def test_compose_requires_vanishing_inner():
    outer = parse_series("z + z^2 mod z^6", F3)
    inner = parse_series("1 + z mod z^6", F3)
    with pytest.raises(NonzeroConstantTerm):
        outer.compose(inner)


def test_truncation_meets_at_the_smaller_window():
    a = parse_series("z mod z^9", F3)
    b = parse_series("z + z^2 mod z^5", F3)
    assert (a + b).n_trunc == 5
    assert (a * b).n_trunc == 5
    exact = parse_series("z + z^3", F3)
    assert (exact * exact).n_trunc is None
    assert (a * exact).n_trunc == 9


# -- inverse, power, stretch, derivative -----------------------------------

@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_compositional_inverse(data):
    lin = data.draw(st.integers(1, 4))
    tail = data.draw(st.lists(st.integers(0, 4), min_size=0, max_size=4))
    s = series(F5, {1: F5.from_int(lin),
                    **{i + 2: F5.from_int(c) for i, c in enumerate(tail)}}, 9)
    inv = s.inverse()
    assert (s.compose(inv) - identity(F5, 9)).order() is None
    assert (inv.compose(s) - identity(F5, 9)).order() is None


def test_inverse_needs_unit_linear_term():
    with pytest.raises(NonUnitLinearTerm):
        parse_series("z^2 mod z^6", F3).inverse()


INVERSE_FIELDS = [_kernel_field(p, d)
                  for p, d in [(2, 1), (3, 1), (5, 1), (65537, 1), (2, 2),
                               (3, 2)]]
INVERSE_RINGS = [LaurentRing(_kernel_field(p, d))
                 for p, d in [(2, 1), (3, 1), (2, 2), (5, 1)]]


def _draw_inverse_case(rng):
    """(f, n): a series with a unit linear term, over a finite field (window
    2-40) or a Laurent ring (2-10, one draw in fifty up to 40), its
    rows there exact zeros, zeros known to O(t^k) or up to four terms, exact
    or clipped by a precision; c1 exact or not, a monomial or not.  One
    draw in eight is an exact polynomial.  n is None (the input's window)
    or lies below, at or above it."""
    def element(F):
        return F.element([rng.randrange(F.p) for _ in range(F.d)])

    def unit(F):
        x = element(F)
        return x if not x.is_zero() else F.one()

    def scalar(ring, linear):
        F, v0 = ring.field, rng.randint(-2, 3)
        r = rng.random()
        if not linear and r < 0.5:
            return (ring.zero() if r < 0.3
                    else ring.element({}, v0 + rng.randint(0, 3)))
        cs = [unit(F)] + [element(F) for _ in range(rng.choice((0, 0, 1, 3)))]
        tprec = None if rng.random() < 0.6 else v0 + rng.randint(1, len(cs) + 2)
        return ring.element({v0 + i: c for i, c in enumerate(cs)}, tprec)

    if rng.random() < 0.6:
        ring, cap = rng.choice(INVERSE_FIELDS), 40
        top = rng.randint(2, cap)
        entries = {1: unit(ring)}
        entries.update((e, element(ring)) for e in range(2, top)
                       if rng.random() < 0.7)
    else:
        ring, cap = rng.choice(INVERSE_RINGS), (
            40 if rng.random() < 0.02 else 10)
        top = rng.randint(2, cap)
        entries = {e: scalar(ring, e == 1) for e in range(1, top)}
    if rng.random() < 0.125:
        return series(ring, entries, None), rng.randint(1, cap)
    return series(ring, entries, top), rng.choice(
        [None, max(1, top - rng.randint(1, 4)), top, top + rng.randint(1, 4)])


def test_inverse_matches_the_division_oracle():
    # the inverse carries 1/f'(h) from round to round and resumes its Newton
    # reciprocal at the row the previous round started from; the oracle
    # divides afresh each round.  Equality is of the stored triple (rows,
    # t-base, per-row t-precision) and the window: a wrong resume row shows
    # as a differing row or precision.
    rng = random.Random(2024)
    laurent = with_precision = 0
    for _ in range(1500):
        f, n = _draw_inverse_case(rng)
        got, want = _outcome(lambda: f.inverse(n)), _outcome(
            lambda: _inverse_by_division(f, n))
        assert got == want, (f, n)
        if isinstance(f.ring, LaurentRing):
            laurent += 1
            with_precision += f._arr[2] is not None
    assert laurent > 500 and with_precision > 200


def test_inverse_divides_nothing():
    # the reciprocal is a Newton iteration resumed each round, not a
    # division by f'(h)
    ring = LaurentRing(F3)
    cases = [(parse_series("z + z^2 + 2*z^5 mod z^15", F3), None),
             (parse_series("(1 + t)*z + O(t^2)*z^2 + t^-1*z^3 mod z^15",
                           ring), None),
             (series(ring, {1: ring.t(1), 2: 1, 4: ring.t(-2)}, None), 15)]

    def refuse(*args):
        raise AssertionError("divide_exact called")

    with patch.object(TruncatedSeries, "divide_exact", refuse):
        for f, n in cases:
            assert f.inverse(n).n_trunc == 15


@given(a=rand_series(F3), k=st.integers(0, 5))
@settings(max_examples=25, deadline=None)
def test_power_matches_repeated_multiplication(a, k):
    expected = series(F3, {0: F3.one()}, a.n_trunc)
    for _ in range(k):
        expected = expected * a
    assert (a.power(k) - expected).order() is None


def test_stretch_substitutes_a_power():
    s = parse_series("z + 2*z^3 mod z^5", F3)
    assert (s.stretch(2) - parse_series("z^2 + 2*z^6 mod z^9", F3)).order() is None
    # the top known index 4 stretches to 8, so the window is 9
    assert s.stretch(2).n_trunc == 9


@given(a=rand_series(F5), b=rand_series(F5))
@settings(max_examples=25, deadline=None)
def test_derivative_product_rule(a, b):
    lhs = (a * b).derivative()
    rhs = a.derivative() * b + a * b.derivative()
    assert (lhs - rhs).order() is None


def test_derivative_shortens_the_window_by_one():
    assert series(F3, {1: 1, 2: 1}, 2).derivative() == series(F3, {0: 1}, 1)
    # mod z^1 even f'(0) = f_1 is unknown
    with pytest.raises(TruncationTooSmall):
        series(F3, {0: 1}, 1).derivative()


# -- iteration -------------------------------------------------------------

@given(a=rand_series(F3, order_ge=1), m=st.integers(1, 6))
@settings(max_examples=20, deadline=None)
def test_iterate_matches_composition_chain(a, m):
    chain = a
    for _ in range(m - 1):
        chain = chain.compose(a)
    assert (a.iterate(m) - chain).order() is None


def test_iterate_zero_is_identity():
    a = parse_series("z + z^2 mod z^7", F3)
    assert (a.iterate(0) - identity(F3, 7)).order() is None


# -- exact division --------------------------------------------------------

@st.composite
def division_operands(draw):
    """(a, b) over a kernel field (p up to 2^64 + 13, d up to 2), both
    exact or both modulo one z^N, N in {1, 2, 8, 15, 40}: one row, and the
    windows a compositional inverse divides at.  A constant term is often
    nonzero, so the quotient keeps all N rows."""
    F = _kernel_field(*draw(st.sampled_from(KERNEL_FIELDS)))
    coord = st.one_of(st.sampled_from([0, 1, F.p - 1]), st.integers(0, F.p - 1))
    scalar = st.lists(coord, min_size=F.d, max_size=F.d).map(F.element)
    n_trunc = draw(st.sampled_from([1, 2, 8, 15, 40, None]))
    return tuple(draw(st.lists(scalar, min_size=1, max_size=8).map(
        lambda cs: series(F, dict(enumerate(cs)), n_trunc)))
        for _ in range(2))


@given(ab=st.one_of(st.tuples(rand_series(F5, order_ge=1),
                              rand_series(F5, order_ge=1)),
                    division_operands()))
@settings(max_examples=80, deadline=None)
def test_divide_exact_roundtrip(ab):
    a, b = ab
    if b.order() in (None, math.inf):
        return
    prod = a * b
    quot = prod.divide_exact(b)
    assert all(c.valuation_lower_bound() >= 0 for c in quot.coeffs)
    assert (quot - a).order() is (math.inf if prod.is_exact() else None)
    if prod.is_exact() and sum(1 for c in b.coeffs if c) > 1:
        # b = z^k * u with u not constant divides no power of z
        bumped = prod + monomial(b.ring, b.ring.one(), len(prod.coeffs), None)
        with pytest.raises(NotDivisible):
            bumped.divide_exact(b)


def test_divide_exact_detects_non_multiples():
    num = parse_series("z + z^2", F3)
    den = parse_series("z^2 + z^3", F3)  # z(1+z) does not divide by z^2(1+z)
    with pytest.raises(NotDivisible):
        num.divide_exact(den)


def test_exact_division_is_certified_by_multiplying_back():
    # 1 + 2z does not divide 1 + z: the Newton quotient gives a candidate
    # over GF(3) and over GF(3)((t)), which den * quot != num refuses in
    # both rings
    for ring in (F3, LaurentRing(F3)):
        with pytest.raises(NotDivisible, match="nonzero remainder"):
            series(ring, {0: 1, 1: 1}, None).divide_exact(
                series(ring, {0: 1, 1: 2}, None))


def test_division_and_inversion_refusals():
    L3 = LaurentRing(F3)
    for ring in (F3, L3):
        num = series(ring, {1: 1}, 3)
        with pytest.raises(DivisionByZero):
            num.divide_exact(zero_series(ring, None))
        # a divisor that is zero through its window has no certified order
        with pytest.raises(IndeterminateValuation):
            num.divide_exact(series(ring, {}, 3))
    with pytest.raises(IndeterminateValuation):
        L3.element({}, tprec=4).inverse()
    with pytest.raises(NonzeroConstantTerm):
        parse_series("1 + z mod z^5", F3).inverse()
    with pytest.raises(ParabolicLabError, match="explicit truncation"):
        parse_series("z + z^2", F3).inverse()


def test_divide_exact_of_exact_zero():
    den = parse_series("z + z^2", F3)
    quot = zero_series(F3, None).divide_exact(den)
    assert quot.order() is math.inf


def _prec(c):
    return math.inf if c.tprec is None else c.tprec


@st.composite
def laurent_unit(draw, ring, exact):
    """A certified nonzero scalar, often not a monomial: up to four terms
    from t^v0 up (v0 may be negative), the first nonzero, exact or (unless
    exact is set) known to a precision above v0."""
    F = ring.field
    coord = st.integers(0, F.p - 1)
    v0 = draw(st.integers(-3, 4))
    cs = draw(st.lists(st.lists(coord, min_size=F.d, max_size=F.d),
                       min_size=1, max_size=4))
    cs[0] = [1] + cs[0][1:]
    tprec = None
    if not exact and draw(st.booleans()):
        tprec = v0 + draw(st.integers(1, len(cs) + 3))
    return ring.element({v0 + i: F.element(c) for i, c in enumerate(cs)},
                        tprec)


@st.composite
def invertible_scalar(draw):
    """(s, rel): a certified nonzero scalar over GF(p^d)((t)), p^d from
    KERNEL_FIELDS, and the relative precision to invert it to (None for the
    default).  s is an exact monomial, an exact non-monomial or known to
    O(t^k); up to eight terms from t^v0 up (v0 may be negative)."""
    F = _kernel_field(*draw(st.sampled_from(KERNEL_FIELDS)))
    coord = st.one_of(st.sampled_from([0, 1, F.p - 1]), st.integers(0, F.p - 1))
    scalar = st.lists(coord, min_size=F.d, max_size=F.d).map(F.element)
    kind = draw(st.sampled_from(["monomial", "exact", "O(t^k)"]))
    cs = draw(st.lists(scalar, min_size=1,
                       max_size=1 if kind == "monomial" else 8))
    if cs[0].is_zero():
        cs[0] = F.one()
    v0 = draw(st.integers(-4, 4))
    tprec = v0 + draw(st.integers(1, 12)) if kind == "O(t^k)" else None
    s = LaurentRing(F).element({v0 + i: c for i, c in enumerate(cs)}, tprec)
    return s, draw(st.sampled_from([None, 1, 2, 5, 15, 64, 100]))


@given(data=invertible_scalar())
@settings(max_examples=150, deadline=None)
def test_scalar_inverse_matches_the_scalar_quotient(data):
    # LaurentScalar.inverse runs the packed Newton reciprocal that divides
    # series; the scalar recurrence on the FieldElement coefficients never
    # touches the kernel.  The Laurent division test below inverts its
    # oracle's lead this way, so this test anchors that one too.
    s, rel = data
    ring, v = s.ring, s.v0
    inv = s.inverse() if rel is None else s.inverse(rel)
    if s.tprec is None and len(s.coeffs) == 1:
        want = ring.element({-v: s.coeffs[0].inverse()})
    else:
        r = (s.tprec - v if s.tprec is not None
             else DEFAULT_TPREC if rel is None else rel)
        w = _series_quotient([ring.field.one()], s.coeffs[:r], r)
        want = ring.element({-v + i: c for i, c in enumerate(w)}, -v + r)
    assert inv == want
    assert not (s * inv - ring.one()).is_certified_nonzero()


def test_scalar_inverse_of_a_large_valuation():
    # the expansion runs on the coefficients from t^v0 up, so an exponent
    # past the 2^32 of series products, and past the 2^60 a series stores,
    # reaches only the inverse's valuation
    ring = LaurentRing(F3)
    v = 2 ** 61
    assert ring.t(v).inverse() == ring.t(-v)
    inv = ring.element({v: 1, v + 1: 1}).inverse()
    assert inv == ring.element({-v + i: (-1) ** i for i in range(64)},
                               -v + DEFAULT_TPREC)


# residue fields of scalar products and sums: LAURENT_FIELDS, and two past
# int64 in their digits or their coordinates
SCALAR_FIELDS = LAURENT_FIELDS + [(2 ** 61 - 1, 1), (9223372036854775837, 2)]


def _shifted(x, s):
    """The scalar x times t^s, built without arithmetic."""
    tp = None if x.tprec is None else x.tprec + s
    return LaurentScalar(x.ring, x.v0 + s if x.coeffs else 0, x.coeffs, tp)


@given(data=st.data(), field=st.sampled_from(SCALAR_FIELDS),
       shift=st.sampled_from([0, 0, 2 ** 61, 2 ** 70, -2 ** 70]),
       gap=st.integers(-4, 4))
@settings(max_examples=300, deadline=None)
def test_scalar_arithmetic_matches_the_schoolbook_oracle(data, field, shift,
                                                         gap):
    # a scalar product or sum is a one-row product or sum on the kernel,
    # its operands packed from a Python-int origin: exact zeros, zeros
    # known to O(t^k), negative v0, clipped precisions and exponents past
    # 2^60 must all come out as the schoolbook loops have them
    ring = LaurentRing(_kernel_field(*field))
    x, y = data.draw(laurent_scalar(ring)), data.draw(laurent_scalar(ring))
    a, b = _shifted(x, shift), _shifted(y, shift + gap)
    assert a * b == laurent_mul(a, b)
    assert a + b == laurent_add(a, b)
    assert a - b == laurent_add(a, -b)
    # factors far apart in t multiply as near ones do
    c = _shifted(y, -2 * shift)
    assert a * c == laurent_mul(a, c)


def test_scalar_arithmetic_past_the_packed_exponents(L3):
    # exponents of any size reach only the operands' origins, Python ints
    v = 2 ** 70
    t = L3.t()
    assert L3.t(v) * (1 + t) == L3.element({v: 1, v + 1: 1})
    assert L3.t(v) + L3.t(v + 3) == L3.element({v: 1, v + 3: 1})
    # a zero known to O(t^k) adds only its precision, however far away
    assert L3.t(v) + L3.element({}, 5) == L3.element({}, 5)
    far = L3.t(-v) + L3.element({}, 5)
    assert far == L3.element({-v: 1}, 5)
    # but a precision 2^32 or more past the lowest exponent has no packed
    # form, and a product or sum with it is refused
    with pytest.raises(ParabolicLabError, match="within 2\\^32"):
        far * t


@st.composite
def laurent_division(draw):
    """(ring, num, den, b): den = z^b*(lead + ...) with a certified nonzero
    lead, num of order >= b; one of them truncated, coefficients exact or
    known to O(t^k)."""
    ring = LaurentRing(_kernel_field(*draw(st.sampled_from(LAURENT_FIELDS))))
    n, b = draw(st.integers(1, 8)), draw(st.integers(0, 2))
    scalar = laurent_scalar(ring)
    zeros = [ring.zero()] * b
    lead = draw(laurent_unit(ring, exact=False))
    nt_num, nt_den = draw(st.sampled_from(
        [(n + b, n + b), (n + b, None), (None, n + b), (n + b, n + b + 2)]))
    den = TruncatedSeries(
        ring, zeros + [lead] + draw(st.lists(scalar, max_size=n)), nt_den)
    num = TruncatedSeries(
        ring, zeros + draw(st.lists(scalar, max_size=n)), nt_num)
    return ring, num, den, b


@given(data=laurent_division())
@settings(max_examples=200, deadline=None)
def test_laurent_division_matches_the_scalar_quotient(data):
    # the packed Newton quotient against the scalar recurrence: the same
    # coefficients below the oracle's precision, and never less precision
    _, num, den, b = data
    try:
        quot = num.divide_exact(den)
    except IndeterminateValuation:  # num meets a zero known to O(t^k) first
        return
    if quot.n_trunc is None:  # num is the exact zero polynomial
        assert quot.order() is math.inf
        return
    oracle = _series_quotient(num.coeffs[b:], den.coeffs[b:], quot.n_trunc)
    for got, want in zip(quot.coeffs, oracle, strict=True):
        assert _prec(got) >= _prec(want)
        assert (got if want.tprec is None else got.clip(want.tprec)) == want


@st.composite
def exact_laurent_pair(draw):
    """(ring, den, quotient): exact polynomials with exact coefficients, den
    of order b with a lead that is often not a monomial in t."""
    ring = LaurentRing(_kernel_field(*draw(st.sampled_from(LAURENT_FIELDS))))
    b = draw(st.integers(0, 2))
    scalar = laurent_scalar(ring, kinds=("zero", "exact"))
    den = TruncatedSeries(ring, [ring.zero()] * b
                          + [draw(laurent_unit(ring, exact=True))]
                          + draw(st.lists(scalar, max_size=4)), None)
    quot = TruncatedSeries(ring, draw(st.lists(scalar, max_size=6)), None)
    return ring, den, quot


@given(data=exact_laurent_pair(), e=st.integers(0, 12), j=st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_exact_laurent_division_is_certified(data, e, j):
    ring, den, want = data
    num = den * want
    quot = num.divide_exact(den)
    assert quot == want
    assert den * quot == num
    # den divides t^j*z^(b+e) in F[t, 1/t][z] only when den is t^k*z^b
    b = den.order()
    if len(den.coeffs) == b + 1 and len(den.coeffs[b].coeffs) == 1:
        return
    with pytest.raises(NotDivisible):
        (num + monomial(ring, ring.t(j), b + e, None)).divide_exact(den)


def test_exact_division_with_coefficients_known_to_o_t_k():
    ring = LaurentRing(F3)
    num = parse_series("(1 + t + O(t^5))*z + (1 + O(t^5))*z^2", ring)
    # every candidate numerator is divisible by a single term
    quot = num.divide_exact(parse_series("(1 + t)*z", ring))
    assert quot.is_exact()
    assert all(c.valuation_lower_bound() >= 0 for c in quot.coeffs)
    assert quot.coeffs == (ring.element({0: 1}, 5),
                           ring.element({0: 1, 1: 2, 2: 1, 3: 2, 4: 1}, 5))
    # divisibility by several terms cannot be decided from such data
    with pytest.raises(IndeterminateValuation):
        num.divide_exact(parse_series("(1 + t)*z + z^2", ring))


# -- reduction and Weierstrass degree --------------------------------------

def test_reduce_and_wideg_drops_positive_valuation():
    ring = LaurentRing(F3)
    s = parse_series("t*z + z^3 + t^2*z^4", ring)
    red, deg = reduce_and_wideg(s)
    assert deg == 3
    assert red.coeff(3) == F3.one()
    assert red.coeff(1) == F3.zero()


def test_reduce_and_wideg_of_a_unit_multiple():
    ring = LaurentRing(F3)
    red, deg = reduce_and_wideg(parse_series("t*z + t^2*z^4", ring))
    assert deg is math.inf
    assert red.order() is math.inf


def test_reduce_and_wideg_truncated_vanishing_is_open():
    ring = LaurentRing(F3)
    red, deg = reduce_and_wideg(parse_series("t*z + t^2*z^4 mod z^9", ring))
    assert deg is None


def test_reduce_and_wideg_refuses_coefficients_without_a_residue():
    ring = LaurentRing(F3)
    with pytest.raises(NonIntegralCoefficient, match=r"^valuation -1 < 0$"):
        reduce_and_wideg(parse_series("z + t^-1*z^2", ring))
    with pytest.raises(IndeterminateValuation,
                       match=r"^reduction of a zero known only to O\(t\^0\)$"):
        reduce_and_wideg(parse_series("z + O(t^0)*z^2", ring))
    # a zero known to O(t^1) has residue 0
    red, deg = reduce_and_wideg(parse_series("z + O(t^1)*z^2", ring))
    assert red == identity(F3, None) and deg == 1


# -- one storage form --------------------------------------------------------

@pytest.mark.parametrize("p, d", [(3, 1), (3, 2), (2 ** 64 + 13, 1)])
def test_finite_field_series_store_the_triple_of_their_constants(p, d):
    # a series over GF(p^d) and its coefficients taken as exact constants
    # over GF(p^d)((t)) store one triple (M, 0, None)
    F = _kernel_field(p, d)
    ring = LaurentRing(F)
    entries = {1: F.one(), 2: F.element([p - 1] * d), 4: F.element([1] * d)}
    for n in (None, 3, 7):
        a = series(F, entries, n)
        b = series(ring, {e: ring.embed(c) for e, c in entries.items()}, n)
        (M, base, tp), (M2, base2, tp2) = a._arr, b._arr
        assert base == base2 == 0 and tp is None and tp2 is None
        assert M.dtype == M2.dtype and np.array_equal(M, M2)
        assert [ring.embed(c) for c in a.coeffs] == list(b.coeffs)


def test_a_precision_array_of_exact_rows_is_stored_as_none():
    ring = LaurentRing(F3)
    want = parse_series("z + (1 + t)*z^2 mod z^4", ring)
    M, base, tp = want._arr
    assert tp is None
    s = TruncatedSeries._from_packed(
        ring, (M, base, formal_series._exact_rows(len(M))), 4)
    assert s._arr[2] is None
    assert s == want and hash(s) == hash(want)


# -- parabolic germs -------------------------------------------------------

def test_germ_reads_multiplier_order():
    g = ParabolicGerm(parse_series("2*z + z^3 mod z^9", F3))
    assert g.q == 2
    assert g.gamma == F3.from_int(2)
    assert g.char == 3


def test_germ_rejects_non_root_multiplier():
    ring = LaurentRing(F3)
    with pytest.raises(NotParabolic):
        ParabolicGerm(parse_series("t*z + z^2", ring))
    with pytest.raises(NonzeroConstantTerm):
        ParabolicGerm(parse_series("1 + z mod z^5", F3))


def test_conjugation_round_trip():
    g = ParabolicGerm(parse_series("z + z^2 + 2*z^3 mod z^12", F3))
    h = parse_series("z + 2*z^2 mod z^12", F3)
    back = g.conjugate(h).conjugate(h.inverse())
    assert (back.series - g.series).order() is None


def test_iterate_caches_nothing_surprising():
    g = ParabolicGerm(parse_series("z + z^2 mod z^16", F2_ := FiniteField(2)))
    f2 = g.iterate(2)
    f4 = g.iterate(4)
    assert ((f2.compose(f2)) - f4).order() is None
