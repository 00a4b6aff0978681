"""Parsing and printing of field, scalar, and series literals.

The CLI promise is that everything it prints re-parses to an equal
object, so the round-trip properties here are load-bearing.
"""

import pytest
from hypothesis import given, settings, strategies as st

from parabolic_lab import (
    FiniteField,
    LaurentRing,
    ParseError,
    field_to_str,
    parse_field,
    parse_scalar,
    parse_series,
    series_to_str,
)
from parabolic_lab.literals import MAX_DIGITS, MAX_NESTING


def test_field_round_trip():
    for text in ["GF(2)", "GF(3)", "GF(5)", "Laurent(GF(3))"]:
        f = parse_field(text)
        assert field_to_str(f) == text
        assert parse_field(field_to_str(f)) is not None


def test_extension_field_round_trip():
    f = FiniteField(3, 2)
    text = field_to_str(f)
    g = parse_field(text)
    assert g.p == 3 and g.d == 2 and g.modulus == f.modulus


@pytest.mark.parametrize("bad", ["GF()", "gf(3)", "Laurent(3)"])
def test_field_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_field(bad)


def test_field_parse_checks_semantics_after_grammar():
    from parabolic_lab import CompositeP
    with pytest.raises(CompositeP):
        parse_field("GF(4)")


@pytest.mark.parametrize("text,pos", [
    ("z + + z^2", 4),
    ("w + z^2", 0),
    ("z + 4x*z^2", 5),
    ("", 0),
    ("z mod", 5),
])
def test_series_parse_error_positions(text, pos):
    F3 = parse_field("GF(3)")
    with pytest.raises(ParseError) as exc:
        parse_series(text, F3)
    assert f"position {pos}" in str(exc.value)


def test_nesting_is_read_to_the_limit_and_refused_past_it():
    F3 = parse_field("GF(3)")
    k = MAX_NESTING
    assert parse_scalar("(" * k + "2" + ")" * k, F3) == F3.from_int(2)
    with pytest.raises(ParseError, match=f"position {k}\\)"):
        parse_scalar("(" * (k + 1) + "2" + ")" * (k + 1), F3)
    # the depth is that of the open parentheses, not a count of them all
    assert parse_scalar(" + ".join(["(" * k + "1" + ")" * k] * 4), F3) == (
        F3.from_int(1))


def test_integers_are_read_to_the_digit_limit_and_refused_past_it():
    F3 = parse_field("GF(3)")
    assert parse_scalar("1" + "0" * (MAX_DIGITS - 1), F3) == F3.from_int(1)
    with pytest.raises(ParseError, match=f"{MAX_DIGITS + 1} digits is longer "
                                         f"than {MAX_DIGITS} .at position 4"):
        parse_series("z + " + "1" * (MAX_DIGITS + 1) + "*z^2", F3)


@pytest.mark.parametrize("digit", ["²", "①"])
@pytest.mark.parametrize("parse,text,ring", [
    (parse_series, "z + z^{}", "GF(3)"),
    (parse_series, "z + {}*z^2 mod z^9", "GF(3)"),
    (parse_series, "z + z^2 mod z^{}", "GF(3)"),
    (parse_scalar, "1 + {}", "GF(3)"),  # a --coeffs value
    (parse_field, "GF(3,2;modulus=1,{},2)", None),
    (parse_scalar, "t^{} + O(t^5)", "Laurent(GF(3))"),
    (parse_scalar, "t + O(t^{})", "Laurent(GF(3))"),
], ids=["exponent", "coefficient", "window", "coeffs", "modulus", "t-power",
        "precision"])
def test_digits_int_cannot_read_are_refused(digit, parse, text, ring):
    # str.isdigit() takes superscripts and circled digits, int() does not
    text = text.format(digit)
    args = (text,) if ring is None else (text, parse_field(ring))
    pos = text.index(digit)
    with pytest.raises(ParseError, match=f"unexpected character '{digit}' "
                                         f"\\(at position {pos}\\)"):
        parse(*args)


def test_fullwidth_and_arabic_indic_digits_read_as_integers():
    assert parse_field("GF(\uff13)") == FiniteField(3)
    F5 = parse_field("GF(5)")
    assert series_to_str(parse_series("z + \u0662*z^\u0663", F5)) == (
        "z + 2*z^3")


def test_t_requires_laurent_coefficients():
    with pytest.raises(ParseError):
        parse_series("t*z^2", parse_field("GF(3)"))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_series_round_trip_over_finite_field(data):
    F5 = FiniteField(5)
    import math
    cs = data.draw(st.lists(st.integers(0, 4), min_size=0, max_size=7))
    window = data.draw(st.one_of(st.none(),
                                 st.integers(max(1, len(cs)), len(cs) + 4)))
    s = __import__("parabolic_lab").series(
        F5, {i: F5.from_int(c) for i, c in enumerate(cs)}, window)
    again = parse_series(series_to_str(s), F5)
    assert again.n_trunc == s.n_trunc
    assert (again - s).order() in (None, math.inf)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_scalar_round_trip_over_laurent_ring(data):
    ring = LaurentRing(FiniteField(3))
    v = data.draw(st.integers(-4, 4))
    cs = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=5))
    s = ring.element({v + i: ring.field.from_int(c)
                      for i, c in enumerate(cs)}, None)
    text = str(s)
    again = parse_scalar(text, ring)
    assert (again - s).is_certified_zero()


def test_laurent_series_round_trip():
    ring = parse_field("Laurent(GF(3))")
    for text in ["z + t*z^2 + z^3",
                 "z + (1 + 2*t + t^2)*z^2 + (1 + 2*t + 2*t^2)*z^3",
                 "t^-1*z + z^2 mod z^5",
                 "2*z + (t^-2 + 1)*z^4"]:
        s = parse_series(text, ring)
        assert series_to_str(s) == text


def test_printing_uses_mod_suffix_only_when_truncated():
    F3 = parse_field("GF(3)")
    assert series_to_str(parse_series("z + z^2", F3)) == "z + z^2"
    assert series_to_str(parse_series("z + z^2 mod z^6", F3)) == "z + z^2 mod z^6"
