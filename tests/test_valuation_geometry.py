"""Newton polygons, the periodic-point valuation bound, and cycle reports."""

from fractions import Fraction
from itertools import islice
from random import Random

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from parabolic_lab import (
    FiniteField,
    IndeterminateValuation,
    LaurentRing,
    NonIntegralCoefficient,
    ParabolicGerm,
    ParabolicLabError,
    ResitUndefined,
    ScalarRingMismatch,
    TruncationTooSmall,
    UnboundedBound,
    WorkBudgetExceeded,
    cycle_valuations,
    newton_polygon,
    parse_series,
    periodic_valuation_bound,
    reduce_and_wideg,
    series,
)
from parabolic_lab.ramification import _levels, ramification_lower_bound
from parabolic_lab.samplers import random_minimal_polynomial_germ, random_polynomial_germ

from conftest import germ


# -- polygons --------------------------------------------------------------

def test_polygon_of_an_eisenstein_binomial(L3):
    # z^2 - t: both roots have valuation 1/2
    npg = newton_polygon(parse_series("2*t + z^2", L3))
    assert npg.root_valuations() == [(Fraction(1, 2), 2)]
    assert npg.max_positive_root_valuation() == Fraction(1, 2)


def test_polygon_of_a_linear_polynomial(L3):
    npg = newton_polygon(parse_series("2*t + z", L3))
    assert npg.root_valuations() == [(Fraction(1), 1)]


def test_polygon_with_zero_root_segment_only(L3):
    # t*z^2 + z^3 = z^2(t + z): one root of valuation 1, ord-2 zero ignored
    npg = newton_polygon(parse_series("t*z^2 + z^3", L3))
    assert npg.root_valuations() == [(Fraction(1), 1)]
    assert [s["slope"] for s in npg.to_jsonable()["segments"]] == ["-1/1"]


def test_polygon_mixed_hull_drops_interior_points(L3):
    npg = newton_polygon(parse_series("t^3*z + t*z^2 + t^2*z^3 + z^5", L3))
    doc = npg.to_jsonable()
    assert doc["vertices"] == [[1, "3/1"], [2, "1/1"], [5, "0/1"]]
    assert doc["segments"] == [{"slope": "-2/1", "length": 1},
                               {"slope": "-1/3", "length": 3}]
    assert npg.root_valuations() == [(Fraction(2), 1), (Fraction(1, 3), 3)]


def test_polygon_slopes_strictly_increase(L3):
    rng = Random(30)
    field = L3.field
    for _ in range(20):
        entries = {}
        for i in range(rng.randrange(1, 7)):
            if rng.random() < 0.7:
                entries[i] = L3.t(rng.randrange(0, 5)) * L3.embed(
                    field.from_int(rng.randrange(1, 3)))
        if not entries:
            continue
        s = __import__("parabolic_lab").series(L3, entries, None)
        npg = newton_polygon(s)
        slopes = [s_ for s_, _ in npg.segments]
        assert all(a < b for a, b in zip(slopes, slopes[1:]))
        assert sum(l for _, l in npg.segments) == max(entries) - min(entries)


def test_polygon_of_a_product_concatenates(L3):
    rng = Random(31)
    field = L3.field
    def rand_poly():
        while True:
            entries = {i: L3.t(rng.randrange(0, 4)) * L3.embed(
                           field.from_int(rng.randrange(1, 3)))
                       for i in range(rng.randrange(1, 5))
                       if rng.random() < 0.8}
            if entries:
                return __import__("parabolic_lab").series(L3, entries, None)
    for _ in range(15):
        a, b = rand_poly(), rand_poly()
        merged = {}
        for val, cnt in (newton_polygon(a).root_valuations()
                         + newton_polygon(b).root_valuations()):
            merged[val] = merged.get(val, 0) + cnt
        prod = newton_polygon(a * b).root_valuations()
        assert dict(prod) == merged


def test_polygon_rejects_wrong_inputs(F3, L3):
    with pytest.raises(ScalarRingMismatch):
        newton_polygon(parse_series("z + z^2", F3))
    with pytest.raises(TruncationTooSmall):
        newton_polygon(parse_series("t*z + z^2 mod z^5", L3))
    with pytest.raises(ParabolicLabError):
        newton_polygon(__import__("parabolic_lab").zero_series(L3, None))
    fuzzy = __import__("parabolic_lab").series(L3, {1: L3.element({}, 3)}, None)
    with pytest.raises(IndeterminateValuation):
        newton_polygon(fuzzy)


# -- periodic point bounds -------------------------------------------------

def test_desk_bound_at_each_level(L3):
    f = germ("z + t*z^2 + z^3", L3)
    b0 = periodic_valuation_bound(f, 0)
    assert b0.branch == "fixed-point"
    assert b0.bound_valuation == Fraction(1)
    assert b0.equality_condition_holds == "yes"
    assert b0.details == {"i0": 1, "v_delta0": 1, "wideg": 3,
                          "expected_wideg": 3}
    for n in (1, 2):
        b = periodic_valuation_bound(f, n)
        assert b.branch == "p-odd"
        assert b.bound_valuation == Fraction(1, 3)
        assert b.equality_condition_holds == "no"
        assert b.details["v_resit"] == -2


def test_char_two_bounds_split_by_level(L2):
    f = germ("z + t*z^2 + t^3*z^3", L2)
    b1 = periodic_valuation_bound(f, 1)
    assert b1.branch == "p2-n1"
    assert b1.bound_valuation == Fraction(1)
    b2 = periodic_valuation_bound(f, 2)
    assert b2.branch == "p2-n-ge2"
    assert b2.bound_valuation == Fraction(5, 4)
    assert b2.details["v_resit_times_complement"] == 1
    # a_1 = 1 + t: v(resit) = 70 is read off a_1^2 - a_2 = t^70, beyond the
    # 64 terms to which 1/a_1^2 would be expanded
    g = germ("z + (1 + t)*z^2 + (1 + t^2 + t^70)*z^3", L2)
    assert periodic_valuation_bound(g, 1).details["v_resit"] == 70
    b2 = periodic_valuation_bound(g, 2)
    assert b2.details["v_resit_times_complement"] == 70
    assert b2.bound_valuation == Fraction(35, 2)


def test_vanishing_residue_gives_no_bound(L3, L2, L5):
    with pytest.raises(UnboundedBound):
        periodic_valuation_bound(germ("z + z^2 + z^3", L3), 1)
    # resit = 0 with a_1 not a monomial in t, at both levels
    for text, ring in (("z + (1 + t)*z^2 + (1 + 2*t + t^2)*z^3", L3),
                       ("z + (2 + t)*z^2 + (4 + 4*t + t^2)*z^3", L5),
                       ("z + (1 + t)*z^2 + (1 + t^2)*z^3", L2)):
        for n in (1, 2):
            with pytest.raises(UnboundedBound):
                periodic_valuation_bound(germ(text, ring), n)
    # characteristic 2 at n >= 2 also loses the bound at resit = 1
    with pytest.raises(UnboundedBound):
        periodic_valuation_bound(germ("z + t*z^2", L2), 2)


def test_level_zero_jump_must_equal_q(L3):
    with pytest.raises(ResitUndefined):
        periodic_valuation_bound(germ("z + z^3", L3), 1)
    with pytest.raises(ResitUndefined):
        periodic_valuation_bound(germ("z", L3), 1)


def test_equality_verdict_degrades_to_indeterminate_past_budget(L3):
    # level 3 is decided on exact germs; level 4 passes the kernel's limit
    for f in (random_minimal_polynomial_germ(Random(11), L3, 1),
              germ("z + t*z^2 + z^3", L3)):
        assert periodic_valuation_bound(f, 3).equality_condition_holds == "no"
        b = periodic_valuation_bound(f, 4)
        assert b.bound_valuation == Fraction(1, 3)
        assert b.equality_condition_holds == "indeterminate"
        assert "work limit" in b.details["indeterminate_reason"]


def test_level_zero_holds_past_the_equality_window(L3):
    # from n = 8 the equality window of the desk germ is over the work
    # limit; level zero is read below z^(q+2), so the bound still stands
    b = periodic_valuation_bound(germ("z + t*z^2 + z^3", L3), 8)
    assert b.bound_valuation == Fraction(1, 3)
    assert b.equality_condition_holds == "indeterminate"
    assert "work limit" in b.details["indeterminate_reason"]


def test_bound_is_n_independent_for_odd_p(L3):
    rng = Random(11)
    f = random_minimal_polynomial_germ(rng, L3, 1)
    values = {periodic_valuation_bound(f, n).bound_valuation for n in (1, 2, 3)}
    assert len(values) == 1
    assert values.pop() == Fraction(1, 3)
    # v(resit) = 70 with a_1 = 1 + t, beyond a truncated 1/a_1^2
    g = germ("z + (1 + t)*z^2 + (1 + 2*t + t^2 + 2*t^70)*z^3", L3)
    values = {periodic_valuation_bound(g, n).bound_valuation for n in (1, 2, 3)}
    assert values == {Fraction(70, 3)}


def test_bound_json_document(L3):
    doc = periodic_valuation_bound(germ("z + t*z^2 + z^3", L3), 1).to_jsonable()
    assert doc == {
        "n": 1, "bound_valuation": "1/3", "branch": "p-odd",
        "equality_condition_holds": "no",
        "details": {"i0": 1, "v_delta0": 1, "v_resit": -2, "i_n": 4,
                    "i_prev": 1, "wideg": "beyond-truncation",
                    "expected_wideg": 6}}


def test_bound_on_truncated_desk_germs(L3):
    def bound(k, n):
        return periodic_valuation_bound(
            germ(f"z + t*z^2 + z^3 mod z^{k}", L3), n).to_jsonable()

    with pytest.raises(TruncationTooSmall):
        bound(2, 0)  # the window does not reach z^2
    with pytest.raises(TruncationTooSmall):
        bound(3, 1)  # nor the reduced pair's z^3
    b = bound(3, 0)
    assert b["equality_condition_holds"] == "indeterminate"
    assert b["details"]["wideg"] == "beyond-truncation"
    b = bound(5, 1)
    assert b["equality_condition_holds"] == "indeterminate"
    assert (b["details"]["indeterminate_reason"]
            == "a jump index lies beyond the window")
    # a window past the equality test's reads the exact germ's verdict
    exact = germ("z + t*z^2 + z^3", L3)
    for k, n in ((10, 1), (30, 2)):
        assert bound(k, n) == periodic_valuation_bound(exact, n).to_jsonable()
    # i_0 > q is certified once the window reaches z^(q + 2)
    with pytest.raises(ResitUndefined):
        periodic_valuation_bound(germ("z + z^3 mod z^3", L3), 1)


def test_bound_documents_of_the_quadratic_family(L3):
    # z + (a + b*t)*z^2 at levels 1 and 2, pinned to the documents of the
    # quotient expanded to DEFAULT_TPREC; for a, b != 0 its divisor's lead
    # is not a monomial in t
    for a in range(3):
        for b in range(3):
            if (a, b) == (0, 0):
                continue
            f = germ(f"z + ({a} + {b}*t)*z^2", L3)
            v = 0 if a else 1
            for n, i_n, i_prev in ((1, 4, 1), (2, 13, 4)):
                assert periodic_valuation_bound(f, n).to_jsonable() == {
                    "n": n, "bound_valuation": f"{v}/1", "branch": "p-odd",
                    "equality_condition_holds": "no",
                    "details": {
                        "i0": 1, "v_delta0": v, "v_resit": 0, "i_n": i_n,
                        "i_prev": i_prev,
                        "wideg": 3 ** n if a else "beyond-truncation",
                        "expected_wideg": i_n - i_prev + 3 ** n}}


@st.composite
def bound_quotient_operands(draw):
    """(num, den) of the bound's equality case at level n = 1 or 2 for an
    integral germ z + c2*z^2 + c3*z^3 exact in t over Laurent(GF(p)), p in
    {2, 3, 5}, in the bound's window; the divisor's lead is not a monomial
    in t.  Over GF(5) the coefficients have t-degree at most 2, since the
    level-2 tower mod z^59 grows with them past a second."""
    p, n = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 2))
    ring = LaurentRing(FiniteField(p))
    top = 1 if p == 5 else 2

    def poly(lowest):
        cs = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=top))
        return ring.element({draw(st.integers(0, top)) + i: c
                             for i, c in enumerate([lowest] + cs)})

    f = series(ring, {1: 1, 2: poly(draw(st.integers(1, p - 1))),
                      3: poly(draw(st.integers(0, p - 1)))}, None)
    W = ramification_lower_bound(p, 1, n) + p ** n + 3
    den, num = islice(_levels(f.truncate(W), 1), n - 1, n + 1)
    b = den.order()
    assume(isinstance(b, int) and len(den.coeff(b).coeffs) > 1)
    return num, den


@given(ops=bound_quotient_operands())
@settings(max_examples=100, deadline=None)
def test_bound_quotient_is_expanded_to_its_residue(ops):
    # the residue-precision quotient knows every row to t^1 at least, agrees
    # with the full one below its own precision, and has its reduction
    num, den = ops
    full, quot = num.divide_exact(den), num.divide_exact(den, _residue=True)
    for c, want in zip(quot.coeffs, full.coeffs, strict=True):
        assert c.tprec is None or c.tprec >= 1
        assert c == (want if c.tprec is None else want.clip(c.tprec))
    assert reduce_and_wideg(quot) == reduce_and_wideg(full)


# -- cycle reports ---------------------------------------------------------

def test_desk_cycle_report_fixed_points(L3):
    rep = cycle_valuations(germ("z + t*z^2 + z^3", L3), 0)
    doc = rep.to_jsonable()
    assert doc == {
        "n": 0, "q": 1, "m": 1,
        "polygon": {"vertices": [[1, "1/1"], [2, "0/1"]],
                    "segments": [{"slope": "-1/1", "length": 1}]},
        "root_valuations": [{"valuation": "1/1", "count": 1}],
        "max_positive": "1/1", "lemma_bound": "1/1", "attained": True,
        "wideg": 3, "expected_wideg": 3, "equality_condition_holds": "yes",
        "cycle_points": 1, "expected_cycle_points": 1}


def test_desk_cycle_report_period_three(L3):
    rep = cycle_valuations(germ("z + t*z^2 + z^3", L3), 1)
    doc = rep.to_jsonable()
    assert doc["polygon"]["vertices"] == [[3, "1/1"], [24, "0/1"]]
    assert doc["root_valuations"] == [{"valuation": "1/21", "count": 21}]
    assert doc["lemma_bound"] == "1/3"
    assert doc["attained"] is False
    assert doc["wideg"] == 24 and doc["expected_wideg"] == 6
    assert doc["equality_condition_holds"] == "no"
    assert doc["cycle_points"] is None


def test_cycle_quotient_over_a_non_monomial_lead_is_exact(L2):
    # f - z has lead 1 + t: the quotient (f^2 - z)/(f - z) is exact in
    # F_2[t][z], so its polygon is defined; sympy re-multiplies it
    f = germ("z + (1 + t)*z^2 + (1 + t)*z^3", L2)
    den, num = islice(_levels(f.series, 1), 2)
    quot = num.divide_exact(den)
    assert all(c.is_exact() and c.valuation_lower_bound() >= 0
               for c in quot.coeffs)
    t, z = sympy.symbols("t z")

    def as_poly(s):
        return sympy.Poly(sum(e.coords[0] * t ** (c.v0 + k) * z ** i
                              for i, c in enumerate(s.coeffs)
                              for k, e in enumerate(c.coeffs)), t, z,
                          modulus=2)

    assert as_poly(den) * as_poly(quot) == as_poly(num)
    assert cycle_valuations(f, 1).root_valuations() == [(Fraction(1, 4), 4)]


def test_cycle_report_over_a_non_monomial_lead(L3):
    # pinned to the report of the scalar division it replaced
    doc = cycle_valuations(germ("z + (1 + t)*z^2 + z^3", L3), 1).to_jsonable()
    assert doc == {
        "n": 1, "q": 1, "m": 3,
        "polygon": {"vertices": [[3, "1/1"], [12, "0/1"], [24, "0/1"]],
                    "segments": [{"slope": "-1/9", "length": 9},
                                 {"slope": "0/1", "length": 12}]},
        "root_valuations": [{"valuation": "1/9", "count": 9},
                            {"valuation": "0/1", "count": 12}],
        "max_positive": "1/9", "lemma_bound": "1/3", "attained": False,
        "wideg": 12, "expected_wideg": 6, "equality_condition_holds": "no",
        "cycle_points": None, "expected_cycle_points": 3}


def _assert_same_equality_case(f, rep):
    """The level-1 bound reads its jumps in a window, the cycle report on the
    full iterates; wherever the window decides, both read the same tower."""
    try:
        bound = periodic_valuation_bound(f, 1)
    except (UnboundedBound, ResitUndefined):
        return
    if bound.equality_condition_holds != "indeterminate":
        assert bound.details["expected_wideg"] == rep.expected_wideg
        assert bound.equality_condition_holds == rep.equality_condition_holds


def test_cycle_soundness_on_sampled_polynomials(L3):
    # every strictly positive root valuation obeys the bound
    rng = Random(21)
    for _ in range(6):
        f = random_polynomial_germ(rng, L3, 1, degree=2)
        try:
            rep = cycle_valuations(f, 1)
            bound = periodic_valuation_bound(f, 1)
        except (UnboundedBound, ResitUndefined):
            continue
        for val, _ in rep.root_valuations():
            if val > 0:
                assert val <= bound.bound_valuation
        assert rep.lemma_bound == bound.bound_valuation
        _assert_same_equality_case(f, rep)


def test_cycle_attained_flag_matches_equality_verdict(L3, L2):
    rng = Random(22)
    seen = 0
    for ring, q in ((L3, 1), (L2, 1)):
        for _ in range(6):
            f = random_polynomial_germ(rng, ring, q, degree=2)
            try:
                rep = cycle_valuations(f, 1)
            except (UnboundedBound, ResitUndefined):
                continue
            _assert_same_equality_case(f, rep)
            if rep.equality_condition_holds == "indeterminate":
                continue
            assert rep.attained == (rep.equality_condition_holds == "yes")
            seen += 1
    assert seen >= 4


def test_cycle_rejects_non_polynomial_and_non_integral(L3):
    with pytest.raises(TruncationTooSmall):
        cycle_valuations(germ("z + t*z^2 + z^3 mod z^9", L3), 1)
    with pytest.raises(NonIntegralCoefficient):
        cycle_valuations(germ("z + t^-1*z^2", L3), 0)


def test_cycle_rejects_oversized_requests(L2, L3):
    f = germ("z + t*z^2 + z^3", L3)
    with pytest.raises(WorkBudgetExceeded, match="work limit"):
        cycle_valuations(f, 2)  # an iterate of degree 3^9
    # an iterate of degree 2^8 stays under the limit
    rep = cycle_valuations(germ("z + (1 + t)*z^2", L2), 3)
    assert (rep.m, rep.wideg, rep.equality_condition_holds) == (8, 240, "no")
