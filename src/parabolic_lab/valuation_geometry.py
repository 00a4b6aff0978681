"""Newton polygons over Laurent coefficient fields and periodic point bounds.

The norm of a small periodic point is read off a polygon slope, never from the
point itself: a lower-hull segment of slope -s and horizontal length L
certifies exactly L roots of valuation s in an algebraic closure.  That is all
the valuation theory the bounds need, so roots are never constructed.

Two consumers sit on top.  periodic_valuation_bound evaluates the closed bound
formulas (a case split on the characteristic and the level) for any germ over
the valuation ring, truncated or not.  cycle_valuations demands an exact
polynomial germ, builds the quotient (f^(q p^n)(z) - z) / (f^(q p^(n-1))(z) - z)
by certified division, and returns the full root-valuation multiset of its
polygon together with an equality report: whether the largest positive root
valuation attains the bound v(delta_n/delta_(n-1)) / (q p^n), and whether the
Weierstrass degree of the reduced quotient sits at its minimal possible value
i_n - i_(n-1) + q p^n.  The two flags agree on every instance we have ever
sampled; the test suite asserts exactly that.

Both reports read their iterates f^(q p^n)(z) - z and jumps from one tower,
the one ramification_profile walks: each level is p more turns of the level
below it, so the level-n pair costs one tower up to n and nothing is iterated
twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .coeff_rings import LaurentRing
from .errors import (
    IndeterminateValuation,
    NonIntegralCoefficient,
    NonIntegralGerm,
    ParabolicLabError,
    ResitUndefined,
    ScalarRingMismatch,
    TruncationTooSmall,
    UnboundedBound,
    WorkBudgetExceeded,
)
from .formal_series import (
    ParabolicGerm,
    TruncatedSeries,
    identity,
    reduce_and_wideg,
)
from .literals import fraction_to_str, index_to_jsonable
from .ramification import (
    _jump,
    _levels,
    _resit_numerators,
    _resit_pair,
    ramification_lower_bound,
)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass
class NewtonPolygon:
    """Lower convex hull of {(i, v(a_i))} with its segment decomposition.

    Segment slopes strictly increase left to right; collinear support points
    are merged into one segment.  Horizontal lengths sum to deg - ord.
    """

    vertices: list
    segments: list

    def root_valuations(self):
        """(valuation, multiplicity) pairs, one per segment, valuations
        strictly decreasing."""
        return [(-s, length) for s, length in self.segments]

    def positive_root_valuations(self):
        return [(v, length) for v, length in self.root_valuations() if v > 0]

    def max_positive_root_valuation(self):
        pos = self.positive_root_valuations()
        return pos[0][0] if pos else None

    def to_jsonable(self):
        return {
            "vertices": [[i, fraction_to_str(v)] for i, v in self.vertices],
            "segments": [{"slope": fraction_to_str(s), "length": length}
                         for s, length in self.segments],
        }


def newton_polygon(poly: TruncatedSeries) -> NewtonPolygon:
    """Polygon of an exact polynomial with Laurent series coefficients.

    Coefficients that are zero only to stored t-precision have no known
    valuation and poison the hull, hence IndeterminateValuation; certified
    zeros simply contribute no point.
    """
    return terms_polygon(poly.ring, enumerate(poly.coeffs), poly.n_trunc)


def terms_polygon(ring, terms, n_trunc) -> NewtonPolygon:
    """newton_polygon of the sum of c*z^i over the (i, c) of terms, in
    increasing i, taken mod z^n_trunc (exact for None).  It reads the terms
    themselves, so a polynomial whose coefficients lie 2^32 or more apart in
    t, too far for the one t-frame a series is stored in, has a polygon
    too."""
    if not isinstance(ring, LaurentRing):
        raise ScalarRingMismatch("Newton polygons need Laurent series coefficients")
    if n_trunc is not None:
        raise TruncationTooSmall(
            "Newton polygons need an exact polynomial, not a truncated series")
    pts = [(i, Fraction(c.valuation())) for i, c in terms
           if not c.is_certified_zero()]
    if not pts:
        raise ParabolicLabError("the zero polynomial has no Newton polygon")
    hull = []
    for pt in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)
    segments = [(Fraction(y1 - y0, x1 - x0), x1 - x0)
                for (x0, y0), (x1, y1) in zip(hull, hull[1:])]
    return NewtonPolygon(vertices=hull, segments=segments)


@dataclass
class BoundCertificate:
    """One evaluated case of the periodic point valuation bound.

    Any point of minimal period q p^n in the maximal ideal has valuation at
    most bound_valuation.  branch names the formula used;
    equality_condition_holds reports the minimal-Weierstrass-degree test as
    "yes", "no", or "indeterminate" when the window cannot decide it.
    """

    n: int
    bound_valuation: Fraction
    branch: str
    equality_condition_holds: str
    details: dict

    def to_jsonable(self):
        return {
            "n": self.n,
            "bound_valuation": fraction_to_str(self.bound_valuation),
            "branch": self.branch,
            "equality_condition_holds": self.equality_condition_holds,
            "details": self.details,
        }


def _level_zero_jump(s: TruncatedSeries, q: int):
    """(s^q - z, i_0, delta_0) with i_0 = q enforced."""
    diff = next(_levels(s, q))
    i0, delta0 = _jump(diff)
    if i0 is math.inf:
        raise ResitUndefined("f^q is the identity; there is no level-zero jump")
    if i0 is None:
        if diff.n_trunc >= q + 2:
            raise ResitUndefined(f"i_0(f^q) exceeds q = {q}")
        raise TruncationTooSmall(f"the window does not reach z^{q + 1}")
    if i0 != q:
        raise ResitUndefined(f"i_0(f^q) = {i0}; the bounds need i_0 = q = {q}")
    return diff, i0, delta0


def _wideg_verdict(wideg, expected: int, window: int | None):
    if wideg is None:
        # vanishing through the window still bounds the degree from below
        if window is not None and window > expected:
            return "no"
        return "indeterminate"
    return "yes" if wideg == expected else "no"


def periodic_valuation_bound(f: ParabolicGerm, n: int) -> BoundCertificate:
    """The bound on points of minimal period q p^n, for a germ over the
    valuation ring (NonIntegralGerm otherwise), with its equality case.

    For n >= 1 the equality case reads only the reduction mod t of Q =
    (f^(q p^n) - z)/(f^(q p^(n-1)) - z) in a window of W rows.  With L =
    W - (i_(n-1) + 1) rows of Q and v the valuation of its divisor's lead,
    a lead inverse of relative precision r = min(DEFAULT_TPREC, 1 + L*v)
    knows every row of Q to at least t^1 when the germ is exact in t: row m
    of the reciprocal has valuation >= -(m+1)v and is known below
    r - (m+1)v, and the numerator is integral.  So Q is expanded in t only
    that far (divide_exact's _residue), and its reduction and Weierstrass
    degree are those of the DEFAULT_TPREC expansion.  A germ with a
    coefficient known only to O(t^k) keeps the full expansion."""
    if not isinstance(f.ring, LaurentRing):
        raise ScalarRingMismatch("periodic point bounds live over a Laurent ring")
    if n < 0:
        raise ParabolicLabError(f"level must be >= 0, got {n}")
    _require_integral(f.series, NonIntegralGerm)
    q, p = f.q, f.char
    s = f.series
    if n:
        # i_0 and delta_0 lie below z^(q+2); the exact f^q of a germ of
        # high degree may be past the kernel's work limit
        s = s.truncate(min(q + 2, s.n_trunc or q + 2))
    base_diff, i0, delta0 = _level_zero_jump(s, q)
    vd0 = delta0.valuation()
    details = {"i0": i0, "v_delta0": vd0}

    if n == 0:
        branch = "fixed-point"
        bound = Fraction(vd0, q)
    else:
        # v(resit) and v(1 - resit) from the numerators over c^(q+1)/q
        c, s_q = _resit_pair(f)
        m, m1 = _resit_numerators(q, c ** (q + 1), s_q)
        vc = (q + 1) * c.valuation()
        if p == 2 and n >= 2:
            branch = "p2-n-ge2"
            if m.is_certified_zero() or m1.is_certified_zero():
                raise UnboundedBound(
                    "resit in {0, 1} gives no information in characteristic 2")
            v_term = m.valuation() + m1.valuation() - 2 * vc
            details["v_resit_times_complement"] = v_term
            bound = Fraction(vd0, q) + Fraction(v_term, 4 * q)
        else:
            branch = "p-odd" if p != 2 else "p2-n1"
            if m.is_certified_zero():
                raise UnboundedBound("resit = 0 gives no information")
            v_term = m.valuation() - vc
            details["v_resit"] = v_term
            bound = Fraction(vd0, q) + Fraction(v_term, q * p)

    try:
        if n == 0:
            expected = i0 + q + 1
            red, wideg = reduce_and_wideg(base_diff)
        else:
            # The Weierstrass degree test only looks below i_n + q*p^n + 1,
            # so it runs in a window sized for a germ with minimal jumps
            # rather than on full iterates.  Past the kernel's work limit
            # the verdict is an honest "indeterminate" (the bound itself is
            # already final).
            W = ramification_lower_bound(p, q, n) + q * p ** n + q + 2
            W = min(W, f.series.n_trunc or W)
            den, num = islice(_levels(f.series.truncate(W), q), n - 1, n + 1)
            i_n, _ = _jump(num)
            i_prev, _ = _jump(den)
            if not (isinstance(i_n, int) and isinstance(i_prev, int)):
                raise TruncationTooSmall("a jump index lies beyond the window")
            details["i_n"] = i_n
            details["i_prev"] = i_prev
            expected = i_n - i_prev + q * p ** n
            red, wideg = reduce_and_wideg(num.divide_exact(den, _residue=True))
        details["wideg"] = index_to_jsonable(wideg)
        details["expected_wideg"] = expected
        verdict = _wideg_verdict(wideg, expected, red.n_trunc)
    except (TruncationTooSmall, IndeterminateValuation,
            WorkBudgetExceeded) as e:
        verdict = "indeterminate"
        details["indeterminate_reason"] = str(e)

    return BoundCertificate(n=n, bound_valuation=bound, branch=branch,
                            equality_condition_holds=verdict, details=details)


@dataclass
class CycleReport:
    """Root-valuation multiset of the period-(q p^n) quotient plus the
    equality case analysis."""

    n: int
    q: int
    m: int
    polygon: NewtonPolygon
    lemma_bound: Fraction
    max_positive: Fraction | None
    attained: bool
    wideg: object
    expected_wideg: int
    equality_condition_holds: str
    cycle_points: int | None
    expected_cycle_points: int

    def root_valuations(self):
        return self.polygon.root_valuations()

    def to_jsonable(self):
        return {
            "n": self.n,
            "q": self.q,
            "m": self.m,
            "polygon": self.polygon.to_jsonable(),
            "root_valuations": [
                {"valuation": fraction_to_str(v), "count": c}
                for v, c in self.polygon.root_valuations()],
            "max_positive": None if self.max_positive is None
                else fraction_to_str(self.max_positive),
            "lemma_bound": fraction_to_str(self.lemma_bound),
            "attained": self.attained,
            "wideg": index_to_jsonable(self.wideg),
            "expected_wideg": self.expected_wideg,
            "equality_condition_holds": self.equality_condition_holds,
            "cycle_points": self.cycle_points,
            "expected_cycle_points": self.expected_cycle_points,
        }


def _require_integral(s: TruncatedSeries, error=NonIntegralCoefficient):
    for i, c in enumerate(s.coeffs):
        if c.valuation_lower_bound() < 0:
            raise error(f"coefficient of z^{i} has negative valuation")


def cycle_valuations(f: ParabolicGerm, n: int) -> CycleReport:
    """Exact root-valuation multiset for points of period dividing q p^n.

    Only polynomial germs are accepted: the polygon needs exact coefficient
    valuations and the big iterate must be computed without truncation.  Its
    degree is d^(q p^n); an iterate or quotient whose packed product would
    pass the kernel's work limit raises WorkBudgetExceeded.

    The germ must be integral (NonIntegralGerm otherwise).  The divisor
    f^(q p^(n-1))(z) - z (just z at level zero) is certified to divide with
    an integral quotient; failure of either raises, since both are theorems
    for germs over the valuation ring.
    """
    if not isinstance(f.ring, LaurentRing):
        raise ScalarRingMismatch("cycle valuations live over a Laurent ring")
    if n < 0:
        raise ParabolicLabError(f"level must be >= 0, got {n}")
    s = f.series
    if s.n_trunc is not None:
        raise TruncationTooSmall("cycle valuations need an exact polynomial germ")
    if s.degree() < 2:
        raise ParabolicLabError("a linear germ has no nonlinear periodic structure")
    _require_integral(s, NonIntegralGerm)
    q, p = f.q, f.char
    m = q * p ** n

    if n == 0:
        num = next(_levels(s, q))
        den = identity(s.ring, None)
        i_prev, v_prev = 0, 0
    else:
        den, num = islice(_levels(s, q), n - 1, n + 1)
        i_prev, delta_prev = _jump(den)
        v_prev = delta_prev.valuation()
    i_n, delta_n = _jump(num)
    v_n = delta_n.valuation()
    lemma_bound = Fraction(v_n - v_prev, m)

    quot = num.divide_exact(den)
    _require_integral(quot)

    polygon = newton_polygon(quot)
    max_pos = polygon.max_positive_root_valuation()
    attained = max_pos == lemma_bound

    expected = (i_n + q + 1) if n == 0 else (i_n - i_prev + m)
    target = num if n == 0 else quot
    try:
        _, wideg = reduce_and_wideg(target)
        verdict = _wideg_verdict(wideg, expected, None)
    except IndeterminateValuation:
        wideg, verdict = None, "indeterminate"

    cycle_points = None
    if attained and verdict == "yes":
        cycle_points = sum(c for v, c in polygon.root_valuations()
                           if v == lemma_bound)
    return CycleReport(
        n=n, q=q, m=m, polygon=polygon, lemma_bound=lemma_bound,
        max_positive=max_pos, attained=attained, wideg=wideg,
        expected_wideg=expected, equality_condition_holds=verdict,
        cycle_points=cycle_points, expected_cycle_points=m)
