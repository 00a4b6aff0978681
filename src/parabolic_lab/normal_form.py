"""Conjugation of a parabolic germ to its reduced multiplier form.

A germ f = gamma*z*(1 + c_1 z + c_2 z^2 + ...) whose multiplier gamma has
finite order q can be conjugated so that only exponents congruent to 1 mod q
survive.  The conjugator h is tangent to the identity and is assembled one
degree at a time from elementary moves z -> z*(1 + B z^ell): at each degree
ell not divisible by q the residual coefficient A of z^(ell+1) is cleared by
choosing B = -A / (gamma^ell - 1), and degrees divisible by q are left alone
(they carry the surviving coefficients a_j).  Every division is by the unit
gamma^ell - 1, so integral Laurent coefficients stay integral.  The inverse
of a move has a closed form (see _move_inverse), so no Newton iteration is
needed.

The resulting pair (a_1, a_2) feeds the genericity value m_q here.  The
minimality criterion and resit in ramification read the same invariant off
one residue of f^q instead; the pair is the test oracle of that route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParabolicLabError, TruncationTooSmall
from .formal_series import ParabolicGerm, TruncatedSeries, identity, series
from .ramification import _resit_numerators


def _move_inverse(ring, B, ell: int, N: int) -> TruncatedSeries:
    """The compositional inverse of z + B*z^(ell+1) modulo z^N.

    By Lagrange inversion its coefficient of z^(ell*j+1) is (-B)^j times the
    Fuss-Catalan number C((ell+1)*j, j)/(ell*j + 1), and every other
    coefficient beyond z vanishes.  Those numbers are integers, so the
    formula holds in every characteristic.
    """
    entries = {1: ring.one()}
    power = ring.one()
    for j in range(1, (N - 2) // ell + 1):
        power = power * -B
        count = math.comb((ell + 1) * j, j) // (ell * j + 1)
        entries[ell * j + 1] = ring.from_int(count) * power
    return series(ring, entries, N)


@dataclass
class NormalFormResult:
    """Outcome of the clearing algorithm.

    h is tangent to the identity (h(0) = 0, h'(0) = 1) and satisfies
    h o f == g o h modulo the working truncation; g is supported on exponents
    congruent to 1 mod q; a lists the normalized coefficients a_j, the
    coefficient of z^(j*q+1) in g divided by the multiplier.
    """

    h: TruncatedSeries
    g: TruncatedSeries
    a: list
    gamma: object
    q: int

    def to_jsonable(self):
        from .literals import scalar_to_jsonable, series_to_str

        return {
            "q": self.q,
            "h": series_to_str(self.h),
            "g": series_to_str(self.g),
            "a": [scalar_to_jsonable(c) for c in self.a],
        }


def to_normal_form(f: ParabolicGerm, N: int | None = None) -> NormalFormResult:
    """Bring f to reduced multiplier form modulo z^N.

    Degrees ell = 1, ..., N-2 are processed in order.  A multiplier of order
    one leaves nothing to clear (every degree is a multiple of q), so the
    conjugator stays the identity and g is f itself.  N defaults to 2q + 2,
    the smallest window exposing a_1 and a_2.
    """
    q = f.q
    if N is None:
        N = 2 * q + 2
    if N < 2 * q + 2:
        raise TruncationTooSmall(
            f"reduced form needs a window of at least {2 * q + 2}, got {N}")
    g = f.series.truncate(N)
    gamma = f.gamma
    ring = g.ring
    one = ring.one()
    h = identity(ring, N)
    for ell in range(1, N - 1):
        if ell % q == 0:
            continue
        c = g.coeff(ell + 1)
        if c.is_certified_zero():
            continue
        B = -(c / gamma) / (gamma ** ell - one)
        step = series(ring, {1: one, ell + 1: B}, N)
        g = step.compose(g.compose(_move_inverse(ring, B, ell, N)))
        h = step.compose(h)
        if g.coeff(ell + 1).is_certified_nonzero():  # pragma: no cover
            raise ParabolicLabError(f"clearing failed at degree {ell}")
    for e in range(2, N):
        if (e - 1) % q and g.coeff(e).is_certified_nonzero():  # pragma: no cover
            raise ParabolicLabError(f"residue left at exponent {e}")
    a = [g.coeff(j * q + 1) / gamma for j in range(1, (N - 2) // q + 1)]
    return NormalFormResult(h=h, g=g, a=a, gamma=gamma, q=q)


def reduced_leading_pair(f: ParabolicGerm):
    """The pair (a_1, a_2) of the reduced form of f, from the clearing
    algorithm at the minimal window 2q + 2 (for q = 1 it clears nothing and
    reads the pair off the coefficients of z^2 and z^3)."""
    nf = to_normal_form(f, 2 * f.q + 2)
    return nf.a[0], nf.a[1]


def mq_evaluate(f: ParabolicGerm):
    """The genericity value of f: zero exactly when f is not minimally ramified.

    Evaluated through the reduced form as a_1*m in odd characteristic and
    a_1*m*m' in characteristic two, m and m' being the resit numerators at
    (a_1^2, -a_2) (there m*m' = a_2*(a_1^2 - a_2)).  The value itself is
    the specific representative produced by this clearing algorithm; only
    its vanishing is meaningful.
    """
    a1, a2 = reduced_leading_pair(f)
    m, m1 = _resit_numerators(f.q, a1 * a1, -a2)
    return a1 * m if m1 is None else a1 * m * m1

