"""Closed forms for iterates of reduced germs, with independent oracles.

For g = gamma*z*(1 + a_1 z^q + a_2 z^2q) the iterate g^(q*p^n) is the
identity plus two explicitly known terms sitting at exponents E+1 and E+q+1,
E = q(p^(n+1)-1)/(p-1), and nothing else below E+2q+1.  The two coefficients
chi and xi are polynomial in a_1, a_2 with a three way case split on the
characteristic and the level.  verify_main_lemma recomputes the iterate by
plain composition and compares against them through the whole window.

Two further oracles live here because they are cheap and entirely
independent: the finite difference tower along composition, whose p-th stage
collapses to f^p - z for any f fixing 0, and the power substitution
pi(z) = z^q that intertwines a reduced germ with its pushed forward series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coeff_rings import FiniteField, root_of_unity
from .errors import (
    NonzeroConstantTerm,
    POrderRequested,
    ParabolicLabError,
    TruncationTooSmall,
)
from .formal_series import (
    ParabolicGerm,
    TruncatedSeries,
    count_text,
    identity,
    series,
)
from .literals import field_to_str, scalar_to_jsonable
from .ramification import _resit_numerators, ramification_lower_bound


@dataclass
class ClosedFormPair:
    """The two iterate coefficients chi (at z^(E+1)) and xi (at z^(E+q+1))."""

    chi: object
    xi: object
    p: int
    q: int
    n: int

    def to_jsonable(self):
        return {"p": self.p, "q": self.q, "n": self.n,
                "chi": scalar_to_jsonable(self.chi),
                "xi": scalar_to_jsonable(self.xi)}


def chi_xi(q: int, n: int, a1, a2) -> ClosedFormPair:
    """Evaluate the closed forms at (a1, a2), p being their characteristic.

    Both are polynomials in a1 and the resit numerators m = a1^2*resit and,
    in characteristic two, m' = a1^2*(1 - resit) (_resit_numerators at
    (a1^2, -a2)).  Exponents are computed as plain integers before anything
    is reduced into the field.  In characteristic two the single formula
    below covers every level: at n = 1, m' appears to the power zero.
    """
    if n < 1:
        raise ParabolicLabError(f"level must be >= 1, got {n}")
    rng = a1.ring
    p = rng.char
    if math.gcd(p, q) != 1:
        raise POrderRequested(f"q = {q} must be prime to p = {p}")
    m, m1 = _resit_numerators(q, a1 * a1, -a2)
    if p == 2:
        e = 2 ** (n - 1)
        return ClosedFormPair(a1 * m1 ** (e - 1) * m ** e, (m * m1) ** e,
                              p, q, n)
    r = (p ** n - 1) // (p - 1)
    qs = rng.from_int(q)
    chi = qs * a1 ** (p ** n - r) * m ** r
    xi = -(qs * a1 ** (p ** n - r - 1) * m ** (r + 1))
    return ClosedFormPair(chi, xi, p, q, n)


def iterate_q_closed(gamma, q: int, a1, a2):
    """Coefficients of z^0, z^q, z^2q in g^q / z for reduced g.

    The multiplier drops out after q turns; it is accepted to check its order
    divides q.  The half integer (q^2-1)/2 is exact whenever it needs to be:
    odd q makes it an integer, and odd characteristic can halve.
    """
    rng = a1.ring
    one = rng.one()
    if not (rng(gamma) ** q - one).is_certified_zero():
        raise ParabolicLabError("gamma^q must be 1 for a reduced germ")
    qs = rng.from_int(q)
    c0 = one
    c1 = qs * a1
    c2 = qs * (rng.half(q * q - 1) * a1 * a1 + a2)
    return c0, c1, c2


def ell_iterate_quadratic(ell: int, a, b):
    """Coefficients of z^2 and z^3 in the ell-th iterate of z + a z^2 + b z^3.

    ell(ell-1) is formed as an integer first, so the formula is valid for any
    ell including multiples of the characteristic.
    """
    rng = a.ring
    ls = rng.from_int(ell)
    ms = rng.from_int(ell * (ell - 1))
    return ls * a, ms * a * a + ls * b


def delta_tower(f: TruncatedSeries, m: int) -> TruncatedSeries:
    """The m-th difference along composition: D_1 = f - z, D_m = D_(m-1) o f - D_(m-1).

    Binomial collapse in characteristic p makes D_p equal f^p - z for every f
    fixing the origin, giving an iterate oracle that never composes f with
    itself.
    """
    if m < 1:
        raise ParabolicLabError(f"tower stage must be >= 1, got {m}")
    if not f.coeff(0).is_certified_zero():
        raise NonzeroConstantTerm("the difference tower needs f(0) = 0")
    d = f - identity(f.ring, f.n_trunc)
    for _ in range(m - 1):
        d = d.compose(f) - d
    return d


@dataclass
class SemiconjugacyReport:
    ok: bool
    q: int
    m: int
    window: int | None
    mismatch: int | None

    def to_jsonable(self):
        return {"ok": self.ok, "q": self.q, "m": self.m,
                "window": self.window, "mismatch": self.mismatch}


def semiconj_check(g: ParabolicGerm, m: int) -> SemiconjugacyReport:
    """Check that raising g^m to the q-th power equals pushing forward first.

    With pi(z) = z^q and ghat(w) = w*(1 + sum a_j w^j)^q (g.pushforward())
    the claim is pi o g^m = ghat^m o pi.  The left side is the series power
    of g^m, the right side the stretched iterate of ghat; both are compared
    through the window their truncations support.
    """
    q, s = g.q, g.series
    ghat = g.pushforward()
    lhs = s.iterate(m).power(q)
    rhs = ghat.iterate(m).stretch(q)
    diff = lhs - rhs
    o = diff.order()
    ok = o is math.inf or o is None
    return SemiconjugacyReport(ok=ok, q=q, m=m, window=diff.n_trunc,
                               mismatch=o if isinstance(o, int) else None)


@dataclass
class MainLemmaReport:
    p: int
    q: int
    n: int
    field_text: str
    window: int
    chi: object
    xi: object
    ok: bool
    mismatch: int | None

    def to_jsonable(self):
        return {
            "p": self.p, "q": self.q, "n": self.n,
            "field": self.field_text,
            "window": self.window,
            "chi": scalar_to_jsonable(self.chi),
            "xi": scalar_to_jsonable(self.xi),
            "ok": self.ok,
            "mismatch": self.mismatch,
        }


def verify_main_lemma(field: FiniteField, q: int, n: int, a,
                      N: int | None = None) -> MainLemmaReport:
    """Iterate gamma*z*(1 + a1 z^q + a2 z^2q) the long way and compare.

    p is the characteristic of field, which must hold an order q multiplier.
    The window is W = E + 2q + 1 with E the least jump at level n; inside it
    the iterate must be z + chi z^(E+1) + xi z^(E+q+1) and nothing else.  The
    first disagreeing exponent, the order of the difference, is reported as
    the mismatch.  The germ is iterated mod z^W, the only coefficients
    compared; a given N is checked to hold the window.
    """
    if n < 1:
        raise ParabolicLabError(f"level must be >= 1, got {n}")
    p = field.char
    E = ramification_lower_bound(p, q, n)
    W = E + 2 * q + 1
    if N is not None and N < W:
        raise TruncationTooSmall(
            f"the comparison window needs {count_text(W)} coefficients, "
            f"got N = {N}")
    gamma = root_of_unity(field, q)
    a1, a2 = (field(c) for c in a)
    f = series(field, {1: gamma, q + 1: gamma * a1, 2 * q + 1: gamma * a2}, W)
    pair = chi_xi(q, n, a1, a2)
    want = series(field, {1: 1, E + 1: pair.chi, E + q + 1: pair.xi}, W)
    mismatch = (f.iterate(q * p ** n) - want).order()
    return MainLemmaReport(
        p=p, q=q, n=n, field_text=field_to_str(field), window=W,
        chi=pair.chi, xi=pair.xi, ok=mismatch is None, mismatch=mismatch)
