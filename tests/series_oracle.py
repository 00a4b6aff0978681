"""Scalar reference kernels for Laurent scalar products and sums, for series
products, compositions and quotients, and for the pushed-forward series of
a germ; and the compositional inverse by a fresh division each round.

The library multiplies, composes and divides series, builds the
pushed-forward series, and multiplies and adds Laurent scalars, on packed
arrays; these loops do the same on coefficient objects, one scalar
operation at a time, and serve as the oracle the packed kernel is tested
against.  The series loops multiply and add Laurent scalars by the
schoolbook laurent_mul and laurent_add, never by LaurentScalar's own
operators, so no product they check runs on the kernel it checks.
TruncatedSeries.inverse carries its reciprocal 1/f'(h) from round to round;
_inverse_by_division recomputes it each round by divide_exact, from row 1.
"""

from parabolic_lab import (
    IndeterminateValuation,
    NonUnitLinearTerm,
    NonzeroConstantTerm,
    ParabolicLabError,
    SupportViolation,
    identity,
    series,
)
from parabolic_lab.coeff_rings import LaurentScalar, _make_laurent
from parabolic_lab.formal_series import TruncatedSeries


def laurent_add(a, b):
    """a + b for Laurent scalars, summed densely over the t-span of both."""
    # an exact zero changes nothing, and scalars are kept canonical
    if b.is_certified_zero():
        return a
    if a.is_certified_zero():
        return b
    if a.tprec is None:
        tp = b.tprec
    elif b.tprec is None:
        tp = a.tprec
    else:
        tp = min(a.tprec, b.tprec)
    if not a.coeffs and not b.coeffs:
        return LaurentScalar(a.ring, 0, (), tp)
    starts = [x.v0 for x in (a, b) if x.coeffs]
    ends = [x.v0 + len(x.coeffs) for x in (a, b) if x.coeffs]
    lo, hi = min(starts), max(ends)
    acc = [a.field.zero()] * (hi - lo)
    for x in (a, b):
        for i, c in enumerate(x.coeffs):
            acc[x.v0 + i - lo] = acc[x.v0 + i - lo] + c
    return _make_laurent(a.ring, lo, acc, tp)


def laurent_mul(a, b):
    """a*b for Laurent scalars by the schoolbook product, each coefficient
    known below min(tprec(a) + v(b), tprec(b) + v(a))."""
    if a.is_certified_zero() or b.is_certified_zero():
        return a.ring.zero()
    la = a.valuation_lower_bound()
    lb = b.valuation_lower_bound()
    if not a.coeffs or not b.coeffs:
        # at least one truncated zero: product is zero to the combined bound
        return LaurentScalar(a.ring, 0, (), la + lb)
    tp = None
    if a.tprec is not None:
        tp = a.tprec + b.v0
    if b.tprec is not None:
        t2 = b.tprec + a.v0
        tp = t2 if tp is None else min(tp, t2)
    acc = [a.field.zero()] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x.is_zero():
            continue
        for j, y in enumerate(b.coeffs):
            acc[i + j] = acc[i + j] + x * y
    return _make_laurent(a.ring, a.v0 + b.v0, acc, tp)


def _add(a, b):
    return laurent_add(a, b) if isinstance(a, LaurentScalar) else a + b


def _mul(a, b):
    return laurent_mul(a, b) if isinstance(a, LaurentScalar) else a * b


def _gconv(ring, A, B, limit):
    """Truncated convolution of coefficient sequences, rows below limit."""
    if not A or not B:
        return []
    full = len(A) + len(B) - 1
    out_len = full if limit is None else min(full, limit)
    acc = [ring.zero()] * out_len
    for i, a in enumerate(A):
        if i >= out_len:
            break
        if a.is_certified_zero():
            continue
        for j, b in enumerate(B):
            k = i + j
            if k >= out_len:
                break
            acc[k] = _add(acc[k], _mul(a, b))
    return acc


def _gcompose(ring, F, G, limit):
    """Horner evaluation of F at G (constant term of G zero)."""
    if not F:
        return []
    R = [F[-1]]
    for i in range(len(F) - 2, -1, -1):
        R = _gconv(ring, R, G, limit)
        if not R:
            R = [ring.zero()]
        R[0] = _add(R[0], F[i])
    return R


def _series_quotient(num, den, length):
    """The first `length` coefficients of the power series num/den, from the
    bottom: q_k = (num_k - sum_(j<k) q_j*den_(k-j)) / den_0.

    num and den are coefficient sequences (missing entries are zero) over
    the ring of den[0], which must be a unit.
    """
    den0_inv = den[0].inverse()
    zero = den[0].ring.zero()
    qc = []
    for k in range(length):
        acc = num[k] if k < len(num) else zero
        for j in range(max(0, k - len(den) + 1), k):
            dk = den[k - j]
            if not dk.is_certified_zero():
                acc = _add(acc, -_mul(qc[j], dk))
        qc.append(_mul(acc, den0_inv))
    return qc


def _pushforward(g):
    """ghat(w) = w*U(w)^q for the germ g = gamma*z*U(z^q), read off g one
    coefficient c/gamma at a time: ParabolicGerm.pushforward's oracle."""
    q, s, gamma = g.q, g.series, g.gamma
    N = s.n_trunc
    top = (N - 2) if N is not None else int(s.degree()) - 1
    unit_coeffs = {}
    for e in range(2, top + 2):
        c = s.coeff(e)
        if c.is_certified_zero():
            continue
        j = e - 1
        if j % q:
            if c.is_certified_nonzero():
                raise SupportViolation(
                    f"exponent {e} is not congruent to 1 mod {q}")
            raise IndeterminateValuation(
                f"exponent {e} is zero only to stored precision")
        unit_coeffs[j // q] = c / gamma
    ring = s.ring
    cap = None if N is None else (top // q) + 1
    unit_pow = series(ring, {0: ring.one(), **unit_coeffs}, cap).power(q)
    # multiplying by w shifts everything up one index, so ghat is known one
    # index further than the unit power itself
    stored = cap if cap is not None else len(unit_pow.coeffs)
    return series(ring, {i + 1: unit_pow.coeff(i) for i in range(stored)},
                  None if cap is None else cap + 1)


def _inverse_by_division(f, n_trunc=None):
    """The compositional inverse of f by Newton iteration, each round's
    1/f'(h) a fresh divide_exact: TruncatedSeries.inverse's oracle."""
    if not f._vanishes_at_0():
        raise NonzeroConstantTerm("compositional inverse needs f(0) = 0")
    c1 = f.coeff(1)
    if not c1.is_certified_nonzero():
        raise NonUnitLinearTerm("linear coefficient is not certified invertible")
    if n_trunc is None:
        if f.n_trunc is None:
            raise ParabolicLabError(
                "exact polynomial input: an explicit truncation is required")
        n_trunc = f.n_trunc
    N = n_trunc
    c1inv = c1.inverse()
    h = TruncatedSeries(f.ring, [f.ring.zero(), c1inv], min(2, N))
    if N <= 2:
        return h
    fprime = f.derivative()
    prec = 2
    while prec < N:
        prec = min(2 * prec, N)
        hp = h._with_window(prec)
        err = f.compose(hp) - identity(f.ring, prec)
        dcomp = fprime.compose(hp)
        one = series(f.ring, {0: 1}, dcomp.n_trunc)
        recip = one.divide_exact(dcomp)
        # f' is only known one index short of f, but the correction term
        # err * recip has ord(err) >= 2, so the top coefficient of the
        # reciprocal never reaches indices below prec; pad the claim.
        h = hp - err * recip._with_window(prec)
    return h
