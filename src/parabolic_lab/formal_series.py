"""Truncated power series over the coefficient rings, and parabolic germs.

A series carries its own truncation: `n_trunc = N` means the coefficients of
z^0 .. z^(N-1) are stored (densely) and nothing is known beyond, while
`n_trunc = None` flags an exact polynomial: all omitted coefficients are true
zeros, so degree-growing operations (iteration, exact division) stay exact.
Binary operations intersect truncations; composition requires the inner series
to vanish at 0, which makes the result well defined modulo the common window.

Exactness in z is independent of exactness in t: an exact polynomial over a
Laurent ring may carry coefficients that are themselves known only to finite
t-precision (this happens to quotients of exact polynomials).

Composition is Horner's rule, multiplication is truncated convolution.  Over a
finite field both run on int64 numpy arrays: coordinates of GF(p^d) elements
form an (N, d) matrix, and a product of series is d^2 integer convolutions
followed by one reduction matmul (x^k -> power basis).  Every intermediate fits
int64 while the shorter factor has at most `FiniteField.int64_len` terms;
longer products (large p) run on the scalar kernels instead, which are exact
for any p.  Over Laurent rings the same algorithms run on scalar objects;
those computations are desk scale.
"""

from __future__ import annotations

import math

import numpy as np

from .coeff_rings import FieldElement, FiniteField, LaurentRing, LaurentScalar
from .errors import (
    DivisionByZero,
    IndeterminateValuation,
    NonzeroConstantTerm,
    NonUnitLinearTerm,
    NotDivisible,
    NotParabolic,
    ParabolicLabError,
    ScalarRingMismatch,
    TruncationTooSmall,
)

__all__ = [
    "TruncatedSeries", "ParabolicGerm", "series", "identity", "monomial",
    "zero_series", "reduce_and_wideg",
]


# ---------------------------------------------------------------------------
# finite-field array kernels

def _pack(field, coeffs):
    if not coeffs:
        return np.zeros((0, field.d), dtype=np.int64)
    return np.array([c.coords for c in coeffs], dtype=np.int64)

def _unpack(field, arr):
    return tuple(FieldElement(field, tuple(int(v) for v in row)) for row in arr)

def _conv_arr(field, A, B, limit):
    p, d = field.p, field.d
    if A.shape[0] == 0 or B.shape[0] == 0:
        return np.zeros((0, d), dtype=np.int64)
    if d == 1:
        c = np.convolve(A[:, 0], B[:, 0])
        if limit is not None:
            c = c[:limit]
        return (c % p)[:, None]
    full = A.shape[0] + B.shape[0] - 1
    out_len = full if limit is None else min(full, limit)
    big = np.zeros((out_len, 2 * d - 1), dtype=np.int64)
    for i in range(d):
        ai = A[:, i]
        if not ai.any():
            continue
        for j in range(d):
            bj = B[:, j]
            if not bj.any():
                continue
            c = np.convolve(ai, bj)
            big[:, i + j] += c[:out_len]
    big %= p
    return (big @ field._npred) % p

def _compose_arr(field, F, G, limit):
    """Horner evaluation of F at G (constant term of G must be zero)."""
    p = field.p
    if F.shape[0] == 0:
        return F
    R = F[-1:].copy()
    for i in range(F.shape[0] - 2, -1, -1):
        R = _conv_arr(field, R, G, limit)
        if R.shape[0] == 0:
            R = np.zeros((1, field.d), dtype=np.int64)
        R[0] = (R[0] + F[i]) % p
    return R


# ---------------------------------------------------------------------------
# generic scalar kernels (Laurent coefficients and finite-field products too
# long for int64; also the oracle for the array kernels in the test suite)

def _gconv(ring, A, B, limit):
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
            acc[k] = acc[k] + a * b
    return acc

def _gcompose(ring, F, G, limit):
    if not F:
        return []
    R = [F[-1]]
    for i in range(len(F) - 2, -1, -1):
        R = _gconv(ring, R, G, limit)
        if not R:
            R = [ring.zero()]
        R[0] = R[0] + F[i]
    return R


def _is_ff(ring):
    return isinstance(ring, FiniteField)


def _int64_exact(ring, min_len):
    """Whether the array kernels are exact for a product whose shorter
    factor has min_len terms (see FiniteField.int64_len)."""
    return _is_ff(ring) and max(min_len, 2) <= ring.int64_len


class TruncatedSeries:
    __slots__ = ("ring", "coeffs", "n_trunc")

    def __init__(self, ring, coeffs, n_trunc):
        """Normalize: dense of length n_trunc when truncated, stripped when exact."""
        coeffs = list(coeffs)
        if n_trunc is not None:
            if n_trunc < 1:
                raise ParabolicLabError(f"truncation must be >= 1, got {n_trunc}")
            if len(coeffs) > n_trunc:
                coeffs = coeffs[:n_trunc]
            while len(coeffs) < n_trunc:
                coeffs.append(ring.zero())
        else:
            while coeffs and coeffs[-1].is_certified_zero():
                coeffs.pop()
        self.ring = ring
        self.coeffs = tuple(coeffs)
        self.n_trunc = n_trunc

    # -- basics ------------------------------------------------------------

    def is_exact(self) -> bool:
        return self.n_trunc is None

    def degree(self):
        """Degree of an exact polynomial (-inf for the zero polynomial)."""
        if self.n_trunc is not None:
            raise ParabolicLabError("degree of a truncated series is undefined")
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    def coeff(self, i: int):
        if i < 0:
            raise IndexError(i)
        if self.n_trunc is not None and i >= self.n_trunc:
            raise TruncationTooSmall(
                f"coefficient {i} requested, stored modulo z^{self.n_trunc}")
        if i >= len(self.coeffs):
            return self.ring.zero()
        return self.coeffs[i]

    def order(self):
        """Index of the first certified-nonzero coefficient.

        Returns +inf for the exact zero polynomial and None when the series
        vanishes through its whole truncation window (order beyond reach).
        Raises IndeterminateValuation if a coefficient that is zero only to
        its stored t-precision is hit first.
        """
        for i, c in enumerate(self.coeffs):
            if c.is_certified_nonzero():
                return i
            if not c.is_certified_zero():
                raise IndeterminateValuation(
                    f"coefficient of z^{i} is zero only to stored precision")
        return math.inf if self.n_trunc is None else None

    def truncate(self, n: int) -> "TruncatedSeries":
        if self.n_trunc is not None:
            if n > self.n_trunc:
                raise TruncationTooSmall(
                    f"cannot extend truncation {self.n_trunc} to {n}")
            if n == self.n_trunc:
                return self
        return TruncatedSeries(self.ring, self.coeffs[:n], n)

    def _meet(self, other):
        if self.n_trunc is None:
            return other.n_trunc
        if other.n_trunc is None:
            return self.n_trunc
        return min(self.n_trunc, other.n_trunc)

    def _check_ring(self, other):
        if not isinstance(other, TruncatedSeries):
            raise ScalarRingMismatch(f"expected a series, got {other!r}")
        if other.ring != self.ring:
            raise ScalarRingMismatch("series over different coefficient rings")

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        self._check_ring(other)
        n = self._meet(other)
        la, lb = self.coeffs, other.coeffs
        length = max(len(la), len(lb)) if n is None else n
        out = []
        for i in range(length):
            a = la[i] if i < len(la) else self.ring.zero()
            b = lb[i] if i < len(lb) else self.ring.zero()
            out.append(a + b)
        return TruncatedSeries(self.ring, out, n)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TruncatedSeries(self.ring, [-c for c in self.coeffs], self.n_trunc)

    def scale(self, c) -> "TruncatedSeries":
        if isinstance(c, int):
            c = self.ring.from_int(c)
        return TruncatedSeries(self.ring, [c * a for a in self.coeffs], self.n_trunc)

    # -- multiplication and composition ------------------------------------

    def __mul__(self, other):
        self._check_ring(other)
        n = self._meet(other)
        if _int64_exact(self.ring, min(len(self.coeffs), len(other.coeffs))):
            arr = _conv_arr(self.ring, _pack(self.ring, self.coeffs),
                            _pack(self.ring, other.coeffs), n)
            return TruncatedSeries(self.ring, _unpack(self.ring, arr), n)
        return TruncatedSeries(
            self.ring, _gconv(self.ring, self.coeffs, other.coeffs, n), n)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(z)); the inner series must vanish at 0."""
        self._check_ring(inner)
        if inner.coeffs and not inner.coeffs[0].is_certified_zero():
            raise NonzeroConstantTerm("inner series has nonzero constant term")
        n = self._meet(inner)
        # every Horner step multiplies by the inner series
        if _int64_exact(self.ring, len(inner.coeffs)):
            arr = _compose_arr(self.ring, _pack(self.ring, self.coeffs),
                               _pack(self.ring, inner.coeffs), n)
            return TruncatedSeries(self.ring, _unpack(self.ring, arr), n)
        return TruncatedSeries(
            self.ring, _gcompose(self.ring, self.coeffs, inner.coeffs, n), n)

    def iterate(self, m: int) -> "TruncatedSeries":
        """m-fold compositional iterate, by binary powering.

        Iterates of a single series commute, so square-and-multiply applies to
        the composition monoid.
        """
        if m < 0:
            raise ParabolicLabError(f"iterate count must be >= 0, got {m}")
        if m == 0:
            return identity(self.ring, self.n_trunc)
        if self.coeffs and not self.coeffs[0].is_certified_zero():
            raise NonzeroConstantTerm("iteration needs a series fixing 0")
        result = None
        base = self
        while True:
            if m & 1:
                result = base if result is None else result.compose(base)
            m >>= 1
            if not m:
                return result
            base = base.compose(base)

    def power(self, e: int) -> "TruncatedSeries":
        """Multiplicative e-th power (repeated squaring)."""
        if e < 0:
            raise ParabolicLabError(f"power must be >= 0, got {e}")
        result = TruncatedSeries(self.ring, [self.ring.one()], self.n_trunc)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def stretch(self, q: int) -> "TruncatedSeries":
        """Substitute z -> z^q (indices multiply by q)."""
        if q < 1:
            raise ParabolicLabError(f"stretch factor must be >= 1, got {q}")
        n = None if self.n_trunc is None else (self.n_trunc - 1) * q + 1
        out = {}
        for i, c in enumerate(self.coeffs):
            if not c.is_certified_zero():
                out[i * q] = c
        length = (len(self.coeffs) - 1) * q + 1 if self.coeffs else 0
        coeffs = [self.ring.zero()] * (length if n is None else n)
        for i, c in out.items():
            coeffs[i] = c
        return TruncatedSeries(self.ring, coeffs, n)

    def derivative(self) -> "TruncatedSeries":
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(self.ring.from_int(i) * self.coeffs[i])
        n = None if self.n_trunc is None else max(self.n_trunc - 1, 1)
        return TruncatedSeries(self.ring, out, n)

    def inverse(self, n_trunc: int | None = None) -> "TruncatedSeries":
        """Compositional inverse, by Newton iteration on h -> h - (f(h)-z)/f'(h).

        The correction step is justified degree by degree over any coefficient
        field: writing h = H + e with e of order m >= 2, the terms of f(H + e)
        beyond the linear one have order >= 2m (binomial expansion, no division
        by integers involved), so each round doubles the correct window.
        """
        if self.coeffs and not self.coeffs[0].is_certified_zero():
            raise NonzeroConstantTerm("compositional inverse needs f(0) = 0")
        c1 = self.coeff(1)
        if not c1.is_certified_nonzero():
            raise NonUnitLinearTerm("linear coefficient is not certified invertible")
        if n_trunc is None:
            if self.n_trunc is None:
                raise ParabolicLabError(
                    "exact polynomial input: an explicit truncation is required")
            n_trunc = self.n_trunc
        N = n_trunc
        c1inv = c1.inverse()
        h = TruncatedSeries(self.ring, [self.ring.zero(), c1inv], min(2, N))
        if N <= 2:
            return h
        fprime = self.derivative()
        prec = 2
        while prec < N:
            prec = min(2 * prec, N)
            hp = TruncatedSeries(self.ring, h.coeffs, prec)
            err = self.compose(hp) - identity(self.ring, prec)
            dcomp = fprime.compose(hp)
            one = series(self.ring, {0: 1}, dcomp.n_trunc)
            recip, _ = one.divide_exact(dcomp)
            # f' is only known one index short of f, but the correction term
            # err * recip has ord(err) >= 2, so the top coefficient of the
            # reciprocal never reaches indices below prec; pad the claim.
            recip = TruncatedSeries(self.ring, recip.coeffs, prec)
            h = hp - err * recip
        return h

    # -- division ----------------------------------------------------------

    def divide_exact(self, den: "TruncatedSeries"):
        """Divide self by den from the bottom.

        Returns (quotient, integral) where integral records that every
        quotient coefficient has valuation >= 0 (always true over a finite
        field).  For exact polynomial inputs the division is certified: a
        nonzero remainder raises NotDivisible.  For truncated inputs the
        quotient is computed modulo z^(N - ord(den)).
        """
        self._check_ring(den)
        b = den.order()
        if b is math.inf:
            raise DivisionByZero("division by the exact zero series")
        if b is None:
            raise IndeterminateValuation(
                "denominator vanishes through its truncation window")
        a = self.order()
        if a is math.inf:
            # exactly zero numerator: the quotient is exactly zero
            return zero_series(self.ring, None), True
        if a is None:
            n_out = self.n_trunc - b
            if den.n_trunc is not None:
                n_out = min(n_out, den.n_trunc - b)
            return zero_series(self.ring, max(n_out, 1)), True
        if a < b:
            raise NotDivisible(f"ord(num) = {a} < ord(den) = {b}")

        exact = self.n_trunc is None and den.n_trunc is None
        dshift = list(den.coeffs[b:])
        nshift = list(self.coeffs[b:])
        lead = dshift[0]
        if exact:
            L = len(self.coeffs) - len(den.coeffs) + 1
            if L <= 0:
                raise NotDivisible("numerator degree below denominator degree")
        else:
            L = (self.n_trunc - b) if self.n_trunc is not None else math.inf
            if den.n_trunc is not None:
                L = min(L, den.n_trunc - b)
            L = int(L)
            if L < 1:
                raise TruncationTooSmall("no quotient coefficients below truncation")
        linv = lead.inverse()
        qc = []
        for k in range(L):
            acc = nshift[k] if k < len(nshift) else self.ring.zero()
            for j in range(max(0, k - len(dshift) + 1), k):
                dk = dshift[k - j]
                if dk.is_certified_zero():
                    continue
                acc = acc - qc[j] * dk
            qc.append(acc * linv)
        quot = TruncatedSeries(self.ring, qc, None if exact else L)
        if exact:
            lead_exact = isinstance(lead, FieldElement) or (
                lead.is_exact() and len(lead.coeffs) == 1)
            if lead_exact:
                if den * quot != self:
                    raise NotDivisible("nonzero remainder")
            else:
                if not _pseudo_divisible(self, den):
                    raise NotDivisible("nonzero pseudo-remainder")
        integral = all(c.valuation_lower_bound() >= 0 for c in qc)
        return quot, integral

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x):
        """Evaluate at a scalar point.

        Over a Laurent ring, x must have certified positive valuation unless
        the series is an exact polynomial; the unknown tail of a truncated
        series is treated as integral, so the value comes back clipped to
        O(t^(N*v(x))).  Accumulation stops early once remaining terms cannot
        touch the surviving precision.
        """
        if _is_ff(self.ring):
            x = self.ring(x)
            acc = self.ring.zero()
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        x = self.ring(x)
        if not self.coeffs:
            return self.ring.zero()
        if x.is_certified_zero():
            return self.coeff(0)
        vx = x.valuation()
        if self.n_trunc is not None and vx < 1:
            raise ParabolicLabError(
                "evaluation of a truncated series needs v(x) >= 1")
        suffix = [math.inf] * (len(self.coeffs) + 1)
        for i in range(len(self.coeffs) - 1, -1, -1):
            suffix[i] = min(suffix[i + 1], self.coeffs[i].valuation_lower_bound())
        acc = self.ring.zero()
        pw = self.ring.one()
        for i, c in enumerate(self.coeffs):
            if acc.tprec is not None and i * vx + suffix[i] >= acc.tprec:
                break
            if not c.is_certified_zero():
                acc = acc + c * pw
            if i + 1 < len(self.coeffs):
                pw = pw * x
        if self.n_trunc is not None:
            acc = acc.clip(self.n_trunc * vx)
        return acc

    # -- misc --------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries) and self.ring == other.ring
                and self.n_trunc == other.n_trunc and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring, self.n_trunc, self.coeffs))

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        mod = "exact" if self.n_trunc is None else f"mod z^{self.n_trunc}"
        return f"TruncatedSeries([{head}{tail}] {mod} over {self.ring!r})"


def series(ring, entries, n_trunc) -> TruncatedSeries:
    """Build a series from {exponent: coefficient}; ints and field elements
    are coerced into the ring."""
    length = (max(entries) + 1 if entries else 0) if n_trunc is None else n_trunc
    coeffs = [ring.zero()] * length
    for e, c in entries.items():
        if e < 0:
            raise ParabolicLabError(f"negative z-exponent {e}")
        if e < length:
            coeffs[e] = ring(c)
    return TruncatedSeries(ring, coeffs, n_trunc)


def identity(ring, n_trunc) -> TruncatedSeries:
    return series(ring, {1: 1}, n_trunc)


def monomial(ring, c, e: int, n_trunc) -> TruncatedSeries:
    return series(ring, {e: c}, n_trunc)


def zero_series(ring, n_trunc) -> TruncatedSeries:
    return TruncatedSeries(ring, [], n_trunc)


def _pseudo_divisible(num: TruncatedSeries, den: TruncatedSeries) -> bool:
    """Fraction-free divisibility test for exact polynomials over a Laurent ring.

    Works in F[t][z]: repeatedly replaces R by lead(D)*R - lead(R)*z^k*D, which
    never divides in the coefficient ring.  The remainder vanishes exactly when
    den divides num over the fraction field, which for series-divisible pairs
    coincides with divisibility in F((t))[z].
    """
    D = [c for c in den.coeffs]
    while D and D[-1].is_certified_zero():
        D.pop()
    R = [c for c in num.coeffs]
    dD = len(D) - 1
    leadD = D[-1]
    while True:
        while R and R[-1].is_certified_zero():
            R.pop()
        if not R or len(R) - 1 < dD:
            break
        dR = len(R) - 1
        lr = R[-1]
        shift = dR - dD
        newR = [leadD * R[i] for i in range(dR)]
        for i in range(dD):
            newR[shift + i] = newR[shift + i] - lr * D[i]
        R = newR
    return all(c.is_certified_zero() for c in R)


def reduce_and_wideg(f: TruncatedSeries):
    """Reduce an integral series over O_k coefficientwise to the residue field
    and return (reduction, Weierstrass degree).

    The Weierstrass degree is the order of the reduction: an int, +inf when the
    reduction is certified identically zero (exact input only), or None when it
    vanishes through the truncation window.
    """
    if not isinstance(f.ring, LaurentRing):
        raise ScalarRingMismatch("reduction needs a series over a Laurent ring")
    field = f.ring.field
    red = [c.residue() for c in f.coeffs]
    reduced = TruncatedSeries(field, red, f.n_trunc)
    return reduced, reduced.order()


class ParabolicGerm:
    """A series gamma*z*(1 + ...) whose multiplier gamma is a root of unity.

    Over a finite field any series with f(0) = 0 and f'(0) != 0 qualifies (the
    multiplicative group is torsion prime to p).  Over a Laurent ring the
    multiplier must be an exact residue-field constant; its order is then
    automatically prime to the characteristic.
    """

    __slots__ = ("series", "gamma", "q")

    def __init__(self, s: TruncatedSeries):
        c0 = s.coeff(0)
        if not c0.is_certified_zero():
            raise NonzeroConstantTerm("a germ must fix 0")
        gamma = s.coeff(1)
        if not gamma.is_certified_nonzero():
            raise NotParabolic("multiplier is zero or indeterminate")
        if isinstance(s.ring, LaurentRing):
            if not (gamma.is_exact() and gamma.v0 == 0 and len(gamma.coeffs) == 1):
                raise NotParabolic(
                    f"multiplier {gamma} is not a residue-field constant")
            unit = gamma.coeffs[0]
        else:
            unit = gamma
        self.series = s
        self.gamma = gamma
        self.q = unit.multiplicative_order()

    @property
    def ring(self):
        return self.series.ring

    @property
    def char(self) -> int:
        return self.ring.char

    @property
    def n_trunc(self):
        return self.series.n_trunc

    def iterate(self, m: int) -> TruncatedSeries:
        return self.series.iterate(m)

    def conjugate(self, h: TruncatedSeries, n_trunc: int | None = None) -> "ParabolicGerm":
        """The germ h^(-1) o f o h for a coordinate change h (h(0)=0, h'(0) a unit)."""
        n = self.series._meet(h) if n_trunc is None else n_trunc
        if n is None:
            raise ParabolicLabError(
                "conjugating exact polynomials needs an explicit truncation")
        hinv = h.inverse(n)
        return ParabolicGerm(hinv.compose(self.series.compose(h)))

    def __repr__(self):
        return f"ParabolicGerm(q={self.q}, {self.series!r})"
