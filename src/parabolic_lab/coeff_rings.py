"""Coefficient rings: finite fields GF(p^d) and Laurent-series scalars over them.

A field element is a coordinate vector over the prime field with respect to the
power basis 1, x, ..., x^(d-1) of F_p[x] modulo a monic irreducible modulus of
degree d.  For d = 1 the vector has length one and arithmetic is plain integer
arithmetic mod p.  Moduli are verified irreducible at construction by Rabin's
test, whose cost is polynomial in d and log p.  For d > 1 every operation
runs on the same F_p[x] helpers as that test: a product is one _pmulmod, an
inverse one _pinverse, and the kernel's table of x^k mod the modulus is built
by _prem, for every p the parser accepts.

A Laurent scalar represents an element of GF(p^d)((t)) as a window of stored
coefficients starting at exponent v0 together with a precision marker:

    value = sum_i coeffs[i] * t^(v0 + i),  coefficients known for exponents < tprec

tprec is None for exact elements (the value IS the finite sum; typically a
polynomial in t, possibly times a power of t).  The distinction between an exact
zero and "zero to precision tprec" is load bearing: the valuation of the former
is +infinity, the valuation of the latter is indeterminate and asking for it
raises.  Canonical form strips zero coefficients at both ends of the window, so
a nonzero stored leading coefficient certifies the valuation v0 exactly.
Products, sums and inverses of Laurent scalars run on the series kernel
(formal_series) as one-row series, counted from v0 so that v0 itself may be
any integer.

Both rings answer one scalar protocol.  A FiniteField F is its own
F.residue_field, F.half(m) is the field value of the integer m/2, and
F(value) takes an int (reduced mod p), an element of F or a tuple of
coordinates.  A LaurentRing R over F has R.field = R.residue_field = F,
R.half(m) is the constant F.half(m), and R(value) takes an int, a constant
of F, a scalar of R or {exponent: coefficient}.  Only a LaurentRing has
.field, so code that tells the rings apart by it (perfbench's tracer) does.
Every scalar x has x.ring: a field element's is its field, a Laurent
scalar's its LaurentRing.  A scalar of any other ring raises
ScalarRingMismatch, in R(value) and in arithmetic; an arithmetic operand
that is neither an int nor a scalar is left to Python (NotImplemented).

Norms on these rings are never materialized as floats anywhere in the library;
all size comparisons go through valuations (integers here, Fractions where
slopes and bounds appear).
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import zip_longest

import numpy as np

from .errors import (
    CompositeP,
    DivisionByZero,
    FieldDegreeTooLarge,
    IndeterminateValuation,
    NoSuchRoot,
    POrderRequested,
    ParabolicLabError,
    ReducibleModulus,
    ScalarRingMismatch,
)

DEFAULT_TPREC = 64

# The largest extension degree d of a field GF(p^d).  The default modulus
# search runs Rabin's test, of cost about d^4 log p, on each candidate it
# scans.  On a 2-core VM every GF(p^d) with d <= 24 and p <= 65537 tried
# built within 4.2 s, while GF(11^32) took 31 s and GF(7^44) 16 s.
MAX_FIELD_DEGREE = 24


# Miller-Rabin with the first 13 primes as bases decides every n below
# _MR_LIMIT (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86, 2017); larger n are refused, not guessed.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n >= _MR_LIMIT:
        raise ParabolicLabError(
            f"cannot certify {n} prime: primality is decided below {_MR_LIMIT}")
    return _strong_probable_prime(n)


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES: the answer below _MR_LIMIT, and
    above it a certificate of compositeness whenever False."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Rho gives up after _RHO_STEPS steps of one walk; it starts another only
# when a walk closes modulo every factor at once.  A composite below
# _MR_LIMIT has a prime factor below 2^41, which takes about 2^21 steps.
_RHO_STEPS = 1 << 23


@functools.cache
def _prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n, ascending.

    Trial division below 1000, then Pollard rho on what is left.  Every
    factor is certified prime by Miller-Rabin below _MR_LIMIT; a cofactor
    above it that the bases cannot show composite is refused, never assumed
    prime.
    """
    out = set()
    for k in range(2, 1000):
        if n % k == 0:  # a prime: every smaller factor is divided out
            out.add(k)
            while n % k == 0:
                n //= k
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if not _strong_probable_prime(m):
            d = _rho_divisor(m)
            stack += [d, m // d]
        elif m < _MR_LIMIT:
            out.add(m)
        else:
            raise ParabolicLabError(
                f"cannot factor {m}: primality is decided below {_MR_LIMIT}")
    return tuple(sorted(out))


def _rho_divisor(n: int) -> int:
    """A proper divisor of the composite n: Pollard's rho on x -> x^2 + c
    with Brent's cycle search (Brent, BIT 20, 1980), for c = 1, 2, 3."""
    for c in (1, 2, 3):
        x = y = 2
        for k in range(1, _RHO_STEPS):
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
            if g == n:
                break  # the walk closed modulo every factor at once
            if g > 1:
                return g
            if k & (k - 1) == 0:
                x = y
        else:
            break
    raise ParabolicLabError(f"Pollard rho did not split the composite {n}")


def _square_and_multiply(x, n: int, op, one):
    """x^n for n >= 0 under an associative op, one standing for x^0.

    The product starts from the first factor itself, never from one, so a
    power of two costs only its squarings.
    """
    result = None
    while n:
        if n & 1:
            result = x if result is None else op(result, x)
        n >>= 1
        if n:
            x = op(x, x)
    return one if result is None else result


# Polynomials over F_p as little-endian int lists.  These helpers carry all
# GF(p^d) arithmetic: the modulus checks, products, inverses and the
# kernel's table of x^k mod the modulus.

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _prem(a, b, p):
    """Remainder of a mod b over F_p, for b reduced mod p and trimmed; b need
    not be monic, but the lead of a monic b is not inverted."""
    a = _ptrim([c % p for c in a])
    db = len(b) - 1
    binv = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    while a and len(a) - 1 >= db:
        c = a[-1] * binv % p
        s = len(a) - 1 - db
        for i, bc in enumerate(b):
            a[s + i] = (a[s + i] - c * bc) % p
        _ptrim(a)
    return a


def _psub(a, b, p):
    """a - b over F_p."""
    return _ptrim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _pmulmod(a, b, f, p):
    """a*b mod f over F_p."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return _prem(prod, f, p)


def _pinverse(a, f, p):
    """1/a mod an irreducible f over F_p, for a nonzero a of lower degree,
    by the extended Euclidean algorithm one leading term at a time: each
    remainder r carries a cofactor s with s*a = r mod f, the higher of two
    remainders loses its leading term to the lower, and the run stops at a
    nonzero constant r, where 1/a = s/r."""
    r0, s0 = list(f), []
    r, s = _ptrim([c % p for c in a]), [1]
    while True:
        if len(r0) < len(r):
            r0, s0, r, s = r, s, r0, s0
        if len(r) == 1:
            break
        c = r0[-1] * pow(r[-1], -1, p)
        pad = [0] * (len(r0) - len(r))
        r0 = _psub(r0, pad + [c * x for x in r], p)
        s0 = _psub(s0, pad + [c * x for x in s], p)
    inv = pow(r[0], -1, p)
    return [x * inv % p for x in s]


def _coords(a, d):
    """The reduced polynomial a as a tuple of d coordinates."""
    return tuple(a) + (0,) * (d - len(a))


def _base_p_digits(code, p, d):
    """The d base-p digits of code, lowest first."""
    digits = []
    for _ in range(d):
        code, c = divmod(code, p)
        digits.append(c)
    return digits


def _coord_dtype(p):
    """numpy dtype holding coordinates mod p and sums of two of them."""
    return np.int64 if p < 1 << 62 else object


def _is_irreducible(coeffs, p):
    """Rabin's test (Rabin, SIAM J. Comput. 9, 1980) for a monic f of degree
    d: f is irreducible iff f divides x^(p^d) - x and, for every prime r
    dividing d, f is prime to x^(p^(d/r)) - x.  The first condition leaves
    only irreducible factors of degrees dividing d, each once; the second
    rules out those of degree below d.  The powers x^(p^e) mod f come from
    repeated p-th powers, so the cost is polynomial in d and log p."""
    d = len(coeffs) - 1
    x = _prem([0, 1], coeffs, p)
    frob = [x]  # frob[e] = x^(p^e) mod f
    for _ in range(d):
        frob.append(_square_and_multiply(
            frob[-1], p, functools.partial(_pmulmod, f=coeffs, p=p), None))
    if _psub(frob[d], x, p):
        return False
    for r in _prime_factors(d):
        a, b = list(coeffs), _psub(frob[d // r], x, p)
        while b:
            a, b = b, _prem(a, b, p)
        if len(a) > 1:
            return False
    return True


# The scalar protocol (see above): these are bound by name in both ring
# classes (_convert) and both scalar classes (the rest).

def _convert(ring, value):
    """ring(value): an int is reduced into ring, a scalar of ring is
    returned as it is, and a constant of ring's residue field embedded; a
    scalar of any other ring raises ScalarRingMismatch.  Any other value
    goes to ring.element: coordinates, or {exponent: coefficient}."""
    if isinstance(value, int):
        return ring.from_int(value)
    if isinstance(value, (FieldElement, LaurentScalar)):
        if value.ring is ring or value.ring == ring:
            return value
        if value.ring == ring.residue_field:  # only a Laurent ring's differs
            return ring.embed(value)
        raise ScalarRingMismatch(f"a scalar of {value.ring!r} is not in {ring!r}")
    return ring.element(value)


def _coerce(self, other):
    """other as a scalar of self's ring for an arithmetic operator: ints,
    field elements and scalars of self's own type convert, any other operand
    is NotImplemented, so a Laurent scalar takes a field element on either
    side."""
    if other.__class__ is self.__class__ and other.ring is self.ring:
        return other
    if isinstance(other, (int, FieldElement, self.__class__)):
        return _convert(self.ring, other)
    return NotImplemented


def _rsub(self, other):
    other = self._coerce(other)
    if other is NotImplemented:
        return NotImplemented
    return other - self


def _truediv(self, other):
    other = self._coerce(other)
    if other is NotImplemented:
        return NotImplemented
    return self * other.inverse()


class FiniteField:
    """The field GF(p^d), doubling as the scalar-ring descriptor for series."""

    __slots__ = ("p", "d", "modulus", "order", "_npred", "_zero", "_one")

    def __init__(self, p: int, d: int = 1, modulus: tuple[int, ...] | None = None):
        if not _is_prime(p):
            raise CompositeP(f"characteristic {p} is not prime")
        if d < 1:
            raise ParabolicLabError(f"extension degree must be positive, got {d}")
        if d > MAX_FIELD_DEGREE:
            raise FieldDegreeTooLarge(
                f"extension degree {d} is past the limit {MAX_FIELD_DEGREE}")
        self.p = p
        self.d = d
        self.order = p ** d
        if modulus is None:
            modulus = self._default_modulus(p, d)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != d + 1:
                raise ParabolicLabError(
                    f"modulus needs {d + 1} coefficients for degree {d}, got {len(modulus)}")
            if modulus[-1] != 1:
                raise ParabolicLabError("modulus must be monic")
            if d > 1 and not _is_irreducible(list(modulus), p):
                raise ReducibleModulus(f"modulus {list(modulus)} factors over GF({p})")
        self.modulus = modulus
        # coordinates of x^k mod modulus for k = 0 .. 2d-2, as rows
        self._npred = np.array(
            [_coords(_prem([0] * k + [1], modulus, p), d)
             for k in range(2 * d - 1)], dtype=_coord_dtype(p))
        self._zero = FieldElement(self, (0,) * d)
        self._one = FieldElement(self, (1,) + (0,) * (d - 1))

    @staticmethod
    def _default_modulus(p, d):
        """The first irreducible monic of degree d in base-p order of its
        lower coefficients.  Codes below p are the binomials x^d + c; none
        of them is irreducible when some prime r | d does not divide p - 1,
        or when 4 | d and p != 1 mod 4 (Lidl and Niederreiter, Finite
        Fields, Thm. 3.75), and the scan then starts past them."""
        if d == 1:
            return (0, 1)
        no_binomial = (any((p - 1) % r for r in _prime_factors(d))
                       or (d % 4 == 0 and p % 4 != 1))
        for code in range(p if no_binomial else 0, p ** d):
            g = _base_p_digits(code, p, d) + [1]
            if _is_irreducible(g, p):
                return tuple(g)
        raise ParabolicLabError("no irreducible modulus found")  # pragma: no cover

    @property
    def char(self) -> int:
        return self.p

    @property
    def residue_field(self) -> "FiniteField":
        return self

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def from_int(self, n: int) -> "FieldElement":
        return FieldElement(self, (n % self.p,) + (0,) * (self.d - 1))

    def element(self, coords) -> "FieldElement":
        coords = tuple(int(c) % self.p for c in coords)
        if len(coords) > self.d:
            raise ParabolicLabError(f"{len(coords)} coordinates for degree {self.d}")
        return FieldElement(self, _coords(coords, self.d))

    def gen(self) -> "FieldElement":
        """The class of x; only meaningful for d >= 2."""
        if self.d == 1:
            return self._one
        return FieldElement(self, (0, 1) + (0,) * (self.d - 2))

    def _inverse_coords(self, coords):
        """The coordinates of 1/c for a nonzero c given by its coordinates:
        c^(p - 2) mod p when d = 1, else the extended Euclidean algorithm
        against the modulus (_pinverse)."""
        p = self.p
        if self.d == 1:
            return (pow(coords[0], p - 2, p),)
        return _coords(_pinverse(coords, self.modulus, p), self.d)

    def half(self, m: int) -> "FieldElement":
        """The field value of the integer m/2: exact halving when m is even,
        multiplication by the inverse of 2 otherwise (odd characteristic only)."""
        if m % 2 == 0:
            return self.from_int(m // 2)
        if self.p == 2:
            raise ParabolicLabError("cannot halve an odd integer in characteristic 2")
        return self.from_int((m % self.p) * pow(2, -1, self.p) % self.p)

    def elements(self, start: int = 0):
        """All field elements in deterministic order (base-p counting), from
        the one with code start."""
        for n in range(start, self.order):
            yield FieldElement(self, tuple(_base_p_digits(n, self.p, self.d)))

    __call__ = _convert

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FiniteField) and self.p == other.p
            and self.d == other.d and self.modulus == other.modulus)

    def __hash__(self):
        return hash(("FiniteField", self.p, self.d, self.modulus))

    def __repr__(self):
        if self.d == 1:
            return f"GF({self.p})"
        return f"GF({self.p},{self.d};modulus={','.join(map(str, self.modulus))})"


class FieldElement:
    __slots__ = ("field", "coords")

    def __init__(self, field: FiniteField, coords: tuple[int, ...]):
        self.field = field
        self.coords = coords

    _coerce = _coerce

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.p
        return FieldElement(self.field, tuple(
            (a + b) % p for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.p
        return FieldElement(self.field, tuple(
            (a - b) % p for a, b in zip(self.coords, other.coords)))

    __rsub__ = _rsub

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coords))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.field
        p, d = F.p, F.d
        if d == 1:
            return FieldElement(F, ((self.coords[0] * other.coords[0]) % p,))
        return FieldElement(F, _coords(
            _pmulmod(self.coords, other.coords, F.modulus, p), d))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        # a nonzero x has x^(p^d - 1) = 1, so only n mod p^d - 1 matters
        if n < 0:
            return self.inverse() ** (-n)
        if self.is_zero():
            return self if n else self.field.one()
        return _square_and_multiply(self, n % (self.field.order - 1),
                                    operator.mul, self.field.one())

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("inverse of zero field element")
        field = self.field
        return FieldElement(field, field._inverse_coords(self.coords))

    __truediv__ = _truediv

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    # Uniform scalar interface shared with LaurentScalar: over an exact field
    # every zero test is certain.
    def is_certified_zero(self) -> bool:
        return self.is_zero()

    def is_certified_nonzero(self) -> bool:
        return not self.is_zero()

    def valuation_lower_bound(self):
        return math.inf if self.is_zero() else 0

    def __bool__(self):
        return not self.is_zero()

    def multiplicative_order(self) -> int:
        """The least m >= 1 with self^m = 1.  self lies in GF(p^k) for the
        least k with self^(p^k) = self, so m divides p^k - 1, and only
        that is factored: p - 1 for every element of the prime field."""
        if self.is_zero():
            raise DivisionByZero("zero has no multiplicative order")
        p = self.field.p
        k, y = 1, self ** p
        while y != self:
            k, y = k + 1, y ** p
        e = p ** k - 1
        for r in _prime_factors(e):
            while e % r == 0 and (self ** (e // r)) == self.field.one():
                e //= r
        return e

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.field.from_int(other)
        return (isinstance(other, FieldElement) and self.coords == other.coords
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash((self.field, self.coords))

    def _needs_parens(self) -> bool:
        return sum(1 for c in self.coords if c) > 1

    def __str__(self):
        if self.field.d == 1:
            return str(self.coords[0])
        terms = []
        for j, c in enumerate(self.coords):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                xp = "x" if j == 1 else f"x^{j}"
                terms.append(xp if c == 1 else f"{c}*{xp}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"{self!s} in {self.field!r}"


# a field element's ring is its field: the same slot under the scalar
# protocol's name, read as fast as .field
FieldElement.ring = FieldElement.field


def root_of_unity(field: FiniteField, q: int) -> FieldElement:
    """An element of exact multiplicative order q, found via a primitive element.

    Raises POrderRequested if the characteristic divides q (no such root can
    exist in characteristic p) and NoSuchRoot if q does not divide p^d - 1.
    """
    if not isinstance(field, FiniteField):
        raise ScalarRingMismatch(
            f"a root of unity needs a finite field, not {field!r}")
    if q < 1:
        raise ParabolicLabError(f"order must be positive, got {q}")
    if q % field.p == 0:
        raise POrderRequested(
            f"order {q} is divisible by the characteristic {field.p}")
    e = field.order - 1
    if q == 1:
        return field.one()
    if e % q != 0:
        raise NoSuchRoot(f"{field!r} has no element of order {q}")
    primes = _prime_factors(e)
    # codes below p are 0 and the prime field, whose orders divide p - 1: no
    # primitive element of a proper extension is among them
    for g in field.elements(field.p if field.d > 1 else 1):
        if all((g ** (e // r)) != field.one() for r in primes):
            return g ** (e // q)
    raise NoSuchRoot(f"no primitive element found in {field!r}")  # pragma: no cover


def smallest_field_with_root(p: int, q: int) -> FiniteField:
    """The smallest extension of GF(p) containing an element of order q.

    p is certified prime first: over a composite p the degree search below
    would never end.  It stops once d passes MAX_FIELD_DEGREE."""
    if not _is_prime(p):
        raise CompositeP(f"characteristic {p} is not prime")
    if q < 1:
        raise ParabolicLabError(f"order must be positive, got {q}")
    if q > 1 and q % p == 0:
        raise POrderRequested(
            f"order {q} is divisible by the characteristic {p}")
    d = 1
    while (p ** d - 1) % q:
        d += 1
        if d > MAX_FIELD_DEGREE:
            raise FieldDegreeTooLarge(
                f"an element of order {q} needs GF({p}^d) with d past the "
                f"limit {MAX_FIELD_DEGREE}")
    return FiniteField(p, d)


class LaurentRing:
    """Descriptor for GF(p^d)((t)) as a coefficient ring for series.

    The ring is determined by its residue field alone: precision lives on
    each LaurentScalar, and an inversion whose input does not limit it
    expands the geometric series to DEFAULT_TPREC relative terms.
    """

    __slots__ = ("field", "residue_field")

    def __init__(self, field: FiniteField):
        self.field = self.residue_field = field

    @property
    def char(self) -> int:
        return self.field.p

    def zero(self) -> "LaurentScalar":
        return LaurentScalar(self, 0, (), None)

    def one(self) -> "LaurentScalar":
        return LaurentScalar(self, 0, (self.field.one(),), None)

    def from_int(self, n: int) -> "LaurentScalar":
        return self.embed(self.field.from_int(n))

    def half(self, m: int) -> "LaurentScalar":
        """The constant m/2, as FiniteField.half."""
        return self.embed(self.field.half(m))

    def embed(self, c: FieldElement) -> "LaurentScalar":
        """The constant c as an exact Laurent scalar."""
        if c.field is not self.field and c.field != self.field:
            raise ScalarRingMismatch("constant from a different residue field")
        if c.is_zero():
            return self.zero()
        return LaurentScalar(self, 0, (c,), None)

    def monomial(self, c, exp: int) -> "LaurentScalar":
        c = self.field(c)
        if c.is_zero():
            return self.zero()
        return LaurentScalar(self, exp, (c,), None)

    def t(self, exp: int = 1) -> "LaurentScalar":
        return self.monomial(1, exp)

    def element(self, pairs, tprec: int | None = None) -> "LaurentScalar":
        """Build from {exponent: coefficient} (coefficients int or FieldElement)."""
        if not pairs:
            return LaurentScalar(self, 0, (), tprec)
        exps = sorted(pairs)
        v0 = exps[0]
        # only the slots below tprec are kept, so only they are sized and made
        top = exps[-1] if tprec is None else min(exps[-1], tprec - 1)
        span = max(top - v0 + 1, 0)
        _kernel._check_size(span * self.field.d * np.dtype(
            _coord_dtype(self.field.p)).itemsize, "a t-frame")
        coeffs = [self.field.zero()] * span
        for e, c in pairs.items():
            c = self.field(c)
            if e <= top:
                coeffs[e - v0] = c
        return _make_laurent(self, v0, coeffs, tprec)

    __call__ = _convert

    def __eq__(self, other):
        return self is other or (isinstance(other, LaurentRing)
                                 and self.field == other.field)

    def __hash__(self):
        return hash(("LaurentRing", self.field))

    def __repr__(self):
        return f"Laurent({self.field!r})"


def _make_laurent(ring, v0, coeffs, tprec):
    """Canonicalize: clip to precision, strip zero coefficients at both ends."""
    coeffs = list(coeffs)
    if tprec is not None:
        keep = tprec - v0
        if keep <= 0:
            coeffs = []
        elif len(coeffs) > keep:
            coeffs = coeffs[:keep]
    while coeffs and coeffs[0].is_zero():
        coeffs.pop(0)
        v0 += 1
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    if not coeffs:
        return LaurentScalar(ring, 0, (), tprec)
    return LaurentScalar(ring, v0, tuple(coeffs), tprec)


class LaurentScalar:
    __slots__ = ("ring", "v0", "coeffs", "tprec")

    def __init__(self, ring, v0, coeffs, tprec):
        self.ring = ring
        self.v0 = v0
        self.coeffs = coeffs
        self.tprec = tprec

    @property
    def field(self) -> FiniteField:
        return self.ring.field

    def is_exact(self) -> bool:
        return self.tprec is None

    def is_certified_zero(self) -> bool:
        return not self.coeffs and self.tprec is None

    def is_certified_nonzero(self) -> bool:
        return bool(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def valuation(self) -> int:
        """Exact t-adic valuation.  +inf for the exact zero; raises for a
        truncated zero, whose valuation is merely bounded below by tprec."""
        if self.coeffs:
            return self.v0
        if self.tprec is None:
            return math.inf
        raise IndeterminateValuation(
            f"zero to precision O(t^{self.tprec}); valuation unknown")

    def valuation_lower_bound(self):
        if self.coeffs:
            return self.v0
        return math.inf if self.tprec is None else self.tprec

    def clip(self, tprec: int) -> "LaurentScalar":
        """Forget everything at or above exponent tprec."""
        tp = tprec if self.tprec is None else min(self.tprec, tprec)
        return _make_laurent(self.ring, self.v0, list(self.coeffs), tp)

    _coerce = _coerce

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # an exact zero changes nothing, and scalars are kept canonical; a
        # zero known to O(t^k) adds only its precision
        if other.is_certified_zero():
            return self
        if self.is_certified_zero():
            return other
        if not other.coeffs:
            return self.clip(other.tprec)
        if not self.coeffs:
            return other.clip(self.tprec)
        return _kernel._unpack_laurent(self.ring, _kernel._add_laurent(
            self.field, _kernel._scalar_row(self, self.v0),
            _kernel._scalar_row(other, self.v0)), self.v0)[0]

    __radd__ = __add__

    def __neg__(self):
        return LaurentScalar(self.ring, self.v0,
                             tuple(-c for c in self.coeffs), self.tprec)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    __rsub__ = _rsub

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_certified_zero() or other.is_certified_zero():
            return self.ring.zero()
        if not self.coeffs or not other.coeffs:
            # at least one truncated zero: product is zero to the combined bound
            return LaurentScalar(self.ring, 0, (), self.valuation_lower_bound()
                                 + other.valuation_lower_bound())
        return _kernel._unpack_laurent(self.ring, _kernel._mul_laurent(
            self.field, _kernel._scalar_row(self, self.v0),
            _kernel._scalar_row(other, other.v0), None), self.v0 + other.v0)[0]

    __rmul__ = __mul__

    def inverse(self, rel: int | None = None) -> "LaurentScalar":
        """Multiplicative inverse.

        The result is exact only for monomials; otherwise the geometric series
        is expanded to the relative precision the input supports, or, when
        the input is exact, to rel (default: DEFAULT_TPREC).  The expansion
        is the one a series division inverts its divisor's lead with: the
        Newton reciprocal along t, on the coefficients from t^v0 up.
        """
        if not self.coeffs:
            if self.tprec is None:
                raise DivisionByZero("inverse of the exact zero")
            raise IndeterminateValuation(
                f"inverse of a zero known only to O(t^{self.tprec})")
        return _kernel._unpack_laurent(self.ring, _kernel._inverse_row(
            self.field, _kernel._scalar_row(self, self.v0), rel), -self.v0)[0]

    __truediv__ = _truediv

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return _square_and_multiply(self, n, operator.mul, self.ring.one())

    def __eq__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = self._coerce(other)
        if not isinstance(other, LaurentScalar) or (
                other.ring is not self.ring and other.ring != self.ring):
            return False
        return (self.v0 == other.v0 and self.coeffs == other.coeffs
                and self.tprec == other.tprec)

    def __hash__(self):
        return hash((self.ring, self.v0, self.coeffs, self.tprec))

    def _needs_parens(self) -> bool:
        # more than one term, counting an O(t^k); a lone composite field
        # coefficient already prints in parentheses
        return sum(1 for c in self.coeffs if c) + (self.tprec is not None) > 1

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            e = self.v0 + i
            cs = str(c)
            cpar = f"({cs})" if c._needs_parens() else cs
            if e == 0:
                terms.append(cpar if c._needs_parens() else cs)
            else:
                tp = "t" if e == 1 else f"t^{e}"
                terms.append(tp if c == self.field.one() else f"{cpar}*{tp}")
        if self.tprec is not None:
            terms.append(f"O(t^{self.tprec})")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"({self!s}) over {self.ring!r}"


# The series kernel runs Laurent scalar arithmetic and imports this module
# as it loads, so it is bound last; its functions are looked up at call time.
from . import formal_series as _kernel  # noqa: E402
