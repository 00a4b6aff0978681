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

Multiplication is truncated convolution; composition is Brent and Kung's
baby-step/giant-step evaluation.  Over GF(p^d)((t)), when some coefficient
is known only to O(t^k), its blocks are single rows, which is Horner's
rule: there the order of evaluation changes the certified precision, and
the scalar oracle pins Horner's.  There the outer series is first cut
after its last live row, one that is nonzero or a zero known only to
O(t^k): a germ mod z^N is stored padded with exact zero rows to its
window, and those add nothing, so the row count n that sizes the blocks
runs only up to the last live row.  The finite-field kernel does not cut:
there the scan cost more than it saved.  All of them run on one kernel,
`_kron_mul`: a series is packed into an integer array of shape (N, W, d)
(z-rows, t-slots, coordinates over GF(p)), and a product of two arrays is
a single Python big-integer multiply by Kronecker substitution.
Digits are sized from the operands, so the kernel is exact for every p.
The coefficients share one lowest exponent and each row carries its own
t-precision; a product's rows take theirs by a min-plus rule and are
clipped to it, which gives exactly what schoolbook scalar arithmetic
would.  When every row of both operands is exact, every row of the
product is, and that work is skipped.  LaurentScalar's own products and
sums are these routines on one row (_scalar_row).

A series over either ring stores one packed form, read-only, which every
operation reads and returns: the triple (M, base, tp), tp None when every
row is exact.  Over GF(p^d) it is (M, 0, None) with one t-slot, the triple
of its coefficients as exact constants over GF(p^d)((t)), so sums,
products and quotients of both rings run on _add_laurent, _mul_laurent and
_divide.  Composition keeps a finite-field kernel, measured faster there
(below).  Coefficient objects are packed only where they enter (the
constructor, `series`) and made only where they leave: `coeffs` (built on
first access and kept), `coeff` and the printers.
Inside a finite-field composition (_compose_ff) the digits stay one big
integer from step to step, reduced mod p in place, and become an array
once, at the end; run through _compose_laurent, the ff-profile benchmark
did 17 jobs/s against 43.  One-byte digits over GF(p) are reduced by a
256-byte residue table (bytes.translate), with no array in between.

A finite-field composition whose inner series is near the identity, G =
z + B with ord B = r >= 2, runs as a Taylor expansion instead
(_compose_taylor): F(z + B) = sum_(j<K) D^(j)F * B^j modulo z^limit, with
Hasse derivatives D^(j) z^m = C(m, j)*z^(m-j), defined in every
characteristic, and K = ceil(limit/r).  Horner's rule in j makes K - 1
products, against Brent-Kung's (k - 1) + (m - 1), about 2*sqrt(n); each
iterate f^(q*p^n) of a ramification tower is such a G, with r = i_n + 1.
The route is taken when K <= sqrt(n) and K - 1 plus a set-up charge
(_TAYLOR_SETUP products) is at most Brent-Kung's count, read off the
packed G by one mask and one comparison.  It keeps Brent-Kung's digit
width: every operand of its products is reduced, so a digit sums fewer
products than a Brent-Kung step does.  Over GF(p^d)((t)) composition stays
Brent-Kung (or Horner), also for exact rows: a Taylor route there is left
for the level-3 work that needs it.

Division is packed in both rings: a Newton reciprocal built from the same
products, seeded with the inverse of the divisor's lead, then one product
by the numerator.  The lead is inverted on its packed row by the same
Newton routine run along t (_inverse_row), which LaurentScalar.inverse
calls too; its seed, the inverse of the lowest coefficient, is
FieldElement.inverse's routine (the extended Euclidean algorithm against
the field's modulus).  Exact division of polynomials over GF(p^d)((t)) is
divisibility in GF(p^d)[t, 1/t][z]; over GF(p^d) the lead is a constant,
and so is its inverse.  In both rings an exact quotient is certified by
one more product, den * quot == num.  The compositional inverse divides by
f'(h) in each round of its Newton iteration, but not through _divide: it
keeps 1/f'(h) from one round to the next and resumes the same Newton
reciprocal where the rows of f'(h) changed (TruncatedSeries.inverse).
A caller that reads only a quotient's reduction mod t (the periodic-point
bound) asks divide_exact for just that: for integral inputs exact in t,
the lead is inverted only as far in t as knows every row to t^1, by the
seed-precision rule the exact route uses (_seed_precision).

How much work an operation may do is decided in one place, _WORK_LIMIT:
it bounds the bytes of every Kronecker integer and of every array an input
sizes, and the cells of every product's precision pass; past it the
kernel raises WorkBudgetExceeded (see _check_size).
"""

from __future__ import annotations

import functools
import math
import operator
import sys

import numpy as np

from .coeff_rings import (
    DEFAULT_TPREC,
    FieldElement,
    FiniteField,
    LaurentRing,
    LaurentScalar,
    _coord_dtype,
    _square_and_multiply,
)
from .errors import (
    DivisionByZero,
    IndeterminateValuation,
    NonIntegralCoefficient,
    NonzeroConstantTerm,
    NonUnitLinearTerm,
    NotDivisible,
    NotParabolic,
    ParabolicLabError,
    ScalarRingMismatch,
    SupportViolation,
    TruncationTooSmall,
    WorkBudgetExceeded,
)

__all__ = [
    "TruncatedSeries", "ParabolicGerm", "series", "identity", "monomial",
    "zero_series", "reduce_and_wideg",
]


# ---------------------------------------------------------------------------
# the Kronecker kernel

# Packed t-precision of an exact row: far above any t-exponent a series
# carries, and far enough below the int64 limit that sums of two stay exact.
# A stored series holds t-exponents and precisions below _EXACT in magnitude
# (_pack_laurent refuses the rest).  The operands of a product, composition
# or quotient hold them below _EXPONENT_LIMIT (_check_operands), so no sum
# along a Horner run can come near _EXACT / 2, the threshold that reads as
# exact.
_EXACT = 1 << 60
_EXPONENT_LIMIT = 1 << 32

# The one limit on how much work a series operation may do: no Kronecker
# integer the kernel packs or reads back, and no array whose size an input
# sets (a window, a t-frame), may be larger than this many bytes, and no
# precision pass of a product may pair more than this many rows.  A
# product's cost grows with the byte size of its operands, so an input that
# would run away is refused at its first product past the limit, and a
# window or t-frame before it is allocated.
_WORK_LIMIT = 1 << 18


def count_text(n: int) -> str:
    """n in decimal, or "at least 2^k" from 2^64 on.  A window or size that
    large says nothing more exactly (it derives from p^n at a large level),
    and past the interpreter's int-string limit it would not print at all."""
    return str(n) if n < 1 << 64 else f"at least 2^{n.bit_length() - 1}"


def _check_size(size, what, unit="bytes"):
    """Refuse, with WorkBudgetExceeded, anything larger than _WORK_LIMIT.
    The per-product sites compare before they call it, since a call costs
    more than the comparison and runs on every product."""
    if size > _WORK_LIMIT:
        raise WorkBudgetExceeded(
            f"{what} of {count_text(size)} {unit} is over the work limit of "
            f"{_WORK_LIMIT} {unit}")


def _digit_bytes(top):
    """Bytes per digit for digits up to top: a numpy width while one fits."""
    bits = top.bit_length()
    return (1 if bits <= 8 else 2 if bits <= 16 else 4 if bits <= 32
            else 8 if bits <= 64 else (bits + 7) // 8)


def _to_int(M, S, X, nbytes, offset=0):
    """Pack an (n, W, d) array into one integer: entry (i, w, c) becomes the
    digit (i*S + offset + w)*X + c, each digit nbytes wide."""
    n, W, d = M.shape
    if n * S * X * nbytes > _WORK_LIMIT:
        _check_size(n * S * X * nbytes, "a packed operand")
    if nbytes > 8:
        buf = np.zeros((n, S, X), dtype=object)
        buf[:, offset:offset + W, :d] = M
        return int.from_bytes(b"".join(
            int(v).to_bytes(nbytes, "little") for v in buf.ravel().tolist()),
            "little")
    if W == S and d == X:
        return int.from_bytes(M.astype(f"<u{nbytes}").tobytes(), "little")
    buf = np.zeros((n, S, X), dtype=f"<u{nbytes}")
    buf[:, offset:offset + W, :d] = M
    return int.from_bytes(buf.tobytes(), "little")


@functools.cache
def _residues(p):
    """The 256-byte table of b mod p, for bytes.translate."""
    return bytes(b % p for b in range(256))


def _digits(field, x, count, nbytes):
    """The first count slots of 2d - 1 digits of x, each nbytes wide,
    reduced to coordinates over GF(p).  One-byte digits over GF(p) come
    back as bytes, each reduced by one table lookup (bytes.translate);
    otherwise an array of shape (count, d), flat and of the digits'
    unsigned dtype when d = 1 and nbytes <= 8."""
    p, d = field.p, field.d
    X = 2 * d - 1
    size = count * X
    length = max(size * nbytes, (x.bit_length() + 7) // 8)
    if length > _WORK_LIMIT:
        _check_size(length, "a product")
    raw = x.to_bytes(length, "little")
    if nbytes == 1 and d == 1:
        return raw[:size].translate(_residues(p))
    if nbytes > 8:
        C = np.array([int.from_bytes(raw[i:i + nbytes], "little") % p
                      for i in range(0, size * nbytes, nbytes)], dtype=object)
    else:
        C = np.frombuffer(raw, dtype=f"<u{nbytes}", count=size) % p
    if d == 1:
        return C
    # the x^k -> power basis reduction sums X products below p^2
    red = field._npred
    C = C.reshape(count, X).astype(_coord_dtype(p))
    if X * (p - 1) ** 2 >= 1 << 63:
        C, red = C.astype(object), red.astype(object)
    return (C @ red) % p


def _from_int(field, x, rows, S, nbytes):
    """The first rows*S slots of 2d - 1 digits of x, reduced to coordinates
    over GF(p): an array of shape (rows, S, d)."""
    C = _digits(field, x, rows * S, nbytes)
    if isinstance(C, bytes):
        C = np.frombuffer(C, dtype=np.uint8)
    return C.astype(_coord_dtype(field.p)).reshape(rows, S, field.d)


def _kron_mul(field, A, B, limit):
    """Product of two coefficient arrays by Kronecker substitution.

    A and B have shape (n, W, d): row i is the coefficient of z^i, slot w of
    a row its coefficient of t^w (W = 1 over a finite field), and the last
    axis holds coordinates over GF(p) in [0, p).  Returns the product's rows
    below `limit` (all of them for None), shape (rows, W_A + W_B - 1, d),
    reduced mod p.

    Each operand becomes one integer (_to_int) with S = W_A + W_B - 1 slots
    per row and X = 2d - 1 digits per slot; digit (k*S + w)*X + c of the
    product then collects exactly the terms x^c t^w z^k.  A digit sums at
    most min(n_A, n_B)*min(W_A, W_B)*d products below p^2, and the digit
    width holds that sum, so no digit carries into the next.
    """
    p, d = field.p, field.d
    if limit is not None:
        A, B = A[:limit], B[:limit]
    (nA, WA, _), (nB, WB, _) = A.shape, B.shape
    S, X = WA + WB - 1, 2 * d - 1
    if nA == 0 or nB == 0:
        return np.zeros((0, S, d), dtype=_coord_dtype(p))
    rows = nA + nB - 1 if limit is None else min(nA + nB - 1, limit)
    nbytes = _digit_bytes(min(nA, nB) * min(WA, WB) * d * (p - 1) ** 2)
    return _from_int(field, _to_int(A, S, X, nbytes) * _to_int(B, S, X, nbytes),
                     rows, S, nbytes)


# Over a finite field a series packs to (M, 0, None): one t-slot, all exact.

def _pack(field, coeffs):
    return np.array([c.coords for c in coeffs], dtype=_coord_dtype(
        field.p)).reshape(len(coeffs), 1, field.d), 0, None


def _unpack(field, R):
    return tuple(FieldElement(field, tuple(c)) for c in R[0][:, 0].tolist())


# Brent-Kung evaluation (Brent and Kung, J. ACM 25, 1978), shared by both
# rings: with k = ceil(sqrt(n)), F splits into m blocks of k coefficients,
# block j being the polynomial sum_(i<k) F[jk+i]*G^i, and F(G) is Horner's
# rule in G^k over the blocks, about 2*sqrt(n) products instead of n - 1.
# Each block is a sum of big-integer products of packed rows of F by packed
# powers of G.  With k = 1 the blocks are the rows of F: that is Horner's
# rule itself.

def _bk_shape(n):
    """Block size k, block count m and the coefficients in the last block."""
    k = math.isqrt(n - 1) + 1
    m = (n - 1) // k + 1
    return k, m, n - (m - 1) * k


def _row_ints(x, n, stride):
    """The n packed rows of x, each stride bytes wide, as integers."""
    raw = x.to_bytes(n * stride, "little")
    return [int.from_bytes(raw[i:i + stride], "little")
            for i in range(0, n * stride, stride)]


def _bk_block(rows, powers, k, j):
    """Block j: the packed rows jk .. jk+k-1 of F times the packed G^i."""
    return sum(c * x for c, x in zip(rows[j * k:(j + 1) * k], powers) if c)


def _reduce_int(field, x, rows, nbytes):
    """The first rows*(2d - 1) digits of x reduced to coordinates over GF(p),
    packed again with the same width: what _to_int(_from_int(...)) gives,
    from bytes to bytes without an int64 array in between."""
    d = field.d
    X = 2 * d - 1
    C = _digits(field, x, rows, nbytes)
    if isinstance(C, bytes):
        return int.from_bytes(C, "little")
    if nbytes > 8:
        return _to_int(C.reshape(rows, 1, d), 1, X, nbytes)
    if d > 1:
        buf = np.zeros((rows, X), dtype=f"<u{nbytes}")
        buf[:, :d] = C
        C = buf
    return int.from_bytes(C.tobytes(), "little")


def _compose_ff(field, F, G, limit):
    """Brent-Kung evaluation of F at G (constant term of G zero), or Taylor
    expansion (_compose_taylor) when G is near the identity.

    Everything runs on the packed integers of _kron_mul, all with one digit
    width, and stays packed: the baby powers G^2 .. G^k are products by the
    packed G, and each giant step multiplies by the packed G^k, each
    product reduced digit by digit in one pass (_reduce_int).  A
    coefficient of F is a plain integer of d digits (over GF(p), the
    coordinate itself), so F[jk+i]*G^i is a small multiple of the packed
    G^i, and each block is added to a giant step's product before it is
    reduced.  A digit sums at most
    rows(G^k)*d products below p^2 from a baby or giant step and at most
    k*d more from a block, so the width holds (rows(G^k) + k)*d*(p - 1)^2.
    Digits are read back into an array once, at the end (_from_int).

    Brent-Kung makes (k - 1) + (m - 1) products.  Taylor makes K - 1 for
    G = z + B with K = ceil(limit/ord B), plus set-up worth _TAYLOR_SETUP
    products; it runs when that is no more and K <= sqrt(n), that is when
    ord B >= r_min = ceil(limit/K_max).  The test reads the packed G: its
    rows below r_min are those of z, one mask and one comparison.
    """
    if limit is not None:
        # G vanishes at 0, so F[i]*G^i vanishes below z^limit for i >= limit
        F, G = F[:limit], G[:limit]
    n, nG = F.shape[0], G.shape[0]
    if n == 0 or nG == 0:
        return F[:1]
    p, d = field.p, field.d
    X = 2 * d - 1
    k, m, top = _bk_shape(n)
    rows = [i * (nG - 1) + 1 for i in range(k + 1)]  # rows of G^i
    if limit is not None:
        rows = [min(r, limit) for r in rows]
    nbytes = _digit_bytes((rows[k] + k) * d * (p - 1) ** 2)
    g = _to_int(G, 1, X, nbytes)
    if limit is not None:
        k_max = min(math.isqrt(n), k + m - 1 - _TAYLOR_SETUP)
        if k_max > 0:
            bits = X * nbytes * 8  # one row of G
            r_min = max(2, -(-limit // k_max))
            if g & ((1 << r_min * bits) - 1) == 1 << bits:
                taylor = _compose_taylor(field, F, g - (1 << bits), bits,
                                         limit, nbytes)
                if taylor is not None:
                    return taylor
    packed = [1, g]
    for i in range(2, k + 1):
        packed.append(_reduce_int(field, packed[-1] * g, rows[i], nbytes))
    if d == 1:
        consts = F[:, 0, 0].tolist()
    else:
        consts = _row_ints(_to_int(F, 1, X, nbytes), n, X * nbytes)
    R, r = _bk_block(consts, packed, k, m - 1), rows[top - 1]
    for j in range(m - 2, -1, -1):
        R = _reduce_int(field, R, r, nbytes) * packed[k]
        R += _bk_block(consts, packed, k, j)
        r += rows[k] - 1
        if limit is not None:
            r = min(r, limit)
    return _from_int(field, R, r, 1, nbytes)


# Taylor expansion (Hasse derivatives; Hasse, J. Reine Angew. Math. 175,
# 1936): F(z + B) = sum_(j<K) D^(j)F * B^j, D^(j) z^m = C(m, j)*z^(m-j),
# which holds in every characteristic.  Modulo z^limit with ord B = r the
# sum stops at K = ceil(limit/r), so Horner's rule in j makes K - 1
# products.  Its set-up and the array work of each step (the Hasse
# columns, packed once per step) are charged as this many products when
# the route is chosen.  The figure is the least that keeps every measured
# Taylor composition over GF(2) and GF(3), where products are cheapest, no
# slower than Brent-Kung, from windows of 13 rows to 129; the crossover
# table is in CHANGES.md.
_TAYLOR_SETUP = 8

# Per p, the table T[j, m] = C(m + j, j) mod p: row j is the running sum of
# row j - 1 (Pascal's rule).  A table is kept for at most this many primes,
# and none over _WORK_LIMIT bytes is built.
_HASSE_PRIMES = 4
_hasse_tables = {}


def _hasse(p, K, M):
    """T[j, m] = C(m + j, j) mod p for j < K, m < M (or a larger table), or
    None when it would be over the work limit.  Coordinates of p >= 2^31
    are kept as Python ints, so a product of two stays exact."""
    T = _hasse_tables.get(p)
    if T is None or T.shape[0] < K or T.shape[1] < M:
        nb = _digit_bytes(p - 1)
        dtype = f"<u{nb}" if p < 1 << 31 else object
        item = nb if p < 1 << 31 else 8 + sys.getsizeof(p)
        if T is not None and max(K, len(T)) * max(M, T.shape[1]) * item \
                <= _WORK_LIMIT:
            K, M = max(K, len(T)), max(M, T.shape[1])
        if K * M * item > _WORK_LIMIT:
            return None
        T = np.empty((K, M), dtype=dtype)
        row = np.ones(M, dtype=np.int64 if p < 1 << 31 else object)
        T[0] = row
        for j in range(1, K):
            row = np.cumsum(row) % p
            T[j] = row
        T.flags.writeable = False
    _hasse_tables.pop(p, None)  # the most recent prime goes last
    _hasse_tables[p] = T
    while len(_hasse_tables) > _HASSE_PRIMES:
        del _hasse_tables[next(iter(_hasse_tables))]
    return T


def _compose_taylor(field, F, B, bits, limit, nbytes):
    """F(z + B) mod z^limit by Taylor expansion, for B packed as the G of
    _compose_ff less z (each row bits wide), of order at least 2; None
    when the Hasse table (_hasse) would be over the work limit.

    Horner's rule in j on the packed integers: with b = B/z^r, step j is
    R <- reduce(R)*b*z^r + D^(j)F.  R is multiplied by B^j afterwards, so
    only its rows below L_j = limit - j*r are kept, and b is cut to the
    rows of the product that land there.  Every operand of a product is
    reduced, so a digit sums at most min(L_j, rows(b))*d products below
    p^2, and D^(j)F, whose coordinates C(m + j, j)*F[m + j] are left for
    the next reduction, adds one more.  That is within the
    (rows(G^k) + k)*d*(p - 1)^2 of Brent-Kung's width, since rows(G^k) is
    the window or at least rows(G) = rows(b) + r, so both share nbytes.
    """
    if not B:
        return F
    p, d = field.p, field.d
    X = 2 * d - 1
    r = ((B & -B).bit_length() - 1) // bits
    shift = r * bits
    b = B >> shift
    K = min(-(-limit // r), len(F))
    T = _hasse(p, K, len(F))
    if T is None:
        return None

    def hasse(j, rows):
        c = F[j:j + rows, 0]  # rows m + j of F, coordinates as columns
        H = T[j, :len(c), None] * c
        return _to_int(H.reshape(len(c), 1, d), 1, X, nbytes)

    R = hasse(K - 1, limit - (K - 1) * r)
    for j in range(K - 2, -1, -1):
        rows = limit - (j + 1) * r
        R = (_reduce_int(field, R, rows, nbytes)
             * (b & ((1 << rows * bits) - 1)) << shift) + hasse(j, rows + r)
    return _from_int(field, R, limit, 1, nbytes)


# Over GF(p^d)((t)) a series packs to (M, base, tp): coefficient i is
# sum_w M[i, w]*t^(base + w), known below t^tp[i] (_EXACT when exact).  Rows
# are clipped, so no slot at or above a row's precision is nonzero.  tp is
# None when every row is exact, and the kernels then skip precision work.

def _check_operands(*Rs):
    """Refuse packed kernel operands with a t-exponent or precision of
    magnitude _EXPONENT_LIMIT or more: sums of them along a run of products
    then stay far below the _EXACT sentinel."""
    for M, base, tp in Rs:
        lo, hi = base, base + M.shape[1]
        if tp is not None:
            lo = int(tp.min(initial=lo))
            hi = int(tp[tp < _EXACT].max(initial=hi))
        if max(-lo, hi) >= _EXPONENT_LIMIT:
            raise ParabolicLabError(
                "t-exponents must stay below 2^32 in magnitude in series "
                "products and compositions")


def _pack_laurent(ring, coeffs):
    """Packed coefficient objects.  t-exponents and precisions of magnitude
    _EXACT or more have no packed form, and a t-frame over the work limit is
    not allocated: both are refused."""
    field = ring.field
    live = [c for c in coeffs if c.coeffs]
    base = min((c.v0 for c in live), default=0)
    top = max((c.v0 + len(c.coeffs) for c in live), default=base + 1)
    precs = [c.tprec for c in coeffs if c.tprec is not None]
    if max(abs(base), abs(top), *map(abs, precs)) >= _EXACT:
        raise ParabolicLabError(
            "t-exponents must stay below 2^60 in magnitude in a series, "
            "and below 2^32 in series products and compositions")
    dtype = np.dtype(_coord_dtype(field.p))
    _check_size(len(coeffs) * (top - base) * field.d * dtype.itemsize,
                "a t-frame")
    M = np.zeros((len(coeffs), top - base, field.d), dtype=dtype)
    for i, c in enumerate(coeffs):
        if c.coeffs:
            M[i, c.v0 - base:c.v0 - base + len(c.coeffs)] = [
                e.coords for e in c.coeffs]
    tp = np.array([_EXACT if c.tprec is None else c.tprec for c in coeffs],
                  dtype=np.int64) if precs else None
    return M, base, tp


def _unpack_laurent(ring, R, shift=0):
    """Coefficient objects of packed R, every t-exponent and precision moved
    up by shift, a Python int of any size."""
    M, base, _ = R
    field = ring.field
    out = []
    for row, t in zip(M.tolist(), _precisions(R).tolist()):
        t = None if t >= _EXACT else t + shift
        live = [w for w, c in enumerate(row) if any(c)]
        if not live:
            out.append(LaurentScalar(ring, 0, (), t))
            continue
        # rows are clipped, so the live slots are the canonical scalar
        out.append(LaurentScalar(ring, base + live[0] + shift, tuple(
            FieldElement(field, tuple(c))
            for c in row[live[0]:live[-1] + 1]), t))
    return out


def _scalar_row(s, origin):
    """The Laurent scalar s, with at least one stored coefficient, as a
    one-row packed series counted from t^origin, a Python int of any size.
    A precision 2^32 or more from the origin is refused, as in series
    products (_check_operands)."""
    M = np.array([[c.coords for c in s.coeffs]],
                 dtype=_coord_dtype(s.field.p))
    if s.tprec is None:
        return M, s.v0 - origin, None
    tp = s.tprec - origin
    if abs(tp) >= _EXPONENT_LIMIT:
        raise ParabolicLabError(
            "t-precisions must stay within 2^32 of the t-exponents in "
            "scalar arithmetic")
    return M, s.v0 - origin, np.array([tp])


def _exact_rows(n):
    return np.full(n, _EXACT, dtype=np.int64)


def _precisions(R):
    """Per row: the t-precision, _EXACT when exact."""
    return _exact_rows(len(R[0])) if R[2] is None else R[2]


def _lowest(R):
    """Per row: the first nonzero t-exponent, else the row's precision (a
    zero known to O(t^k) has valuation at least k; an exact zero, _EXACT)."""
    live = R[0].any(axis=2)
    return np.where(live.any(axis=1), R[1] + live.argmax(axis=1),
                    _precisions(R))


def _antidiagonal_min(tA, vA, tB, vB):
    """For each k, the least min(tA[i] + vB[j], vA[i] + tB[j]) over
    i + j = k.  With the shorter operand as A, row i of one matrix is
    shifted right by i (padding _EXACT), so anti-diagonals become columns;
    the work limit bounds the nA*nB cells visited, and so the matrix to
    twice that."""
    if len(tA) > len(tB):
        tA, vA, tB, vB = tB, vB, tA, vA
    nA, nB = len(tA), len(tB)
    if nA * nB > _WORK_LIMIT:
        _check_size(nA * nB, "a precision pass", "cells")
    Z = np.full((nA, nB + nA), _EXACT, dtype=np.int64)
    Z[:, :nB] = np.minimum(tA[:, None] + vB[None, :],
                           vA[:, None] + tB[None, :])
    L = nA + nB - 1
    return Z.ravel()[:nA * L].reshape(nA, L).min(axis=0)


def _all_exact(tp):
    """Whether every row of a packed Laurent series is exact in t."""
    return tp is None or tp.min(initial=_EXACT) >= _EXACT


def _live_rows(R):
    """The number of rows of a packed series up to its last live one, a row
    that is nonzero or a zero known only to O(t^k); every row after it is
    an exact zero."""
    M, _, tp = R
    live = M.any(axis=(1, 2))
    if tp is not None:
        live |= tp < _EXACT
    live = np.flatnonzero(live)
    return int(live[-1]) + 1 if len(live) else 0


def _cut(R, start, stop):
    """Rows start .. stop-1 of a packed series."""
    M, base, tp = R
    return M[start:stop], base, None if tp is None else tp[start:stop]


def _mul_laurent(field, A, B, limit):
    """Packed product of two Laurent series, with per-row t-precision.

    A product of coefficients a*b is known below
    min(tprec(a) + v(b), tprec(b) + v(a)), v being a valuation lower bound;
    a sum, below the least precision of its terms.  Exact zero factors add
    nothing: their _EXACT entries keep the sum at or above _EXACT / 2, which
    reads as exact again.  When every row of both operands is exact, so is
    every row of the product, and none of this needs computing.
    """
    if limit is not None:
        A, B = _cut(A, 0, limit), _cut(B, 0, limit)
    (MA, bA, tA), (MB, bB, tB) = A, B
    M = _kron_mul(field, MA, MB, limit)
    if not len(M):
        return M, 0, None
    if _all_exact(tA) and _all_exact(tB):
        return _trim(M, bA + bB, None)
    tp = _antidiagonal_min(_precisions(A), _lowest(A), _precisions(B),
                           _lowest(B))[:len(M)]
    tp[tp >= _EXACT // 2] = _EXACT
    return _clip(M, bA + bB, tp)


def _clip(M, base, tp):
    """Zero each row at and above its precision, then _trim; a tp of exact
    rows only becomes None."""
    if _all_exact(tp):
        return _trim(M, base, None)
    M[np.arange(M.shape[1])[None, :] >= (tp - base)[:, None]] = 0
    return _trim(M, base, tp)


def _trim(M, base, tp):
    """Drop the empty slots at both ends (one slot is kept when nothing is
    left)."""
    if M.shape[1] == 1 or (np.count_nonzero(M[:, 0])
                           and np.count_nonzero(M[:, -1])):
        return M, base, tp
    live = np.flatnonzero(M.any(axis=(0, 2)))
    if not len(live):
        return M[:, :1], base, tp
    lo, hi = int(live[0]), int(live[-1]) + 1
    return M[:, lo:hi], base + lo, tp


def _add_laurent(field, A, B, shift=0, sign=1):
    """Packed A + sign*z^shift*B.  A missing row is an exact zero; a sum is
    known below the least precision of its terms."""
    (MA, bA, tA), (MB, bB, tB) = A, B
    nA, nB = len(MA), len(MB)
    rows = max(nA, shift + nB)
    lo = min(bA, bB)
    W = max(bA + MA.shape[1], bB + MB.shape[1]) - lo
    if W > MA.shape[1] + MB.shape[1]:
        # the operands' t-frames lie apart, and the input sets the gap
        _check_size(rows * W * field.d * MA.itemsize, "a t-frame")
    M = np.zeros((rows, W, field.d), dtype=MA.dtype)
    M[:nA, bA - lo:bA - lo + MA.shape[1]] = MA
    M[shift:shift + nB, bB - lo:bB - lo + MB.shape[1]] += sign * MB
    M %= field.p
    if tA is None and tB is None:
        return _trim(M, lo, None)
    tp = _exact_rows(rows)
    tp[:nA] = _precisions(A)
    np.minimum(tp[shift:shift + nB], _precisions(B), out=tp[shift:shift + nB])
    return _clip(M, lo, tp)


def _reciprocal_newton(field, D, R, L, h=1):
    """1/D modulo z^L for packed D, from the packed seed R, right modulo
    z^h: by default h = 1 and R = 1/D[0].

    Newton's iteration (Kung 1974): if R is right modulo z^h, then
    R - z^h*R*E is right modulo z^2h, E being the rows h .. 2h-1 of D*R.
    The rows below h are never recomputed, so they keep their precision,
    and a run resumed at h from the rows below h of a run from 1 (h one of
    its doubling points 1, 2, 4, ...) gives what that run gives, for any D
    whose rows below h are the same.
    When D*R has no rows from h on, R is all of 1/D, and fewer than L rows
    come back.
    """
    _check_operands(D, R)
    while h < L:
        h2 = min(2 * h, L)
        E = _mul_laurent(field, D, R, h2)
        if len(E[0]) <= h:
            break
        R = _add_laurent(field, R, _mul_laurent(field, R, _cut(E, h, None),
                                                h2 - h), shift=h, sign=-1)
        h = h2
    return R


def _inverse_row(field, R, rel=None):
    """1/c, packed as one row, for the one-row packed c over GF(p^d)((t)),
    certified nonzero.  An exact monomial has an exact inverse; otherwise
    1/c is expanded to relative precision tprec(c) - v(c), or for an exact
    c to rel (default DEFAULT_TPREC), by _reciprocal_newton along t on the
    slots of c from t^v(c) up: only the result's base -v(c) carries the
    exponent.  The seed, the inverse of c's lowest coefficient, is
    FieldElement.inverse's routine."""
    (row,), base, _ = R
    tprec = int(_precisions(R)[0])
    live = np.flatnonzero(row.any(axis=1))
    v, C = base + int(live[0]), row[live[0]:live[-1] + 1]
    inv = np.array(field._inverse_coords(C[0].tolist()),
                   dtype=_coord_dtype(field.p)).reshape(1, 1, field.d)
    if tprec >= _EXACT and len(C) == 1:
        return inv, -v, None
    r = tprec - v if tprec < _EXACT else DEFAULT_TPREC if rel is None else rel
    M = _reciprocal_newton(field, (C[:r, None], 0, None), (inv, 0, None), r)[0]
    return _clip(M.transpose(1, 0, 2), -v, np.array([r - v]))


def _compose_laurent(field, F, G, limit):
    """Brent-Kung evaluation of packed F at packed G (constant term of G zero).

    F is cut to the window and then after its last live row (_live_rows),
    so n counts F's rows up to the last one that is nonzero or known only
    to O(t^k); the rows after it are exact zeros, and no coefficient,
    t-precision or exactness of the result depends on them.

    When every row of F and G is exact in t, k = ceil(sqrt(n)).  The baby
    powers G^2 .. G^k are _mul_laurent products.  Row i of F is a
    polynomial in t, so F[jk+i]*G^i is a Kronecker product of one packed row
    by the packed G^i.  The powers below G^k are packed in one t-frame, from
    the lowest of their bases, with W_F + W_frame - 1 slots per row: every
    product of a block then lands in the same frame, and the block is summed
    as one integer and read back once.  A digit sums at most
    k*min(W_F, W_frame)*d products below p^2.

    Otherwise k = 1, and block j is the row F[j] with its own t-precision.
    There the order of evaluation changes the certified precision, and
    k = 1 gives Horner's, the one the scalar oracle gives: for F =
    O(t^0)*z^2 and G = x*z + x*z^2 over GF(4)((t)), Horner knows the z^3
    coefficient to O(t^0), while F[2]*G^2 would make it an exact zero.

    The giant steps are _mul_laurent products by G^k, each followed by an
    add of a block.
    """
    _check_operands(F, G)
    if limit is not None:
        # G vanishes at 0, so F[i]*G^i vanishes below z^limit for i >= limit
        F, G = _cut(F, 0, limit), _cut(G, 0, limit)
    F = _cut(F, 0, _live_rows(F))
    (MF, bF, tF), n, nG = F, len(F[0]), len(G[0])
    if n == 0 or nG == 0:
        return _cut(F, 0, 1)
    p, d = field.p, field.d
    X = 2 * d - 1
    exact = _all_exact(tF) and _all_exact(G[2])
    k, m, top = _bk_shape(n) if exact else (1, n, 1)
    tF = _precisions(F)
    one = np.zeros((1, 1, d), dtype=MF.dtype)
    one[0, 0, 0] = 1
    powers = [(one, 0, None), G]
    for _ in range(2, k + 1 if m > 1 else k):  # G^k only for giant steps
        powers.append(_mul_laurent(field, powers[-1], G, limit))
    live = [(M, base) for M, base, _ in powers[:k] if M.any()]
    lo = min(base for _, base in live)
    W = max(base + M.shape[1] for M, base in live) - lo
    WF = MF.shape[1]
    S = WF + W - 1
    nbytes = _digit_bytes(k * min(WF, W) * d * (p - 1) ** 2)
    packed = [_to_int(M, S, X, nbytes, base - lo) if M.any() else 0
              for M, base, _ in powers[:k]]
    consts = _row_ints(_to_int(MF, S, X, nbytes), n, S * X * nbytes)

    def block(j, count):
        rows = max(powers[i][0].shape[0] for i in range(count))
        M = _from_int(field, _bk_block(consts, packed, k, j), rows, S, nbytes)
        return _trim(M, bF + lo, None if exact else tF[j:j + 1])

    R = block(m - 1, top)
    for j in range(m - 2, -1, -1):
        R = _mul_laurent(field, R, powers[k], limit)
        # a block of exact zeros adds nothing, but its t-base would widen
        # R's frame; a row known only to O(t^k) adds its precision
        if not exact or any(consts[j * k:(j + 1) * k]):
            R = _add_laurent(field, R, block(j, k))
    return R


def _seed_precision(B, L, v):
    """The relative t-precision of the lead's inverse that knows every row
    of a quotient below z^L to t^(B + 1), for a numerator and a divisor
    exact in t whose coefficients have valuation >= 0, the divisor's lead
    valuation v.  With a seed of relative precision r, row m of 1/den has
    valuation >= -(m+1)v and is known below r - (m+1)v (induction through
    the Newton steps), so each row of the quotient is known below r - L*v."""
    return B + 1 + L * v


def _divide(field, N, D, L, exact, residue=False):
    """The packed quotient N/D below z^L, for packed N and D whose first
    row, the lead, is certified nonzero; for exact polynomials, the
    candidate exact quotient, which divide_exact certifies.  Both rings
    divide here, a series over GF(p^d) as its exact constants over
    GF(p^d)((t)).

    The inverse of the lead, taken on its packed row (_inverse_row), seeds
    the Newton reciprocal of D, and one more product by N gives the quotient.
    Truncated inputs invert the lead to the precision it supports, so every
    coefficient carries the precision its inputs support.  With residue,
    for N and D exact in t with coefficients of valuation >= 0, the lead is
    inverted only to the relative precision that knows every row of the
    quotient to t^1 (_seed_precision, capped at DEFAULT_TPREC): the
    quotient's reduction mod t is then that of the full expansion, and less
    above it is known.

    Exact inputs with exact coefficients divide in F[t, 1/t][z].  Scaled by
    powers of t to num', den' in F[t][z] with some coefficient prime to t,
    a quotient Q' = num'/den' lies in F[t][z] with deg_t Q' = B =
    deg_t num' - deg_t den' (Gauss's lemma: the t-adic valuation and the
    t-degree are additive).  So Q' is computed to t-precision B + 1 and
    each coefficient is cut there and made exact; if num is divisible, that
    is the quotient.  Over GF(p^d), B = 0 and the lead is a constant, whose
    inverse is exact.
    Every iterate quotient of cycle_valuations lies in F[t, 1/t][z]:
    f^m(z) - z is the sum of h(f^k(z)) over k < m, h = f - id, and
    h(y) - h(z) is divisible by y - z.

    An exact polynomial with a coefficient known only to O(t^k) divides only
    by a single term c*z^b, which every candidate numerator is divisible by;
    any other divisibility cannot be decided and raises.
    """
    _check_operands(N, D)
    lead = _cut(D, 0, 1)

    def quotient(rel=None):
        R = _reciprocal_newton(field, D, _inverse_row(field, lead, rel), L)
        return _mul_laurent(field, N, R, L)

    # the lead's first live slot: v(lead) less the base of D
    v1 = int(lead[0][0].any(axis=1).argmax())
    t_exact = _all_exact(N[2]) and _all_exact(D[2])
    if not (exact and t_exact):
        if exact and len(D[0]) > 1:
            raise IndeterminateValuation(
                "exact division by a polynomial of several terms needs "
                "coefficients known exactly, not to O(t^k)")
        if residue and t_exact:
            return quotient(min(DEFAULT_TPREC,
                                _seed_precision(0, L, D[1] + v1)))
        return quotient()
    B = N[0].shape[1] - D[0].shape[1]
    if B < 0:
        raise NotDivisible("t-degree of the numerator below the denominator's")
    top = N[1] - D[1] + B + 1
    # num' and den' lie in F[t][z], and v1 is v(lead'): each row of Q' is
    # known below B + 1
    M, base, _ = quotient(_seed_precision(B, L, v1))
    M, base, _ = _clip(M, base, np.full(len(M), top, dtype=np.int64))
    return M, base, None


def _is_ff(ring):
    return isinstance(ring, FiniteField)


def _fit(arr, n_trunc):
    """arr made the storage of a series mod z^n_trunc: cut, or padded with
    exact zero rows, to n_trunc rows; for an exact series (None), cut after
    the last row that is not an exact zero.  The slots are trimmed, an
    all-zero array sits at base 0, and a tp of exact rows only is stored as
    None, so that equal series have equal arrays.  The arrays are made
    read-only: series share them (truncate gives views)."""
    M, base, tp = arr
    n = len(M)
    if n_trunc is None:
        n_trunc = n
        if n and not np.count_nonzero(M[-1]) and (tp is None
                                                   or tp[-1] >= _EXACT):
            n_trunc = _live_rows(arr)
    if n >= n_trunc:
        M = M[:n_trunc]
    else:
        _check_size(n_trunc * math.prod(M.shape[1:]) * M.itemsize,
                    "a series window")
        M = np.concatenate(
            [M, np.zeros((n_trunc - n,) + M.shape[1:], dtype=M.dtype)])
    M.flags.writeable = False
    if tp is None or _all_exact(tp[:n_trunc]):
        tp = None
    else:
        tp = np.concatenate([tp[:n_trunc], _exact_rows(max(0, n_trunc - n))])
        tp.flags.writeable = False
    M, base, tp = _trim(M, base, tp)
    if base and M.shape[1] == 1 and not np.count_nonzero(M):
        base = 0
    return M, base, tp


def _array_key(M):
    return M.shape, (M.tobytes() if M.dtype != object
                     else tuple(M.ravel().tolist()))


class TruncatedSeries:
    """A series over GF(p^d) or GF(p^d)((t)), stored packed as the triple
    (M, base, tp) of the module docstring; over GF(p^d) it is (M, 0, None).
    Stored arrays are read-only, since operations share them (truncate
    returns views).  `coeffs` is the tuple of coefficient objects, built on
    first access."""

    __slots__ = ("ring", "n_trunc", "_arr", "_coeffs")

    def __init__(self, ring, coeffs, n_trunc):
        """Normalize: dense of length n_trunc when truncated, stripped when exact."""
        coeffs = list(coeffs)[:n_trunc]
        pack = _pack if _is_ff(ring) else _pack_laurent
        self._set(ring, pack(ring, coeffs), n_trunc)

    def _set(self, ring, arr, n_trunc):
        if n_trunc is not None and n_trunc < 1:
            raise ParabolicLabError(f"truncation must be >= 1, got {n_trunc}")
        self.ring = ring
        self.n_trunc = n_trunc
        self._arr = _fit(arr, n_trunc)
        self._coeffs = None

    @classmethod
    def _from_packed(cls, ring, arr, n_trunc):
        """The series over ring stored as arr (see the class docstring),
        normalized like the constructor's coefficients."""
        s = cls.__new__(cls)
        s._set(ring, arr, n_trunc)
        return s

    @property
    def coeffs(self):
        if self._coeffs is None:
            unpack = _unpack if _is_ff(self.ring) else _unpack_laurent
            self._coeffs = tuple(unpack(self.ring, self._arr))
        return self._coeffs

    # -- basics ------------------------------------------------------------

    def _rows(self):
        return len(self._arr[0])

    def _vanishes_at_0(self):
        """Whether the constant term is certified zero."""
        M, _, tp = self._arr
        return not len(M) or (not M[0].any() and (tp is None
                                                  or tp[0] >= _EXACT))

    def is_exact(self) -> bool:
        return self.n_trunc is None

    def degree(self):
        """Degree of an exact polynomial (-inf for the zero polynomial)."""
        if self.n_trunc is not None:
            raise ParabolicLabError("degree of a truncated series is undefined")
        return self._rows() - 1 if self._rows() else -math.inf

    def coeff(self, i: int):
        if i < 0:
            raise IndexError(i)
        if self.n_trunc is not None and i >= self.n_trunc:
            raise TruncationTooSmall(
                f"coefficient {i} requested, stored modulo z^{self.n_trunc}")
        if i >= self._rows():
            return self.ring.zero()
        if self._coeffs is not None:
            return self._coeffs[i]
        if _is_ff(self.ring):
            return FieldElement(self.ring, tuple(self._arr[0][i, 0].tolist()))
        return _unpack_laurent(self.ring, _cut(self._arr, i, i + 1))[0]

    def order(self):
        """Index of the first certified-nonzero coefficient.

        Returns +inf for the exact zero polynomial and None when the series
        vanishes through its whole truncation window (order beyond reach).
        Raises IndeterminateValuation if a coefficient that is zero only to
        its stored t-precision is hit first.
        """
        M, _, tp = self._arr
        live = M.any(axis=(1, 2))
        # a row is certified zero when empty and exact
        first = np.flatnonzero(live if tp is None else live | (tp < _EXACT))
        if not len(first):
            return math.inf if self.n_trunc is None else None
        i = int(first[0])
        if not live[i]:
            raise IndeterminateValuation(
                f"coefficient of z^{i} is zero only to stored precision")
        return i

    def truncate(self, n: int) -> "TruncatedSeries":
        if self.n_trunc is not None:
            if n > self.n_trunc:
                raise TruncationTooSmall(
                    f"cannot extend truncation {self.n_trunc} to {n}")
            if n == self.n_trunc:
                return self
        return self._with_window(n)

    def _with_window(self, n):
        """The same coefficients claimed modulo z^n: cut, or padded with
        zeros."""
        return TruncatedSeries._from_packed(self.ring, self._arr, n)

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

    def _termwise(self, other, sign):
        self._check_ring(other)
        ring = self.ring
        return TruncatedSeries._from_packed(ring, _add_laurent(
            ring.residue_field, self._arr, other._arr, sign=sign),
            self._meet(other))

    def __add__(self, other):
        return self._termwise(other, 1)

    def __sub__(self, other):
        return self._termwise(other, -1)

    def __neg__(self):
        M, base, tp = self._arr
        return TruncatedSeries._from_packed(
            self.ring, (-M % self.ring.residue_field.p, base, tp), self.n_trunc)

    # -- multiplication and composition ------------------------------------

    def __mul__(self, other):
        self._check_ring(other)
        n = self._meet(other)
        _check_operands(self._arr, other._arr)
        return TruncatedSeries._from_packed(self.ring, _mul_laurent(
            self.ring.residue_field, self._arr, other._arr, n), n)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(z)); the inner series must vanish at 0.

        Brent-Kung evaluation on the packed kernel: _compose_ff over GF(p^d),
        _compose_laurent over GF(p^d)((t)).  When a coefficient of either
        series below the window is known only to O(t^k), the Laurent
        routine takes blocks of one row, so it evaluates in Horner's order
        and certifies the precision the scalar oracle gives.  Its blocks
        are sized by self's rows up to the last live one (nonzero, or known
        only to O(t^k)), not by the exact zero rows that pad self to its
        window.

        Over GF(p^d), a truncated inner series z + B with ord B = r >= 2
        is composed by Taylor expansion, sum_(j<K) D^(j)self * B^j with
        Hasse derivatives and K = ceil(N/r): K - 1 products, taken when K
        <= sqrt(N) and K - 1 plus a set-up charge is at most Brent-Kung's
        count.  Its products keep Brent-Kung's digit width, since each
        multiplies reduced operands.  Over GF(p^d)((t)) there is no Taylor
        route (see the module docstring).
        """
        self._check_ring(inner)
        if not inner._vanishes_at_0():
            raise NonzeroConstantTerm("inner series has nonzero constant term")
        n = self._meet(inner)
        ring = self.ring
        if _is_ff(ring):
            arr = _compose_ff(ring, self._arr[0], inner._arr[0], n), 0, None
        else:
            arr = _compose_laurent(ring.field, self._arr, inner._arr, n)
        return TruncatedSeries._from_packed(ring, arr, n)

    def iterate(self, m: int) -> "TruncatedSeries":
        """m-fold compositional iterate, by binary powering.

        Iterates of a single series commute, so square-and-multiply applies to
        the composition monoid.
        """
        if m < 0:
            raise ParabolicLabError(f"iterate count must be >= 0, got {m}")
        if m == 0:
            return identity(self.ring, self.n_trunc)
        if not self._vanishes_at_0():
            raise NonzeroConstantTerm("iteration needs a series fixing 0")
        return _square_and_multiply(self, m, TruncatedSeries.compose, None)

    def power(self, e: int) -> "TruncatedSeries":
        """Multiplicative e-th power (repeated squaring)."""
        if e < 0:
            raise ParabolicLabError(f"power must be >= 0, got {e}")
        return _square_and_multiply(
            self, e, operator.mul,
            TruncatedSeries(self.ring, [self.ring.one()], self.n_trunc))

    def stretch(self, q: int) -> "TruncatedSeries":
        """Substitute z -> z^q (indices multiply by q)."""
        if q < 1:
            raise ParabolicLabError(f"stretch factor must be >= 1, got {q}")
        n = None if self.n_trunc is None else (self.n_trunc - 1) * q + 1
        # a truncated series is dense, so its stretch has length n exactly
        M, base, tp = self._arr
        out = np.zeros((max(0, (len(M) - 1) * q + 1),) + M.shape[1:],
                       dtype=M.dtype)
        out[::q] = M
        if tp is not None:
            tp, tq = _exact_rows(len(out)), tp
            tp[::q] = tq
        return TruncatedSeries._from_packed(self.ring, (out, base, tp), n)

    def derivative(self) -> "TruncatedSeries":
        """f' mod z^(N-1); mod z^1 nothing of f' is known, not even f'(0)."""
        if self.n_trunc == 1:
            raise TruncationTooSmall("the derivative of a series mod z^1 "
                                     "is unknown")
        n = None if self.n_trunc is None else self.n_trunc - 1
        M, base, tp = self._arr
        p, rows = self.ring.char, len(M)
        # row i - 1 of f' is i times row i of f, coordinate by coordinate
        k = np.arange(1, max(rows, 1), dtype=np.int64)
        if p < rows:
            k %= p
        if (p - 1) * rows >= 1 << 63:
            M, k = M.astype(object), k.astype(object)
        D = (M[1:] * k[:, None, None] % p).astype(_coord_dtype(p))
        if tp is not None:
            # i * c is the exact zero when p divides i
            tp = np.where(k == 0, _EXACT, tp[1:])
        return TruncatedSeries._from_packed(self.ring, (D, base, tp), n)

    def inverse(self, n_trunc: int | None = None) -> "TruncatedSeries":
        """Compositional inverse, by Newton iteration on h -> h - (f(h)-z)/f'(h).

        The correction step is justified degree by degree over any coefficient
        field: writing h = H + e with e of order m >= 2, the terms of f(H + e)
        beyond the linear one have order >= 2m (binomial expansion, no division
        by integers involved), so each round doubles the correct window.

        R = 1/f'(h) is carried from round to round (Brent and Kung 1978):
        seeded once with the inverse of the lead c1 on its packed row, each
        round resumes its Newton reciprocal (_reciprocal_newton) at m, the
        precision the previous round started from.  The h of that round was
        right modulo z^m, so err = f(hp) - z vanished below row m and the
        correction left h, and with it f'(h) and the Newton rows of
        1/f'(h), unchanged below m.  A run from row 1 passes through the
        same doubling points m -> 2m -> prec, so the rows and their
        t-precisions are the ones it would give.
        """
        if not self._vanishes_at_0():
            raise NonzeroConstantTerm("compositional inverse needs f(0) = 0")
        if not self.coeff(1).is_certified_nonzero():
            raise NonUnitLinearTerm("linear coefficient is not certified invertible")
        if n_trunc is None:
            if self.n_trunc is None:
                raise ParabolicLabError(
                    "exact polynomial input: an explicit truncation is required")
            n_trunc = self.n_trunc
        N, ring = n_trunc, self.ring
        field = ring.residue_field
        R = _inverse_row(field, _cut(self._arr, 1, 2))
        h = identity(ring, min(2, N)) * TruncatedSeries._from_packed(
            ring, R, None)
        fprime = self.derivative()
        m, prec = 1, 2
        while prec < N:
            start, prec = prec, min(2 * prec, N)
            hp = h._with_window(prec)
            err = self.compose(hp) - identity(ring, prec)
            D = fprime.compose(hp)
            R = _reciprocal_newton(field, D._arr, _cut(R, 0, m), D.n_trunc, m)
            m = start
            # f' is only known one index short of f, but the correction term
            # err * R has ord(err) >= 2, so the top coefficient of the
            # reciprocal never reaches indices below prec; pad the claim.
            h = hp - err * TruncatedSeries._from_packed(ring, R, prec)
        return h

    # -- division ----------------------------------------------------------

    def divide_exact(self, den: "TruncatedSeries", *,
                     _residue=False) -> "TruncatedSeries":
        """Divide self by den from the bottom.

        Returns the quotient.  For truncated inputs it is computed modulo
        z^(N - ord(den)).  For exact polynomial inputs the division is
        certified, in both rings by multiplying back: den * quot != self
        raises NotDivisible.

        Both rings run one packed routine, _divide: a Newton reciprocal of
        den times self, a series over GF(p^d) taken as its exact constants
        over GF(p^d)((t)).  Over GF(p^d)((t)) exact division means
        divisibility in F[t, 1/t][z]; the quotient is then a polynomial in z
        and t whose t-degrees the inputs bound, so it is computed to that
        t-precision and made exact.

        _residue, for self and den with coefficients of valuation >= 0,
        asks only for a quotient whose reduction mod t is certified: when
        both are exact in t, the divisor's lead is inverted only as far in t
        as that needs (see _divide).
        """
        self._check_ring(den)
        b = den.order()
        if b is math.inf:
            raise DivisionByZero("division by the exact zero series")
        if b is None:
            raise IndeterminateValuation(
                "denominator vanishes through its truncation window")
        exact = self.n_trunc is None and den.n_trunc is None
        # the window of a truncated quotient: once a is certified, b <= a <
        # self.n_trunc and b < den.n_trunc make it at least 1
        L = None if exact else min(n - b for n in (self.n_trunc, den.n_trunc)
                                   if n is not None)
        a = self.order()
        if a is math.inf:
            # exactly zero numerator: the quotient is exactly zero
            return zero_series(self.ring, None)
        if a is None:
            return zero_series(self.ring, max(L, 1))
        if a < b:
            raise NotDivisible(f"ord(num) = {a} < ord(den) = {b}")
        if exact:
            L = self._rows() - den._rows() + 1
            if L <= 0:
                raise NotDivisible("numerator degree below denominator degree")
        n_out = None if exact else L
        stop = None if exact else b + L
        N, D = (_trim(*_cut(s._arr, b, stop)) for s in (self, den))
        quot = TruncatedSeries._from_packed(self.ring, _divide(
            self.ring.residue_field, N, D, L, exact, _residue), n_out)
        # with a coefficient known only to O(t^k) the divisor is a single
        # term, which divides every candidate numerator (_divide)
        if (exact and self._arr[2] is None and den._arr[2] is None
                and den * quot != self):
            raise NotDivisible("nonzero remainder")
        return quot

    # -- misc --------------------------------------------------------------

    def __eq__(self, other):
        if not (isinstance(other, TruncatedSeries) and self.ring == other.ring
                and self.n_trunc == other.n_trunc):
            return False
        (M, base, tp), (M2, base2, tp2) = self._arr, other._arr
        return (base == base2 and np.array_equal(tp, tp2)
                and np.array_equal(M, M2))

    def __hash__(self):
        M, base, tp = self._arr
        return hash((self.ring, self.n_trunc, _array_key(M), base,
                     None if tp is None else tp.tobytes()))

    def __repr__(self):
        head = ", ".join(str(self.coeff(i)) for i in range(min(8, self._rows())))
        tail = ", ..." if self._rows() > 8 else ""
        mod = "exact" if self.n_trunc is None else f"mod z^{self.n_trunc}"
        return f"TruncatedSeries([{head}{tail}] {mod} over {self.ring!r})"


def series(ring, entries, n_trunc) -> TruncatedSeries:
    """Build a series from {exponent: coefficient}; ints and field elements
    are coerced into the ring."""
    length = (max(entries) + 1 if entries else 0) if n_trunc is None else n_trunc
    rows, coeffs = [], []
    for e, c in entries.items():
        if e < 0:
            raise ParabolicLabError(f"negative z-exponent {e}")
        if e < length:
            rows.append(e)
            coeffs.append(ring(c))
    length = max(length, 0)  # a window below 1 is refused by the series
    # only the given coefficients are packed, then scattered into zeros
    pack = _pack if _is_ff(ring) else _pack_laurent
    M, base, tp = pack(ring, coeffs)
    _check_size(length * math.prod(M.shape[1:]) * M.itemsize,
                "a series window")
    A = np.zeros((length,) + M.shape[1:], dtype=M.dtype)
    A[rows] = M
    if tp is not None:
        tp, given = _exact_rows(length), tp
        tp[rows] = given
    return TruncatedSeries._from_packed(ring, (A, base, tp), n_trunc)


def check_window(field, n_trunc):
    """Refuse, as series() would, a window of n_trunc rows over GF(p^d)."""
    _check_size(n_trunc * field.d * np.dtype(_coord_dtype(field.p)).itemsize,
                "a series window")


def identity(ring, n_trunc) -> TruncatedSeries:
    """z, built packed: no coefficient object is made."""
    field = ring.residue_field
    A = np.zeros((2, 1, field.d), dtype=_coord_dtype(field.p))
    A[1, 0, 0] = 1
    return TruncatedSeries._from_packed(ring, (A, 0, None), n_trunc)


def monomial(ring, c, e: int, n_trunc) -> TruncatedSeries:
    return series(ring, {e: c}, n_trunc)


def zero_series(ring, n_trunc) -> TruncatedSeries:
    return TruncatedSeries(ring, [], n_trunc)


def reduce_and_wideg(f: TruncatedSeries):
    """Reduce an integral series over O_k coefficientwise to the residue field
    and return (reduction, Weierstrass degree).

    The Weierstrass degree is the order of the reduction: an int, +inf when the
    reduction is certified identically zero (exact input only), or None when it
    vanishes through the truncation window.
    """
    if not isinstance(f.ring, LaurentRing):
        raise ScalarRingMismatch("reduction needs a series over a Laurent ring")
    M, base, tp = f._arr
    # a residue is undefined at a negative valuation and undetermined below
    # precision t^1; the first such row raises.  A clipped row's nonzero
    # slots lie below its precision, so a row is live exactly when its
    # lowest exponent is below its precision, and then that exponent is < 0
    low, prec = _lowest(f._arr), _precisions(f._arr)
    bad = np.flatnonzero(np.minimum(low, prec - 1) < 0)
    if len(bad):
        i = bad[0]
        if low[i] < prec[i]:
            raise NonIntegralCoefficient(f"valuation {int(low[i])} < 0")
        raise IndeterminateValuation(
            f"reduction of a zero known only to O(t^{int(prec[i])})")
    if 0 <= -base < M.shape[1]:
        red = M[:, -base:1 - base]
    else:
        red = np.zeros((len(M), 1, M.shape[2]), dtype=M.dtype)
    reduced = TruncatedSeries._from_packed(f.ring.field, (red, 0, None),
                                           f.n_trunc)
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

    def pushforward(self) -> TruncatedSeries:
        """The series ghat(w) = w*U(w)^q that pi(z) = z^q carries
        g = gamma*z*U(z^q) to, pi o g = ghat o pi: exact when g is, else
        known one index further than U^q.

        It is built on packed rows: g/gamma is one kernel product by the
        exact constant 1/gamma, and its rows 1, 1 + q, 1 + 2q, ... are U.
        Every other row of g must be a certified zero; the first that is
        not raises SupportViolation, or IndeterminateValuation when it is
        zero only to stored precision.
        """
        q, s = self.q, self.series
        M, base, tp = s._arr
        live = M.any(axis=(1, 2))
        off = live | (tp < _EXACT) if tp is not None else live.copy()
        off[1::q] = False  # row 0 of a germ is a certified zero
        bad = np.flatnonzero(off)
        if len(bad):
            e = int(bad[0])
            if live[e]:
                raise SupportViolation(
                    f"exponent {e} is not congruent to 1 mod {q}")
            raise IndeterminateValuation(
                f"exponent {e} is zero only to stored precision")
        ring = s.ring
        inv = _inverse_row(ring.residue_field, (M[1:2], base, None))
        M, base, tp = (s * TruncatedSeries._from_packed(ring, inv, None))._arr
        cap = None if s.n_trunc is None else (s.n_trunc - 2) // q + 1
        unit = TruncatedSeries._from_packed(
            ring, (M[1::q], base, None if tp is None else tp[1::q]), cap)
        M, base, tp = unit.power(q)._arr
        return TruncatedSeries._from_packed(ring, (
            np.concatenate([np.zeros_like(M[:1]), M]), base,
            None if tp is None else np.concatenate([[_EXACT], tp])),
            None if cap is None else cap + 1)

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
