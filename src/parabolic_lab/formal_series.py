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
the scalar oracle pins Horner's.  All of them run on one kernel,
`_kron_mul`: a series is packed into an integer array of shape (N, W, d)
(z-rows, t-slots, coordinates over GF(p)), and a product of two arrays is
a single Python big-integer multiply by Kronecker substitution.
Digits are sized from the operands, so the kernel is exact for every p.
Over GF(p^d) the array has one t-slot (W = 1).  Over GF(p^d)((t)) the
coefficients share one lowest exponent and each row carries its own
t-precision; a product's rows take theirs by a min-plus rule and are
clipped to it, which gives exactly what scalar LaurentScalar arithmetic
would.  When every row of both operands is exact, every row of the
product is, and that work is skipped.
Series still store coefficient objects: arrays are packed once per product
or composition and unpacked once at its end.

Division over GF(p^d)((t)) is packed too: a Newton reciprocal built from
the same products, then one product by the numerator; exact division of
polynomials there is divisibility in GF(p^d)[t, 1/t][z], certified by one
more product.  Over GF(p^d) division is the scalar recurrence, which costs
less than packing at the windows it meets: a packed Newton reciprocal lost
at the windows `inverse` uses (N = 4, 8, 15) and won only from about N = 40
(0.5-0.8 ms against 2.0-3.3 ms there, 0.9-1.2 ms against 18-28 ms at
N = 129).
"""

from __future__ import annotations

import math
import operator
from itertools import zip_longest

import numpy as np

from .coeff_rings import (
    FieldElement,
    FiniteField,
    LaurentRing,
    LaurentScalar,
    _make_laurent,
    _series_quotient,
    _square_and_multiply,
)
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
# the Kronecker kernel

# Packed t-precision of an exact row: far above any t-exponent a series
# carries, and far enough below the int64 limit that sums of two stay exact.
# Packing refuses t-exponents and precisions of magnitude _EXPONENT_LIMIT or
# more, so no sum along a Horner run can come near _EXACT / 2, the
# threshold that reads as exact.
_EXACT = 1 << 60
_EXPONENT_LIMIT = 1 << 32


def _coord_dtype(p):
    """numpy dtype holding coordinates mod p and sums of two of them."""
    return np.int64 if p < 1 << 62 else object


def _digit_bytes(top):
    """Bytes per digit for digits up to top: a numpy width while one fits."""
    bits = top.bit_length()
    return (1 if bits <= 8 else 2 if bits <= 16 else 4 if bits <= 32
            else 8 if bits <= 64 else (bits + 7) // 8)


def _to_int(M, S, X, nbytes, offset=0):
    """Pack an (n, W, d) array into one integer: entry (i, w, c) becomes the
    digit (i*S + offset + w)*X + c, each digit nbytes wide."""
    n, W, d = M.shape
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


def _from_int(field, x, rows, S, nbytes):
    """The first rows*S slots of 2d - 1 digits of x, reduced to coordinates
    over GF(p): an array of shape (rows, S, d)."""
    p, d = field.p, field.d
    X = 2 * d - 1
    size = rows * S * X
    raw = x.to_bytes(max(size * nbytes, (x.bit_length() + 7) // 8), "little")
    if nbytes > 8:
        C = np.array([int.from_bytes(raw[i:i + nbytes], "little") % p
                      for i in range(0, size * nbytes, nbytes)], dtype=object)
    else:
        C = np.frombuffer(raw, dtype=f"<u{nbytes}", count=size) % p
    C = C.astype(_coord_dtype(p)).reshape(rows, S, X)
    if d == 1:
        return C
    # the x^k -> power basis reduction sums X products below p^2
    red = field._npred
    if X * (p - 1) ** 2 >= 1 << 63:
        C, red = C.astype(object), red.astype(object)
    return ((C @ red) % p).astype(_coord_dtype(p))


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


# Over a finite field a series packs to an (n, 1, d) array.

def _pack(field, coeffs):
    return np.array([c.coords for c in coeffs],
                    dtype=_coord_dtype(field.p)).reshape(len(coeffs), 1, field.d)


def _unpack(field, arr):
    return tuple(FieldElement(field, tuple(row)) for row in arr[:, 0].tolist())


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


def _compose_ff(field, F, G, limit):
    """Brent-Kung evaluation of F at G (constant term of G zero).

    Everything runs on the packed integers of _kron_mul (_to_int and
    _from_int), all with one digit width.  The baby powers G^2 .. G^k are
    products by the packed G, each read back once and packed once.  A
    coefficient of F is a plain integer of d digits, so F[jk+i]*G^i is a
    small multiple of the packed G^i, and each block is added to a giant
    step's product before its digits are read back.  A digit sums at most
    rows(G^k)*d products below p^2 from a baby or giant step and at most
    k*d more from a block, so the width holds (rows(G^k) + k)*d*(p - 1)^2.
    """
    if limit is not None:
        G = G[:limit]
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
    packed = [1, g]
    for i in range(2, k + 1):
        packed.append(_to_int(_from_int(field, packed[-1] * g, rows[i], 1,
                                        nbytes), 1, X, nbytes))
    consts = _row_ints(_to_int(F, 1, X, nbytes), n, X * nbytes)
    R = _from_int(field, _bk_block(consts, packed, k, m - 1), rows[top - 1], 1,
                  nbytes)
    for j in range(m - 2, -1, -1):
        r = R.shape[0] + rows[k] - 1
        if limit is not None:
            r = min(r, limit)
        R = _from_int(field, _to_int(R, 1, X, nbytes) * packed[k]
                      + _bk_block(consts, packed, k, j), r, 1, nbytes)
    return R


# Over GF(p^d)((t)) a series packs to (M, base, tp): coefficient i is
# sum_w M[i, w]*t^(base + w), known below t^tp[i] (_EXACT when exact).  Rows
# are clipped, so no slot at or above a row's precision is nonzero.

def _pack_laurent(ring, coeffs):
    field = ring.field
    live = [c for c in coeffs if c.coeffs]
    base = min((c.v0 for c in live), default=0)
    top = max((c.v0 + len(c.coeffs) for c in live), default=base + 1)
    precs = [c.tprec for c in coeffs if c.tprec is not None]
    if max(abs(e) for e in (base, top, *precs)) >= _EXPONENT_LIMIT:
        raise ParabolicLabError(
            "t-exponents must stay below 2^32 in magnitude in series "
            "products and compositions")
    M = np.zeros((len(coeffs), top - base, field.d),
                 dtype=_coord_dtype(field.p))
    for i, c in enumerate(coeffs):
        if c.coeffs:
            M[i, c.v0 - base:c.v0 - base + len(c.coeffs)] = [
                e.coords for e in c.coeffs]
    tp = np.array([_EXACT if c.tprec is None else c.tprec for c in coeffs],
                  dtype=np.int64)
    return M, base, tp


def _unpack_laurent(ring, R):
    M, base, tp = R
    field = ring.field
    live = M.any(axis=2)
    out = []
    for row, mask, t in zip(M.tolist(), live, tp.tolist()):
        t = None if t >= _EXACT else t
        if not mask.any():
            out.append(LaurentScalar(ring, 0, (), t))
            continue
        lo = int(mask.argmax())
        hi = len(mask) - int(mask[::-1].argmax())
        out.append(_make_laurent(ring, base + lo, [
            FieldElement(field, tuple(c)) for c in row[lo:hi]], t))
    return out


def _lowest(R):
    """Per row: the first nonzero t-exponent, else the row's precision (a
    zero known to O(t^k) has valuation at least k; an exact zero, _EXACT)."""
    M, base, tp = R
    live = M.any(axis=2)
    return np.where(live.any(axis=1), base + live.argmax(axis=1), tp)


# Entries per block of the min-plus matrix in _antidiagonal_min: a giant
# step over exact polynomials can pair thousands of rows with thousands.
_MINPLUS_CELLS = 1 << 18


def _antidiagonal_min(tA, vA, tB, vB):
    """For each k, the least min(tA[i] + vB[j], vA[i] + tB[j]) over
    i + j = k.  Each block of rows of A becomes a matrix whose row r is
    shifted right by r (padding _EXACT), so anti-diagonals become columns;
    blocks of about _MINPLUS_CELLS entries keep the memory linear."""
    nA, nB = len(tA), len(tB)
    out = np.full(nA + nB - 1, _EXACT, dtype=np.int64)
    step = max(1, _MINPLUS_CELLS // (nA + nB))
    for i in range(0, nA, step):
        r = min(step, nA - i)
        Z = np.full((r, nB + r), _EXACT, dtype=np.int64)
        Z[:, :nB] = np.minimum(tA[i:i + r, None] + vB[None, :],
                               vA[i:i + r, None] + tB[None, :])
        L = nB + r - 1
        np.minimum(out[i:i + L], Z.ravel()[:r * L].reshape(r, L).min(axis=0),
                   out=out[i:i + L])
    return out


def _all_exact(tp):
    """Whether every row of a packed Laurent series is exact in t."""
    return tp.min(initial=_EXACT) >= _EXACT


def _exact_rows(n):
    return np.full(n, _EXACT, dtype=np.int64)


def _mul_laurent(field, A, B, limit):
    """Packed product of two Laurent series, with per-row t-precision.

    A product of coefficients a*b is known below
    min(tprec(a) + v(b), tprec(b) + v(a)), v being a valuation lower bound;
    a sum, below the least precision of its terms.  Exact zero factors add
    nothing: their _EXACT entries keep the sum at or above _EXACT / 2, which
    reads as exact again.  When every row of both operands is exact, so is
    every row of the product, and none of this needs computing.
    """
    (MA, bA, tA), (MB, bB, tB) = A, B
    if limit is not None:
        MA, tA, MB, tB = MA[:limit], tA[:limit], MB[:limit], tB[:limit]
    M = _kron_mul(field, MA, MB, limit)
    rows = M.shape[0]
    if rows == 0:
        return M, 0, np.zeros(0, dtype=np.int64)
    if _all_exact(tA) and _all_exact(tB):
        return _trim(M, bA + bB, _exact_rows(rows))
    vA, vB = _lowest((MA, bA, tA)), _lowest((MB, bB, tB))
    tp = _antidiagonal_min(tA, vA, tB, vB)[:rows]
    tp[tp >= _EXACT // 2] = _EXACT
    return _clip(M, bA + bB, tp)


def _clip(M, base, tp):
    """Zero each row at and above its precision, then _trim."""
    M[np.arange(M.shape[1])[None, :] >= (tp - base)[:, None]] = 0
    return _trim(M, base, tp)


def _trim(M, base, tp):
    """Drop the empty slots at both ends (one slot is kept when nothing is
    left)."""
    live = M.any(axis=(0, 2))
    if not live.any():
        return M[:, :1], base, tp
    lo, hi = int(live.argmax()), len(live) - int(live[::-1].argmax())
    return M[:, lo:hi], base + lo, tp


def _add_laurent(field, A, B, shift=0, sign=1):
    """Packed A + sign*z^shift*B.  A missing row is an exact zero; a sum is
    known below the least precision of its terms."""
    (MA, bA, tA), (MB, bB, tB) = A, B
    rows = max(len(tA), shift + len(tB))
    lo = min(bA, bB)
    W = max(bA + MA.shape[1], bB + MB.shape[1]) - lo
    M = np.zeros((rows, W, field.d), dtype=MA.dtype)
    tp = np.full(rows, _EXACT, dtype=np.int64)
    M[:len(tA), bA - lo:bA - lo + MA.shape[1]] = MA
    tp[:len(tA)] = tA
    M[shift:shift + len(tB), bB - lo:bB - lo + MB.shape[1]] += sign * MB
    np.minimum(tp[shift:shift + len(tB)], tB, out=tp[shift:shift + len(tB)])
    return _clip(M % field.p, lo, tp)


def _quotient_laurent(ring, N, D, lead_inv, L):
    """N/D modulo z^L for packed N and D, D[0] a unit with inverse lead_inv.

    The reciprocal R = 1/D comes from Newton's iteration (Kung 1974): if R
    is right modulo z^h, then R - z^h*R*E is right modulo z^2h, E being the
    rows h .. 2h-1 of D*R.  The rows below h are never recomputed, so they
    keep their precision.  When D*R has no rows from h on, R is all of 1/D.
    One more product gives N*R.
    """
    field = ring.field
    R = _pack_laurent(ring, [lead_inv])
    h = 1
    while h < L:
        h2 = min(2 * h, L)
        M, base, tp = _mul_laurent(field, D, R, h2)
        if len(tp) <= h:
            break
        R = _add_laurent(field, R, _mul_laurent(field, R, (M[h:], base, tp[h:]),
                                                h2 - h), shift=h, sign=-1)
        h = h2
    return _mul_laurent(field, N, R, L)


def _compose_laurent(field, F, G, limit):
    """Brent-Kung evaluation of packed F at packed G (constant term of G zero).

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
    MF, bF, tF = F
    if limit is not None:
        # G vanishes at 0, so F[i]*G^i vanishes below z^limit for i >= limit
        MF, tF, G = MF[:limit], tF[:limit], (G[0][:limit], G[1], G[2][:limit])
    n, nG = MF.shape[0], G[0].shape[0]
    if n == 0 or nG == 0:
        return MF[:1], bF, tF[:1]
    p, d = field.p, field.d
    X = 2 * d - 1
    exact = _all_exact(tF) and _all_exact(G[2])
    k, m, top = _bk_shape(n) if exact else (1, n, 1)
    one = np.zeros((1, 1, d), dtype=MF.dtype)
    one[0, 0, 0] = 1
    powers = [(one, 0, _exact_rows(1)), G]
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
        return _trim(M, bF + lo, _exact_rows(rows) if exact else tF[j:j + 1])

    R = block(m - 1, top)
    for j in range(m - 2, -1, -1):
        R = _add_laurent(field, _mul_laurent(field, R, powers[k], limit),
                         block(j, k))
    return R


def _divide_laurent(ring, num, den, L, exact):
    """The quotient coefficients num/den below z^L over a Laurent ring, den[0]
    certified nonzero; for exact polynomials, the certified exact quotient.

    Truncated inputs seed the reciprocal with the scalar inverse of den[0],
    so every coefficient carries the precision its inputs support.

    Exact inputs with exact coefficients divide in F[t, 1/t][z].  Scaled by
    powers of t to num', den' in F[t][z] with some coefficient prime to t,
    a quotient Q' = num'/den' lies in F[t][z] with deg_t Q' = B =
    deg_t num' - deg_t den' (Gauss's lemma: the t-adic valuation and the
    t-degree are additive).  So Q' is computed to t-precision B + 1, each
    coefficient is cut there and made exact, and den*Q == num certifies it.
    Every iterate quotient of cycle_valuations lies in F[t, 1/t][z]:
    f^m(z) - z is the sum of h(f^k(z)) over k < m, h = f - id, and
    h(y) - h(z) is divisible by y - z.

    An exact polynomial with a coefficient known only to O(t^k) divides only
    by a single term c*z^b, which every candidate numerator is divisible by;
    any other divisibility cannot be decided and raises.
    """
    n = None if exact else L
    N, D = _pack_laurent(ring, num[:n]), _pack_laurent(ring, den[:n])
    if not exact or (N[2] < _EXACT).any() or (D[2] < _EXACT).any():
        if exact and len(den) > 1:
            raise IndeterminateValuation(
                "exact division by a polynomial of several terms needs "
                "coefficients known exactly, not to O(t^k)")
        return _unpack_laurent(
            ring, _quotient_laurent(ring, N, D, den[0].inverse(), L))
    field, lead = ring.field, den[0]
    B = N[0].shape[1] - D[0].shape[1]
    if B < 0:
        raise NotDivisible("t-degree of the numerator below the denominator's")
    top = N[1] - D[1] + B + 1
    # With v' = v(lead') and a seed of relative precision r, row m of 1/den'
    # has valuation >= -(m+1)v' and is known below r - (m+1)v' (induction
    # through the Newton steps), so each row of Q' is known below B + 1.
    r = B + 1 + L * (lead.v0 - D[1])
    M, base, tp = _quotient_laurent(ring, N, D, lead.inverse(r), L)
    M, base, _ = _clip(M, base, np.full(len(tp), top, dtype=np.int64))
    Q = (M, base, np.full(len(tp), _EXACT, dtype=np.int64))
    rem = _add_laurent(field, N, _mul_laurent(field, D, Q, None), sign=-1)
    if rem[0].any():
        raise NotDivisible("nonzero remainder")
    return _unpack_laurent(ring, Q)


def _is_ff(ring):
    return isinstance(ring, FiniteField)


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

    def _termwise(self, other, op):
        self._check_ring(other)
        zero = self.ring.zero()
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=zero)
        return TruncatedSeries(self.ring, [op(a, b) for a, b in pairs],
                               self._meet(other))

    def __add__(self, other):
        return self._termwise(other, operator.add)

    def __sub__(self, other):
        return self._termwise(other, operator.sub)

    def __neg__(self):
        return TruncatedSeries(self.ring, [-c for c in self.coeffs], self.n_trunc)

    # -- multiplication and composition ------------------------------------

    def __mul__(self, other):
        self._check_ring(other)
        n = self._meet(other)
        ring = self.ring
        if _is_ff(ring):
            arr = _kron_mul(ring, _pack(ring, self.coeffs),
                            _pack(ring, other.coeffs), n)
            return TruncatedSeries(ring, _unpack(ring, arr), n)
        R = _mul_laurent(ring.field, _pack_laurent(ring, self.coeffs),
                         _pack_laurent(ring, other.coeffs), n)
        return TruncatedSeries(ring, _unpack_laurent(ring, R), n)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(z)); the inner series must vanish at 0.

        Brent-Kung evaluation on the packed kernel: _compose_ff over GF(p^d),
        _compose_laurent over GF(p^d)((t)).  When a coefficient of either
        series below the window is known only to O(t^k), the Laurent
        routine takes blocks of one row, so it evaluates in Horner's order
        and certifies the precision the scalar oracle gives.
        """
        self._check_ring(inner)
        if inner.coeffs and not inner.coeffs[0].is_certified_zero():
            raise NonzeroConstantTerm("inner series has nonzero constant term")
        n = self._meet(inner)
        ring = self.ring
        if _is_ff(ring):
            arr = _compose_ff(ring, _pack(ring, self.coeffs),
                              _pack(ring, inner.coeffs), n)
            return TruncatedSeries(ring, _unpack(ring, arr), n)
        R = _compose_laurent(ring.field, _pack_laurent(ring, self.coeffs),
                             _pack_laurent(ring, inner.coeffs), n)
        return TruncatedSeries(ring, _unpack_laurent(ring, R), n)

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
        coeffs = [self.ring.zero()] * max(0, (len(self.coeffs) - 1) * q + 1)
        coeffs[::q] = self.coeffs
        return TruncatedSeries(self.ring, coeffs, n)

    def derivative(self) -> "TruncatedSeries":
        """f' mod z^(N-1); mod z^1 nothing of f' is known, not even f'(0)."""
        if self.n_trunc == 1:
            raise TruncationTooSmall("the derivative of a series mod z^1 "
                                     "is unknown")
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(self.ring.from_int(i) * self.coeffs[i])
        n = None if self.n_trunc is None else self.n_trunc - 1
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
            recip = one.divide_exact(dcomp)
            # f' is only known one index short of f, but the correction term
            # err * recip has ord(err) >= 2, so the top coefficient of the
            # reciprocal never reaches indices below prec; pad the claim.
            recip = TruncatedSeries(self.ring, recip.coeffs, prec)
            h = hp - err * recip
        return h

    # -- division ----------------------------------------------------------

    def divide_exact(self, den: "TruncatedSeries") -> "TruncatedSeries":
        """Divide self by den from the bottom.

        Returns the quotient.  For truncated inputs it is computed modulo
        z^(N - ord(den)).  For exact polynomial inputs the division is
        certified: a nonzero remainder raises NotDivisible.

        Over a finite field the quotient comes from the scalar recurrence.
        Over a Laurent ring it is one packed routine, _divide_laurent: a
        Newton reciprocal of den times self.  There exact division means
        divisibility in F[t, 1/t][z]; the quotient is then a polynomial in z
        and t whose t-degrees the inputs bound, so it is computed to that
        t-precision, made exact and checked by multiplying back.
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
            return zero_series(self.ring, None)
        if a is None:
            n_out = self.n_trunc - b
            if den.n_trunc is not None:
                n_out = min(n_out, den.n_trunc - b)
            return zero_series(self.ring, max(n_out, 1))
        if a < b:
            raise NotDivisible(f"ord(num) = {a} < ord(den) = {b}")

        exact = self.n_trunc is None and den.n_trunc is None
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
        ring = self.ring
        if _is_ff(ring):
            qc = _series_quotient(self.coeffs[b:], den.coeffs[b:], L)
            quot = TruncatedSeries(ring, qc, None if exact else L)
            if exact and den * quot != self:
                raise NotDivisible("nonzero remainder")
            return quot
        qc = _divide_laurent(ring, self.coeffs[b:], den.coeffs[b:], L, exact)
        return TruncatedSeries(ring, qc, None if exact else L)

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
