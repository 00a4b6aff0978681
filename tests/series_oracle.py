"""Scalar reference kernels for series products and compositions.

The library multiplies and composes series on packed arrays; these loops do
the same on coefficient objects, one scalar operation at a time, and serve
as the oracle the packed kernel is tested against.
"""


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
            acc[k] = acc[k] + a * b
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
        R[0] = R[0] + F[i]
    return R
