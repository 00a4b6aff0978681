"""Ramification data of a parabolic germ under iteration.

For f with multiplier of order q the series f^(q*p^n) is tangent to the
identity and the jump i_n is the order of (f^(q*p^n)(z) - z)/z; delta_n is the
coefficient sitting just above the jump.  These grow at least geometrically:
i_n >= q(p^(n+1) - 1)/(p - 1), and a germ attaining equality at every level is
minimally ramified.  The iterative residue turns that infinite family of
equalities into one scalar test, and it is one residue of f^q, read off
f^q mod z^(2q+2) (see _resit_pair); the reduced form is not needed for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    IndeterminateValuation,
    NotMinimallyRamifiedAtLevelZero,
    ParabolicLabError,
    TruncationTooSmall,
)
from .coeff_rings import DEFAULT_TPREC, LaurentRing
from .formal_series import ParabolicGerm, count_text, identity
from .literals import index_to_jsonable, scalar_to_jsonable


def ramification_lower_bound(p: int, q: int, n: int) -> int:
    """The least possible jump at level n: q(p^(n+1) - 1)/(p - 1)."""
    return q * (p ** (n + 1) - 1) // (p - 1)


def default_window(p: int, q: int, n_max: int = 2) -> int:
    """A window wide enough to read the profile through level n_max."""
    return ramification_lower_bound(p, q, n_max) + q + 1


@dataclass(frozen=True)
class ProfileEntry:
    """One level of the profile.

    i is an int when the jump is exactly determined, math.inf when the
    iterate is certified to be the identity, and None when the difference
    vanishes through the truncation window (the jump is beyond it).  delta
    is the leading coefficient when i is a finite int, otherwise None.
    """

    n: int
    i: object
    delta: object


@dataclass
class RamificationProfile:
    q: int
    N: int | None
    entries: list

    def to_jsonable(self):
        return {
            "q": self.q,
            "N": self.N,
            "entries": [
                {
                    "n": e.n,
                    "i": index_to_jsonable(e.i),
                    "delta": None if e.delta is None else scalar_to_jsonable(e.delta),
                }
                for e in self.entries
            ],
        }


def _levels(s, q: int):
    """Yield f^(q*p^n) - z for n = 0, 1, ...; each iterate is p = char more
    turns of the one before, so the whole tower costs one iterate per level."""
    cur = s.iterate(q)
    while True:
        yield cur - identity(cur.ring, cur.n_trunc)
        cur = cur.iterate(cur.ring.char)


def _jump(diff):
    """(i, delta) read off an iterate difference f^m(z) - z: the jump and the
    coefficient just above it, or (math.inf, None) for the exact zero and
    (None, None) when the difference vanishes through its window."""
    o = diff.order()
    if o is None or o is math.inf:
        return o, None
    return o - 1, diff.coeff(o)


def ramification_profile(f: ParabolicGerm, n_max: int = 2,
                         N: int | None = None) -> RamificationProfile:
    """Jumps and leading coefficients of f^(q*p^n) for n = 0..n_max.

    Work happens modulo z^N; N defaults to the stored truncation of f, or for
    exact polynomial input to the window that decides minimality at n_max.
    Exact germs of degree one are iterated exactly instead, which is how an
    identity iterate (i infinite) gets certified.  Once a level vanishes
    through the window every later level does too and they are all reported
    beyond truncation.
    """
    if n_max < 0:
        raise ParabolicLabError(f"n_max must be >= 0, got {n_max}")
    q, p = f.q, f.char
    s = f.series
    if N is None:
        N = s.n_trunc if s.n_trunc is not None else default_window(p, q, n_max)
    keep_exact = s.is_exact() and s.degree() <= 1
    work = s if keep_exact else s.truncate(N)
    entries = []
    levels = _levels(work, q)
    for n in range(n_max + 1):
        i, delta = _jump(next(levels))
        if i is None and n == 0:
            raise TruncationTooSmall(
                f"f^q - z vanishes through the window z^{N}; raise N")
        entries.append(ProfileEntry(n, i, delta))
        if i is None:
            entries += [ProfileEntry(m, None, None)
                        for m in range(n + 1, n_max + 1)]
            break
    return RamificationProfile(q=q, N=work.n_trunc, entries=entries)


def _certified_nonzero(x, what: str) -> bool:
    """True/False only on certified scalars; fuzzy zeros refuse to answer."""
    if x.is_certified_nonzero():
        return True
    if x.is_certified_zero():
        return False
    raise IndeterminateValuation(f"{what} is zero only to stored precision")


def _resit_pair(f: ParabolicGerm):
    """(c, S_q) read off f^q mod z^(2q+2), with c certified nonzero.

    Write f^q - z = z^(q+1)*C(z), C = c + c_1 z + ... + c_q z^q.  The
    iterative residue is one residue of f^q:

        resit(f) = q*((q+1)/2 - Res_(z=0) dz/(z - f^q(z)))
                 = q*((q+1)/2 + [z^q](1/C)),

    Milnor's residu iteratif (Dynamics in One Complex Variable, 3rd ed.,
    section 12) scaled by resit(f) = q*resit(f^q).  It holds in
    characteristic p as well.  The residue of a differential is invariant
    under automorphisms of k((z)) in every characteristic (Serre, Algebraic
    Groups and Class Fields, II section 11).  For h tangent to the identity
    the pull-back of dz/(z - g) by h differs from dz/(z - h^-1 g h) by a
    holomorphic form, because (h(w) - h(z))/(w - z) has integral
    Hasse-derivative coefficients, so nothing is divided by p.  Conjugating
    f conjugates f^q, so the residue is that of the reduced form
    gamma*z*(1 + a_1 z^q + a_2 z^(2q) + ...), where the formula gives
    (q+1)/2 - a_2/a_1^2, the clearing algorithm's value.

    c = q*a_1 is nonzero exactly when i_0(f^q) = q; otherwise the iterative
    residue does not exist and asking for it raises.  S_q =
    c^(q+1)*[z^q](1/C) comes from S_0 = 1 and
    S_k = -sum_(j=1..k) c_j*c^(j-1)*S_(k-j), so nothing is divided.
    """
    q = f.q
    fq = f.series.truncate(2 * q + 2).iterate(q)
    c, *cs = (fq.coeff(i) for i in range(q + 1, 2 * q + 2))
    if not _certified_nonzero(c, "a1"):
        raise NotMinimallyRamifiedAtLevelZero(
            "i_0(f^q) > q, the iterative residue is undefined")
    terms = [cj * c ** j for j, cj in enumerate(cs)]  # c_(j+1)*c^j
    s = [f.ring.one()]
    for k in range(1, q + 1):
        acc = terms[0] * s[k - 1]
        for j in range(1, k):
            acc = acc + terms[j] * s[k - 1 - j]
        s.append(-acc)
    return c, s[q]


def _resit_numerators(q: int, top, s):
    """The resit numerators (n, n'): n = (q+1)/2*top + s and, in
    characteristic two, n' = (1 - q)/2*top - s (None otherwise).

    At (top, s) = (c^(q+1), S_q) from _resit_pair they are top*resit/q and
    top*(1 - resit)/q; at (a_1^2, -a_2) from the reduced pair, the m and m'
    that chi and xi are made of.  Nothing is divided, so both are exact
    whenever the inputs are.  n' is not formed as top - n, which would leave
    a zero known only to the precision of a fuzzy top where resit = 1."""
    ring = top.ring
    n = ring.half(q + 1) * top + s
    if ring.char != 2:
        return n, None
    return n, ring.half(1 - q) * top - s


def resit(f: ParabolicGerm):
    """The iterative residue of f, (q+1)/2 - a_2/a_1^2 in the reduced form."""
    return _resit_value(f.q, *_resit_pair(f))


def _resit_value(q: int, c, s):
    """resit = q*((q+1)/2 + S_q/c^(q+1)) from _resit_pair.  Over a Laurent
    ring 1/c^(q+1) is a series in t, expanded far enough that resit is known
    to relative precision at least DEFAULT_TPREC from its valuation
    v(n) - (q+1)v(c) (n the resit numerator).  This value is only printed;
    decisions go through _resit_numerators, which does not divide."""
    ring = c.ring
    half = ring.half(q + 1)
    top = c ** (q + 1)
    if not isinstance(ring, LaurentRing):
        return ring.from_int(q) * (half + s / top)
    # S_q * (1/c^(q+1)) is known to v(S_q) - (q+1)v(c) + rel
    rel = DEFAULT_TPREC
    n, _ = _resit_numerators(q, top, s)
    if n.is_certified_nonzero() and s.is_certified_nonzero():
        rel += max(0, n.v0 - s.v0)
    return ring.from_int(q) * (half + s * top.inverse(rel))


@dataclass
class Verdict:
    """Minimality verdict with a witness for the deciding condition."""

    minimal: bool
    mode: str
    witness: dict
    profile: RamificationProfile | None = None

    def to_jsonable(self):
        out = {"minimal": self.minimal, "mode": self.mode,
               "witness": self.witness}
        if self.profile is not None:
            out["profile"] = self.profile.to_jsonable()
        return out


def is_minimally_ramified(f: ParabolicGerm, mode: str = "criterion",
                          n_max: int = 2, N: int | None = None) -> Verdict:
    """Decide minimal ramification.

    criterion mode evaluates the scalar test: i_0(f^q) = q, the iterative
    residue nonzero, and in characteristic two also different from one.
    definitional mode compares each jump up to n_max against the least
    possible value; it needs a window of default_window(p, q, n_max).
    """
    if mode == "criterion":
        return _criterion_verdict(f)
    if mode == "definitional":
        return _definitional_verdict(f, n_max, N)
    raise ParabolicLabError(f"unknown mode {mode!r}")


def _criterion_verdict(f: ParabolicGerm) -> Verdict:
    try:
        c, s = _resit_pair(f)
    except NotMinimallyRamifiedAtLevelZero:
        return Verdict(False, "criterion",
                       {"failed": "level-zero", "detail": "i_0(f^q) > q"})
    n, n1 = _resit_numerators(f.q, c ** (f.q + 1), s)
    if not _certified_nonzero(n, "the iterative residue"):
        return Verdict(False, "criterion", {"failed": "resit-zero"})
    if n1 is not None and not _certified_nonzero(n1, "resit - 1"):
        one = scalar_to_jsonable(f.ring.one())
        return Verdict(False, "criterion", {"failed": "resit-one", "resit": one})
    r = _resit_value(f.q, c, s)
    return Verdict(True, "criterion", {"resit": scalar_to_jsonable(r)})


def _definitional_verdict(f: ParabolicGerm, n_max: int,
                          N: int | None) -> Verdict:
    q, p = f.q, f.char
    needed = default_window(p, q, n_max)
    if N is None:
        N = f.n_trunc if f.n_trunc is not None else needed
    if N < needed:
        raise TruncationTooSmall(
            f"definitional check up to n_max={n_max} needs a window of "
            f"{count_text(needed)}")
    prof = ramification_profile(f, n_max, N)
    for e in prof.entries:
        least = ramification_lower_bound(p, q, e.n)
        if e.i == least:
            continue
        # A level beyond the window still decides: the window exceeds the
        # least value, so the jump is strictly above it.
        witness = {"n": e.n, "i": index_to_jsonable(e.i), "least": least}
        return Verdict(False, "definitional", witness, prof)
    return Verdict(True, "definitional", {"n_max": n_max}, prof)


@dataclass
class QuasiInvarianceReport:
    """Comparison of ramification data before and after conjugation."""

    ok: bool
    n_max: int
    scale: object
    rows: list

    def to_jsonable(self):
        return {"ok": self.ok, "n_max": self.n_max,
                "scale": scalar_to_jsonable(self.scale), "rows": self.rows}


def check_quasi_invariance(f: ParabolicGerm, h,
                           n_max: int = 1) -> QuasiInvarianceReport:
    """Conjugate f by h and compare profiles.

    The window is the meet of those of f and h, else the default one.  The
    jumps must agree level by level and the leading coefficients must
    scale by h'(0)^(i_n).  Levels beyond the window carry no claim and are
    reported with matched = None.  Rows stop at the first level whose least
    possible jump is N - 1 or more: from there on both profiles are beyond
    the window.  f's profile comes first, so that it refuses a negative
    n_max before the conjugation does any work.
    """
    q, p = f.q, f.char
    N = f.series._meet(h)
    if N is None:
        N = default_window(p, q, n_max)
    last = next((n for n in range(n_max)
                 if ramification_lower_bound(p, q, n) >= N - 1), n_max)
    prof_f = ramification_profile(f, last, N)
    prof_c = ramification_profile(f.conjugate(h, n_trunc=N), last, N)
    c = h.coeff(1)
    ok = True
    rows = []
    for ef, ec in zip(prof_f.entries, prof_c.entries):
        row = {"n": ef.n, "i": index_to_jsonable(ef.i),
               "i_conjugate": index_to_jsonable(ec.i)}
        if ef.i != ec.i:
            row["matched"] = False
            ok = False
        elif isinstance(ef.i, int):
            expected = (c ** ef.i) * ef.delta
            match = (ec.delta - expected).is_certified_zero()
            row["delta"] = scalar_to_jsonable(ef.delta)
            row["delta_conjugate"] = scalar_to_jsonable(ec.delta)
            row["expected"] = scalar_to_jsonable(expected)
            row["matched"] = match
            ok = ok and match
        else:
            row["matched"] = None
        rows.append(row)
    return QuasiInvarianceReport(ok=ok, n_max=n_max, scale=c, rows=rows)
