"""Text forms of fields, scalars, and series, with parsers that invert them.

Grammar, whitespace insensitive:

    field  := "GF" "(" p ["," d [";" "modulus" "=" INT ("," INT)*]] ")"
            | "Laurent" "(" field ")"
    series := ["-"] term (("+"|"-") term)* ["mod" "z" "^" INT]
    term   := factor ("*" factor)*          at most one z factor per term
    factor := "z" ["^" INT] | scalar atom
    scalar := INT | "x" ["^" INT] | "t" ["^" ["-"] INT]
            | "O" "(" "t" "^" ["-"] INT ")" | "(" scalar sum ")"

INT is a run of the decimal digits int() reads: fullwidth and other
Unicode decimals, but not superscripts or circled digits.  x is the
generator of an extension field, t the Laurent variable, and O(t^k) a zero
known only to precision k.  Everything the printers in this
module emit parses back to an equal object, truncations and precision
markers included.  Every malformed literal raises ParseError: so do an
integer of more than MAX_DIGITS digits and parentheses nested more than
MAX_NESTING deep.
"""

from __future__ import annotations

import functools
import math
import operator

from .coeff_rings import FieldElement, FiniteField, LaurentRing
from .errors import ParseError
from .formal_series import TruncatedSeries, series as make_series

_OPS = set("+-*^(),;=")

# The longest integer literal read.  What a command prints from literals
# (a Newton slope is the difference of two exponents) then stays under 640
# digits, the least int-string limit an interpreter can be set to; past its
# limit an integer neither parses nor prints.
MAX_DIGITS = 600

# The deepest parenthesised scalar read; each level costs the parser a few
# stack frames, and a deeper literal would exhaust the interpreter's stack.
MAX_NESTING = 50


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdecimal():  # the digits int() reads: not "²" or "①"
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError(f"integer literal of {j - i} digits is "
                                 f"longer than {MAX_DIGITS}", i)
            toks.append(("int", int(text[i:j]), i))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
        elif ch in _OPS:
            toks.append(("op", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", n))
    return toks


# _expect's message when the token it wants is of a kind, with no value.
_EXPECTED = {"int": "expected an integer", "end": "trailing input"}


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.k = 0
        self.depth = 0  # parentheses open around the current scalar atom

    # -- token plumbing ----------------------------------------------------

    def _peek(self):
        return self.toks[self.k]

    def _take(self):
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def _accept(self, kind: str, val) -> bool:
        """Take the next token if it is (kind, val)."""
        if self._peek()[:2] != (kind, val):
            return False
        self.k += 1
        return True

    def _expect(self, kind: str, val=None):
        """The value of the next token, taken; it must be of this kind, and
        equal to val unless val is None."""
        got_kind, got, pos = self._take()
        if got_kind != kind or (val is not None and got != val):
            raise ParseError(_EXPECTED[kind] if val is None
                             else f"expected {val!r}", pos)
        return got

    def _exponent(self, signed: bool = False, required: bool = False) -> int:
        """The INT of "^" INT after a variable, ["-"] INT when signed; 1 when
        no "^" follows and none is required."""
        if required:
            self._expect("op", "^")
        elif not self._accept("op", "^"):
            return 1
        negative = signed and self._accept("op", "-")
        e = self._expect("int")
        return -e if negative else e

    # -- fields ------------------------------------------------------------

    def field(self):
        pos = self._peek()[2]
        if self._accept("name", "Laurent"):
            self._expect("op", "(")
            # refused before descending, so nesting costs no recursion
            if self._accept("name", "Laurent"):
                raise ParseError("Laurent coefficients must form a finite field",
                                 pos)
            inner = self.field()
            self._expect("op", ")")
            return LaurentRing(inner)
        if self._accept("name", "GF"):
            self._expect("op", "(")
            p = self._expect("int")
            d, modulus = 1, None
            if self._accept("op", ","):
                d = self._expect("int")
                if self._accept("op", ";"):
                    self._expect("name", "modulus")
                    self._expect("op", "=")
                    modulus = [self._expect("int")]
                    while self._accept("op", ","):
                        modulus.append(self._expect("int"))
                    modulus = tuple(modulus)
            self._expect("op", ")")
            return FiniteField(p, d, modulus)
        raise ParseError("expected GF(...) or Laurent(GF(...))", pos)

    # -- scalars and series ------------------------------------------------

    def _scalar_atom(self, ring):
        kind, val, pos = self._take()
        if kind == "int":
            return ring.from_int(val)
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested more than {MAX_NESTING} deep", pos)
            self.depth += 1
            s = self._scalar_sum(ring)
            self._expect("op", ")")
            self.depth -= 1
            return s
        if kind == "name" and val == "x":
            if ring.residue_field.d == 1:
                raise ParseError("x needs an extension field", pos)
            return ring(ring.residue_field.gen() ** self._exponent())
        if kind == "name" and val == "t":
            if not isinstance(ring, LaurentRing):
                raise ParseError("t needs Laurent coefficients", pos)
            return ring.t(self._exponent(signed=True))
        if kind == "name" and val == "O":
            if not isinstance(ring, LaurentRing):
                raise ParseError("O(t^k) needs Laurent coefficients", pos)
            self._expect("op", "(")
            self._expect("name", "t")
            e = self._exponent(signed=True, required=True)
            self._expect("op", ")")
            return ring.element({}, tprec=e)
        raise ParseError("expected a coefficient", pos)

    def _term(self, ring, allow_z: bool):
        """One product of factors; returns (coefficient, z exponent), the
        coefficient of a bare z power being 1."""
        coeff = zexp = None
        while True:
            pos = self._peek()[2]
            if self._accept("name", "z"):
                if not allow_z:
                    raise ParseError("z cannot appear inside a coefficient", pos)
                if zexp is not None:
                    raise ParseError("two z factors in one term", pos)
                zexp = self._exponent()
            else:
                atom = self._scalar_atom(ring)
                coeff = atom if coeff is None else coeff * atom
            if not self._accept("op", "*"):
                return (ring.one() if coeff is None else coeff), zexp or 0

    def _signed_terms(self, ring, allow_z: bool):
        """The terms of ["-"] term (("+"|"-") term)*, each as its signed
        coefficient and z exponent."""
        negative = self._accept("op", "-")
        while True:
            coeff, zexp = self._term(ring, allow_z)
            yield (-coeff if negative else coeff), zexp
            negative = self._accept("op", "-")
            if not (negative or self._accept("op", "+")):
                return

    def _scalar_sum(self, ring):
        return functools.reduce(operator.add, (
            c for c, _ in self._signed_terms(ring, allow_z=False)))

    def terms(self, ring):
        """The series' {z exponent: coefficient} and its window (None for a
        polynomial)."""
        entries: dict = {}
        for coeff, zexp in self._signed_terms(ring, allow_z=True):
            prev = entries.get(zexp)
            entries[zexp] = coeff if prev is None else prev + coeff
        n_trunc = None
        if self._accept("name", "mod"):
            self._expect("name", "z")
            n_trunc = self._exponent(required=True)
        return entries, n_trunc


def _parse(text: str, rule, *args):
    """rule(parser, *args) on the whole of text: nothing may follow."""
    parser = _Parser(text)
    out = rule(parser, *args)
    parser._expect("end")
    return out


def parse_field(text: str):
    """A FiniteField or LaurentRing from its literal."""
    return _parse(text, _Parser.field)


def parse_series(text: str, ring) -> TruncatedSeries:
    """A series in z over the given ring from its literal."""
    return make_series(ring, *_parse(text, _Parser.terms, ring))


def parse_terms(text: str, ring):
    """The {z exponent: coefficient} of a series literal over the given ring
    and its window (None for a polynomial), without building the series."""
    return _parse(text, _Parser.terms, ring)


def parse_scalar(text: str, ring):
    """A single coefficient (no z) from its literal."""
    return _parse(text, _Parser._scalar_sum, ring)


# -- printers ---------------------------------------------------------------


def field_to_str(ring) -> str:
    return repr(ring)


def series_to_str(s: TruncatedSeries) -> str:
    one = s.ring.one()
    parts = []
    for e, c in enumerate(s.coeffs):
        if c.is_certified_zero():
            continue
        if e == 0:
            parts.append(str(c))
            continue
        z = "z" if e == 1 else f"z^{e}"
        if c == one:
            parts.append(z)
        else:
            cs = str(c)
            if c._needs_parens():
                cs = f"({cs})"
            parts.append(f"{cs}*{z}")
    body = " + ".join(parts) if parts else "0"
    if s.n_trunc is not None:
        body = f"{body} mod z^{s.n_trunc}"
    return body


def scalar_to_jsonable(x):
    """Prime-field values as ints, everything else as its literal text."""
    if isinstance(x, FieldElement) and x.field.d == 1:
        return x.coords[0]
    return str(x)


def index_to_jsonable(i):
    """Jump indices: finite ints pass through, the two non-values get names."""
    if i is None:
        return "beyond-truncation"
    if i is math.inf:
        return "infinite"
    return i


def fraction_to_str(fr) -> str:
    return f"{fr.numerator}/{fr.denominator}"
