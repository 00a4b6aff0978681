"""Exception types shared across the library.

Everything raised on purpose derives from ParabolicLabError so callers (and the
command line front end) can tell library conditions from genuine bugs.
"""


class ParabolicLabError(Exception):
    """Base class for all library errors."""


class CompositeP(ParabolicLabError):
    """Requested characteristic is not prime."""


class ReducibleModulus(ParabolicLabError):
    """Supplied modulus polynomial factors over the prime field."""


class FieldDegreeTooLarge(ParabolicLabError):
    """The extension degree of a requested field GF(p^d) is past the
    library's bound on d: its modulus search and multiplication tables would
    cost more than the library spends."""


class NoSuchRoot(ParabolicLabError):
    """The field has no element of the requested multiplicative order."""


class POrderRequested(ParabolicLabError):
    """Multiplicative order divisible by the characteristic was requested."""


class DivisionByZero(ParabolicLabError):
    """Division by a certified zero."""


class IndeterminateValuation(ParabolicLabError):
    """A quantity is zero to stored precision but not certified zero, so its
    valuation (or residue, or leading coefficient) cannot be determined."""


class ScalarRingMismatch(ParabolicLabError):
    """Operands live over different coefficient rings."""


class NonzeroConstantTerm(ParabolicLabError):
    """Composition or germ construction requires a series vanishing at 0."""


class NonUnitLinearTerm(ParabolicLabError):
    """Compositional inversion requires an invertible linear coefficient."""


class NotParabolic(ParabolicLabError):
    """Series is not a parabolic germ (multiplier not a root of unity prime
    to the characteristic)."""


class NotDivisible(ParabolicLabError):
    """Exact division has a nonzero remainder, or division is impossible in
    the coefficient ring."""


class NonIntegralCoefficient(ParabolicLabError):
    """A coefficient has negative valuation where an integral one is required."""


class NonIntegralGerm(NonIntegralCoefficient):
    """An input germ has a coefficient not known to be integral where the
    operation needs a germ over the valuation ring.  That is unusable input;
    a non-integral coefficient that a theorem excludes, as in a cycle
    quotient, is a failed check and raises the parent type itself."""


class TruncationTooSmall(ParabolicLabError):
    """The stored truncation is too short for the requested computation."""


class WorkBudgetExceeded(ParabolicLabError):
    """A series operation would make a packed array or Kronecker integer
    larger than the kernel's size limit: the input asks for more work than
    the library does."""


class NotMinimallyRamifiedAtLevelZero(ParabolicLabError):
    """i_0(f^q) > q, so the iterative residue is undefined."""


class ResitUndefined(ParabolicLabError):
    """A bound needing the iterative residue was requested where it does not exist."""


class UnboundedBound(ParabolicLabError):
    """The periodic-point bound degenerates (no information)."""


class SupportViolation(ParabolicLabError):
    """Series support leaves the arithmetic progression required by the
    reduced multiplier form."""


class ParseError(ParabolicLabError):
    """Malformed field or series literal; the message names the offending
    position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
