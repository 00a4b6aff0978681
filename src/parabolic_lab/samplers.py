"""Seeded generators for the randomized sweeps.

Everything takes an explicit random.Random so a sweep is reproducible from
its seed alone; nothing here touches global state.  The CLI and the
acceptance suite both draw from these, which keeps "50 random germs" meaning
the same fifty germs everywhere.

The six (p, q) pairs exercised throughout are the small cases where every
branch of the theory shows up: both parities of p, q = 1 against q > 1, and
a q that needs a proper field extension for its multiplier.

The series samplers draw straight into the packed rows a series stores
(formal_series): rng.randrange(p) once per coordinate, slot after slot in
the order random_element draws them, into one (N, 1, d) array, with no
coefficient object per slot.  The window is refused, as series() would
refuse it, before the first draw.
"""

from __future__ import annotations

from random import Random

import numpy as np

from .coeff_rings import (
    FiniteField,
    LaurentRing,
    root_of_unity,
    smallest_field_with_root,
)
from .errors import ParabolicLabError, ScalarRingMismatch
from .formal_series import (
    ParabolicGerm,
    TruncatedSeries,
    _coord_dtype,
    check_window,
    series,
)
from .ramification import default_window, is_minimally_ramified

STANDARD_PAIRS = ((2, 1), (3, 1), (3, 2), (5, 1), (5, 2), (5, 4))

# draws random_minimal_polynomial_germ makes before it gives up
_MINIMAL_GERM_TRIES = 200


def standard_field(p: int, q: int) -> FiniteField:
    return smallest_field_with_root(p, q)


def _check_field(field, what: str) -> None:
    if not isinstance(field, FiniteField):
        raise ScalarRingMismatch(f"{what} needs a finite field, not {field!r}")


def random_element(rng: Random, field: FiniteField):
    _check_field(field, "a random field element")
    return field.element(tuple(rng.randrange(field.p) for _ in range(field.d)))


def random_nonzero(rng: Random, field: FiniteField):
    while True:
        x = random_element(rng, field)
        if not x.is_zero():
            return x


def random_coeff_tuple(rng: Random, field: FiniteField):
    return random_element(rng, field), random_element(rng, field)


def _draw_rows(rng: Random, field: FiniteField, N: int,
               rows: range) -> np.ndarray:
    """The packed rows of a series mod z^N over field: a random element at
    each row of rows, drawn in order as random_element draws it, and zero
    elsewhere.  A window over the work limit is refused before any draw."""
    _check_field(field, "a random series")
    check_window(field, N)
    p, d = field.p, field.d
    A = np.zeros((max(N, 0), 1, d), dtype=_coord_dtype(p))
    A[rows.start:rows.stop:rows.step, 0] = np.array(
        [rng.randrange(p) for _ in range(len(rows) * d)],
        dtype=A.dtype).reshape(len(rows), d)
    return A


def _packed_series(field: FiniteField, A: np.ndarray,
                   N: int | None) -> TruncatedSeries:
    return TruncatedSeries._from_packed(field, (A, 0, None), N)


def random_vanishing_series(rng: Random, field: FiniteField,
                            N: int) -> TruncatedSeries:
    """Any series with f(0) = 0; the linear term may be zero or non-unit."""
    if N < 2:
        raise ParabolicLabError(f"window {N} leaves no room for a nonzero term")
    return _packed_series(field, _draw_rows(rng, field, N, range(1, N)), N)


def random_parabolic_germ(rng: Random, field: FiniteField, q: int,
                          N: int | None = None) -> ParabolicGerm:
    """gamma*z + random tail mod z^N, with at least one tail term nonzero so
    the profile is defined (a bare gamma*z truncation has nothing to measure)."""
    _check_field(field, "a random germ")
    p = field.p
    if N is None:
        N = default_window(p, q)
    if N <= 2:
        raise ParabolicLabError(f"window {N} leaves no room for a tail")
    gamma = root_of_unity(field, q)
    while True:
        A = _draw_rows(rng, field, N, range(2, N))
        if A.any():
            A[1, 0] = gamma.coords
            return ParabolicGerm(_packed_series(field, A, N))


def random_reduced_germ(rng: Random, field: FiniteField, q: int,
                        N: int | None = None) -> ParabolicGerm:
    """gamma*z*(1 + sum a_j z^(jq)) with random a_j, at least one nonzero:
    the unit's rows times gamma in one kernel product."""
    _check_field(field, "a random germ")
    p = field.p
    if N is None:
        N = default_window(p, q)
    gamma = root_of_unity(field, q)
    if N < q + 2:
        raise ParabolicLabError(f"window {N} leaves no room for a tail")
    while True:
        A = _draw_rows(rng, field, N, range(q + 1, N, q))
        if A.any():
            A[1, 0] = field.one().coords
            return ParabolicGerm(_packed_series(field, A, N)
                                 * series(field, {0: gamma}, None))


def random_coordinate_change(rng: Random, field: FiniteField,
                             N: int) -> TruncatedSeries:
    A = _draw_rows(rng, field, N, range(2, N))
    c1 = random_nonzero(rng, field)
    if N > 1:
        A[1, 0] = c1.coords
    return _packed_series(field, A, N)


def random_integral_scalar(rng: Random, ring: LaurentRing, t_max: int = 3):
    """A polynomial in t with random residue-field coefficients."""
    return ring.element({e: random_element(rng, ring.field)
                         for e in range(t_max + 1)})


def random_polynomial_germ(rng: Random, ring: LaurentRing, q: int,
                           degree: int = 3, t_max: int = 2) -> ParabolicGerm:
    """An exact polynomial germ over O_k with multiplier of order q.

    Coefficients are integral by construction; the top coefficient is forced
    nonzero so the degree is what it says.
    """
    gamma = ring.embed(root_of_unity(ring.field, q))
    while True:
        entries = {e: random_integral_scalar(rng, ring, t_max)
                   for e in range(2, degree + 1)}
        if entries[degree].is_certified_nonzero():
            entries[1] = gamma
            return ParabolicGerm(series(ring, entries, None))


def random_minimal_polynomial_germ(rng: Random, ring: LaurentRing, q: int,
                                   degree: int = 3,
                                   t_max: int = 2) -> ParabolicGerm:
    """Retry random_polynomial_germ until is_minimally_ramified certifies it
    in criterion mode; a draw the criterion cannot decide is skipped.  Each
    draw consumes the rng alike, so the result is deterministic in its state."""
    for _ in range(_MINIMAL_GERM_TRIES):
        f = random_polynomial_germ(rng, ring, q, degree, t_max)
        try:
            if is_minimally_ramified(f).minimal:
                return f
        except ParabolicLabError:
            continue
    raise ParabolicLabError(
        f"no criterion-certified germ found in {_MINIMAL_GERM_TRIES} draws")
