"""The seeded samplers draw straight into packed rows.

Each series sampler is checked against the route it replaced, one
FieldElement per slot gathered into a dict and built by series(): the same
series, and the generator left in the same state, so that a sweep's seed
still names the same germs.
"""

from random import Random

import pytest
import sympy

from parabolic_lab import (
    FiniteField,
    LaurentRing,
    ParabolicGerm,
    ParabolicLabError,
    ScalarRingMismatch,
    WorkBudgetExceeded,
    series,
)
from parabolic_lab.coeff_rings import root_of_unity
from parabolic_lab.samplers import (
    random_coordinate_change,
    random_element,
    random_nonzero,
    random_parabolic_germ,
    random_reduced_germ,
    random_vanishing_series,
)


# int64 coordinates (GF(2^61 - 1) among them) and, past 2^62, object ones
FIELDS = [FiniteField(2), FiniteField(3, 2), FiniteField(5),
          FiniteField(2 ** 61 - 1), FiniteField(int(sympy.nextprime(2 ** 62)))]


def _terms(rng, field, exponents):
    return {e: random_element(rng, field) for e in exponents}


def _vanishing_by_slot(rng, field, N):
    return series(field, _terms(rng, field, range(1, N)), N)


def _germ_by_slot(rng, field, q, N):
    gamma = root_of_unity(field, q)
    while True:
        entries = _terms(rng, field, range(2, N))
        if any(not c.is_zero() for c in entries.values()):
            entries[1] = gamma
            return ParabolicGerm(series(field, entries, N))


def _reduced_by_slot(rng, field, q, N):
    gamma = root_of_unity(field, q)
    while True:
        a = _terms(rng, field, range(q + 1, N, q))
        if any(not c.is_zero() for c in a.values()):
            entries = {e: gamma * c for e, c in a.items()}
            entries[1] = gamma
            return ParabolicGerm(series(field, entries, N))


def _change_by_slot(rng, field, N):
    entries = _terms(rng, field, range(2, N))
    entries[1] = random_nonzero(rng, field)
    return series(field, entries, N)


def _agree(packed, by_slot, seed):
    rng, ref = Random(seed), Random(seed)
    got, want = packed(rng), by_slot(ref)
    if isinstance(want, ParabolicGerm):
        assert got.q == want.q and got.gamma == want.gamma
        got, want = got.series, want.series
    assert got == want
    assert got.coeffs == want.coeffs
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_samplers_match_the_per_slot_route(field):
    qs = [q for q in (1, 2, 4) if (field.order - 1) % q == 0]
    for seed in range(6):
        for N in (2, 3, 7, 16):
            _agree(lambda r: random_vanishing_series(r, field, N),
                   lambda r: _vanishing_by_slot(r, field, N), seed)
            _agree(lambda r: random_coordinate_change(r, field, N),
                   lambda r: _change_by_slot(r, field, N), seed)
            for q in qs:
                if N > 2:
                    _agree(lambda r: random_parabolic_germ(r, field, q, N),
                           lambda r: _germ_by_slot(r, field, q, N), seed)
                if N >= q + 2:
                    _agree(lambda r: random_reduced_germ(r, field, q, N),
                           lambda r: _reduced_by_slot(r, field, q, N), seed)


def test_an_all_zero_tail_is_drawn_again():
    # over GF(2) mod z^3 the tail is one coordinate: half the seeds draw it
    # zero first, and the germ comes from a later draw
    F2 = FiniteField(2)
    retried = 0
    for seed in range(20):
        first = Random(seed).randrange(2)
        retried += first == 0
        _agree(lambda r: random_parabolic_germ(r, F2, 1, 3),
               lambda r: _germ_by_slot(r, F2, 1, 3), seed)
        _agree(lambda r: random_reduced_germ(r, F2, 1, 3),
               lambda r: _reduced_by_slot(r, F2, 1, 3), seed)
    assert retried


def test_windows_are_refused_before_any_draw():
    F3 = FiniteField(3)
    for sample in (lambda r: random_vanishing_series(r, F3, 10 ** 30),
                   lambda r: random_coordinate_change(r, F3, 10 ** 30),
                   lambda r: random_parabolic_germ(r, F3, 1, 10 ** 30),
                   lambda r: random_reduced_germ(r, F3, 2, 10 ** 30)):
        rng = Random(0)
        state = rng.getstate()
        with pytest.raises(WorkBudgetExceeded):
            sample(rng)
        assert rng.getstate() == state
    with pytest.raises(ParabolicLabError):
        random_parabolic_germ(Random(0), F3, 1, 2)


@pytest.mark.parametrize("sample", [
    lambda r, ring: random_vanishing_series(r, ring, 5),
    lambda r, ring: random_coordinate_change(r, ring, 5),
    lambda r, ring: random_parabolic_germ(r, ring, 1, 5),
    lambda r, ring: random_reduced_germ(r, ring, 1, 5),
], ids=["vanishing", "coordinate-change", "parabolic", "reduced"])
def test_series_samplers_refuse_a_laurent_ring(sample):
    rng = Random(0)
    state = rng.getstate()
    with pytest.raises(ScalarRingMismatch, match="needs a finite field"):
        sample(rng, LaurentRing(FiniteField(3)))
    assert rng.getstate() == state
