"""The benchmark tracer's kernel counts, on the library's own rings.

perfbench/tracing.py wraps every scalar operator and counts the coefficient
products of each series product and composition from the ring of its
operands: d^2 integer products per pair of coefficients over GF(p^d), one
Laurent scalar product per pair below the truncation over GF(p^d)((t)).
These tests trace one product and one composition over each kind of ring,
so that a change to the rings' attributes cannot move those counts.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from parabolic_lab import FiniteField, LaurentRing, series

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing",
    Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

RINGS = {
    "GF(5)": lambda: FiniteField(5),
    "GF(3^2)": lambda: FiniteField(3, 2),
    "Laurent(GF(5))": lambda: LaurentRing(FiniteField(5)),
    "Laurent(GF(3^2))": lambda: LaurentRing(FiniteField(3, 2)),
}


def _traced(work):
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        with tracer.job_span(0):
            work()
    finally:
        tracing.restore(undo)
    return tracer.counters


@pytest.mark.parametrize("name", RINGS)
def test_traced_product_and_composition_counts(name):
    R = RINGS[name]()
    d = R.residue_field.d
    finite = not isinstance(R, LaurentRing)
    n = 6
    a = series(R, {0: 1, 1: 2, 3: 1, 4: 1}, n)
    b = series(R, {0: 1, 2: 1, 5: 3}, n)
    g = series(R, {1: 1, 2: 1}, n)
    la, lb, lg = len(a.coeffs), len(b.coeffs), len(g.coeffs)
    # the truncation cuts the Laurent count below the full la * lb
    assert la + lb - 1 > n
    counts = _traced(lambda: a * b)
    if finite:
        want = la * lb * d * d
    else:
        want = sum(1 for i in range(la) for j in range(lb) if i + j < n)
    assert counts["formal_series.mul.coeff_products"] == want
    counts = _traced(lambda: a.compose(g))
    assert counts["formal_series.compose.coeff_products"] == (
        tracing.horner_products(la, lg, n, d, finite)[0])
    # the scalar wrappers run too: every operator is wrapped and restored
    x = R.one() + R.one()
    counts = _traced(lambda: x * x - x)
    assert set(counts) <= {"coeff_rings.laurent.max_terms"}
