"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py          # everything, about a minute
    python3 -m pytest -q perfbench/selftest.py

The span-tree test checks the self-time arithmetic on hand-made spans.  The
kernel-count test checks the computed coefficient-product counts against the
loop bounds written out by hand.  The sampler test checks that the
laurent-periodic family is exactly what the library's sampler draws.  The
smoke test runs every workload briefly with and without tracing and checks
that the last line names every metric of BENCHMARK.json with its unit.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from tracing import Leaf, Span  # noqa: E402


def test_self_time_arithmetic():
    # job [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3] and a
    # scalar leaf busy 0.5 s; b holds d [6, 7] and e [6.5, 8], which overlap
    spans = [Span("job", 0.0, 10.0, None, 0),
             Span("a", 1.0, 4.0, 0, 0),
             Span("c", 2.0, 3.0, 1, 0),
             Span("b", 5.0, 9.0, 0, 0),
             Span("d", 6.0, 7.0, 3, 0),
             Span("e", 6.5, 8.0, 3, 0)]
    leaves = [Leaf("scalar", 1, 0, 7, 0.5), Leaf("scalar", 0, 0, 3, 0.25)]
    st = tracing.self_times(spans, leaves)
    expect = {"job": (1, 10 - 3 - 4 - 0.25), "a": (1, 3 - 1 - 0.5),
              "c": (1, 1.0), "b": (1, 4 - 2), "d": (1, 1.0), "e": (1, 1.5),
              "scalar": (10, 0.75)}
    assert st.keys() == expect.keys()
    for name, (calls, secs) in expect.items():
        assert st[name][0] == calls, name
        assert math.isclose(st[name][1], secs), (name, st[name])
    # without overlapping siblings, self times add up to the root's duration
    st = tracing.self_times(spans[:5], leaves)
    assert math.isclose(sum(s for _, s in st.values()), 10.0)


def test_computed_kernel_counts():
    # finite field: full convolutions, d^2 of them
    assert tracing.conv_products(5, 7, 4, 1, True) == 35
    assert tracing.conv_products(5, 7, 4, 2, True) == 140
    # Laurent: pairs (i, j) with i + j below the truncation
    assert tracing.conv_products(3, 3, 4, 1, False) == 3 + 3 + 2
    assert tracing.conv_products(3, 3, None, 1, False) == 9
    # Horner: f of length 3 at g of length 4 mod z^5 is two products,
    # 1x4 then 4x4 (the first result is cut to length 4)
    products, length = tracing.horner_products(3, 4, 5, 1, True)
    assert (products, length) == (4 + 16, 5)
    products, length = tracing.horner_products(3, 3, None, 1, False)
    assert (products, length) == (3 + 9, 5)


def test_laurent_family_is_the_sampler_support():
    sys.path.insert(0, str(ROOT / "src"))
    from random import Random

    import parabolic_lab as pl
    from parabolic_lab import samplers

    import workloads
    wl = workloads.LaurentPeriodic()
    family = {pl.series_to_str(f.series) for f in wl.family()}
    assert len(family) == 8
    ring = pl.parse_field("Laurent(GF(3))")
    rng = Random(1)
    drawn = {pl.series_to_str(samplers.random_minimal_polynomial_germ(
        rng, ring, 1, degree=2, t_max=1).series) for _ in range(200)}
    assert drawn == family


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_every_metric_named_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            doc = _run(workload, trace)
            assert set(doc) == {"correct", "attempted", "failed", "metrics"}
            assert doc["correct"] is True and doc["failed"] == 0, doc
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            assert got == want, (workload, trace)
            for name, m in doc["metrics"].items():
                assert isinstance(m["value"], (int, float)), name
                assert not math.isnan(m["value"]), name


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok    {name}")
            except AssertionError as e:
                failures += 1
                print(f"FAIL  {name}: {e!r}")
    sys.exit(1 if failures else 0)
