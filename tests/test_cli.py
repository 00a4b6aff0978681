"""Exit codes, document shapes, and byte-level determinism of the CLI."""

import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from parabolic_lab import TruncatedSeries, cli, identity, series, sweeps
from parabolic_lab.cli import build_parser, main
from parabolic_lab.coeff_rings import MAX_FIELD_DEGREE, LaurentScalar
from parabolic_lab.literals import MAX_DIGITS, MAX_NESTING
from series_oracle import laurent_add, laurent_mul


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run(argv, capsys)
    return code, json.loads(out)


def test_ramify_document(capsys):
    code, doc = run_json(["ramify", "--field", "GF(2)", "--series", "z + z^2",
                          "--nmax", "2", "--N", "20"], capsys)
    assert code == 0
    assert doc == {"q": 1, "N": 20, "i": [1, 3, 15], "delta": [1, 1, 1],
                   "resit": 1}


def test_ramify_resit_note_when_undefined(capsys):
    code, doc = run_json(["ramify", "--field", "GF(3)", "--series",
                          "z + z^3 mod z^20", "--nmax", "1"], capsys)
    assert code == 0
    assert doc["resit"] is None
    assert "resit_note" in doc


def test_bounds_of_an_exact_germ_of_high_degree(capsys):
    # its exact f^q is past the work limit, but the bound reads f only
    # through a window: the document is that of the germ mod z^60
    argv = ["bounds", "--field", "Laurent(GF(5))", "--series",
            "2*z + t*z^2 + z^3 + z^40", "--n", "1"]
    exact = run(argv, capsys)
    argv[4] += " mod z^60"
    assert exact == run(argv, capsys)
    assert exact[0] == 0


def test_minimal_document(capsys):
    code, doc = run_json(["minimal", "--field", "GF(3)", "--series",
                          "z + z^2 + 2*z^3 mod z^30"], capsys)
    assert code == 0
    assert doc["criterion"]["minimal"] is True
    assert doc["definitional"]["minimal"] is True
    assert doc["agree"] is True
    assert doc["mq"] == 2


def test_normalize_document(capsys):
    code, doc = run_json(["normalize", "--field", "GF(3)", "--series",
                          "2*z + z^2 + z^3", "--N", "8"], capsys)
    assert code == 0
    assert doc["q"] == 2
    assert doc["g"] == "2*z + 2*z^3 mod z^8"
    assert doc["a"] == [1, 0, 0]


def test_closed_form_three_modes(capsys):
    code, doc = run_json(["closed-form", "--mode", "chi-xi", "--p", "3",
                          "--q", "1", "--n", "1", "--coeffs", "1,0"], capsys)
    assert code == 0
    assert doc["mode"] == "chi-xi" and doc["chi"] == 1 and doc["xi"] == 2

    code, doc = run_json(["closed-form", "--mode", "iterate-q", "--p", "3",
                          "--q", "2", "--coeffs", "1,2"], capsys)
    assert code == 0
    assert doc["unit_coeffs"] == [1, 2, 1]

    code, doc = run_json(["closed-form", "--mode", "ell", "--p", "3",
                          "--n", "2", "--coeffs", "1,1"], capsys)
    assert code == 0
    assert doc["c2"] == 2 and doc["c3"] == 1


def test_verify_single_case(capsys):
    code, doc = run_json(["verify", "main-lemma", "--p", "3", "--q", "1",
                          "--n", "1", "--coeffs", "1,0", "--N", "10"], capsys)
    assert code == 0
    assert doc["ok"] is True


def test_verify_sweeps_small(capsys):
    code, doc = run_json(["verify", "main-lemma", "--p", "2", "--q", "1",
                          "--n", "1", "--seed", "3"], capsys)
    assert code == 0 and doc["ok"] and doc["cases"] == 50

    code, doc = run_json(["verify", "delta-tower", "--p", "3", "--seed", "5"],
                         capsys)
    assert code == 0 and doc["ok"] and doc["cases"] == 100

    code, doc = run_json(["verify", "semiconj", "--p", "3", "--q", "2",
                          "--seed", "7"], capsys)
    assert code == 0 and doc["ok"]

    code, doc = run_json(["verify", "quasi-invariance", "--p", "3", "--q", "1",
                          "--seed", "9"], capsys)
    assert code == 0 and doc["ok"]


@pytest.mark.parametrize("check,oracle,fake,keys,per_case", [
    (["main-lemma", "--q", "1", "--n", "1"], "verify_main_lemma",
     lambda field, q, n, a, N: SimpleNamespace(ok=False, mismatch=5),
     ["case", "coeffs", "mismatch"], 1),
    (["semiconj", "--q", "2"], "semiconj_check",
     lambda g, m: SimpleNamespace(ok=False, mismatch=5),
     ["case", "m", "series", "mismatch"], 2),   # m = q and m = q*p
    # off by z^5 from f^p - z, the tower's oracle
    (["delta-tower"], "delta_tower",
     lambda f, m: (f.iterate(m) - identity(f.ring, f.n_trunc)
                   + series(f.ring, {5: 1}, f.n_trunc)),
     ["case", "series", "mismatch"], 1),
    (["quasi-invariance", "--q", "2"], "check_quasi_invariance",
     lambda f, h, n_max: SimpleNamespace(
         ok=False, to_jsonable=lambda: {"rows": [{"n": 0, "matched": False}]}),
     ["case", "series", "change", "rows"], 1),
], ids=["main-lemma", "semiconj", "delta-tower", "quasi-invariance"])
def test_sweep_failure_reports_witnesses(check, oracle, fake, keys, per_case,
                                         capsys, monkeypatch):
    from parabolic_lab import sweeps
    monkeypatch.setattr(sweeps, oracle, fake)
    code, doc = run_json(["verify", *check, "--p", "3", "--seed", "7"], capsys)
    assert code == 1
    assert doc["ok"] is False
    assert [w["case"] for w in doc["failures"]] == [
        i for i in range(doc["cases"]) for _ in range(per_case)]
    assert list(doc["failures"][0]) == keys
    if "mismatch" in keys:
        assert doc["failures"][0]["mismatch"] == 5


def test_run_sweeps_script_smoke():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_sweeps.py"),
         "--cases", "2"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(sweeps.SWEEPS)
    assert all(line.split()[-2] == "ok" for line in lines)


def test_cli_fuzz_tells_a_refusal_from_a_bug(monkeypatch):
    # the CI fuzz fails on an escape and only lists an overrun
    import importlib.util
    import signal

    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "cli_fuzz", root / "scripts" / "cli_fuzz.py")
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    germ = ["ramify", "--field", "GF(3)", "--series", "z + z^2"]
    assert fuzz.run_case(germ) == (0, None)
    assert fuzz.run_case(germ[:-1] + ["z + ("]) == (2, "ParseError")
    assert fuzz.run_case(germ + ["--q", "1"]) == (2, "usage")

    def runaway(f, n_max, N):
        time.sleep(5)

    old = signal.signal(signal.SIGALRM, fuzz._alarm)
    try:
        monkeypatch.setattr(fuzz, "BUDGET_S", 0.05)
        monkeypatch.setattr(cli, "ramification_profile", runaway)
        assert fuzz.run_case(germ) == (None, "overrun")
        monkeypatch.setattr(cli, "ramification_profile",
                            lambda f, n_max, N: [][0])
        assert fuzz.run_case(germ) == (None, "escape: IndexError")
    finally:
        signal.signal(signal.SIGALRM, old)


def test_desk_experiment_exit_status(capsys, monkeypatch):
    # both modes exit 1 when a period-3 root lies beyond the bound
    import dataclasses
    import importlib.util
    from fractions import Fraction

    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "desk_experiment", root / "scripts" / "desk_experiment.py")
    desk = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(desk)
    assert desk.run(False) == 0 and desk.run(True) == 0
    real = desk.periodic_valuation_bound
    monkeypatch.setattr(desk, "periodic_valuation_bound", lambda f, n: (
        dataclasses.replace(real(f, n), bound_valuation=Fraction(1, 22))))
    assert desk.run(False) == 1 and desk.run(True) == 1
    capsys.readouterr()


def test_bounds_document(capsys):
    code, doc = run_json(["bounds", "--field", "Laurent(GF(3))", "--series",
                          "z + t*z^2 + z^3", "--n", "1"], capsys)
    assert code == 0
    assert doc["bound_valuation"] == "1/3"
    assert doc["branch"] == "p-odd"


def test_bounds_degenerate_is_not_an_error(capsys):
    # resit = 0, the second with a_1 = 1 + t not a monomial in t
    for series in ("z + z^2 + z^3", "z + (1 + t)*z^2 + (1 + 2*t + t^2)*z^3"):
        code, doc = run_json(["bounds", "--field", "Laurent(GF(3))",
                              "--series", series, "--n", "1"], capsys)
        assert code == 0
        assert doc["bound_valuation"] == "no-information"


def test_newton_document(capsys):
    code, doc = run_json(["newton", "--field", "Laurent(GF(3))", "--poly",
                          "t*z^2 + z^3"], capsys)
    assert code == 0
    assert doc["segments"] == [{"slope": "-1/1", "length": 1}]
    assert doc["root_valuations"] == [{"valuation": "1/1", "count": 1}]


def test_newton_reads_a_polynomial_too_wide_in_t_for_a_series(capsys):
    # no series holds coefficients 5*10^9 t-slots apart, and the polygon
    # needs none: it is read off the parsed terms
    code, doc = run_json(["newton", "--field", "Laurent(GF(3))", "--poly",
                          "t^5000000000*z + z^2"], capsys)
    assert code == 0
    assert doc["vertices"] == [[1, "5000000000/1"], [2, "0/1"]]
    assert doc["root_valuations"] == [{"valuation": "5000000000/1",
                                       "count": 1}]


def test_cycle_valuations_document(capsys):
    code, doc = run_json(["cycle-valuations", "--field", "Laurent(GF(3))",
                          "--series", "z + t*z^2 + z^3", "--n", "0"], capsys)
    assert code == 0
    assert doc["cycle_points"] == 1 and doc["attained"] is True


def test_cycle_valuations_over_a_non_monomial_lead(capsys):
    # the quotient by f - z, whose lead 1 + t is not a monomial, is exact
    code, doc = run_json(["cycle-valuations", "--field", "Laurent(GF(2))",
                          "--series", "z + (1 + t)*z^2 + (1 + t)*z^3",
                          "--n", "1"], capsys)
    assert code == 0
    assert doc["root_valuations"] == [{"valuation": "1/4", "count": 4}]


def test_exit_one_on_verification_failure(capsys, monkeypatch):
    # the cycle quotient of an integral germ is integral (a theorem); one
    # made non-integral on purpose is a failed verification
    divide = TruncatedSeries.divide_exact

    def skewed(num, den):
        quot = divide(num, den)
        return quot * series(quot.ring, {0: quot.ring.t(-100)}, None)

    monkeypatch.setattr(TruncatedSeries, "divide_exact", skewed)
    code, doc = run_json(["cycle-valuations", "--field", "Laurent(GF(3))",
                          "--series", "z + t*z^2", "--n", "0"], capsys)
    assert code == 1
    assert doc["kind"] == "NonIntegralCoefficient"


def test_exit_two_on_a_non_integral_germ(capsys):
    # the germ itself is input: not over the valuation ring, it is unusable
    for argv in (["bounds", "--n", "0"], ["bounds", "--n", "1"],
                 ["cycle-valuations", "--n", "0"]):
        code, doc = run_json(argv + ["--field", "Laurent(GF(3))", "--series",
                                     "z + t^-1*z^2"], capsys)
        assert code == 2
        assert doc == {"error": "coefficient of z^2 has negative valuation",
                       "kind": "NonIntegralGerm"}


def test_exit_two_on_bad_input(capsys):
    code, doc = run_json(["ramify", "--field", "GF(2)", "--series",
                          "z + + z^2"], capsys)
    assert code == 2
    assert doc["kind"] == "ParseError"
    assert "position 4" in doc["error"]

    code, doc = run_json(["verify", "semiconj", "--p", "3", "--q", "2"],
                         capsys)
    assert code == 2

    code, doc = run_json(["minimal", "--field", "GF(3)"], capsys)
    assert code == 2

    for mode in (["chi-xi", "--q", "1", "--n", "1"], ["iterate-q", "--q", "2"],
                 ["ell", "--n", "2"]):
        code, doc = run_json(["closed-form", "--mode", *mode, "--p", "3"],
                             capsys)
        assert code == 2
        assert doc == {"error": "this command needs --coeffs",
                       "kind": "ParabolicLabError"}
        # every --coeffs is a pair; another count is refused by name
        for coeffs, count in (("1,0,2", 3), ("1", 1)):
            code, doc = run_json(["closed-form", "--mode", *mode, "--p", "3",
                                  "--coeffs", coeffs], capsys)
            assert code == 2
            assert doc == {"error": f"--coeffs takes two values, got {count}",
                           "kind": "ParabolicLabError"}
    for coeffs, count in (("1,0,2", 3), ("1", 1)):
        code, doc = run_json(["verify", "main-lemma", "--p", "3", "--q", "1",
                              "--n", "1", "--coeffs", coeffs], capsys)
        assert code == 2
        assert doc == {"error": f"--coeffs takes two values, got {count}",
                       "kind": "ParabolicLabError"}

    # a window is taken as given: N = 0 is refused, not replaced by 12
    code, doc = run_json(["verify", "delta-tower", "--p", "3", "--seed", "1",
                          "--N", "0"], capsys)
    assert code == 2
    assert doc["kind"] == "ParabolicLabError"

    # modulo z^1 every series vanishing at 0 is zero: nothing to check
    code, doc = run_json(["verify", "delta-tower", "--p", "3", "--seed", "1",
                          "--N", "1"], capsys)
    assert code == 2
    assert doc == {"error": "window 1 leaves no room for a nonzero term",
                   "kind": "ParabolicLabError"}

    # primality is certified only below 3.3e24; larger p are refused at once
    code, doc = run_json(["ramify", "--field", "GF(3317044064679887385961983)",
                          "--series", "z + z^2"], capsys)
    assert code == 2
    assert doc["kind"] == "ParabolicLabError"

    # a field degree past the bound is refused before any modulus search,
    # and so is the degree search for a root of unity of large order
    for argv in (["ramify", "--field", "GF(3,1000)", "--series", "z + z^2",
                  "--nmax", "1"],
                 ["closed-form", "--mode", "chi-xi", "--p", "3",
                  "--q", "1000003", "--n", "1", "--coeffs", "1,0"]):
        code, doc = run_json(argv, capsys)
        assert code == 2
        assert doc["kind"] == "FieldDegreeTooLarge"
        assert str(MAX_FIELD_DEGREE) in doc["error"]

    # z^2 is the first tail term, so a window of 2 holds no germ to sample
    code, doc = run_json(["verify", "quasi-invariance", "--p", "3", "--q", "1",
                          "--seed", "1", "--N", "2"], capsys)
    assert code == 2
    assert doc == {"error": "window 2 leaves no room for a tail",
                   "kind": "ParabolicLabError"}


# 5000 digits: past the parser's limit and the interpreter's int-string limit
_BIG = "1" + "0" * 4999


def _refused(kind, error):
    return {"kind": kind, "error": error}


def _too_long(pos):
    return _refused("ParseError", "integer literal of 5000 digits is longer "
                                  f"than {MAX_DIGITS} (at position {pos})")


def _too_deep(pos):
    return _refused("ParseError", f"parentheses nested more than "
                                  f"{MAX_NESTING} deep (at position {pos})")


# (id, argv, exit code, a part of the document): a refusal's kind and
# message, or for exit 0 the keys the row is there for
_PATHS = [
    # literals
    ("unexpected-character", ["ramify", "--field", "GF(3)", "--series",
                              "z + z^2 ?"],
     2, _refused("ParseError", "unexpected character '?' (at position 8)")),
    # a digit to str.isdigit() that int() does not read
    ("superscript-digit", ["ramify", "--field", "GF(3)", "--series",
                           "z + z^\u00b2"],
     2, _refused("ParseError",
                 "unexpected character '\u00b2' (at position 6)")),
    ("expected-op", ["ramify", "--field", "GF 3", "--series", "z + z^2"],
     2, _refused("ParseError", "expected '(' (at position 3)")),
    ("laurent-of-laurent", ["ramify", "--field", "Laurent(Laurent(GF(3)))",
                            "--series", "z + z^2"],
     2, _refused("ParseError", "Laurent coefficients must form a finite "
                               "field (at position 0)")),
    ("x-over-a-prime-field", ["ramify", "--field", "GF(3)", "--series",
                              "z + x*z^2"],
     2, _refused("ParseError", "x needs an extension field (at position 4)")),
    ("o-over-a-finite-field", ["ramify", "--field", "GF(3)", "--series",
                               "z + O(t^2)*z^2"],
     2, _refused("ParseError",
                 "O(t^k) needs Laurent coefficients (at position 4)")),
    ("z-inside-a-coefficient", ["ramify", "--field", "GF(3)", "--series",
                                "z + (z)*z^2"],
     2, _refused("ParseError",
                 "z cannot appear inside a coefficient (at position 5)")),
    ("two-z-factors", ["ramify", "--field", "GF(3)", "--series", "z + z*z"],
     2, _refused("ParseError", "two z factors in one term (at position 6)")),
    ("x-power", ["ramify", "--field", "GF(3,2)", "--series", "z + x^2*z^2",
                 "--nmax", "1"],
     0, {"i": [1, 4], "delta": ["2", "1"]}),
    ("leading-minus", ["ramify", "--field", "GF(3)", "--series", "-z + z^3",
                       "--nmax", "1"],
     0, {"q": 2, "i": [2, "beyond-truncation"]}),
    ("infinite-jump", ["ramify", "--field", "GF(3)", "--series", "2*z",
                       "--nmax", "1"],
     0, {"i": ["infinite", "infinite"]}),
    # integer literals too long to read
    ("long-coefficient", ["ramify", "--field", "GF(3)", "--series",
                          f"z + {_BIG}*z^2"], 2, _too_long(4)),
    ("long-characteristic", ["ramify", "--field", f"GF({_BIG})", "--series",
                             "z + z^2"], 2, _too_long(3)),
    ("long-exponent", ["ramify", "--field", "GF(3)", "--series",
                       f"z + z^{_BIG}"], 2, _too_long(6)),
    ("long-t-exponent", ["newton", "--field", "Laurent(GF(3))", "--poly",
                         f"t^{_BIG}*z^2 + z^3"], 2, _too_long(2)),
    ("long-coeffs", ["closed-form", "--mode", "chi-xi", "--p", "3", "--q",
                     "1", "--n", "1", "--coeffs", f"{_BIG},0"],
     2, _too_long(0)),
    # a level whose default window no number under the int-string limit
    # counts: the work limit names its size by a power of two
    ("level-past-any-window", ["ramify", "--field", "GF(3)", "--series",
                               "z + z^2", "--nmax", "100000"],
     2, _refused("WorkBudgetExceeded", "a series window of at least "
                 "2^158499 bytes is over the work limit of 262144 bytes")),
    # nesting past the interpreter's stack
    ("nested-laurent", ["ramify", "--field",
                        "Laurent(" * 1000 + "GF(3)" + ")" * 1000,
                        "--series", "z + z^2"],
     2, _refused("ParseError", "Laurent coefficients must form a finite "
                               "field (at position 0)")),
    ("nested-series-scalar", ["ramify", "--field", "GF(3)", "--series",
                              "z + " + "(" * 400 + "1" + ")" * 400 + "*z^2"],
     2, _too_deep(4 + MAX_NESTING)),
    ("nested-poly-scalar", ["newton", "--field", "Laurent(GF(3))", "--poly",
                            "(" * 300 + "t" + ")" * 300 + "*z + z^2"],
     2, _too_deep(MAX_NESTING)),
    # a scalar stored densely across a gap of 2^32 in t
    ("far-apart-scalar", ["ramify", "--field", "Laurent(GF(3))", "--series",
                          "z + (t^2 + t^4294967290)*z^2"],
     2, _refused("WorkBudgetExceeded", "a t-frame of 34359738312 "
                 "bytes is over the work limit of 262144 bytes")),
    # bounds and cycle valuations
    ("identity-iterate", ["bounds", "--field", "Laurent(GF(3))", "--series",
                          "z", "--n", "0"],
     2, _refused("ResitUndefined",
                 "f^q is the identity; there is no level-zero jump")),
    ("i0-not-q-at-level-zero", ["bounds", "--field", "Laurent(GF(3))",
                                "--series", "z + z^3", "--n", "0"],
     2, _refused("ResitUndefined",
                 "i_0(f^q) = 2; the bounds need i_0 = q = 1")),
    ("i0-past-q", ["bounds", "--field", "Laurent(GF(3))", "--series",
                   "z + z^3", "--n", "1"],
     2, _refused("ResitUndefined", "i_0(f^q) exceeds q = 1")),
    ("linear-cycle-germ", ["cycle-valuations", "--field", "Laurent(GF(3))",
                           "--series", "2*z", "--n", "0"],
     2, _refused("ParabolicLabError",
                 "a linear germ has no nonlinear periodic structure")),
    # windows and levels
    ("negative-nmax", ["ramify", "--field", "GF(3)", "--series", "z + z^2",
                       "--nmax", "-1"],
     2, _refused("ParabolicLabError", "n_max must be >= 0, got -1")),
    ("level-zero-vanishes", ["ramify", "--field", "GF(3)", "--series",
                             "z + z^5 mod z^4"],
     2, _refused("TruncationTooSmall",
                 "f^q - z vanishes through the window z^4; raise N")),
    ("definitional-window", ["minimal", "--field", "GF(3)", "--series",
                             "z + z^2", "--N", "5"],
     2, _refused("TruncationTooSmall",
                 "definitional check up to n_max=2 needs a window of 15")),
    ("normal-form-window", ["normalize", "--field", "GF(3)", "--series",
                            "2*z + z^2", "--N", "3"],
     2, _refused("TruncationTooSmall",
                 "reduced form needs a window of at least 6, got 3")),
    # missing flags
    ("needs-p-or-field", ["closed-form", "--mode", "ell", "--n", "2",
                          "--coeffs", "1,0"],
     2, _refused("ParabolicLabError", "this command needs --p or --field")),
    ("needs-p", ["verify", "semiconj", "--q", "2", "--seed", "1"],
     2, _refused("ParabolicLabError", "this command needs --p")),
    ("needs-coeffs-or-seed", ["verify", "main-lemma", "--p", "3", "--q", "1",
                              "--n", "1"],
     2, _refused("ParabolicLabError",
                 "verify main-lemma needs --coeffs or --seed")),
    ("delta-tower-needs-seed", ["verify", "delta-tower", "--p", "3"],
     2, _refused("ParabolicLabError", "verify delta-tower needs --seed")),
    ("quasi-invariance-needs-seed", ["verify", "quasi-invariance", "--p", "3",
                                     "--q", "1"],
     2, _refused("ParabolicLabError",
                 "verify quasi-invariance needs --seed")),
]


@pytest.mark.parametrize("argv,code,part", [row[1:] for row in _PATHS],
                         ids=[row[0] for row in _PATHS])
def test_input_paths(argv, code, part, capsys):
    got, doc = run_json(argv, capsys)
    assert got == code
    assert {key: doc.get(key) for key in part} == part


def test_iterate_q_over_a_large_extension_is_quick(capsys):
    # GF(65537^2): the root of unity's scan no longer tests the prime field
    start = time.perf_counter()
    code, doc = run_json(["closed-form", "--mode", "iterate-q", "--p",
                          "65537", "--q", "3", "--coeffs", "2,1"], capsys)
    assert time.perf_counter() - start < 2
    assert code == 0 and doc["gamma"] == "32768 + 32769*x"


@pytest.mark.parametrize("argv", [
    # exact iterates of degree 6^5 = 7776 and 3^9
    ["cycle-valuations", "--n", "1", "--field", "Laurent(GF(5))", "--series",
     "z + (1 + t)*z^6"],
    ["cycle-valuations", "--n", "1", "--field", "Laurent(GF(5))", "--series",
     "z + t^2*z^3 + 1*z^5 + 1*z^6"],
    ["cycle-valuations", "--n", "2", "--field", "Laurent(GF(3))", "--series",
     "z + t*z^2 + z^3"],
    # a default window of about 4.3e9 rows, a t-frame of about 4.3e9 slots
    ["ramify", "--field", "GF(65537)", "--series", "z + z^2"],
    ["ramify", "--field", "Laurent(GF(3))", "--series", "z + t^4294967290*z^2"],
    # a window of 10^30 rows, refused before the sampler draws its slots
    ["verify", "semiconj", "--p", "5", "--q", "4", "--N", str(10**30),
     "--seed", "1"],
    ["verify", "quasi-invariance", "--p", "3", "--q", "1", "--N", str(10**30),
     "--seed", "1"],
    ["verify", "delta-tower", "--p", "3", "--N", str(10**30), "--seed", "1"],
])
def test_work_past_the_kernel_limit_is_refused(argv, capsys):
    code, doc = run_json(argv, capsys)
    assert code == 2
    assert doc["kind"] == "WorkBudgetExceeded"
    assert "work limit" in doc["error"]


def test_a_negative_nmax_is_refused_before_the_conjugation(capsys):
    # the conjugation inverts h through the window z^2000: 11 s of work
    # when it came before the level check
    argv = ["verify", "quasi-invariance", "--p", "5", "--q", "13", "--nmax",
            "-1", "--N", "2000", "--seed", "446"]
    start = time.perf_counter()
    code, doc = run_json(argv, capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert doc == _refused("ParabolicLabError", "n_max must be >= 0, got -1")


def test_a_precision_pass_past_the_work_limit_is_refused_at_once(capsys):
    # the coefficient known only to O(t^5) sends the composition to Horner's
    # rule, whose every product pairs each row with each row to find its
    # t-precision: 17.6 s before the work limit counted those cells
    argv = ["ramify", "--field", "Laurent(GF(3))", "--series",
            "z + z^2 + O(t^5)*z^3 mod z^800", "--nmax", "1"]
    start = time.perf_counter()
    code, doc = run_json(argv, capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and doc["kind"] == "WorkBudgetExceeded"
    assert "cells is over the work limit" in doc["error"]


def test_json_out_to_a_path_that_cannot_be_written(tmp_path, capsys):
    path = tmp_path / "missing" / "doc.json"
    code, doc = run_json(["ramify", "--field", "GF(2)", "--series", "z + z^2",
                          "--json-out", str(path)], capsys)
    assert code == 2
    assert doc["kind"] == "FileNotFoundError" and str(path) in doc["error"]
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "main-lemma", "--p", "3", "--q", "1", "--n", "1",
     "--coeffs", "1,0"],
    ["verify", "main-lemma", "--p", "3", "--q", "1", "--n", "1",
     "--seed", "1"],
    ["closed-form", "--mode", "iterate-q", "--p", "3", "--q", "2",
     "--coeffs", "1,2"],
])
def test_laurent_field_is_refused_where_a_finite_one_is_needed(argv, capsys):
    # a root of unity and random field elements exist only over GF(p^d)
    code, doc = run_json(argv + ["--field", "Laurent(GF(3))"], capsys)
    assert code == 2
    assert doc["kind"] == "ScalarRingMismatch"
    assert "needs a finite field" in doc["error"]


@pytest.mark.parametrize("n", ["-1", "0"])
def test_main_lemma_refuses_a_level_below_one(n, capsys):
    code, doc = run_json(["verify", "main-lemma", "--p", "3", "--q", "1",
                          "--n", n, "--seed", "1"], capsys)
    assert code == 2
    assert doc == {"error": f"level must be >= 1, got {n}",
                   "kind": "ParabolicLabError"}


def test_closed_forms_still_work_over_a_laurent_field(capsys):
    code, doc = run_json(["closed-form", "--mode", "chi-xi", "--p", "3",
                          "--q", "1", "--n", "1", "--coeffs", "1,0",
                          "--field", "Laurent(GF(3))"], capsys)
    assert code == 0
    assert (doc["chi"], doc["xi"]) == ("1", "2")
    code, doc = run_json(["closed-form", "--mode", "ell", "--n", "2",
                          "--coeffs", "1,1", "--field", "Laurent(GF(3))"],
                         capsys)
    assert code == 0
    assert (doc["c2"], doc["c3"]) == ("2", "1")


@pytest.mark.parametrize("argv", [
    ["closed-form", "--mode", "iterate-q", "--q", "2", "--coeffs", "1,2"],
    ["closed-form", "--mode", "ell", "--n", "2", "--coeffs", "1,1"],
    ["closed-form", "--mode", "chi-xi", "--q", "1", "--n", "1",
     "--coeffs", "1,0"],
    ["verify", "main-lemma", "--q", "1", "--n", "1", "--coeffs", "1,0"],
])
def test_a_p_that_is_not_the_fields_characteristic_is_refused(argv, capsys):
    # the field fixes p; a --p that restates it differently is not ignored
    code, doc = run_json(argv + ["--p", "5", "--field", "GF(3)"], capsys)
    assert code == 2
    assert doc["kind"] == "ParabolicLabError"


@pytest.mark.parametrize("argv", [
    ["verify", "semiconj", "--p", "0", "--q", "2", "--seed", "1"],
    ["verify", "semiconj", "--p", "1", "--q", "2", "--seed", "1"],
    ["verify", "semiconj", "--p", "4", "--q", "2", "--seed", "1"],
    ["closed-form", "--mode", "chi-xi", "--p", "6", "--q", "3", "--n", "1",
     "--coeffs", "1,0"],
])
def test_a_p_that_is_not_prime_is_refused(argv, capsys):
    code, doc = run_json(argv, capsys)
    assert code == 2
    assert doc == {"error": f"characteristic {argv[argv.index('--p') + 1]} "
                            "is not prime", "kind": "CompositeP"}


@pytest.mark.parametrize("argv,error", [
    (["--mode", "iterate-q", "--q", "2", "--n", "7", "--coeffs", "1,2"],
     "--mode iterate-q does not read --n"),
    (["--mode", "ell", "--q", "4", "--n", "2", "--coeffs", "1,1"],
     "--mode ell does not read --q"),
    (["--mode", "iterate-q", "--n", "7", "--coeffs", "1,2"],
     "this command needs --q"),
    (["--mode", "ell", "--coeffs", "1,1"], "this command needs --n"),
    (["--q", "1", "--coeffs", "1,0"], "this command needs --n"),
])
def test_closed_form_takes_the_flags_its_mode_reads(argv, error, capsys):
    # chi-xi reads --q and --n, iterate-q only --q, ell only --n
    code, doc = run_json(["closed-form", "--p", "3", *argv], capsys)
    assert code == 2
    assert doc == {"error": error, "kind": "ParabolicLabError"}


def test_main_lemma_takes_coeffs_or_seed_not_both(capsys):
    code, doc = run_json(["verify", "main-lemma", "--p", "3", "--q", "1",
                          "--n", "1", "--coeffs", "1,0", "--seed", "7"],
                         capsys)
    assert code == 2
    assert doc == {"error": "verify main-lemma takes --coeffs or --seed, "
                            "not both", "kind": "ParabolicLabError"}


def test_a_field_alone_is_enough(capsys):
    argv = ["closed-form", "--mode", "chi-xi", "--q", "4", "--n", "1",
            "--coeffs", "x,1"]
    code, out = run(argv + ["--field", "GF(3,2)"], capsys)
    assert code == 0
    assert (code, out) == run(argv + ["--p", "3"], capsys)


# the flags of every command path and their defaults: None unless given
PARSER_DEFAULTS = {
    ("ramify",): {"field": None, "series": None, "nmax": 2, "N": None},
    ("minimal",): {"field": None, "series": None, "nmax": 2, "N": None},
    ("normalize",): {"field": None, "series": None, "N": None},
    ("closed-form",): {"field": None, "coeffs": None, "p": None, "q": None,
                       "n": None, "mode": "chi-xi"},
    ("verify", "main-lemma"): {"field": None, "coeffs": None, "p": None,
                               "q": None, "n": None, "N": None, "seed": None},
    ("verify", "semiconj"): {"p": None, "q": None, "N": None, "seed": None},
    ("verify", "delta-tower"): {"p": None, "N": None, "seed": None},
    ("verify", "quasi-invariance"): {"p": None, "q": None, "nmax": 1,
                                     "N": None, "seed": None},
    ("bounds",): {"field": None, "series": None, "n": None},
    ("cycle-valuations",): {"field": None, "series": None, "n": None},
    ("newton",): {"field": None, "poly": None},
}


def test_parser_flags_and_defaults():
    for path, flags in PARSER_DEFAULTS.items():
        args = vars(build_parser().parse_args(list(path)))
        del args["fn"]
        names = dict(zip(("command", "check"), path))
        assert args == {**names, **flags, "json_out": None}


def test_every_sweep_is_a_verify_subcommand_taking_the_flags_it_reads():
    verify = {path[1] for path in PARSER_DEFAULTS if path[0] == "verify"}
    assert verify == set(sweeps.SWEEPS)
    for name, sweep in sweeps.SWEEPS.items():
        args = vars(build_parser().parse_args(["verify", name]))
        assert args.pop("fn") is cli._cmd_verify
        assert set(args) == {"command", "check", "p", "seed", "json_out",
                             *sweep.flags}


def test_a_window_past_the_comparison_is_not_iterated(capsys):
    # only the first W coefficients are compared, so --N 2000 answers at
    # once with the document of the default window W
    argv = ["verify", "main-lemma", "--field", "GF(13,2)", "--coeffs",
            "x^5,1", "--q", "4", "--n", "1"]
    start = time.perf_counter()
    got = run(argv + ["--N", "2000"], capsys)
    assert time.perf_counter() - start < 1
    assert got == run(argv, capsys) and got[0] == 0


@pytest.mark.parametrize("coeffs", ["0,1", "3,1"])
def test_chi_xi_at_a_high_level_is_quick(coeffs, capsys):
    # over GF(7) a nonzero base takes its exponent mod 6: the exponents
    # 7^n - r and r + 1 of level 100000 agree mod 6 with those of level 4
    argv = ["closed-form", "--mode", "chi-xi", "--p", "7", "--q", "1",
            "--coeffs", coeffs, "--n"]
    start = time.perf_counter()
    code, doc = run_json(argv + ["100000"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 0
    assert doc == {**run_json(argv + ["4"], capsys)[1], "n": 100000}


def test_chi_xi_over_a_laurent_field_matches_the_schoolbook_scalars(
        capsys, monkeypatch):
    # chi and xi raise 1 + t to exponents near 3^n, every product and sum of
    # scalars a one-row product or sum on the kernel; the document is the
    # one the schoolbook loops of series_oracle give, and a level that took
    # them 11 s answers at once
    argv = ["closed-form", "--mode", "chi-xi", "--field", "Laurent(GF(3))",
            "--q", "1", "--coeffs", "1+t,0", "--n"]
    kernel = run(argv + ["6"], capsys)
    calls = []

    def schoolbook(op):
        def method(self, other):
            other = self._coerce(other)
            if other is NotImplemented:
                return other
            calls.append(op)
            return op(self, other)
        return method

    with monkeypatch.context() as m:
        for name, op in [("__mul__", laurent_mul), ("__rmul__", laurent_mul),
                         ("__add__", laurent_add), ("__radd__", laurent_add)]:
            m.setattr(LaurentScalar, name, schoolbook(op))
        assert run(argv + ["6"], capsys) == kernel
    assert kernel[0] == 0 and {laurent_mul, laurent_add} <= set(calls)
    start = time.perf_counter()
    assert run(argv + ["8"], capsys)[0] == 0
    assert time.perf_counter() - start < 5


DESK = ["--field", "Laurent(GF(3))", "--series", "z + t*z^2 + z^3", "--n", "1"]


@pytest.mark.parametrize("argv", [
    ["bounds", *DESK, "--p", "5"],
    ["bounds", *DESK, "--q", "7"],
    ["cycle-valuations", *DESK, "--p", "5"],
    ["cycle-valuations", *DESK, "--q", "2"],
    ["verify", "delta-tower", "--p", "3", "--q", "2", "--seed", "1"],
    ["verify", "delta-tower", "--p", "3", "--n", "1", "--seed", "1"],
    ["verify", "semiconj", "--p", "3", "--q", "2", "--n", "1", "--seed", "1"],
    ["verify", "quasi-invariance", "--p", "3", "--q", "1", "--n", "1",
     "--seed", "1"],
    ["newton", "--field", "Laurent(GF(3))", "--poly", "t*z^2 + z^3",
     "--tprec", "3"],
])
def test_a_flag_the_command_does_not_read_is_refused(argv, capsys):
    # argparse exits 2 with usage on stderr; no JSON document is printed
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments" in err


def _readme_cli_examples():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("parabolic-lab ")]


def test_readme_cli_examples_exit_zero(tmp_path, capsys):
    examples = _readme_cli_examples()
    assert len(examples) == 14
    for argv in examples:
        out = tmp_path / "doc.json"
        assert main(argv + ["--json-out", str(out)]) == 0, argv
        assert json.loads(out.read_text())
    assert capsys.readouterr().out == ""


def test_cached_parser_keeps_no_state_between_calls(capsys):
    assert cli._parser() is cli._parser()
    argv = ["ramify", "--field", "GF(2)", "--series", "z + z^2", "--N", "20"]
    assert run_json(argv + ["--nmax", "0"], capsys)[1]["i"] == [1]
    assert run_json(argv, capsys)[1]["i"] == [1, 3, 15]


def test_json_out_writes_the_same_bytes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["verify", "main-lemma", "--p", "2", "--q", "1", "--n", "1",
            "--seed", "3"]
    assert main(argv + ["--json-out", str(a)]) == 0
    assert main(argv + ["--json-out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "parabolic_lab.cli", "ramify", "--field",
         "GF(2)", "--series", "z + z^2", "--N", "20"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["i"] == [1, 3, 15]

    # p - 1 = 2 * (a 62-bit prime): trial division alone would not finish
    proc = subprocess.run(
        [sys.executable, "-m", "parabolic_lab.cli", "ramify", "--field",
         "GF(4611686018427394499)", "--series", "z + z^2", "--N", "6",
         "--nmax", "0"], capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["i"] == [1]


def test_ramify_over_an_extension_without_irreducible_binomials(capsys):
    code, doc = run_json(["ramify", "--field", "GF(65537,3)", "--series",
                          "z + z^2", "--N", "6", "--nmax", "0"], capsys)
    assert code == 0
    assert doc["i"] == [1]


def test_ramify_over_an_extension_of_a_characteristic_past_2_to_the_63(capsys):
    # GF(p^2) by x^2 + 2 with p = 9223372036854775837: coordinates and the
    # kernel's table of x^k mod the modulus no longer fit int64.  resit is
    # 1 - 1/x^2 = 3/2 = (p + 3)/2
    code, doc = run_json(["ramify", "--field", "GF(9223372036854775837,2)",
                          "--series", "z + x*z^2 + z^3", "--nmax", "1",
                          "--N", "12"], capsys)
    assert code == 0
    assert doc == {"q": 1, "N": 12, "i": [1, "beyond-truncation"],
                   "delta": ["x", None], "resit": "4611686018427387920"}


def test_printed_series_reparse(capsys):
    # everything the CLI prints as a series literal re-parses to equality
    from parabolic_lab import parse_field, parse_series, series_to_str
    code, doc = run_json(["normalize", "--field", "GF(3)", "--series",
                          "2*z + z^2 + z^3", "--N", "8"], capsys)
    assert code == 0
    F3 = parse_field("GF(3)")
    for key in ("g", "h"):
        s = parse_series(doc[key], F3)
        assert series_to_str(s) == doc[key]
