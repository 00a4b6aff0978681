#!/usr/bin/env python3
"""Seeded fuzz of the command line: every refusal must be a typed one.

Draws argv lines over the whole input domain of `parabolic-lab` and runs
each through cli.main in process, under a SIGALRM budget of BUDGET_S
seconds.  The draws cover fields up to GF(65537^2), GF(2^61 - 1), GF(3^24)
and Laurent(GF(3^3)), and GF(p) and Laurent(GF(p)) for p past 2^63; series
with O(t^k) terms and windows up to z^2000; integer literals at the
parser's digit limit and past the interpreter's int-string limit, and a
superscript digit; deeply nested literals; levels up to 100000 and windows
up to 4300 digits; and missing, contradicting and unread flags.

A call passes when it returns 0, 1 or 2 with one JSON document, or when
argparse refuses its flags with usage (exit 2).  The script exits 1 when any
call lets an exception escape (anything but a ParabolicLabError is a bug),
returns another code or prints no document.  A call that overruns the budget
is listed by argv with a count but does not fail the run.

    python scripts/cli_fuzz.py --seed 0 --cases 400
"""

import argparse
import contextlib
import io
import json
import shlex
import signal
import sys
from collections import Counter
from random import Random

from parabolic_lab import cli

BUDGET_S = 3

# the last one is past 2^63: its coordinates are numpy object arrays
PRIMES = [2, 3, 5, 7, 65537, 2**61 - 1, 9223372036854775837]
# integer literals at the parser's limit of 600 digits, and past the default
# int-string limit of 4300 digits
LONG = "9" * 600
BIG = "9" * 5000
# (p, d) of the extension fields drawn, GF(3^24) the largest degree
EXTENSIONS = [(2, 2), (3, 2), (2, 6), (3, 3), (3, 4), (13, 2), (5, 3),
              (65537, 2), (3, 24)]
LAURENT_BASES = ["GF(2)", "GF(3)", "GF(5)", "GF(3,2)", "GF(3,3)",
                 "GF(9223372036854775837)"]
# nesting depths around the parser's limit and past the interpreter's stack
DEPTHS = [2, 40, 60, 300, 400, 1000]


def _int(rng: Random) -> str:
    if rng.random() < 0.01:
        return rng.choice([LONG, BIG])
    return str(rng.choice([0, 1, 1, 2, 2, 3, 4, 5, 7, 12, 100, 65536,
                           2**61, 10**30]))


def _prime(rng: Random) -> int:
    if rng.random() < 0.05:
        return rng.choice([0, 1, 4, 9])
    if rng.random() < 0.2:
        return rng.choice(PRIMES[4:])
    return rng.choice(PRIMES[:4])


def _field(rng: Random, laurent: bool) -> str:
    r = rng.random()
    if r < 0.08:
        return rng.choice([
            "GF(3,2;modulus=1,0,1)", "GF(2,2;modulus=1,0,1)",
            "GF(3,2;modulus=1)", "GF(3,0)", "GF(3,1000)",
            "GF(3317044064679887385961983)", f"GF({BIG})",
            "Laurent(Laurent(GF(3)))",
            "Laurent(" * 1000 + "GF(3)" + ")" * 1000,
            "GF(3", "GF(3))", "QQ", "", "Laurent(GF(3)",
            "GF(2,3;modulus=1,1,0,1)",
        ])
    if laurent:
        return f"Laurent({rng.choice(LAURENT_BASES)})"
    if r < 0.6:
        return f"GF({_prime(rng)})"
    p, d = rng.choice(EXTENSIONS)
    return f"GF({p},{d})"


def _atom(rng: Random, laurent: bool, ext: bool, depth: int = 0) -> str:
    r = rng.random()
    if r < 0.02:
        k = rng.choice(DEPTHS)
        return "(" * k + _atom(rng, laurent, ext, depth + 1) + ")" * k
    if r < 0.08 and depth < 2:
        return "(" + _scalar(rng, laurent, ext, depth + 1) + ")"
    if r < 0.1:
        # an atom the ring may refuse, or no atom at all; "²" is a digit
        # to str.isdigit() but not to int()
        return rng.choice(["x", "t", "O(t^2)", "z", "?", "t^", "()", "t^²"])
    if laurent and r < 0.4:
        e = rng.choice(["", "^2", "^-1", "^3", "^40", "^4294967290",
                        f"^{_int(rng)}", f"^-{_int(rng)}"])
        return "t" + e
    if laurent and r < 0.48:
        return f"O(t^{rng.choice([-1, 0, 1, 3, 5, 64])})"
    if ext and r < 0.6:
        return "x" + rng.choice(["", "^2", "^5", f"^{_int(rng)}"])
    return _int(rng)


def _scalar(rng: Random, laurent: bool, ext: bool, depth: int = 0) -> str:
    parts = [_atom(rng, laurent, ext, depth)]
    while rng.random() < 0.3:
        parts += [rng.choice(["+", "-", "*"]), _atom(rng, laurent, ext, depth)]
    return ("-" if rng.random() < 0.1 else "") + " ".join(parts)


def _series(rng: Random, field: str) -> str:
    laurent, ext = field.startswith("Laurent"), "," in field
    leads = ["z", "z", "z", "2*z", "-z", "0*z"]
    leads += ["x*z", "(x + 1)*z"] if ext else []
    leads += ["(1 + t)*z"] if laurent else []
    terms = [rng.choice(leads)] if rng.random() < 0.97 else []
    for _ in range(rng.choice([0, 1, 1, 2, 2, 3, 4])):
        e = rng.choice([2, 2, 3, 3, 4, 5, 7, 10, 40, 200, 2000])
        if rng.random() < 0.03:
            e = rng.choice([0, BIG])
        terms.append(f"({_scalar(rng, laurent, ext)})*z^{e}")
    if rng.random() < 0.03:
        terms.append(rng.choice(["z*z", "z^", "+", "mod"]))
    text = " + ".join(terms) or "0"
    if rng.random() < 0.5:
        text += f" mod z^{rng.choice([1, 3, 5, 10, 30, 100, 800, 2000])}"
    return text


def _coeffs(rng: Random, field: str) -> str:
    laurent, ext = field.startswith("Laurent"), "," in field
    count = rng.choice([2] * 12 + [1, 3])
    return ",".join(_scalar(rng, laurent, ext) for _ in range(count))


# command -> the flags it reads
COMMANDS = {
    ("ramify",): ("field", "series", "nmax", "N"),
    ("minimal",): ("field", "series", "nmax", "N"),
    ("normalize",): ("field", "series", "N"),
    ("closed-form",): ("mode", "field", "coeffs", "p", "q", "n"),
    ("verify", "main-lemma"): ("field", "coeffs", "p", "q", "n", "N", "seed"),
    ("verify", "semiconj"): ("p", "q", "N", "seed"),
    ("verify", "delta-tower"): ("p", "N", "seed"),
    ("verify", "quasi-invariance"): ("p", "q", "nmax", "N", "seed"),
    ("bounds",): ("field", "series", "n"),
    ("cycle-valuations",): ("field", "series", "n"),
    ("newton",): ("field", "poly"),
}
ALL_FLAGS = sorted({flag for flags in COMMANDS.values() for flag in flags})
# commands whose germs or polynomials need Laurent coefficients
LAURENT_COMMANDS = {("bounds",), ("cycle-valuations",), ("newton",)}
# flag pairs of which a command takes either one, not both
EITHER = [("p", "field"), ("coeffs", "seed")]
# the flags a closed-form --mode does not read
MODE_UNREAD = {"chi-xi": (), "iterate-q": ("n",), "ell": ("q",)}


def _value(rng: Random, flag: str, field: str) -> str:
    if flag == "field":
        return field
    if flag in ("series", "poly"):
        return _series(rng, field)
    if flag == "coeffs":
        return _coeffs(rng, field)
    if flag == "p":
        return str(_prime(rng))
    if flag == "q":
        return str(rng.choice([1, 1, 2, 2, 3, 4, 5, 7, 8, 13, 0, -1]))
    if flag in ("n", "nmax"):
        if rng.random() < 0.03:
            return str(rng.choice([40, 100000]))
        return str(rng.choice([0, 1, 1, 2, 3, -1]))
    if flag == "N":
        if rng.random() < 0.1:
            return str(rng.choice([0, 1, 2, 10**30, "9" * 4300]))
        return str(rng.choice([5, 10, 20, 30, 100, 2000]))
    return str(rng.randrange(1000))  # seed


def draw_argv(rng: Random) -> list[str]:
    command = rng.choice(sorted(COMMANDS))
    laurent = rng.random() < (0.8 if command in LAURENT_COMMANDS else 0.25)
    field = _field(rng, laurent)
    flags = list(COMMANDS[command])
    for pair in EITHER:
        # mostly one of the two; both is a contradiction to refuse
        if set(pair) <= set(flags) and rng.random() < 0.9:
            flags.remove(rng.choice(pair))
    argv = list(command)
    if "mode" in flags:
        mode = rng.choice(sorted(MODE_UNREAD))
        flags.remove("mode")
        argv += ["--mode", mode]
        for flag in MODE_UNREAD[mode]:
            if rng.random() < 0.9:  # else a flag to refuse
                flags.remove(flag)
    for flag in flags:
        if rng.random() < 0.96:  # else a missing flag
            argv += [f"--{flag}", _value(rng, flag, field)]
    if rng.random() < 0.03:
        # a flag the command may not read: argparse refuses it with usage
        flag = rng.choice(ALL_FLAGS)
        argv += [f"--{flag}", _value(rng, flag, field)]
    return argv


class _Overrun(BaseException):
    """The call ran past its budget; a BaseException so no handler in the
    library can swallow it."""


def _alarm(signum, frame):
    raise _Overrun


def run_case(argv: list[str]):
    """(exit code, kind) of one call.  kind is the document's error kind, or
    None on success; "usage" when argparse refuses the flags; "overrun"
    past the budget; "no document" when the output is not JSON; and
    "escape: <type>" (exit code None) when an exception escapes."""
    out = io.StringIO()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except _Overrun:
        return None, "overrun"
    except SystemExit as e:
        return e.code, "usage"
    except Exception as e:
        return None, f"escape: {type(e).__name__}"
    try:
        return code, json.loads(out.getvalue()).get("kind")
    except ValueError:
        return code, "no document"


def _show(argv: list[str]) -> str:
    """argv as a shell line, each long argument cut to its ends."""
    return shlex.join(a if len(a) <= 80 else f"{a[:30]}...[{len(a)} chars]"
                      f"...{a[-30:]}" for a in argv)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cases", type=int, default=400)
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _alarm)

    rng = Random(args.seed)
    codes, kinds, overruns = Counter(), Counter(), Counter()
    bad = []
    for _ in range(args.cases):
        argv = draw_argv(rng)
        code, kind = run_case(argv)
        if kind == "overrun":
            overruns[_show(argv)] += 1
            continue
        codes[code] += 1
        kinds[kind or "(no error)"] += 1
        if code not in (0, 1, 2) or kind == "no document":
            bad.append((code, kind, argv))

    print(f"cases {args.cases}, seed {args.seed}")
    print("exit codes: " + ", ".join(f"{c}: {n}" for c, n in
                                     sorted(codes.items(), key=str)))
    print("kinds: " + ", ".join(f"{k}: {n}" for k, n in
                                sorted(kinds.items())))
    print(f"failures: {len(bad)}")
    for code, kind, argv in bad:
        print(f"  exit {code}, {kind}: {_show(argv)}")
    print(f"overruns (over {BUDGET_S} s): {sum(overruns.values())}")
    for line, n in sorted(overruns.items()):
        print(f"  {n} x {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
