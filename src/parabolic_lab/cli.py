"""Command line front end.

Every subcommand parses its inputs completely, runs one library operation or
one randomized sweep, and prints a single JSON document.  Output is
deterministic: field order is fixed, rationals are "num/den" strings, floats
never appear, and sweeps derive every sample from the mandatory --seed.

Exit codes: 0 for success (including a bound that degenerates to "no
information").  1 when a verification fails: a reported mismatch, or a
NotDivisible or NonIntegralCoefficient raised where a theorem promises
exactness, as in a cycle quotient (NonIntegralGerm excepted).  2 for every
other ParabolicLabError, all of which are unusable input, and for a
--json-out path that cannot be written.  Any other exception is a bug and
propagates with its traceback.  Each command takes exactly the flags it reads;
argparse refuses any other with usage on stderr and no JSON document.  The
flags a closed-form --mode does not read are refused with a JSON document.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from random import Random

from . import sweeps
from .closed_forms import (
    chi_xi,
    ell_iterate_quadratic,
    iterate_q_closed,
    verify_main_lemma,
)
from .coeff_rings import root_of_unity, smallest_field_with_root
from .errors import (
    IndeterminateValuation,
    NonIntegralCoefficient,
    NonIntegralGerm,
    NotDivisible,
    NotMinimallyRamifiedAtLevelZero,
    ParabolicLabError,
    UnboundedBound,
)
from .formal_series import ParabolicGerm
from .literals import (
    fraction_to_str,
    index_to_jsonable,
    parse_field,
    parse_scalar,
    parse_series,
    parse_terms,
    scalar_to_jsonable,
)
from .normal_form import mq_evaluate, to_normal_form
from .ramification import (
    is_minimally_ramified,
    ramification_profile,
    resit,
)
from .valuation_geometry import (
    cycle_valuations,
    periodic_valuation_bound,
    terms_polygon,
)

# exit codes
OK = 0
VERIFICATION_FAILED = 1
INPUT_ERROR = 2


def _emit(doc, path: str | None):
    text = json.dumps(doc, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _germ(args) -> ParabolicGerm:
    if not args.field or not args.series:
        raise ParabolicLabError("this command needs --field and --series")
    ring = parse_field(args.field)
    return ParabolicGerm(parse_series(args.series, ring))


def _require(**flags):
    for name, value in flags.items():
        if value is None:
            raise ParabolicLabError(f"this command needs --{name}")


def _coeff_list(text: str | None, field):
    if text is None:
        raise ParabolicLabError("this command needs --coeffs")
    parts = text.split(",")
    if len(parts) != 2:
        raise ParabolicLabError(f"--coeffs takes two values, got {len(parts)}")
    return [parse_scalar(part, field) for part in parts]


def _field_for(args, q: int):
    """The --field ring, else the smallest field over GF(--p) with an order-q
    root.  A --p that is not the characteristic of --field is refused.  A
    command that takes a root of unity or draws field elements refuses a
    Laurent ring there, with ScalarRingMismatch."""
    text = vars(args).get("field")
    if text:
        field = parse_field(text)
        if args.p is not None and args.p != field.char:
            raise ParabolicLabError(
                f"--p {args.p} is not the characteristic of {text}")
        return field
    if args.p is None:
        either = " or --field" if "field" in vars(args) else ""
        raise ParabolicLabError(f"this command needs --p{either}")
    return smallest_field_with_root(args.p, q)


# -- subcommand bodies -----------------------------------------------------


def _cmd_ramify(args):
    f = _germ(args)
    prof = ramification_profile(f, n_max=args.nmax, N=args.N)
    doc = {
        "q": prof.q,
        "N": prof.N,
        "i": [index_to_jsonable(e.i) for e in prof.entries],
        "delta": [None if e.delta is None else scalar_to_jsonable(e.delta)
                  for e in prof.entries],
    }
    try:
        doc["resit"] = scalar_to_jsonable(resit(f))
    except (NotMinimallyRamifiedAtLevelZero, IndeterminateValuation) as e:
        doc["resit"] = None
        doc["resit_note"] = str(e)
    return doc, OK


def _cmd_minimal(args):
    f = _germ(args)
    crit = is_minimally_ramified(f, mode="criterion", n_max=args.nmax, N=args.N)
    defi = is_minimally_ramified(f, mode="definitional", n_max=args.nmax,
                                 N=args.N)
    doc = {
        "criterion": crit.to_jsonable(),
        "definitional": defi.to_jsonable(),
        "agree": crit.minimal == defi.minimal,
        "mq": scalar_to_jsonable(mq_evaluate(f)),
    }
    return doc, OK


def _cmd_normalize(args):
    f = _germ(args)
    return to_normal_form(f, N=args.N).to_jsonable(), OK


# the flags each closed-form mode reads besides --coeffs and the field
_MODE_FLAGS = {"chi-xi": ("q", "n"), "iterate-q": ("q",), "ell": ("n",)}


def _cmd_closed_form(args):
    reads = _MODE_FLAGS[args.mode]
    _require(**{name: getattr(args, name) for name in reads})
    for name in ("q", "n"):
        if name not in reads and getattr(args, name) is not None:
            raise ParabolicLabError(f"--mode {args.mode} does not read --{name}")
    if args.mode == "chi-xi":
        field = _field_for(args, args.q)
        a1, a2 = _coeff_list(args.coeffs, field)
        pair = chi_xi(args.q, args.n, a1, a2)
        return {"mode": "chi-xi", **pair.to_jsonable()}, OK
    if args.mode == "iterate-q":
        field = _field_for(args, args.q)
        gamma = root_of_unity(field, args.q)
        a1, a2 = _coeff_list(args.coeffs, field)
        c0, c1, c2 = iterate_q_closed(gamma, args.q, a1, a2)
        return {"mode": "iterate-q", "q": args.q,
                "gamma": scalar_to_jsonable(gamma),
                "unit_coeffs": [scalar_to_jsonable(c) for c in (c0, c1, c2)],
                }, OK
    # ell: --n carries the iteration count here; it need not be coprime to p
    field = _field_for(args, 1)
    a, b = _coeff_list(args.coeffs, field)
    c2, c3 = ell_iterate_quadratic(args.n, a, b)
    return {"mode": "ell", "ell": args.n,
            "c2": scalar_to_jsonable(c2),
            "c3": scalar_to_jsonable(c3)}, OK


def _cmd_verify(args):
    """The seeded sweep sweeps.SWEEPS names, or main-lemma's single check."""
    sweep = sweeps.SWEEPS[args.check]
    levels = {name: getattr(args, name) for name in ("q", "n")
              if name in sweep.flags}
    coeffs = vars(args).get("coeffs")
    if "coeffs" not in sweep.flags and args.seed is None:
        raise ParabolicLabError(f"verify {args.check} needs --seed")
    _require(**levels)
    if "coeffs" in sweep.flags and (coeffs is None) == (args.seed is None):
        raise ParabolicLabError(
            f"verify {args.check} needs --coeffs or --seed"
            if coeffs is None else
            f"verify {args.check} takes --coeffs or --seed, not both")
    field = _field_for(args, levels.get("q", 1))
    if coeffs is not None:
        a = _coeff_list(coeffs, field)
        rep = verify_main_lemma(field, args.q, args.n, a, N=args.N)
        return rep.to_jsonable(), (OK if rep.ok else VERIFICATION_FAILED)
    kw = sweep.keywords(vars(args))
    failures = sweep.run(Random(args.seed), field, cases=sweep.cases, **kw)
    doc = {"sweep": args.check, "p": field.char,
           **{key: kw[key] for key in sweep.shown}, "cases": sweep.cases,
           "seed": args.seed, "failures": failures, "ok": not failures}
    return doc, (OK if not failures else VERIFICATION_FAILED)


def _cmd_bounds(args):
    _require(n=args.n)
    f = _germ(args)
    try:
        cert = periodic_valuation_bound(f, args.n)
    except UnboundedBound as e:
        return {"n": args.n, "bound_valuation": "no-information",
                "reason": str(e)}, OK
    return cert.to_jsonable(), OK


def _cmd_cycle_valuations(args):
    _require(n=args.n)
    f = _germ(args)
    return cycle_valuations(f, args.n).to_jsonable(), OK


def _cmd_newton(args):
    _require(field=args.field, poly=args.poly)
    ring = parse_field(args.field)
    entries, n_trunc = parse_terms(args.poly, ring)
    pg = terms_polygon(ring, sorted(entries.items()), n_trunc)
    doc = pg.to_jsonable()
    doc["root_valuations"] = [
        {"valuation": fraction_to_str(v), "count": c}
        for v, c in pg.root_valuations()]
    return doc, OK


# -- wiring ----------------------------------------------------------------


# every flag a command may take, in --help order; a command lists its own
_FLAGS = {
    "field": {"help": "coefficient field literal"},
    "series": {"help": "germ literal, e.g. 'z + z^2'"},
    "poly": {"help": "polynomial literal"},
    "coeffs": {"help": "comma-separated scalar literals"},
    "p": {"type": int},
    "q": {"type": int},
    "n": {"type": int},
    "nmax": {"type": int, "default": 2},
    "N": {"type": int},
    "mode": {"choices": ["chi-xi", "iterate-q", "ell"], "default": "chi-xi"},
    "seed": {"type": int},
}


def _add_common(sp, *names):
    # no prefixes: --n would otherwise pass as --nmax where --n is not taken
    sp.allow_abbrev = False
    for name, spec in _FLAGS.items():
        if name in names:
            sp.add_argument(f"--{name}", **spec)
    sp.add_argument("--json-out", dest="json_out", metavar="PATH")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="parabolic-lab",
        description="Exact arithmetic for parabolic germs over fields of "
                    "positive characteristic.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ramify", help="ramification profile and resit")
    _add_common(sp, "field", "series", "nmax", "N")
    sp.set_defaults(fn=_cmd_ramify)

    sp = sub.add_parser("minimal", help="minimal ramification, both modes")
    _add_common(sp, "field", "series", "nmax", "N")
    sp.set_defaults(fn=_cmd_minimal)

    sp = sub.add_parser("normalize", help="conjugate onto exponents 1 mod q")
    _add_common(sp, "field", "series", "N")
    sp.set_defaults(fn=_cmd_normalize)

    sp = sub.add_parser("closed-form",
                        help="iterate coefficients in closed form")
    _add_common(sp, "field", "coeffs", "p", "q", "n", "mode")
    sp.set_defaults(fn=_cmd_closed_form)

    vp = sub.add_parser("verify", help="oracle sweeps and single checks")
    vsub = vp.add_subparsers(dest="check", required=True)

    for name, sweep in sweeps.SWEEPS.items():
        sp = vsub.add_parser(name)
        _add_common(sp, "p", "seed", *sweep.flags)
        # a flag parses to None unless given; --nmax, which has a parser
        # default, parses to the sweep's default instead
        sp.set_defaults(fn=_cmd_verify, **{
            flag: value for flag, value in sweep.flags.items()
            if "default" in _FLAGS[flag]})

    sp = sub.add_parser("bounds", help="periodic point valuation bound")
    _add_common(sp, "field", "series", "n")
    sp.set_defaults(fn=_cmd_bounds)

    sp = sub.add_parser("cycle-valuations",
                        help="root valuations of the period-q*p^n quotient")
    _add_common(sp, "field", "series", "n")
    sp.set_defaults(fn=_cmd_cycle_valuations)

    sp = sub.add_parser("newton", help="Newton polygon of a polynomial")
    _add_common(sp, "field", "poly")
    sp.set_defaults(fn=_cmd_newton)

    return ap


# built on first use, not at import: importing the module stays cheap
_parser = functools.cache(build_parser)


def _error_doc(e):
    return {"error": str(e), "kind": type(e).__name__}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc, code = args.fn(args)
    except ParabolicLabError as e:
        doc = _error_doc(e)
        failed = (isinstance(e, (NotDivisible, NonIntegralCoefficient))
                  and not isinstance(e, NonIntegralGerm))
        code = VERIFICATION_FAILED if failed else INPUT_ERROR
    try:
        _emit(doc, args.json_out)
    except OSError as e:
        # a --json-out path that cannot be written is unusable input
        _emit(_error_doc(e), None)
        return INPUT_ERROR
    return code


if __name__ == "__main__":
    raise SystemExit(main())
