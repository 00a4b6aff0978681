"""The benchmark's three workloads.

Each workload turns a seed into a pool of job inputs, grouped into rounds, and
knows how to run one job, how to check its answer and which input class a job
belongs to.  Rounds are the unit of
stratification: every round covers each input class once, and a run always
measures whole rounds, so the mix of classes (whose costs differ by up to
100x) is the same in every run and every seed.

Jobs reach the library only through its public API: the `parabolic_lab`
exports (looked up at call time, so the tracer's wrappers are seen),
`parabolic_lab.samplers` for inputs and `parabolic_lab.cli.main`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from random import Random

import parabolic_lab as pl
import parabolic_lab.cli as pl_cli
from parabolic_lab import samplers


@dataclass
class Outcome:
    """What a check learned from one job."""

    ok: bool
    digest_bytes: bytes
    levels: tuple[int, int] = (0, 0)      # (decided, total) profile levels
    verdicts: tuple[int, int] = (0, 0)    # (decided, total) bound/cycle verdicts
    note: str = ""


def _jsonable_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _typed(fn, *args, **kwargs):
    """Call fn; a ParabolicLabError is returned, an undecided outcome."""
    try:
        return fn(*args, **kwargs)
    except pl.ParabolicLabError as e:
        return e


def _err(x):
    return {"error": type(x).__name__} if isinstance(x, Exception) else None


def _level_counts(profile, n_max):
    if isinstance(profile, Exception):
        return 0, n_max + 1
    return sum(e.i is not None for e in profile.entries), len(profile.entries)


# -- ff-profile -------------------------------------------------------------


class FFProfile:
    """ramification_profile(f, 2) plus the criterion-mode minimality test.

    One job is one sweep step: a random germ from each of the six
    STANDARD_PAIRS fields and the two extension-field pairs (2, 3) over
    GF(4) and (3, 4) over GF(9), each at the library's default window for
    n_max = 2 (N = 9..129).  Single germs cost from 0.3 ms to 40 ms by
    class, so per-germ latencies form eight clusters and their median falls
    in the gap between two of them, where a small change to one class moves
    it a lot; the latency of a step is one well-defined number.
    """

    name = "ff-profile"
    tail_pct = 95
    pass_rounds = 32
    pool_rounds = 128
    N_MAX = 2
    EXTRA_PAIRS = ((2, 3), (3, 4))

    def build(self, seed):
        rng = Random(seed)
        classes = [(p, q, samplers.standard_field(p, q))
                   for p, q in samplers.STANDARD_PAIRS + self.EXTRA_PAIRS]
        return [[tuple((p, q, samplers.random_parabolic_germ(rng, F, q))
                       for p, q, F in classes)]
                for _ in range(self.pool_rounds)]

    def warmup(self, pool):
        self.run(pool[0][0])

    def input_class(self, job):
        return "step"

    def run(self, job):
        return [(_typed(pl.ramification_profile, f, self.N_MAX),
                 _typed(pl.is_minimally_ramified, f, "criterion"))
                for _, _, f in job]

    def check(self, job, results):
        ok = True
        docs = []
        decided = total = 0
        for (p, q, f), (prof, verdict) in zip(job, results):
            if not isinstance(prof, Exception):
                exact = [e.i for e in prof.entries if isinstance(e.i, int)]
                ok = ok and all(
                    e.i >= pl.ramification_lower_bound(p, q, e.n)
                    for e in prof.entries if isinstance(e.i, int))
                ok = ok and all(a < b for a, b in zip(exact, exact[1:]))
            d, t = _level_counts(prof, self.N_MAX)
            decided, total = decided + d, total + t
            docs.append({"p": p, "q": q,
                         "profile": _err(prof) or prof.to_jsonable(),
                         "verdict": _err(verdict) or verdict.to_jsonable()})
        return Outcome(ok, _jsonable_bytes(docs), levels=(decided, total),
                       note="" if ok else f"jump check failed in {docs}")


# -- laurent-periodic -------------------------------------------------------


class LaurentPeriodic:
    """The desk experiment's call chain on minimal quadratic germs.

    The family is every germ z + c*z^2 over Laurent(GF(3)) with c of t-degree
    at most 1 that the minimality criterion certifies (q = 1): the support of
    samplers.random_minimal_polynomial_germ(degree=2, t_max=1), eight germs
    in all.  Four of them cost about 60 ms a job and four about 600 ms, so
    plain random draws would let the median flip between the two classes from
    one seed to the next.  A round is therefore the whole family, and the
    seed shuffles the order within each round.
    """

    name = "laurent-periodic"
    tail_pct = 85
    pass_rounds = 1
    pool_rounds = 16

    def family(self):
        ring = pl.parse_field("Laurent(GF(3))")
        F = ring.field
        germs = []
        for a in range(3):
            for b in range(3):
                if (a, b) == (0, 0):
                    continue
                c = ring.element({0: F.from_int(a), 1: F.from_int(b)})
                f = pl.ParabolicGerm(pl.series(ring, {1: 1, 2: c}, None))
                if pl.is_minimally_ramified(f, "criterion").minimal:
                    germs.append(f)
        return germs

    def build(self, seed):
        rng = Random(seed)
        self.germs = self.family()
        pool = []
        for _ in range(self.pool_rounds):
            rnd = list(self.germs)
            rng.shuffle(rnd)
            pool.append(rnd)
        return pool

    def warmup(self, pool):
        # z + t*z^2, a cheap member, so set-up time does not hang on the seed
        self.run(self.germs[0])

    def input_class(self, f):
        return pl.series_to_str(f.series)

    def run(self, f):
        return (_typed(pl.ramification_profile, f, 2),
                _typed(pl.resit, f),
                _typed(pl.periodic_valuation_bound, f, 1),
                _typed(pl.periodic_valuation_bound, f, 2),
                _typed(pl.cycle_valuations, f, 0),
                _typed(pl.cycle_valuations, f, 1))

    def check(self, f, result):
        prof, r, b1, b2, c0, c1 = result
        ok = True
        if not isinstance(b1, Exception):
            if not isinstance(b2, Exception):
                ok = b1.bound_valuation == b2.bound_valuation
            if not isinstance(c1, Exception):
                worst = c1.polygon.max_positive_root_valuation()
                ok = ok and (worst is None or worst <= b1.bound_valuation)
        verdicts = (b1, b2, c0, c1)
        decided = sum(not isinstance(x, Exception)
                      and x.equality_condition_holds != "indeterminate"
                      for x in verdicts)
        doc = {"germ": pl.series_to_str(f.series),
               "profile": _err(prof) or prof.to_jsonable(),
               "resit": _err(r) or str(r),
               "bounds": [_err(b) or b.to_jsonable() for b in (b1, b2)],
               "cycles": [_err(c) or c.to_jsonable() for c in (c0, c1)]}
        return Outcome(ok, _jsonable_bytes(doc),
                       levels=_level_counts(prof, 2),
                       verdicts=(decided, len(verdicts)),
                       note="" if ok else f"bound check failed for {doc}")


# -- cli-verify -------------------------------------------------------------


GOLDEN_COMMANDS = (
    ("ramify.json",
     ["ramify", "--field", "GF(2)", "--series", "z + z^2",
      "--nmax", "2", "--N", "20"]),
    ("main_lemma.json",
     ["verify", "main-lemma", "--p", "3", "--q", "1", "--n", "1",
      "--coeffs", "1,0", "--N", "10"]),
    ("newton.json",
     ["newton", "--field", "Laurent(GF(3))", "--poly", "t*z^2 + z^3"]),
    ("main_lemma_sweep.json",
     ["verify", "main-lemma", "--p", "3", "--q", "2", "--n", "1",
      "--seed", "2026"]),
    ("bounds_desk.json",
     ["bounds", "--field", "Laurent(GF(3))", "--series",
      "z + t*z^2 + z^3", "--n", "1"]),
    ("cycle_desk.json",
     ["cycle-valuations", "--field", "Laurent(GF(3))", "--series",
      "z + t*z^2 + z^3", "--n", "1"]),
)
FIXED_COMMANDS = (
    ["minimal", "--field", "GF(3)", "--series", "z + z^2 + 2*z^3 mod z^30"],
    ["normalize", "--field", "GF(3)", "--series", "2*z + z^2 + z^3",
     "--N", "8"],
    ["closed-form", "--mode", "chi-xi", "--p", "3", "--q", "1", "--n", "1",
     "--coeffs", "1,0"],
    ["closed-form", "--mode", "ell", "--p", "3", "--n", "2",
     "--coeffs", "1,1"],
)
SWEEP_COMMANDS = (
    ["verify", "semiconj", "--p", "3", "--q", "2"],
    ["verify", "delta-tower", "--p", "3"],
    ["verify", "quasi-invariance", "--p", "3", "--q", "1"],
)


@dataclass
class CliJob:
    argv: list
    golden: str | None = None
    golden_bytes: bytes | None = None


class CliVerify:
    """One in-process parabolic_lab.cli.main call per job.

    A round is the six golden commands of tests/golden, the three randomized
    sweeps with seeds drawn from the workload seed, and four fixed commands
    (minimal, normalize, closed-form chi-xi and ell).  The golden files are
    read once at set-up and never written.
    """

    name = "cli-verify"
    tail_pct = 95
    pass_rounds = 1
    pool_rounds = 64

    def __init__(self, root, scratch):
        self.golden_dir = os.path.join(root, "tests", "golden")
        self.out_path = os.path.join(scratch, "cli-out.json")

    def build(self, seed):
        rng = Random(seed)
        golden = {}
        for name, _ in GOLDEN_COMMANDS:
            with open(os.path.join(self.golden_dir, name), "rb") as fh:
                golden[name] = fh.read()
        pool = []
        for _ in range(self.pool_rounds):
            rnd = [CliJob(list(argv), name, golden[name])
                   for name, argv in GOLDEN_COMMANDS]
            rnd += [CliJob(argv + ["--seed", str(rng.randrange(10 ** 6))])
                    for argv in SWEEP_COMMANDS]
            rnd += [CliJob(list(argv)) for argv in FIXED_COMMANDS]
            pool.append(rnd)
        return pool

    def warmup(self, pool):
        sweeps = [argv[:2] for argv in SWEEP_COMMANDS]
        for job in pool[0]:
            if job.argv[:2] not in sweeps:
                self.run(job)

    def input_class(self, job):
        return job.golden or " ".join(job.argv[:3])

    def run(self, job):
        return pl_cli.main(job.argv + ["--json-out", self.out_path])

    def check(self, job, code):
        # removed after reading, so a job that writes nothing cannot pass on
        # the previous job's output
        with open(self.out_path, "rb") as fh:
            out = fh.read()
        os.remove(self.out_path)
        ok = code == 0
        note = "" if ok else f"exit code {code} for {job.argv}"
        if job.golden is not None and out != job.golden_bytes:
            ok, note = False, f"{job.golden} differs from the golden file"
        try:
            doc = json.loads(out)
        except ValueError:
            return Outcome(False, out, note=f"bad JSON from {job.argv}")
        if job.argv[0] == "verify" and doc.get("ok") is not True:
            ok, note = False, f"sweep failed: {job.argv}"
        levels = verdicts = (0, 0)
        if job.argv[0] == "ramify":
            levels = (sum(i is not None for i in doc["i"]), len(doc["i"]))
        elif job.argv[0] in ("bounds", "cycle-valuations"):
            decided = doc.get("equality_condition_holds") in ("yes", "no")
            verdicts = (int(decided), 1)
        return Outcome(ok, out, levels=levels, verdicts=verdicts, note=note)


def make(name, root, scratch):
    if name == FFProfile.name:
        return FFProfile()
    if name == LaurentPeriodic.name:
        return LaurentPeriodic()
    if name == CliVerify.name:
        return CliVerify(root, scratch)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (FFProfile.name, LaurentPeriodic.name, CliVerify.name)


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(hashlib.sha256(o.digest_bytes).digest())
    return h.hexdigest()
