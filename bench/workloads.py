"""Workloads of the cartier benchmark: job slots, their variants, and the
seeded plan.

Each workload is a list of slots. A slot is one CLI job with a small pool of
variants of about equal cost: another prime, another series of the same
family, or the scanned series listed in another order. A slot without such a
variant has a pool of one. The seed picks one variant per
slot for the whole run and shuffles the job order of every pass, so the
program receives only generated CLI arguments and any seed is checkable
against the stored references.

Sizes are trimmed from the reference profiles in ROADMAP.md so that one pass
takes a few seconds: enough passes fit in one run to report a median pass
and a per-job tail from pooled samples. The two or three costliest slots of
a workload are kept within about 1.25x of each other and together hold more
than ten samples per run, so the tail sample stays inside that group when
the number of passes changes, for example after a speed-up.
"""

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    """One CLI invocation and, where a relation is planted, what it must find."""

    args: tuple
    planted: tuple = None  # exponents of a relation the scan must report
    product: tuple = None  # (num, den) of that relation's product certificate

    @property
    def key(self) -> str:
        return " ".join(self.args)


# product certificate 1/(1 - z): (1 - z)^(-a) raised to 1/a
ONE_OVER_ONE_MINUS_Z = (("1",), ("1", "-1"))
ONE = (("1",), ("1",))


def scan(*series, prime, order, exp_bound, level, deg_bound, dwork=False, planted=None, product=None):
    args = ["scan"]
    for s in series:
        args += ["--series", s]
    args += ["--prime", str(prime)]
    if dwork:
        args.append("--dwork")
    args += [
        "--order", str(order), "--exp-bound", str(exp_bound),
        "--level", str(level), "--deg-bound", str(deg_bound),
    ]
    return Job(tuple(args), planted, product)


def command(name, series, prime, order, *extra, dwork=False):
    args = [name, "--series", series, "--prime", str(prime)]
    if dwork:
        args.append("--dwork")
    args += ["--order", str(order), *extra]
    return Job(tuple(args))


def antecedent(series, prime, order, dwork=False):
    return command("antecedent", series, prime, order, "--levels", "2", dwork=dwork)


def _positive(alpha, a, **kw):
    return scan(f"hyp:{alpha}", planted=(a,), product=ONE_OVER_ONE_MINUS_Z, **kw)


SLOTS = {
    # runs by hand with run.py; BENCHMARK.json leaves it out, because at the
    # run length the time budget allows for three workloads it was not steady
    "scan-unramified": {
        "positive-half": [
            _positive("1/2", 2, prime=p, order=36, exp_bound=6, level=2, deg_bound=10) for p in (5, 7)
        ],
        "positive-third": [
            _positive("1/3", 3, prime=p, order=36, exp_bound=6, level=2, deg_bound=10) for p in (5, 7)
        ],
        "mixed": [
            scan(*pair, prime=7, order=24, exp_bound=3, level=2, deg_bound=6,
                 planted=planted, product=ONE_OVER_ONE_MINUS_Z)
            for pair, planted in ((("hyp:1/2", "hyp:1/3"), (2, 0)), (("hyp:1/3", "hyp:1/2"), (0, 2)))
        ],
        "negative": [
            scan(*pair, prime=7, order=40, exp_bound=2, level=3, deg_bound=10)
            for pair in (("apery", "hyp:1/2,1/2"), ("hyp:1/2,1/2", "apery"))
        ],
        "duplicated": [
            scan("hyp:1/2", "hyp:1/2", prime=p, order=20, exp_bound=4, level=2, deg_bound=7,
                 planted=(1, -1), product=ONE)
            for p in (5, 7)
        ],
    },
    "scan-ramified": {
        "positive-e2": [
            _positive("1/2", 2, prime=3, dwork=True, order=20, exp_bound=4, level=3, deg_bound=7)
        ],
        "positive-e4": [
            _positive("1/2", 2, prime=5, dwork=True, order=16, exp_bound=4, level=4, deg_bound=6),
            _positive("1/3", 3, prime=5, dwork=True, order=12, exp_bound=4, level=4, deg_bound=5),
        ],
        # the ROADMAP item 4 profile: make (gcd), raw check and Pade each take
        # a large share, as in the order-32 reference scan; the make share
        # falls fast below this size
        "profile-e2": [
            scan(*pair, prime=3, dwork=True, order=17, exp_bound=1, level=3, deg_bound=9)
            for pair in (("apery", "bessel"), ("bessel", "apery"))
        ],
        "negative-e2": [
            scan(*pair, prime=3, dwork=True, order=20, exp_bound=2, level=3, deg_bound=5)
            for pair in (("apery", "bessel"), ("bessel", "apery"))
        ],
        "mixed-e4": [
            scan(*pair, prime=5, dwork=True, order=11, exp_bound=2, level=4, deg_bound=4)
            for pair in (("hyp:1/2,1/2", "bessel"), ("bessel", "hyp:1/2,1/2"))
        ],
    },
    "operators": {
        "antecedent-apery": [antecedent("apery", 5, 40)],
        "antecedent-hyp-p5": [antecedent(a, 5, 60) for a in ("hyp:1/2,1/2", "hyp:1/3,2/3")],
        "antecedent-hyp-p7": [antecedent(a, 7, 60) for a in ("hyp:1/3,2/3", "hyp:1/2,1/2")],
        "antecedent-bessel": [antecedent("bessel", 3, 54), antecedent("bessel", 5, 50)],
        "antecedent-dwork": [antecedent("hyp:1/2,1/2", 3, 40, dwork=True)],
        "gen": [command("gen", "apery", p, 342) for p in (5, 7)],
        "check-lucas": [command("check-lucas", "apery", p, 342) for p in (5, 7)],
        "check-dwork": [
            command("check-dwork", "apery", 5, 140, "--s", "3"),
            command("check-dwork", "apery", 3, 140, "--s", "4"),
        ],
        "certify-ratio": [command("certify-ratio", "apery", p, 48) for p in (5, 7)],
        "certify-logderiv": [command("certify-logderiv", "hyp:1/2", p, 48) for p in (5, 7)],
    },
    # tiny jobs for the benchmark's own tests; not listed in BENCHMARK.json
    "smoke": {
        "positive": [_positive("1/2", 2, prime=5, order=12, exp_bound=2, level=1, deg_bound=3)],
        "antecedent": [antecedent("hyp:1/2,1/2", 5, 26)],
        "certify": [command("certify-ratio", "apery", 5, 16)],
    },
}


def all_jobs():
    """Every variant of every workload, in a fixed order."""
    return [job for slots in SLOTS.values() for pool in slots.values() for job in pool]


def plan(workload: str, seed: int):
    """The run's (slot, job) pairs, one variant per slot, and the generator
    for pass orders."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = [(slot, rng.choice(pool)) for slot, pool in SLOTS[workload].items()]
    return jobs, rng


def pass_order(jobs, rng):
    order = list(jobs)
    rng.shuffle(order)
    return order


def planted_ok(job: Job, stdout: str) -> bool:
    """Check the planted relation from the report itself, not from stored bytes."""
    if job.planted is None:
        return True
    report = json.loads(stdout)["report"]
    for finding in report["findings"]:
        if tuple(finding["exponents"]) == job.planted:
            rational = finding["product"]["rational"]
            return (tuple(rational["num"]), tuple(rational["den"])) == job.product
    return False
