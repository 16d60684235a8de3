"""Workload inputs, timed bodies and correctness checks.

Runs inside one child interpreter, after the package's `src` directory has
been put on `sys.path`.  Only the package's public API is called.

The three sweeps are exhaustive at fixed parameters: their inputs do not
depend on the seed.  `cli-queries` draws its queries from (seed, rep).
"""

import contextlib
import io
import itertools
import json
import random
import time

from orbitduality import cli, verify
from orbitduality.compgroups import (
    MarkedPartition,
    abar_rank,
    group_data,
    is_distinguished_marked,
    is_special_marked,
    markable_parts,
)
from orbitduality.covers import abar_r_rank, d_map, gamma_group_rank, ms_lift
from orbitduality.infchar import gamma_la, gamma_rigid_cover
from orbitduality.orbits import Orbit, bvls_dual, format_orbit, is_distinguished
from orbitduality.partitions import collapse, enumerate_type, format_partition
from orbitduality.sommers import sommers_dual

# (suite, keyword arguments, check count when the benchmark was defined);
# --jobs 1 everywhere.
SWEEPS = {
    "minimality-r7": [("verify_minimality", {"max_rank": 7, "jobs": 1}, 88)],
    "exceptional-tables": [("verify_point_values", {}, 258)],
    "identity-sweep-r8": [
        ("verify_duality", {"max_rank": 8}, 1631),
        ("verify_gamma", {"max_rank": 8}, 129),
        ("verify_rigidity", {"max_rank": 8}, 129),
        ("verify_gamma_group", {"max_rank": 8}, 861),
        ("verify_richardson", {"max_rank": 8}, 862),
        ("verify_kernel", {"max_size": 18, "max_rank": 8}, 3240),
    ],
}
CLI = "cli-queries"
WORKLOADS = list(SWEEPS) + [CLI]

QUERIES_PER_REP = 400
RANKS = range(6, 13)
# Each malformed form is sent MALFORMED_REPEAT times per rep (5% of the
# queries).  The first three crashed with a traceback when the benchmark was
# defined; they stay in so that the defect shows in `failed`.
MALFORMED = [
    ["group", "A:[3]"],
    ["markable", "A:[3]"],
    ["table", "x7"],
    ["sommers-dual", "B:<[5,1"],
    ["gamma", "B:<[5,1]>[5,4,4,3"],
    ["collapse", "--kind", "B", "[6,x,2]"],
    ["bvls-dual", "B:[4,1]"],
    ["d-map", "C:<[3]>[3,3]"],
    ["gamma-group", "D:<[3]>[3,1]"],
    ["ms-lift", "X:<[1]>[1]"],
]
MALFORMED_REPEAT = 2
VERBS = ["sommers-dual", "gamma", "gamma-cover", "d-map", "gamma-group",
         "ms-lift", "markable", "group", "bvls-dual", "collapse"]


# -- sweeps -----------------------------------------------------------------

def score_reports(reports, pins):
    """(attempted, failed) for one sweep.  A suite's pinned count is attempted;
    a report with zero checks or another count than its pin fails whole, and
    otherwise each failure record (at least one if `passed` is false) fails."""
    attempted = failed = 0
    for report, pin in zip(reports, pins):
        attempted += pin
        checked = report.get("checked", 0)
        if checked == 0 or checked != pin:
            failed += pin
        elif not report.get("passed", False):
            failed += max(1, len(report.get("failures", ())))
    return attempted, failed


def _run_sweep(plan):
    return [getattr(verify, suite)(**kwargs) for suite, kwargs, _ in plan]


# -- cli queries ------------------------------------------------------------

def _size(kind, rank):
    return 2 * rank + 1 if kind == "B" else 2 * rank


def _markings(kind, lam):
    marks = markable_parts(lam, kind)
    for r in range(len(marks) + 1):
        if kind in ("B", "D") and r % 2:
            continue
        for nu in itertools.combinations(marks, r):
            yield MarkedPartition(kind, lam, tuple(sorted(nu, reverse=True)))


class _Pools:
    """Typed partitions and special distinguished data, built on demand."""

    def __init__(self):
        self.typed = {}
        self.special_distinguished = {}

    def partitions(self, kind, n):
        if (kind, n) not in self.typed:
            self.typed[kind, n] = list(enumerate_type(kind, n))
        return self.typed[kind, n]

    def sd(self, kind, n):
        if (kind, n) not in self.special_distinguished:
            self.special_distinguished[kind, n] = [
                m for lam in self.partitions(kind, n)
                if is_distinguished(Orbit(kind, n, lam))
                for m in _markings(kind, lam)
                if is_special_marked(m) and is_distinguished_marked(m)]
        return self.special_distinguished[kind, n]


def _random_marked(rng, pools, kind, n):
    lam = rng.choice(pools.partitions(kind, n))
    marks = markable_parts(lam, kind)
    r = rng.randrange(len(marks) + 1)
    if kind in ("B", "D") and r % 2:
        r -= 1
    return MarkedPartition(kind, lam, tuple(sorted(rng.sample(marks, r), reverse=True)))


def _random_partition(rng, n):
    parts = []
    while n:
        parts.append(rng.randint(1, n))
        n -= parts[-1]
    return tuple(sorted(parts, reverse=True))


def _query(rng, pools, verb):
    """(argv, expected fields) of one well-formed query; the expected values
    come from library calls made here, in set-up."""
    kind = rng.choice("BCD")
    n = _size(kind, rng.choice(RANKS))
    if verb == "collapse":
        p = _random_partition(rng, n)
        return (["collapse", "--kind", kind, format_partition(p)],
                {"collapse": list(collapse(p, kind))})
    if verb == "gamma-cover":
        dual = sommers_dual(rng.choice(pools.sd(kind, n)))
        return ([verb, format_orbit(dual)], {"gamma": str(gamma_rigid_cover(dual))})
    if verb in ("markable", "group", "bvls-dual"):
        orbit = Orbit(kind, n, rng.choice(pools.partitions(kind, n)))
        arg = format_orbit(orbit)
        if verb == "markable":
            return ([verb, arg], {"markable": list(markable_parts(orbit.parts, kind)),
                                  "abar_rank": abar_rank(orbit.parts, kind)})
        if verb == "group":
            gd = group_data(orbit)
            return ([verb, arg], {"a_rank": gd.a_rank, "a_ad_rank": gd.a_ad_rank,
                                  "abar_rank": abar_rank(orbit.parts, kind)})
        return [verb, arg], {"dual.text": format_orbit(bvls_dual(orbit))}
    if verb == "sommers-dual":
        route = rng.choice(["general", "distinguished", "blocks"])
        m = (rng.choice(pools.sd(kind, n)) if route == "distinguished"
             else _random_marked(rng, pools, kind, n))
        # every route is checked against the block route
        return ([verb, str(m), "--route", route],
                {"dual.text": format_orbit(sommers_dual(m, "blocks"))})
    m = _random_marked(rng, pools, kind, n)
    if verb == "gamma":
        return [verb, str(m)], {"gamma": str(gamma_la(m))}
    if verb == "d-map":
        cover = d_map(m)
        return [verb, str(m)], {"base.text": format_orbit(cover.base), "degree": cover.degree}
    if verb == "gamma-group":
        return [verb, str(m)], {"gamma_group_rank": gamma_group_rank(m),
                                "abar_r_rank": abar_r_rank(m)}
    if verb == "ms-lift":
        lift = ms_lift(m)
        return [verb, str(m)], {"factor1.text": format_orbit(lift.factor1),
                                "factor2.text": format_orbit(lift.factor2)}
    raise ValueError("unknown verb %r" % verb)


def make_queries(seed, rep):
    """The queries of one rep: (argv, expected); expected is None for a
    malformed query.  The same (seed, rep) gives the same queries."""
    rng = random.Random("%d/%d" % (seed, rep))
    pools = _Pools()
    bad = MALFORMED * MALFORMED_REPEAT
    good = [_query(rng, pools, rng.choice(VERBS))
            for _ in range(QUERIES_PER_REP - len(bad))]
    queries = [(["--json"] + argv, expected) for argv, expected in good]
    queries += [(["--json"] + argv, None) for argv in bad]
    rng.shuffle(queries)
    return queries


def _run_queries(queries, sampler):
    """Closed loop, one client: each query starts when the last has ended.
    Returns (latencies, outcomes); a latency leaves out the time `sampler`
    spent inside the query.  An outcome is (exit code, stdout, stderr,
    exception type name or None)."""
    latencies, outcomes = [], []
    clock = time.perf_counter
    for argv, _ in queries:
        out, err = io.StringIO(), io.StringIO()
        exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            sampled = sampler.spent
            t0 = clock()
            try:
                code = cli.main(list(argv))
            except SystemExit as stop:
                code, exc = stop.code, "SystemExit"
            except Exception as error:  # a crash is a failed query, not a benchmark error
                code, exc = None, type(error).__name__
            latencies.append(clock() - t0 - (sampler.spent - sampled))
        outcomes.append((code, out.getvalue(), err.getvalue(), exc))
    return latencies, outcomes


def _field(doc, path):
    for key in path.split("."):
        doc = doc[key]
    return doc


def check_query(expected, outcome):
    """'ok', 'failed' (a malformed query not rejected cleanly) or 'wrong'
    (a well-formed query whose answer differs from the set-up check)."""
    code, out, err, exc = outcome
    if expected is None:
        lines = err.splitlines()
        clean = (exc is None and code == 1 and not out and len(lines) == 1
                 and lines[0].startswith("error:"))
        return "ok" if clean else "failed"
    if exc is not None or code != 0:
        return "wrong"
    try:
        doc = json.loads(out)
        same = all(_field(doc, path) == value for path, value in expected.items())
    except (ValueError, KeyError, TypeError):
        return "wrong"
    return "ok" if same else "wrong"


# -- one rep ----------------------------------------------------------------

def setup(workload, seed, rep):
    if workload == CLI:
        return make_queries(seed, rep)
    return SWEEPS[workload]


def body(workload, inputs, sampler):
    if workload == CLI:
        return _run_queries(inputs, sampler)
    return None, _run_sweep(inputs)


def check(workload, inputs, outcomes):
    """(attempted, failed, wrong): wrong counts items whose answer is wrong,
    failed counts every failed item, wrong ones included."""
    if workload != CLI:
        attempted, failed = score_reports(outcomes, [pin for _, _, pin in inputs])
        return attempted, failed, failed
    verdicts = [check_query(expected, outcome)
                for (_, expected), outcome in zip(inputs, outcomes)]
    wrong = verdicts.count("wrong")
    return len(verdicts), wrong + verdicts.count("failed"), wrong
