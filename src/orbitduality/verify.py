"""Exhaustive desk-scale verification suites.

Every suite enumerates a finite family of orbits or marked data, checks an
exact identity on each member, and returns a report dictionary with the
counts and any failures.  Every suite takes its range as an argument;
`SUITES` at n = 5 gives the ranges of the headline claims: groups up to
so(11) / sp(10) / so(10) for the weight theorems and up to so(13) / sp(12)
/ so(12) for the duality identities.
"""

import itertools
from fractions import Fraction

from .partitions import (
    EPSILON,
    SIZE_PARITY,
    collapse,
    dominates,
    enumerate_partitions,
    enumerate_type,
    format_partition,
    is_type,
    lower_covers,
    prefix_dominates,
    size,
    uparrow2,
)
from .orbits import Orbit, bvls_dual, enumerate_orbits
from .compgroups import (
    MarkedPartition,
    _is_special,
    abar_rank,
    group_data,
    is_distinguished_marked,
    is_special_marked,
    markable_parts,
    marking_subsets,
)
from .sommers import _sommers_dual, require_reduced, sat_inverse, sommers_dual
from .infchar import gamma_la, gamma_rigid_cover, nu0_eta0, rho_plus
from .covers import (
    ChainTable,
    _pair_abar_rank,
    _step_flags,
    chain_degree,
    chain_rank,
    d_map,
    lusztig_cover,
    ms_lift,
    rigidity,
    saturation_chain,
)
from .oracle import richardson_pair, signature_minimum, verify_min
from . import exceptional


def type_sizes(max_rank):
    """{kind: ambient sizes} of so(2r+1), sp(2r) (r >= 1) and so(2r) (r >= 2)
    up to rank max_rank."""
    return {kind: [2 * r + SIZE_PARITY[kind] for r in range(low, max_rank + 1)]
            for kind, low in (("B", 1), ("C", 1), ("D", 2))}


def iter_reduced_marked(kind, n):
    """All reduced marked partitions of one type and size (one per class)."""
    for lam in enumerate_type(kind, n):
        for nu in marking_subsets(markable_parts(lam, kind), kind):
            yield MarkedPartition(kind, lam, nu)


def iter_special(kind, n):
    """The special reduced marked partitions of one type and size, in the
    order of `iter_reduced_marked`.  Each marking is tested on its tuples
    (`compgroups._is_special`), so only the data yielded are built."""
    for lam in enumerate_type(kind, n):
        for nu in marking_subsets(markable_parts(lam, kind), kind):
            if _is_special(kind, lam, nu):
                yield MarkedPartition(kind, lam, nu)


def _at_most_twice(n, top):
    """The partitions of n into parts of top's parity, none above top and
    none more than twice, in reverse lex order: a part v twice before v
    once.  Parts of one parity up to v, each twice, sum to at most
    (v + 1) ** 2 // 2, so once that bound is under n, neither v nor any
    smaller part is tried."""
    if n == 0:
        yield ()
        return
    for v in range(top, 0, -2):
        if (v + 1) ** 2 // 2 < n:
            return
        for k in (2, 1):
            if k * v <= n:
                for rest in _at_most_twice(n - k * v, v - 2):
                    yield (v,) * k + rest


def _distinguished_candidates(kind, n):
    """The typed partitions of n with no part of the eps parity and no part
    three or more times, in the order of `enumerate_type`: the only ones
    `iter_special_distinguished` marks.  With no part of the eps parity
    every such partition of n's parity is typed."""
    if n % 2 != SIZE_PARITY[kind]:
        return ()
    return _at_most_twice(n, n if n % 2 != EPSILON[kind] else n - 1)


def iter_special_distinguished(kind, n):
    """The special distinguished reduced marked partitions of one type and
    size, in the order of `iter_special`.  Only partitions with no part of
    the eps parity and no part three or more times are marked at all
    (`_distinguished_candidates`): a part of the eps parity occurs an even
    number of times and is never marked, and at most one row of a part is
    marked, so every marking of any other partition leaves two equal
    unmarked rows."""
    for lam in _distinguished_candidates(kind, n):
        for nu in marking_subsets(markable_parts(lam, kind), kind):
            m = MarkedPartition(kind, lam, nu)
            if is_distinguished_marked(m) and is_special_marked(m):
                yield m


def _data(iterate, max_rank):
    """Every datum `iterate(kind, n)` yields, over the kinds and their sizes
    of rank at most max_rank, as a list."""
    return [m for kind, sizes in type_sizes(max_rank).items() for n in sizes
            for m in iterate(kind, n)]


def _failure(check, datum, **detail):
    """A failure record: the check that failed, the datum in CLI text and
    what the check saw.  A marked partition replays with `orbitduality
    gamma`, an orbit with `orbitduality bvls-dual`; an exceptional datum is
    the `dual` label of a row of `orbitduality table <group>`, or the group
    itself when one of its table checks counted nothing."""
    return {"check": check, "datum": str(datum), "detail": detail}


# The non-special datum of the source's point values.
WITNESS = MarkedPartition("B", (5, 4, 4, 3, 1), (5, 1))


def _report(name, checked, failures):
    return {"name": name, "checked": checked,
            "failures": failures, "passed": checked > 0 and not failures}


# Data of rank at most this are certified by the exhaustive shell as well,
# and both routes must then give the same least norm and the same minimisers.
SHELL_CROSS_CHECK_RANK = 6


def _norm_text(norm4):
    return None if norm4 is None else str(Fraction(norm4, 4))


def _certify(m, orbits):
    """The failure records of one special distinguished datum: `signature`
    when its weight is not the one minimiser the signature route finds,
    `shell` when the exhaustive shell does not certify it, `routes disagree`
    when the two routes differ in least norm or minimisers.  The shell runs
    through SHELL_CROSS_CHECK_RANK only, with `orbits` as its Richardson-orbit
    memo; `shell_norm` is None when it did not run or held no admissible
    point."""
    cand = gamma_la(m)
    sig = signature_minimum(m)
    checks = []
    if sig[1] != (cand.halves,):
        checks.append("signature")
    shell = (None, ())
    if size(m.lam) // 2 <= SHELL_CROSS_CHECK_RANK:
        cert = verify_min(m, orbits)
        shell = cert.shell_minimum
        if not cert.passed:
            checks.append("shell")
        if shell != sig:
            checks.append("routes disagree")
    return [_failure(c, m, candidate=str(cand), signature_norm=_norm_text(sig[0]),
                     shell_norm=_norm_text(shell[0])) for c in checks]


def verify_minimality(max_rank, jobs=1):
    """The candidate weight of every special distinguished marked datum is
    the unique minimal member of its admissible set: certified by the
    signature route, and cross-checked by the exhaustive shell through
    SHELL_CROSS_CHECK_RANK, with one Richardson-orbit memo for the call.

    The suite runs in one process; `jobs` exists only for callers that
    pass `jobs=1`, and any other value is a ValueError."""
    if jobs != 1:
        raise ValueError("jobs must be 1")
    data = _data(iter_special_distinguished, max_rank)
    orbits = {}
    return _report("minimality", len(data), [f for m in data for f in _certify(m, orbits)])


def verify_gamma(max_rank):
    """The datum weight equals the cover weight of its dual orbit, for every
    special distinguished datum.  Both come out of `rho_plus`, decreasing
    and nonnegative, so they are compared as they are, with no Weyl
    normal form."""
    failures = []
    data = _data(iter_special_distinguished, max_rank)
    for m in data:
        lhs = gamma_la(m)
        rhs = gamma_rigid_cover(sommers_dual(m))
        if lhs != rhs:
            failures.append(_failure("gamma", m, weight=str(lhs), cover_weight=str(rhs)))
    return _report("gamma consistency", len(data), failures)


# Partitions of at most this size are certified by the quadratic reference
# routes as well: the brute-force collapse maximum in the kernel and the
# order check over all pairs in the duality identities.
COLLAPSE_CROSS_CHECK_SIZE = 12


def collapse_maxima(n, kind):
    """The largest type-`kind` partition dominated by each partition of n,
    by induction over lower covers, with a `collapse` record for every p at
    which `collapse(p, kind)` is not that maximum.  Returns ({p: maximum or
    None}, records).

    The partitions are walked in increasing lex order, which extends
    dominance, so the lower covers of p come before p.  A typed p is its own
    maximum.  The typed partitions below an untyped p are those below its
    lower covers, so their maximum exists exactly when the lex-largest of the
    covers' maxima dominates the others, and is then that one; otherwise, or
    when a cover has none, p has None.
    """
    maxima, failures = {}, []
    for p in reversed(list(enumerate_partitions(n))):
        if is_type(p, kind):
            top = p
        else:
            tops = {maxima[c] for c in lower_covers(p)}
            top = None
            if tops and None not in tops:
                top = max(tops)
                if len(tops) > 1 and not all(dominates(top, t) for t in tops):
                    top = None
        maxima[p] = top
        if top is None or collapse(p, kind) != top:
            failures.append(_failure("collapse", format_partition(p), kind=kind))
    return maxima, failures


def brute_force_maximum(p, typed):
    """The largest partition among `typed` that p dominates, or None when
    there is no largest: the quadratic reference for `collapse_maxima`.
    `typed` maps each typed partition of p's size to its prefix sums, so
    each comparison reads sums made once per (kind, size)."""
    sums = tuple(itertools.accumulate(p))
    dominated = [(q, s) for q, s in typed.items() if prefix_dominates(sums, s)]
    best = [q for q, s in dominated if all(prefix_dominates(s, t) for _, t in dominated)]
    return best[0] if len(best) == 1 else None


def _order_by_covers(duals, maxima):
    """`order` records of the dual reversing dominance, checked on covers: the
    dual of every orbit a must be dominated by the dual of the typed maximum
    below each lower cover of a.  Every typed b < a lies below one of those
    maxima, so induction along dominance gives d(b) >= d(a)."""
    dual_of = {o.parts: d.parts for o, d in duals.items()}
    orbit_of = {o.parts: o for o in duals}
    failures = []
    for a, da in duals.items():
        for c in lower_covers(a.parts):
            b = maxima[c]
            if b is not None and not dominates(dual_of[b], da.parts):
                failures.append(_failure("order", a, below=str(orbit_of[b])))
    return failures


def _order_by_pairs(duals):
    """`order by pairs` records: the reference route of `_order_by_covers`,
    over every pair of orbits with distinct partitions.

    `verify_duality` passes the orbits in `enumerate_orbits`' decreasing lex
    order, which extends dominance, so a later orbit never strictly
    dominates an earlier one there and the `elif` direction runs only when
    the orbits come in another order (the tests reverse the enumeration).
    The orbits are of one size and so are their duals, so each pair is
    compared on prefix sums made once per orbit and dual, with no size
    check."""
    sums = {o: tuple(itertools.accumulate(o.parts)) for o in duals}
    dual_sums = {o: tuple(itertools.accumulate(d.parts)) for o, d in duals.items()}
    failures = []
    for a, b in itertools.combinations(duals, 2):
        if a.parts == b.parts:
            continue
        if prefix_dominates(sums[a], sums[b]):
            if not prefix_dominates(dual_sums[b], dual_sums[a]):
                failures.append(_failure("order by pairs", a, below=str(b)))
        elif prefix_dominates(sums[b], sums[a]):
            if not prefix_dominates(dual_sums[a], dual_sums[b]):
                failures.append(_failure("order by pairs", b, below=str(a)))
    return failures


def verify_duality(max_rank):
    """Duality identities: the orbit duality cubes to itself and reverses the
    dominance order; the unmarked dual agrees with it; the three routes of
    the marked duality agree; the marked duality is injective on special
    distinguished data.  Order reversal is checked on lower covers, which
    rests on the collapse maxima: they are certified here for the suite's
    own sizes, and the check over all pairs runs as the reference through
    COLLAPSE_CROSS_CHECK_SIZE.

    Two tables serve one run, each feeding one side only.  The orbit duals
    of every (kind, size) are computed first, and d(d(d(o))) is read off
    them (B of size 2r+1 and C of size 2r are each other's duals, D its
    own), as is the orbit side of `unmarked = orbit dual`; a very even D
    orbit without a decoration is not a key and is dualised directly.  The
    block table, the general dual of each block met so far, feeds the blocks
    route only.  Every datum is checked reduced once, and the routes run
    unchecked.

    The blocks route is independent of the general one only on data of two
    or more blocks: a one-block datum's block is the datum itself, and its
    blocks dual is the general dual of the whole datum, so `blocks route`
    then compares the general formula with itself.  At max_rank=8 that is
    590 of the 966 reduced data; 314 have two blocks, 61 three and 1 four."""
    failures = []
    checked = 0
    sizes = type_sizes(max_rank)
    tables = {(kind, n): {o: bvls_dual(o) for o in enumerate_orbits(kind, n)}
              for kind in sizes for n in sizes[kind]}

    def dual(o):
        d = tables.get((o.kind, o.ambient), {}).get(o)
        return bvls_dual(o) if d is None else d

    block_duals = {}
    for kind in sizes:
        for n in sizes[kind]:
            duals = tables[kind, n]
            for o, d1 in duals.items():
                checked += 1
                if dual(dual(d1)) != d1:
                    failures.append(_failure("d^3", o))
            maxima, collapse_failures = collapse_maxima(n, kind)
            failures += collapse_failures
            failures += _order_by_covers(duals, maxima)
            if n <= COLLAPSE_CROSS_CHECK_SIZE:
                failures += _order_by_pairs(duals)
            dual_parts = {o.parts: d.parts for o, d in duals.items()}
            seen = {}
            for m in iter_reduced_marked(kind, n):
                checked += 1
                require_reduced(m)
                general = _sommers_dual(m, "general")
                if _sommers_dual(m, "blocks", block_duals) != general:
                    failures.append(_failure("blocks route", m))
                if not m.nu and dual_parts[m.lam] != general.parts:
                    failures.append(_failure("unmarked = orbit dual", m))
                if is_distinguished_marked(m):
                    if _sommers_dual(m, "distinguished") != general:
                        failures.append(_failure("distinguished route", m))
                    if is_special_marked(m):
                        key = general.parts
                        if key in seen:
                            failures.append(_failure("injectivity", m, same_dual_as=seen[key]))
                        seen[key] = str(m)
    return _report("duality identities", checked, failures)


def verify_rigidity(max_rank):
    """The quotient cover of the dual of every special distinguished datum is
    birationally rigid."""
    failures = []
    data = _data(iter_special_distinguished, max_rank)
    for m in data:
        cov = lusztig_cover(sommers_dual(m))
        flags = rigidity(cov.base, cov.subgroup)
        if not flags.birationally_rigid:
            failures.append(_failure("rigidity", m, base=str(cov.base),
                                     no_codim2_leaves=flags.no_codim2_leaves,
                                     h2_zero=flags.h2_zero))
    return _report("rigidity", len(data), failures)


# Data of rank at most this are walked by `saturation_chain` as well, which
# must give the chain table's core dual, rank, degree, last step and split.
CHAIN_CROSS_CHECK_RANK = 6


def _chain_differences(m, table, last, splits):
    """The fields in which `saturation_chain(m)` and `nu0_eta0(m, splits)`
    differ from m's entry in the table and its last step `last`.  `splits`
    is the core-split memo of the reference route alone: the table never
    reads it."""
    core_dual, steps = saturation_chain(m)
    entry = table.entries[m]
    walked = {"core dual": core_dual, "rank": chain_rank(core_dual, steps),
              "degree": chain_degree(core_dual, steps),
              "last step": steps[-1] if steps else None, "split": nu0_eta0(m, splits)}
    tabled = {"core dual": table.entries[sat_inverse(m)[1]].dual, "rank": entry.rank,
              "degree": 2 ** entry.degree_log2, "last step": last, "split": entry.split}
    return [field for field in walked if walked[field] != tabled[field]]


def verify_gamma_group(max_rank):
    """On special data the two Galois-group computations agree rank for rank,
    the per-step criteria are equivalent and agree with the birationality of
    the induction the chain computes, and for unmarked data the dual cover
    degree is the canonical-quotient order.

    The chains come from one `ChainTable`, so each step is checked once,
    under the datum whose last step it is, predecessors below the suite's
    sizes included.  Through CHAIN_CROSS_CHECK_RANK every datum's chain is
    walked again by `saturation_chain`, the reference (`chain` records),
    whose splits come from a core-split memo of its own."""
    failures = []
    data = _data(iter_special, max_rank)
    table, splits = ChainTable(), {}
    for m in data:
        # the data come in increasing size, so m is entered last
        entered = table.fill(m)
        for datum, step in entered:
            if step is None:
                continue
            flags = _step_flags(step.a, step.datum.lam, m.kind,
                                *table.entries[step.datum].split)
            if flags.abar_changes == flags.bind_birational:
                failures.append(_failure("step", datum, a=step.a, step_datum=str(step.datum)))
            if flags.bind_birational != step.induced.birational:
                failures.append(_failure("step birationality", datum, a=step.a,
                                         step_datum=str(step.datum),
                                         induced_birational=step.induced.birational))
        entry = table.entries[m]
        r1, r2 = entry.rank, _pair_abar_rank(m.kind, entry.split)
        if r1 != r2:
            failures.append(_failure("ranks", m, gamma_group_rank=r1, abar_r_rank=r2))
        if not m.nu and entry.degree_log2 != abar_rank(m.lam, m.kind):
            failures.append(_failure("galois degree", m, degree=2 ** entry.degree_log2))
        if size(m.lam) // 2 <= CHAIN_CROSS_CHECK_RANK:
            differs = _chain_differences(m, table, entered[-1][1], splits)
            if differs:
                failures.append(_failure("chain", m, differs=differs))
    return _report("galois group ranks", len(data), failures)


def verify_richardson(max_rank):
    """The orbit pair from the weight coordinates equals the saturation-route
    pair for every special datum, and fails on the non-special witness in the
    documented direction.

    Each route has its own memos for the run, so each core is split and
    each side vector's orbit computed once per route, and no memo feeds
    both sides of the comparison: the weight route (`richardson_pair`)
    keeps a core-split memo and a Richardson-orbit memo, the saturation
    route (`ms_lift`) a core-split memo.  The witness runs without them."""
    failures = []
    data = _data(iter_special, max_rank)
    weight_splits, weight_orbits, saturation_splits = {}, {}, {}
    for m in data:
        lift = ms_lift(m, saturation_splits)
        first, second = richardson_pair(m, weight_splits, weight_orbits)
        if (first.parts, second.parts) != (lift.factor1.parts, lift.factor2.parts):
            failures.append(_failure("richardson", m, weight_pair=[str(first), str(second)],
                                     saturation_pair=[str(lift.factor1), str(lift.factor2)]))
    first, _ = richardson_pair(WITNESS)
    lift = ms_lift(WITNESS)
    if first.parts != (5, 5, 3, 3) or lift.factor1.parts != (5, 4, 4, 3):
        failures.append(_failure("witness", WITNESS, weight_factor=str(first),
                                 saturation_factor=str(lift.factor1)))
    return _report("richardson vs saturation", len(data) + 1, failures)


# Groups the tables suite classifies and shell-checks; E6-E8 are tested
# outside it, as the `exceptional-tables` workload pins it at 258 checks.
SUBSYSTEM_GROUPS = ("G2", "F4")


def verify_point_values():
    """Source point values: the non-special witness weight and cover degree,
    the exceptional tables, and the subsystem classifications and
    lattice-shell minimality of the SUBSYSTEM_GROUPS table weights.  Each
    group's call of each of the three checks must count at least one check,
    or the group fails that check with `checked` 0."""
    failures = []
    checked = 2  # the witness weight and cover
    weight = str(gamma_la(WITNESS))
    if weight != "(5/2,3/2,3/2,3/2,1/2,1/2,1/2,1/2)":
        failures.append(_failure("witness weight", WITNESS, weight=weight))
    cover = d_map(WITNESS)
    if cover.degree != 2 or cover.base.parts != (4, 4, 4, 2, 2):
        failures.append(_failure("witness cover", WITNESS, degree=cover.degree,
                                 base=str(cover.base)))
    for group in exceptional.GROUPS:
        rep = exceptional.verify_tables(group)
        count = sum(rep["checked"].values())
        if not count:
            failures.append(_failure("tables %s" % group, group, checked=0))
        checked += count
        failures.extend(_failure("tables %s %s" % (group, f[0]), f[1], values=list(f[2:]))
                        for f in rep["failures"])
    for group in SUBSYSTEM_GROUPS:
        for check, run in (("classification", exceptional.verify_classification),
                           ("shell", exceptional.verify_shell_minimality)):
            rep = run(group)
            if not rep["checked"]:
                failures.append(_failure("%s %s" % (check, group), group, checked=0))
            checked += rep["checked"]
            failures.extend(_failure("%s %s" % (check, group), f[0], entry=f[1], found=f[2])
                            for f in rep["failures"])
    return _report("point values and tables", checked, failures)


# The two-row norm inequality is checked for all rows q1 >= q2 up to this.
TWO_ROW_NORM_TOP = 12


def verify_kernel(max_size, max_rank):
    """Combinatorial kernel: the greedy collapse equals the dominance maximum
    of the typed partitions below, found by induction over lower covers and,
    through COLLAPSE_CROSS_CHECK_SIZE, by brute force as well; the
    component-group orders match the markable count; the two-row staggering
    strictly increases the weight norm."""
    failures = []
    checked = 0
    for n in range(max_size + 1):
        for kind in (k for k, parity in SIZE_PARITY.items() if parity == n % 2):
            maxima, collapse_failures = collapse_maxima(n, kind)
            checked += len(maxima)
            failures += collapse_failures
            if n <= COLLAPSE_CROSS_CHECK_SIZE:
                typed = {q: tuple(itertools.accumulate(q)) for q in enumerate_type(kind, n)}
                for p in maxima:
                    if brute_force_maximum(p, typed) != collapse(p, kind):
                        failures.append(_failure("collapse by brute force",
                                                 format_partition(p), kind=kind))
    orbits = _data(lambda kind, n: [Orbit(kind, n, lam) for lam in enumerate_type(kind, n)],
                   max_rank)
    checked += len(orbits)
    for o in orbits:
        cover = lusztig_cover(o)
        quotient = 2 ** group_data(o).a_rank // len(cover.subgroup)
        if quotient != cover.degree:
            failures.append(_failure("quotient order", o, quotient=quotient))
    for q1 in range(1, TWO_ROW_NORM_TOP + 1):
        for q2 in range(1, q1 + 1):
            checked += 1
            a = rho_plus((q1, q2), (q1 + q2) // 2)
            b = rho_plus(uparrow2((q1, q2)), (q1 + q2) // 2)
            if not sum(h * h for h in a) < sum(h * h for h in b):
                failures.append(_failure("two-row norm", format_partition((q1, q2))))
    return _report("combinatorial kernel", checked, failures)


# Every suite, with the keyword arguments that `--max-rank n` gives it; at
# n = 5 these are the ranges of the acceptance tests.
SUITES = {
    "minimality": (verify_minimality, lambda n: {"max_rank": n}),
    "gamma": (verify_gamma, lambda n: {"max_rank": n}),
    "duality": (verify_duality, lambda n: {"max_rank": n + 1}),
    "rigidity": (verify_rigidity, lambda n: {"max_rank": n}),
    "gamma-group": (verify_gamma_group, lambda n: {"max_rank": n}),
    "richardson": (verify_richardson, lambda n: {"max_rank": n}),
    "tables": (verify_point_values, lambda n: {}),
    "kernel": (verify_kernel, lambda n: {"max_size": 2 * n + 4, "max_rank": n + 1}),
}


def verify_all(max_rank, suites=tuple(SUITES)):
    """Run the named suites (all by default) at the ranges `max_rank` sets."""
    reports = []
    for name in suites:
        fn, params = SUITES[name]
        reports.append(fn(**params(max_rank)))
    return reports
