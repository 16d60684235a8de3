import collections
import json
from itertools import accumulate
from operator import gt, ne

import pytest

from orbitduality import covers, exceptional, orbits, sommers, verify
from orbitduality.cli import main
from orbitduality.compgroups import (
    MarkedPartition, is_distinguished_marked, is_special_marked, parse_marked,
)
from orbitduality.covers import CoverSpec, MSLift, RigidityFlags, ms_lift
from orbitduality.infchar import Weight, gamma_la, nu0_eta0
from orbitduality.oracle import richardson_pair
from orbitduality.orbits import InducedOrbit, Orbit, enumerate_orbits
from orbitduality.partitions import (
    EPSILON, enumerate_partitions, enumerate_type, lower_covers,
)


def test_registry_at_rank_5_gives_the_acceptance_ranges():
    params = {name: params(5) for name, (_, params) in verify.SUITES.items()}
    assert params == {
        "minimality": {"max_rank": 5},
        "gamma": {"max_rank": 5},
        "duality": {"max_rank": 6},
        "rigidity": {"max_rank": 5},
        "gamma-group": {"max_rank": 5},
        "richardson": {"max_rank": 5},
        "tables": {},
        "kernel": {"max_size": 14, "max_rank": 6},
    }


def test_minimality_runs_in_one_process():
    with pytest.raises(ValueError, match="jobs must be 1"):
        verify.verify_minimality(max_rank=1, jobs=2)


def test_verify_all_max_rank_sets_every_suite(capsys):
    assert main(["--json", "verify", "all", "--max-rank", "3"]) == 0
    reports = json.loads(capsys.readouterr().out)
    direct = [
        verify.verify_minimality(max_rank=3),
        verify.verify_gamma(max_rank=3),
        verify.verify_duality(max_rank=4),
        verify.verify_rigidity(max_rank=3),
        verify.verify_gamma_group(max_rank=3),
        verify.verify_richardson(max_rank=3),
        verify.verify_point_values(),
        verify.verify_kernel(max_size=10, max_rank=4),
    ]
    assert reports == json.loads(json.dumps(direct, sort_keys=True, default=str))


def _wrong_weight(*args):
    return Weight("C", (99,))


# suite -> (a name in the verify module, a broken stand-in that makes one of
# the suite's checks fail)
BREAKS = {
    "minimality": ("signature_minimum", lambda m: (0, ())),
    "gamma": ("gamma_rigid_cover", _wrong_weight),
    "duality": ("bvls_dual", lambda o: o),
    "rigidity": ("rigidity", lambda base, sub: RigidityFlags(False, True)),
    "gamma-group": ("_pair_abar_rank", lambda kind, split: -1),
    "richardson": ("ms_lift", lambda m, splits=None: MSLift(Orbit("B", 1, (1,)),
                                                            Orbit("B", 1, (1,)))),
    "tables": ("gamma_la", _wrong_weight),
    "kernel": ("lusztig_cover",
               lambda o: covers.lusztig_cover(o)._replace(degree=3)),
}


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_failure_records_replay(monkeypatch, capsys, suite):
    """Every failure is a {check, datum, detail} record, printed as one
    `check datum <detail as JSON>` line, whose datum a CLI verb accepts:
    `gamma` for a marked partition, `bvls-dual` for an orbit."""
    assert set(BREAKS) == set(verify.SUITES)
    monkeypatch.setattr(verify, *BREAKS[suite])
    argv = ["verify", suite, "--max-rank", "2"]
    assert main(["--json"] + argv) == 1
    [report] = json.loads(capsys.readouterr().out)
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    shown = min(len(report["failures"]), 10)
    assert report["failures"] and len(lines) == 1 + shown + (len(report["failures"]) > 10)
    for record, line in zip(report["failures"], lines[1:1 + shown]):
        assert line == "  %s %s %s" % (record["check"], record["datum"],
                                       json.dumps(record["detail"], sort_keys=True))
    for record in report["failures"]:
        assert set(record) == {"check", "datum", "detail"}
        verb = "gamma" if "<" in record["datum"] else "bvls-dual"
        assert main([verb, record["datum"]]) == 0, record
    capsys.readouterr()


def test_text_output_gives_the_failure_total(monkeypatch, capsys):
    monkeypatch.setattr(verify, *BREAKS["duality"])
    argv = ["verify", "duality", "--max-rank", "2"]
    assert main(["--json"] + argv) == 1
    total = len(json.loads(capsys.readouterr().out)[0]["failures"])
    assert total > 10
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12 and lines[-1] == "  %d failures (first 10 shown)" % total


@pytest.mark.parametrize("count", [10, 11])
def test_text_output_shows_ten_failures_then_the_total(monkeypatch, capsys, count):
    failures = [{"check": "gamma", "datum": "B:<[]>[1]", "detail": {"i": i}} for i in range(count)]
    monkeypatch.setattr(verify, "verify_all", lambda max_rank, suites: [
        {"name": "gamma consistency", "checked": count, "failures": failures, "passed": False}])
    assert main(["verify", "gamma"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:11] == ["FAIL gamma consistency: %d checks" % count] + [
        '  gamma B:<[]>[1] {"i": %d}' % i for i in range(10)]
    assert lines[11:] == ([] if count == 10 else ["  11 failures (first 10 shown)"])


def test_a_suite_of_one_passing_check_passes(monkeypatch):
    # the B data alone: B:<[]>[3] is the one special distinguished datum of rank 1
    real = verify.iter_special_distinguished
    monkeypatch.setattr(verify, "iter_special_distinguished",
                        lambda kind, n: real(kind, n) if kind == "B" else ())
    assert verify.verify_gamma(max_rank=1) == {
        "name": "gamma consistency", "checked": 1, "failures": [], "passed": True}


def _family_mismatches(max_rank):
    """The (kind, n) through max_rank at which `iter_special_distinguished`
    is not, as a list, the special data `is_distinguished_marked` keeps."""
    return [(kind, n) for kind, sizes in verify.type_sizes(max_rank).items() for n in sizes
            if list(verify.iter_special_distinguished(kind, n))
            != [m for m in verify.iter_special(kind, n) if is_distinguished_marked(m)]]


def test_distinguished_family_is_the_filtered_special_family():
    assert _family_mismatches(12) == []


def test_distinguished_candidates_are_the_filtered_typed_partitions():
    # the filter the generator replaces: no part of the eps parity and no
    # part three or more times
    for kind in "BCD":
        eps = EPSILON[kind]
        for n in range(31):
            assert list(verify._distinguished_candidates(kind, n)) == [
                lam for lam in enumerate_type(kind, n)
                if all(v % 2 != eps for v in lam) and all(map(ne, lam, lam[2:]))], (kind, n)


def test_family_cross_check_rejects_a_prefilter_dropping_doubled_marks(monkeypatch):
    # a doubled part of the mark parity is distinguished once one row is marked
    real = verify._distinguished_candidates
    monkeypatch.setattr(verify, "_distinguished_candidates", lambda kind, n: [
        lam for lam in real(kind, n) if len(set(lam)) == len(lam)])
    assert _family_mismatches(3) == [("B", 5), ("B", 7), ("C", 4)]


def test_special_family_is_the_built_then_filtered_family():
    # every (kind, n) through rank 12, as lists: testing each marking before
    # it is built keeps the same data in the same order
    for kind, sizes in verify.type_sizes(12).items():
        for n in sizes:
            assert list(verify.iter_special(kind, n)) == [
                m for m in verify.iter_reduced_marked(kind, n) if is_special_marked(m)], (kind, n)


def test_per_run_memos_give_the_plain_results():
    # one memo of each kind shared by every special datum through rank 10
    data = verify._data(verify.iter_special, 10)
    splits, weight_splits, orbits = {}, {}, {}
    for m in data:
        assert nu0_eta0(m, splits) == nu0_eta0(m)
        assert gamma_la(m, splits) == gamma_la(m)
        assert ms_lift(m, splits) == ms_lift(m)
        assert richardson_pair(m, weight_splits, orbits) == richardson_pair(m)
    # the memos were read, not only filled
    assert len(splits) == len(weight_splits) < len(data)
    assert len(orbits) < 2 * len(data)


class ForgetfulMemo(dict):
    """A memo that stores and looks up each key by `forget(key)` alone."""

    def __init__(self, forget):
        super().__init__()
        self.forget = forget

    def get(self, key, default=None):
        return super().get(self.forget(key), default)

    def __setitem__(self, key, value):
        super().__setitem__(self.forget(key), value)


def test_richardson_rejects_a_saturation_split_memo_keyed_without_marks(monkeypatch):
    # one memo for the whole call; C:<[]>[4,2] is split before C:<[2]>[4,2]
    real, memo = verify.ms_lift, ForgetfulMemo(lambda key: key[:2])
    monkeypatch.setattr(verify, "ms_lift",
                        lambda m, splits=None: real(m, None if splits is None else memo))
    report = verify.verify_richardson(max_rank=3)
    assert {f["check"] for f in report["failures"]} == {"richardson"}
    assert "C:<[2]>[4,2]" in {f["datum"] for f in report["failures"]}


def test_richardson_rejects_a_weight_orbit_memo_keyed_by_side_length(monkeypatch):
    real, memo = verify.richardson_pair, ForgetfulMemo(lambda key: len(key[1]))
    monkeypatch.setattr(verify, "richardson_pair",
                        lambda m, splits=None, orbits=None:
                        real(m, splits, None if orbits is None else memo))
    report = verify.verify_richardson(max_rank=5)
    assert report["failures"]
    assert {f["check"] for f in report["failures"]} == {"richardson"}


def test_collapse_maxima_match_brute_force():
    # every (p, kind) of the acceptance range, size <= 14
    for kind, n in [(k, n) for n in range(15) for k in "BCD" if (n % 2 == 1) == (k == "B")]:
        maxima, failures = verify.collapse_maxima(n, kind)
        typed = {q: tuple(accumulate(q)) for q in enumerate_type(kind, n)}
        assert not failures and list(maxima) == sorted(enumerate_partitions(n))
        for p, top in maxima.items():
            assert top == verify.brute_force_maximum(p, typed), (kind, p)


def test_kernel_rejects_a_strict_prefix_comparison(monkeypatch):
    # `>` for `>=`: no partition dominates itself, so none of those p
    # dominates is the largest and the brute force finds no maximum; the
    # walk over lower covers goes through `dominates` and stays right
    monkeypatch.setattr(verify, "prefix_dominates", lambda s, t: all(map(gt, s, t)))
    report = verify.verify_kernel(max_size=6, max_rank=1)
    assert {"check": "collapse by brute force", "datum": "[2,1]",
            "detail": {"kind": "B"}} in report["failures"]
    assert {f["check"] for f in report["failures"]} == {"collapse by brute force"}


def _swapped_duals(kind, n):
    """A dual map that swaps the duals of an orbit a and of the typed maximum
    b below one of a's lower covers, where the two duals differ: the order
    then fails on that cover pair.  Covers late in a's list go first, so
    that a check of only the first cover misses the pair."""
    real = verify.bvls_dual
    duals = {o: real(o) for o in enumerate_orbits(kind, n)}
    by_parts = {o.parts: o for o in duals}
    maxima, _ = verify.collapse_maxima(n, kind)
    pairs = [(i, a, c) for a in duals for i, c in enumerate(lower_covers(a.parts))]
    for _, a, c in sorted(pairs, key=lambda t: -t[0]):
        b = by_parts[maxima[c]]
        if duals[b].parts != duals[a].parts:
            swap = {a: duals[b], b: duals[a]}
            return a, b, lambda o: swap.get(o, real(o))
    raise AssertionError("no cover pair with distinct duals")


def _order_verdicts(duals, maxima):
    return bool(verify._order_by_covers(duals, maxima)), bool(verify._order_by_pairs(duals))


def test_order_routes_agree():
    for kind, sizes in verify.type_sizes(6).items():
        for n in sizes:
            maxima, _ = verify.collapse_maxima(n, kind)
            duals = {o: verify.bvls_dual(o) for o in enumerate_orbits(kind, n)}
            assert _order_verdicts(duals, maxima) == (False, False), (kind, n)
            if n >= 4:
                _, _, broken = _swapped_duals(kind, n)
                duals = {o: broken(o) for o in duals}
                assert _order_verdicts(duals, maxima) == (True, True), (kind, n)


def _adjacent_covers_only(p):
    """lower_covers without the case of equal non-adjacent rows."""
    def moved(c):
        c = c + (0,) * (len(p) + 1 - len(c))
        return [i for i, (x, y) in enumerate(zip(p + (0,), c)) if x != y]
    return [c for c in lower_covers(p) if moved(c)[1] == moved(c)[0] + 1]


def test_kernel_rejects_covers_without_equal_rows(monkeypatch):
    monkeypatch.setattr(verify, "lower_covers", _adjacent_covers_only)
    report = verify.verify_kernel(max_size=6, max_rank=1)
    assert {"check": "collapse", "datum": "[2,1]", "detail": {"kind": "B"}} in report["failures"]


def test_incomparable_cover_maxima_have_no_maximum(monkeypatch):
    # (4,1,1) and (3,3) are typed and incomparable, so no maximum lies below
    # a partition whose lower covers they were
    real = verify.lower_covers
    monkeypatch.setattr(verify, "lower_covers",
                        lambda p: [(4, 1, 1), (3, 3)] if p == (5, 1) else real(p))
    maxima, failures = verify.collapse_maxima(6, "C")
    assert maxima[(5, 1)] is None
    assert failures == [{"check": "collapse", "datum": "[5,1]", "detail": {"kind": "C"}}]


def test_kernel_rejects_a_collapse_broken_past_the_reference(monkeypatch):
    real = verify.collapse
    monkeypatch.setattr(verify, "collapse",
                        lambda p, kind: (13,) if p == (12, 1) else real(p, kind))
    report = verify.verify_kernel(max_size=14, max_rank=1)
    assert 13 > verify.COLLAPSE_CROSS_CHECK_SIZE
    assert report["failures"] == [{"check": "collapse", "datum": "[12,1]",
                                   "detail": {"kind": "B"}}]


def test_duality_rejects_a_reversed_cover_pair(monkeypatch):
    a, b, broken = _swapped_duals("C", 14)
    monkeypatch.setattr(verify, "bvls_dual", broken)
    report = verify.verify_duality(max_rank=7)
    assert {"check": "order", "datum": str(a), "detail": {"below": str(b)}} in report["failures"]
    # size 14 is past the reference over all pairs
    assert not [f for f in report["failures"] if f["check"] == "order by pairs"]


def _flip_first_step(chain, target):
    """`chain` with the birational flag of the first step of target's chain
    flipped."""
    def flipped(m):
        core_dual, steps = chain(m)
        if m == target:
            induced = steps[0].induced
            induced = induced._replace(birational=not induced.birational)
            steps = [steps[0]._replace(induced=induced)] + steps[1:]
        return core_dual, steps
    return flipped


def test_gamma_group_rejects_a_flipped_induction_step(monkeypatch):
    # the chain table carries the suite's checks; saturation_chain is the
    # reference it is compared with, so a step flipped there is a `chain` record
    real = verify.saturation_chain
    target = next(m for m in verify._data(verify.iter_special, 3) if real(m)[1])
    monkeypatch.setattr(verify, "saturation_chain", _flip_first_step(real, target))
    report = verify.verify_gamma_group(max_rank=3)
    assert {(f["check"], f["datum"]) for f in report["failures"]} == {("chain", str(target))}


def test_chain_cross_check_runs_through_its_rank(monkeypatch):
    rank = verify.CHAIN_CROSS_CHECK_RANK
    real = verify.saturation_chain
    target = next(m for m in verify.iter_special("C", 2 * rank) if real(m)[1])
    monkeypatch.setattr(verify, "saturation_chain", _flip_first_step(real, target))
    report = verify.verify_gamma_group(max_rank=rank)
    assert {(f["check"], f["datum"]) for f in report["failures"]} == {("chain", str(target))}


def _spy(monkeypatch, name, measure):
    """Wrap the verify module's `name` so that each call records
    measure(*args); returns the list of what it recorded."""
    real, seen = getattr(verify, name), []

    def spy(*args):
        seen.append(measure(*args))
        return real(*args)

    monkeypatch.setattr(verify, name, spy)
    return seen


def test_shell_cross_check_runs_through_its_rank(monkeypatch):
    ranks = _spy(monkeypatch, "verify_min", lambda m, *memos: sum(m.lam) // 2)
    report = verify.verify_minimality(max_rank=verify.SHELL_CROSS_CHECK_RANK + 1)
    assert report["passed"] and max(ranks) == verify.SHELL_CROSS_CHECK_RANK


def test_duality_order_by_pairs_runs_through_its_size(monkeypatch):
    # rank 6 holds B of size 13, one past the reference's last size
    sizes = _spy(monkeypatch, "_order_by_pairs", lambda duals: next(iter(duals)).ambient)
    report = verify.verify_duality(max_rank=6)
    assert report["passed"] and max(sizes) == verify.COLLAPSE_CROSS_CHECK_SIZE


def test_kernel_brute_force_runs_through_its_size(monkeypatch):
    sizes = _spy(monkeypatch, "brute_force_maximum", lambda p, typed: sum(p))
    report = verify.verify_kernel(max_size=verify.COLLAPSE_CROSS_CHECK_SIZE + 1, max_rank=1)
    assert report["passed"] and max(sizes) == verify.COLLAPSE_CROSS_CHECK_SIZE


def test_chain_cross_check_stops_at_its_rank(monkeypatch):
    ranks = _spy(monkeypatch, "_chain_differences",
                 lambda m, table, last, splits: sum(m.lam) // 2)
    report = verify.verify_gamma_group(max_rank=verify.CHAIN_CROSS_CHECK_RANK + 1)
    assert report["passed"] and max(ranks) == verify.CHAIN_CROSS_CHECK_RANK


def test_chain_table_rejects_a_dual_taken_without_induction(monkeypatch):
    # the predecessor's dual, unchanged, in place of the one induced from it
    monkeypatch.setattr(covers, "induce", lambda gl_orbits, core: InducedOrbit(core, True))
    with pytest.raises(ValueError, match=r"induction/duality mismatch at gl\(1\) onto "):
        verify.verify_gamma_group(max_rank=2)


def test_an_induction_mismatch_is_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr(covers, "induce", lambda gl_orbits, core: InducedOrbit(core, True))
    assert main(["verify", "gamma-group", "--max-rank", "2"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: induction/duality mismatch")


def test_chain_table_rejects_a_predecessor_without_the_largest_pair(monkeypatch):
    # C:<[]>[2,2,1,1] without its largest pair (2,2) is C:<[]>[1,1], and that
    # step is non-birational; its true last step is gl(1) onto C:<[]>[2,2]
    real = covers._strip_tuples
    target = parse_marked("C:<[]>[2,2,1,1]")
    entered = covers.ChainTable().fill(target)
    assert entered[-1][1].a == 1 and entered[-1][1].induced.birational

    def largest_last(m):
        gl, core = real(m)
        return gl[::-1], core

    monkeypatch.setattr(covers, "_strip_tuples", largest_last)
    assert not covers.ChainTable().fill(target)[-1][1].induced.birational
    report = verify.verify_gamma_group(max_rank=3)
    assert {"check": "chain", "datum": str(target),
            "detail": {"differs": ["last step"]}} in report["failures"]


def test_a_flipped_step_is_reported_once(monkeypatch):
    # the step gl(1) onto C:<[]>[2,2,1,1] lies on the chain of C:<[]>[2,2,1,1,1,1]
    # as well, but only the datum whose last step it is reports it
    real = covers._induce_dual
    target = parse_marked("C:<[]>[2,2,1,1]")

    def flipped(a, dual, m):
        induced, dual_m = real(a, dual, m)
        if m == target:
            induced = induced._replace(birational=not induced.birational)
        return induced, dual_m

    monkeypatch.setattr(covers, "_induce_dual", flipped)
    report = verify.verify_gamma_group(max_rank=4)
    assert [(f["check"], f["datum"]) for f in report["failures"]
            if f["check"] == "step birationality"] == [("step birationality", str(target))]


def _general_route_without_marks(m, route, block_duals=None):
    """`_sommers_dual` whose general route forgets the marks."""
    if route == "general":
        m = MarkedPartition(m.kind, m.lam, ())
    return sommers._sommers_dual(m, route, block_duals)


def _equal_step_flags(*args):
    flags = covers._step_flags(*args)
    return flags._replace(abar_changes=flags.bind_birational)


def _increasing_orbits(kind, n):
    return enumerate_orbits(kind, n)[::-1]


# check -> (suite, [(module, name, broken stand-in)], one record the check
# must then give); `--max-rank 2` runs the suite
GATES = {
    "distinguished route": ("duality", [
        (sommers, "_dual_partition_distinguished",
         lambda m: sommers._dual_partition_general(m.kind, (), m.lam))],
        ("B:<[3,1]>[3,1,1]", {})),
    "injectivity": ("duality", [(verify, "_sommers_dual", _general_route_without_marks)],
                    ("C:<[2]>[4,2]", {"same_dual_as": "C:<[]>[4,2]"})),
    "step": ("gamma-group", [(verify, "_step_flags", _equal_step_flags)],
             ("B:<[]>[1,1,1]", {"a": 1, "step_datum": "B:<[]>[1]"})),
    # a datum of degree 2, so the record's `2 **` is read
    "galois degree": ("gamma-group", [(verify, "abar_rank", lambda lam, kind: -1)],
                      ("B:<[]>[3,1,1]", {"degree": 2})),
    "witness cover": ("tables", [(verify, "d_map", lambda m: CoverSpec(covers.d_map(m).base, 1))],
                      (str(verify.WITNESS), {"base": "C:[4,4,4,2,2]", "degree": 1})),
    "collapse by brute force": ("kernel", [(verify, "brute_force_maximum", lambda p, typed: None)],
                                ("[2,1]", {"kind": "B"})),
    "two-row norm": ("kernel", [(verify, "uparrow2", lambda p: p)], ("[2,1]", {})),
    # the orbits in increasing order, so the larger of a pair comes second
    "order by pairs": ("duality", [(verify, "enumerate_orbits", _increasing_orbits),
                                   (verify, "bvls_dual", _swapped_duals("C", 4)[2])],
                       ("C:[4]", {"below": "C:[2,2]"})),
    "tables G2": ("tables", [(exceptional, "load_table", lambda group: {"rows": []}),
                             (exceptional, "load_gamma_table", lambda group: {"rows": []})],
                  ("G2", {"checked": 0})),
    # the exceptional records: every value a table failure holds past its
    # row's dual, and a classification or shell failure's three fields
    "tables G2 abar_recomputed": ("tables", [(exceptional, "_classical_abar_rank",
                                              lambda type_label, orbit_strings: 1)],
                                  ("G2(a1)", {"values": ["2A1", 1, "1"]})),
    "classification G2": ("tables", [(exceptional, "subsystem_classify",
                                      lambda group, weight: ("A1", ""))],
                          ("G2(a1)", {"entry": "A1+~A1", "found": "A1"})),
    # every point of the shell has the types of the entry, and every zero
    # set the entry's singular count
    "shell G2": ("tables", [(exceptional, "_subsystems", lambda roots, kcoords, k: ((), ())),
                            (exceptional, "_singular_counts",
                             lambda group: collections.defaultdict(int))],
                 ("G2(a1)", {"entry": "A1+~A1", "found": ["0", "0"]})),
}


@pytest.mark.parametrize("check", list(GATES))
def test_every_gate_can_fail(monkeypatch, capsys, check):
    suite, patches, (datum, detail) = GATES[check]
    for module, name, stand_in in patches:
        monkeypatch.setattr(module, name, stand_in)
    assert main(["--json", "verify", suite, "--max-rank", "2"]) == 1
    [report] = json.loads(capsys.readouterr().out)
    assert {"check": check, "datum": datum, "detail": detail} in report["failures"]


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_every_suite_call_checks_its_orbits_in_a_table_of_its_own(monkeypatch, suite):
    real, open_tables = orbits._checked_parts, []

    def spy(*fields):
        open_tables.append(orbits._suite_orbits)
        return real(*fields)

    monkeypatch.setattr(orbits, "_checked_parts", spy)
    fn, params = verify.SUITES[suite]
    assert fn(**params(1))["passed"]
    assert open_tables and None not in open_tables
    assert orbits._suite_orbits is None


def test_duality_checks_each_distinct_orbit_once(monkeypatch):
    real, checked = orbits._checked_parts, []

    def spy(kind, ambient, parts, decoration):
        checked.append((kind, type(ambient), ambient, parts, decoration))
        return real(kind, ambient, parts, decoration)

    monkeypatch.setattr(orbits, "_checked_parts", spy)
    assert verify.verify_duality(max_rank=4)["passed"]
    assert checked and len(set(checked)) == len(checked)
