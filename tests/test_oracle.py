import itertools
from bisect import bisect_left

import pytest

from orbitduality import oracle, verify
from orbitduality.cli import main
from orbitduality.compgroups import (
    MARK_PARITY, MarkedPartition, all_markings, canonical_split, equivalent_markings,
    is_distinguished_marked, multiset_difference, parse_marked,
)
from orbitduality.covers import PSEUDO_LEVI
from orbitduality.infchar import Weight, rho_plus
from orbitduality.oracle import (
    class_shell, dominant_shell, membership_tester, richardson_pair, richardson_zero,
    signature_minimiser, signature_minimum, signatures, split_classes, verify_min,
)
from orbitduality.orbits import Orbit
from orbitduality.partitions import (
    collapse, enumerate_partitions, enumerate_type, size, transpose, union, uparrow,
)


def test_richardson_zero_examples():
    assert richardson_zero("D", (3, 3, 3, 1, 1, 1, 1, 5)) == Orbit("D", 16, (5, 5, 3, 3))
    assert richardson_zero("C", (2,)) == Orbit("C", 2, (2,))
    assert richardson_zero("B", (0, 0, 0, 0)) == Orbit("B", 9, (1,) * 9)
    assert richardson_zero("B", ()) == Orbit("B", 1, (1,))
    with pytest.raises(ValueError):
        richardson_zero("C", (2, 1))


def reference_richardson_zero(kind, halves):
    """The definition `richardson_zero` had before it counted runs: the
    distinct nonzero absolute values by a set, each multiplicity by count."""
    halves = tuple(abs(h) for h in halves)
    parities = {h % 2 for h in halves}
    if len(parities) > 1:
        raise ValueError("coordinates of one factor must share a congruence class")
    zeros = sum(1 for h in halves if h == 0)
    ambient = 2 * len(halves) + (kind == "B")
    columns = []
    for v in sorted({h for h in halves if h}, reverse=True):
        q = halves.count(v)
        columns.extend((q, q))
    residual = 2 * zeros + (ambient % 2)
    if residual:
        columns.append(residual)
    columns.sort(reverse=True)
    return Orbit(kind, ambient, collapse(transpose(tuple(columns)), kind))


def unfiltered_verify_min(m, orbits):
    """The reference for `verify_min`: the same walk of the shell at the lift
    class sizes, with no column-count filter.  Every marked vector within
    the bound gets its Richardson orbit, and so does every other vector
    within the bound beside a marked vector that some lift accepts; a point
    is a member when one lift accepts both sides.  `orbits` is filled like
    `_lift_sides`' memo, {factor kind: {side vector: parts}}."""
    parity = MARK_PARITY[m.kind]
    kinds = PSEUDO_LEVI[m.kind]
    memos = [orbits.setdefault(k, {}) for k in kinds]

    def orbit(i, side):
        if side not in memos[i]:
            memos[i][side] = richardson_zero(kinds[i], side).parts
        return memos[i][side]

    cand = oracle.gamma_la(m)
    bound4 = sum(h * h for h in cand.halves)
    lifts = [(nu, multiset_difference(m.lam, nu)) for nu in equivalent_markings(m)]
    tested, best, found = 0, None, []
    for a, b in sorted({(size(nu) // 2, size(eta) // 2) for nu, eta in lifts}):
        others = sorted(class_shell(b, bound4, 1 - parity), key=lambda pair: pair[1])
        for marked, norm1 in class_shell(a, bound4, parity):
            within = [(other, norm2) for other, norm2 in others if norm1 + norm2 <= bound4]
            tested += len(within)
            if not within:
                continue
            etas = {eta for nu, eta in lifts if size(nu) == 2 * a
                    and (not a or orbit(0, marked) == nu)}
            for other, norm2 in within:
                if not etas or orbit(1, other) not in etas:
                    continue
                norm4 = norm1 + norm2
                if best is None or norm4 < best:
                    best, found = norm4, []
                if norm4 == best:
                    found.append(tuple(sorted(marked + other, reverse=True)))
    return oracle.Certificate(m, cand, tested, (best, tuple(sorted(found, reverse=True))))


def test_richardson_zero_by_runs_is_the_definition():
    # every side vector the unfiltered shell asks about through
    # SHELL_CROSS_CHECK_RANK, read off one run's memo
    memo = {}
    for m in verify._data(verify.iter_special_distinguished, verify.SHELL_CROSS_CHECK_RANK):
        unfiltered_verify_min(m, memo)
    sides = [(k, side) for k, table in memo.items() for side in table]
    assert len(sides) == 3061
    for k, side in sides:
        orbit = richardson_zero(k, side)
        assert orbit == reference_richardson_zero(k, side), (k, side)
        assert orbit.parts == memo[k][side]
    # the same error on coordinates of two classes
    for bad in [("C", (2, 1)), ("B", (3, 2))]:
        messages = []
        for route in (richardson_zero, reference_richardson_zero):
            with pytest.raises(ValueError) as err:
                route(*bad)
            messages.append(str(err.value))
        assert messages[0] == messages[1], bad


def _lift_class_vectors(max_rank):
    """{(factor kind, side vector): its sets of targets} over every vector
    the unfiltered shell walks through `max_rank`, on both sides of each
    lift class size.  A vector's targets in one datum are the nu (marked
    side) or the eta (other side) of the datum's lifts of its size."""
    out = {}
    for m in verify._data(verify.iter_special_distinguished, max_rank):
        parity = MARK_PARITY[m.kind]
        bound4 = sum(h * h for h in oracle.gamma_la(m).halves)
        lifts = [(nu, multiset_difference(m.lam, nu)) for nu in equivalent_markings(m)]
        for nu, eta in lifts:
            sides = [(nu, 0, parity), (eta, 1, 1 - parity)]
            for target, i, p in sides:
                targets = frozenset(lift[i] for lift in lifts if size(lift[i]) == size(target))
                for v, _ in class_shell(size(target) // 2, bound4, p):
                    out.setdefault((PSEUDO_LEVI[m.kind][i], v), set()).add(targets)
    return out


def test_the_column_count_rules_out_only_orbits_outside_the_targets():
    # every side vector the shell walks through rank 7, on both sides: its
    # orbit's first row is its column count or one less, so a vector the
    # filter drops has an orbit outside the targets of its size
    dropped = kept = 0
    for (k, v), target_sets in _lift_class_vectors(7).items():
        parts = richardson_zero(k, v).parts
        c = oracle._column_count(k, v)
        assert c - (parts[0] if parts else 0) in (0, 1), (k, v)
        for targets in target_sets:
            if c in oracle._first_rows(targets):
                kept += 1
            else:
                dropped += 1
                assert parts not in targets, (k, v)
    assert (dropped, kept) == (16739, 293)


def test_the_filtered_shell_certifies_like_the_unfiltered_walk():
    # one orbit memo and one class-shell memo for the run, against fresh
    # memos for each datum and against the unfiltered walk, which calls
    # `class_shell` itself
    data = verify._data(verify.iter_special_distinguished, 7)
    assert len(data) == 88
    memo, shells, reference = {}, {}, {}
    for m in data:
        certs = [verify_min(m, memo, shells), verify_min(m), unfiltered_verify_min(m, reference)]
        assert len({(c.candidate, c.shell_size, c.shell_minimum, c.passed)
                    for c in certs}) == 1, str(m)


@pytest.mark.parametrize("shift", [1, -1])
def test_cross_checks_catch_a_shifted_column_count(monkeypatch, shift):
    real = oracle._column_count
    monkeypatch.setattr(oracle, "_column_count", lambda kind, halves: real(kind, halves) + shift)
    rep = verify.verify_minimality(max_rank=6)
    checks = {f["check"] for f in rep["failures"]}
    assert not rep["passed"] and {"shell", "routes disagree"} <= checks


def _shell_richardson_calls(monkeypatch):
    # the Richardson orbits the shell computes through SHELL_CROSS_CHECK_RANK
    # with one memo for the run, and the certificates it gives
    real, calls = oracle.richardson_zero, []

    def counted(kind, halves):
        calls.append((kind, halves))
        return real(kind, halves)

    memo = {}
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "richardson_zero", counted)
        certs = [verify_min(m, memo) for m in
                 verify._data(verify.iter_special_distinguished, verify.SHELL_CROSS_CHECK_RANK)]
    return len(calls), [(c.shell_size, c.shell_minimum, c.passed) for c in certs]


def test_the_column_count_spares_the_shell_all_but_a_few_orbits(monkeypatch):
    # a loosened filter changes no certificate, so only the number of
    # orbits the shell computes can see it; here it also admits a column
    # count one below each allowed one (one above admits no vector within
    # the bound that was not admitted already)
    calls, certs = _shell_richardson_calls(monkeypatch)
    assert calls == 92
    real = oracle._first_rows
    monkeypatch.setattr(oracle, "_first_rows",
                        lambda targets: {r + d for r in real(targets) for d in (-1, 0)})
    assert _shell_richardson_calls(monkeypatch) == (250, certs)


def test_membership_examples():
    test = membership_tester(parse_marked("C:<[2]>[2,2]"))
    assert test((2, 1))
    assert not test((1, 1))
    assert not test((2, 2))


def test_a_point_of_another_length_leaves_the_memo_as_it_was():
    # (5,3,1) has the marked side of the lift nu=(5,1), eta=(3); its empty
    # other side gets the Richardson orbit B:[1], which is stored and correct,
    # and (5,3,1) is rejected because its eta, (3), is not that orbit.  The
    # candidate (5,3,1,1) reads the stored B:[1] for the lift nu=(5,3), eta=(1)
    memo = {}
    test = membership_tester(parse_marked("B:<[5,1]>[5,3,1]"), memo)
    assert not test((5, 3, 1))
    assert test((5, 3, 1, 1))
    assert None not in [parts for sides in memo.values() for parts in sides.values()]


def test_membership_canonical_invariance():
    m = parse_marked("C:<[2]>[2,2]")
    test = membership_tester(m)
    assert test((2, 1)) == test((1, 2)) == test((-2, 1))


def test_verify_min_examples():
    cert = verify_min(parse_marked("C:<[2]>[2,2]"))
    assert cert.passed and cert.candidate.halves == (2, 1)
    assert cert.candidate.kind == "B"     # the weight lives on the dual side
    cert = verify_min(parse_marked("B:<[5,1]>[5,3,1]"))
    assert cert.passed and cert.candidate.halves == (5, 3, 1, 1)
    cert = verify_min(MarkedPartition("B", (5, 3, 1), ()))
    assert cert.passed and cert.candidate.halves == (4, 2, 2, 0)
    assert cert.shell_minimum == signature_minimum(cert.datum) == (24, ((4, 2, 2, 0),))


def test_verify_min_needs_the_candidate_alone_at_the_least_norm(monkeypatch):
    # the certificate fails when the candidate is not admissible, and when a
    # second admissible point has the candidate's norm; the rival has the
    # class sizes of the lift nu=(5,3), eta=(1), so the shell offers it
    m = parse_marked("B:<[5,1]>[5,3,1]")
    cand, rival = (5, 3, 1, 1), (3, 3, 3, 3)
    real = membership_tester(m)
    assert real(cand) and not real(rival)
    assert sum(h * h for h in rival) == sum(h * h for h in cand)
    monkeypatch.setattr(oracle, "membership_tester",
                        lambda datum, *rest: lambda pt: pt != cand and real(pt))
    cert = verify_min(m)
    assert cert.candidate.halves == cand and not cert.passed
    assert cand not in cert.shell_minimum[1]
    # the rival half also patches the side check, which would drop the
    # rival before the tester sees it
    real_sides, rival_marked = oracle._lift_sides, split_classes(m.kind, rival)[0]

    def admitting_the_rival(datum, orbits):
        lifts, accepting, other_orbit = real_sides(datum, orbits)

        def accepting_the_rival(side1):
            if side1 == rival_marked:
                return [lift for lift in lifts if lift[1] == 2 * len(side1)]
            return accepting(side1)
        return lifts, accepting_the_rival, other_orbit

    monkeypatch.setattr(oracle, "_lift_sides", admitting_the_rival)
    monkeypatch.setattr(oracle, "membership_tester",
                        lambda datum, *rest: lambda pt: pt == rival or real(pt))
    cert = verify_min(m)
    assert cert.shell_minimum == (36, (cand, rival)) and not cert.passed


def test_verify_min_requires_distinguished():
    with pytest.raises(ValueError):
        verify_min(parse_marked("B:<[5,1]>[5,4,4,3,1]"))


def dominant_shell_naive(n, bound4):
    """Nested-loop reference enumerator for the recursion of
    `dominant_shell`."""
    top = 0
    while top * top <= bound4:
        top += 1
    pts = []
    for tup in itertools.product(range(top), repeat=n):
        if all(tup[i] >= tup[i + 1] for i in range(n - 1)) and sum(h * h for h in tup) <= bound4:
            pts.append(tup)
    return sorted(pts)


def test_shell_enumerator_against_naive():
    for n in (1, 2, 3):
        for bound in (0, 1, 5, 20, 33):
            naive = dominant_shell_naive(n, bound)
            assert sorted(dominant_shell(n, bound)) == naive
            for parity in (0, 1):
                one_class = [(pt, sum(h * h for h in pt)) for pt in naive
                             if all(h % 2 == parity for h in pt)]
                assert sorted(class_shell(n, bound, parity)) == one_class


def test_shell_size_counts_the_naive_shell_at_the_lift_class_sizes():
    # a dominant vector of length a + b with exactly a coordinates of the
    # mark parity, summed over the class sizes (a, b) of the lifts, on every
    # distinguished datum through rank 4
    count = 0
    for kind, sizes in verify.type_sizes(4).items():
        parity = MARK_PARITY[kind]
        for n in sizes:
            for lam in enumerate_type(kind, n):
                for nu in all_markings(lam, kind):
                    m = MarkedPartition(kind, lam, nu)
                    if not is_distinguished_marked(m):
                        continue
                    count += 1
                    cert = verify_min(m)
                    bound4 = sum(h * h for h in cert.candidate.halves)
                    classes = {(size(lift) // 2, size(multiset_difference(lam, lift)) // 2)
                               for lift in equivalent_markings(m)}
                    naive = sum(1 for a, b in classes
                                for pt in dominant_shell_naive(a + b, bound4)
                                if sum(h % 2 == parity for h in pt) == a)
                    assert cert.shell_size == naive, str(m)
    assert count == 41


def _whole_shell_mismatches():
    # the least norm and minimisers over every dominant point of the shell,
    # each tested by a fresh `oracle.membership_tester`, against verify_min,
    # on every special distinguished datum through rank 5
    count, out = 0, []
    for kind, sizes in verify.type_sizes(5).items():
        for n in sizes:
            for m in verify.iter_special_distinguished(kind, n):
                count += 1
                cert = verify_min(m)
                test = oracle.membership_tester(m)
                bound4 = sum(h * h for h in cert.candidate.halves)
                members = [pt for pt in dominant_shell(size(m.lam) // 2, bound4) if test(pt)]
                best = min((sum(h * h for h in pt) for pt in members), default=None)
                found = tuple(sorted((pt for pt in members if sum(h * h for h in pt) == best),
                                     reverse=True))
                if (cert.shell_minimum != (best, found)
                        or cert.passed != (found == (cert.candidate.halves,) and best == bound4)):
                    out.append(str(m))
    assert count == 38
    return out


def test_class_pruned_shell_against_the_whole_shell():
    assert _whole_shell_mismatches() == []


def test_cross_checks_catch_a_side_check_that_drops_the_candidate_lift(monkeypatch):
    # verify_min's side check drops the lift of the candidate's canonical
    # split, while the tester that confirms its survivors stays true: the
    # signature route and the whole shell both see the candidate go missing
    real_sides, real_tester = oracle._lift_sides, oracle.membership_tester

    def dropping(m, orbits):
        lifts, accepting, other_orbit = real_sides(m, orbits)
        nu = canonical_split(m)[0]

        def dropping_the_candidate(side1):
            return [lift for lift in accepting(side1) if lift[0] != nu]
        return lifts, dropping_the_candidate, other_orbit

    def true_tester(m, orbits=None):
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_lift_sides", real_sides)
            return real_tester(m, orbits)

    monkeypatch.setattr(oracle, "_lift_sides", dropping)
    monkeypatch.setattr(oracle, "membership_tester", true_tester)
    rep = verify.verify_minimality(max_rank=4)
    checks = {f["check"] for f in rep["failures"]}
    assert not rep["passed"] and {"shell", "routes disagree"} <= checks
    assert _whole_shell_mismatches()


def test_cross_check_catches_a_class_shell_without_zeros(monkeypatch):
    real = oracle.class_shell

    def without_zeros(n, bound4, parity):
        return [(v, norm4) for v, norm4 in real(n, bound4, parity) if 0 not in v]

    monkeypatch.setattr(oracle, "class_shell", without_zeros)
    rep = verify.verify_minimality(max_rank=4)
    checks = {f["check"] for f in rep["failures"]}
    assert not rep["passed"] and {"shell", "routes disagree"} <= checks


class _KindBlindMemo(dict):
    """A broken orbit memo: one side-vector table for every factor kind."""

    def setdefault(self, kind, default=None):
        return super().setdefault("any", {})


def _memo_mismatches(memo, shells=None):
    # the data verify_minimality shells, in its order, certified with one
    # orbit memo (and one class-shell memo, when given) for all of them,
    # against fresh memos for each datum
    data = verify._data(verify.iter_special_distinguished, verify.SHELL_CROSS_CHECK_RANK)
    assert len(data) == 60
    out = []
    for m in data:
        shared, fresh = verify_min(m, memo, shells), verify_min(m)
        if (shared.shell_minimum, shared.shell_size, shared.passed) != (
                fresh.shell_minimum, fresh.shell_size, fresh.passed):
            out.append(str(m))
    return out


def test_one_memo_per_run_certifies_like_a_fresh_memo_per_datum():
    memo, shells = {}, {}
    assert _memo_mismatches(memo, shells) == []
    assert set(memo) == {"B", "C", "D"}
    # one class shell per (size, class), at the largest bound asked
    assert len(shells) == 14
    assert all(len(key) == 2 and key[1] in (0, 1) for key in shells)


def _served_prefixes(monkeypatch, max_rank):
    """Every (n, bound4, parity, served prefix) the class-shell memo gives
    `verify_min` over the data of rank at most max_rank, with one memo of
    each kind for the run, and the number of class shells enumerated."""
    real_prefix, real_shell, served, built = oracle._shell_prefix, oracle.class_shell, [], []

    def spy(shells, n, bound4, parity):
        prefix = real_prefix(shells, n, bound4, parity)
        served.append((n, bound4, parity, prefix))
        return prefix

    def counted(n, bound4, parity):
        built.append(n)
        return real_shell(n, bound4, parity)

    memo, shells = {}, {}
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_shell_prefix", spy)
        patch.setattr(oracle, "class_shell", counted)
        for m in verify._data(verify.iter_special_distinguished, max_rank):
            verify_min(m, memo, shells)
    return served, len(built)


def test_the_shell_memo_serves_the_class_shell_sorted_by_norm(monkeypatch):
    # every prefix the memo serves through rank 8 is the class shell at the
    # datum's own bound, in `class_shell`'s order within one norm
    served, built = _served_prefixes(monkeypatch, 8)
    assert (len(served), built) == (484, 83)
    for n, bound4, parity, (pairs, norms) in served:
        ref = sorted(class_shell(n, bound4, parity), key=lambda pair: pair[1])
        assert pairs == ref and norms == [norm4 for _, norm4 in ref], (n, bound4, parity)


def test_a_run_enumerates_each_class_shell_and_weight_once(monkeypatch):
    # a memo that never hits changes no certificate, so only these counts
    # can see it: the class shells `verify_minimality` enumerates through
    # SHELL_CROSS_CHECK_RANK and the vectors they hold, and one candidate
    # weight per datum
    shells, weights = [], []
    real_shell, real_weight = oracle.class_shell, oracle.gamma_la

    def counted_shell(n, bound4, parity):
        out = real_shell(n, bound4, parity)
        shells.append(len(out))
        return out

    def counted_weight(m, *rest):
        weights.append(m)
        return real_weight(m, *rest)

    monkeypatch.setattr(oracle, "class_shell", counted_shell)
    monkeypatch.setattr(oracle, "gamma_la", counted_weight)
    monkeypatch.setattr(verify, "gamma_la", counted_weight)
    rep = verify.verify_minimality(max_rank=verify.SHELL_CROSS_CHECK_RANK + 1)
    assert rep["passed"] and rep["checked"] == 88
    assert (len(shells), sum(shells)) == (50, 2004)
    assert len(weights) == len(set(weights)) == 88


class _ParityBlindShells(dict):
    """A broken class-shell memo: one entry per size for both classes."""

    def get(self, key, default=None):
        return super().get(key[0], default)

    def __setitem__(self, key, value):
        super().__setitem__(key[0], value)


class _NeverRegrownShells(dict):
    """A broken class-shell memo: an entry, once made, is read as if its
    bound were past every datum's, so it is never rebuilt."""

    def get(self, key, default=None):
        entry = super().get(key, default)
        return entry if entry is None else (float("inf"),) + entry[1:]


def _bisect_left_prefix(monkeypatch):
    # the memo's prefix cut with `bisect_left`: it leaves out the vectors
    # of norm exactly bound4
    real = oracle._shell_prefix

    def left(*args):
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "bisect_right", bisect_left)
            return real(*args)

    monkeypatch.setattr(oracle, "_shell_prefix", left)


@pytest.mark.parametrize("broken, count", [("parity-blind key", 102),
                                           ("bisect_left prefix", 82)])
def test_cross_checks_catch_a_broken_shell_memo(monkeypatch, broken, count):
    if broken == "parity-blind key":
        real, blind = verify._certify, _ParityBlindShells()
        monkeypatch.setattr(verify, "_certify", lambda m, orbits, shells: real(m, orbits, blind))
    else:
        _bisect_left_prefix(monkeypatch)
    rep = verify.verify_minimality(max_rank=verify.SHELL_CROSS_CHECK_RANK)
    checks = {f["check"] for f in rep["failures"]}
    assert not rep["passed"] and {"shell", "routes disagree"} <= checks
    assert len(rep["failures"]) == count


def test_a_shell_memo_that_is_never_regrown_shrinks_the_shell():
    # the suite passes with it, as the shell still holds each minimum, so
    # only the shell sizes against a fresh memo per datum can see it
    assert len(_memo_mismatches({}, _NeverRegrownShells())) == 25


def test_cross_checks_catch_a_memo_without_the_factor_kind(monkeypatch):
    assert _memo_mismatches(_KindBlindMemo())
    real = verify._certify
    blind = _KindBlindMemo()
    monkeypatch.setattr(verify, "_certify", lambda m, orbits, shells: real(m, blind, shells))
    rep = verify.verify_minimality(max_rank=4)
    checks = {f["check"] for f in rep["failures"]}
    assert not rep["passed"] and {"shell", "routes disagree"} <= checks


def test_richardson_pair_witness():
    first, second = richardson_pair(parse_marked("B:<[5,1]>[5,4,4,3,1]"))
    assert first.parts == (5, 5, 3, 3)
    assert second.parts == (1,)


def test_signature_minimum_requires_distinguished():
    with pytest.raises(ValueError):
        signature_minimum(parse_marked("B:<[5,1]>[5,4,4,3,1]"))


def test_non_canonical_splits_are_admissible_but_not_minimal():
    # the weight of every other split in a datum's class is a member, and
    # both routes place it strictly above the least norm
    count = 0
    for kind, sizes in verify.type_sizes(4).items():
        for n in sizes:
            for m in verify.iter_special_distinguished(kind, n):
                canonical_nu = canonical_split(m)[0]
                routes = (signature_minimum(m), verify_min(m).shell_minimum)
                for nu in equivalent_markings(m):
                    if nu == canonical_nu:
                        continue
                    count += 1
                    eta = multiset_difference(m.lam, nu)
                    w = rho_plus(union(uparrow(nu), eta), size(m.lam) // 2)
                    assert membership_tester(m)(w), (str(m), nu)
                    for norm4, minimisers in routes:
                        assert w not in minimisers and sum(h * h for h in w) > norm4
    assert count == 14


def _without_zeros(n, parity):
    for mults in enumerate_partitions(n):
        yield mults, 0


def _largest_multiplicity_largest_value(mults, zeros, parity):
    out = []
    for i, q in enumerate(reversed(mults)):
        out.extend([2 * i + 2 - parity] * q)
    return tuple(reversed(out)) + (0,) * zeros


@pytest.mark.parametrize("name, broken", [
    ("signatures", _without_zeros),
    ("signature_minimiser", _largest_multiplicity_largest_value),
])
def test_cross_check_catches_a_broken_signature_route(monkeypatch, name, broken):
    monkeypatch.setattr(oracle, name, broken)
    oracle._side_table.cache_clear()
    try:
        rep = verify.verify_minimality(max_rank=3)
    finally:
        oracle._side_table.cache_clear()
    assert not rep["passed"]
    disagree = [f for f in rep["failures"] if f["check"] == "routes disagree"]
    assert disagree
    for f in disagree:
        assert f["detail"]["signature_norm"] != f["detail"]["shell_norm"]
        assert main(["gamma", f["datum"]]) == 0     # the datum replays as CLI text


def test_a_wrong_candidate_fails_both_routes(monkeypatch):
    # B:<[]>[5,3,1] given the weight of its other split, (2,3/2,1,1/2)
    real = verify.gamma_la
    wrong = MarkedPartition("B", (5, 3, 1), ())

    def patched(m):
        return Weight("C", (4, 3, 2, 1)) if m == wrong else real(m)

    monkeypatch.setattr(verify, "gamma_la", patched)
    monkeypatch.setattr(oracle, "gamma_la", patched)
    rep = verify.verify_minimality(max_rank=4)
    assert [(f["check"], f["datum"]) for f in rep["failures"]] == [
        ("signature", "B:<[]>[5,3,1]"), ("shell", "B:<[]>[5,3,1]")]
    assert rep["failures"][0]["detail"] == {
        "candidate": "(2,3/2,1,1/2)", "signature_norm": "6", "shell_norm": "6"}


def _proof_signature(side, parity):
    """The signature `signature_minimum`'s docstring gives a lift side: the
    rows before the collapse are the parts, except for distinct odd marks
    on a type-D factor (the odd class), whose rows are a_1 + 1, a_2 - 1,
    ...; mults is the transpose of the halved rows and the odd rows fill
    the residual column."""
    rows = side
    if parity == 1 and side and side[0] % 2 == 1:
        rows = tuple(v for v in (a + (-1) ** i for i, a in enumerate(side)) if v)
    mults = transpose(tuple(r // 2 for r in rows if r // 2))
    odd = sum(r % 2 for r in rows)
    return mults, (odd - size(side) % 2) // 2


def test_every_lift_side_has_the_signature_of_the_proof():
    """`signature_minimum` reads both sides of every lift from the side
    tables without a fallback: on every distinguished datum through rank 8,
    special or not, the signature its docstring builds for each side is a
    signature of the side's class, and its minimiser's Richardson orbit is
    the side."""
    lifts = 0
    for kind, sizes in verify.type_sizes(8).items():
        parity = MARK_PARITY[kind]
        for n in sizes:
            for lam in enumerate_type(kind, n):
                for nu in all_markings(lam, kind):
                    m = MarkedPartition(kind, lam, nu)
                    if not is_distinguished_marked(m):
                        continue
                    for lift in equivalent_markings(m):
                        eta = multiset_difference(lam, lift)
                        for k, side, p in zip(PSEUDO_LEVI[kind], (lift, eta),
                                              (parity, 1 - parity)):
                            mults, zeros = _proof_signature(side, p)
                            assert (mults, zeros) in signatures(size(side) // 2, p), (str(m), side)
                            halves = signature_minimiser(mults, zeros, p)
                            assert richardson_zero(k, halves).parts == side, (str(m), side)
                            assert side in oracle._side_table(k, size(side), p)
                        lifts += 1
    assert lifts == 649


def test_signature_minimum_keeps_every_lift_that_ties(monkeypatch):
    # every side is given norm 0, so the lifts nu = (5,1) and nu = (5,3) of
    # B:<[5,1]>[5,3,1] tie at distinct points, and both are minimisers
    real = oracle._side_table
    monkeypatch.setattr(oracle, "_side_table", lambda kind, ambient, parity: {
        orbit: (0, halves) for orbit, (_, halves) in real(kind, ambient, parity).items()})
    assert signature_minimum(parse_marked("B:<[5,1]>[5,3,1]")) == (
        0, ((5, 3, 2, 1), (5, 3, 1, 1)))


def test_a_tie_in_a_side_table_is_an_error_naming_the_orbit(monkeypatch):
    """A second signature at an orbit's least norm stops the table, naming
    the factor, its class and the orbit; here every signature is offered
    twice."""
    real = oracle.signatures
    monkeypatch.setattr(oracle, "signatures",
                        lambda n, parity: (s for s in real(n, parity) for _ in range(2)))
    oracle._side_table.cache_clear()
    try:
        with pytest.raises(ValueError, match=r"tie at least norm 8/4 for the orbit \(2, 2\) "
                                             r"of C\(4\), class 0"):
            oracle._side_table("C", 4, 0)
    finally:
        oracle._side_table.cache_clear()
