import pytest

from orbitduality.partitions import EPSILON, enumerate_type, height, union, uparrow
from orbitduality.orbits import Orbit, parse_orbit
from orbitduality import compgroups
from orbitduality.compgroups import (
    MarkedPartition, abar_rank, all_markings, a_group_elements,
    canonical_split, equivalent_markings, format_marked, group_data,
    is_distinguished_marked, is_reduced, is_special_marked,
    kernel_subgroup, markable_parts, multiset_difference, parse_marked, span,
)
from orbitduality.verify import _data, iter_reduced_marked, type_sizes, verify_minimality


def test_group_data_examples():
    gd = group_data(parse_orbit("C:[4,2,2]"))
    assert gd.eps_values == (4, 2) and gd.a_rank == 2 and gd.a_ad_rank == 1
    assert gd.s1_nonempty
    gd = group_data(Orbit("B", 7, (7,)))
    assert gd.a_rank == 0
    gd = group_data(parse_orbit("C:[6,4,2]"))
    assert gd.a_rank == 3 and gd.a_ad_rank == 2


def test_markable_and_rank():
    assert markable_parts((5, 3, 1), "B") == (5, 1)
    assert abar_rank((5, 3, 1), "B") == 1
    assert markable_parts((6, 4, 2), "C") == (4,)
    assert abar_rank((6, 4, 2), "C") == 1
    assert markable_parts((4, 2, 2), "C") == ()
    assert abar_rank((4, 2, 2), "C") == 0


def _markable_parts_by_height(lam, kind):
    # the definition: each distinct part of the mark parity, kept when its
    # height has the kind's parity
    out = []
    for v in compgroups.distinct_eps_values(lam, kind):
        h = height(lam, v)
        if kind == "B" and h % 2 == 1 or kind in ("C", "D") and h % 2 == 0:
            out.append(v)
    return tuple(sorted(out, reverse=True))


def test_markable_parts_by_runs_is_the_definition():
    count = 0
    for kind in "BCD":
        for n in range(25):
            for lam in enumerate_type(kind, n):
                count += 1
                assert markable_parts(lam, kind) == _markable_parts_by_height(lam, kind), (kind, lam)
    assert count == 3357


def test_kernel_examples():
    n = kernel_subgroup((6, 4, 2), "C")
    assert n == span([frozenset({6, 4}), frozenset({2})])
    n = kernel_subgroup((5, 3, 1), "B")
    assert n == span([frozenset({3, 1})])
    assert kernel_subgroup((5, 1), "D") == span([frozenset({5, 1})])


def test_kernel_quotient_order():
    for kind, sizes in (("B", (3, 5, 7, 9)), ("C", (2, 4, 6, 8)), ("D", (4, 6, 8))):
        for n in sizes:
            for lam in enumerate_type(kind, n):
                order = 2 ** group_data(Orbit(kind, n, lam)).a_rank
                assert order // len(kernel_subgroup(lam, kind)) == 2 ** abar_rank(lam, kind)


def test_classify_marked():
    m = MarkedPartition("B", (5, 3, 1), (5, 1))
    assert is_reduced(m) and is_special_marked(m) and is_distinguished_marked(m)
    m = MarkedPartition("B", (5, 4, 4, 3, 1), (5, 1))
    assert is_reduced(m) and not is_special_marked(m) and not is_distinguished_marked(m)
    # unmarked wrong-parity parts absent
    assert is_special_marked(MarkedPartition("B", (5, 3, 1), (5, 3)))
    with pytest.raises(ValueError):
        MarkedPartition("B", (5, 3, 1), (5, 2))
    with pytest.raises(ValueError):
        MarkedPartition("B", (5, 3, 1), (5,))
    assert is_special_marked(MarkedPartition("C", (2, 2), ()))
    # the rows must form a partition of the type
    for kind, lam in (("C", (1,)), ("B", (4, 2)), ("D", (3,))):
        with pytest.raises(ValueError, match="not a type-%s partition" % kind):
            MarkedPartition(kind, lam, ())


def test_decoration_must_be_i_or_ii():
    assert str(MarkedPartition("D", (2, 2), (), "II")) == "D:<[]>[2,2]II"
    with pytest.raises(ValueError, match="decoration must be I or II"):
        MarkedPartition("D", (2, 2), (), "X")


def test_canonical_split_examples():
    assert canonical_split(parse_marked("B:<[5,1]>[5,3,1]")) == ((5, 3), (1,))
    assert canonical_split(MarkedPartition("C", (2, 2), (2,))) == ((2,), (2,))
    assert canonical_split(MarkedPartition("B", (5, 3, 1), ())) == ((), (5, 3, 1))
    nu0, eta0 = canonical_split(MarkedPartition("C", (6, 4, 2), (4,)))
    assert (nu0, eta0) == ((4, 2), (6,))
    with pytest.raises(ValueError):
        canonical_split(parse_marked("B:<[5,1]>[5,4,4,3,1]"))


def test_canonical_split_shapes():
    # marked side multiplicity-free, both sides of the unconstrained parity,
    # unmarked side never empty; on multiplicity-free lam both sides are too
    for kind, sizes in (("B", (5, 7, 9)), ("C", (4, 6, 8)), ("D", (4, 6, 8))):
        for n in sizes:
            for lam in enumerate_type(kind, n):
                for nu in all_markings(lam, kind):
                    m = MarkedPartition(kind, lam, nu)
                    if not is_distinguished_marked(m):
                        continue
                    nu0, eta0 = canonical_split(m)
                    assert len(set(nu0)) == len(nu0)
                    assert max(eta0.count(v) for v in set(eta0)) <= 2
                    if len(set(lam)) == len(lam):
                        assert len(set(eta0)) == len(eta0)
                    assert eta0, (kind, lam, nu)
                    eps = EPSILON[kind]
                    assert all(v % 2 != eps for v in nu0 + eta0)


def test_lifts():
    m = parse_marked("B:<[5,1]>[5,3,1]")
    lifts = equivalent_markings(m)
    assert (5, 1) in lifts and (5, 3) in lifts and len(lifts) == 2
    m0 = MarkedPartition("B", (5, 3, 1), ())
    assert set(equivalent_markings(m0)) == {(), (3, 1)}
    # complementary marking shows up in type C
    m2 = MarkedPartition("C", (2, 2), (2,))
    assert equivalent_markings(m2) == [(2,)]


def _markings(max_rank):
    for kind, sizes in type_sizes(max_rank).items():
        for n in sizes:
            for lam in enumerate_type(kind, n):
                for nu in all_markings(lam, kind):
                    yield MarkedPartition(kind, lam, nu)


def test_lifts_are_the_kernel_coset():
    # the class built from N equals the markings whose support differs from
    # m's by an element of N
    checked = 0
    for m in _markings(6):
        kernel = kernel_subgroup(m.lam, m.kind)
        filtered = [nu for nu in all_markings(m.lam, m.kind)
                    if frozenset(nu) ^ frozenset(m.nu) in kernel]
        lifts = equivalent_markings(m)
        assert len(set(lifts)) == len(lifts) and sorted(lifts) == sorted(filtered), m
        checked += 1
    assert checked > 100


def _gamma_norm4(nu, eta):
    """4 * |rho_plus(nu^ ∪ eta)|^2: the norm `compgroups._split_key` ranks
    the markings of one partition by, kept as its reference."""
    total = 0
    for v in union(uparrow(nu) if nu else (), eta):
        total += sum(h * h for h in range(v - 1, 0, -2))
    return total


def test_canonical_split_is_the_unique_least_norm_lift():
    checked = 0
    for m in _markings(8):
        if not is_distinguished_marked(m):
            continue
        norms = sorted((_gamma_norm4(nu, multiset_difference(m.lam, nu)), nu)
                       for nu in equivalent_markings(m))
        assert len(norms) == 1 or norms[0][0] < norms[1][0], m
        assert canonical_split(m) == (norms[0][1], multiset_difference(m.lam, norms[0][1]))
        checked += 1
    assert checked > 100


def test_split_key_is_twice_the_norm_less_a_constant_of_the_class():
    checked = 0
    for m in _data(iter_reduced_marked, 12):
        if not is_distinguished_marked(m):
            continue
        offsets = {2 * _gamma_norm4(nu, multiset_difference(m.lam, nu)) - compgroups._split_key(nu)
                   for nu in equivalent_markings(m)}
        assert len(offsets) == 1, m
        checked += 1
    assert checked == 465


def test_minimality_catches_a_wrong_split(monkeypatch):
    # the largest-norm lift gives a weight above the least norm of the
    # admissible set, so the signature route must fail
    key = compgroups._split_key
    monkeypatch.setattr(compgroups, "_split_key", lambda nu: -key(nu))
    report = verify_minimality(max_rank=3)
    assert not report["passed"]
    assert {f["check"] for f in report["failures"]} >= {"signature"}


def _is_special_by_heights(m):
    """`is_special_marked` from its definition, two height sums per value:
    its reference."""
    eps = EPSILON[m.kind]
    bad_lam_parity = 1 if m.kind == "B" else 0
    for x in set(v for v in m.lam if v % 2 == eps):
        hnu = sum(1 for v in m.nu if v >= x)
        if hnu % 2 == 1 and height(m.lam, x) % 2 == bad_lam_parity:
            return False
    return True


def test_special_test_matches_its_height_form():
    data = _data(iter_reduced_marked, 12)
    verdicts = [is_special_marked(m) for m in data]
    assert verdicts == [_is_special_by_heights(m) for m in data]
    assert len(data) == 6478 and 0 < sum(verdicts) < len(data)


def test_lift_classes_partition_markings():
    for kind, sizes in (("B", (5, 7)), ("C", (4, 6)), ("D", (4, 6))):
        for n in sizes:
            for lam in enumerate_type(kind, n):
                nmarks = all_markings(lam, kind)
                kernel = kernel_subgroup(lam, kind)
                classes = {}
                for nu in nmarks:
                    key = frozenset(frozenset(nu) ^ g for g in kernel)
                    classes.setdefault(key, []).append(nu)
                assert len({len(v) for v in classes.values()}) == 1


def test_marked_text_roundtrip():
    for text in ("B:<[5,1]>[5,3,1]", "C:<[2]>[2,2]", "B:<[]>[3,1,1]"):
        assert format_marked(parse_marked(text)) == text


def test_multiset_difference():
    assert multiset_difference((5, 4, 4, 3, 1), (5, 1)) == (4, 4, 3)


def test_a_group_elements():
    o = parse_orbit("C:[6,4,2]")
    assert len(a_group_elements(o)) == 8
    o = parse_orbit("B:[5,3,1]")
    assert len(a_group_elements(o)) == 4
