import ast
import glob
import itertools
import os
import types

import pytest

from orbitduality import partitions, verify
from orbitduality.partitions import (
    as_partition, collapse, dominates, drop_box, add_unit, bump_first,
    drop_column_box, enumerate_partitions, enumerate_type, format_partition,
    height, is_type, is_very_even, join, lower_covers, multiplicity,
    parse_partition, size, transpose, union, uparrow, uparrow2,
)


def reference_enumerate_partitions(n, top=None):
    """Partitions of n with no part above top (n when None), largest first."""
    if n == 0:
        yield ()
        return
    for first in range(n if top is None else min(n, top), 0, -1):
        for rest in reference_enumerate_partitions(n - first, first):
            yield (first,) + rest


def reference_as_partition(parts):
    p = tuple(int(x) for x in parts)
    if any(x < 0 for x in p):
        raise ValueError("partition parts must be nonnegative")
    p = tuple(x for x in p if x > 0)
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    return p


def reference_transpose(p):
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > i) for i in range(p[0]))


def reference_dominates(p, q):
    if size(p) != size(q):
        raise ValueError("dominance compares partitions of equal size only")
    sp = sq = 0
    for i in range(max(len(p), len(q))):
        sp += p[i] if i < len(p) else 0
        sq += q[i] if i < len(q) else 0
        if sp < sq:
            return False
    return True


def outcome(fn, *args):
    try:
        return fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


AS_PARTITION_GRID = [
    (), [], (0,), (0, 0), (3,), [3, 1], (3, 1, 0), (3, 0, 1), (0, 3), (2, 0, 0, 2),
    (-1,), (2, -1), (-1, 2), (3, -1, 0), (1, 2), (2, 2, 3), (1, 1, 1), (5, 3, 3, 1),
    (" 3", "1 "), ["4", "0"], ("1", "2"), ("3", "-1"), ("x",), ("",), (2.0, 1.0), (2.5, 1),
    (None,), (True, 1), None, 5, "31", "13", range(4, 0, -1), range(4),
]


def test_enumerate_partitions_matches_the_reference():
    for n in range(21):
        assert list(enumerate_partitions(n)) == list(reference_enumerate_partitions(n))


def _typed_mismatches(generate):
    """The (kind, n) through n = 30 at which `generate(kind, n)` is not, as
    a list, the partitions of n that `is_type` keeps, in their order."""
    return [(kind, n) for kind in "BCD" for n in range(31)
            if list(generate(kind, n))
            != [p for p in enumerate_partitions(n) if is_type(p, kind)]]


def test_enumerate_type_matches_the_filter():
    assert _typed_mismatches(enumerate_type) == []


def test_typed_reference_rejects_constrained_parts_placed_one_row_at_a_time():
    # the same code with a parity that no part has: every part is placed
    # one row at a time
    placed_singly = types.FunctionType(
        enumerate_type.__code__, {**vars(partitions), "EPSILON": dict.fromkeys("BCD", 2)})
    assert list(placed_singly("C", 4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert ("B", 5) in _typed_mismatches(placed_singly)


def test_negative_size_is_rejected():
    with pytest.raises(ValueError, match="nonnegative size"):
        list(enumerate_partitions(-3))
    with pytest.raises(ValueError, match="nonnegative size"):
        list(enumerate_type("B", -3))


def test_as_partition_matches_the_reference():
    for parts in AS_PARTITION_GRID:
        assert outcome(as_partition, parts) == outcome(reference_as_partition, parts), parts
    assert as_partition(x for x in (3, 0, 2)) == (3, 2)
    for n in range(9):
        for p in enumerate_partitions(n):
            for form in (p, p + (0,), list(p), tuple(map(str, p))):
                assert as_partition(form) == p


def test_transpose_matches_the_reference():
    for n in range(17):
        for p in enumerate_partitions(n):
            assert transpose(p) == reference_transpose(p), p


def test_dominates_matches_the_reference():
    for n in range(13):
        ps = list(enumerate_partitions(n))
        for p, q in itertools.product(ps, repeat=2):
            assert dominates(p, q) == reference_dominates(p, q), (p, q)
    for p, q in (((3,), (2,)), ((1,), ()), ((), (1,)), ((2, 1), (2, 2))):
        with pytest.raises(ValueError, match="equal size"):
            dominates(p, q)


def brute_collapse(p, kind):
    cands = [q for q in enumerate_type(kind, size(p)) if dominates(p, q)]
    best = [q for q in cands if all(dominates(q, r) for r in cands)]
    assert len(best) == 1
    return best[0]


def test_transpose_examples():
    assert transpose(()) == ()
    assert transpose((4, 2, 1)) == (3, 2, 1, 1)
    assert transpose((3, 1, 1)) == (3, 1, 1)


def test_combine_examples():
    assert union((4, 4, 3, 1, 1, 1), (5, 1)) == (5, 4, 4, 3, 1, 1, 1, 1)
    assert join((4, 4, 3, 1, 1, 1), (5, 1)) == (9, 5, 3, 1, 1, 1)
    p = (3, 2)
    assert union(p, ()) == p and join(p, ()) == p


def test_collapse_examples():
    assert collapse((4, 4, 3), "B") == (4, 4, 3)
    assert collapse((6, 3, 2), "B") == (5, 3, 3)
    assert collapse((3, 1), "C") == (2, 2)
    with pytest.raises(ValueError):
        collapse((6, 4), "B")


def test_collapse_against_brute_force_small():
    for n in range(11):
        for kind in ("B", "C", "D"):
            if (n % 2 == 1) != (kind == "B"):
                continue
            for p in enumerate_partitions(n):
                assert collapse(p, kind) == brute_collapse(p, kind)


def reference_collapse(p, kind, slack=2):
    """The box-moving collapse: while some value of the constrained parity
    has odd multiplicity, move a box from the last row of the largest such
    value v to the first later row of at most v - slack, or to a new row."""
    eps = 1 if kind == "C" else 0
    q = list(p)
    while True:
        bad = [v for v in set(q) if v % 2 == eps and q.count(v) % 2 == 1]
        if not bad:
            return tuple(v for v in q if v)
        v = max(bad)
        i = max(k for k, x in enumerate(q) if x == v)
        q[i] -= 1
        for j in range(i + 1, len(q)):
            if q[j] <= v - slack:
                q[j] += 1
                break
        else:
            q.append(1)


def test_collapse_matches_the_box_moving_reference():
    checked = 0
    for n in range(25):
        for kind in ("B", "C", "D"):
            if (n % 2 == 1) != (kind == "B"):
                continue
            for p in enumerate_partitions(n):
                assert collapse(p, kind) == reference_collapse(p, kind), (p, kind)
                checked += 1
    assert checked == 11453


def test_a_loosened_collapse_fails_the_maxima_check(monkeypatch):
    # boxes that skip the rows of v - 2 as well land too low
    monkeypatch.setattr(verify, "collapse", lambda p, kind: reference_collapse(p, kind, 3))
    _, failures = verify.collapse_maxima(10, "C")
    assert failures and {f["check"] for f in failures} == {"collapse"}


def test_stats():
    assert (multiplicity((5, 3, 1), 3), height((5, 3, 1), 3)) == (1, 2)
    assert (multiplicity((5, 3, 1), 4), height((5, 3, 1), 4)) == (0, 1)
    assert (multiplicity((4, 2, 2), 2), height((4, 2, 2), 2)) == (2, 3)


def test_unit_transforms():
    assert drop_box((3, 1, 1)) == (3, 1)
    assert add_unit((3, 1)) == (3, 1, 1)
    assert bump_first((2, 2)) == (3, 2)
    assert bump_first(()) == (1,)
    assert drop_column_box((2, 2)) == (2, 1)
    assert uparrow((5, 3)) == (6, 2)
    assert uparrow((2,)) == (3,)
    assert uparrow2((2, 0)) == (3,)
    assert uparrow2((3, 3)) == (4, 2)
    assert uparrow2((3,)) == (4,)
    with pytest.raises(ValueError):
        uparrow((5, 4))
    with pytest.raises(ValueError, match="one or two rows"):
        uparrow2((3, 2, 1))


def test_uparrow_preserves_size_even_length():
    for q1 in range(1, 10):
        for q2 in range(1, q1):
            if (q1 - q2) % 2 == 0:
                assert size(uparrow((q1, q2))) == q1 + q2


def test_dominance():
    assert dominates((6, 3, 2), (5, 3, 3))
    assert dominates((4, 2), (4, 2))
    assert not dominates((3, 3), (4, 2))
    with pytest.raises(ValueError):
        dominates((3,), (2,))


def test_dominance_partial_order():
    for n in range(9):
        ps = list(enumerate_partitions(n))
        for p in ps:
            assert dominates(p, p)
        for p, q in itertools.permutations(ps, 2):
            if dominates(p, q) and dominates(q, p):
                assert p == q
        for p, q, r in itertools.permutations(ps, 3):
            if dominates(p, q) and dominates(q, r):
                assert dominates(p, r)


def test_lower_covers_are_the_hasse_diagram():
    for n in range(13):
        ps = list(enumerate_partitions(n))
        below = {p: {q for q in ps if q != p and dominates(p, q)} for p in ps}
        for p in ps:
            hasse = below[p] - set().union(*(below[r] for r in below[p]))
            covers = lower_covers(p)
            assert len(covers) == len(hasse) and set(covers) == hasse, p


def test_is_type():
    assert is_type((3, 1, 1), "B")
    assert not is_type((3, 1), "C")
    assert is_type((4, 4, 2, 2), "D") and is_very_even((4, 4, 2, 2))
    assert not is_very_even((3, 1))


def test_transpose_union_join_duality():
    for n in range(7):
        for m in range(7):
            for p in enumerate_partitions(n):
                for q in enumerate_partitions(m):
                    assert transpose(union(p, q)) == join(transpose(p), transpose(q))


def test_parse_format_roundtrip():
    for text in ("[]", "[5,3,1]", "[4,4,2,2]"):
        assert format_partition(parse_partition(text)) == text
    with pytest.raises(ValueError):
        parse_partition("[1,2]")
    with pytest.raises(ValueError):
        as_partition((2, -1))


def _is_b_test(node):
    """A lone `== "B"` or `!= "B"` comparison."""
    return (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Eq, ast.NotEq))
            and any(isinstance(side, ast.Constant) and side.value == "B"
                    for side in (node.left, node.comparators[0])))


def _is_int(node):
    """An integer literal, a negative one included."""
    try:
        return type(ast.literal_eval(node)) is int
    except ValueError:
        return False


def _size_parity_rules(path):
    """What in one module spells out a per-kind parity: a dict literal
    mapping exactly B, C and D to integers ("table"), or a `== "B"` test
    computed with, as an operand of arithmetic, of a comparison, of and/or,
    or as the test of a conditional expression ("B test").  A plain
    `if kind == "B":` branch is neither."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    rules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = [k.value if isinstance(k, ast.Constant) else None for k in node.keys]
            if sorted(keys, key=str) == ["B", "C", "D"] and all(map(_is_int, node.values)):
                rules.add("table")
        operands = ()
        if isinstance(node, ast.BinOp):
            operands = (node.left, node.right)
        elif isinstance(node, ast.Compare):
            operands = (node.left, *node.comparators)
        elif isinstance(node, ast.BoolOp):
            operands = node.values
        elif isinstance(node, ast.IfExp):
            operands = (node.test,)
        if any(map(_is_b_test, operands)):
            rules.add("B test")
    return rules


def test_only_partitions_spells_out_a_size_parity():
    package = os.path.dirname(partitions.__file__)
    found = {os.path.basename(path): _size_parity_rules(path)
             for path in glob.glob(os.path.join(package, "*.py"))}
    assert {name: rules for name, rules in found.items() if rules} == {
        "partitions.py": {"table"}}
