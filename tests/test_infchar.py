import pytest

from orbitduality.orbits import parse_orbit
from orbitduality.compgroups import parse_marked
from orbitduality.infchar import (
    Weight, canonical, f_transform, format_weight, gamma_la, gamma_rigid_cover,
    rho_plus, split_by_multiplicity, spread_pairs,
)
from orbitduality.partitions import enumerate_partitions, union


def test_rho_plus():
    assert rho_plus((3, 2), 2) == (2, 1)
    assert rho_plus((6, 2, 1), 4) == (5, 3, 1, 1)
    assert rho_plus((1, 1, 1), 1) == (0,)
    with pytest.raises(ValueError):
        rho_plus((6, 2, 1), 3)


def test_rho_plus_merges_opposite_parities():
    for n in range(1, 8):
        for m in range(1, 8):
            for p in enumerate_partitions(n):
                if any(v % 2 for v in p):
                    continue
                for q in enumerate_partitions(m):
                    if any(v % 2 == 0 for v in q):
                        continue
                    merged = rho_plus(union(p, q), (n + m) // 2)
                    separate = tuple(sorted(rho_plus(p, n // 2) + rho_plus(q, m // 2),
                                            reverse=True))
                    pad = (n + m) // 2 - len(separate)
                    assert merged == separate + (0,) * pad


def test_f_transform():
    assert f_transform((5, 3), 1) == (6, 2, 1)
    assert f_transform((), 1) == (1,)
    assert f_transform((3, 2), 0) == (3, 2)
    assert f_transform((2 * 5,), 1) == (11,)


def test_split_and_spread():
    assert split_by_multiplicity((5, 3)) == ((5, 3), ())
    assert split_by_multiplicity((3, 3, 1, 1)) == ((), (3, 3, 1, 1))
    assert split_by_multiplicity((4, 2, 2)) == ((4,), (2, 2))
    assert spread_pairs((3, 3, 1, 1)) == (4, 2, 2)
    with pytest.raises(ValueError):
        split_by_multiplicity((2, 2, 2))


def test_gamma_rigid_cover():
    assert gamma_rigid_cover(parse_orbit("B:[2,2,1]")).halves == (2, 1)
    assert gamma_rigid_cover(parse_orbit("C:[2,2,2,1,1]")).halves == (5, 3, 1, 1)
    for n in (1, 2, 3, 4):
        w = gamma_rigid_cover(parse_orbit("C:[%s]" % ",".join("1" * 2 * n)))
        assert w.halves == tuple(2 * k for k in range(n, 0, -1))


def test_gamma_la_examples():
    assert str(gamma_la(parse_marked("B:<[5,1]>[5,3,1]"))) == "(5/2,3/2,1/2,1/2)"
    assert str(gamma_la(parse_marked("B:<[5,1]>[5,4,4,3,1]"))) == \
        "(5/2,3/2,3/2,3/2,1/2,1/2,1/2,1/2)"
    assert str(gamma_la(parse_marked("C:<[2]>[2,2]"))) == "(1,1/2)"


def test_gamma_la_kind_is_dual_side():
    assert gamma_la(parse_marked("B:<[5,1]>[5,3,1]")).kind == "C"
    assert gamma_la(parse_marked("C:<[2]>[2,2]")).kind == "B"


def test_canonical_and_equivalence():
    assert canonical(Weight("B", (-1, 3)))[0].halves == (3, 1)
    # type D keeps the sign of the coordinate product until a zero appears
    assert canonical(Weight("D", (2, -2))) != canonical(Weight("D", (2, 2)))
    assert canonical(Weight("D", (2, 0, -2))) == canonical(Weight("D", (2, 2, 0)))
    assert canonical(Weight("B", (1,))) != canonical(Weight("C", (1,)))


def test_format_weight():
    for halves, text in (((5, 3, 1, 1), "(5/2,3/2,1/2,1/2)"), ((2, 0), "(1,0)"), ((), "()")):
        assert format_weight(Weight("B", halves)) == text
