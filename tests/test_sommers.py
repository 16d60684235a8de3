import pytest

from orbitduality.orbits import bvls_dual, parse_orbit
from orbitduality.compgroups import MarkedPartition, parse_marked
from orbitduality.sommers import (
    block_decompose, sat_inverse, sat_la, sommers_dual,
)
from orbitduality.verify import iter_reduced_marked


def test_dual_examples():
    assert sommers_dual(parse_marked("B:<[5,1]>[5,3,1]")) == parse_orbit("C:[2,2,2,1,1]")
    assert sommers_dual(parse_marked("B:<[5,1]>[5,4,4,3,1]")) == parse_orbit("C:[4,4,4,2,2]")
    assert sommers_dual(parse_marked("C:<[2]>[2,2]")) == parse_orbit("B:[2,2,1]")


def test_route_agreement_examples():
    # the empty type-C datum has no blocks
    for text in ("B:<[5,1]>[5,3,1]", "C:<[2]>[2,2]", "B:<[]>[5,3,1]",
                 "C:<[]>[]", "D:<[]>[]", "B:<[]>[1]"):
        m = parse_marked(text)
        general = sommers_dual(m)
        assert sommers_dual(m, "blocks") == general
        assert sommers_dual(m, "distinguished") == general


def test_unmarked_reduces_to_orbit_dual():
    for kind, n in (("B", 9), ("C", 8), ("D", 8)):
        for m in iter_reduced_marked(kind, n):
            if m.nu:
                continue
            orbit = parse_orbit("%s:[%s]" % (kind, ",".join(map(str, m.lam))))
            assert sommers_dual(m).parts == bvls_dual(orbit).parts


def test_blocks():
    blocks = block_decompose(parse_marked("B:<[5,1]>[5,3,1]"))
    assert len(blocks) == 1 and blocks[0].nu == (5, 1)
    blocks = block_decompose(parse_marked("B:<[5,1]>[5,4,4,3,1]"))
    assert len(blocks) == 1
    blocks = block_decompose(MarkedPartition("C", (3, 3, 2, 2), (2,)))
    assert [b.lam for b in blocks] == [(3, 3), (2, 2)]
    assert sommers_dual(MarkedPartition("C", (3, 3, 2, 2), (2,)), "blocks").parts == (4, 4, 3)


def test_block_conditions_hold():
    for kind, n in (("B", 11), ("C", 10), ("D", 10)):
        for m in iter_reduced_marked(kind, n):
            blocks = block_decompose(m)
            rebuilt = tuple(sorted((v for b in blocks for v in b.lam), reverse=True))
            assert rebuilt == m.lam
            marks = tuple(sorted((v for b in blocks for v in b.nu), reverse=True))
            assert marks == m.nu


def test_sat_la():
    core = parse_marked("B:<[5,1]>[5,3,1]")
    out = sat_la([(4,)], core)
    assert out.lam == (5, 4, 4, 3, 1) and out.nu == (5, 1) and out.kind == "B"
    out = sat_la([(1,)], MarkedPartition("C", (2,), (2,)))
    assert out.lam == (2, 1, 1) and out.nu == (2,) and out.kind == "C"


def test_sat_inverse():
    gl, core = sat_inverse(parse_marked("B:<[5,1]>[5,4,4,3,1]"))
    assert gl == (4,) and core == parse_marked("B:<[5,1]>[5,3,1]")
    m = parse_marked("B:<[5,1]>[5,3,1]")
    assert sat_inverse(m) == ((), m)
    gl, core = sat_inverse(MarkedPartition("B", (3, 3, 1, 1, 1), ()))
    assert gl == (3, 1) and core.lam == (1,)


def test_sat_round_trips():
    for kind, n in (("B", 9), ("C", 8), ("D", 8)):
        for m in iter_reduced_marked(kind, n):
            gl, core = sat_inverse(m)
            rebuilt = core
            for a in sorted(gl, reverse=True):
                rebuilt = sat_la([(a,)], rebuilt)
            assert rebuilt.lam == m.lam and rebuilt.nu == m.nu
            assert rebuilt.kind == kind


def test_non_reduced_rejected():
    with pytest.raises(ValueError):
        sommers_dual(MarkedPartition("B", (5, 3, 1), (5, 3)))
