import re

import pytest

from orbitduality import sommers, verify
from orbitduality.cli import main
from orbitduality.orbits import bvls_dual, parse_orbit
from orbitduality.compgroups import MarkedPartition, is_distinguished_marked, parse_marked
from orbitduality.partitions import enumerate_type, is_very_even
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
    # a decorated very even datum: whole orbits, so the decoration counts too
    cases = 0
    for n in range(2, 17, 2):
        for lam in filter(is_very_even, enumerate_type("D", n)):
            for decoration in ("I", "II"):
                m = MarkedPartition("D", lam, (), decoration)
                for route in ("general", "blocks"):
                    assert sommers_dual(m, route) == bvls_dual(m.orbit), (str(m), route)
                    cases += 1
    assert cases == 44


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
    for m in verify._data(iter_reduced_marked, 10):
        gl, core = sat_inverse(m)
        assert is_distinguished_marked(core)
        rebuilt = core
        for a in sorted(gl, reverse=True):
            rebuilt = sat_la([(a,)], rebuilt)
        assert rebuilt.lam == m.lam and rebuilt.nu == m.nu
        assert rebuilt.kind == m.kind


def test_non_reduced_rejected():
    with pytest.raises(ValueError):
        sommers_dual(MarkedPartition("B", (5, 3, 1), (5, 3)))


def separated(kind, upper, lower):
    """An even (B/D) or odd (C) integer in range(lower[0], upper[-1] + 1),
    between consecutive blocks."""
    want = 1 if kind == "C" else 0
    return any(v % 2 == want for v in range(lower[0], upper[-1] + 1))


def reference_block_decompose(m):
    """The backtracking block search on marked partitions: every accepted
    trial block is a validated MarkedPartition, separated from the one
    before it."""
    lam, nu, kind = m.lam, set(m.nu), m.kind
    values = sorted(set(lam), reverse=True)

    def search(start, index, acc):
        if start == len(values):
            return acc
        for stop in range(start + 1, len(values) + 1):
            vals = set(values[start:stop])
            block_lam = tuple(v for v in lam if v in vals)
            block_nu = tuple(sorted(nu & vals, reverse=True))
            last = stop == len(values)
            if not sommers._valid_block(m, index, block_lam, block_nu, last):
                continue
            if acc and not separated(kind, acc[-1].lam, block_lam):
                continue
            block = MarkedPartition(sommers._block_type(kind, index), block_lam, block_nu)
            found = search(stop, index + 1, acc + [block])
            if found is not None:
                return found
        return None

    return search(0, 0, [])


def test_tuple_search_gives_the_reference_blocks():
    checked = 0
    for m in verify._data(iter_reduced_marked, 10):
        blocks = [(b.kind, b.lam, b.nu) for b in reference_block_decompose(m)]
        assert sommers._block_tuples(m) == blocks, m
        checked += 1
    assert checked == 2606


def test_no_fitting_block_is_one_error_naming_the_datum(monkeypatch, capsys):
    text = "B:<[5,1]>[5,3,1]"
    monkeypatch.setattr(sommers, "_valid_block", lambda *block: False)
    with pytest.raises(ValueError, match=r"no block decomposition found for B:<\[5,1\]>\[5,3,1\]"):
        block_decompose(parse_marked(text))
    assert main(["sommers-dual", text, "--route", "blocks"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: no block decomposition found for %s" % text]


def test_a_marked_block_without_markable_parts_names_the_datum(monkeypatch, capsys):
    """The blocks route trusts its caller for reducedness.  Given a datum
    that is not reduced (2 sits at odd height in [2,1,1]), the one block it
    can end with is marked and has no markable part: a ValueError naming
    the datum, where the scan used to reject the block and go on."""
    m = MarkedPartition("C", (2, 1, 1), (2,))
    message = "C:<[2]>[2,1,1] is not reduced: the marks [2] of its block [2,1,1] are not markable"
    with pytest.raises(ValueError, match=re.escape(message)):
        sommers._sommers_dual(m, "blocks")
    monkeypatch.setattr(sommers, "require_reduced", lambda m: None)
    assert main(["sommers-dual", str(m), "--route", "blocks"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == ["error: " + message]


class KeyedWithoutMarks(dict):
    """A block table that forgets each block's marks."""

    def get(self, block, default=None):
        return super().get(block[:2], default)

    def __setitem__(self, block, dual):
        super().__setitem__(block[:2], dual)


def test_a_block_table_keyed_without_marks_fails_the_blocks_route(monkeypatch):
    real = verify._sommers_dual
    table = KeyedWithoutMarks()

    def with_forgetful_table(m, route, block_duals=None):
        return real(m, route, None if block_duals is None else table)

    monkeypatch.setattr(verify, "_sommers_dual", with_forgetful_table)
    report = verify.verify_duality(max_rank=6)
    assert report["failures"]
    assert {f["check"] for f in report["failures"]} == {"blocks route"}


def test_duality_checks_each_datum_reduced_once(monkeypatch):
    calls = []
    real = sommers.is_reduced

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(sommers, "is_reduced", counting)
    report = verify.verify_duality(max_rank=4)
    assert report["passed"]
    assert sorted(calls, key=str) == sorted(verify._data(iter_reduced_marked, 4), key=str)
