import pytest

from orbitduality.compgroups import MarkedPartition, parse_marked
from orbitduality.oracle import (
    dominant_shell, dominant_shell_naive, membership_tester, richardson_pair,
    richardson_zero, verify_min,
)


def test_richardson_zero_examples():
    assert richardson_zero("D", 16, (3, 3, 3, 1, 1, 1, 1, 5)).parts == (5, 5, 3, 3)
    assert richardson_zero("C", 2, (2,)).parts == (2,)
    assert richardson_zero("B", 9, (0, 0, 0, 0)).parts == (1,) * 9
    with pytest.raises(ValueError):
        richardson_zero("C", 4, (2, 1))
    with pytest.raises(ValueError):
        richardson_zero("C", 6, (2,))


def test_membership_examples():
    test = membership_tester(parse_marked("C:<[2]>[2,2]"))
    assert test((2, 1))
    assert not test((1, 1))
    assert not test((2, 2))


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


def test_verify_min_requires_distinguished():
    with pytest.raises(ValueError):
        verify_min(parse_marked("B:<[5,1]>[5,4,4,3,1]"))


def test_shell_enumerator_against_naive():
    for n in (1, 2, 3):
        for bound in (0, 1, 5, 20, 33):
            assert sorted(dominant_shell(n, bound)) == dominant_shell_naive(n, bound)


def test_richardson_pair_witness():
    first, second = richardson_pair(parse_marked("B:<[5,1]>[5,4,4,3,1]"))
    assert first.parts == (5, 5, 3, 3)
    assert second.parts == (1,)
