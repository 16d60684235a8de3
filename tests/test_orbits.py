import pytest

from orbitduality.partitions import dominates, enumerate_partitions
from orbitduality.orbits import (
    LeviShape, Orbit, bvls_dual, d_exception_by_columns, d_exception_by_rows,
    enumerate_orbits, format_levi, format_orbit, induce, is_distinguished,
    is_even, is_special, parse_levi, parse_orbit, saturate,
)


def test_enumerate_orbits():
    assert {o.parts for o in enumerate_orbits("B", 3)} == {(3,), (1, 1, 1)}
    assert {o.parts for o in enumerate_orbits("C", 2)} == {(2,), (1, 1)}
    d4 = enumerate_orbits("D", 4)
    assert sorted((o.parts, o.decoration or "") for o in d4) == [
        ((1, 1, 1, 1), ""), ((2, 2), "I"), ((2, 2), "II"), ((3, 1), "")]


def test_orbit_validation():
    with pytest.raises(ValueError):
        Orbit("B", 4, (4,))
    with pytest.raises(ValueError):
        Orbit("C", 4, (3, 1))
    with pytest.raises(ValueError):
        Orbit("B", 3, (3,), "I")


def test_saturate():
    out = saturate(LeviShape((4,), 9), [(4,)], parse_orbit("B:[5,3,1]"))
    assert out.parts == (5, 4, 4, 3, 1)
    out = saturate(LeviShape((4,), 9), [(1, 1, 1, 1)], parse_orbit("B:[5,3,1]"))
    assert out.parts == (5, 3) + (1,) * 9
    core = parse_orbit("D:[2,2]I")
    out = saturate(LeviShape((2,), 4), [(2,)], core)
    assert out.parts == (2, 2, 2, 2) and out.decoration == "I"


def test_induce_examples():
    res = induce(LeviShape((1, 3, 4)), [(1,), (1, 1, 1), (1, 1, 1, 1)],
                 Orbit("D", 0, ()), kind="D")
    assert res.orbit.parts == (5, 5, 3, 3) and not res.birational
    res = induce(LeviShape((4,), 8), [(1, 1, 1, 1)], parse_orbit("C:[2,2,2,1,1]"))
    assert res.orbit.parts == (4, 4, 4, 2, 2)
    assert not res.birational and res.collapsed
    # principal orbit induced from zero in the torus
    n = 4
    res = induce(LeviShape((1,) * n), [(1,)] * n, Orbit("C", 0, ()), kind="C")
    assert res.orbit.parts == (2 * n,) and res.birational


def test_d_exception_forms():
    assert d_exception_by_columns((4, 2))
    assert not d_exception_by_rows((4, 2))
    assert d_exception_by_rows((4, 4, 2)) and d_exception_by_columns((4, 4, 2))
    assert not d_exception_by_columns((6, 4, 2))
    # the row form implies the column form wherever it is well-posed
    for n in range(2, 13, 2):
        for beta in enumerate_partitions(n):
            if d_exception_by_rows(beta):
                assert d_exception_by_columns(beta)


def test_bvls_examples():
    assert bvls_dual(parse_orbit("B:[3,1,1]")) == parse_orbit("C:[2,2]")
    assert bvls_dual(parse_orbit("C:[2,2]")) == parse_orbit("B:[3,1,1]")
    for n in (1, 2, 3, 4):
        assert bvls_dual(Orbit("B", 2 * n + 1, (2 * n + 1,))).parts == (1,) * (2 * n)


def test_bvls_decorations():
    # half-dimension 2: decorations swap; half-dimension 4: they persist
    assert bvls_dual(parse_orbit("D:[2,2]I")).decoration == "II"
    assert bvls_dual(parse_orbit("D:[2,2,2,2]I")).decoration == "I"
    assert bvls_dual(parse_orbit("D:[4,4]I")).decoration == "I"


def test_predicates():
    assert is_distinguished(parse_orbit("B:[5,3,1]"))
    assert is_even(parse_orbit("C:[4,2,2]"))
    assert not is_even(parse_orbit("C:[2,1,1]"))
    # the lone non-special orbit of so(5): the duality square moves it
    assert not is_special(parse_orbit("B:[2,2,1]"))
    assert bvls_dual(bvls_dual(parse_orbit("B:[2,2,1]"))).parts == (3, 1, 1)
    assert is_special(parse_orbit("B:[3,1,1]"))
    o = parse_orbit("B:[5,3,1]")
    assert is_distinguished(o) and is_even(o) and is_special(o)


def test_closure_is_dominance():
    orbs = enumerate_orbits("C", 6)
    top = parse_orbit("C:[6]")
    assert all(dominates(top.parts, o.parts) for o in orbs)


def test_levi_parse_format():
    levi, kind = parse_levi("gl(4)+gl(1)+so(9)")
    assert levi.gl == (4, 1) and levi.residual == 9 and kind == "B"
    assert format_levi(levi, kind) == "gl(4)+gl(1)+so(9)"
    levi, kind = parse_levi("gl(2)+gl(2)'")
    assert levi.primed and kind is None
    with pytest.raises(ValueError):
        parse_levi("gl(2)+so(3)+so(5)")


def test_orbit_text_roundtrip():
    for text in ("B:[5,3,1]", "D:[2,2]I", "C:[4,2,2]"):
        assert format_orbit(parse_orbit(text)) == text


def test_trivial_levi_identities():
    core = parse_orbit("B:[5,3,1]")
    assert saturate(LeviShape((), 9), [], core) == core
    res = induce(LeviShape((), 9), [], core)
    assert res.orbit == core and res.birational
