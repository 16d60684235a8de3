import ast
import glob
import os

import pytest

from orbitduality import orbits
from orbitduality.compgroups import MarkedPartition
from orbitduality.infchar import Weight
from orbitduality.partitions import dominates
from orbitduality.orbits import (
    Orbit, bvls_dual, d_exception_by_columns,
    enumerate_orbits, format_orbit, induce, is_distinguished, parse_levi,
    parse_orbit, saturate,
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
    with pytest.raises(ValueError, match="unknown kind 'A'"):
        Orbit("A", 3, (3,))


@pytest.mark.parametrize("record, change, message", [
    (Orbit("B", 3, (3,)), {"parts": (2, 1)}, "[2,1] is not a type-B partition"),
    (MarkedPartition("B", (3, 1, 1), (3, 1)), {"nu": (3,)},
     "types B and D need an even number of marks"),
    (Weight("B", (1, 1)), {"halves": ("x", 1)}, "invalid literal for int() with base 10: 'x'"),
], ids=["Orbit", "MarkedPartition", "Weight"])
def test_replace_and_make_check_as_the_constructor_does(record, change, message):
    fields = {**record._asdict(), **change}
    for build in (lambda: type(record)(**fields), lambda: record._replace(**change),
                  lambda: type(record)._make(fields.values())):
        with pytest.raises(ValueError) as error:
            build()
        assert str(error.value) == message
    assert type(record._replace()) is type(record) and record._replace() == record


def test_saturate():
    out = saturate([(4,)], parse_orbit("B:[5,3,1]"))
    assert out.parts == (5, 4, 4, 3, 1)
    assert (out.kind, out.ambient) == ("B", 17)
    out = saturate([(1, 1, 1, 1)], parse_orbit("B:[5,3,1]"))
    assert out.parts == (5, 3) + (1,) * 9
    core = parse_orbit("D:[2,2]I")
    out = saturate([(2,)], core)
    assert out.parts == (2, 2, 2, 2) and out.decoration == "I"
    assert (out.kind, out.ambient) == ("D", 8)


def test_induce_examples():
    res = induce([(1,), (1, 1, 1), (1, 1, 1, 1)], Orbit("D", 0, ()))
    assert res.orbit.parts == (5, 5, 3, 3) and not res.birational
    assert (res.orbit.kind, res.orbit.ambient) == ("D", 16)
    res = induce([(1, 1, 1, 1)], parse_orbit("C:[2,2,2,1,1]"))
    assert res.orbit.parts == (4, 4, 4, 2, 2)
    assert not res.birational and res.collapsed
    # principal orbit induced from zero in the torus
    n = 4
    res = induce([(1,)] * n, Orbit("C", 0, ()))
    assert res.orbit.parts == (2 * n,) and res.birational


def test_d_exception_forms():
    assert d_exception_by_columns((4, 2))
    assert d_exception_by_columns((4, 4, 2))
    assert not d_exception_by_columns((6, 4, 2))


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
    assert not is_distinguished(parse_orbit("C:[4,2,2]"))
    # special orbits are the fixed points of the duality square; the lone
    # non-special orbit of so(5) is moved by it
    assert bvls_dual(bvls_dual(parse_orbit("B:[2,2,1]"))).parts == (3, 1, 1)
    for text in ("B:[3,1,1]", "B:[5,3,1]"):
        o = parse_orbit(text)
        assert bvls_dual(bvls_dual(o)) == o


def test_closure_is_dominance():
    orbs = enumerate_orbits("C", 6)
    top = parse_orbit("C:[6]")
    assert all(dominates(top.parts, o.parts) for o in orbs)


def test_levi_parse_format():
    assert parse_levi("gl(4)+gl(1)+so(9)") == ((4, 1), 9, "B")
    assert parse_levi("gl(2)+sp(4)") == ((2,), 4, "C")
    assert parse_levi("gl(2)+gl(2)") == ((2, 2), 0, None)
    for text in ("gl(2)+so(3)+so(5)", "gl(0)+so(9)", "gl(2)+gl(2)'", "gl(2)+su(2)"):
        with pytest.raises(ValueError):
            parse_levi(text)


def test_orbit_text_roundtrip():
    for text in ("B:[5,3,1]", "D:[2,2]I", "C:[4,2,2]"):
        assert format_orbit(parse_orbit(text)) == text


def test_trivial_levi_identities():
    core = parse_orbit("B:[5,3,1]")
    assert saturate([], core) == core
    res = induce([], core)
    assert res.orbit == core and res.birational


def _orbit_rules(path):
    """Which of two orbit rules one module spells out: the string constant
    "II" (a decoration) and a dict literal mapping B to C, C to B and D to D
    (the dual family)."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    rules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value == "II":
            rules.add("II")
        elif isinstance(node, ast.Dict):
            pairs = {(k.value, v.value) for k, v in zip(node.keys, node.values)
                     if isinstance(k, ast.Constant) and isinstance(v, ast.Constant)}
            if {("B", "C"), ("C", "B"), ("D", "D")} <= pairs:
                rules.add("dual kinds")
    return rules


def test_only_orbits_spells_out_the_decorations_and_the_dual_kinds():
    package = os.path.dirname(orbits.__file__)
    found = {os.path.basename(path): _orbit_rules(path)
             for path in glob.glob(os.path.join(package, "*.py"))}
    assert {name: rules for name, rules in found.items() if rules} == {
        "orbits.py": {"II", "dual kinds"}}


def _in_one_suite_call(build):
    """What build() returns when it runs as a suite call: with one table of
    checked orbits open."""
    return orbits.checks_each_orbit_once(build)()


def test_a_suite_call_returns_the_record_it_built_for_the_same_fields():
    first, again = _in_one_suite_call(lambda: (Orbit("B", 3, (3,)), Orbit("B", 3, (3,))))
    assert again is first


def test_an_ambient_of_another_type_is_another_record():
    # 3 == 3.0 and both hash alike, but the constructor keeps the ambient given
    exact, real = _in_one_suite_call(lambda: (Orbit("B", 3, (3,)), Orbit("B", 3.0, (3,))))
    assert type(exact.ambient) is int and type(real.ambient) is float
    assert real == Orbit("B", 3.0, (3,))


def test_the_decorations_of_a_very_even_partition_stay_apart():
    built = _in_one_suite_call(lambda: [parse_orbit(t) for t in ("D:[4,4]I", "D:[4,4]II")])
    assert [format_orbit(o) for o in built] == ["D:[4,4]I", "D:[4,4]II"]


@pytest.mark.parametrize("fields, message", [
    (("B", 4, (4,)), "[4] is not a type-B partition"),
    (("A", 3, (3,)), "unknown kind 'A'"),
    (("D", 4, (2, 2), ["I"]), "decoration must be I or II"),  # unhashable: never looked up
], ids=["type", "kind", "unhashable decoration"])
def test_an_invalid_orbit_raises_the_same_error_every_time(fields, message):
    def build_twice():
        errors = []
        for _ in range(2):
            with pytest.raises(ValueError) as error:
                Orbit(*fields)
            errors.append(str(error.value))
        return errors, dict(orbits._suite_orbits)

    errors, table = _in_one_suite_call(build_twice)
    assert errors == [message, message] and table == {}


def test_no_table_is_open_after_a_suite_call_returns_or_raises():
    assert _in_one_suite_call(lambda: orbits._suite_orbits) == {}
    assert orbits._suite_orbits is None

    def fails():
        Orbit("B", 3, (3,))
        raise ArithmeticError("stop")

    with pytest.raises(ArithmeticError):
        _in_one_suite_call(fails)
    assert orbits._suite_orbits is None


def test_a_nested_suite_call_keeps_its_own_table():
    def outer():
        mine = orbits._suite_orbits
        inner = _in_one_suite_call(lambda: orbits._suite_orbits)
        return mine, inner, orbits._suite_orbits

    mine, inner, after = _in_one_suite_call(outer)
    assert mine is after and inner is not mine
