import json
import math
import shutil
from fractions import Fraction
from itertools import product

import pytest

from orbitduality import exceptional as ex
from orbitduality import verify
from orbitduality.cli import main


def _determinant(matrix):
    """Exact determinant by elimination with row swaps."""
    a = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(a)):
        piv = next((i for i in range(col, len(a)) if a[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, len(a)):
            f = a[i][col] / a[col][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


def _is_positive_definite(g):
    """Sylvester's criterion: every leading principal minor is positive."""
    return all(_determinant([row[:k] for row in g[:k]]) > 0 for k in range(1, len(g) + 1))


def self_check():
    """Sanity of the generated root systems and the Gram matrices: each group
    has its known number of positive roots, from its Cartan matrix and from
    the transpose; the coroots are the positive roots of the transpose;
    every root pairs to 2 with its own coroot; every Gram matrix is positive
    definite.  Returns False on a mismatch."""
    counts = {"G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120}
    for group in ex.GROUPS:
        cartan = ex._CARTAN[group]
        n = len(cartan)
        roots = ex.positive_roots(group)
        dual = ex._root_strings([list(col) for col in zip(*cartan)])
        if (not len(roots) == len(dual) == counts[group]
                or {r.coroot for r in roots} != set(dual)
                or any(sum(r.simple[a] * cartan[a][b] * r.coroot[b]
                           for a in range(n) for b in range(n)) != 2 for r in roots)):
            return False
    return all(_is_positive_definite(ex.gram_matrix(group)) for group in ex.GROUPS)


def test_self_check():
    assert self_check()


def test_positive_definiteness_needs_every_leading_minor():
    assert _determinant([[0, 1], [1, 0]]) == -1
    assert _is_positive_definite([[2, -1], [-1, 2]])
    # a positive determinant with a negative corner, and a singular form
    assert not _is_positive_definite([[-1, 0], [0, -1]])
    assert not _is_positive_definite([[1, 1], [1, 1]])


def test_lookup_rows():
    def lookup(group, dual, m_orbit):
        return [row for row in ex.load_table(group)["rows"] if row["dual"] == dual
                and any(e[0] == m_orbit for e in row["entries"])]

    rows = lookup("G2", "G2(a1)", "A1+~A1")
    assert len(rows) == 1
    assert rows[0]["ds"] == "~A1" and rows[0]["gamma"] == "(1,1)/2"
    assert rows[0]["centralizer"] == "A1"
    rows = lookup("F4", "F4(a3)", "A3+A1")
    assert rows[0]["ds"] == "A2+~A1" and rows[0]["gamma"] == "(1,1,2,2)/4"
    with pytest.raises(FileNotFoundError):
        ex.load_table("E9")


def test_gamma_table_rows():
    rows = [r for r in ex.load_gamma_table("G2")["rows"]
            if (r["dual"], r["m_orbit"]) == ("A1", "A1")]
    assert len(rows) == 1
    assert rows[0]["orbit"] == "G2(a1)" and rows[0]["gamma_group"] == "1"
    assert rows[0]["method"] == "5"
    assert ex.load_gamma_table("E8")["rows"] == []


def test_verify_tables_all_groups():
    for group in ex.GROUPS:
        report = ex.verify_tables(group)
        assert report["passed"], report["failures"]


def test_f4a2_minimum_is_computed():
    row = [r for r in ex.load_table("F4")["rows"] if r["dual"] == "F4(a2)"][0]
    norms = [ex.gamma_norm_sq("F4", ex.parse_gamma(e[1])) for e in row["entries"]]
    assert norms[0] < norms[1]
    assert ex.parse_gamma(row["gamma"]) == ex.parse_gamma(row["entries"][0][1])


def test_subsystem_classification():
    assert ex.subsystem_classify("G2", ex.parse_gamma("(1,1)"))[0] == "G2"
    assert ex.subsystem_classify("G2", ex.parse_gamma("(1,1)/2"))[0] == "A1+~A1"
    assert ex.subsystem_classify("G2", ex.parse_gamma("(3,1)/3"))[0] == "A2"
    assert ex.subsystem_classify("G2", ex.parse_gamma("(1,1)"))[1] == ""


def test_component_rank_matches_elimination():
    """The simple-root count of every component of the integral and singular
    subsystems of every table entry equals the rank found by elimination."""
    seen = 0
    for group in ex.GROUPS:
        roots = ex.positive_roots(group)
        for row in ex.load_table(group)["rows"]:
            for _, text in row["entries"]:
                k, kcoords = ex._scaled(ex.parse_gamma(text))
                for members in ex._subsystems(roots, kcoords, k):
                    for component in ex._components(roots, members):
                        rank = sum(map(any, ex._eliminate([r.simple for r in component])))
                        assert ex._component_rank(component) == rank, (group, text)
                        seen += 1
    assert seen > 100


def test_classification_matches_tables():
    for group in ("G2", "F4"):
        report = ex.verify_classification(group)
        assert report["passed"], report["failures"]


# (integral, singular) labels of every G2/F4 table entry as given by an
# explicit doubled-coordinate realization of the two groups, the classifier's
# data before it generated its roots from the Cartan matrix.
@pytest.mark.parametrize("group, text, types", [
    ("G2", "(1,0)", ("G2", "~A1")),
    ("G2", "(1,1)/2", ("A1+~A1", "")),
    ("G2", "(3,1)/3", ("A2", "")),
    ("G2", "(1,1)", ("G2", "")),
    ("F4", "(0,0,1,0)", ("F4", "A1+~A2")),
    ("F4", "(0,1,0,2)/2", ("B4", "A1+~A1")),
    ("F4", "(1,0,1,1)/2", ("A1+C3", "~A1")),
    ("F4", "(1,1,1,1)/3", ("A2+~A2", "")),
    ("F4", "(1,1,2,2)/4", ("A3+~A1", "")),
    ("F4", "(1,0,1,0)", ("F4", "A1+~A1")),
    ("F4", "(1,1,1,1)/2", ("A1+C3", "")),
    ("F4", "(1,0,1,1)", ("F4", "~A1")),
    ("F4", "(1,1,2,2)/2", ("B4", "")),
    ("F4", "(1,1,1,1)", ("F4", "")),
])
def test_subsystem_labels_of_table_entries(group, text, types):
    assert text in [e[1] for r in ex.load_table(group)["rows"] for e in r["entries"]]
    assert ex.subsystem_classify(group, ex.parse_gamma(text)) == types


@pytest.mark.parametrize("group, highest", [
    ("G2", (3, 2)), ("F4", (2, 3, 4, 2)), ("E6", (1, 2, 2, 3, 2, 1)),
    ("E7", (2, 2, 3, 4, 3, 2, 1)), ("E8", (2, 3, 4, 6, 5, 4, 3, 2)),
])
def test_highest_root(group, highest):
    # Bourbaki's numbering of the simple roots, as in the Cartan matrices
    roots = ex.positive_roots(group)
    assert roots[-1].simple == highest
    assert max(sum(r.simple) for r in roots[:-1]) == sum(highest) - 1


@pytest.mark.parametrize("group, text, types", [
    ("E6", "(1,0,0,0,0,1)", ("E6", "D4")),
    ("E7", "(0,0,0,0,0,0,1)/2", ("E6", "E6")),
    ("E8", "(0,0,0,0,0,0,0,1)/2", ("A1+E7", "E7")),
    ("E8", "(1,0,0,0,0,0,0,0)/2", ("D8", "D7")),
])
def test_e_type_subsystem_labels(group, text, types):
    # omega_i / 2 is integral on the coroots whose alpha_i^vee coefficient is
    # even: the extended diagram minus node i where the highest coroot has
    # coefficient 2 there, the diagram minus node i where it has 1.  A
    # dominant weight is singular on the diagram of the nodes where it is 0.
    assert ex.subsystem_classify(group, ex.parse_gamma(text)) == types


def test_self_check_rejects_a_truncated_root_system(monkeypatch):
    """F4 without its highest root has 23 positive roots and no longer
    closes up into the F4 that is the integral subsystem of (0,0,1,0)."""
    full = ex.positive_roots
    monkeypatch.setattr(ex, "positive_roots",
                        lambda group: full(group)[:-1] if group == "F4" else full(group))
    assert not self_check()
    with pytest.raises(ValueError, match="unrecognized subsystem shape"):
        ex.verify_classification("F4")
    with pytest.raises(ValueError, match="unrecognized subsystem shape"):
        ex.verify_shell_minimality("F4")


@pytest.mark.parametrize("group, entries", [("E6", 5), ("E7", 10)])
def test_classification_matches_e_tables(group, entries):
    report = ex.verify_classification(group)
    assert report["checked"] == entries
    assert report["passed"], report["failures"]


def test_shell_minimality_e6():
    report = ex.verify_shell_minimality("E6")
    assert report["checked"] == 5
    assert report["passed"], report["failures"]


def test_e8_classification_finds_one_mismatch():
    """The D7(a2) entry tabulates E7+A1 at rho/4.  The pairing of rho/4 with
    a coroot is its height over 4, so the integral roots are the 26 of
    height divisible by 4, an A3+D5 (6 + 20 roots); E7+A1 has 64."""
    row = [r for r in ex.load_table("E8")["rows"] if r["dual"] == "D7(a2)"][0]
    assert row["entries"] == [["E7+A1", "(1,1,1,1,1,1,1,1)/4"]]
    assert sum(1 for r in ex.positive_roots("E8") if sum(r.coroot) % 4 == 0) == 26
    report = ex.verify_classification("E8")
    assert report["checked"] == 28
    assert report["failures"] == [("D7(a2)", "E7+A1", "A3+D5")]


def test_e8_shell_finds_one_shorter_point():
    """`verify_shell_minimality("E8")` fails once, at row E8(b6)'s entry
    E6+A2, (1,1,1,0,1,1,1,3)/3 of norm 160/3: the dominant point
    (1,1,1,1,0,1,1,1)/3 of the same lattice (1/3)P has norm 140/3 and the
    same integral and singular root systems, which is all the shell compares.
    The row's gamma has norm 44, below both, so its gamma_min check holds.
    The shell itself takes 20 s on E8 and is not run here."""
    row = [r for r in ex.load_table("E8")["rows"] if r["dual"] == "E8(b6)"][0]
    assert ["E6+A2", "(1,1,1,0,1,1,1,3)/3"] in row["entries"]
    roots = ex.positive_roots("E8")
    norms = []
    for text in ("(1,1,1,0,1,1,1,3)/3", "(1,1,1,1,0,1,1,1)/3"):
        coords = ex.parse_gamma(text)
        k, kcoords = ex._scaled(coords)
        assert k == 3 and min(kcoords) >= 0
        # the positive roots of E6 and of A2, and the one singular root
        assert tuple(map(len, ex._subsystems(roots, kcoords, k))) == (36 + 3, 1)
        assert ex.subsystem_classify("E8", coords) == ("A2+E6", "A1")
        norms.append(ex.gamma_norm_sq("E8", coords))
    assert norms == [Fraction(160, 3), Fraction(140, 3)]
    assert ex.gamma_norm_sq("E8", ex.parse_gamma(row["gamma"])) == 44


def test_shell_minimality_g2():
    report = ex.verify_shell_minimality("G2")
    assert report["passed"], report["failures"]


def test_shell_minimality_f4():
    report = ex.verify_shell_minimality("F4")
    assert report["passed"], report["failures"]


def _weyl_orbit(group, point):
    """Orbit of an integer vector in fundamental coordinates under the simple
    reflections s_i(c) = c - c_i * (row i of the Cartan matrix)."""
    seen, todo = {point}, [point]
    while todo:
        c = todo.pop()
        for i, row in enumerate(ex._CARTAN[group]):
            image = tuple(x - c[i] * a for x, a in zip(c, row))
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return seen


def _box_shell(h, budget):
    """{c: c.h.c} over all integer c with c.h.c <= budget, from the box
    |c_i| <= sqrt(budget * (h^-1)_ii) that holds the whole ellipsoid."""
    inv = ex._invert(h)
    n = len(h)
    assert all(sum(h[i][t] * inv[t][j] for t in range(n)) == int(i == j)
               for i in range(n) for j in range(n))
    radii = [math.isqrt(math.floor(budget * inv[i][i])) for i in range(n)]
    shell = {}
    for c in product(*(range(-r, r + 1) for r in radii)):
        q = ex._form(h, c)
        if q <= budget:
            shell[c] = q
    return shell


@pytest.mark.parametrize("group, text", [
    ("G2", "(1,0)"), ("G2", "(1,1)/2"), ("G2", "(3,1)/3"), ("G2", "(1,1)"),
    ("F4", "(0,0,1,0)"), ("F4", "(1,0,1,0)"),   # the k=1 weights of F4(a3), F4(a2)
])
def test_dominant_shell_matches_box_shell(group, text):
    assert text in [e[1] for r in ex.load_table(group)["rows"] for e in r["entries"]]
    coords = ex.parse_gamma(text)
    k = math.lcm(*(c.denominator for c in coords))
    h = ex._integer_gram(group)
    budget = ex._form(h, [int(c * k) for c in coords])
    union = {}
    for point, q in ex._dominant_points_within(h, budget):
        assert min(point) >= 0 and q == ex._form(h, point)
        for image in _weyl_orbit(group, point):
            assert ex._form(h, image) == q
            union[image] = q
    assert union == _box_shell(h, budget)


def test_shell_minimality_rejects_a_longer_weight(tmp_path, monkeypatch):
    """(2,2) has the subsystem types of (1,1) and a larger norm, so the check
    must fail and name (1,1)."""
    table = ex.load_table("G2")
    row = [r for r in table["rows"] if r["dual"] == "G2"][0]
    assert row["entries"] == [["G2", "(1,1)"]]
    row["entries"] = [["G2", "(2,2)"]]
    (tmp_path / "g2.json").write_text(json.dumps(table))
    monkeypatch.setenv("ORBITDUALITY_TABLES", str(tmp_path))
    assert ex.subsystem_classify("G2", ex.parse_gamma("(2,2)")) == \
        ex.subsystem_classify("G2", ex.parse_gamma("(1,1)"))
    report = ex.verify_shell_minimality("G2")
    assert not report["passed"]
    assert report["failures"] == [("G2", "G2", ["1", "1"])]


def test_tables_dir_override(tmp_path, monkeypatch):
    monkeypatch.setenv("ORBITDUALITY_TABLES", str(tmp_path))
    with pytest.raises(FileNotFoundError):
        ex.load_table("G2")
    monkeypatch.delenv("ORBITDUALITY_TABLES")
    assert ex.load_table("G2")["rows"]


def test_orbit_string_expansion():
    assert ex._expand_orbit_string("[4^2,2^2]^I") == ((4, 4, 2, 2), "I")
    assert ex._expand_orbit_string("[5,3,1]") == ((5, 3, 1), None)
    assert ex._expand_orbit_string("{0}") is None


def _use_tables(tmp_path, monkeypatch, name, table):
    """Point ORBITDUALITY_TABLES at a copy of the shipped tables with the
    file `name` replaced by `table`."""
    shutil.copytree(ex.tables_dir(), tmp_path, dirs_exist_ok=True)
    (tmp_path / name).write_text(json.dumps(table))
    monkeypatch.setenv("ORBITDUALITY_TABLES", str(tmp_path))


@pytest.mark.parametrize("r_orbits", [[], ["[3]", "[3]"]])
def test_factor_and_orbit_counts_must_match(tmp_path, monkeypatch, capsys, r_orbits):
    """A Galois-table row whose pseudo-Levi has one factor (A2) but another
    number of orbits is an `abar_parse` failure, not a crash or a pass."""
    table = ex.load_gamma_table("G2")
    [row] = [r for r in table["rows"] if r["r"] == "A2"]
    row["r_orbits"] = r_orbits
    _use_tables(tmp_path, monkeypatch, "gamma_g2.json", table)
    report = ex.verify_tables("G2")
    assert report["failures"] == [("abar_parse", "G2(a1)", "A2",
                                   "A2 has 1 factors but %d orbits" % len(r_orbits))]
    assert main(["verify", "tables"]) == 1
    assert "tables G2 abar_parse G2(a1)" in capsys.readouterr().out


def test_a_group_with_empty_tables_fails_the_tables_suite(tmp_path, monkeypatch, capsys):
    """G2 with no rows in either table: each of its three checks counts
    nothing and is a failure, though the other groups' 234 checks pass."""
    _use_tables(tmp_path, monkeypatch, "g2.json", {"rows": []})
    (tmp_path / "gamma_g2.json").write_text(json.dumps({"rows": []}))
    assert main(["--json", "verify", "tables"]) == 1
    [report] = json.loads(capsys.readouterr().out)
    assert report["checked"] == 234
    assert report["failures"] == [{"check": check + " G2", "datum": "G2", "detail": {"checked": 0}}
                                  for check in ("tables", "classification", "shell")]


@pytest.mark.parametrize("field, value", [("gamma_group", "Z3"), ("ranks", "Z3,1,1")])
def test_unknown_group_label_is_a_failure(tmp_path, monkeypatch, capsys, field, value):
    """A Galois-table row with a component-group label outside _GROUP_ORDER
    is one `group_label` failure, and its rank comparisons are skipped."""
    table = ex.load_gamma_table("G2")
    [row] = [r for r in table["rows"] if r["r"] == "A2"]
    row[field] = value
    _use_tables(tmp_path, monkeypatch, "gamma_g2.json", table)
    assert ex.verify_tables("G2")["failures"] == [("group_label", "G2(a1)", "A2", "Z3")]
    assert main(["verify", "tables"]) == 1
    assert "tables G2 group_label G2(a1)" in capsys.readouterr().out


# a Galois-table row's pseudo-Levi and factor orbits -> the message of the
# one `abar_parse` failure they give
FACTOR_ORBIT_BREAKS = {
    "decoration off a very even D orbit": (
        "E7", "D6+A1", ["[7,5]^I", "[2]"],
        "orbit '[7,5]^I' does not fit factor D6: "
        "only very even type-D partitions carry decorations"),
    "factor of no classical type": (
        "G2", "G2", ["{0}"], "orbit '{0}' does not fit factor G2: unknown kind 'G'"),
}


@pytest.mark.parametrize("case", list(FACTOR_ORBIT_BREAKS))
def test_a_factor_orbit_that_its_factor_cannot_have_is_a_failure(tmp_path, monkeypatch, case):
    group, r, r_orbits, text = FACTOR_ORBIT_BREAKS[case]
    table = ex.load_gamma_table(group)
    row = table["rows"][0]
    row.update(r=r, r_orbits=r_orbits)
    _use_tables(tmp_path, monkeypatch, "gamma_%s.json" % group.lower(), table)
    assert ex.verify_tables(group)["failures"] == [
        ("abar_parse", row["dual"], row["m_orbit"], text)]


@pytest.mark.parametrize("field, value, text", [
    ("r_orbits", 5, "r_orbits 5 is not a list of strings"),
    ("ranks", 7, "ranks 7 is not a string"),
    ("r", 3, "r 3 is not a string"),
])
def test_a_value_of_the_wrong_type_is_one_error_line(tmp_path, monkeypatch, capsys,
                                                     field, value, text):
    table = ex.load_gamma_table("G2")
    table["rows"][1][field] = value
    _use_tables(tmp_path, monkeypatch, "gamma_g2.json", table)
    assert main(["verify", "tables"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: %s rows[1]: %s" % (tmp_path / "gamma_g2.json",
                                                                    text)]


def test_zero_weight_denominator_is_one_error_line(tmp_path, monkeypatch, capsys):
    with pytest.raises(ValueError, match="denominator"):
        ex.parse_gamma("(1,1)/0")
    table = ex.load_table("G2")
    table["rows"][0]["gamma"] = "(1,1)/0"
    _use_tables(tmp_path, monkeypatch, "g2.json", table)
    assert main(["verify", "tables"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: weight denominator")


def _negate_gamma_d(row):
    row["gamma_d"] = "(-1,0)"


def _negate_entry(row):
    # the same norm, so only membership fails
    row["entries"][0][1] = "(-1,0)"


def _larger_entry_as_gamma(row):
    row["gamma"] = row["gamma_d"] = row["entries"][1][1]


def _galois_group_s3(row):
    row["gamma_group"] = "S3"


def _quotient_and_galois_z2(row):
    row["ranks"] = "Z2" + row["ranks"][1:]
    row["gamma_group"] = "Z2"


# check -> (group, table file, a corruption of one row, the row's index, the
# failure record it must give)
TABLE_BREAKS = {
    "gamma_equal": ("G2", "g2.json", _negate_gamma_d, 0,
                    ("gamma_equal", "G2(a1)", "(1,0)", "(-1,0)")),
    "gamma_member": ("G2", "g2.json", _negate_entry, 0, ("gamma_member", "G2(a1)")),
    "gamma_min": ("F4", "f4.json", _larger_entry_as_gamma, 5,
                  ("gamma_min", "F4(a2)", "(1,1,1,1)/2")),
    "gamma_rank": ("G2", "gamma_g2.json", _galois_group_s3, 0,
                   ("gamma_rank", "G2(a1)", "2A1", "1", "S3")),
    "abar_recomputed": ("G2", "gamma_g2.json", _quotient_and_galois_z2, 0,
                        ("abar_recomputed", "G2(a1)", "2A1", 0, "Z2")),
}


@pytest.mark.parametrize("check", list(TABLE_BREAKS))
def test_every_table_check_can_fail(tmp_path, monkeypatch, check):
    group, name, corrupt, index, record = TABLE_BREAKS[check]
    shipped = ex.verify_tables(group)
    load = ex.load_gamma_table if name.startswith("gamma_") else ex.load_table
    table = load(group)
    corrupt(table["rows"][index])
    _use_tables(tmp_path, monkeypatch, name, table)
    report = ex.verify_tables(group)
    assert report["failures"] == [record]
    assert report["checked"] == shipped["checked"]


def test_shipped_tables_give_258_checks():
    report = verify.verify_point_values()
    assert report["passed"] and report["checked"] == 258


def _drop_gamma_d(table):
    del table["rows"][2]["gamma_d"]


def _rows_as_a_list(table):
    return table["rows"]


def _one_coordinate_entry(table):
    table["rows"][3]["entries"][0][1] = "(1)"


def _unparenthesized_gamma(table):
    table["rows"][1]["gamma"] = "1,1"


def _two_denominators(table):
    table["rows"][1]["gamma_d"] = "(1,1)/2/3"


def _entry_with_a_number_for_label(table):
    table["rows"][2]["entries"][0][0] = 2


# a corruption of g2.json -> what its one error line must carry after the
# file's path
MALFORMED_TABLES = {
    "missing key": (_drop_gamma_d, " rows[2]: a row is an object with dual, entries, gamma, "
                                    "gamma_d"),
    "list file": (_rows_as_a_list, ": a table is an object with a list of rows"),
    "short weight": (_one_coordinate_entry, " rows[3]: weight '(1)' does not have 2 coordinates"),
    "unparenthesized weight": (_unparenthesized_gamma,
                               " rows[1]: weight '1,1' is not (...) or (...)/d"),
    "two denominators": (_two_denominators,
                         " rows[1]: weight '(1,1)/2/3' is not (...) or (...)/d"),
    "label not a string": (_entry_with_a_number_for_label,
                           " rows[2]: entries are [label, weight] pairs"),
}


@pytest.mark.parametrize("case", list(MALFORMED_TABLES))
@pytest.mark.parametrize("argv", [("verify", "tables"), ("table", "g2")])
def test_malformed_table_is_one_error_line_naming_file_and_row(tmp_path, monkeypatch, capsys,
                                                               case, argv):
    corrupt, text = MALFORMED_TABLES[case]
    table = ex.load_table("G2")
    (tmp_path / "g2.json").write_text(json.dumps(corrupt(table) or table))
    shutil.copytree(ex.tables_dir(), tmp_path, dirs_exist_ok=True,
                    ignore=lambda _, names: [n for n in names if n == "g2.json"])
    monkeypatch.setenv("ORBITDUALITY_TABLES", str(tmp_path))
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0] == "error: %s%s" % (tmp_path / "g2.json", text)
