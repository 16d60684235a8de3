"""Self-test of the mutation survey: `python3 -m pytest -q tools`."""

import ast
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import mutants  # noqa: E402

COVERS = mutants.ROOT / mutants.PACKAGE / "covers.py"


def _step_flags_sites():
    """The sites of `covers._step_flags`, in source order."""
    source = COVERS.read_bytes()
    [fn] = [n for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.FunctionDef) and n.name == "_step_flags"]
    return [s for s in mutants.sites("covers.py", source)
            if fn.lineno <= s.line <= fn.end_lineno]


def test_a_mutant_is_the_tree_with_one_node_changed():
    # the mutated node shows the site's new token, and undoing it gives back
    # the original tree
    source = COVERS.read_bytes()
    original = ast.dump(ast.parse(source))
    flags = _step_flags_sites()
    assert len(flags) == 14
    for site in flags:
        tree = ast.parse(mutants.mutate(source, site))
        node = mutants._nodes(tree)[site.node]
        if site.op < 0:
            assert str(node.value) == site.new
            node.value -= 1
        else:
            token, swap = mutants.SWAPS[type(node.ops[site.op])]
            assert token == site.new
            node.ops[site.op] = swap()
        assert ast.dump(tree) == original


def test_a_killed_site_and_a_proved_equivalent_height_site():
    # `a in lam` made `a not in lam` fails the gamma-group suite; each height
    # `v >= a` made `v > a` counts the same rows, as `_step_flags` proves
    flags = _step_flags_sites()
    [member] = [s for s in flags if s.old == "in"]
    heights = [s for s in flags if s.old == ">="]
    assert len(heights) == 2 and {s.new for s in heights} == {">"}
    records = mutants.survey([member, heights[0]], jobs=2)
    assert [r["verify"] for r in records] == ["killed", "survived"]
    assert records[0]["exit"] == 1 and records[1]["exit"] == 0


def test_the_table_shows_every_tier1_verdict():
    records = [{"module": "m.py", "verify": "killed"},
               {"module": "m.py", "verify": "survived", "tier1": "timeout"},
               {"module": "m.py", "verify": "survived", "tier1": "survived"}]
    header, _, row = mutants.summary(records, tier1=True).splitlines()
    counts = dict(zip(header.strip("| ").split(" | "), row.strip("| ").split(" | ")))
    assert counts == {"module": "`m.py`", "sites": "3", "killed": "1", "traceback": "0",
                      "timeout": "0", "survived": "2", "tier1 killed": "0",
                      "tier1 traceback": "0", "tier1 timeout": "1", "tier1 survived": "1"}
