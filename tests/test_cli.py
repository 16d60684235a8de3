import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from orbitduality import cli
from orbitduality.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


def test_verify_all_at_rank_8_prints_the_recorded_report(capsys):
    """`--json verify all --max-rank 8` prints BENCH_9.json byte for byte:
    the same checks, counts and records.  Once the report carries `seconds`
    (ROADMAP item 1), this comparison must skip those fields."""
    assert main(["--json", "verify", "all", "--max-rank", "8"]) == 0
    assert capsys.readouterr().out.encode() == (README.parent / "BENCH_9.json").read_bytes()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def test_point_values(capsys):
    code, out = run(capsys, "sommers-dual", "B:<[5,1]>[5,4,4,3,1]")
    assert code == 0 and out == "C:[4,4,4,2,2]"
    code, out = run(capsys, "gamma", "B:<[5,1]>[5,4,4,3,1]")
    assert code == 0 and out == "(5/2,3/2,3/2,3/2,1/2,1/2,1/2,1/2)"
    code, out = run(capsys, "collapse", "--kind", "B", "[6,3,2]")
    assert code == 0 and out == "[5,3,3]"


def test_dual_routes_agree(capsys):
    outs = set()
    for route in ("general", "distinguished", "blocks"):
        _, out = run(capsys, "sommers-dual", "B:<[5,1]>[5,3,1]", "--route", route)
        outs.add(out)
    assert outs == {"C:[2,2,2,1,1]"}


def test_blocks_route_on_the_empty_type_c_datum(capsys):
    code, out = run(capsys, "sommers-dual", "C:<[]>[]", "--route", "blocks")
    assert code == 0 and out == "B:[1]"


def test_induce_saturate(capsys):
    code, out = run(capsys, "induce", "gl(4)+sp(8)", "[1,1,1,1];[2,2,2,1,1]")
    assert code == 0 and out == "C:[4,4,4,2,2] birational=False"
    code, out = run(capsys, "saturate", "gl(4)+so(9)", "[4];[5,3,1]")
    assert code == 0 and out == "B:[5,4,4,3,1]"
    # a type-D result is decorated only when it comes from a type-D factor
    code, out = run(capsys, "--json", "induce", "gl(2)", "[1,1];[]", "--kind", "D")
    assert code == 0 and json.loads(out)["decoration_unknown"] is True
    code, out = run(capsys, "--json", "induce", "gl(2)+so(2)", "[2];[1,1]")
    assert code == 0 and json.loads(out)["decoration_unknown"] is False


def test_json_mode_single_document(capsys):
    code, out = run(capsys, "--json", "sommers-dual", "B:<[5,1]>[5,3,1]")
    doc = json.loads(out)
    assert doc["dual"]["text"] == "C:[2,2,2,1,1]"
    assert doc["dual"]["partition"] == [2, 2, 2, 1, 1]
    assert doc["witness"]["gl"] == []
    code, out = run(capsys, "--json", "bvls-dual", "D:[2,2]I")
    doc = json.loads(out)
    assert doc["dual"]["decoration"] == "II"


def test_marked_dual_keeps_the_decoration_of_the_orbit_dual(capsys):
    code, out = run(capsys, "sommers-dual", "D:<[]>[4,4]I")
    assert code == 0 and out == "D:[2,2,2,2]I"
    code, out = run(capsys, "--json", "sommers-dual", "D:<[]>[2,2]I")
    doc = json.loads(out)
    assert code == 0 and doc["dual"]["decoration"] == "II"
    assert doc["witness"]["core"] == "D:<[]>[]I"
    code, out = run(capsys, "d-map", "D:<[]>[2,2]I")
    assert code == 0 and out == "degree 1 cover of D:[2,2]II"


def test_round_trip_output(capsys):
    _, out = run(capsys, "bvls-dual", "B:[3,1,1]")
    assert out == "C:[2,2]"
    _, back = run(capsys, "bvls-dual", out)
    assert back == "B:[3,1,1]"


def test_group_and_markable(capsys):
    code, out = run(capsys, "--json", "group", "C:[4,2,2]")
    doc = json.loads(out)
    assert doc["a_rank"] == 2 and doc["a_ad_rank"] == 1
    code, out = run(capsys, "--json", "markable", "C:[6,4,2]")
    doc = json.loads(out)
    assert doc["markable"] == [4] and doc["abar_rank"] == 1


def test_table_verbs(capsys):
    code, out = run(capsys, "--json", "table", "g2")
    doc = json.loads(out)
    assert len(doc["rows"]) == 4
    code, out = run(capsys, "--json", "table", "gamma-e8")
    assert json.loads(out)["rows"] == []


def test_text_outputs(capsys):
    code, out = run(capsys, "gamma-cover", "C:[2,2,1,1]")
    assert code == 0 and out == "(2,1,0)"
    code, out = run(capsys, "gamma-group", "B:<[5,1]>[5,4,4,3,1]")
    assert code == 0 and out == "galois rank 1, quotient rank 0"
    # a special datum whose core dual has an adjoint rank of r - 2, r >= 3
    code, out = run(capsys, "gamma-group", "D:<[3,1]>[7,5,3,3,1,1]")
    assert code == 0 and out == "galois rank 1, quotient rank 1"
    code, out = run(capsys, "table", "g2")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 4
    assert [json.loads(line)["dual"] for line in lines] == ["G2(a1)", "G2(a1)", "G2(a1)", "G2"]


def test_verify_exit_codes(capsys):
    code, out = run(capsys, "verify", "kernel")
    assert code == 0 and out.startswith("PASS")


def test_verify_max_rank_defaults_to_5(capsys):
    assert main(["--json", "verify", "gamma"]) == 0
    default = capsys.readouterr().out
    assert main(["--json", "verify", "gamma", "--max-rank", "5"]) == 0
    assert capsys.readouterr().out == default


def test_verify_with_no_checks_fails(capsys):
    code, out = run(capsys, "verify", "minimality", "--max-rank", "0")
    assert code == 1 and out == "FAIL minimality: 0 checks"


def test_error_paths(capsys):
    code = main(["collapse", "--kind", "B", "[6,4]"])
    assert code == 1
    code = main(["collapse"])
    assert code == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("usage: orbitduality")


# each malformed command and the text its error line must carry
ERROR_TEXT = {
    ("table", "x7"): "unknown table 'x7'",
    ("group", "A:[3]"): "orbit kind must be B, C or D",
    ("markable", "A:[3]"): "orbit kind must be B, C or D",
    ("sommers-dual", "B:<[5,1"): "must look like B:<[5,1]>[5,3,1]",
    ("gamma", "C:<[]>[1]"): "[1] is not a type-C partition",
    ("d-map", "C:<[]>[1]"): "[1] is not a type-C partition",
    ("gamma-group", "C:<[]>[1]"): "[1] is not a type-C partition",
    ("ms-lift", "C:<[]>[1]"): "[1] is not a type-C partition",
    ("gamma", "B:<[]>[4,2]"): "[4,2] is not a type-B partition",
    ("verify", "all", "--max-rank", "-1"): "--max-rank must be at least 0",
    ("verify", "all", "--jobs", "2"): "unrecognized arguments: --jobs",
    ("verify", "minimality", "--jobs", "1"): "unrecognized arguments: --jobs",
    # usage errors from the parser
    ("collapse",): "the following arguments are required: --kind, partition",
    ("verify", "nosuch"): "argument suite: invalid choice: 'nosuch'",
    ("verify", "tables", "--max-rank", "x"): "argument --max-rank: invalid int value: 'x'",
    # Levi input: the gl orbits and the core must fit the Levi text
    ("saturate", "gl(4)+so(9)", "[1,1,1];[5,3,1]"): "gl(4) orbit has size 3",
    ("induce", "gl(4)+so(9)", "[5,3,1]"): "need 1 gl orbits plus a core",
    ("saturate", "gl(4)+so(9)", "[4];[5,3]"): "partition size 8 does not match ambient 9",
    ("induce", "gl(0)+so(9)", "[];[5,3,1]"): "gl sizes must be positive",
    ("induce", "gl(2)+gl(2)'", "[1,1];[1,1];[]", "--kind", "D"): "bad Levi factor \"gl(2)'\"",
    ("saturate", "gl(2)", "[2];[]"): "a gl-only Levi needs --kind",
    ("saturate", "gl(2)+sp(4)", "[2];[2,2]", "--kind", "D"):
        "--kind D does not match the Levi's type-C factor",
    # a datum that is not reduced is named as given, not as its core
    ("gamma-group", "C:<[2]>[2,2,2]"): "C:<[2]>[2,2,2] is not reduced",
    ("d-map", "D:<[3,1]>[3,3,3,1]"): "D:<[3,1]>[3,3,3,1] is not reduced",
    ("gamma", "B:<[3,1]>[3,3,1]"): "B:<[3,1]>[3,3,1] is not reduced",
    ("ms-lift", "B:<[3,1]>[3,3,1]"): "B:<[3,1]>[3,3,1] is not reduced",
    # marked data that `marking_problem` rejects
    ("gamma", "B:<[3,3]>[3,3,1]"): "marks must be multiplicity-free",
    ("gamma", "B:<[5,1]>[3,1,1]"): "mark 5 is not a part",
    ("gamma", "D:<[]>[3,1]I"): "only very even type-D partitions carry decorations",
}


@pytest.mark.parametrize("argv", list(ERROR_TEXT))
def test_bad_input_exits_with_one_error_line(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert ERROR_TEXT[argv] in lines[0]


@pytest.mark.parametrize("argv", [("table", "g2"), ("verify", "tables")])
def test_missing_table_file_exits_with_one_error_line(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.setenv("ORBITDUALITY_TABLES", str(tmp_path))
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(tmp_path / "g2.json") in lines[0]


def test_parser_reuse_keeps_no_state(capsys):
    code, out = run(capsys, "--json", "transpose", "[3,1]")
    assert code == 0 and json.loads(out) == {"transpose": [2, 1, 1]}
    code, out = run(capsys, "transpose", "[3,1]")
    assert code == 0 and out == "[2,1,1]"
    code, out = run(capsys, "--json", "sommers-dual", "B:<[5,1]>[5,3,1]", "--route", "blocks")
    assert code == 0 and json.loads(out)["route"] == "blocks"
    code, out = run(capsys, "--json", "sommers-dual", "B:<[5,1]>[5,3,1]")
    assert code == 0 and json.loads(out)["route"] == "general"
    assert main(["verify", "nosuch"]) == 1
    capsys.readouterr()
    code, out = run(capsys, "gamma", "B:<[5,1]>[5,4,4,3,1]")
    assert code == 0 and out == "(5/2,3/2,3/2,3/2,1/2,1/2,1/2,1/2)"


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    try:
        for partition in ("[3,1]", "[4,2,2]", "[x]", "[5]"):
            main(["transpose", partition])
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_build_parser_returns_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()
    assert cli.build_parser() is not cli._parser()


# each verb that takes one positional argument and no option -> its name
ONE_ARGUMENT_VERBS = {
    "transpose": "partition", "bvls-dual": "orbit", "group": "orbit", "markable": "orbit",
    "gamma": "marked", "gamma-cover": "orbit", "gamma-group": "marked", "ms-lift": "marked",
    "d-map": "marked", "table": "group",
}


def test_one_argument_verbs_keep_their_argument_and_handler():
    parser = cli.build_parser()
    for verb, dest in ONE_ARGUMENT_VERBS.items():
        args = parser.parse_args([verb, "x"])
        assert getattr(args, dest) == "x", verb
        assert args.fn is getattr(cli, "_cmd_" + verb.replace("-", "_")), verb
        with pytest.raises(ValueError, match="unrecognized arguments"):
            parser.parse_args([verb, "x", "--kind", "B"])
    choices = parser._subparsers._group_actions[0].choices
    assert set(ONE_ARGUMENT_VERBS) < set(choices) and len(choices) == 15


def _run_python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_module_entry_point():
    proc = _run_python("-m", "orbitduality", "--json", "transpose", "[3,1]")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"transpose": [2, 1, 1]}


def test_no_process_pool_is_imported():
    """Every suite runs in one process, so importing the CLI and the suites
    loads neither `multiprocessing` nor `concurrent.futures`.  The records
    are named tuples, so it loads neither `dataclasses` nor the `inspect`
    that `dataclasses` imports: each costs every query its start-up time."""
    proc = _run_python("-c", "import sys, orbitduality.cli, orbitduality.verify; "
                             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures', "
                             "'dataclasses', 'inspect') if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def readme_examples():
    """(argv, expected first output line) of every README command-line
    example that states its output in a trailing comment."""
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        if comment.strip() and argv and argv[0] != "verify":
            out.append((argv, comment.strip()))
    return out


def test_readme_examples(capsys):
    examples = readme_examples()
    assert len(examples) == 7
    for argv, expected in examples:
        code, out = run(capsys, *argv)
        assert code == 0, argv
        assert out.splitlines()[0].split() == expected.split(), argv
