"""Mutation survey of the orbitduality package.

Each mutant makes one change to one module of `src/orbitduality`: it swaps
one comparison (`==`/`!=`, `<`/`<=`, `>`/`>=`, `in`/`not in`) or adds 1 to
one integer literal (bools excluded).  A mutant is the module's AST with
that one node changed, written back by `ast.unparse`: it loses the
module's comments and layout, not its behaviour.  It is run against

    python -m orbitduality verify all --max-rank 6

in a copy of the repository under a temporary directory, and gets one of
four verdicts: killed (nonzero exit, no traceback), traceback (nonzero
exit with a traceback), timeout, or survived (exit 0).  With `--tier1`
every survivor is run against the Tier-1 tests as well and gets a second
verdict.  Mutants run one per CPU at a time.  One JSON line per mutant
goes to stdout, module by module and in source order within each, and the
progress and a table of counts per module go to stderr.  Each run is
bounded in time and in address space (`resource`, so Unix only).

    python3 tools/mutants.py --modules covers.py sommers.py oracle.py --tier1 > survey.jsonl

Standard library only.  The tests of this script are in
`tools/test_mutants.py` (`python3 -m pytest -q tools`).
"""

import argparse
import ast
import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "orbitduality")

# comparison operator -> (its token, the operator of its swap)
SWAPS = {
    ast.Eq: ("==", ast.NotEq),
    ast.NotEq: ("!=", ast.Eq),
    ast.Lt: ("<", ast.LtE),
    ast.LtE: ("<=", ast.Lt),
    ast.Gt: (">", ast.GtE),
    ast.GtE: (">=", ast.Gt),
    ast.In: ("in", ast.NotIn),
    ast.NotIn: ("not in", ast.In),
}

# seconds before a run of verify, or of the Tier-1 tests, is a timeout
VERIFY_TIMEOUT, TIER1_TIMEOUT = 60, 180

# the --max-rank of the verify run
VERIFY_RANK = 6

VERDICTS = ("killed", "traceback", "timeout", "survived")

# Each run gets at most this much address space, so that a mutant which
# makes a loop allocate without end stops at a MemoryError.
MEMORY_LIMIT = 2 ** 30
_LIMITED = ("import resource, runpy, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (%d, %d)); "
            "del sys.argv[0]; runpy.run_module(sys.argv[0], run_name='__main__', alter_sys=True)"
            % (MEMORY_LIMIT, MEMORY_LIMIT))

# what the repository copy leaves out
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".perfbench", ".bench_build")


@dataclass(frozen=True)
class Site:
    """One mutant: the AST node of index `node` in `_nodes` order (`op`: the
    operator's index in a comparison chain), at `line:col` (1-based line,
    0-based byte column), an int's start or a comparison's left operand's end."""
    module: str
    line: int
    col: int
    old: str
    new: str
    node: int
    op: int = -1

    @property
    def name(self):
        return "%s:%d:%d %s -> %s" % (self.module, self.line, self.col, self.old, self.new)


def _nodes(tree):
    """The Compare and int Constant nodes of a tree, in a fixed order."""
    return [n for n in ast.walk(tree) if isinstance(n, ast.Compare) or (
        isinstance(n, ast.Constant) and type(n.value) is int)]


def sites(module, source):
    """Every mutation site of one module's source, in source order."""
    out = []
    for index, node in enumerate(_nodes(ast.parse(source))):
        if isinstance(node, ast.Constant):
            out.append(Site(module, node.lineno, node.col_offset, str(node.value),
                            str(node.value + 1), index))
            continue
        operands = [node.left] + node.comparators
        for i, op in enumerate(node.ops):
            if type(op) in SWAPS:
                token, swap = SWAPS[type(op)]
                out.append(Site(module, operands[i].end_lineno, operands[i].end_col_offset,
                                token, SWAPS[swap][0], index, i))
    return sorted(out, key=lambda s: (s.line, s.col, s.op))


def mutate(source, site):
    """The module source with the site's one node changed, written back by
    `ast.unparse` without the module's comments and layout."""
    tree = ast.parse(source)
    node = _nodes(tree)[site.node]
    if site.op < 0:
        node.value += 1
    else:
        node.ops[site.op] = SWAPS[type(node.ops[site.op])][1]()
    return ast.unparse(tree).encode()


def _run(argv, cwd, timeout):
    """(verdict, exit code) of one command on a mutant: killed, traceback,
    timeout or survived."""
    env = dict(os.environ, PYTHONPATH=str(Path(cwd, "src")), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", None
    if proc.returncode == 0:
        return "survived", 0
    if "Traceback (most recent call last)" in proc.stderr + proc.stdout:
        return "traceback", proc.returncode
    return "killed", proc.returncode


def verify_argv():
    return [sys.executable, "-c", _LIMITED, "orbitduality", "verify", "all",
            "--max-rank", str(VERIFY_RANK)]


def tier1_argv():
    return [sys.executable, "-c", _LIMITED, "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", "tests"]


def survey(chosen, jobs, tier1=False, progress=None):
    """Run every site in `chosen` (a list of Sites) and return one record
    (a dict) per site, in the order given.  Each of `jobs` threads works in
    its own copy of the repository, writes one mutant at a time into it and
    puts the module back after the run."""
    records = [None] * len(chosen)
    sources = {}
    lock = threading.Lock()
    done = [0]

    def work(indices):
        with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
            copy = Path(tmp, "repo")
            shutil.copytree(ROOT, copy, ignore=IGNORED)
            for i in indices:
                site = chosen[i]
                path = copy / PACKAGE / site.module
                original = sources[site.module]
                path.write_bytes(mutate(original, site))
                try:
                    record = asdict(site)
                    record["verify"], record["exit"] = _run(verify_argv(), copy,
                                                           VERIFY_TIMEOUT)
                    if tier1 and record["verify"] == "survived":
                        record["tier1"] = _run(tier1_argv(), copy, TIER1_TIMEOUT)[0]
                finally:
                    path.write_bytes(original)
                records[i] = record
                with lock:
                    done[0] += 1
                    if progress:
                        progress(done[0], len(chosen), site, record)

    for site in chosen:
        if site.module not in sources:
            sources[site.module] = (ROOT / PACKAGE / site.module).read_bytes()
    shares = [list(range(k, len(chosen), jobs)) for k in range(jobs)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        for future in [pool.submit(work, share) for share in shares if share]:
            future.result()
    return records


def summary(records, tier1):
    """A text table of verdict counts per module: the verify verdicts of
    every site and, with `tier1`, the Tier-1 verdicts of its survivors."""
    columns = ["sites"] + list(VERDICTS)
    if tier1:
        columns += ["tier1 " + v for v in VERDICTS]
    rows = {}
    for r in records:
        row = rows.setdefault(r["module"], dict.fromkeys(columns, 0))
        row["sites"] += 1
        row[r["verify"]] += 1
        if "tier1" in r:
            row["tier1 " + r["tier1"]] += 1
    lines = ["| module | " + " | ".join(columns) + " |",
             "| --- " * (len(columns) + 1) + "|"]
    for module in sorted(rows):
        lines.append("| `%s` | " % module
                     + " | ".join(str(rows[module][c]) for c in columns) + " |")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--modules", nargs="+", metavar="FILE",
                        help="module files of src/orbitduality (default: all)")
    parser.add_argument("--tier1", action="store_true",
                        help="run the Tier-1 tests on every mutant that verify leaves")
    args = parser.parse_args(argv)
    modules = args.modules or sorted(p.name for p in (ROOT / PACKAGE).glob("*.py"))
    chosen = []
    for module in modules:
        path = ROOT / PACKAGE / module
        if not path.is_file():
            parser.error("no module %s" % path)
        chosen += sites(module, path.read_bytes())

    def progress(done, total, site, record):
        print("[%d/%d] %s: %s%s" % (done, total, site.name, record["verify"],
                                    " / tier1 %s" % record["tier1"] if "tier1" in record else ""),
              file=sys.stderr, flush=True)

    records = survey(chosen, os.cpu_count() or 1, args.tier1, progress)
    sys.stdout.write("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    print(summary(records, args.tier1), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
