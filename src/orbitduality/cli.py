"""Command-line front end.

One verb per library operation, line-oriented output by default and a single
JSON document with --json.  The verify verbs run the exhaustive suites and
exit nonzero when any check fails.  Any bad input, a usage error included,
exits 1 with one `error:` line on stderr.

`main` may be called many times in one process.  The parser is built on the
first call and reused after that, so a single query pays for its answer and
not for the parser.
"""

import argparse
import functools
import json
import sys

from .partitions import collapse, format_partition, parse_partition, size, transpose
from .orbits import (
    Orbit,
    bvls_dual,
    format_orbit,
    induce,
    parse_levi,
    parse_orbit,
    saturate,
)
from .compgroups import (
    abar_rank,
    group_data,
    markable_parts,
    parse_marked,
)
from .sommers import block_decompose, require_reduced, sat_inverse, sommers_dual
from .infchar import format_weight, gamma_la, gamma_rigid_cover
from .covers import abar_r_rank, d_map, gamma_group_rank, ms_lift
from . import exceptional, verify


def _parse_orbits_arg(text):
    return [parse_partition(p) for p in text.split(";")]


def _orbit_doc(o):
    doc = {"kind": o.kind, "ambient": o.ambient, "partition": list(o.parts),
           "text": format_orbit(o)}
    if o.decoration:
        doc["decoration"] = o.decoration
    return doc


def _emit(args, doc, lines):
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cmd_collapse(args):
    p = parse_partition(args.partition)
    out = collapse(p, args.kind)
    _emit(args, {"input": list(p), "kind": args.kind, "collapse": list(out)},
          [format_partition(out)])


def _cmd_transpose(args):
    out = transpose(parse_partition(args.partition))
    _emit(args, {"transpose": list(out)}, [format_partition(out)])


def _split_levi_orbits(args):
    gl, residual, res_kind = parse_levi(args.levi)
    kind = args.kind or res_kind
    if kind is None:
        raise ValueError("a gl-only Levi needs --kind")
    if res_kind and kind != res_kind:
        raise ValueError("--kind %s does not match the Levi's type-%s factor"
                         % (kind, res_kind))
    orbits = _parse_orbits_arg(args.orbits)
    if len(orbits) != len(gl) + 1:
        raise ValueError("need %d gl orbits plus a core (semicolon-separated)"
                         % len(gl))
    for a, lam in zip(gl, orbits):
        if size(lam) != a:
            raise ValueError("gl(%d) orbit has size %d" % (a, size(lam)))
    return orbits[:-1], Orbit(kind, residual, orbits[-1])


def _cmd_induce(args):
    res = induce(*_split_levi_orbits(args))
    doc = {"orbit": _orbit_doc(res.orbit), "birational": res.birational,
           "collapsed": res.collapsed, "decoration_unknown": res.decoration_unknown}
    _emit(args, doc, ["%s birational=%s" % (format_orbit(res.orbit), res.birational)])


def _cmd_saturate(args):
    out = saturate(*_split_levi_orbits(args))
    _emit(args, {"orbit": _orbit_doc(out)}, [format_orbit(out)])


def _cmd_bvls_dual(args):
    out = bvls_dual(parse_orbit(args.orbit))
    _emit(args, {"dual": _orbit_doc(out)}, [format_orbit(out)])


def _cmd_sommers_dual(args):
    m = parse_marked(args.marked)
    out = sommers_dual(m, route=args.route)
    gl, core = sat_inverse(m)
    doc = {"input": str(m), "route": args.route, "dual": _orbit_doc(out),
           "witness": {"gl": list(gl), "core": str(core),
                       "blocks": [str(b) for b in block_decompose(m)]}}
    _emit(args, doc, [format_orbit(out)])


def _cmd_group(args):
    o = parse_orbit(args.orbit)
    gd = group_data(o)
    doc = {"orbit": format_orbit(o), "a_rank": gd.a_rank, "a_ad_rank": gd.a_ad_rank,
           "eps_values": list(gd.eps_values), "s1_nonempty": gd.s1_nonempty,
           "abar_rank": abar_rank(o.parts, o.kind)}
    _emit(args, doc, ["A rank %d, adjoint rank %d, quotient rank %d"
                      % (gd.a_rank, gd.a_ad_rank, doc["abar_rank"])])


def _cmd_markable(args):
    o = parse_orbit(args.orbit)
    marks = markable_parts(o.parts, o.kind)
    doc = {"orbit": format_orbit(o), "markable": list(marks),
           "abar_rank": abar_rank(o.parts, o.kind)}
    _emit(args, doc, ["%s quotient rank %d" % (format_partition(marks), doc["abar_rank"])])


def _cmd_gamma(args):
    m = parse_marked(args.marked)
    require_reduced(m)
    w = gamma_la(m)
    _emit(args, {"marked": str(m), "gamma": str(w)}, [format_weight(w)])


def _cmd_gamma_cover(args):
    o = parse_orbit(args.orbit)
    w = gamma_rigid_cover(o)
    _emit(args, {"orbit": format_orbit(o), "gamma": str(w)}, [format_weight(w)])


def _cmd_gamma_group(args):
    m = parse_marked(args.marked)
    doc = {"marked": str(m), "gamma_group_rank": gamma_group_rank(m),
           "abar_r_rank": abar_r_rank(m)}
    _emit(args, doc, ["galois rank %(gamma_group_rank)d, quotient rank %(abar_r_rank)d" % doc])


def _cmd_ms_lift(args):
    m = parse_marked(args.marked)
    require_reduced(m)
    lift = ms_lift(m)
    doc = {"marked": str(m), "factor1": _orbit_doc(lift.factor1),
           "factor2": _orbit_doc(lift.factor2)}
    _emit(args, doc, ["%s x %s" % (format_orbit(lift.factor1),
                                   format_orbit(lift.factor2))])


def _cmd_d_map(args):
    m = parse_marked(args.marked)
    cover = d_map(m)
    doc = {"marked": str(m), "base": _orbit_doc(cover.base), "degree": cover.degree,
           "subgroup": sorted(sorted(g) for g in cover.subgroup) if cover.subgroup is not None else None}
    _emit(args, doc, ["degree %d cover of %s" % (cover.degree, format_orbit(cover.base))])


def _cmd_table(args):
    group = args.group.upper().replace("GAMMA-", "")
    if group not in exceptional.GROUPS:
        raise ValueError("unknown table %r (groups: %s)"
                         % (args.group, ", ".join(exceptional.GROUPS)))
    if args.group.lower().startswith("gamma-"):
        data = exceptional.load_gamma_table(group)
    else:
        data = exceptional.load_table(group)
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for row in data["rows"]:
            print(json.dumps(row, sort_keys=True))


def _cmd_verify(args):
    if args.max_rank < 0:
        raise ValueError("--max-rank must be at least 0")
    suites = verify.SUITES if args.suite == "all" else [args.suite]
    reports = verify.verify_all(max_rank=args.max_rank, suites=suites)
    ok = all(r["passed"] for r in reports)
    if args.json:
        print(json.dumps(reports, indent=2, sort_keys=True, default=str))
    else:
        for r in reports:
            print("%s %s: %s checks" % ("PASS" if r["passed"] else "FAIL",
                                        r["name"], r["checked"]))
            for f in r["failures"][:10]:
                detail = json.dumps(f["detail"], sort_keys=True, default=str)
                print("  %s %s %s" % (f["check"], f["datum"], detail))
            if len(r["failures"]) > 10:
                print("  %d failures (first 10 shown)" % len(r["failures"]))
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, for `main` to report as one
    `error:` line with exit code 1; subparsers inherit the class."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    """A new parser for the command line.

    `main` builds one per process and reuses it: each `parse_args` makes a
    new Namespace, and no action keeps state between calls.  The `verify`
    suite choices are frozen from `verify.SUITES` when it is built.
    """
    parser = _Parser(
        prog="orbitduality",
        description="exact nilpotent-orbit combinatorics for classical types")
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("collapse", help="type collapse of a partition")
    p.add_argument("--kind", required=True, choices=["B", "C", "D"])
    p.add_argument("partition")
    p.set_defaults(fn=_cmd_collapse)

    for verb, fn, help_text, arg, arg_help in (
            ("transpose", _cmd_transpose, "transpose a partition", "partition", None),
            ("bvls-dual", _cmd_bvls_dual, "duality on orbits", "orbit",
             "e.g. B:[5,3,1] or D:[2,2]I"),
            ("group", _cmd_group, "component group data of an orbit", "orbit", None),
            ("markable", _cmd_markable, "markable parts and quotient rank", "orbit", None),
            ("gamma", _cmd_gamma, "weight of a marked datum", "marked", None),
            ("gamma-cover", _cmd_gamma_cover, "weight of a rigid cover of an orbit",
             "orbit", None),
            ("gamma-group", _cmd_gamma_group, "both Galois-group rank computations",
             "marked", None),
            ("ms-lift", _cmd_ms_lift, "pseudo-Levi orbit pair of a marked datum",
             "marked", None),
            ("d-map", _cmd_d_map, "dual cover of a marked datum", "marked", None),
            ("table", _cmd_table, "print an exceptional table", "group",
             "g2, f4, e6, e7, e8, gamma-g2, ..., gamma-e8")):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument(arg, help=arg_help)
        p.set_defaults(fn=fn)

    for verb, fn, help_text in (
            ("induce", _cmd_induce, "induce an orbit from a Levi"),
            ("saturate", _cmd_saturate, "saturate an orbit from a Levi")):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("levi", help="e.g. gl(4)+sp(8) or gl(2)+gl(2)")
        p.add_argument("orbits", help="semicolon list: one per gl factor, then the core")
        p.add_argument("--kind", choices=["B", "C", "D"])
        p.set_defaults(fn=fn)

    p = sub.add_parser("sommers-dual", help="duality on marked partitions")
    p.add_argument("marked", help="e.g. B:<[5,1]>[5,3,1]")
    p.add_argument("--route", default="general",
                   choices=["general", "distinguished", "blocks"])
    p.set_defaults(fn=_cmd_sommers_dual)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=list(verify.SUITES) + ["all"])
    p.add_argument("--max-rank", type=int, default=5,
                   help="sets every suite's range: rank N (duality N+1; "
                        "kernel size 2N+4, rank N+1; tables fixed)")
    p.set_defaults(fn=_cmd_verify)

    return parser


@functools.cache
def _parser():
    # looks up the module-level name at call time, so a rebinding of
    # `build_parser` (a profiler's wrapper, a test's counter) sees the build
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        result = args.fn(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return result or 0


if __name__ == "__main__":
    sys.exit(main())
