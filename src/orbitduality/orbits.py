"""Nilpotent orbits of the classical simple Lie algebras as typed partitions.

Orbits of so(2n+1), sp(2n), so(2n) are partitions of 2n+1 / 2n / 2n of type
B / C / D; very even type-D partitions label two orbits, distinguished by a
decoration I or II.  This module implements saturation and induction along
Levi subalgebras, the induced-orbit birationality test, and the duality map
exchanging the B and C families (fixing D).
"""

import functools
from collections import namedtuple

from .partitions import (
    SIZE_PARITY,
    add_unit,
    as_partition,
    collapse,
    drop_box,
    enumerate_type,
    format_partition,
    is_type,
    is_very_even,
    join,
    parse_partition,
    size,
    transpose,
    union,
)

# The family of the dual orbits: so(2n+1) <-> sp(2n), so(2n) -> so(2n).
DUAL_KIND = {"B": "C", "C": "B", "D": "D"}


class Checked:
    """A base for a record whose `__new__` checks its fields: `_make`, and
    so `_replace`, builds through `__new__` as well."""
    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


# The table of the suite call that is running, or None outside every suite:
# see `checks_each_orbit_once`.
_suite_orbits = None


def checks_each_orbit_once(suite):
    """Decorate a suite so that each call of it checks each distinct `Orbit`
    once: the call opens a table of the orbits it has built, and drops it
    when the call returns or raises.  Nothing outlives the call, and a call
    inside another keeps its own table until it ends."""
    @functools.wraps(suite)
    def run(*args, **kwargs):
        global _suite_orbits
        outer, _suite_orbits = _suite_orbits, {}
        try:
            return suite(*args, **kwargs)
        finally:
            _suite_orbits = outer
    return run


class Orbit(Checked, namedtuple("Orbit", "kind ambient parts decoration")):
    """A nilpotent orbit: kind B, C or D, the size of the ambient algebra,
    the partition, and I or II on a very even type-D partition.

    Every construction checks its fields (`_checked_parts`), except that
    while a suite decorated with `checks_each_orbit_once` runs, a record
    built from a tuple of parts is looked up in that call's table first, by
    all its fields and the type of its ambient.  A hit returns the record
    that the constructor builds from the same fields, so no route's value
    can reach the other side of a comparison: the table holds values, not
    the routes that made them.  A failed check raises and stores nothing.
    """
    __slots__ = ()

    def __new__(cls, kind, ambient, parts, decoration=None):
        table = _suite_orbits
        if table is not None and type(parts) is tuple:
            key = (kind, type(ambient), ambient, parts, decoration)
            try:
                orbit = table.get(key)
            except TypeError:  # an unhashable field is checked, and fails, below
                table = None
            else:
                if orbit is not None:
                    return orbit
        orbit = tuple.__new__(cls, (kind, ambient,
                                    _checked_parts(kind, ambient, parts, decoration),
                                    decoration))
        if table is not None:
            table[key] = orbit
        return orbit

    def __str__(self):
        return format_orbit(self)


def _checked_parts(kind, ambient, parts, decoration):
    """The parts of an orbit with these fields as a partition tuple, or a
    ValueError naming the first field that is wrong."""
    if kind not in ("B", "C", "D"):
        raise ValueError("unknown kind %r" % (kind,))
    parts = as_partition(parts)
    n = sum(parts)
    if n != ambient:
        raise ValueError("partition size %d does not match ambient %d"
                         % (n, ambient))
    if not is_type(parts, kind):
        raise ValueError("%s is not a type-%s partition"
                         % (format_partition(parts), kind))
    if decoration is not None:
        problem = decoration_problem(kind, parts, decoration)
        if problem:
            raise ValueError(problem)
    return parts


def decoration_problem(kind, parts, decoration):
    """Why a decoration other than None cannot sit on these parts, or None."""
    if decoration not in ("I", "II"):
        return "decoration must be I or II"
    if kind != "D" or not is_very_even(parts):
        return "only very even type-D partitions carry decorations"
    return None


def split_decoration(text, mark=""):
    """(text less a final mark + "I" or "II", that decoration or None)."""
    for dec in ("II", "I"):
        if text.endswith(mark + dec):
            return text[: -len(mark + dec)], dec
    return text, None


def enumerate_orbits(kind, ambient):
    """All orbits of g(ambient); very even type-D partitions appear twice."""
    if ambient % 2 != SIZE_PARITY[kind]:
        raise ValueError("ambient parity does not match kind %s" % kind)
    out = []
    for p in enumerate_type(kind, ambient):
        if kind == "D" and is_very_even(p):
            out.append(Orbit(kind, ambient, p, "I"))
            out.append(Orbit(kind, ambient, p, "II"))
        else:
            out.append(Orbit(kind, ambient, p))
    return out


def saturate(gl_orbits, core):
    """Saturation: the big-group orbit meeting the Levi orbit.

    The Levi is one gl(|p|) per gl orbit p times the classical factor of the
    core, inside the algebra of the core's kind.  The partition is core + a
    pair of rows for every gl-orbit row; a very even result inherits the
    core decoration.
    """
    lam = core.parts
    for p in gl_orbits:
        p = as_partition(p)
        lam = union(lam, union(p, p))
    dec = None
    if core.kind == "D" and is_very_even(lam):
        dec = core.decoration
    return Orbit(core.kind, size(lam), lam, dec)


InducedOrbit = namedtuple("InducedOrbit", "orbit birational collapsed decoration_unknown",
                          defaults=(False, False))


def induce(gl_orbits, core):
    """Lusztig-Spaltenstein induction from a Levi, with birationality flag.

    The Levi is read off the orbits as in `saturate`.  The induced partition
    is the type collapse of the join of the core with doubled gl rows.
    Induction is birational exactly when no collapse is needed, except in
    type D where a join with all parts even and a single
    repeated-odd-multiplicity value collapses birationally.
    """
    kind = core.kind
    beta = core.parts
    for p in gl_orbits:
        p = as_partition(p)
        beta = join(beta, join(p, p))
    beta = as_partition(beta)
    if is_type(beta, kind):
        lam, birational, collapsed = beta, True, False
    else:
        lam = collapse(beta, kind)
        birational, collapsed = kind == "D" and d_exception_by_columns(beta), True
    dec_unknown = kind == "D" and is_very_even(lam)
    return InducedOrbit(Orbit(kind, size(lam), lam), birational, collapsed, dec_unknown)


def d_exception_by_columns(beta):
    """The type-D birational-collapse test, read off the columns: the join
    consists of pairs of equal columns with exactly one distinct odd column
    length."""
    cols = transpose(beta)
    vals = sorted(set(cols))
    if any(cols.count(v) % 2 for v in vals):
        return False
    return sum(1 for v in vals if v % 2 == 1) == 1


def bvls_dual(orbit):
    """Duality on orbits: transpose composed with a boundary adjustment and a
    type collapse, the decoration as in `dual_orbit`.  Any other very even
    type-D dual carries no decoration: it is not determined by this rule.
    """
    p = orbit.parts
    if orbit.kind == "B":
        q = collapse(drop_box(transpose(p)), "C")
    elif orbit.kind == "C":
        q = collapse(transpose(add_unit(p)), "B")
    else:
        q = collapse(transpose(p), "D")
    return dual_orbit(orbit.kind, orbit.ambient, orbit.decoration, q)


def dual_orbit(kind, ambient, decoration, parts):
    """The orbit of partition `parts` dual to a type-`kind` orbit of size
    `ambient` with `decoration`.  A very even type-D orbit keeps its
    decoration when ambient/2 is divisible by 4 and swaps it otherwise."""
    if decoration is not None and ambient // 2 % 4:
        decoration = "I" if decoration == "II" else "II"
    dual = DUAL_KIND[kind]
    return Orbit(dual, ambient - SIZE_PARITY[kind] + SIZE_PARITY[dual], parts, decoration)


def is_distinguished(orbit):
    """No repeated parts."""
    return len(set(orbit.parts)) == len(orbit.parts)


def parse_orbit(text):
    """Parse "B:[5,3,1]" or "D:[2,2]I"; the kind is B, C or D."""
    s = text.strip()
    if len(s) < 2 or s[1] != ":":
        raise ValueError("orbit text must look like B:[5,3,1]")
    kind = s[0]
    if kind not in ("B", "C", "D"):
        raise ValueError("orbit kind must be B, C or D, not %r" % kind)
    body, dec = split_decoration(s[2:])
    p = parse_partition(body)
    return Orbit(kind, size(p), p, dec)


def format_orbit(orbit):
    return "%s:%s%s" % (orbit.kind, format_partition(orbit.parts), orbit.decoration or "")


def parse_levi(text):
    """Parse "gl(4)+gl(1)+so(9)" into (gl sizes, residual size, residual kind),
    the kind None when there is no classical factor."""
    gl, residual, res_kind = [], 0, None
    for piece in text.strip().split("+"):
        piece = piece.strip()
        if not piece.endswith(")") or "(" not in piece:
            raise ValueError("bad Levi factor %r" % piece)
        name, arg = piece[: piece.index("(")], piece[piece.index("(") + 1: -1]
        n = int(arg)
        if name == "gl":
            if n < 1:
                raise ValueError("gl sizes must be positive")
            gl.append(n)
        elif name in ("so", "sp"):
            if res_kind is not None:
                raise ValueError("at most one classical factor in a Levi")
            residual = n
            res_kind = "C" if name == "sp" else ("B" if n % 2 else "D")
        else:
            raise ValueError("unknown Levi factor %r" % name)
    return tuple(gl), residual, res_kind
