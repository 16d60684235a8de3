"""Exceptional-type results as structured data with internal consistency
checks.

The per-group tables list the special distinguished marked data with their
minimal weights, and the Galois-group tables list the remaining special data
with the pseudo-Levi pair and component-group columns.  Weights are given in
fundamental-weight coordinates and parsed once each, in integers, to their
least common denominator k and k times their coordinates.  Everything a
group needs is built in integers as well: the Gram matrix of the
fundamental weights, scaled to integers once per group by fraction-free
elimination of its Cartan matrix, and the squared lengths of the roots.
Each norm is then one Fraction.  One root system per group, generated from
its Cartan matrix by root strings, supports an independent classification
of the integral and singular subsystems of each tabulated weight, plus a
lattice-shell minimality check.  That check enumerates the dominant chamber
only, which suffices because the norm and both subsystem types are
Weyl-invariant and the lattice is Weyl-stable, and prunes by exact integer
partial norms.  Every coroot has nonnegative simple-coroot coordinates, so
a dominant point c >= 0 pairs to 0 with a coroot exactly when the coroot's
support lies inside the zero set of c: the singular count of a dominant
point is read off its zero set, and a point whose count differs from the
entry's is dropped before its subsystems are computed.
"""

import collections
import functools
import itertools
import json
import math
import operator
import os
from fractions import Fraction

from .compgroups import abar_rank
from .orbits import Orbit, split_decoration
from .partitions import SIZE_PARITY

GROUPS = ("G2", "F4", "E6", "E7", "E8")

_CARTAN = {
    "G2": [[2, -1], [-3, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
}
_E_EDGES = {"E6": [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]}
_E_EDGES["E7"] = _E_EDGES["E6"] + [(6, 7)]
_E_EDGES["E8"] = _E_EDGES["E7"] + [(7, 8)]
for _name, _rank in (("E6", 6), ("E7", 7), ("E8", 8)):
    _a = [[2 if i == j else 0 for j in range(_rank)] for i in range(_rank)]
    for i, j in _E_EDGES[_name]:
        _a[i - 1][j - 1] = _a[j - 1][i - 1] = -1
    _CARTAN[_name] = _a

# squared lengths of the simple roots, in the order of the Cartan rows
_LENGTHS = {
    "G2": (2, 6),
    "F4": (2, 2, 1, 1),
    "E6": (2,) * 6,
    "E7": (2,) * 7,
    "E8": (2,) * 8,
}


def _eliminate(rows):
    """Fraction-free Gauss-Jordan elimination over the integers, the one row
    reduction of this module.

    Each step takes the first row at or below the current one with a nonzero
    entry p in the next column and swaps it up; every other row with an
    entry f in that column becomes p * row - f * (pivot row), divided by the
    gcd of its entries (a zero row stays zero).  Returns the reduced rows:
    the pivot rows first, each the only row nonzero in its pivot column, then
    a zero row for each row the rank falls short of.
    """
    a = [list(row) for row in rows]
    r = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][col]
        for i in range(len(a)):
            f = a[i][col]
            if i != r and f:
                row = [p * x - f * y for x, y in zip(a[i], a[r])]
                g = math.gcd(*row)
                a[i] = [x // g for x in row] if g else row
        r += 1
    return a


def _lowest_terms(scale, rows):
    """(scale, rows) divided by the gcd of scale and every entry, the rows as
    tuples."""
    g = math.gcd(scale, *(x for row in rows for x in row))
    return scale // g, tuple(tuple(x // g for x in row) for row in rows)


def _invert(matrix):
    """(scale, rows): the inverse of a nonsingular integer matrix as integer
    rows over one positive scale, in lowest terms."""
    n = len(matrix)
    reduced = _eliminate([list(row) + [int(i == j) for j in range(n)]
                          for i, row in enumerate(matrix)])
    # row i is now p e_i | p times row i of the inverse, p its pivot
    scale = math.lcm(*(row[i] for i, row in enumerate(reduced)))
    return _lowest_terms(scale, [[x * scale // row[i] for x in row[n:]]
                                 for i, row in enumerate(reduced)])


@functools.lru_cache(maxsize=None)
def _integer_gram(group):
    """(scale, rows): the Gram matrix G of the fundamental weights, the
    inverse Cartan matrix times the halved squared lengths of the simple
    roots, as integer rows h = scale * G in lowest terms, once per group."""
    scale, inv = _invert(_CARTAN[group])
    lengths = _LENGTHS[group]
    return _lowest_terms(2 * scale, [[x * l for x, l in zip(row, lengths)] for row in inv])


def gram_matrix(group):
    """Pairwise products of the fundamental weights as a tuple of row tuples
    of Fractions, read off `_integer_gram`."""
    scale, h = _integer_gram(group)
    return tuple(tuple(Fraction(x, scale) for x in row) for row in h)


def _split_weight(text):
    """(coordinate fields, denominator text) of "(...)" or "(...)/d", the
    denominator "1" without "/d"; any other shape is a ValueError."""
    s, d = text.strip().rsplit("/", 1) if "/" in text else (text.strip(), "1")
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError("weight %r is not (...) or (...)/d" % text)
    return s[1:-1].split(","), d


def parse_weight(text):
    """(k, kcoords) of a weight "(2,2,4,4)/4": its least common denominator
    k and the integers k * coordinates, here (2, (1, 1, 2, 2)).  With d the
    written denominator, k = d / gcd(d, fields)."""
    fields, d = _split_weight(text)
    den = int(d)
    if den < 1:
        raise ValueError("weight denominator must be at least 1: %r" % text)
    nums = [int(x) for x in fields]
    g = math.gcd(den, *nums)
    return den // g, tuple(x // g for x in nums)


def _form(g, c):
    """c.g.c, the quadratic form of the matrix g at the vector c."""
    return sum(x * sum(map(operator.mul, row, c)) for x, row in zip(c, g))


def _of_rank(group, weight):
    """(k, kcoords) of a weight, if there is one coordinate per simple root
    of the group; any other number of them is a ValueError."""
    k, kcoords = weight
    if len(kcoords) != len(_CARTAN[group]):
        raise ValueError("a weight of %s needs %d coordinates, not %d"
                         % (group, len(_CARTAN[group]), len(kcoords)))
    return k, kcoords


def gamma_norm_sq(group, weight):
    """Squared norm of a weight (k, kcoords), kcoords / k in fundamental
    coordinates, exactly: with the integer Gram matrix h = scale * G the
    norm is kcoords.h.kcoords / (scale * k * k)."""
    scale, h = _integer_gram(group)
    k, kcoords = _of_rank(group, weight)
    return Fraction(_form(h, kcoords), scale * k * k)


# ---------------------------------------------------------------------------
# table loading


def tables_dir():
    override = os.environ.get("ORBITDUALITY_TABLES")
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "tables")


# The keys that every row of a group's table and of its Galois table holds,
# and the keys of the strings that are not weights.
_ROW_KEYS = ("dual", "entries", "gamma", "gamma_d")
_GAMMA_ROW_KEYS = ("dual", "m_orbit", "r", "r_orbits", "ranks", "gamma_group")
_TEXT_KEYS = ("dual", "m_orbit", "r", "ranks", "gamma_group")


def load_table(group):
    return _load(group, group.lower() + ".json", _ROW_KEYS)


def load_gamma_table(group):
    return _load(group, "gamma_" + group.lower() + ".json", _GAMMA_ROW_KEYS)


def _load(group, name, keys):
    """One table file, its shape checked: an object whose "rows" is a list
    of objects holding `keys`, every label and orbit a string, and every
    weight a string (...) or (...)/d with one coordinate per simple root.
    Any other shape is a ValueError naming the file and the row."""
    path = os.path.join(tables_dir(), name)
    with open(path) as fh:
        table = json.load(fh)
    rows = table.get("rows") if isinstance(table, dict) else None
    if not isinstance(rows, list):
        raise ValueError("%s: a table is an object with a list of rows" % path)
    rank = len(_CARTAN[group])
    for i, row in enumerate(rows):
        where = "%s rows[%d]" % (path, i)
        if not (isinstance(row, dict) and all(key in row for key in keys)):
            raise ValueError("%s: a row is an object with %s" % (where, ", ".join(keys)))
        for key in _TEXT_KEYS:
            if key in keys and not isinstance(row[key], str):
                raise ValueError("%s: %s %r is not a string" % (where, key, row[key]))
        if "entries" not in keys:
            r_orbits = row["r_orbits"]
            if not (isinstance(r_orbits, list) and all(isinstance(t, str) for t in r_orbits)):
                raise ValueError("%s: r_orbits %r is not a list of strings" % (where, r_orbits))
            continue
        entries = row["entries"]
        if not (isinstance(entries, list) and all(
                isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) for e in entries)):
            raise ValueError("%s: entries are [label, weight] pairs" % where)
        for text in [row["gamma"], row["gamma_d"]] + [e[1] for e in entries]:
            try:
                fields = _split_weight(text)[0] if isinstance(text, str) else []
            except ValueError as e:
                raise ValueError("%s: %s" % (where, e)) from None
            if len(fields) != rank:
                raise ValueError("%s: weight %r does not have %d coordinates"
                                 % (where, text, rank))
    return table


# ---------------------------------------------------------------------------
# root subsystems


Root = collections.namedtuple("Root", "simple coroot long links")


def _root_strings(cartan):
    """Positive roots of the Cartan matrix A[i][j] = <alpha_i, alpha_j^vee>
    in simple-root coordinates, in order of height.

    The alpha_i-string through a positive root beta other than alpha_i runs
    from beta - r alpha_i to beta + q alpha_i with r - q = <beta, alpha_i^vee>,
    and every positive root of height h + 1 is one of height h plus a simple
    root (Humphreys, Introduction to Lie Algebras and Representation Theory,
    8.4 and 10.2).  So each height grows from the one below: r is read off
    the roots already found, and beta + alpha_i is a root exactly when
    q = r - <beta, alpha_i^vee> is positive.

    No finite root system of rank at most 8 has a root above height 29, the
    height of E8's highest root, and no root string of a finite root system
    is longer than 4, so r never passes 3.  A matrix of no finite type is a
    ValueError once its strings pass either bound.
    """
    n = len(cartan)
    layer = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots, found = list(layer), set(layer)
    height = 1
    while layer:
        if height > 29:
            raise ValueError("roots above height 29: the Cartan matrix is of no finite type")
        above = []
        for beta in layer:
            for i in range(n):
                r = 0
                while beta[:i] + (beta[i] - r - 1,) + beta[i + 1:] in found:
                    r += 1
                    if r > 3:
                        raise ValueError("a root string longer than 4: the Cartan matrix "
                                         "is of no finite type")
                up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                if r > sum(beta[j] * cartan[j][i] for j in range(n)) and up not in found:
                    found.add(up)
                    above.append(up)
        roots.extend(above)
        layer = above
        height += 1
    return roots


@functools.lru_cache(maxsize=None)
def positive_roots(group):
    """The positive roots of one group in order of height, the highest last,
    generated from its Cartan matrix once per group.  Each Root holds the
    root's simple-root coordinates n, its coroot's simple-coroot coordinates
    m_j = n_j L_j / L (L_j and L the squared lengths of alpha_j and the
    root), whether it is long, and the indices of the roots it is not
    orthogonal to.  A weight sum c_i omega_i pairs with the coroot to
    sum c_i m_i."""
    cartan, lengths = _CARTAN[group], _LENGTHS[group]
    n = len(cartan)
    simple = _root_strings(cartan)
    # each root in fundamental-weight coordinates, its simple-coroot pairings
    weights = [[sum(b[a] * cartan[a][j] for a in range(n)) for j in range(n)] for b in simple]
    # (beta, beta) = sum_j n_j (beta, alpha_j) and (beta, alpha_j) = w_j L_j / 2
    length = [sum(w[j] * b[j] * lengths[j] for j in range(n)) // 2
              for b, w in zip(simple, weights)]
    coroots = [tuple(b[j] * lengths[j] // d for j in range(n)) for b, d in zip(simple, length)]
    longest = max(length)
    return tuple(
        Root(b, m, d == longest,
             frozenset(t for t, m2 in enumerate(coroots) if sum(map(operator.mul, w, m2))))
        for b, w, d, m in zip(simple, weights, length, coroots))


def _subsystems(roots, kcoords, k):
    """Indices of the integral and the singular positive roots of the weight
    kcoords / k: those whose coroots pair with kcoords into kZ, and to 0."""
    integral, singular = [], []
    for t, root in enumerate(roots):
        num = sum(map(operator.mul, kcoords, root.coroot))
        if num % k == 0:
            integral.append(t)
            if num == 0:
                singular.append(t)
    return integral, singular


def _component_rank(component):
    """Rank of an irreducible subsystem: the number of its positive roots
    that are not a sum of two of them, which are its simple roots
    (Humphreys, 10.1).  A positive root that is not simple is a simple root
    plus a positive root (Humphreys, 10.2), both of lower height, so in
    order of height each root is tested against the simple roots found so
    far."""
    found = {r.simple for r in component}
    simple = []
    for a in sorted(found, key=sum):
        if not any(tuple(map(operator.sub, a, b)) in found for b in simple):
            simple.append(a)
    return len(simple)


def _component_label(group, component):
    """Type of one irreducible subsystem from its rank, its root count and
    its long/short split, labeled on the coroot side: a B_r of roots is a
    C_r of coroots, and "~" marks a one-length component of long roots in a
    group with two root lengths, whose coroots are short."""
    rank = _component_rank(component)
    count = len(component)
    nlong = sum(r.long for r in component)
    nshort = count - nlong
    if nlong and nshort:
        if count == rank * rank:
            return ("C" if nlong > nshort else "B") + str(rank)
        if (rank, count) in ((2, 6), (4, 24)):
            return {2: "G2", 4: "F4"}[rank]
    else:
        tilde = "~" if nlong and len(set(_LENGTHS[group])) > 1 else ""
        if count == rank * (rank + 1) // 2:
            return tilde + "A" + str(rank)
        if rank >= 4 and count == rank * (rank - 1):
            return tilde + "D" + str(rank)
        if count == {6: 36, 7: 63, 8: 120}.get(rank):
            return "E" + str(rank)
    raise ValueError("unrecognized subsystem shape (rank %d, %d roots)" % (rank, count))


def _components(roots, members):
    """The irreducible components of the roots with the given indices, each
    a list of Roots: the classes of the members under non-orthogonality."""
    todo = set(members)
    while todo:
        component = [todo.pop()]
        for t in component:
            near = roots[t].links & todo
            todo -= near
            component.extend(near)
        yield [roots[t] for t in component]


def _label_set(group, roots, members):
    """Sorted "+"-joined labels of the irreducible components of the roots
    with the given indices; "" for none."""
    return "+".join(sorted(_component_label(group, c) for c in _components(roots, members)))


def subsystem_classify(group, weight):
    """(integral type, singular type) of a weight (k, kcoords), kcoords / k
    in fundamental coordinates, labeled on the coroot side, e.g.
    ("A1+~A1", "") for the half-sum weight (1,1)/2 in G2."""
    roots = positive_roots(group)
    k, kcoords = _of_rank(group, weight)
    return tuple(_label_set(group, roots, s) for s in _subsystems(roots, kcoords, k))


# ---------------------------------------------------------------------------
# verification


_GROUP_ORDER = {"1": 1, "Z2": 2, "S2": 2, "S3": 6, "S4": 24, "Z2xZ2": 4}


def _factor_types(label):
    """Component types of a printed label like "C3+A1", "2A3" or "C3(a1)+~A1",
    tilde-insensitive, with orbit decorations like (a1) stripped and
    multiplier prefixes like 2A2 expanded."""
    out = []
    for piece in label.split("+"):
        piece = piece.strip().strip("'").split("(")[0].replace("~", "")
        mult = 1
        if piece[:1].isdigit() and piece[1:2].isalpha():
            mult, piece = int(piece[0]), piece[1:]
        out.extend([piece] * mult)
    return out


def _expand_orbit_string(text):
    """Expand "[4^2,2^2]" to a tuple, returning (parts, decoration) or None
    for the zero-orbit marker "{0}"."""
    s = text.strip()
    if s == "{0}":
        return None
    s, dec = split_decoration(s, "^")
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError("bad orbit string %r" % text)
    parts = []
    for piece in s[1:-1].split(","):
        if "^" in piece:
            base, exp = piece.split("^")
            parts.extend([int(base)] * int(exp))
        else:
            parts.append(int(piece))
    return tuple(sorted(parts, reverse=True)), dec


def _classical_abar_rank(type_label, orbit_strings):
    """Sum of canonical-quotient ranks over the factors of a classical
    pseudo-Levi, from the tabulated factor orbits; type-A factors are trivial.
    A factor orbit that is no orbit of its factor is a ValueError naming it."""
    kinds = _factor_types(type_label)
    if len(kinds) != len(orbit_strings):
        raise ValueError("%s has %d factors but %d orbits"
                         % (type_label, len(kinds), len(orbit_strings)))
    total = 0
    for kind_label, orb in zip(kinds, orbit_strings):
        letter, rank = kind_label[0], int(kind_label[1:])
        if letter == "A":
            continue
        expanded = _expand_orbit_string(orb)
        dim = 2 * rank + SIZE_PARITY.get(letter, 0)  # `Orbit` rejects other letters
        parts, dec = ((1,) * dim, None) if expanded is None else expanded
        try:
            Orbit(letter, dim, parts, dec)
        except ValueError as exc:
            raise ValueError("orbit %r does not fit factor %s: %s" % (orb, kind_label, exc))
        total += abar_rank(parts, letter)
    return total


def verify_tables(group):
    """Internal consistency of one group's tables.

    (a) the datum weight equals the dual-cover weight row by row; (b) inside
    every row the datum weight is the norm-minimal entry weight; (c) in the
    Galois table the first component-group column agrees with the Galois
    column, and when the pseudo-Levi is classical its quotient rank recomputed
    from the tabulated partitions matches as well.
    """
    failures = []
    checked = {"gamma_equal": 0, "gamma_min": 0, "gamma_rank": 0, "abar_recomputed": 0}
    for row in load_table(group)["rows"]:
        g_la = parse_weight(row["gamma"])
        g_d = parse_weight(row["gamma_d"])
        checked["gamma_equal"] += 1
        if g_la != g_d:
            failures.append(("gamma_equal", row["dual"], row["gamma"], row["gamma_d"]))
        weights = [parse_weight(e[1]) for e in row["entries"]]
        checked["gamma_min"] += 1
        if gamma_norm_sq(group, g_la) != min(gamma_norm_sq(group, w) for w in weights):
            failures.append(("gamma_min", row["dual"], row["gamma"]))
        if g_la not in weights:
            failures.append(("gamma_member", row["dual"]))
    for row in load_gamma_table(group)["rows"]:
        abar_label = row["ranks"].split(",")[0].strip()
        checked["gamma_rank"] += 1
        unknown = [g for g in (abar_label, row["gamma_group"]) if g not in _GROUP_ORDER]
        if unknown:
            failures.append(("group_label", row["dual"], row["m_orbit"], *unknown))
            continue
        if _GROUP_ORDER[abar_label] != _GROUP_ORDER[row["gamma_group"]]:
            failures.append(("gamma_rank", row["dual"], row["m_orbit"],
                             abar_label, row["gamma_group"]))
        try:
            recomputed = _classical_abar_rank(row["r"], row["r_orbits"])
        except ValueError as exc:
            failures.append(("abar_parse", row["dual"], row["m_orbit"], str(exc)))
            continue
        checked["abar_recomputed"] += 1
        if 2 ** recomputed != _GROUP_ORDER[abar_label]:
            failures.append(("abar_recomputed", row["dual"], row["m_orbit"],
                             recomputed, abar_label))
    return {"group": group, "checked": checked, "failures": failures,
            "passed": not failures}


def verify_classification(group):
    """The integral subsystem of each tabulated entry weight
    matches the pseudo-Levi type of its entry, tilde-insensitively."""
    failures = []
    checked = 0
    for row in load_table(group)["rows"]:
        for label, gamma_text in row["entries"]:
            integral, _ = subsystem_classify(group, parse_weight(gamma_text))
            checked += 1
            if sorted(_factor_types(integral)) != sorted(_factor_types(label)):
                failures.append((row["dual"], label, integral))
    return {"group": group, "checked": checked, "failures": failures,
            "passed": not failures}


def _dominant_points_within(h, budget):
    """Integer vectors c >= 0 with c.h.c <= budget, each with its form
    value, generated in lexicographic order.

    Every entry of h must be positive.  Then on c >= 0 the form restricted to
    the coordinates chosen so far is an exact lower bound on the whole form,
    so each coordinate is raised from 0 and stops at the first value that
    takes that partial form over the budget.  The walk keeps, for each
    coordinate, the form on the coordinates before it and its cross term
    with them, and runs the last coordinate in a loop of its own; a consumer
    that stops early stops the enumeration.
    """
    if any(x <= 0 for row in h for x in row):
        raise ValueError("dominant enumeration needs a form with positive entries")
    n = len(h)
    last = n - 1
    c = [0] * n
    partial = [0] * n   # the form on c[:i]
    cross = [0] * n     # sum over j < i of (h[i][j] + h[j][i]) * c[j]
    i = 0
    while i >= 0:
        v = c[i]
        q = partial[i] + v * (cross[i] + h[i][i] * v)
        if q > budget:
            c[i] = 0
            i -= 1
            c[i] += 1
        elif i < last:
            i += 1
            partial[i] = q
            cross[i] = sum((h[i][j] + h[j][i]) * c[j] for j in range(i))
        else:
            # c[last] stays 0: its values go straight into the points
            head, base, linear, square = tuple(c[:last]), partial[i], cross[i], h[i][i]
            while q <= budget:
                yield head + (v,), q
                v += 1
                q = base + v * (linear + square * v)
            i -= 1
            c[i] += 1


def _singular_counts(group):
    """{zero set: singular count} for the dominant points of a group, the
    zero set of c as the tuple of the truth values c_i == 0 and the count
    that of the positive roots whose coroots pair with c to 0.

    Every coroot has simple-coroot coordinates m >= 0, so for c >= 0 the
    pairing sum c_i m_i is 0 exactly when the support of m, where m_i > 0,
    lies inside the zero set of c.  So the count of a dominant point is read
    off its zero set alone, and the table has one entry per subset of the
    simple roots."""
    supports = [[i for i, m in enumerate(root.coroot) if m] for root in positive_roots(group)]
    return {zero: sum(all(zero[i] for i in support) for support in supports)
            for zero in itertools.product((False, True), repeat=len(_CARTAN[group]))}


def verify_shell_minimality(group):
    """Each tabulated entry weight is norm-minimal among the lattice points
    (in its own denominator refinement) sharing both its integral and
    singular types.  A weaker stand-in for comparing full pseudo-Levi data:
    type-equal points could in principle carry different data, so failures
    here would require inspection, not table corrections.

    The norm and both subsystem types are Weyl-invariant, and the lattice
    (1/k)P of a weight with denominator k is Weyl-stable, so a shorter
    type-equal point exists exactly when one exists in the dominant chamber.
    Only dominant points are enumerated, pruned by exact integer partial
    norms, and a failure names the dominant representative of the offending
    Weyl orbit.  On c >= 0 a coroot pairs to 0 exactly when its support lies
    inside the zero set of c (`_singular_counts`), so a point whose zero set
    gives another singular count than the entry's is dropped before its
    subsystems are computed; every other point is compared in full, by both
    counts and both labels.
    """
    roots = positive_roots(group)
    _, h = _integer_gram(group)
    singular_counts = _singular_counts(group)
    failures = []
    checked = 0
    for row in load_table(group)["rows"]:
        for label, gamma_text in row["entries"]:
            k, kcoords = parse_weight(gamma_text)
            entry = _subsystems(roots, kcoords, k)
            key = tuple(_label_set(group, roots, s) for s in entry)
            counts = tuple(map(len, entry))
            budget = _form(h, kcoords)
            checked += 1
            for point, q in _dominant_points_within(h, budget):
                if q >= budget or singular_counts[tuple(map(operator.not_, point))] != counts[1]:
                    continue
                subsystems = _subsystems(roots, point, k)
                if (tuple(map(len, subsystems)) == counts and
                        tuple(_label_set(group, roots, s) for s in subsystems) == key):
                    failures.append((row["dual"], label, [str(Fraction(x, k)) for x in point]))
                    break
    return {"group": group, "checked": checked, "failures": failures,
            "passed": not failures}
