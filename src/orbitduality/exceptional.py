"""Exceptional-type results as structured data with internal consistency
checks.

The per-group tables list the special distinguished marked data with their
minimal weights, and the Galois-group tables list the remaining special data
with the pseudo-Levi pair and component-group columns.  Weights are given in
fundamental-weight coordinates; norms are computed exactly through embedded
Gram matrices.  For the rank-2 and rank-4 groups an explicit root realization
supports an independent classification of the integral and singular
subsystems of each tabulated weight, plus a lattice-shell minimality check.
That check enumerates the dominant chamber only, which suffices because the
norm and both subsystem types are Weyl-invariant and the lattice is
Weyl-stable, and prunes by exact integer partial norms.
"""

import functools
import json
import math
import os
from fractions import Fraction

from .compgroups import abar_rank
from .partitions import is_type, size

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

# halved squared lengths of the simple roots, matching the realizations below
_HALF_LENGTHS = {
    "G2": [Fraction(1), Fraction(3)],
    "F4": [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 2)],
    "E6": [Fraction(1)] * 6,
    "E7": [Fraction(1)] * 7,
    "E8": [Fraction(1)] * 8,
}

# explicit realizations (doubled coordinates) for the subsystem classifier
_G2_SIMPLE = [(2, -2, 0), (-4, 2, 2)]
_G2_WEIGHTS = [(0, -2, 2), (-2, -2, 4)]
_F4_SIMPLE = [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
_F4_WEIGHTS = [(2, 2, 0, 0), (4, 2, 2, 0), (3, 1, 1, 1), (2, 0, 0, 0)]


def _eliminate(rows):
    """Exact Gauss-Jordan elimination over the rationals, the one row
    reduction of this module.

    Each step takes the first row at or below the current one with a nonzero
    entry in the next column, swaps it up, scales it to a leading 1 and clears
    that column in every other row.  Returns (reduced rows, pivots), one pivot
    (row, column, entry) per step: the row it was found in before the swap and
    its entry before scaling.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        entry = a[r][col]
        pivots.append((piv, col, entry))
        a[r] = [x / entry for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return a, pivots


def _invert(matrix):
    n = len(matrix)
    reduced, _ = _eliminate([list(row) + [int(i == j) for j in range(n)]
                             for i, row in enumerate(matrix)])
    return [row[n:] for row in reduced]


def _matrix_rank(vectors):
    return len(_eliminate(vectors)[1])


def _is_positive_definite(g):
    """A symmetric matrix is positive definite exactly when elimination finds
    every pivot on the diagonal, without a swap, and positive: the pivots
    are the ratios of consecutive leading principal minors."""
    _, pivots = _eliminate(g)
    return (len(pivots) == len(g)
            and all(row == col and entry > 0 for row, col, entry in pivots))


def gram_matrix(group):
    """Pairwise products of the fundamental weights: inverse Cartan times the
    halved simple-root lengths, as a tuple of row tuples.  Computed once per
    group; the cache sits behind this plain function so that profilers see
    an ordinary function here."""
    return _gram_matrix(group)


@functools.lru_cache(maxsize=None)
def _gram_matrix(group):
    inv = _invert(_CARTAN[group])
    d = _HALF_LENGTHS[group]
    return tuple(tuple(inv[i][j] * d[j] for j in range(len(d))) for i in range(len(d)))


def parse_gamma(text):
    """Parse "(1,1,2,2)/4" into a tuple of Fractions."""
    s = text.strip()
    den = 1
    if "/" in s:
        s, d = s.rsplit("/", 1)
        den = int(d)
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError("weight text must be parenthesized")
    return tuple(Fraction(int(x), den) for x in s[1:-1].split(","))


def _form(g, c):
    return sum(g[i][j] * c[i] * c[j] for i in range(len(c)) for j in range(len(c)))


def gamma_norm_sq(group, coords):
    return _form(gram_matrix(group), coords)


# ---------------------------------------------------------------------------
# table loading


def tables_dir():
    override = os.environ.get("ORBITDUALITY_TABLES")
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "tables")


def load_table(group):
    with open(os.path.join(tables_dir(), group.lower() + ".json")) as fh:
        return json.load(fh)


def load_gamma_table(group):
    with open(os.path.join(tables_dir(), "gamma_" + group.lower() + ".json")) as fh:
        return json.load(fh)


def table_lookup(group, dual=None, m_orbit=None):
    rows = load_table(group)["rows"]
    out = []
    for row in rows:
        if dual is not None and row["dual"] != dual:
            continue
        if m_orbit is not None and all(e[0] != m_orbit for e in row["entries"]):
            continue
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# root subsystems for G2 and F4


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def positive_roots(group):
    """Doubled-coordinate positive roots of G2 or F4."""
    if group == "G2":
        a1, a2 = _G2_SIMPLE
        combos = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]
        return [tuple(p * x + q * y for x, y in zip(a1, a2)) for p, q in combos]
    if group == "F4":
        out = []
        for i in range(4):
            e = [0, 0, 0, 0]
            e[i] = 2
            out.append(tuple(e))
        for i in range(4):
            for j in range(i + 1, 4):
                for s in (1, -1):
                    e = [0, 0, 0, 0]
                    e[i], e[j] = 2, 2 * s
                    out.append(tuple(e))
        for s2 in (1, -1):
            for s3 in (1, -1):
                for s4 in (1, -1):
                    out.append((1, s2, s3, s4))
        return out
    raise ValueError("explicit roots are embedded for G2 and F4 only")


def fundamental_weights(group):
    if group == "G2":
        return _G2_WEIGHTS
    if group == "F4":
        return _F4_WEIGHTS
    raise ValueError("explicit weights are embedded for G2 and F4 only")


def _embed(group, coords):
    ws = fundamental_weights(group)
    n = len(ws[0])
    return tuple(sum(Fraction(c) * w[i] for c, w in zip(coords, ws)) for i in range(n))


def _component_label(group, roots):
    """Type of one irreducible subsystem, labeled on the coroot side: the
    letter B/C and the tilde marking swap under passage to coroots."""
    long_sq = max(_dot(r, r) for r in positive_roots(group))
    nlong = sum(1 for r in roots if _dot(r, r) == long_sq)
    nshort = len(roots) - nlong
    rank = _matrix_rank(roots)
    count = len(roots)
    if count == 1:
        return "A1" if nshort else "~A1"
    if (rank, count) == (2, 3):
        return "A2" if nshort == 3 else "~A2"
    if (rank, count) == (2, 4):
        return "B2"
    if (rank, count) == (2, 6):
        return "G2"
    if (rank, count) == (3, 6):
        return "A3" if nshort == 6 else "~A3"
    if (rank, count) == (3, 9):
        return "C3" if nlong == 6 else "B3"
    if (rank, count) == (4, 10):
        return "A4" if nshort == 10 else "~A4"
    if (rank, count) == (4, 12):
        return "D4" if nlong == 12 else "~D4"
    if (rank, count) == (4, 16):
        return "C4" if nlong == 12 else "B4"
    if (rank, count) == (4, 24):
        return "F4"
    raise ValueError("unrecognized subsystem shape (rank %d, %d roots)" % (rank, count))


def _split_components(roots):
    comps = []
    todo = list(roots)
    while todo:
        comp = [todo.pop()]
        grew = True
        while grew:
            grew = False
            for r in list(todo):
                if any(_dot(r, c) != 0 for c in comp):
                    comp.append(r)
                    todo.remove(r)
                    grew = True
        comps.append(comp)
    return comps


def subsystem_classify(group, coords):
    """(integral type, singular type) of a weight in fundamental coordinates,
    labeled on the coroot side, e.g. ("A1+~A1", "") for the half-sum weight
    (1,1)/2 in G2."""
    gamma = _embed(group, coords)
    integral, singular = [], []
    for alpha in positive_roots(group):
        pairing = Fraction(2 * _dot(gamma, alpha), _dot(alpha, alpha))
        if pairing.denominator == 1:
            integral.append(alpha)
            if pairing == 0:
                singular.append(alpha)
    return _label_set(group, integral), _label_set(group, singular)


def _label_set(group, roots):
    if not roots:
        return ""
    labels = sorted(_component_label(group, c) for c in _split_components(roots))
    return "+".join(labels)


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
    dec = None
    for suffix in ("^II", "^I"):
        if s.endswith(suffix):
            s, dec = s[: -len(suffix)], suffix[1:]
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
    pseudo-Levi, from the tabulated factor orbits; type-A factors are trivial."""
    kinds = _factor_types(type_label)
    if len(kinds) != len(orbit_strings) and len(kinds) == 1:
        orbit_strings = [orbit_strings[0]]
    total = 0
    for kind_label, orb in zip(kinds, orbit_strings):
        letter, rank = kind_label[0], int(kind_label[1:])
        if letter == "A":
            continue
        expanded = _expand_orbit_string(orb)
        dim = {"B": 2 * rank + 1, "C": 2 * rank, "D": 2 * rank}[letter]
        parts = (1,) * dim if expanded is None else expanded[0]
        if size(parts) != dim or not is_type(parts, letter):
            raise ValueError("orbit %r does not fit factor %s" % (orb, kind_label))
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
        g_la = parse_gamma(row["gamma"])
        g_d = parse_gamma(row["gamma_d"])
        checked["gamma_equal"] += 1
        if g_la != g_d:
            failures.append(("gamma_equal", row["dual"], row["gamma"], row["gamma_d"]))
        norms = [gamma_norm_sq(group, parse_gamma(e[1])) for e in row["entries"]]
        checked["gamma_min"] += 1
        if gamma_norm_sq(group, g_la) != min(norms):
            failures.append(("gamma_min", row["dual"], row["gamma"]))
        if g_la not in [parse_gamma(e[1]) for e in row["entries"]]:
            failures.append(("gamma_member", row["dual"]))
    for row in load_gamma_table(group)["rows"]:
        abar_label = row["ranks"].split(",")[0].strip()
        checked["gamma_rank"] += 1
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
    """For G2 and F4: the integral subsystem of each tabulated entry weight
    matches the pseudo-Levi type of its entry, tilde-insensitively."""
    failures = []
    checked = 0
    for row in load_table(group)["rows"]:
        for label, gamma_text in row["entries"]:
            integral, _ = subsystem_classify(group, parse_gamma(gamma_text))
            checked += 1
            if sorted(_factor_types(integral)) != sorted(_factor_types(label)):
                failures.append((row["dual"], label, integral))
    return {"group": group, "checked": checked, "failures": failures,
            "passed": not failures}


def _integer_gram(group):
    """The Gram matrix times the least common denominator of its entries."""
    g = gram_matrix(group)
    scale = math.lcm(*(x.denominator for row in g for x in row))
    return [[int(x * scale) for x in row] for row in g]


def _dominant_points_within(h, budget):
    """Integer vectors c >= 0 with c.h.c <= budget, each with its form value.

    Every entry of h must be positive.  Then on c >= 0 the form restricted to
    the coordinates chosen so far is an exact lower bound on the whole form,
    so each coordinate is raised from 0 and stops at the first value that
    takes that partial form over the budget.
    """
    if any(x <= 0 for row in h for x in row):
        raise ValueError("dominant enumeration needs a form with positive entries")
    n = len(h)
    out = []
    c = [0] * n

    def rec(idx, partial):
        if idx == n:
            out.append((tuple(c), partial))
            return
        cross = sum((h[idx][j] + h[j][idx]) * c[j] for j in range(idx))
        v, q = 0, partial
        while q <= budget:
            c[idx] = v
            rec(idx + 1, q)
            v += 1
            q = partial + v * (cross + h[idx][idx] * v)
        c[idx] = 0

    rec(0, 0)
    return out


def verify_shell_minimality(group):
    """For G2 and F4: each tabulated entry weight is norm-minimal among the
    lattice points (in its own denominator refinement) sharing both its
    integral and singular types.  A weaker stand-in for comparing full
    pseudo-Levi data: type-equal points could in principle carry different
    data, so failures here would require inspection, not table corrections.

    The norm and both subsystem types are Weyl-invariant, and the lattice
    (1/k)P of a weight with denominator k is Weyl-stable, so a shorter
    type-equal point exists exactly when one exists in the dominant chamber.
    Only dominant points are enumerated, pruned by exact integer partial
    norms, and a failure names the dominant representative of the offending
    Weyl orbit.
    """
    roots = positive_roots(group)
    weights = fundamental_weights(group)
    n = len(weights)
    # pairing numerators: <c/k . w, alpha-check> = (P c) / (k (a,a)/2 . 2)
    pmat = [[sum(weights[i][t] * a[t] for t in range(len(a))) for i in range(n)]
            for a in roots]       # 4 (gamma, alpha) per unit coefficient
    norms2 = [_dot(a, a) for a in roots]   # 4 (alpha, alpha)
    h = _integer_gram(group)

    def pairing_counts(point, k):
        """(integral, singular) root counts of point/k."""
        n_int = n_sing = 0
        for j in range(len(roots)):
            num = 2 * sum(point[i] * pmat[j][i] for i in range(n))
            if num % (k * norms2[j]) == 0:
                n_int += 1
                if num == 0:
                    n_sing += 1
        return n_int, n_sing

    failures = []
    checked = 0
    for row in load_table(group)["rows"]:
        for label, gamma_text in row["entries"]:
            coords = parse_gamma(gamma_text)
            k = math.lcm(*(c.denominator for c in coords))
            kcoords = [int(c * k) for c in coords]
            key = subsystem_classify(group, coords)
            counts = pairing_counts(kcoords, k)
            budget = _form(h, kcoords)
            checked += 1
            for point, q in _dominant_points_within(h, budget):
                if q >= budget or pairing_counts(point, k) != counts:
                    continue
                cand = tuple(Fraction(x, k) for x in point)
                if subsystem_classify(group, cand) == key:
                    failures.append((row["dual"], label, [str(x) for x in cand]))
                    break
    return {"group": group, "checked": checked, "failures": failures,
            "passed": not failures}


def self_check():
    """Load-time sanity: embedded realizations match the Cartan data, and
    every Gram matrix is positive definite.  Returns False on a mismatch."""
    for group in ("G2", "F4"):
        if len(positive_roots(group)) != {"G2": 6, "F4": 24}[group]:
            return False
        g = gram_matrix(group)
        ws = fundamental_weights(group)
        if any(Fraction(_dot(ws[i], ws[j]), 4) != g[i][j]
               for i in range(len(ws)) for j in range(len(ws))):
            return False
    return all(_is_positive_definite(gram_matrix(group)) for group in GROUPS)
