"""Component groups of classical nilpotent orbits and their canonical quotient.

For an orbit O_lam of g_eps(N) the component group A(O) is elementary abelian
of exponent 2, generated by one involution per distinct part of lam of parity
different from eps.  Elements are stored as frozensets of those part values
(the support); the product is symmetric difference.  The canonical quotient
Abar(O) = A(O)/N is controlled by the markable parts of lam, and markings of
lam by subsets of markable parts parameterize the pairs (orbit, conjugacy
class in Abar) that drive the duality maps.
"""

from collections import namedtuple
from itertools import combinations

from .partitions import (
    EPSILON,
    SIZE_PARITY,
    as_partition,
    format_partition,
    is_type,
    parse_partition,
    size,
)
from .orbits import Checked, Orbit, decoration_problem, split_decoration

IDENTITY = frozenset()

# The parity of the marks, which is also the parity of the doubled weight
# coordinates on the marked side: odd in types B and D, even in type C.
MARK_PARITY = {kind: 1 - eps for kind, eps in EPSILON.items()}


def distinct_eps_values(lam, kind):
    """The distinct parts of lam of the mark parity (which differs from eps),
    largest first."""
    return tuple(sorted({v for v in lam if v % 2 == MARK_PARITY[kind]}, reverse=True))


def span(generators):
    """Closure of a set of involutions under symmetric difference."""
    group = {IDENTITY}
    frontier = [IDENTITY]
    gens = [frozenset(g) for g in generators]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x ^ g
            if y not in group:
                group.add(y)
                frontier.append(y)
    return frozenset(group)


def marking_subsets(values, kind):
    """The subsets of a decreasing tuple of values, as decreasing tuples, of
    even size in types B and D and of any size in type C."""
    for r in range(0, len(values) + 1, 1 if kind == "C" else 2):
        yield from combinations(values, r)


def a_group_elements(orbit):
    """All elements of A(O): the supports of the markings of its partition."""
    return [frozenset(nu) for nu in all_markings(orbit.parts, orbit.kind)]


# eps_values: the distinct parts of lam^eps; a_rank, a_ad_rank: log2 |A(O)|
# and log2 |A^ad(O)|
GroupData = namedtuple("GroupData", "eps_values a_rank a_ad_rank s1_nonempty")


def group_data(orbit):
    """Ranks of A(O) and A^ad(O); s1 is the support of v-tilde."""
    lam, kind = orbit.parts, orbit.kind
    vals = distinct_eps_values(lam, kind)
    r = len(vals)
    s1 = frozenset(v for v in vals if lam.count(v) % 2 == 1)
    if kind == "C":
        a_rank = r
        a_ad_rank = r if not s1 else r - 1
    else:
        a_rank = max(r - 1, 0)
        # v-tilde lies in A(O) only when its support has even size
        a_ad_rank = a_rank if len(s1) % 2 == 1 or not s1 else max(r - 2, 0)
    return GroupData(vals, a_rank, a_ad_rank, bool(s1))


def markable_parts(lam, kind):
    """Parts of the non-eps parity whose height has the kind's size parity.

    B: odd part, odd height; C: even part, even height; D: odd part, even
    height.  Returned as a multiplicity-free decreasing tuple.  One pass over
    the runs of lam: the height of a value is the index just past its run.
    """
    parity, want = MARK_PARITY[kind], SIZE_PARITY[kind]
    out = []
    i, n = 0, len(lam)
    while i < n:
        v, h = lam[i], i + 1
        while h < n and lam[h] == v:
            h += 1
        if v % 2 == parity and h % 2 == want:
            out.append(v)
        i = h
    return tuple(out)


def abar_rank(lam, kind):
    """log2 of Lusztig's canonical quotient: markable count, minus 1 for B/D."""
    m = len(markable_parts(lam, kind))
    return m if kind == "C" else max(m - 1, 0)


def kernel_subgroup(lam, kind):
    """The kernel N of A(O) ->> Abar(O).

    Generated by the products v_x v_m where m is the markable part in whose
    interval [m, next markable) the value x falls; below the last markable
    part the partner is the identity.
    """
    vals = distinct_eps_values(lam, kind)
    marks = markable_parts(lam, kind)
    gens = []
    for v in vals:
        partner = 0
        for m in marks:
            if m <= v:
                partner = m
                break
        g = frozenset({v}) ^ frozenset({partner} if partner else set())
        if g:
            gens.append(g)
    return span(gens)


class MarkedPartition(Checked, namedtuple("MarkedPartition", "kind lam nu decoration")):
    """A type-`kind` partition with a multiplicity-free set of parts marked.
    `marking_problem` is the one definition of a valid marked datum.

    Marks are odd in types B/D and even in type C; types B and D require an
    even number of marks (type C pads with a formal zero when needed).
    """
    __slots__ = ()

    def __new__(cls, kind, lam, nu, decoration=None):
        lam = as_partition(lam)
        nu = as_partition(nu)
        problem = marking_problem(kind, lam, nu, decoration)
        if problem:
            raise ValueError(problem)
        return tuple.__new__(cls, (kind, lam, nu, decoration))

    @property
    def eta(self):
        return multiset_difference(self.lam, self.nu)

    @property
    def orbit(self):
        """The orbit of the rows, marks forgotten."""
        return Orbit(self.kind, size(self.lam), self.lam, self.decoration)

    def __str__(self):
        return format_marked(self)


def multiset_difference(lam, nu):
    out = list(lam)
    for v in nu:
        out.remove(v)
    return tuple(out)


def marking_problem(kind, lam, nu, decoration=None):
    """Explain why (kind, lam, nu) is not a valid marked partition, or None."""
    if kind not in ("B", "C", "D"):
        return "marked partitions exist in types B, C, D"
    if not is_type(lam, kind):
        return "%s is not a type-%s partition" % (format_partition(lam), kind)
    marks = set(nu)
    if len(marks) != len(nu):
        return "marks must be multiplicity-free"
    parity = MARK_PARITY[kind]
    for v in nu:
        if v % 2 != parity:
            return "marks must be odd (B/D) or even (C)"
    for v in marks:
        if v not in lam:
            return "mark %d is not a part" % v
    if kind in ("B", "D") and len(nu) % 2 == 1:
        return "types B and D need an even number of marks"
    return None if decoration is None else decoration_problem(kind, lam, decoration)


def is_reduced(m):
    return set(m.nu) <= set(markable_parts(m.lam, m.kind))


def is_special_marked(m):
    """No wrong-parity part x with ht_nu(x) odd and ht_lam(x) of the kind's
    size parity (odd for B, even for C and D)."""
    return _is_special(m.kind, m.lam, m.nu)


def _is_special(kind, lam, nu):
    """`is_special_marked` on the decreasing tuples of a datum, for callers
    that test before they build it.

    One pass over the runs of lam: ht_lam(x) is the index just past x's run,
    and ht_nu(x) an index into nu that only moves forward."""
    eps = EPSILON[kind]
    bad_lam_parity = SIZE_PARITY[kind]
    i, k, n = 0, 0, len(lam)
    while i < n:
        x, h = lam[i], i + 1
        while h < n and lam[h] == x:
            h += 1
        if x % 2 == eps:
            while k < len(nu) and nu[k] >= x:
                k += 1
            if k % 2 == 1 and h % 2 == bad_lam_parity:
                return False
        i = h
    return True


def is_distinguished_marked(m):
    """Marks and unmarked rows both multiplicity-free."""
    eta = m.eta
    return all(eta.count(v) <= 1 for v in set(eta))


def all_markings(lam, kind):
    """Every admissible marking: subsets of the distinct non-eps values, with
    an even count in types B and D."""
    return list(marking_subsets(distinct_eps_values(lam, kind), kind))


def equivalent_markings(m):
    """All markings of lam in the same Abar-class as m (the lift set): m's
    marks times each element of the kernel N.  N lies in A(O), so in types B
    and D each product keeps an even number of marks."""
    nu = frozenset(m.nu)
    return [tuple(sorted(nu ^ g, reverse=True)) for g in kernel_subgroup(m.lam, m.kind)]


def _split_key(nu):
    """The rank of a marking nu among the markings of one partition lam: the
    sum over the pairs (a, b) of nu of a(a + 1) - b(b - 1), b = 0 for an odd
    tail.  Staggering a pair (a, b) to (a + 1, b - 1) raises 4|rho_plus|^2
    by half that pair's term, so the key is 2 * 4|rho_plus(nu^ ∪ (lam -
    nu))|^2 less a constant of lam alone: the norm's order, ties included."""
    return sum(a * (a + 1) for a in nu[::2]) - sum(b * (b - 1) for b in nu[1::2])


def canonical_split(m):
    """The split (nu0, eta0) of a distinguished marking: the marking of least
    weight norm in its Abar-class (least `_split_key`), with the unmarked
    rows it leaves."""
    if not is_distinguished_marked(m):
        raise ValueError("requires distinguished datum")
    nu0 = min(equivalent_markings(m), key=_split_key)
    return nu0, multiset_difference(m.lam, nu0)


def parse_marked(text):
    """Parse "B:<[5,1]>[5,3,1]" (decoration suffix I/II allowed in type D)."""
    s = text.strip()
    if len(s) < 4 or s[1] != ":" or s[2] != "<" or ">" not in s:
        raise ValueError("marked partition text must look like B:<[5,1]>[5,3,1]")
    kind = s[0]
    close = s.index(">")
    nu = parse_partition(s[3:close])
    body, dec = split_decoration(s[close + 1:])
    lam = parse_partition(body)
    return MarkedPartition(kind, lam, nu, dec)


def format_marked(m):
    return "%s:<%s>%s%s" % (m.kind, format_partition(m.nu),
                            format_partition(m.lam), m.decoration or "")
