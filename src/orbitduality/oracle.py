"""Certification of the minimal-weight theorem, by two routes.

For a distinguished marked datum the admissible weights form a union, over
the markings in its class, of sets cut out by congruence and Richardson
conditions.  The exhaustive route enumerates every dominant half-integer
vector inside the candidate's norm shell and tests membership exactly.  The
signature route computes the least norm and every minimiser without a shell:
membership reads each congruence class only through its multiplicity
signature, and each signature has one dominant vector of least norm.
"""

import itertools
from bisect import bisect_right
from collections import namedtuple
from functools import lru_cache
from math import isqrt

from .partitions import SIZE_PARITY, collapse, enumerate_partitions, size, transpose
from .orbits import Orbit
from .compgroups import (
    MARK_PARITY,
    equivalent_markings,
    is_distinguished_marked,
    multiset_difference,
)
from .infchar import gamma_la
from .covers import PSEUDO_LEVI


def richardson_zero(kind, halves):
    """Richardson orbit induced from zero on the Levi singled out by a weight.

    The r coordinates (doubled) must lie in one congruence class: all even
    (integers) or all odd (strict half-integers).  The factor has size 2r,
    plus one in type B.  Equal absolute values of multiplicity q contribute
    a pair of columns of height q; zeros contribute one column holding the
    rank of the residual classical factor.  One pass over the runs of the
    sorted absolute values reads every multiplicity.
    """
    columns, residual, parity = [], SIZE_PARITY[kind], None
    for v, run in itertools.groupby(sorted(map(abs, halves))):
        q = len(list(run))
        if parity is None:
            parity = v % 2
        elif v % 2 != parity:
            raise ValueError("coordinates of one factor must share a congruence class")
        if v:
            columns += (q, q)
        else:
            residual += 2 * q
    if residual:
        columns.append(residual)
    columns.sort(reverse=True)
    parts = transpose(tuple(columns))
    return Orbit(kind, size(parts), collapse(parts, kind))


def split_classes(kind, halves):
    """The doubled coordinates of the marked side and of the unmarked side,
    told apart by their congruence class."""
    parity = MARK_PARITY[kind]
    return (tuple(h for h in halves if h % 2 == parity),
            tuple(h for h in halves if h % 2 != parity))


def _lift_sides(m, orbits):
    """The lift markings of a distinguished marked datum and the two side
    questions membership asks of a point, as (lifts, accepting, other_orbit).

    `lifts` lists (nu, |nu|, eta, |eta|) for every marking nu in the datum's
    class, with eta the rest of its partition.  `accepting(side1)` lists the
    lifts that a marked side (the coordinates of the mark parity) satisfies:
    its size is |nu| and its Richardson orbit is nu.  `other_orbit(side2)`
    is the Richardson orbit of the other side.

    `orbits` memoizes the Richardson orbit of each side vector as
    {factor kind: {side vector: parts}}.  Each orbit is computed once per
    memo: pass one memo to every datum of a run, since many points and many
    data share a side.  None means a fresh memo.  The memo is keyed by the
    whole side vector, never by its multiplicity signature, and filled by
    `richardson_zero` alone, never from `_side_table`, so the shell stays
    independent of the signature route."""
    if not is_distinguished_marked(m):
        raise ValueError("membership is tested on distinguished data")
    lam = m.lam
    k1, k2 = PSEUDO_LEVI[m.kind]
    if orbits is None:
        orbits = {}
    memo1 = orbits.setdefault(k1, {})
    memo2 = orbits.setdefault(k2, {})
    lifts, by_size = [], {}
    for nu in equivalent_markings(m):
        eta = multiset_difference(lam, nu)
        lift = (nu, size(nu), eta, size(eta))
        lifts.append(lift)
        by_size.setdefault(lift[1], []).append(lift)

    def orbit(memo, k, side):
        parts = memo.get(side)
        if parts is None:
            parts = memo[side] = richardson_zero(k, side).parts
        return parts

    def accepting(side1):
        n1 = 2 * len(side1)
        sized = by_size.get(n1, [])
        if not (sized and n1):
            return sized
        parts = orbit(memo1, k1, side1)
        return [lift for lift in sized if lift[0] == parts]

    def other_orbit(side2):
        return orbit(memo2, k2, side2)

    return lifts, accepting, other_orbit


def membership_tester(m, orbits=None):
    """A fast membership test for the admissible-weight set of a distinguished
    marked datum: a point is a member when its marked side is accepted by
    some lift (nu, eta) whose eta is the Richardson orbit of its other side.
    On a point of another length the other side's orbit has another size
    than every such eta, so the point is rejected.  `orbits` is the
    Richardson-orbit memo of `_lift_sides`: None for a fresh one, or one memo
    shared by every tester of a run."""
    _, accepting, other_orbit = _lift_sides(m, orbits)
    kind = m.kind

    def test(halves):
        side1, side2 = split_classes(kind, halves)
        return any(other_orbit(side2) == eta for _, _, eta, _ in accepting(side1))

    return test


def dominant_shell(n, bound4):
    """All weakly decreasing nonnegative doubled-integer vectors of length n
    with squared norm (times 4) at most bound4.  The test reference for
    `class_shell`, not package API."""
    out = []

    def rec(prefix, i, cap, budget):
        if i == n:
            out.append(tuple(prefix))
            return
        for v in range(min(cap, isqrt(budget)), -1, -1):
            prefix.append(v)
            rec(prefix, i + 1, v, budget - v * v)
            prefix.pop()

    rec([], 0, isqrt(bound4), bound4)
    return out


def class_shell(n, bound4, parity):
    """All weakly decreasing nonnegative vectors of n doubled coordinates of
    one congruence class (step 2; zeros only in the even class) with squared
    norm (times 4) at most bound4, each paired with that norm."""
    out = []

    def rec(prefix, i, cap, budget):
        if i == n:
            out.append((tuple(prefix), bound4 - budget))
            return
        top = min(cap, isqrt(budget))
        for v in range(top - (top - parity) % 2, -1, -2):
            prefix.append(v)
            rec(prefix, i + 1, v, budget - v * v)
            prefix.pop()

    rec([], 0, isqrt(bound4), bound4)
    return out


class Certificate(namedtuple("Certificate", "datum candidate shell_size shell_minimum")):
    """`shell_size` counts the shell points within the candidate's norm, at
    the class sizes some lift accepts, whether the side check dropped them
    or the membership test confirmed them.  `shell_minimum` is (least norm times 4, dominant minimisers) of
    the admissible points in the candidate's shell; (None, ()) when it holds
    none."""
    __slots__ = ()

    @property
    def passed(self):
        """The candidate is the one admissible point of least norm.  It is
        dominant and on the shell's boundary, so the shell's minimum says
        whether it is a member as well."""
        halves = self.candidate.halves
        return self.shell_minimum == (sum(h * h for h in halves), (halves,))


def verify_min(m, orbits=None):
    """Certify that the weight of a distinguished datum (its staggered
    canonical split) is the unique minimal member of its admissible set, by
    exhaustive enumeration of the dominant shell it cuts out.

    The shell is walked one congruence class at a time, and only at the
    class sizes some lift marking (nu, eta) accepts: |nu|/2 coordinates of
    the mark parity and floor(|eta|/2) of the other.  This is exact: the
    membership test rejects, for every lift, a point whose class sizes are
    not that lift's, so the points left out are points it would reject.
    The lifts a marked vector satisfies are asked once per marked vector,
    and a point is dropped unless its other vector's orbit is the eta of
    one of them; a point that survives is confirmed by `membership_tester`
    before it is recorded.  Every point within the norm bound counts in
    `shell_size`, dropped or not.  `orbits` is the Richardson-orbit memo of
    `_lift_sides`: None for a fresh one, or one memo shared by the data of
    a run."""
    if not is_distinguished_marked(m):
        raise ValueError("certification applies to distinguished data")
    parity = MARK_PARITY[m.kind]
    cand = gamma_la(m)
    lifts, accepting, other_orbit = _lift_sides(m, orbits)
    test = membership_tester(m, orbits)
    bound4 = sum(h * h for h in cand.halves)
    counts = {(n1 // 2, n2 // 2) for _, n1, _, n2 in lifts}
    tested, best, found = 0, None, []
    for a, b in sorted(counts):
        others = sorted(class_shell(b, bound4, 1 - parity), key=lambda pair: pair[1])
        norms = [norm2 for _, norm2 in others]
        for marked, norm1 in class_shell(a, bound4, parity):
            within = bisect_right(norms, bound4 - norm1)
            tested += within
            if not within:
                continue
            accepted = accepting(marked)
            if not accepted:
                continue
            etas = {eta for _, _, eta, _ in accepted}
            for other, norm2 in others[:within]:
                if other_orbit(other) not in etas:
                    continue
                pt = tuple(sorted(marked + other, reverse=True))
                if not test(pt):
                    continue
                norm4 = norm1 + norm2
                if best is None or norm4 < best:
                    best, found = norm4, []
                if norm4 == best:
                    found.append(pt)
    return Certificate(m, cand, tested, (best, tuple(sorted(found, reverse=True))))


def signatures(n, parity):
    """Every multiplicity signature of n doubled coordinates of one congruence
    class: (the multiplicities of the distinct nonzero absolute values,
    largest first; the number of zeros).  Only the even class holds zeros."""
    for zeros in range(n + 1 if parity == 0 else 1):
        for mults in enumerate_partitions(n - zeros):
            yield mults, zeros


def signature_minimiser(mults, zeros, parity):
    """The one dominant vector of least norm with this signature: the values
    must be distinct positive members of the class (1, 3, 5, ... or 2, 4,
    ...), so the least norm takes the smallest ones, and the largest
    multiplicity takes the smallest value."""
    out = []
    for i, q in enumerate(mults):
        out.extend([2 * i + 2 - parity] * q)
    return tuple(reversed(out)) + (0,) * zeros


@lru_cache(maxsize=None)
def _side_table(kind, ambient, parity):
    """{Richardson orbit: (least norm times 4, its dominant minimiser)} over
    the coordinates of one congruence class, for the factor of this kind
    and ambient size.  The orbit depends on the signature alone, so one
    vector per signature decides.  Shared by every caller: read it, never
    write.

    No two signatures tie at an orbit's least norm for any kind and class
    at ambient size at most 61, but nothing proves it: a tie is a
    ValueError naming the factor, the class and the orbit."""
    table = {}
    for mults, zeros in signatures(ambient // 2, parity):
        halves = signature_minimiser(mults, zeros, parity)
        orbit = richardson_zero(kind, halves).parts
        norm4 = sum(h * h for h in halves)
        best = table.get(orbit)
        if best is None or norm4 < best[0]:
            table[orbit] = (norm4, halves)
        elif norm4 == best[0]:
            raise ValueError("%s and %s tie at least norm %d/4 for the orbit %s of %s(%d), "
                             "class %d" % (best[1], halves, norm4, orbit, kind, ambient, parity))
    return table


def signature_minimum(m):
    """(least norm times 4, dominant minimisers) of the admissible set of a
    distinguished datum, with no shell: the minimum over the lift markings
    of the two sides' minima, since a weight is a member for a lift exactly
    when each congruence class has a signature that side accepts.

    No lift is missing from `_side_table`.  A distinguished datum has no
    part of the eps parity (it would be unmarked twice), so nu holds
    distinct parts of the mark parity (an even number in types B and D) and
    eta parts of the other.  A signature (mults, zeros) gives the rows
    2 mu_j + 1 for j <= r and 2 mu_j after, mu the transpose of mults and r
    the residual column, whose collapse is its orbit.  Each side is such an
    orbit.  Type-C nu and eta (even parts): the parts are the rows, with no
    zeros.  Type-B and type-D eta (odd parts): the parts are the rows, r
    their count.  Type-B and type-D nu (odd a_1 > ... > a_2k, on a type-D
    factor): the rows a_1 + 1, a_2 - 1, a_3 + 1, ...  A type-D partition
    between nu and them in dominance is nu with some row pairs (a, b) at
    rows (2i - 1, 2i) raised to (a + 1, b - 1); the even row a + 1 needs
    pair i - 1 raised to repeat, down to the first row, which is never
    repeated.  So nu is the only one, and it is their D-collapse."""
    if not is_distinguished_marked(m):
        raise ValueError("certification applies to distinguished data")
    parity = MARK_PARITY[m.kind]
    k1, k2 = PSEUDO_LEVI[m.kind]
    best, found = None, set()
    for nu in equivalent_markings(m):
        eta = multiset_difference(m.lam, nu)
        norm1, side1 = _side_table(k1, size(nu), parity)[nu]
        norm2, side2 = _side_table(k2, size(eta), 1 - parity)[eta]
        if best is None or norm1 + norm2 < best:
            best, found = norm1 + norm2, set()
        if norm1 + norm2 == best:
            found.add(tuple(sorted(side1 + side2, reverse=True)))
    return best, tuple(sorted(found, reverse=True))


def richardson_pair(m, splits=None, orbits=None):
    """The pseudo-Levi orbit pair read off from the weight of a marked datum:
    split the coordinates by congruence class and induce from zero in the
    Levi each class singles out.  For special data this reproduces the
    saturation route computed in the covers module.

    Two memos serve one run of this route, and neither may feed the route
    it is compared with: `splits`, the core-split memo of the weight
    (`infchar._core_split`), and `orbits`, which maps (factor kind, whole
    side vector) to the side's Richardson orbit.  None means a fresh memo.
    The key is never the side's multiplicity signature."""
    if orbits is None:
        orbits = {}
    side1, side2 = split_classes(m.kind, gamma_la(m, splits).halves)
    pair = []
    for k, side in zip(PSEUDO_LEVI[m.kind], (side1, side2)):
        key = (k, side)
        orbit = orbits.get(key)
        if orbit is None:
            orbit = richardson_zero(k, side)
            orbits[key] = orbit
        pair.append(orbit)
    return tuple(pair)
