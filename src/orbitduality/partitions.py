"""Exact partition arithmetic underlying the classification of nilpotent orbits
in the classical Lie algebras so(2n+1), sp(2n), so(2n).

A partition is stored as a tuple of weakly decreasing positive integers (no
trailing zeros).  Types B/C/D carry a parity invariant epsilon: 0 for the
orthogonal types, 1 for the symplectic one.  A partition is of type B (resp.
C, D) when its size is odd (resp. even, even) and every even (resp. odd,
even) part occurs with even multiplicity.
"""

from itertools import accumulate
from operator import ge

# parity marker: parts congruent to EPSILON[kind] mod 2 are the constrained ones
EPSILON = {"B": 0, "C": 1, "D": 0}
# the parity of the sizes of a kind's partitions: odd exactly in type B
SIZE_PARITY = {"B": 1, "C": 0, "D": 0}


def as_partition(parts):
    """Normalize an iterable of integers to a partition tuple.

    Zeros are dropped; negative or increasing input is rejected.  Input that
    is already weakly decreasing with a positive last part (or empty) is
    returned after one pass; anything else takes the full normalization.
    """
    p = tuple(map(int, parts))
    if (not p or p[-1] > 0) and all(map(ge, p, p[1:])):
        return p
    if any(x < 0 for x in p):
        raise ValueError("partition parts must be nonnegative")
    p = tuple(x for x in p if x > 0)
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    return p


def size(p):
    return sum(p)


def transpose(p):
    """Reflect the Young diagram: result[i] = #{j : p[j] > i}.

    One pointer walks up from the last row as the column index grows, so
    the cost is O(len(p) + p[0]).
    """
    # a generator, not a growing list: the list raised the minimality
    # sweep's peak memory by about 0.3 MiB
    return tuple(_column_lengths(p))


def _column_lengths(p):
    j = len(p)
    for i in range(p[0] if p else 0):
        while p[j - 1] <= i:
            j -= 1
        yield j


def union(p, q):
    """Multiset union: merge the parts of p and q and re-sort."""
    return tuple(sorted(p + q, reverse=True))


def join(p, q):
    """Componentwise sum after zero-padding the shorter partition."""
    n = max(len(p), len(q))
    pp = p + (0,) * (n - len(p))
    qq = q + (0,) * (n - len(q))
    return tuple(a + b for a, b in zip(pp, qq))


def multiplicity(p, x):
    return p.count(x)


def height(p, x):
    """Number of parts >= x; defined whether or not x is a part."""
    if x < 1:
        raise ValueError("height is defined for x >= 1")
    return sum(1 for v in p if v >= x)


def dominates(p, q):
    """Prefix-sum dominance order; only defined between partitions of equal size."""
    if sum(p) != sum(q):
        raise ValueError("dominance compares partitions of equal size only")
    return prefix_dominates(accumulate(p), accumulate(q))


def prefix_dominates(s, t):
    """Dominance of two partitions of one size, read off their prefix sums
    s and t (iterables, as `itertools.accumulate` gives them).

    The common prefix decides: past it, the shorter partition's prefix sum
    is the size, which the other's cannot exceed.
    """
    return all(map(ge, s, t))


def lower_covers(p):
    """The partitions p covers in the dominance order, by Brylawski's rule
    (*The lattice of integer partitions*, 1973): move one box from row i
    down to row j > i, where j = i + 1 or the two rows end up equal.

    Row i must be the last row of its value v.  The box goes to row i + 1
    when that row is at most v - 2 (a new row when it is 0); when it is
    v - 1, it goes past the run of rows of value v - 1 to the first row of
    value v - 2, if there is one.
    """
    q = p + (0,)
    out = []
    for i in range(len(p)):
        v = q[i]
        if q[i + 1] == v:
            continue
        j = i + 1
        if q[j] == v - 1:
            while j < len(q) and q[j] == v - 1:
                j += 1
            if j == len(q) or q[j] != v - 2:
                continue
        # sliced from p: row i keeps v - 1 >= 1 (a row of 1 moves no box),
        # and q[j] is 0 only for the new row past the last
        out.append(p[:i] + (v - 1,) + p[i + 1:j] + (q[j] + 1,) + p[j + 1:])
    return out


def is_type(p, kind):
    """Test the type-B/C/D parity condition (size parity plus multiplicities)."""
    eps = EPSILON[kind]
    if sum(p) % 2 != SIZE_PARITY[kind]:
        return False
    for v in set(p):
        if v % 2 == eps and p.count(v) % 2:
            return False
    return True


def is_very_even(p):
    """All parts even, each with even multiplicity (type D only)."""
    return all(v % 2 == 0 for v in p) and all(p.count(v) % 2 == 0 for v in set(p))


def collapse(p, kind):
    """Largest partition of the given type dominated by p (the X-collapse).

    One pass over the runs of equal rows, from the top.  A run of value v
    of the constrained parity and odd length has its last row lowered to
    v - 1, and that box goes to the first later row of at most v - 2 (a new
    row of 1 when there is none); the walk goes on from the lowered row.  A
    box move makes only values of at most v - 1, so the runs above stay
    fixed, and this is the same as moving a box from the largest offending
    value again and again.
    """
    eps = EPSILON[kind]
    if size(p) % 2 != SIZE_PARITY[kind]:
        raise ValueError("size/kind mismatch: |p|=%d is not a type %s size" % (size(p), kind))
    q = list(p)
    i = 0
    while i < len(q):
        v = q[i]
        j = i + q.count(v)
        if v % 2 != eps or (j - i) % 2 == 0:
            i = j
            continue
        k = j + q.count(v - 1)
        q[j - 1] = v - 1
        if k < len(q):
            q[k] += 1
        else:
            q.append(1)
        i = j - 1
    # no row reaches 0: a bad run of 1s would leave the size of the wrong
    # parity, every run above it being even or of the free parity
    return tuple(q)


def drop_box(p):
    """Remove one box from the last row (the operation l)."""
    if not p:
        raise ValueError("cannot remove a box from the empty partition")
    return as_partition(p[:-1] + (p[-1] - 1,))


def add_unit(p):
    """Append a part equal to 1 (the operation e)."""
    return p + (1,)


def bump_first(p):
    """Add one box to the first row; the empty partition becomes [1]."""
    if not p:
        return (1,)
    return (p[0] + 1,) + p[1:]


def drop_column_box(p):
    """Remove one box from the shortest column (transpose of drop_box)."""
    return transpose(drop_box(transpose(p)))


def uparrow(p):
    """Stagger a multiplicity-free equal-parity partition: +1 on odd rows,
    -1 on even rows (1-based).  Odd length is padded with one trailing zero,
    which then absorbs the -1; this is the convention used for symplectic
    markings, and it grows the size by one.
    """
    if not p:
        return ()
    q = list(p)
    if len(q) % 2 == 1:
        q.append(0)
    if len(set(p)) != len(p):
        raise ValueError("uparrow requires a multiplicity-free partition")
    if len({v % 2 for v in q}) != 1:
        raise ValueError("uparrow parity violation: parts of mixed parity")
    out = []
    for i, v in enumerate(q):
        out.append(v + 1 if i % 2 == 0 else max(v - 1, 0))
    return as_partition(sorted(out, reverse=True))


def uparrow2(q):
    """Two-row box move: [q1, q2] -> [q1 + 1, max(q2 - 1, 0)]."""
    if not 1 <= len(q) <= 2:
        raise ValueError("uparrow2 takes a partition with one or two rows")
    # sum(q[1:]) is the second row, or 0 for a one-row q
    return as_partition((q[0] + 1, max(sum(q[1:]) - 1, 0)))


def enumerate_partitions(n):
    """Yield all partitions of n (largest part first), in reverse lex order.

    Iterative (algorithm ZS1 of Zoghbi and Stojmenovic, 1998): the next
    partition lowers the last part above 1 by one and refills the units it
    and the trailing 1s held, greedily, with parts no larger than the
    lowered one.  x holds the current partition in its first m entries and
    1s after them; h is the index of its last part above 1.
    """
    if n < 0:
        raise ValueError("partitions are of a nonnegative size")
    if n == 0:
        yield ()
        return
    x = [n] + [1] * (n - 1)
    m, h = 1, 0 if n > 1 else -1
    while True:
        yield tuple(x[:m])
        if h < 0:
            return
        if x[h] == 2:
            x[h] = 1
            h -= 1
            m += 1
            continue
        k = x[h] - 1
        t = m - h
        x[h] = k
        while t >= k:
            h += 1
            x[h] = k
            t -= k
        m = h + 1
        if t:
            m += 1
            if t > 1:
                h += 1
                x[h] = t


def enumerate_type(kind, n):
    """Yield all partitions of n of the given classical type, in the reverse
    lex order of `enumerate_partitions`; a generator, as that one is (a list
    built in the same loop was no faster through n = 31).

    Generated, not filtered: a part of the constrained parity is placed two
    rows at a time and any other part one row, so reverse lex order is that
    of the placements.  The first partition fills n greedily; each next one
    lowers the last placement of a part above 1 by one and refills what it
    and the trailing 1s held, greedily, with parts no larger (ZS1 on
    placements).  Every refill completes: in types B and D a 1 is one row,
    and in type C what is left is even.
    """
    if n < 0:
        raise ValueError("partitions are of a nonnegative size")
    if n % 2 != SIZE_PARITY[kind]:
        return
    eps = EPSILON[kind]
    x, rest, top = [], n, n
    while True:
        while rest:
            v = min(top, rest)
            if v % 2 == eps and 2 * v > rest:
                v -= 1
            k = rest // (2 * v) * 2 if v % 2 == eps else rest // v
            x += [v] * k
            rest -= k * v
            top = v - 1
        yield tuple(x)
        ones = x.count(1)
        h = len(x) - ones - 1
        if h < 0:
            return
        v = x[h]
        i = h - 1 if v % 2 == eps else h
        rest = v * (h - i + 1) + ones
        del x[i:]
        top = v - 1


def parse_partition(text):
    """Parse the text form "[5,3,1]"; "[]" is the empty partition."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError("partition text must be bracketed, e.g. [5,3,1]")
    body = s[1:-1].strip()
    if not body:
        return ()
    return as_partition(body.split(","))


def format_partition(p):
    return "[" + ",".join(str(v) for v in p) + "]"
