"""Infinitesimal characters as exact half-integer weight vectors.

Coordinates are stored doubled (as integers), so every norm is an exact
rational with denominator dividing 4.  The Weyl group acts by signed
permutations in types B and C and by evenly-signed permutations in type D.
"""

from collections import namedtuple

from .partitions import EPSILON, as_partition, size, transpose, union, uparrow
from .orbits import DUAL_KIND, Checked
from .compgroups import MARK_PARITY, MarkedPartition, canonical_split
from .sommers import _strip_tuples


class Weight(Checked, namedtuple("Weight", "kind halves")):
    """A vector in the weight space, with doubled integer coordinates."""
    __slots__ = ()

    def __new__(cls, kind, halves):
        return tuple.__new__(cls, (kind, tuple(int(h) for h in halves)))

    def __str__(self):
        return format_weight(self)


def rho_plus(q, length):
    """Doubled positive string entries of q: each part v contributes
    v-1, v-3, ..., down to 1 or 2; padded with zeros to the given length."""
    out = []
    for v in q:
        out.extend(range(v - 1, 0, -2))
    out.sort(reverse=True)
    if len(out) > length:
        raise ValueError("rho_plus of %s needs %d slots, given %d"
                         % (q, len(out), length))
    return tuple(out) + (0,) * (length - len(out))


def f_transform(q, eps):
    """Box smoothing: move a box up at every gap >= 2 starting at an odd row
    (eps = 0) or an even row (eps = 1); for eps = 1 also grow the first row.
    The empty partition maps to [1] when eps = 1.
    """
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")
    if not q:
        return (1,) if eps == 1 else ()
    out = list(q) + [0]
    start = 0 if eps == 0 else 1
    for i in range(start, len(out) - 1, 2):
        nxt = out[i + 1]
        if out[i] >= nxt + 2:
            out[i] -= 1
            out[i + 1] += 1
    if eps == 1:
        out[0] += 1
    return as_partition(out)


def split_by_multiplicity(q):
    """(multiplicity-1 rows, multiplicity-2 rows); higher multiplicity is an error."""
    ones, twos = [], []
    for v in sorted(set(q), reverse=True):
        m = q.count(v)
        if m == 1:
            ones.append(v)
        elif m == 2:
            twos.extend((v, v))
        else:
            raise ValueError("part %d has multiplicity %d > 2" % (v, m))
    return tuple(ones), tuple(twos)


def spread_pairs(y):
    """Replace every pair [v, v] with [v+1, v-1], dropping zeros."""
    out = []
    for v in sorted(set(y), reverse=True):
        if y.count(v) != 2:
            raise ValueError("input must consist of multiplicity-2 parts")
        out.extend((v + 1, v - 1))
    return as_partition(sorted(out, reverse=True))


def gamma_rigid_cover(orbit):
    """Infinitesimal character attached to a birationally rigid cover of the
    orbit, from the columns of its partition."""
    cols = transpose(orbit.parts)
    x, y = split_by_multiplicity(cols)
    parts = union(spread_pairs(y), f_transform(x, EPSILON[orbit.kind]))
    return Weight(orbit.kind, rho_plus(parts, orbit.ambient // 2))


def _core_split(m, splits=None):
    """(stripped gl sizes, nu0, eta0): the canonical split of the
    distinguished core of a marked datum.

    `splits` memoizes the split of each core as {(kind, core rows, marks):
    (nu0, eta0)}, for one run of one route: many data strip to one core.
    None means a fresh memo.  The core rows come from the scan of
    `sat_inverse`, and the core is built, validated and split only when its
    key is missing."""
    gl, core = _strip_tuples(m)
    if splits is None:
        splits = {}
    key = (m.kind, core, m.nu)
    split = splits.get(key)
    if split is None:
        split = canonical_split(MarkedPartition(m.kind, core, m.nu))
        splits[key] = split
    return (gl,) + split


def _route_pair(kind, split, a):
    """The split (nu0, eta0) with one (a, a) pair added: to the unmarked side
    when a has the marking parity, to the marked side otherwise."""
    nu0, eta0 = split
    if a % 2 == MARK_PARITY[kind]:
        return nu0, union(eta0, (a, a))
    return union(nu0, (a, a)), eta0


def nu0_eta0(m, splits=None):
    """Minimal-weight split of a marked partition: the split of its
    distinguished core extended by one routed pair per stripped gl factor.
    `splits` is the core-split memo of `_core_split`."""
    gl, nu0, eta0 = _core_split(m, splits)
    split = nu0, eta0
    for a in gl:
        split = _route_pair(m.kind, split, a)
    return split


def gamma_la(m, splits=None):
    """Infinitesimal character of a marked datum: positive string entries of
    the staggered core split plus one full string per stripped gl factor.
    `splits` is the core-split memo of `_core_split`."""
    gl, nu0, eta0 = _core_split(m, splits)
    parts = union(uparrow(nu0) if nu0 else (), eta0)
    for a in gl:
        parts = union(parts, (a, a))
    return Weight(DUAL_KIND[m.kind], rho_plus(parts, size(m.lam) // 2))


def format_weight(w):
    def fmt(h):
        return str(h // 2) if h % 2 == 0 else "%d/2" % h
    return "(" + ",".join(fmt(h) for h in w.halves) + ")"
