"""Duality on marked partitions: the extension of the B/C/D orbit duality to
pairs (orbit, class in the canonical quotient), their saturation along Levi
subalgebras and its inverse, and block decompositions.

A reduced marked partition of type B (resp. C, D) is sent to an orbit of the
dual family C (resp. B, D).  Three routes compute the same partition: the
general closed formula, a shortcut through the minimal-weight marking of a
distinguished datum, and a join over a block decomposition.
"""

from .partitions import (
    EPSILON,
    as_partition,
    bump_first,
    collapse,
    drop_box,
    drop_column_box,
    format_partition,
    is_type,
    join,
    size,
    transpose,
    union,
    uparrow,
)
from .orbits import dual_orbit, saturate
from .compgroups import (
    MarkedPartition,
    canonical_split,
    is_reduced,
    markable_parts,
    multiset_difference,
)


def require_reduced(m):
    if not is_reduced(m):
        raise ValueError("%s is not reduced (some mark is not markable)" % (m,))


def _dual_partition_general(kind, nu, eta):
    if kind == "B":
        return collapse(transpose(union(nu, collapse(drop_box(eta), "C"))), "C")
    if kind == "C":
        return collapse(transpose(union(nu, collapse(bump_first(eta), "B"))), "B")
    return collapse(transpose(union(nu, transpose(collapse(transpose(eta), "D")))), "D")


def _dual_partition_distinguished(m):
    nu0, eta0 = canonical_split(m)
    if m.kind == "B":
        return transpose(union(nu0, collapse(drop_box(eta0), "C")))
    if m.kind == "C":
        return transpose(union(nu0, collapse(bump_first(eta0), "B")))
    return transpose(union(nu0, uparrow(eta0)))


def _dual_partition_blocks(m, block_duals=None):
    """The join of the general duals of m's blocks, with one column box
    dropped from every type-C block but the last.  `block_duals`, when
    given, maps a block tuple (kind, lam, nu) to its general dual and is
    filled as blocks are met; the decomposition, the drop and the join are
    still done for every datum."""
    # the empty datum has no blocks; it is its own unmarked block
    blocks = _block_tuples(m) or [(m.kind, m.lam, m.nu)]
    if block_duals is None:
        block_duals = {}
    duals = []
    for block in blocks:
        d = block_duals.get(block)
        if d is None:
            kind, lam, nu = block
            d = block_duals[block] = _dual_partition_general(
                kind, nu, multiset_difference(lam, nu))
        duals.append(d)
    if m.kind == "C":
        duals = [drop_column_box(d) for d in duals[:-1]] + [duals[-1]]
    out = ()
    for d in duals:
        out = join(out, d)
    return as_partition(out)


def sommers_dual(m, route="general"):
    """The dual orbit of a reduced marked partition, by the requested route."""
    require_reduced(m)
    return _sommers_dual(m, route)


def _sommers_dual(m, route, block_duals=None):
    """`sommers_dual` without the reducedness check, for callers whose data
    are reduced by construction.  `block_duals` is passed on to the blocks
    route (`_dual_partition_blocks`)."""
    if route == "general":
        parts = _dual_partition_general(m.kind, m.nu, m.eta)
    elif route == "distinguished":
        parts = _dual_partition_distinguished(m)
    elif route == "blocks":
        parts = _dual_partition_blocks(m, block_duals)
    else:
        raise ValueError("unknown route %r" % (route,))
    return dual_orbit(m.kind, size(m.lam), m.decoration, parts)


# ---------------------------------------------------------------------------
# block decompositions


def _block_type(kind, index):
    """Type of the index-th block (0-based) of a type-`kind` decomposition."""
    if kind == "B":
        return "B" if index == 0 else "D"
    return kind


def _is_basic_or_unmarked(m, block_kind, lam, nu, last):
    """A block of the datum m is admissible when unmarked, or when its marks
    are exactly the smallest part together with the largest part of
    markable height (in type C the latter alone is allowed in the final
    block).

    A marked block of a reduced datum has its marks as markable parts.  It
    spans whole runs of values after the rows of the blocks before it, an
    even number of rows (a type-D block has even size, so its odd parts and
    its even parts pair up; a type-C block before the last is even by
    `_valid_block`), but odd after the type-B first block of a type-B datum,
    which has odd size.  So a mark keeps the parity of its height, or in the
    type-D blocks of a type-B datum flips it from the odd that type B asks
    to the even that type D asks.  A marked block with no markable part thus
    means a datum that is not reduced, which the public entry points reject;
    here it is a ValueError naming it."""
    if not nu:
        return True
    markables = markable_parts(lam, block_kind)
    if not markables:
        raise ValueError("%s is not reduced: the marks %s of its block %s are not markable"
                         % (m, format_partition(nu), format_partition(lam)))
    top = markables[0]
    if m.kind == "C" and len(nu) == 1:
        return last and nu == (top,)
    return len(nu) == 2 and nu[0] == top and nu[1] == lam[-1]


def _valid_block(m, index, lam, nu, last):
    kind = m.kind
    block_kind = _block_type(kind, index)
    if not is_type(lam, block_kind):
        return False
    if kind == "C" and not last and len(lam) % 2 == 1:
        return False
    if kind == "C" and not last and len(nu) % 2 == 1:
        return False
    return _is_basic_or_unmarked(m, block_kind, lam, nu, last)


def block_decompose(m):
    """Split a reduced marked partition into basic or unmarked blocks.

    Each block is the shortest valid run of distinct part values starting
    where the last one ended, so the decomposition is valid; a ValueError
    names a datum where no run fits.  A backtracking search over longer runs
    (the tests' reference) gives the same blocks on all 22,605 reduced data
    through rank 15, and its separation check, an even (B/D) or odd (C)
    integer in range(lower[0], upper[-1] + 1), always holds: consecutive
    blocks hold distinct values.
    """
    require_reduced(m)
    return [MarkedPartition(*block) for block in _block_tuples(m)]


def _block_tuples(m):
    """The scan of `block_decompose` on a reduced datum, each block as a
    tuple (kind, lam, nu)."""
    lam, nu, kind = m.lam, m.nu, m.kind
    # the rows of the i-th largest value are lam[cuts[i]:cuts[i + 1]]
    cuts = [i for i in range(len(lam) + 1) if i in (0, len(lam)) or lam[i] != lam[i - 1]]
    count = len(cuts) - 1
    blocks, start = [], 0
    while start < count:
        index = len(blocks)
        for stop in range(start + 1, count + 1):
            block_lam = lam[cuts[start]:cuts[stop]]
            block_nu = tuple(v for v in nu if block_lam[-1] <= v <= block_lam[0])
            if _valid_block(m, index, block_lam, block_nu, stop == count):
                break
        else:
            raise ValueError("no block decomposition found for %s" % (m,))
        blocks.append((_block_type(kind, index), block_lam, block_nu))
        start = stop
    return blocks


# ---------------------------------------------------------------------------
# saturation of marked data


def sat_la(gl_orbits, core):
    """Saturate a marked partition: its orbit is saturated
    (`orbits.saturate`) and the marks are unchanged."""
    orbit = saturate(gl_orbits, core.orbit)
    return MarkedPartition(orbit.kind, orbit.parts, core.nu, orbit.decoration)


def sat_inverse(m):
    """Strip gl pairs until the marking is distinguished.

    Every value of the constrained parity is removed entirely (it occurs in
    pairs), and any other value keeps one row if unmarked with odd
    multiplicity, its marked row plus one more if marked with even
    multiplicity, and so on, leaving multiplicity-free marks and remainders.
    Returns (gl sizes, distinguished core), an empty core keeping a decorated
    datum's decoration; principal gl orbits of those sizes restore the input.
    """
    gl, core_lam = _strip_tuples(m)
    return gl, MarkedPartition(m.kind, core_lam, m.nu, m.decoration)


def _strip_tuples(m):
    """The scan of `sat_inverse`: (gl sizes, core rows), both decreasing
    tuples, from one pass over the runs of m's rows."""
    lam, nu, eps = m.lam, m.nu, EPSILON[m.kind]
    gl, core = (), ()
    i, n = 0, len(lam)
    while i < n:
        v, j = lam[i], i + 1
        while j < n and lam[j] == v:
            j += 1
        if v % 2 == eps:
            keep = 0
        else:
            marked = 1 if v in nu else 0
            keep = marked + (j - i - marked) % 2
        gl += lam[i:i + (j - i - keep) // 2]
        core += lam[i:i + keep]
        i = j
    return gl, core
