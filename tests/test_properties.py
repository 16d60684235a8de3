"""Property tests beyond the ranges the exhaustive suites reach: special
data of ranks 10-16, distinguished or saturated from a distinguished core,
orbits of ranks 10-20, partitions of sizes 20-40.  Draws are derandomized and bounded, so the run is
deterministic and short."""

import itertools
from functools import lru_cache

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from orbitduality.partitions import (
    EPSILON, collapse, dominates, enumerate_type, is_type, lower_covers, transpose,
)
from orbitduality.orbits import Orbit, bvls_dual, format_orbit, parse_orbit
from orbitduality.compgroups import (
    MarkedPartition,
    format_marked,
    is_distinguished_marked,
    is_special_marked,
    markable_parts,
    parse_marked,
)
from orbitduality.covers import ChainTable, chain_degree, chain_rank, saturation_chain
from orbitduality.infchar import gamma_la, nu0_eta0
from orbitduality.oracle import signature_minimum
from orbitduality.sommers import sat_la, sommers_dual
from orbitduality.verify import iter_special_distinguished

RANKS = range(10, 17)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=15,
                    suppress_health_check=[HealthCheck.too_slow])


def _size(kind, rank):
    return 2 * rank + 1 if kind == "B" else 2 * rank


def _distinguished_lams(kind, n, top=None):
    """Partitions of n whose parts all have the markable parity, each at
    most twice: the only ones a distinguished marking can have."""
    if n == 0:
        yield ()
        return
    parity = 1 - EPSILON[kind]
    top = n if top is None else top
    for v in range(top - (top - parity) % 2, 0, -2):
        for mult in (1, 2):
            if mult * v <= n:
                for rest in _distinguished_lams(kind, n - mult * v, v - 2):
                    yield (v,) * mult + rest


@lru_cache(maxsize=None)
def special_distinguished(kind, n):
    """Every reduced special distinguished marked datum of one type and size,
    built from the distinguished partitions alone (no full enumeration)."""
    out = []
    for lam in _distinguished_lams(kind, n):
        if not is_type(lam, kind):
            continue
        marks = markable_parts(lam, kind)
        for r in range(0, len(marks) + 1, 2 if kind in ("B", "D") else 1):
            for nu in itertools.combinations(marks, r):
                m = MarkedPartition(kind, lam, tuple(sorted(nu, reverse=True)))
                if is_distinguished_marked(m) and is_special_marked(m):
                    out.append(m)
    return out


@st.composite
def data(draw):
    kind = draw(st.sampled_from("BCD"))
    n = _size(kind, draw(st.sampled_from(RANKS)))
    return draw(st.sampled_from(special_distinguished(kind, n)))


def test_generator_matches_the_suite_enumeration():
    for kind in "BCD":
        for rank in range(2 if kind == "D" else 1, 8):
            n = _size(kind, rank)
            ours = special_distinguished(kind, n)
            assert len(set(ours)) == len(ours)
            assert set(ours) == set(iter_special_distinguished(kind, n))


@PROPERTY
@given(data())
def test_signature_certificate_passes(m):
    assert signature_minimum(m)[1] == (gamma_la(m).halves,)


@PROPERTY
@given(data())
def test_marked_text_round_trips(m):
    assert parse_marked(format_marked(m)) == m


@PROPERTY
@given(data())
def test_dual_routes_agree(m):
    general = sommers_dual(m, "general")
    assert sommers_dual(m, "blocks") == general
    assert sommers_dual(m, "distinguished") == general


@st.composite
def partitions(draw, sizes):
    """A partition of a size drawn from `sizes`, part by part."""
    rest = draw(st.sampled_from(sizes))
    parts = []
    while rest:
        parts.append(draw(st.integers(1, min(rest, parts[-1] if parts else rest))))
        rest -= parts[-1]
    return tuple(parts)


@lru_cache(maxsize=None)
def typed(kind, n):
    return tuple(enumerate_type(kind, n))


@PROPERTY
@given(partitions(range(20, 31)), st.sampled_from("CD"))
def test_collapse_is_the_typed_maximum(p, even_kind):
    # one pass over the typed partitions of the size, no quadratic maximum
    kind = "B" if sum(p) % 2 else even_kind
    top = collapse(p, kind)
    assert is_type(top, kind) and dominates(p, top)
    assert all(dominates(top, q) for q in typed(kind, sum(p)) if dominates(p, q))


@PROPERTY
@given(partitions(range(20, 41)))
def test_transpose_counts_the_rows_past_each_column(p):
    cols = transpose(p)
    assert cols == tuple(sum(1 for x in p if x > i) for i in range(p[0]))
    assert transpose(cols) == p


@st.composite
def same_size_pairs(draw):
    n = draw(st.sampled_from(range(20, 41)))
    return draw(partitions([n])), draw(partitions([n]))


@PROPERTY
@given(same_size_pairs())
def test_dominates_compares_every_prefix_sum(pair):
    p, q = pair
    width = max(len(p), len(q))
    prefix = [(sum(p[:i]), sum(q[:i])) for i in range(1, width + 1)]
    assert dominates(p, q) == all(a >= b for a, b in prefix)
    # transposition reverses the dominance order
    assert dominates(p, q) == dominates(transpose(q), transpose(p))
    for cover in lower_covers(p):
        assert dominates(p, cover) and not dominates(cover, p)


@st.composite
def saturated(draw):
    """A special datum of rank 10-16 with gl factors: a special
    distinguished core saturated by the principal orbits of a drawn
    partition."""
    kind = draw(st.sampled_from("BCD"))
    n = _size(kind, draw(st.sampled_from(RANKS)))
    gl = draw(partitions(range(1, n // 2 + 1)))
    cores = special_distinguished(kind, n - 2 * sum(gl))
    assume(cores)
    m = sat_la([(a,) for a in gl], draw(st.sampled_from(cores)))
    assume(is_special_marked(m))
    return m


@PROPERTY
@given(saturated())
def test_chain_table_agrees_with_the_walked_chain(m):
    # CHAIN_CROSS_CHECK_RANK stops the suite's cross-check at rank 6
    table = ChainTable()
    entered = table.fill(m)
    entry = table.entries[m]
    core_dual, steps = saturation_chain(m)
    assert steps and entered[-1] == (m, steps[-1])
    assert entry.dual == steps[-1].induced.orbit
    assert entry.rank == chain_rank(core_dual, steps)
    assert 2 ** entry.degree_log2 == chain_degree(core_dual, steps)
    assert entry.split == nu0_eta0(m)


@st.composite
def orbits(draw):
    """An orbit of rank 10-20: a drawn partition collapsed to the type, with
    a drawn decoration when it is very even of type D."""
    kind = draw(st.sampled_from("BCD"))
    n = _size(kind, draw(st.sampled_from(range(10, 21))))
    lam = collapse(draw(partitions([n])), kind)
    very_even = kind == "D" and all(v % 2 == 0 and lam.count(v) % 2 == 0 for v in lam)
    return Orbit(kind, n, lam, draw(st.sampled_from(["I", "II"])) if very_even else None)


@PROPERTY
@given(orbits())
def test_orbit_duality_cubes_to_itself(o):
    d = bvls_dual(o)
    assert bvls_dual(bvls_dual(d)) == d
    assert parse_orbit(format_orbit(o)) == o


@PROPERTY
@given(partitions(range(5, 11)), st.sampled_from(["I", "II"]))
def test_very_even_text_round_trips(half, decoration):
    # a very even partition of rank 10-20: the parts of `half`, doubled,
    # each twice; its only marking is the empty one
    lam = tuple(2 * v for v in half for _ in range(2))
    m = MarkedPartition("D", lam, (), decoration)
    assert format_marked(m).endswith(decoration)
    assert parse_marked(format_marked(m)) == m
