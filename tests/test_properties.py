"""Property tests on special distinguished data of ranks 10-16, beyond the
range the exhaustive shell can reach.  Draws are derandomized and bounded,
so the run is deterministic and short."""

import itertools
from functools import lru_cache

from hypothesis import HealthCheck, given, settings, strategies as st

from orbitduality.partitions import EPSILON, is_type
from orbitduality.compgroups import (
    MarkedPartition,
    format_marked,
    is_distinguished_marked,
    is_special_marked,
    markable_parts,
    parse_marked,
)
from orbitduality.infchar import gamma_la
from orbitduality.oracle import signature_minimum
from orbitduality.sommers import sommers_dual
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
