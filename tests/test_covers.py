from orbitduality.orbits import Orbit, parse_orbit
from orbitduality.compgroups import MarkedPartition, a_group_elements, parse_marked, span
from orbitduality.sommers import sat_inverse, sat_la, sommers_dual
from orbitduality.covers import (
    abar_r_rank, d_map, gamma_group_rank, lusztig_cover, ms_lift, phi_data,
    _step_flags, _transport_subgroup, rigidity, saturation_chain, singular_rows,
)
from orbitduality.infchar import nu0_eta0
from orbitduality.partitions import is_very_even
from orbitduality.verify import iter_reduced_marked, iter_special


def test_lusztig_cover_and_rigidity():
    cov = lusztig_cover(parse_orbit("C:[2,2,2,1,1]"))
    assert cov.degree == 1
    flags = rigidity(cov.base, cov.subgroup)
    assert flags.no_codim2_leaves and flags.h2_zero and flags.birationally_rigid


def test_rigidity_h2_needs_support():
    # a repeated unconstrained value forces an element through it
    o = parse_orbit("D:[3,3]")
    trivial_cover = span([frozenset({3})])     # the whole group: trivial cover
    universal = {frozenset()}
    assert rigidity(o, trivial_cover).h2_zero
    assert not rigidity(o, universal).h2_zero


def test_rigidity_leaf_criterion():
    # a gap of 2 at the constrained (odd) parity of type C is a leaf
    assert not rigidity(Orbit("C", 8, (3, 3, 1, 1)), {frozenset()}).no_codim2_leaves
    # the gap of 2 below 4 in C:[4,2] is a leaf unless the subgroup misses {4,2}
    o = Orbit("C", 6, (4, 2))
    assert frozenset({4, 2}) in a_group_elements(o)
    assert not rigidity(o, frozenset(a_group_elements(o))).no_codim2_leaves
    assert rigidity(o, {frozenset()}).birationally_rigid


def test_rigidity_zero_orbit():
    o = parse_orbit("C:[1,1,1,1]")
    assert rigidity(o, {frozenset()}).birationally_rigid


def test_singular_rows():
    assert singular_rows((4, 2)) == (1, 2)
    assert singular_rows((2, 2, 2, 1, 1)) == ()


def test_phi_data():
    # two columns of length 1 removed from [4,2]: the created involution
    # falls onto the value below the cut; the kernel is the pull-back of the
    # identity
    o = Orbit("C", 6, (4, 2))
    mapping = phi_data((4, 2), "C", 1)
    assert mapping[4] == frozenset({2}) and mapping[2] == frozenset({2})
    assert _transport_subgroup(o, 1, {frozenset()}) == span([frozenset({4, 2})])
    # bottom-row removal sends the involution to the identity
    mapping = phi_data((4, 2), "C", 2)
    assert mapping[2] == frozenset()
    assert _transport_subgroup(o, 2, {frozenset()}) == span([frozenset({2})])


def test_d_map_witness():
    cover = d_map(parse_marked("B:<[5,1]>[5,4,4,3,1]"))
    assert cover.base == parse_orbit("C:[4,4,4,2,2]")
    assert cover.degree == 2 and cover.subgroup is None


def test_saturation_chain_witness():
    m = parse_marked("B:<[5,1]>[5,4,4,3,1]")
    core_dual, steps = saturation_chain(m)
    assert core_dual == parse_orbit("C:[2,2,2,1,1]")
    [step] = steps
    assert step.a == 4 and str(step.datum) == "B:<[5,1]>[5,3,1]"
    assert step.induced.orbit == d_map(m).base and not step.induced.birational
    # a distinguished datum is its own core: no steps
    assert saturation_chain(step.datum) == (core_dual, [])


def test_d_map_distinguished_identity():
    cover = d_map(parse_marked("B:<[5,1]>[5,3,1]"))
    assert cover.base.parts == (2, 2, 2, 1, 1)
    assert cover.degree == 1 and cover.subgroup is not None


def test_ms_lift_examples():
    lift = ms_lift(parse_marked("C:<[2]>[2,2]"))
    assert (lift.factor1.kind, lift.factor1.parts) == ("C", (2,))
    assert (lift.factor2.kind, lift.factor2.parts) == ("C", (2,))
    lift = ms_lift(parse_marked("B:<[5,1]>[5,4,4,3,1]"))
    assert (lift.factor1.kind, lift.factor1.parts) == ("D", (5, 4, 4, 3))
    assert (lift.factor2.kind, lift.factor2.parts) == ("B", (1,))


def test_rank_routes():
    m = parse_marked("B:<[5,1]>[5,3,1]")
    assert gamma_group_rank(m) == abar_r_rank(m) == 0
    witness = parse_marked("B:<[5,1]>[5,4,4,3,1]")
    assert gamma_group_rank(witness) == 1
    assert abar_r_rank(witness) == 0


def _flags(a, m):
    return _step_flags(a, m.lam, m.kind, *nu0_eta0(m))


def test_step_analysis():
    flags = _flags(4, parse_marked("B:<[5,1]>[5,3,1]"))
    assert not flags.abar_changes and not flags.bind_birational
    flags = _flags(5, parse_marked("B:<[5,1]>[5,3,1]"))
    assert not flags.abar_changes and flags.bind_birational
    core = MarkedPartition("D", (3, 1), ())
    flags = _flags(5, core)
    assert flags.abar_changes == (not flags.bind_birational)


def test_step_equivalence_on_special_data():
    for kind, n in (("B", 9), ("C", 8), ("D", 8)):
        for m in iter_special(kind, n):
            for step in saturation_chain(m)[1]:
                flags = _flags(step.a, step.datum)
                assert flags.abar_changes != flags.bind_birational, (str(m), step.a)


def test_d_map_subgroup_index_matches_degree():
    from orbitduality.compgroups import group_data
    for kind, n in (("B", 9), ("C", 8), ("D", 8)):
        for m in iter_special(kind, n):
            cover = d_map(m)
            if cover.subgroup is None:
                continue
            order = 2 ** group_data(cover.base).a_rank
            assert order // len(cover.subgroup) == cover.degree, str(m)


def test_rank_order_independence():
    from orbitduality.orbits import induce
    from orbitduality.compgroups import group_data

    def rank_with(m, reverse):
        gl, cur = sat_inverse(m)
        dual = sommers_dual(cur)
        total = group_data(dual).a_ad_rank
        for a in sorted(gl, reverse=reverse):
            step = induce([(1,) * a], dual)
            total += 0 if step.birational else 1
            cur = sat_la([(a,)], cur)
            dual = sommers_dual(cur)
        return total

    for kind, n in (("B", 9), ("C", 8), ("D", 8)):
        for m in iter_special(kind, n):
            assert rank_with(m, True) == rank_with(m, False)


def _decorated_reduced_data(max_size):
    """Every decorated reduced datum of size at most max_size: a very even
    type-D partition, whose reduced marking is empty, with each decoration."""
    return [MarkedPartition("D", m.lam, m.nu, dec)
            for n in range(2, max_size + 1, 2) for m in iter_reduced_marked("D", n)
            if is_very_even(m.lam) for dec in ("I", "II")]


def test_decorated_data_saturate_back_from_their_cores():
    data = _decorated_reduced_data(16)
    assert len(data) == 22
    for m in data:
        gl, core = sat_inverse(m)
        assert sat_la([(a,) for a in gl], core) == m, str(m)


def test_d_map_base_of_a_decorated_datum_is_its_dual():
    for m in _decorated_reduced_data(16):
        assert d_map(m).base == sommers_dual(m), str(m)
