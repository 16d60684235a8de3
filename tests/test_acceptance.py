"""Acceptance suite: the eight headline checks, exhaustive at desk scale
with exact arithmetic (every tolerance is exact equality).

Each test prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see them, or `orbitduality verify all` for the CLI equivalent.
"""

import pytest

from orbitduality import verify


def report(criterion, rep):
    status = "PASS" if rep["passed"] else "FAIL"
    print("criterion %s [%s]: %s (%d checks)" % (criterion, rep["name"], status,
                                                 rep["checked"]))
    assert rep["passed"], rep["failures"][:10]


def test_criterion_1_minimality():
    # every special distinguished marked datum of so(m) m <= 11, sp(2n) n <= 5,
    # so(2n) n <= 5 has its candidate weight certified as the unique minimal
    # member of its admissible set by the signature route, and the exhaustive
    # shell gives the same least norm and minimisers
    report("1", verify.verify_minimality(max_rank=5))


def test_criterion_2_gamma_consistency():
    # the datum weight equals the rigid-cover weight of its dual, same range
    report("2", verify.verify_gamma(max_rank=5))


def test_criterion_3_duality_identities():
    # d^3 = d and order reversal for ambient <= 13 (on lower covers, and on
    # all pairs through size 12); unmarked duals agree with the orbit
    # duality; route agreement; injectivity on special distinguished
    report("3", verify.verify_duality(max_rank=6))


def test_criterion_4_rigidity():
    # the quotient cover of every special distinguished dual is rigid
    report("4", verify.verify_rigidity(max_rank=5))


@pytest.fixture(scope="module")
def gamma_group_report():
    return verify.verify_gamma_group(max_rank=5)


def test_criterion_5_galois_ranks(gamma_group_report):
    # both Galois-rank routes agree on special data; per-step criteria are
    # equivalent and match the birationality of each induction step of the
    # chain; unmarked dual covers have the canonical-quotient degree.  Types
    # B and C are the stated gate; type D goes beyond it
    report("5", gamma_group_report)


def test_criterion_5_galois_ranks_type_d(gamma_group_report):
    # beyond the stated gate: the same run covers every special datum of type
    # D and none of them fails
    type_d = [m for m in verify._data(verify.iter_special, 5) if m.kind == "D"]
    failures = [f for f in gamma_group_report["failures"]
                if f["datum"].startswith("D:")]
    print("criterion 5d [%s, type D]: %s (%d checks)"
          % (gamma_group_report["name"], "FAIL" if failures else "PASS",
             len(type_d)))
    assert type_d
    assert gamma_group_report["checked"] == len(verify._data(verify.iter_special, 5))
    assert not failures, failures[:10]


def test_criterion_6_richardson_vs_saturation():
    # the weight-coordinate orbit pair equals the saturation pair on special
    # data, and fails on the non-special witness exactly as documented
    report("6", verify.verify_richardson(max_rank=5))


def test_criterion_7_point_values_and_tables():
    # source point values, exceptional tables, the G2/F4 subsystem
    # classifications and lattice-shell minimality on the Cartan-generated
    # root systems, Galois-table rank consistency
    report("7", verify.verify_point_values())


def test_criterion_8_combinatorial_kernel():
    # collapse equals the typed dominance maximum up to size 14, found by
    # induction over lower covers and, through size 12, by brute force too;
    # component-group orders match markable counts; two-row norm inequality
    report("8", verify.verify_kernel(max_size=14, max_rank=6))
