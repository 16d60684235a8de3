import json

import pytest

from orbitduality import verify
from orbitduality.cli import main
from orbitduality.covers import MSLift, RigidityFlags
from orbitduality.infchar import Weight
from orbitduality.orbits import Orbit


def test_registry_at_rank_5_gives_the_acceptance_ranges():
    params = {name: params(5, None) for name, (_, params) in verify.SUITES.items()}
    assert params == {
        "minimality": {"max_rank": 5, "jobs": None},
        "gamma": {"max_rank": 5},
        "duality": {"max_rank": 6},
        "rigidity": {"max_rank": 5},
        "gamma-group": {"max_rank": 5},
        "richardson": {"max_rank": 5},
        "tables": {},
        "kernel": {"max_size": 14, "max_rank": 6},
    }


def test_verify_all_max_rank_sets_every_suite(capsys):
    assert main(["--json", "verify", "all", "--max-rank", "3", "--jobs", "1"]) == 0
    reports = json.loads(capsys.readouterr().out)
    direct = [
        verify.verify_minimality(max_rank=3, jobs=1),
        verify.verify_gamma(max_rank=3),
        verify.verify_duality(max_rank=4),
        verify.verify_rigidity(max_rank=3),
        verify.verify_gamma_group(max_rank=3),
        verify.verify_richardson(max_rank=3),
        verify.verify_point_values(),
        verify.verify_kernel(max_size=10, max_rank=4),
    ]
    assert reports == json.loads(json.dumps(direct, sort_keys=True, default=str))


def _wrong_weight(*args):
    return Weight("C", (99,))


# suite -> (a name in the verify module, a broken stand-in that makes one of
# the suite's checks fail)
BREAKS = {
    "minimality": ("signature_minimum", lambda m: (0, ())),
    "gamma": ("gamma_rigid_cover", _wrong_weight),
    "duality": ("bvls_dual", lambda o: o),
    "rigidity": ("rigidity", lambda base, sub: RigidityFlags(False, True)),
    "gamma-group": ("abar_r_rank", lambda m: -1),
    "richardson": ("ms_lift", lambda m: MSLift(Orbit("B", 1, (1,)), Orbit("B", 1, (1,)))),
    "tables": ("gamma_la", _wrong_weight),
    "kernel": ("abar_rank", lambda lam, kind: -1),
}


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_failure_records_replay(monkeypatch, capsys, suite):
    """Every failure is a {check, datum, detail} record, printed as one
    `check datum <detail as JSON>` line, whose datum a CLI verb accepts:
    `gamma` for a marked partition, `bvls-dual` for an orbit."""
    assert set(BREAKS) == set(verify.SUITES)
    monkeypatch.setattr(verify, *BREAKS[suite])
    argv = ["verify", suite, "--max-rank", "2", "--jobs", "1"]
    assert main(["--json"] + argv) == 1
    [report] = json.loads(capsys.readouterr().out)
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert report["failures"] and len(lines) == 1 + min(len(report["failures"]), 10)
    for record, line in zip(report["failures"], lines[1:]):
        assert line == "  %s %s %s" % (record["check"], record["datum"],
                                       json.dumps(record["detail"], sort_keys=True))
    for record in report["failures"]:
        assert set(record) == {"check", "datum", "detail"}
        verb = "gamma" if "<" in record["datum"] else "bvls-dual"
        assert main([verb, record["datum"]]) == 0, record
    capsys.readouterr()
