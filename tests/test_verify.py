import json

from orbitduality import verify
from orbitduality.cli import main


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
