"""Golden schema of the exploration statistics.

``DseResult.to_dict()["statistics"]`` and its ``per_worker`` entries are
read by the serve cache payloads, the layered benchmark and the bench
harness, so their keys are pinned here: the ordered statistics keys, the
key set of a per-worker entry, and agreement of the instance-level
fields between the sequential and the parallel explorer.
"""

import json

import pytest

from repro.dse.explorer import explore
from repro.workloads.curated import curated

STATISTICS_KEYS = [
    "models_enumerated",
    "pareto_points",
    "pruned_partial",
    "pruned_total",
    "conflicts",
    "decisions",
    "propagations",
    "restarts",
    "clause_db_bytes",
    "solver_core",
    "archive_comparisons",
    "wall_time",
    "interrupted",
    "epsilon",
    "time_boolean_propagation",
    "time_theory_propagation",
    "time_dominance",
    "grounding_seconds",
    "instantiations",
    "delta_rounds",
    "ground_cache_hit",
    "grounds",
    "steals",
    "resplits",
    "cubes_executed",
    "archive_delta_bytes",
    "archive_dedup_skips",
    "lint_seconds",
    "lint_errors",
    "lint_warnings",
    "lint_infos",
    "symmetry_mode",
    "symmetry_applied",
    "symmetry_generators",
    "symmetry_order",
    "symmetry_orbits",
    "symmetry_constraints",
    "symmetry_seconds",
    "domain_mode",
    "domain_applied",
    "domain_predicates",
    "domain_widenings",
    "domain_pruned",
    "domain_rules_skipped",
    "domain_seconds",
    "per_worker",
]

PER_WORKER_KEYS = {
    "archive_comparisons",
    "clause_db_bytes",
    "conflicts",
    "cubes",
    "decisions",
    "dedup_skips",
    "delta_bytes",
    "grounding_seconds",
    "grounds",
    "injected",
    "interrupted",
    "models_enumerated",
    "pareto_points_local",
    "propagations",
    "pruned_partial",
    "pruned_total",
    "restarts",
    "solver_core",
    "steals",
    "time_boolean_propagation",
    "time_dominance",
    "time_theory_propagation",
    "wall_time",
    "worker",
}

INSTANCE_OPTIONS = {"symmetry": "auto", "domain_bounds": "on"}


@pytest.fixture(scope="module")
def sequential():
    return explore(curated("auto_engine"), **INSTANCE_OPTIONS)


@pytest.fixture(scope="module")
def parallel():
    return explore(
        curated("auto_engine"), jobs=2, backend="inline", **INSTANCE_OPTIONS
    )


def test_statistics_keys_in_declaration_order(sequential, parallel):
    assert list(sequential.to_dict()["statistics"]) == STATISTICS_KEYS
    assert list(parallel.to_dict()["statistics"]) == STATISTICS_KEYS
    json.dumps(parallel.to_dict())


def test_per_worker_key_set(sequential, parallel):
    assert sequential.to_dict()["statistics"]["per_worker"] == []
    entries = parallel.to_dict()["statistics"]["per_worker"]
    assert [entry["worker"] for entry in entries] == [0, 1]
    for entry in entries:
        assert set(entry) == PER_WORKER_KEYS


def test_instance_fields_agree_across_explorers(sequential, parallel):
    instance_keys = [
        key
        for key in STATISTICS_KEYS
        if key.startswith(("symmetry_", "domain_"))
        or key in ("instantiations", "delta_rounds")
    ]
    instance_keys = [key for key in instance_keys if not key.endswith("_seconds")]
    seq = sequential.to_dict()["statistics"]
    par = parallel.to_dict()["statistics"]
    assert {key: par[key] for key in instance_keys} == {
        key: seq[key] for key in instance_keys
    }
    # The options really exercised both analyses.
    assert seq["symmetry_mode"] == "auto" and seq["domain_mode"] == "on"
    assert seq["instantiations"] > 0
    assert parallel.vectors() == sequential.vectors()
