"""Fixed spec catalogue of the layered benchmark, with stored reference fronts.

Every workload draws its inputs from this catalogue.  The ``--seed``
argument never picks *which* instances run; it renames every entity with
a seeded prefix and shuffles the op order.  Prefix renaming preserves
the lexicographic order of all names, so the solver follows the same
search trajectory (identical conflicts, decisions and front) while the
program text, and with it every text-keyed cache, is new.  That keeps the
work of a run independent of the seed, which is what lets ten seeds agree
within the benchmark's bounds, and it lets the exact front of every op
be checked against ``reference.json``.

``reference.json`` holds, per catalogue key, a digest of the generated
specification and the sorted front vectors of the sequential explorer.
A digest mismatch means the generator drifted and the references are
stale: the benchmark refuses to run instead of reporting wrong fronts as
failures.  Regenerate with ``python3 layerbench/make_reference.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.synthesis.io import specification_to_dict
from repro.synthesis.model import (
    Application,
    Architecture,
    Link,
    MappingOption,
    Message,
    Resource,
    Specification,
    Task,
)
from repro.workloads.curated import curated
from repro.workloads.generator import WorkloadConfig, generate_specification

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

Vector = Tuple[int, ...]


def _mesh(tasks: int, seed: int) -> WorkloadConfig:
    return WorkloadConfig(tasks=tasks, seed=seed, platform="mesh", platform_size=(2, 2))


def _bus(tasks: int, seed: int) -> WorkloadConfig:
    return WorkloadConfig(tasks=tasks, seed=seed, platform="bus", platform_size=(4, 0))


#: 32 small sweep specs: twice the 16-entry ground cache, so a cyclic
#: pass never gets a ground-cache hit.  Ops take 20-300 ms sequentially.
SWEEP_CONFIGS: Tuple[WorkloadConfig, ...] = tuple(
    _mesh(tasks, seed) for tasks in (3, 4, 5) for seed in range(8)
) + tuple(_bus(6, seed) for seed in range(8))

#: Search-dominated ops, 0.8-2.2 s sequentially: the two large curated
#: instances plus two generated mesh specs with 7 tasks.
SEARCH_CURATED: Tuple[str, ...] = ("network_firewall", "mesh_symmetric")
SEARCH_CONFIGS: Tuple[WorkloadConfig, ...] = (_mesh(7, 2), _mesh(7, 4))

#: Ops that take 1-2 s sequentially and 0.3-1.4 s with ``jobs=2``.
PARALLEL_CONFIGS: Tuple[WorkloadConfig, ...] = (
    _mesh(8, 0),
    _mesh(8, 1),
    _mesh(7, 0),
    _mesh(7, 8),
    _mesh(8, 2),
    _mesh(7, 9),
)

#: Served repeatedly; solved once in set-up so every request hits.
SERVE_HIT_CONFIGS: Tuple[WorkloadConfig, ...] = tuple(_mesh(4, seed) for seed in range(6))

#: Cold served requests: each is used at most once per run, so the pool
#: bounds how many cold requests one run can make.
SERVE_COLD_COUNT = 800
SERVE_COLD_CONFIGS: Tuple[WorkloadConfig, ...] = tuple(
    _mesh(3, 1000 + index) for index in range(SERVE_COLD_COUNT)
)


def catalogue_key(entry) -> str:
    """Reference key of a catalogue entry (curated name or config name)."""
    return entry if isinstance(entry, str) else entry.name()


def build_spec(entry) -> Specification:
    """The unrenamed specification of a catalogue entry."""
    if isinstance(entry, str):
        return curated(entry)
    return generate_specification(entry)


def spec_digest(spec: Specification) -> str:
    text = json.dumps(specification_to_dict(spec), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def all_entries() -> List[object]:
    """Every catalogue entry, in a fixed order (for reference generation)."""
    return [
        *SWEEP_CONFIGS,
        *SEARCH_CURATED,
        *SEARCH_CONFIGS,
        *PARALLEL_CONFIGS,
        *SERVE_HIT_CONFIGS,
        *SERVE_COLD_CONFIGS,
    ]


class References:
    """Stored reference fronts, keyed by catalogue key."""

    def __init__(self, path: Path = REFERENCE_PATH) -> None:
        data = json.loads(path.read_text())
        self._entries: Dict[str, Dict[str, object]] = data["entries"]

    def load(self, entry) -> Tuple[Specification, List[Vector]]:
        """Build ``entry``, check it against its digest, return its front."""
        key = catalogue_key(entry)
        stored = self._entries.get(key)
        if stored is None:
            raise RuntimeError(f"no reference front for {key}; run make_reference.py")
        spec = build_spec(entry)
        if spec_digest(spec) != stored["digest"]:
            raise RuntimeError(
                f"catalogue entry {key} no longer matches its reference "
                "digest (the generator changed); run make_reference.py"
            )
        return spec, [tuple(vector) for vector in stored["front"]]


def front_vectors(front: Sequence[Sequence[int]]) -> List[Vector]:
    return sorted(tuple(vector) for vector in front)


def _renamed(spec: Specification, names: Dict[str, str]) -> Specification:
    name = names.__getitem__
    application = Application(
        tuple(Task(name(task.name), task.deadline) for task in spec.application.tasks),
        tuple(
            Message(
                name(message.name),
                name(message.source),
                name(message.target),
                message.size,
                tuple(name(target) for target in message.extra_targets),
            )
            for message in spec.application.messages
        ),
    )
    architecture = Architecture(
        tuple(Resource(name(res.name), res.cost) for res in spec.architecture.resources),
        tuple(
            Link(name(link.name), name(link.source), name(link.target), link.delay, link.energy)
            for link in spec.architecture.links
        ),
    )
    mappings = tuple(
        MappingOption(name(option.task), name(option.resource), option.wcet, option.energy)
        for option in spec.mappings
    )
    return Specification(application, architecture, mappings)


def _entity_names(spec: Specification) -> List[str]:
    return [
        *(task.name for task in spec.application.tasks),
        *(message.name for message in spec.application.messages),
        *(res.name for res in spec.architecture.resources),
        *(link.name for link in spec.architecture.links),
    ]


def prefixed(spec: Specification, prefix: str) -> Specification:
    """Rename every entity to ``prefix + name`` (order-preserving)."""
    return _renamed(spec, {name: prefix + name for name in _entity_names(spec)})


def scrambled(spec: Specification, tag: str) -> Specification:
    """An isomorphic twin whose names sort in a different order.

    The serving layer's canonical digest must map it onto the same cache
    entry as the original; its front vectors are unchanged.
    """
    names = _entity_names(spec)
    return _renamed(
        spec, {name: f"{tag}{len(names) - i}_{name}" for i, name in enumerate(names)}
    )


def seeded_rng(seed: int, workload: str, salt: object = "") -> random.Random:
    return random.Random(f"layerbench-{workload}-{seed}-{salt}")
