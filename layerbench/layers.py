"""Per-layer metrics of a traced run, computed from its passes.

A pass record is a dict with ``ops`` (``workloads.Op``), ``wall``,
``cpu``, ``linear`` (summed ``LinearPropagator`` counters) and ``server``
(the ``DseServer`` counter deltas of the pass).  Times are ms per op that
ran a solve, counts are per-pass totals (median over passes), ratios are
over all traced ops; see ``README.md`` for each metric.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

PER_LAYER = (
    ("synthesis.encode_ms", "ms"),
    ("synthesis.decode_ms", "ms"),
    ("asp.parse_ms", "ms"),
    ("asp.ground_ms", "ms"),
    ("asp.instantiations", "count"),
    ("asp.tightness_ms", "ms"),
    ("asp.translate_ms", "ms"),
    ("asp.init_ms", "ms"),
    ("asp.ground_cache_hit_rate", "ratio"),
    ("asp.ground_phase_share", "ratio"),
    ("asp.boolean_ms", "ms"),
    ("asp.conflicts", "count"),
    ("asp.decisions", "count"),
    ("asp.propagations", "count"),
    ("asp.propagations_per_s", "1/s"),
    ("asp.clause_db_bytes", "B"),
    ("theory.linear_ms", "ms"),
    ("theory.propagate_calls", "count"),
    ("theory.useful_call_ratio", "ratio"),
    ("theory.bound_updates", "count"),
    ("theory.propagations", "count"),
    ("theory.conflicts", "count"),
    ("dse.dominance_ms", "ms"),
    ("dse.models_enumerated", "count"),
    ("dse.model_yield", "ratio"),
    ("dse.archive_comparisons", "count"),
    ("dse.pruned_partial", "count"),
    ("dse.untimed_ms", "ms"),
    ("parallel.cubes_executed", "count"),
    ("parallel.steals", "count"),
    ("parallel.resplits", "count"),
    ("parallel.archive_delta_bytes", "B"),
    ("parallel.dedup_skips", "count"),
    ("parallel.conflict_ratio", "ratio"),
    ("parallel.worker_busy_share", "ratio"),
    ("serve.admit_ms", "ms"),
    ("serve.canonicalize_ms", "ms"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.solve_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.loop_lag_ms.p90", "ms"),
    ("serve.protocol_errors", "count"),
    ("serve.hit_latency_ms.p50", "ms"),
    ("serve.cold_latency_ms.p50", "ms"),
    ("trace.overhead_share", "ratio"),
)

GROUND_PHASE = ("asp.parse", "asp.ground", "asp.tightness", "asp.translate", "asp.init")
#: Wrapper-timed layers of an ``explore()`` op (in the calling process).
OP_LAYERS = ("synthesis.encode", "synthesis.decode") + GROUND_PHASE
#: Wrapper-timed layers that make up a cold served request.
REQUEST_LAYERS = ("serve.admit", "serve.canonicalize", "synthesis.encode", "serve.solve")


def stat(op, name: str, default=0):
    """A DseStatistics field of an op (object for explore, dict if served)."""
    stats = op.stats
    if stats is None:
        return default
    if isinstance(stats, dict):
        return stats.get(name, default)
    return getattr(stats, name, default)


def quantile(values, fraction: float) -> float:
    """Linear-interpolation quantile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def all_ops(passes) -> list:
    return [op for record in passes for op in record["ops"]]


def pass_rate(passes) -> float:
    """Median over passes of correctly completed ops per second."""
    return statistics.median(
        sum(1 for op in record["ops"] if op.ok) / record["wall"] for record in passes
    )


def per_layer_metrics(
    workload,
    passes,
    tracer,
    untraced_rate: float,
    ground_cache: Dict[str, int],
    sequential_conflicts: Optional[Dict[str, int]] = None,
) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER` for the traced ``passes``."""
    ops = all_ops(passes)
    served = workload.name == "serve_mixed"
    solved = [op for op in ops if op.stats is not None]
    n_solved = max(1, len(solved))
    if served:
        # Requests overlap, so use the tracer's totals, not per-op deltas.
        layers = dict(tracer.seconds)
    else:
        layers = {}
        for op in ops:
            for layer, seconds in op.layers.items():
                layers[layer] = layers.get(layer, 0.0) + seconds

    def ms_per_solve(layer: str) -> float:
        return layers.get(layer, 0.0) * 1000.0 / n_solved

    def total(name: str):
        return sum(stat(op, name) for op in solved)

    def per_pass(name: str):
        return statistics.median(
            sum(stat(op, name) for op in record["ops"]) for record in passes
        )

    def linear_per_pass(name: str):
        return statistics.median(record["linear"].get(name, 0) for record in passes)

    def ratio(numerator, denominator) -> float:
        return numerator / denominator if denominator else 0.0

    jobs = getattr(workload, "jobs", 1)
    latency = sum(op.latency for op in solved)
    boolean = total("time_boolean_propagation")
    theory = total("time_theory_propagation")
    dominance = total("time_dominance")
    ground_phase = sum(layers.get(layer, 0.0) for layer in GROUND_PHASE)
    linear_calls = sum(record["linear"].get("propagate_calls", 0) for record in passes)
    linear_useful = sum(record["linear"].get("useful_calls", 0) for record in passes)
    # Worker-side search time of a parallel op runs on ``jobs`` workers.
    untimed = latency - sum(layers.get(layer, 0.0) for layer in OP_LAYERS)
    untimed -= (boolean + theory) / jobs

    metrics = {
        "synthesis.encode_ms": ms_per_solve("synthesis.encode"),
        "synthesis.decode_ms": ms_per_solve("synthesis.decode"),
        "asp.parse_ms": ms_per_solve("asp.parse"),
        "asp.ground_ms": ms_per_solve("asp.ground"),
        "asp.instantiations": per_pass("instantiations"),
        "asp.tightness_ms": ms_per_solve("asp.tightness"),
        "asp.translate_ms": ms_per_solve("asp.translate"),
        "asp.init_ms": ms_per_solve("asp.init"),
        "asp.ground_cache_hit_rate": ratio(
            ground_cache["hits"], ground_cache["hits"] + ground_cache["misses"]
        ),
        "asp.ground_phase_share": ratio(ground_phase, latency),
        "asp.boolean_ms": boolean * 1000.0 / n_solved,
        "asp.conflicts": per_pass("conflicts"),
        "asp.decisions": per_pass("decisions"),
        "asp.propagations": per_pass("propagations"),
        "asp.propagations_per_s": ratio(total("propagations"), boolean),
        "asp.clause_db_bytes": max((stat(op, "clause_db_bytes") for op in solved), default=0),
        "theory.linear_ms": (theory - dominance) * 1000.0 / n_solved,
        "theory.propagate_calls": linear_per_pass("propagate_calls"),
        "theory.useful_call_ratio": ratio(linear_useful, linear_calls),
        "theory.bound_updates": linear_per_pass("bound_updates"),
        "theory.propagations": linear_per_pass("propagations"),
        "theory.conflicts": linear_per_pass("conflicts"),
        "dse.dominance_ms": dominance * 1000.0 / n_solved,
        "dse.models_enumerated": per_pass("models_enumerated"),
        "dse.model_yield": ratio(total("pareto_points"), total("models_enumerated")),
        "dse.archive_comparisons": per_pass("archive_comparisons"),
        "dse.pruned_partial": per_pass("pruned_partial"),
        "dse.untimed_ms": untimed * 1000.0 / n_solved,
        "parallel.cubes_executed": per_pass("cubes_executed"),
        "parallel.steals": per_pass("steals"),
        "parallel.resplits": per_pass("resplits"),
        "parallel.archive_delta_bytes": per_pass("archive_delta_bytes"),
        "parallel.dedup_skips": per_pass("archive_dedup_skips"),
        "parallel.conflict_ratio": 0.0,
        "parallel.worker_busy_share": 0.0,
        "trace.overhead_share": 1.0 - pass_rate(passes) / untraced_rate,
    }
    if sequential_conflicts:
        sequential = sum(sequential_conflicts[op.key] for op in solved)
        busy = sum(worker["wall_time"] for op in solved for worker in stat(op, "per_worker", []))
        metrics["parallel.conflict_ratio"] = ratio(total("conflicts"), sequential)
        metrics["parallel.worker_busy_share"] = ratio(busy, jobs * latency)
    metrics.update(serve_metrics(workload, passes, tracer) if served else SERVE_IDLE)
    return metrics


SERVE_IDLE = {
    name: 0.0 for name, _unit in PER_LAYER if name.startswith("serve.")
}


def serve_metrics(workload, passes, tracer) -> Dict[str, float]:
    """The ``serve.*`` metrics and the request-level ``dse.untimed_ms``."""
    ops = all_ops(passes)
    server: Dict[str, int] = {}
    for record in passes:
        for name, value in record["server"].items():
            server[name] = server.get(name, 0) + value
    colds = [op for op in ops if op.kind == "cold" and op.ok]
    hits = [op for op in ops if op.kind == "hit" and op.ok]
    # A cold request's own admit, canonicalize, encode and solve, found by
    # the first task name its spec carries; the rest of its latency waited.
    waits = [
        op.latency
        - sum(tracer.by_spec.get((layer, op.request_key), 0.0) for layer in REQUEST_LAYERS)
        for op in colds
    ]
    seconds = tracer.seconds
    request_layers = sum(seconds.get(layer, 0.0) for layer in REQUEST_LAYERS)
    return {
        "serve.admit_ms": seconds.get("serve.admit", 0.0) * 1000.0 / len(ops),
        "serve.canonicalize_ms": seconds.get("serve.canonicalize", 0.0) * 1000.0 / len(ops),
        "serve.cache_hit_rate": (server["cache_hits"] + server["coalesced"]) / server["requests"],
        "serve.solve_ms": seconds.get("serve.solve", 0.0) * 1000.0
        / max(1, tracer.calls.get("serve.solve", 0)),
        "serve.queue_wait_ms": statistics.mean(waits) * 1000.0 if waits else 0.0,
        "serve.loop_lag_ms.p90": quantile(workload.lag, 0.9) * 1000.0,
        "serve.protocol_errors": server["protocol_errors"],
        "serve.hit_latency_ms.p50": statistics.median(op.latency for op in hits) * 1000.0,
        "serve.cold_latency_ms.p50": statistics.median(op.latency for op in colds) * 1000.0,
        "dse.untimed_ms": (sum(op.latency for op in ops) - request_layers) * 1000.0 / len(ops),
    }


ROADMAP_HEADER = (
    "| instance | end-to-end | ground phase (reported grounding_seconds) "
    "| boolean | theory (incl. dominance) | not covered by any timer |"
)


def roadmap_row(name: str, ops: List) -> str:
    """One row in the units of the ROADMAP baseline table (medians)."""

    def median(values):
        return statistics.median(list(values))

    def share(op, *names):
        return sum(stat(op, name) for name in names) / op.latency

    ground = median(sum(op.layers.get(layer, 0.0) for layer in GROUND_PHASE) for op in ops)
    untimed = median(
        1.0
        - sum(op.layers.get(layer, 0.0) for layer in OP_LAYERS) / op.latency
        - share(op, "time_boolean_propagation", "time_theory_propagation")
        for op in ops
    )
    return (
        f"| {name} | {median(op.latency for op in ops):.3f} s "
        f"| {ground * 1000:.0f} ms ({median(stat(op, 'grounding_seconds') for op in ops) * 1000:.0f} ms) "
        f"| {median(share(op, 'time_boolean_propagation') for op in ops):.0%} "
        f"| {median(share(op, 'time_theory_propagation') for op in ops):.0%} "
        f"| {untimed:.0%} |"
    )
