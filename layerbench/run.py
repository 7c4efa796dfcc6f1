"""Layered benchmark of the exact DSE stack: end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 layerbench/run.py --workload sweep_small --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed,
with every time scaled to reference host speed (see ``calibrate.py``).
``--trace 1`` measures half the time untraced, then installs the layer
wrappers of ``tracer.py`` for the other half and reports the per-layer
metrics plus the tracing overhead.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a human-readable summary.  See
``README.md`` in this directory for every metric's definition.
"""

from time import perf_counter

_SCRIPT_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import HostSpeed  # noqa: E402
from layers import (  # noqa: E402
    PER_LAYER,
    ROADMAP_HEADER,
    all_ops,
    pass_rate,
    per_layer_metrics,
    quantile,
    roadmap_row,
    stat,
)

SRC = Path(__file__).resolve().parent.parent / "src"

#: Set-up is repeated this many times; ``setup_s`` is the import time
#: plus the median repetition, scaled to reference host speed.
SETUP_REPEATS = 3
#: Host-speed kernel runs before and after each set-up repetition.
SETUP_CALIBRATION = 8
#: A run starts no pass after this many seconds, whatever ``--seconds``
#: says, to stay inside the 180 s a run may take.
HARD_STOP_S = 140.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
)

#: Counters that must repeat exactly from pass to pass; a difference
#: means hidden cache leakage or nondeterminism.
EXACT_COUNTERS = ("conflicts", "decisions", "instantiations", "models_enumerated")
EXACT_WORKLOADS = ("sweep_small", "search_heavy")


def cpu_seconds() -> float:
    """CPU time of this process plus its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Runner:
    """Runs passes of one workload and checks every pass as it ends."""

    def __init__(self, workload, speed: HostSpeed) -> None:
        self.workload = workload
        self.speed = speed
        self.pass_index = 0
        self.problems = []
        self.counters_seen = {}
        self.pass_counters = []

    def measure(self, seconds: float, tracer=None, min_passes: int = 1):
        """Run whole passes for about ``seconds`` of pass and calibration time."""
        passes = []
        measured = 0.0
        capacity = getattr(self.workload, "cold_capacity", lambda: None)()
        speed = self.speed
        repeats = self.workload.calibration_repeats
        while True:
            if capacity is not None and self.pass_index >= capacity:
                print("layerbench: cold pool exhausted, stopping early", file=sys.stderr)
                break
            counters_before = self._server_counters()
            first_sample = speed.mark()
            calibrating = speed.sample(repeats)
            in_pass = speed.mark()
            cpu_before = cpu_seconds()
            ops, wall = self.workload.run_pass(
                self.pass_index, tracer, between=lambda: speed.sample(repeats)
            )
            cpu = cpu_seconds() - cpu_before - speed.cpu_since(in_pass)
            calibrating += sum(speed.wall[in_pass:]) + speed.sample(repeats)
            wall_factor, cpu_factor = speed.factors(first_sample)
            self.pass_index += 1
            linear = {}
            if tracer is not None:
                for counters in [op.linear for op in ops] + [tracer.drain_linear()]:
                    for name, value in counters.items():
                        linear[name] = linear.get(name, 0) + value
            record = {
                "ops": ops,
                "wall": wall,
                "cpu": cpu,
                "wall_factor": wall_factor,
                "cpu_factor": cpu_factor,
                "linear": linear,
                "server": self._server_delta(counters_before),
            }
            passes.append(record)
            self._check_pass(record, traced=tracer is not None)
            measured += wall + calibrating
            # Stop at the pass boundary closest to ``seconds``.
            if len(passes) >= min_passes and measured + measured / len(passes) / 2 >= seconds:
                break
            if perf_counter() - _SCRIPT_STARTED > HARD_STOP_S:
                break
        return passes

    def _server_counters(self):
        counters = getattr(self.workload, "server_counters", None)
        return counters() if counters else None

    def _server_delta(self, before):
        if before is None:
            return {}
        after = self._server_counters()
        return {name: after[name] - before.get(name, 0) for name in after}

    def _check_pass(self, record, traced: bool) -> None:
        for op in record["ops"]:
            if not op.ok:
                self.problems.append(f"{op.kind} op {op.key} failed: {op.error}")
        if self.workload.name == "serve_mixed":
            server = record["server"]
            share = (server["cache_hits"] + server["coalesced"]) / server["requests"]
            if share != self.workload.designed_hit_share:
                self.problems.append(
                    f"cache hit rate {share} != designed share {self.workload.designed_hit_share}"
                )
        if self.workload.name not in EXACT_WORKLOADS:
            return
        totals = {counter: 0 for counter in EXACT_COUNTERS}
        for op in record["ops"]:
            if op.stats is None:
                continue
            counters = {counter: stat(op, counter) for counter in EXACT_COUNTERS}
            for counter, value in counters.items():
                totals[counter] += value
            if traced:
                counters["theory.propagations"] = op.linear.get("propagations", 0)
            seen = self.counters_seen.setdefault(op.key, {})
            for counter, value in counters.items():
                if seen.setdefault(counter, value) != value:
                    self.problems.append(
                        f"exact counter {counter} of {op.key} changed between "
                        f"passes: {seen[counter]} -> {value}"
                    )
        self.pass_counters.append(totals)


def end_to_end(passes, setup_s: float, raw_setup_s: float):
    """The end-to-end metrics, plus a summary with the workload-specific ones.

    Times are scaled to reference host speed by each pass's factors; the
    summary also prints them as measured.
    """
    ops = all_ops(passes)
    scaled = [op.latency * record["wall_factor"] for record in passes for op in record["ops"]]
    # Median over passes of each pass's median: one slow op of a pass
    # whose ops differ in size cannot move it.
    pass_p50 = statistics.median(
        statistics.median(op.latency * record["wall_factor"] for op in record["ops"])
        for record in passes
    )
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(
            sum(1 for op in record["ops"] if op.ok) / (record["wall"] * record["wall_factor"])
            for record in passes
        ),
        "latency_ms.p50": pass_p50 * 1000.0,
        "cpu_s_per_op": statistics.median(
            record["cpu"] * record["cpu_factor"] / len(record["ops"]) for record in passes
        ),
        "peak_rss_mb": peak_rss_mb(),
    }
    summary = [(name, metrics[name], unit) for name, unit in END_TO_END]
    summary.append(("error_rate", sum(1 for op in ops if not op.ok) / len(ops), "ratio"))
    if len(ops) >= 100:
        summary.append(("latency_ms.p90", quantile(scaled, 0.9) * 1000.0, "ms"))
    for kind in ("hit", "cold"):
        kind_latencies = [
            op.latency * record["wall_factor"]
            for record in passes for op in record["ops"] if op.kind == kind
        ]
        if kind_latencies:
            summary.append(
                (f"{kind}_latency_ms.p50", statistics.median(kind_latencies) * 1000.0, "ms")
            )
    latencies = [op.latency for op in ops]
    summary += [
        ("host_speed", statistics.median(record["wall_factor"] for record in passes), "x reference"),
        ("as measured: setup_s", raw_setup_s, "s"),
        ("as measured: ops_per_s", pass_rate(passes), "1/s"),
        ("as measured: latency_ms.p50", statistics.median(latencies) * 1000.0, "ms"),
        ("as measured: cpu_s_per_op",
         statistics.median(record["cpu"] / len(record["ops"]) for record in passes), "s"),
    ]
    return metrics, summary


def run_untraced(runner, seconds: float, setup_s: float, raw_setup_s: float):
    passes = runner.measure(seconds)
    metrics, summary = end_to_end(passes, setup_s, raw_setup_s)
    lines = [
        f"{len(passes)} passes, {sum(len(r['ops']) for r in passes)} ops, "
        f"{sum(r['wall'] for r in passes):.2f} s measured",
        "pass walls: " + " ".join(f"{r['wall']:.3f}" for r in passes),
        "pass cpu:   " + " ".join(f"{r['cpu']:.3f}" for r in passes),
    ]
    lines += [f"  {name} = {value:.6g} {unit}" for name, value, unit in summary]
    return passes, metrics, END_TO_END, lines


def run_traced(runner, seconds: float):
    from repro.asp.control import clear_ground_cache, ground_cache_info
    from tracer import Tracer

    workload = runner.workload
    untraced = runner.measure(seconds / 2)
    tracer = Tracer()
    cache_before = ground_cache_info()
    tracer.install()
    if getattr(workload, "server", None) is not None:
        tracer.trace_server(workload.server)
    try:
        # Two traced passes at least, so traced counters can repeat.
        traced = runner.measure(seconds / 2, tracer, min_passes=2)
    finally:
        tracer.uninstall()
    cache_after = ground_cache_info()
    ground_cache = {key: cache_after[key] - cache_before[key] for key in ("hits", "misses")}
    sequential = None
    if workload.name == "parallel_split":
        sequential = workload.sequential_conflicts()
    metrics = per_layer_metrics(
        workload, traced, tracer, pass_rate(untraced), ground_cache, sequential
    )
    lines = [f"{len(untraced)} untraced + {len(traced)} traced passes"]
    lines += [f"  {name} = {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER]
    if workload.name == "search_heavy":
        curated = workload.curated_entries()
        lines += ["ROADMAP breakdown, warm ground cache (medians of traced passes):", ROADMAP_HEADER]
        lines += [
            roadmap_row(key, [op for r in traced for op in r["ops"] if op.key == key])
            for key, _spec, _reference in curated
        ]
        lines += ["ROADMAP breakdown, cold ground cache (one run each):", ROADMAP_HEADER]
        cold = Tracer()
        cold.install()
        try:
            for entry in curated:
                clear_ground_cache()
                lines.append(roadmap_row(entry[0], [workload.run_entry(*entry, cold)]))
        finally:
            cold.uninstall()
    return untraced + traced, metrics, PER_LAYER, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"layerbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    imported = perf_counter() - _SCRIPT_STARTED
    if args.workload not in WORKLOADS:
        print(f"layerbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    speed = HostSpeed()
    runner = Runner(workload, speed)
    try:
        setups = []
        first_sample = speed.mark()
        for _ in range(SETUP_REPEATS):
            speed.sample(SETUP_CALIBRATION)
            started = perf_counter()
            workload.setup()
            setups.append(perf_counter() - started)
        speed.sample(SETUP_CALIBRATION)
        raw_setup_s = imported + statistics.median(setups)
        setup_s = raw_setup_s * speed.factors(first_sample)[0]
        if args.trace:
            passes, metrics, units, lines = run_traced(runner, args.seconds)
        else:
            passes, metrics, units, lines = run_untraced(
                runner, args.seconds, setup_s, raw_setup_s
            )
    finally:
        workload.close()
    lines.append(
        f"set-up as measured: imports {imported:.3f} s, repetitions "
        + " ".join(f"{seconds:.3f}" for seconds in setups) + " s"
    )
    if runner.pass_counters:
        lines.append(f"exact counters per pass: {runner.pass_counters[0]}")
    for problem in runner.problems:
        print(f"layerbench: FAIL: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("\n".join(lines))
    ops = all_ops(passes)
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op.ok),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
