"""Benchmark-side tracing: wrappers around calls into each layer.

Nothing here edits the program.  :class:`Tracer` patches a name where its
caller looks it up (``parse_program`` on ``repro.asp.control``,
``decode_model`` on ``repro.dse.explorer``, ``admit`` on
``repro.serve.server``, ...), accumulates wall time per layer, and
restores every name on :meth:`Tracer.uninstall`.  Counters the program
already reports (``DseStatistics``, ``LinearPropagator`` counters,
``ground_cache_info()``, ``DseServer.stats()``) are read by the
workloads; the tracer only adds what has no counter: time per layer and
the propagate calls of the linear theory propagator.

Wrapper times are wall times.  In ``serve_mixed`` two solve threads share
the interpreter lock, so a layer's time includes waiting for the lock.
Forked ``parallel_split`` workers run the wrappers too, but their timings
stay in the worker process; that workload reads its worker-side layers
from ``DseStatistics.per_worker``.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import repro.asp.control as asp_control
import repro.asp.ground as asp_ground
import repro.dse.explorer as dse_explorer
import repro.serve.server as serve_server
import repro.synthesis.encoding as synthesis_encoding
import repro.theory.linear as theory_linear


def spec_key(spec) -> Optional[str]:
    """The first task name: unique per cold served request."""
    tasks = getattr(getattr(spec, "application", None), "tasks", ())
    return tasks[0].name if tasks else None


class Tracer:
    """Installs the layer wrappers and accumulates their measurements."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        #: layer -> accumulated wall seconds / call count.
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: (layer, spec key) -> seconds, for layers whose first argument
        #: identifies the request (serve attribution of cold requests).
        self.by_spec: Dict[Tuple[str, str], float] = defaultdict(float)
        #: Linear propagators built while installed, for their counters.
        self.linear: List[object] = []

    # -- bookkeeping ---------------------------------------------------------

    def _add(self, layer: str, elapsed: float, key: Optional[str] = None) -> None:
        with self._lock:
            self.seconds[layer] += elapsed
            self.calls[layer] += 1
            if key is not None:
                self.by_spec[(layer, key)] += elapsed

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return dict(self.seconds)

    def drain_linear(self) -> Dict[str, int]:
        """Summed counters of the linear propagators built since the last
        drain; drops them so finished solves can be freed."""
        totals = defaultdict(int)
        with self._lock:
            propagators, self.linear = self.linear, []
        for propagator in propagators:
            totals["propagate_calls"] += propagator._bench_calls
            totals["useful_calls"] += propagator._bench_useful
            totals["bound_updates"] += propagator.bound_updates
            totals["propagations"] += propagator.theory_propagations
            totals["conflicts"] += propagator.theory_conflicts
        return dict(totals)

    # -- patching --------------------------------------------------------------

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, layer: str, function: Callable, keyed: bool = False) -> Callable:
        add = self._add

        def wrapper(*args, **kwargs):
            started = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                key = spec_key(args[0]) if keyed and args else None
                add(layer, perf_counter() - started, key)

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        timed = self._timed
        self._patch(dse_explorer, "encode", timed("synthesis.encode", dse_explorer.encode, True))
        # The server imports encode inside a function, from this module.
        self._patch(
            synthesis_encoding,
            "encode",
            timed("synthesis.encode", synthesis_encoding.encode, True),
        )
        self._patch(dse_explorer, "decode_model", timed("synthesis.decode", dse_explorer.decode_model))
        self._patch(dse_explorer, "validate", timed("synthesis.decode", dse_explorer.validate))
        self._patch(asp_control, "parse_program", timed("asp.parse", asp_control.parse_program))
        self._patch(asp_control, "translate", timed("asp.translate", asp_control.translate))
        self._patch(asp_control, "Grounder", self._timed_grounder(asp_control.Grounder))
        tight = asp_ground.GroundProgram.__dict__["is_tight"]
        self._patch(
            asp_ground.GroundProgram,
            "is_tight",
            property(timed("asp.tightness", tight.fget)),
        )
        linear_cls = theory_linear.LinearPropagator
        self._patch(linear_cls, "init", timed("asp.init", linear_cls.init))
        dominance_cls = dse_explorer.DominancePropagator
        self._patch(dominance_cls, "init", timed("asp.init", dominance_cls.init))
        self._patch(linear_cls, "__init__", self._recording_init(linear_cls.__init__))
        self._patch(linear_cls, "propagate", self._counting_propagate(linear_cls.propagate))
        self._patch(serve_server, "admit", timed("serve.admit", serve_server.admit, True))
        self._patch(
            serve_server,
            "canonicalize_specification",
            timed("serve.canonicalize", serve_server.canonicalize_specification, True),
        )

    def trace_server(self, server) -> None:
        """Time the solves of one ``DseServer`` (an instance attribute)."""
        solve = server._solve_blocking
        add = self._add

        def traced(job):
            started = perf_counter()
            try:
                return solve(job)
            finally:
                add("serve.solve", perf_counter() - started, spec_key(job.spec))

        server._solve_blocking = traced
        self._patches.append((server, "_solve_blocking", None))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- wrapper factories -----------------------------------------------------

    def _timed_grounder(self, grounder_cls):
        add = self._add

        class TimedGrounder(grounder_cls):
            """Times construction (domain analysis) and the fixpoint."""

            def __init__(self, *args, **kwargs):
                started = perf_counter()
                super().__init__(*args, **kwargs)
                add("asp.ground", perf_counter() - started)

            def ground(self):
                started = perf_counter()
                try:
                    return super().ground()
                finally:
                    add("asp.ground", perf_counter() - started)

        return TimedGrounder

    def _recording_init(self, original_init):
        tracer = self

        def __init__(propagator, *args, **kwargs):
            original_init(propagator, *args, **kwargs)
            propagator._bench_calls = 0
            propagator._bench_useful = 0
            with tracer._lock:
                tracer.linear.append(propagator)

        return __init__

    @staticmethod
    def _counting_propagate(original_propagate):
        def propagate(propagator, solver, changes):
            before = (
                propagator.theory_propagations
                + propagator.bound_updates
                + propagator.theory_conflicts
            )
            try:
                return original_propagate(propagator, solver, changes)
            finally:
                propagator._bench_calls = getattr(propagator, "_bench_calls", 0) + 1
                if (
                    propagator.theory_propagations
                    + propagator.bound_updates
                    + propagator.theory_conflicts
                    != before
                ):
                    propagator._bench_useful = getattr(propagator, "_bench_useful", 0) + 1

        return propagate
