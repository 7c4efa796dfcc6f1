"""Parallel exact Pareto enumeration: subspace splitting + shared archive.

The sequential :class:`~repro.dse.explorer.ExactParetoExplorer` already
enumerates the exact front; this module splits the *design space* into
disjoint subspaces and explores them with cooperating workers:

1. **Guiding-path partition** — the encoding introduces an exactly-one
   ``bind(T, R)`` choice per task, so fixing the bindings of the first
   ``k`` branching tasks yields a partition of the design space into
   disjoint *cubes* (:func:`derive_cubes`).  Every implementation lies in
   exactly one cube, hence the union of the per-cube Pareto fronts,
   filtered for dominance (:func:`~repro.dse.pareto.non_dominated_union`),
   is the exact global front regardless of how cubes are distributed.

2. **Elastic scheduling** — cubes live in per-worker deques managed by
   :class:`~repro.dse.scheduler.CubeScheduler`: idle workers steal from
   the busiest deque, queues are ordered by estimated hypervolume
   contribution against the current archive, and cubes that exceed a
   conflict budget are split one binding level deeper and re-queued
   (``schedule="stealing"``, the default).  ``schedule="static"``
   restores the original fixed round-robin shares.

3. **Workers** — each worker reuses the parent's ground program and
   explores the cubes it is handed through assumption-based incremental
   solving; learned clauses, dominance-pruning clauses, and the Pareto
   archive all remain sound across cubes because they are consequences
   of the (cube independent) program plus archive points.

4. **Archive deltas** — workers publish incremental batches of new
   non-dominated points (:class:`~repro.dse.scheduler.ArchiveDelta`, a
   compact struct-packed vector batch); foreign deltas are injected into
   the local :class:`~repro.dse.explorer.DominancePropagator` archive
   between solver calls, after an O(1) hash dedup of vectors the worker
   has already seen.  Injection can only *prune*: a partial assignment
   is cut exactly when an archive point weakly dominates its objective
   lower bound, and archive points are objective vectors of feasible
   implementations, so anything pruned is weakly dominated globally and
   cannot contribute a new front vector.  Because weak dominance
   includes equality, a worker whose candidate ties a foreign vector
   skips a duplicate, never a missing vector.  Solving is *chunked* by a
   per-call conflict budget so workers deep in an UNSAT proof still
   synchronize.

Exactness therefore does not depend on scheduling: stealing, priority
reordering, re-splitting, and delta injection may only change *when*
pruning happens, never *what* the merged front contains, so the merged
front is bit-for-bit the sequential front for any worker count, split
depth, steal order, re-split budget, or interleaving (property-tested in
``tests/test_parallel.py``; exactness argument in ``docs/PARALLEL.md``).
"""

from __future__ import annotations

import operator
import queue
import traceback
from dataclasses import fields
from itertools import product
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.asp.control import Control
from repro.asp.ground import GroundProgram
from repro.dse.explorer import (
    DseResult,
    DseStatistics,
    ExactParetoExplorer,
    ParetoPoint,
    _instance_statistics,
)
from repro.dse.pareto import non_dominated_union
from repro.dse.scheduler import (
    ArchiveDelta,
    CubeScheduler,
    DEFAULT_RESPLIT_CONFLICTS,
    MAX_STEALING_CUBES,
    TARGET_CUBE_FACTOR,
)
from repro.synthesis.encoding import EncodedInstance
from repro.synthesis.model import Specification

__all__ = [
    "binding_choices",
    "auto_split_depth",
    "derive_cubes",
    "ParallelParetoExplorer",
]

#: Per-solver-call conflict budget between archive synchronization points.
DEFAULT_CHUNK_CONFLICTS = 200

#: Points buffered before a worker publishes an archive delta (deltas
#: are also flushed at every chunk and cube boundary, so batching only
#: defers publication by at most one solver call).
DELTA_BATCH = 8

#: How the ``merge`` declaration of a :class:`DseStatistics` field folds
#: one worker's value into the run total.
_COMBINE = {"sum": operator.add, "max": max, "any": operator.or_}


def binding_choices(
    spec: Specification, fixed_bindings: Optional[Dict[str, str]] = None
) -> List[Tuple[str, List[str]]]:
    """Splittable binding decisions as ``(task, resource options)`` pairs.

    Mirrors the encoding's exactly-one ``bind/2`` choice rules, in task
    declaration order; pinned tasks (``fixed_bindings``) and tasks with a
    single mapping option carry no branching and are skipped.
    """
    pinned = frozenset(fixed_bindings or ())
    choices: List[Tuple[str, List[str]]] = []
    for task in spec.application.tasks:
        if task.name in pinned:
            continue
        options = [option.resource for option in spec.options_of(task.name)]
        if len(options) > 1:
            choices.append((task.name, options))
    return choices


def auto_split_depth(
    spec: Specification,
    jobs: int,
    fixed_bindings: Optional[Dict[str, str]] = None,
    schedule: str = "static",
) -> int:
    """Split depth derived from the worker count and the scheduler.

    ``schedule="static"`` keeps the original rule: the smallest depth
    yielding at least ``2 * jobs`` cubes, a mild over-partition so fixed
    round-robin shares still balance when cube hardness is uneven.

    ``schedule="stealing"`` targets ``TARGET_CUBE_FACTOR * jobs`` cubes
    instead: the deques must stay deep enough to steal from and to
    re-order as archive deltas arrive, and fine cubes keep the critical
    path short.  The count is capped at ``MAX_STEALING_CUBES`` — the
    ground program is shared, but every cube still costs a dispatch
    round-trip and an assumption-based solver restart, so past the cap
    the scheduling overhead rivals what the shared grounding saved (a
    cube over-running its budget is re-split adaptively anyway).
    """
    if jobs <= 1 and schedule == "static":
        return 0
    choices = binding_choices(spec, fixed_bindings)
    if schedule == "stealing":
        target = TARGET_CUBE_FACTOR * max(jobs, 1)
        cubes = 1
        for depth, (_task, options) in enumerate(choices, start=1):
            if cubes * len(options) > MAX_STEALING_CUBES:
                return depth - 1
            cubes *= len(options)
            if cubes >= target:
                return depth
        return len(choices)
    if jobs <= 1:
        return 0
    cubes = 1
    for depth, (_task, options) in enumerate(choices, start=1):
        cubes *= len(options)
        if cubes >= 2 * jobs:
            return depth
    return len(choices)


def derive_cubes(
    spec: Specification,
    depth: int,
    fixed_bindings: Optional[Dict[str, str]] = None,
) -> List[Dict[str, str]]:
    """Disjoint guiding-path cubes over the first ``depth`` binding choices.

    Each cube is a ``task -> resource`` dict extending ``fixed_bindings``.
    Because every task's binding choice is exactly-one, the cubes of a
    given depth partition the design space (restricted to the pinned
    bindings): each implementation satisfies exactly one cube.  Depth 0
    (or no branching tasks) yields the single cube ``fixed_bindings``.
    """
    base = dict(fixed_bindings or {})
    choices = binding_choices(spec, fixed_bindings)[: max(depth, 0)]
    if not choices:
        return [base]
    tasks = [task for task, _options in choices]
    cubes: List[Dict[str, str]] = []
    for combo in product(*(options for _task, options in choices)):
        cube = dict(base)
        cube.update(zip(tasks, combo))
        cubes.append(cube)
    return cubes


class _CubeRunner:
    """One worker's incremental explorer, executing cubes one at a time.

    The explorer grounds once (or reuses the parent's shipped artifact);
    cubes are entered via solve assumptions, so learned clauses and the
    dominance archive persist across cubes — including stolen and
    re-split ones.  Solving is chunked by a per-call conflict budget
    (``chunk_conflicts``) so the surrounding loop can inject foreign
    deltas even while the solver is deep inside an UNSAT proof;
    ``conflict_limit`` is the worker's *total* budget (the run reports
    ``interrupted`` when it is hit), and ``resplit_conflicts`` is the
    per-cube budget after which a splittable cube is handed back to the
    scheduler for re-splitting.
    """

    def __init__(
        self,
        instance: EncodedInstance,
        explorer_options: Optional[Dict[str, object]] = None,
        chunk_conflicts: Optional[int] = DEFAULT_CHUNK_CONFLICTS,
        conflict_limit: Optional[int] = None,
        ground_program: Optional[GroundProgram] = None,
        resplit_conflicts: Optional[int] = None,
        branch_tasks: Sequence[str] = (),
    ):
        options = dict(explorer_options or {})
        options.pop("fixed_bindings", None)  # baked into the cubes
        options.pop("conflict_limit", None)
        options.pop("ground_program", None)  # shipped by the parent
        self.explorer = ExactParetoExplorer(
            instance,
            conflict_limit=chunk_conflicts,
            ground_program=ground_program,
            **options,
        )
        self._conflict_limit = conflict_limit
        self._resplit_conflicts = resplit_conflicts
        self._branch_tasks = tuple(branch_tasks)
        self.current: Optional[Dict[str, str]] = None
        self._assumptions = []
        self._cube_mark = 0
        #: The worker's own counters; report() adds the explorer's.
        self.stats = DseStatistics()
        self.injected = 0

    def begin(self, cube: Dict[str, str]) -> None:
        self.current = dict(cube)
        self._assumptions = self.explorer.bind_assumptions(self.current)
        self._cube_mark = self.explorer.conflict_mark()
        self.stats.cubes_executed += 1

    def abandon(self) -> Dict[str, str]:
        """Hand the over-budget cube back (for the scheduler to split)."""
        cube = self.current
        self.current = None
        assert cube is not None
        return cube

    def inject_vectors(self, vectors) -> int:
        accepted = self.explorer.inject_points(
            (vector, None) for vector in vectors
        )
        self.injected += accepted
        return accepted

    def _splittable(self) -> bool:
        current = self.current or {}
        return any(task not in current for task in self._branch_tasks)

    def step(self) -> Tuple[str, Optional[ParetoPoint]]:
        """Advance the current cube by one chunked solver call.

        Returns ``("model", point)`` for a newly found Pareto point,
        ``("chunk", None)`` when a budget slice was spent (call again),
        ``("budget", None)`` when the cube exceeded its re-split budget
        (call :meth:`abandon` and return it to the scheduler),
        ``("cube_done", None)`` when the cube's subspace is exhausted,
        or ``("halt", None)`` when the worker's total conflict budget
        ran out.
        """
        assert self.current is not None
        started = perf_counter()
        status, point = self.explorer.solve_step(self._assumptions)
        self.stats.wall_time += perf_counter() - started
        if status == "model":
            return ("model", point)
        if status == "interrupted":
            conflicts = self.explorer.conflict_mark()
            if (
                self._conflict_limit is not None
                and conflicts >= self._conflict_limit
            ):
                self.stats.interrupted = True
                self.current = None
                return ("halt", None)
            if (
                self._resplit_conflicts
                and conflicts - self._cube_mark >= self._resplit_conflicts
                and self._splittable()
            ):
                return ("budget", None)
            return ("chunk", None)
        # Cube exhausted: its subspace holds no further front points.
        self.current = None
        return ("cube_done", None)

    def report(self, worker_id: int) -> Dict[str, object]:
        return {
            "worker": worker_id,
            "front": self.explorer.local_front(),
            "injected": self.injected,
            "statistics": self.explorer.collect_statistics(self.stats),
        }


def _worker_main(
    worker_id: int,
    instance: EncodedInstance,
    explorer_options: Dict[str, object],
    chunk_conflicts: Optional[int],
    conflict_limit: Optional[int],
    resplit_conflicts: Optional[int],
    branch_tasks: Sequence[str],
    share: bool,
    command_queue,
    result_queue,
    ground_blob: Optional[bytes] = None,
) -> None:
    """Process entry point: execute cubes the parent hands over.

    Commands: ``("cube", bindings)`` begins a cube, ``("delta", blob)``
    injects a foreign archive delta, ``("cancel",)`` abandons the
    current cube and ends the loop (cooperative cancellation),
    ``("stop",)`` ends the loop once the current cube finishes.
    Results: ``("delta", wid, blob)`` publishes new points,
    ``("next", wid)`` requests another cube, ``("resplit", wid, cube)``
    hands an over-budget cube back, ``("halt", wid)`` reports an
    exhausted total budget, ``("done", wid, report)`` closes the worker.
    """
    try:
        ground = (
            GroundProgram.from_bytes(ground_blob)
            if ground_blob is not None
            else None
        )
        runner = _CubeRunner(
            instance,
            explorer_options,
            chunk_conflicts,
            conflict_limit,
            ground_program=ground,
            resplit_conflicts=resplit_conflicts,
            branch_tasks=branch_tasks,
        )
        buffer: List[Tuple[int, ...]] = []
        stopping = False

        def flush() -> None:
            if buffer:
                blob = ArchiveDelta(buffer).to_bytes()
                runner.stats.archive_delta_bytes += len(blob)
                result_queue.put(("delta", worker_id, blob))
                del buffer[:]

        while True:
            block = runner.current is None and not stopping
            while True:
                try:
                    if block:
                        command = command_queue.get(timeout=0.05)
                        block = False
                    else:
                        command = command_queue.get_nowait()
                except queue.Empty:
                    break
                kind = command[0]
                if kind == "cube":
                    runner.begin(command[1])
                elif kind == "delta":
                    if share:
                        runner.inject_vectors(
                            ArchiveDelta.from_bytes(command[1]).vectors
                        )
                elif kind == "cancel":
                    # Cooperative cancellation: drop the cube mid-proof
                    # (its points so far are already flushed or in the
                    # buffer) and close the worker.
                    if runner.current is not None:
                        runner.stats.interrupted = True
                        runner.current = None
                    stopping = True
                else:  # "stop"
                    stopping = True
            if runner.current is None:
                if stopping:
                    break
                continue
            status, point = runner.step()
            if status == "model":
                buffer.append(point.vector)
                if len(buffer) >= DELTA_BATCH:
                    flush()
            elif status == "budget":
                flush()
                result_queue.put(("resplit", worker_id, runner.abandon()))
            elif status == "cube_done":
                flush()
                result_queue.put(("next", worker_id))
            elif status == "halt":
                flush()
                result_queue.put(("halt", worker_id))
            else:  # "chunk"
                flush()
        flush()
        result_queue.put(("done", worker_id, runner.report(worker_id)))
    except Exception:  # surfaced in the parent as a RuntimeError
        result_queue.put(("error", worker_id, traceback.format_exc()))


class ParallelParetoExplorer:
    """Exact Pareto enumeration over elastically scheduled workers.

    Produces the same front as :class:`ExactParetoExplorer` — identical
    vectors and count — for every ``jobs``/``split_depth``/``schedule``
    combination (witness implementations per vector may differ, as in
    any exact enumerator).  Two backends:

    * ``"process"`` (default) — one OS process per worker
      (``multiprocessing``); the parent hosts the cube scheduler and
      brokers cube dispatch and archive deltas over queues;
    * ``"inline"`` — deterministic in-process round-robin over the same
      worker machinery and the same scheduler; useful for debugging and
      reproducible tests.

    ``schedule`` selects the cube scheduler: ``"stealing"`` (default;
    work-stealing deques, hypervolume-ordered priorities, adaptive
    re-splitting after ``resplit_conflicts`` conflicts per cube) or
    ``"static"`` (the original fixed round-robin shares).
    ``steal_order`` picks the deterministic victim-selection policy
    (``"busiest"``, ``"roundrobin"``, ``"reverse"``).

    ``share_archive=False`` isolates the workers' archives (merge still
    restores exactness); the ablation benchmark uses it to measure how
    much cross-worker pruning saves.  Remaining keyword arguments are
    forwarded to each worker's :class:`ExactParetoExplorer` (``archive``,
    ``partial_pruning``, ``validate_models``, ...).  ``epsilon > 0`` is
    forwarded too, but only ``epsilon=0`` guarantees a bit-identical
    front; the parallel epsilon front is still a valid additive-epsilon
    approximation (see ``docs/PARALLEL.md``).
    """

    def __init__(
        self,
        instance: EncodedInstance,
        jobs: int = 2,
        split_depth: Optional[int] = None,
        backend: str = "process",
        schedule: str = "stealing",
        steal_order: str = "busiest",
        resplit_conflicts: Optional[int] = DEFAULT_RESPLIT_CONFLICTS,
        chunk_conflicts: Optional[int] = DEFAULT_CHUNK_CONFLICTS,
        share_archive: bool = True,
        conflict_limit: Optional[int] = None,
        fixed_bindings: Optional[Dict[str, str]] = None,
        **explorer_options,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if backend not in ("process", "inline"):
            raise ValueError(f"unknown backend {backend!r}")
        if schedule not in ("static", "stealing"):
            raise ValueError(f"unknown schedule {schedule!r}")
        self.instance = instance
        self.jobs = jobs
        self.split_depth = split_depth
        self.backend = backend
        self.schedule = schedule
        self.steal_order = steal_order
        self.resplit_conflicts = (
            resplit_conflicts if schedule == "stealing" else None
        )
        self.chunk_conflicts = chunk_conflicts
        self.share_archive = share_archive
        self.conflict_limit = conflict_limit
        self.fixed_bindings = dict(fixed_bindings or {})
        symmetry = getattr(instance, "symmetry", None)
        if (
            self.fixed_bindings
            and symmetry is not None
            and symmetry.applied
            and symmetry.constraints > 0
        ):
            # Guiding-path cubes are fine (they partition the full space,
            # so every orbit's lex-minimal representative stays reachable)
            # but a user pin can exclude it and lose front points.
            raise ValueError(
                "fixed_bindings cannot be combined with an instance that "
                "carries lex-leader symmetry constraints; re-encode with "
                "symmetry='off' to pin bindings"
            )
        self.explorer_options = dict(explorer_options)

    def cubes(self) -> List[Dict[str, str]]:
        """The guiding-path cubes this run initially partitions into."""
        spec = self.instance.specification
        depth = self.split_depth
        if depth is None:
            depth = auto_split_depth(
                spec, self.jobs, self.fixed_bindings, schedule=self.schedule
            )
        return derive_cubes(spec, depth, self.fixed_bindings)

    def _scheduler(self, cubes: List[Dict[str, str]], jobs: int) -> CubeScheduler:
        return CubeScheduler(
            cubes,
            jobs,
            choices=binding_choices(
                self.instance.specification, self.fixed_bindings
            ),
            objectives=self.instance.objectives,
            schedule=self.schedule,
            steal_order=self.steal_order,
        )

    def run(self, on_points=None, should_stop=None) -> DseResult:
        """Run the parallel exploration; returns the merged exact front.

        ``on_points`` is the anytime snapshot hook of the serving
        layer: it is called (in the coordinating process/loop) with
        every batch of newly published objective vectors, i.e. exactly
        the :class:`ArchiveDelta` increments the workers exchange.
        ``should_stop`` is polled between scheduling steps; returning a
        truthy value cancels the run cooperatively — workers abandon
        their cubes within one conflict chunk, partial fronts are
        merged, and the result reports ``interrupted=True``.
        """
        started = perf_counter()
        cubes = self.cubes()
        jobs = max(1, min(self.jobs, len(cubes)))
        scheduler = self._scheduler(cubes, jobs)
        self._cancelled = False
        # Lint and ground once in the parent and ship the artifact: the
        # workers reuse it instead of re-instantiating the same program.
        control = Control()
        control.add(self.instance.program)
        ground = control._instantiate(
            cache=bool(self.explorer_options.get("ground_cache", True)),
            lint=self.explorer_options.get("lint", False),
        )
        if self.backend == "inline":
            reports = self._run_inline(
                scheduler, jobs, ground, on_points, should_stop
            )
        else:
            reports = self._run_processes(
                scheduler, jobs, ground, on_points, should_stop
            )
        return self._merge(scheduler, reports, control, perf_counter() - started)

    def _branch_tasks(self) -> Tuple[str, ...]:
        return tuple(
            task
            for task, _options in binding_choices(
                self.instance.specification, self.fixed_bindings
            )
        )

    # -- backends ----------------------------------------------------------------

    def _run_inline(
        self,
        scheduler: CubeScheduler,
        jobs: int,
        ground: GroundProgram,
        on_points=None,
        should_stop=None,
    ) -> Dict[int, Dict[str, object]]:
        """Deterministic round-robin over in-process workers."""
        branch_tasks = self._branch_tasks()
        runners = [
            _CubeRunner(
                self.instance,
                self.explorer_options,
                self.chunk_conflicts,
                self.conflict_limit,
                ground_program=ground,
                resplit_conflicts=self.resplit_conflicts,
                branch_tasks=branch_tasks,
            )
            for _worker in range(jobs)
        ]
        pending: List[List[Tuple[int, ...]]] = [[] for _worker in runners]
        buffers: List[List[Tuple[int, ...]]] = [[] for _worker in runners]
        halted = set()

        def flush(wid: int) -> None:
            if not buffers[wid]:
                return
            # Serialize even inline so archive_delta_bytes measures the
            # real wire cost of the protocol.
            blob = ArchiveDelta(buffers[wid]).to_bytes()
            runners[wid].stats.archive_delta_bytes += len(blob)
            scheduler.observe(buffers[wid])
            if on_points is not None:
                on_points(list(buffers[wid]))
            if self.share_archive:
                for other in range(jobs):
                    if other != wid and other not in halted:
                        pending[other].extend(buffers[wid])
            buffers[wid] = []

        for wid in range(jobs):
            cube = scheduler.next_cube(wid)
            if cube is not None:
                runners[wid].begin(cube)
        while True:
            if should_stop is not None and should_stop():
                self._cancelled = True
                for wid, runner in enumerate(runners):
                    flush(wid)
                    if runner.current is not None:
                        runner.stats.interrupted = True
                        runner.current = None
                break
            progressed = False
            for wid, runner in enumerate(runners):
                if wid in halted:
                    continue
                if pending[wid]:
                    runner.inject_vectors(pending[wid])
                    pending[wid] = []
                if runner.current is None:
                    cube = scheduler.next_cube(wid)
                    if cube is None:
                        continue
                    runner.begin(cube)
                progressed = True
                status, point = runner.step()
                if status == "model":
                    buffers[wid].append(point.vector)
                    if len(buffers[wid]) >= DELTA_BATCH:
                        flush(wid)
                elif status == "budget":
                    flush(wid)
                    cube = runner.abandon()
                    if scheduler.resplit(wid, cube) == 0:
                        runner.begin(cube)  # no binding level left
                elif status == "halt":
                    flush(wid)
                    halted.add(wid)
                else:  # "chunk" or "cube_done"
                    flush(wid)
            if not progressed:
                break
        return {wid: runner.report(wid) for wid, runner in enumerate(runners)}

    def _run_processes(
        self,
        scheduler: CubeScheduler,
        jobs: int,
        ground: GroundProgram,
        on_points=None,
        should_stop=None,
    ) -> Dict[int, Dict[str, object]]:
        """One process per worker; the parent schedules and brokers."""
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        result_queue = context.Queue()
        command_queues = [context.Queue() for _worker in range(jobs)]
        # Serialized once here; every worker deserializes the same blob
        # instead of grounding the instance again.
        ground_blob = ground.to_bytes()
        branch_tasks = self._branch_tasks()
        processes = [
            context.Process(
                target=_worker_main,
                args=(
                    wid,
                    self.instance,
                    self.explorer_options,
                    self.chunk_conflicts,
                    self.conflict_limit,
                    self.resplit_conflicts,
                    branch_tasks,
                    self.share_archive,
                    command_queues[wid],
                    result_queue,
                    ground_blob,
                ),
                daemon=True,
            )
            for wid in range(jobs)
        ]
        for process in processes:
            process.start()

        pending = set(range(jobs))
        reports: Dict[int, Dict[str, object]] = {}
        executing = [False] * jobs
        waiting = set()
        stopped = set()
        halted = set()

        def dispatch(wid: int) -> None:
            if wid in stopped:
                return
            cube = scheduler.next_cube(wid)
            if cube is not None:
                command_queues[wid].put(("cube", cube))
                executing[wid] = True
            else:
                waiting.add(wid)

        def fill_waiting() -> None:
            # Re-splits refill the deques after workers went idle; hand
            # the new cubes out instead of letting them starve.
            for wid in sorted(waiting):
                if scheduler.outstanding() == 0:
                    break
                waiting.discard(wid)
                dispatch(wid)

        def maybe_stop() -> None:
            if any(executing):
                return
            active = [wid for wid in range(jobs) if wid not in halted]
            if scheduler.outstanding() and active:
                return
            for wid in range(jobs):
                if wid not in stopped:
                    command_queues[wid].put(("stop",))
                    stopped.add(wid)

        for wid in range(jobs):
            dispatch(wid)
        maybe_stop()
        def cancel_all() -> None:
            self._cancelled = True
            for wid in range(jobs):
                if wid not in stopped:
                    command_queues[wid].put(("cancel",))
                    stopped.add(wid)

        try:
            while pending:
                if (
                    not self._cancelled
                    and should_stop is not None
                    and should_stop()
                ):
                    cancel_all()
                try:
                    timeout = 0.1 if should_stop is not None else 1.0
                    message = result_queue.get(timeout=timeout)
                except queue.Empty:
                    for wid in pending:
                        if not processes[wid].is_alive():
                            raise RuntimeError(
                                f"parallel DSE worker {wid} died "
                                f"(exit code {processes[wid].exitcode})"
                            )
                    continue
                kind, wid = message[0], message[1]
                if kind == "delta":
                    blob = message[2]
                    vectors = ArchiveDelta.from_bytes(blob).vectors
                    scheduler.observe(vectors)
                    if on_points is not None:
                        on_points(list(vectors))
                    if self.share_archive and not self._cancelled:
                        for other in pending:
                            if other != wid and other not in stopped:
                                command_queues[other].put(("delta", blob))
                    # Fresh priorities may not add cubes, so no refill.
                elif kind == "next":
                    executing[wid] = False
                    dispatch(wid)
                    fill_waiting()
                    maybe_stop()
                elif kind == "resplit":
                    executing[wid] = False
                    if self._cancelled:
                        pass  # the worker is already winding down
                    elif scheduler.resplit(wid, message[2]) == 0:
                        # No binding level left (defensive; the worker
                        # checks splittability first): hand it back.
                        command_queues[wid].put(("cube", message[2]))
                        executing[wid] = True
                    else:
                        dispatch(wid)
                    fill_waiting()
                    maybe_stop()
                elif kind == "halt":
                    executing[wid] = False
                    halted.add(wid)
                    command_queues[wid].put(("stop",))
                    stopped.add(wid)
                    fill_waiting()
                    maybe_stop()
                elif kind == "done":
                    reports[wid] = message[2]
                    pending.discard(wid)
                else:  # "error"
                    raise RuntimeError(
                        f"parallel DSE worker {wid} failed:\n{message[2]}"
                    )
        finally:
            for process in processes:
                if process.is_alive():
                    process.terminate()
            for process in processes:
                process.join()
            for q in [result_queue, *command_queues]:
                q.close()
                q.cancel_join_thread()
        return reports

    # -- merge -------------------------------------------------------------------

    def _merge(
        self,
        scheduler: CubeScheduler,
        reports: Dict[int, Dict[str, object]],
        control: Control,
        wall_time: float,
    ) -> DseResult:
        """Non-dominated union of the worker fronts + aggregated stats.

        Instance-level fields come from the parent's ``control``, which
        linted and ground the instance for all workers; every field
        declared with a ``merge`` then folds in the workers' values.
        """
        ordered = [reports[wid] for wid in sorted(reports)]
        merged = non_dominated_union(*(report["front"] for report in ordered))
        stats = DseStatistics(
            pareto_points=len(merged),
            wall_time=wall_time,
            interrupted=self._cancelled,
            resplits=scheduler.resplits,
        )
        _instance_statistics(stats, self.instance, control)
        workers = [report["statistics"] for report in ordered]
        for report, inner in zip(ordered, workers):
            inner.steals = scheduler.steals[report["worker"]]
            entry = {"worker": report["worker"], "injected": report["injected"]}
            for item in fields(DseStatistics):
                key = item.metadata.get("worker")
                if key:
                    entry[item.name if key is True else key] = getattr(
                        inner, item.name
                    )
            stats.per_worker.append(entry)
        for item in fields(DseStatistics):
            combine = _COMBINE.get(item.metadata.get("merge"))
            if combine is None:
                continue
            value = getattr(stats, item.name)
            for inner in workers:
                value = combine(value, getattr(inner, item.name))
            setattr(stats, item.name, value)
        names = tuple(objective.name for objective in self.instance.objectives)
        points = [
            ParetoPoint(tuple(vector), payload) for vector, payload in merged
        ]
        return DseResult(names, points, stats)
