"""The four closed-loop workloads of the layered benchmark.

An op is one ``explore()`` call or one served request.  A pass runs a
fixed list of ops chosen by the seed, so every pass of every run does
the same solver work (see ``catalogue.py`` for why the seed renames and
reorders instead of choosing instances).

* ``sweep_small``: sequential ``explore()`` over 32 small specs, twice
  the ground cache, so the cache never answers: ground-phase heavy.
* ``search_heavy``: sequential ``explore()`` over four 0.8-2.2 s specs
  whose programs are ground in set-up: search, theory and dominance heavy.
* ``serve_mixed``: an in-process ``DseServer`` and two ``ServeClient``
  connections; 80% of requests repeat a hit pool solved in set-up (half
  as renamed isomorphic twins), 20% are cold specs never seen before.
* ``parallel_split``: ``explore(jobs=2)`` with the process backend and
  the stealing scheduler over six specs of 1-2 s sequential time, ground
  in set-up too, so the first pass does the same work as the others.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.asp.control import clear_ground_cache, ground_text
from repro.dse.explorer import explore
from repro.serve import DseServer, ServeClient, ServerConfig
from repro.serve.protocol import ProtocolError
from repro.synthesis.encoding import encode
from repro.synthesis.io import specification_to_dict

import catalogue
from catalogue import References, front_vectors, prefixed, scrambled, seeded_rng

#: An op slower than this counts as timed out (failed).
OP_TIMEOUT_S = 30.0


@dataclass
class Op:
    """One completed (or failed) op of a pass."""

    key: str
    latency: float
    ok: bool
    kind: str = "op"  # "op", or for served requests "hit" / "cold"
    error: str = ""
    #: DseStatistics of explore ops; the statistics dict of cold served
    #: results; None for cache hits and failures.
    stats: object = None
    #: Per-op wrapper seconds by layer (traced sequential ops only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Linear propagator counters (traced sequential ops only).
    linear: Dict[str, int] = field(default_factory=dict)
    #: First task name of a served spec: keys its wrapper timings.
    request_key: str = ""


def _check_front(vectors, reference) -> str:
    if front_vectors(vectors) != reference:
        return f"front {front_vectors(vectors)} != reference {reference}"
    return ""


def _served_error(outcome, reference) -> str:
    if not outcome.ok:
        return f"not solved: {outcome.cancelled or outcome.error}"
    return _check_front([entry["vector"] for entry in outcome.result["front"]], reference)


def _first_task(spec: dict) -> str:
    task = spec["application"]["tasks"][0]
    return task if isinstance(task, str) else task["name"]


class ExploreWorkload:
    """Sequential or ``jobs=2`` ``explore()`` over a fixed seeded list."""

    jobs = 1
    #: Host-speed kernel runs before each op (see ``calibrate.py``).
    calibration_repeats = 1
    #: Ground every program of the list in set-up, so each pass, the
    #: first included, finds the ground cache warm.
    warm_ground_cache = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.entries: List[Tuple[str, object, list]] = []

    def catalogue_entries(self) -> List[object]:
        raise NotImplementedError

    def setup(self) -> None:
        clear_ground_cache()
        references = References()
        prefix = f"s{self.seed}_"
        entries = []
        for entry in self.catalogue_entries():
            spec, reference = references.load(entry)
            entries.append((catalogue.catalogue_key(entry), prefixed(spec, prefix), reference))
        seeded_rng(self.seed, self.name).shuffle(entries)
        self.entries = entries
        # Runs every lazy import and code path of an op once.
        warm_spec, _ = references.load(catalogue.SWEEP_CONFIGS[0])
        explore(prefixed(warm_spec, "warm_"), jobs=self.jobs)
        if self.warm_ground_cache:
            for _key, spec, _reference in self.entries:
                ground_text(encode(spec).program)

    def run_pass(self, index: int, tracer=None, between=None) -> Tuple[List[Op], float]:
        """Run pass ``index``; returns its ops and their summed wall seconds.

        ``between`` (if given) is called before every op, outside its time.
        """
        ops = []
        for entry in self.entries:
            if between is not None:
                between()
            ops.append(self.run_entry(*entry, tracer))
        return ops, sum(op.latency for op in ops)

    def run_entry(self, key, spec, reference, tracer=None) -> Op:
        """One op, checked against its reference front."""
        before = tracer.snapshot() if tracer else None
        started = perf_counter()
        try:
            result = explore(spec, jobs=self.jobs)
        except Exception as error:  # an op that raises counts as failed
            return Op(key, perf_counter() - started, False, error=repr(error))
        latency = perf_counter() - started
        error = _check_front(result.vectors(), reference)
        if not error and latency > OP_TIMEOUT_S:
            error = f"timed out after {latency:.1f} s"
        op = Op(key, latency, not error, error=error, stats=result.statistics)
        if tracer is not None:
            after = tracer.snapshot()
            op.layers = {layer: after[layer] - before.get(layer, 0.0) for layer in after}
            op.linear = tracer.drain_linear()
        return op

    def close(self) -> None:
        self.entries = []


class SweepSmall(ExploreWorkload):
    name = "sweep_small"
    calibration_repeats = 1

    def catalogue_entries(self):
        return list(catalogue.SWEEP_CONFIGS)


class SearchHeavy(ExploreWorkload):
    name = "search_heavy"
    calibration_repeats = 12
    warm_ground_cache = True

    def catalogue_entries(self):
        return [*catalogue.SEARCH_CURATED, *catalogue.SEARCH_CONFIGS]

    def curated_entries(self):
        """The entries of the curated instances, in catalogue order."""
        by_key = {entry[0]: entry for entry in self.entries}
        return [by_key[name] for name in catalogue.SEARCH_CURATED]


class ParallelSplit(ExploreWorkload):
    name = "parallel_split"
    calibration_repeats = 8
    jobs = 2
    warm_ground_cache = True

    def catalogue_entries(self):
        return list(catalogue.PARALLEL_CONFIGS)

    def sequential_conflicts(self) -> Dict[str, int]:
        """Conflicts of the sequential explorer per entry (trace only)."""
        return {
            key: explore(spec).statistics.conflicts for key, spec, _ in self.entries
        }


class ServeMixed:
    """Two closed-loop clients against an in-process ``DseServer``."""

    name = "serve_mixed"
    #: Host-speed kernel runs before and after each pass (see ``calibrate.py``).
    calibration_repeats = 6
    HITS_PER_PASS = 32
    COLDS_PER_PASS = 8
    TWIN_TAGS = ("xa", "xb", "xc")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.server: Optional[DseServer] = None
        self.clients: List[ServeClient] = []
        #: Loop-lag samples of traced passes (seconds).
        self.lag: List[float] = []

    @property
    def designed_hit_share(self) -> float:
        return self.HITS_PER_PASS / (self.HITS_PER_PASS + self.COLDS_PER_PASS)

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        self.close()
        clear_ground_cache()
        self.references = References()
        prefix = f"s{self.seed}_"
        self.hit_pool = []
        for config in catalogue.SERVE_HIT_CONFIGS:
            spec, reference = self.references.load(config)
            spec = prefixed(spec, prefix)
            forms = [specification_to_dict(spec)] + [
                specification_to_dict(scrambled(spec, f"{tag}{self.seed}_"))
                for tag in self.TWIN_TAGS
            ]
            self.hit_pool.append((config.name(), forms, reference))
        order = list(catalogue.SERVE_COLD_CONFIGS)
        seeded_rng(self.seed, self.name, "cold").shuffle(order)
        self.cold_order = order
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        self.server = DseServer(ServerConfig(port=0, solve_workers=2, cache_size=128))
        host, port = await self.server.start()
        self.clients = [await ServeClient.connect(host, port) for _ in range(2)]
        # Solve the hit pool once, so every timed hit is answered by the cache.
        for key, forms, reference in self.hit_pool:
            error = _served_error(await self.clients[0].solve(forms[0]), reference)
            if error:
                raise RuntimeError(f"hit pool entry {key}: {error}")

    # -- passes --------------------------------------------------------------

    def pass_requests(self, index: int) -> List[Tuple[str, str, dict, list]]:
        """(kind, catalogue key, spec dict, reference) of every request."""
        rng = seeded_rng(self.seed, self.name, index)
        requests = []
        for i in range(self.HITS_PER_PASS):
            key, forms, reference = self.hit_pool[i % len(self.hit_pool)]
            # Even slots send the original naming, odd slots a renamed twin.
            form = forms[0] if i % 2 == 0 else forms[1 + rng.randrange(len(forms) - 1)]
            requests.append(("hit", key, form, reference))
        start = index * self.COLDS_PER_PASS
        configs = self.cold_order[start:start + self.COLDS_PER_PASS]
        if len(configs) < self.COLDS_PER_PASS:
            raise RuntimeError("cold spec pool exhausted; raise SERVE_COLD_COUNT")
        for number, config in enumerate(configs):
            spec, reference = self.references.load(config)
            spec = prefixed(spec, f"c{start + number}_s{self.seed}_")
            requests.append(("cold", config.name(), specification_to_dict(spec), reference))
        rng.shuffle(requests)
        return requests

    def cold_capacity(self) -> int:
        """How many passes the cold pool can feed."""
        return len(self.cold_order) // self.COLDS_PER_PASS

    def run_pass(self, index: int, tracer=None, between=None) -> Tuple[List[Op], float]:
        """Run pass ``index``; returns its ops and its wall seconds.

        Requests overlap, so ``between`` is not called inside a pass.
        """
        requests = self.pass_requests(index)
        started = perf_counter()
        ops = self.loop.run_until_complete(self._pass(requests, tracer is not None))
        return ops, perf_counter() - started

    async def _pass(self, requests, probe_lag: bool) -> List[Op]:
        # Hits first, then cold specs, each phase in its seeded order.  A
        # hit served while a cold solve holds the interpreter lock waits
        # whole 5 ms switch intervals, and how many hits overlap a solve
        # depends on the order, so mixed phases would make the latency
        # median of identical work jump between runs.
        phases = [deque(r for r in requests if r[0] == kind) for kind in ("hit", "cold")]
        ops: List[Op] = []
        running = True

        async def ticker() -> None:
            # Loop-lag probe: how late a 5 ms sleep wakes up.
            period = 0.005
            while running:
                started = self.loop.time()
                await asyncio.sleep(period)
                self.lag.append(self.loop.time() - started - period)

        async def client_loop(client: ServeClient, pending: deque) -> None:
            while pending:
                kind, key, spec, reference = pending.popleft()
                started = perf_counter()
                try:
                    outcome = await client.solve(spec, subscribe=False, timeout=OP_TIMEOUT_S)
                except (ProtocolError, ConnectionError, OSError) as error:
                    # Refused by admission, malformed, or the connection died.
                    ops.append(Op(key, perf_counter() - started, False, kind, repr(error)))
                    continue
                latency = perf_counter() - started
                error = _served_error(outcome, reference)
                hit = outcome.cached or outcome.coalesced
                if not error and hit != (kind == "hit"):
                    error = f"designed {kind} request was {'a hit' if hit else 'solved'}"
                stats = None
                if outcome.ok and not hit:
                    stats = outcome.result["statistics"]
                ops.append(
                    Op(key, latency, not error, kind, error, stats=stats,
                       request_key=_first_task(spec))
                )

        tick = asyncio.ensure_future(ticker()) if probe_lag else None
        try:
            for pending in phases:
                await asyncio.gather(*(client_loop(client, pending) for client in self.clients))
        finally:
            running = False
            if tick is not None:
                await tick
        return ops

    def server_counters(self) -> Dict[str, int]:
        return dict(self.server.stats()["counters"])

    def close(self) -> None:
        if self.loop is None:
            return
        self.loop.run_until_complete(self._stop())
        self.loop.close()
        self.loop = None

    async def _stop(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []
        if self.server is not None:
            await self.server.shutdown()
            self.server = None


WORKLOADS = {
    workload.name: workload
    for workload in (SweepSmall, SearchHeavy, ServeMixed, ParallelSplit)
}
