"""Host-speed calibration for the end-to-end time metrics.

The shared host this benchmark runs on changes speed by a third or more
from minute to minute, CPU time included, so a raw time says as much
about the neighbours as about the program.  ``HostSpeed`` times a fixed
pure-Python kernel between the ops of a pass (and around set-up).  The
kernel does interpreter work of the same kind as the solver: watched
literal unit propagation over a fixed 3-SAT formula and a hash join that
builds tuple atoms.  It calls nothing in ``repro``, so a change to the
program never moves it.

A time is reported at reference speed: measured time times
``REFERENCE_KERNEL_S / median kernel time`` of the same pass.  On a host
where the kernel takes ``REFERENCE_KERNEL_S`` the two are equal.  Over
30 back-to-back one-pass ``sweep_small`` runs the spread (inter-quartile range
over median) of the pass time fell from 0.042 raw to 0.013 scaled, while
the kernel time alone ranged over 5.6-9.1 ms.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter, process_time
from typing import Callable, List, Tuple

#: Kernel seconds of the reference host the scaled times are quoted for
#: (the 2-vCPU Intel Xeon container the benchmark was built on).
REFERENCE_KERNEL_S = 0.006


def _make_kernel() -> Callable[[], int]:
    rng = random.Random(20261017)
    n_vars = 150
    clauses = []
    for _ in range(600):
        chosen = rng.sample(range(1, n_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    edges = [(rng.randrange(60), rng.randrange(60)) for _ in range(400)]
    orders = [rng.sample(range(1, n_vars + 1), n_vars) for _ in range(6)]

    def kernel() -> int:
        total = 0
        for order in orders:
            watches = {}
            for index, clause in enumerate(clauses):
                for literal in clause[:2]:
                    watches.setdefault(-literal, []).append(index)
            value = {}
            trail = []
            for var in order:
                if var in value:
                    continue
                queue = [var]
                value[var] = True
                while queue:
                    literal = queue.pop()
                    trail.append(literal)
                    for index in watches.get(literal, ()):
                        clause = clauses[index]
                        free = [lit for lit in clause if abs(lit) not in value]
                        satisfied = any(
                            value[abs(lit)] == (lit > 0) for lit in clause if abs(lit) in value
                        )
                        if not satisfied and len(free) == 1:
                            unit = free[0]
                            value[abs(unit)] = unit > 0
                            queue.append(unit)
            total += len(trail)
        successors = {}
        for a, b in edges:
            successors.setdefault(a, []).append(b)
        atoms = set()
        for a, b in edges:
            for c in successors.get(b, ()):
                atoms.add(("path", a, c))
        return total + len(sorted(atoms))

    return kernel


class HostSpeed:
    """Kernel timings of one run; ``factors`` turns them into scale factors."""

    def __init__(self) -> None:
        self._kernel = _make_kernel()
        self.expected = self._kernel()
        for _ in range(3):
            self._kernel()
        self.wall: List[float] = []
        self.cpu: List[float] = []

    def sample(self, repeats: int = 1) -> float:
        """Time the kernel ``repeats`` times; returns the wall seconds spent."""
        spent = 0.0
        for _ in range(repeats):
            wall, cpu = perf_counter(), process_time()
            result = self._kernel()
            cpu = process_time() - cpu
            wall = perf_counter() - wall
            if result != self.expected:
                raise RuntimeError(f"calibration kernel returned {result}, not {self.expected}")
            self.wall.append(wall)
            self.cpu.append(cpu)
            spent += wall
        return spent

    def mark(self) -> int:
        return len(self.wall)

    def cpu_since(self, mark: int) -> float:
        return sum(self.cpu[mark:])

    def factors(self, mark: int) -> Tuple[float, float]:
        """Reference over measured speed (wall, CPU) from the samples since ``mark``."""
        wall = statistics.median(self.wall[mark:])
        cpu = statistics.median(self.cpu[mark:])
        return REFERENCE_KERNEL_S / wall, REFERENCE_KERNEL_S / cpu
