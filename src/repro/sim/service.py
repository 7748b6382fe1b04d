"""FIFO service stations: the CPU model for simulated nodes.

The paper's servers ran on single-core EC2 medium instances, so a node's
throughput ceiling is set by how fast one core certifies and applies
transactions.  A :class:`ServiceStation` models that core: work items are
queued FIFO and served one at a time, each occupying the station for its
service time.  With all service times at zero the station degenerates to
"run immediately", which is what the latency-focused experiments use.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from repro.sim.kernel import Kernel


class ServiceStation:
    """A single-server FIFO queue on the simulation kernel."""

    def __init__(self, kernel: Kernel, name: str = "cpu") -> None:
        self._kernel = kernel
        self.name = name
        self._queue: deque[tuple[float, Callable[[], None]]] = deque()
        self._busy = False
        #: Number of work items completed.
        self.completed = 0

    def submit(self, service_time: float, callback: Callable[[], None]) -> None:
        """Enqueue a work item; ``callback`` runs when its service completes.

        A zero service time still respects FIFO order behind queued work,
        but costs no simulated time when the station is idle.
        """
        if service_time < 0:
            raise ValueError(f"service_time must be non-negative, got {service_time!r}")
        if not self._busy and not self._queue and service_time == 0.0:
            # Fast path: nothing ahead of us and no work to model.
            self.completed += 1
            callback()
            return
        self._queue.append((service_time, callback))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        service_time, callback = self._queue.popleft()
        self._kernel.schedule(service_time, self._finish, callback)

    def _finish(self, callback: Callable[[], None]) -> None:
        self.completed += 1
        callback()
        self._start_next()
