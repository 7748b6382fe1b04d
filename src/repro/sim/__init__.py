"""Deterministic discrete-event simulation kernel.

This package provides the substrate on which all simulated experiments run:

* :mod:`repro.sim.kernel` — the event loop (virtual clock, timer heap).
* :mod:`repro.sim.rng` — named, reproducible random streams derived from a
  single master seed.
* :mod:`repro.sim.latency` — pluggable message-latency models.
* :mod:`repro.sim.service` — FIFO single-server queues used to model CPU
  service time at a node.

The kernel is deliberately small and dependency-free; everything above it
(transport, consensus, SDUR) is written sans-io against the runtime
interface in :mod:`repro.runtime`.
"""

from repro.sim.kernel import Kernel, ScheduledEvent
from repro.sim.latency import ConstantLatency, JitteredLatency, LatencyModel
from repro.sim.rng import RngRegistry
from repro.sim.service import ServiceStation

__all__ = [
    "Kernel",
    "ScheduledEvent",
    "RngRegistry",
    "LatencyModel",
    "ConstantLatency",
    "JitteredLatency",
    "ServiceStation",
]
