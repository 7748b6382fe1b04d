"""Autonomous elasticity: the ``repro.autoscale`` control loop.

The reconfiguration protocol (docs/PROTOCOL.md §13, §17) gives the
system live splits and merges; this package closes the loop and decides
*when* to use them, with no operator in it:

* :mod:`repro.autoscale.monitor` — per-partition pressure signals
  (certification throughput + weighted delivery backlog, EWMA-smoothed)
  sampled from the servers' own counters;
* :mod:`repro.autoscale.policy` — watermark hysteresis: split a
  partition sustained above the high watermark, merge a routing-adjacent
  pair sustained below the low one, with streak and cooldown guards;
* :mod:`repro.autoscale.controller` — the tick that wires monitor to
  policy and actuates through ``SdurCluster.split_partition`` /
  ``merge_partitions``.

Arm it with ``cluster.enable_autoscale(AutoscaleConfig(...))``;
experiment E3 (:mod:`repro.experiments.autoscale`) drives it under a
drifting hotspot.
"""

from repro.autoscale.config import AutoscaleConfig
from repro.autoscale.controller import AutoscaleController
from repro.autoscale.monitor import LoadMonitor, PartitionLoad
from repro.autoscale.policy import ScaleDecision, ScalePolicy

__all__ = [
    "AutoscaleConfig",
    "AutoscaleController",
    "LoadMonitor",
    "PartitionLoad",
    "ScaleDecision",
    "ScalePolicy",
]
