"""Elastic repartitioning: live partition splits and merges with
epoch-versioned routing.

SDUR's throughput grows with the partition count, but the seed system
fixed that count at deployment time.  This package makes the directory a
*versioned* object: every configuration change is a value ordered through
the atomic broadcast of the affected partitions, so all replicas switch
epochs at the same log position and certification stays deterministic
(§IV-G: outcomes depend only on the delivery sequence, never on message
arrival timing).

Modules:

* :mod:`repro.reconfig.epochs` — :class:`ConfigChange` and the
  per-process :class:`VersionedRouting` view (directory + partition map
  + ownership epochs + retired partitions).
* :mod:`repro.reconfig.routing` — :class:`SplitPartitionMap` and
  :class:`MergePartitionMap`, the key-level routing overlays that move a
  keyspace half to a new partition or fold it back.
* :mod:`repro.reconfig.messages` — the wire protocol (``BeginSplit``,
  ``InstallMigration``, ``FinishSplit``, ``StaleEpochNotice``, …),
  shared by splits and merges via ``ConfigChange.kind``.
* :mod:`repro.reconfig.participant` — :class:`ReconfigParticipant`, the
  state machine one replica runs through a split or merge (write
  barrier, key-range capture, installs, eviction, config push / pull);
  the server calls it at fixed points and it never sees the server.
* :mod:`repro.reconfig.coordinator` — planning helpers that allocate
  partition/server names and build a :class:`ConfigChange`.
"""

from repro.reconfig.coordinator import plan_merge, plan_split
from repro.reconfig.epochs import ConfigChange, VersionedRouting, directory_with_split
from repro.reconfig.messages import (
    BeginSplit,
    ConfigSnapshot,
    FinishSplit,
    GetConfig,
    InstallMigration,
    StaleEpochNotice,
)
from repro.reconfig.participant import ReconfigParticipant, moved_chains
from repro.reconfig.routing import MergePartitionMap, SplitPartitionMap, key_moves

__all__ = [
    "BeginSplit",
    "ConfigChange",
    "ConfigSnapshot",
    "FinishSplit",
    "GetConfig",
    "InstallMigration",
    "MergePartitionMap",
    "ReconfigParticipant",
    "SplitPartitionMap",
    "StaleEpochNotice",
    "VersionedRouting",
    "directory_with_split",
    "key_moves",
    "moved_chains",
    "plan_merge",
    "plan_split",
]
