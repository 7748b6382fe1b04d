"""Split and merge planning: allocate names and build the :class:`ConfigChange`.

Pure bookkeeping — no protocol.  The harness (or the autoscale
controller) calls :func:`plan_split` or :func:`plan_merge` against its
current routing view and abcasts a ``BeginSplit`` carrying the returned
change into the source (for merges: the absorbed) partition's log.
"""

from __future__ import annotations

import re

from repro.core.directory import ClusterDirectory
from repro.core.partitioning import PartitionMap
from repro.errors import ConfigurationError
from repro.reconfig.epochs import ConfigChange, VersionedRouting

_SERVER_NAME = re.compile(r"^s(\d+)$")


def next_partition_name(partition_map: PartitionMap) -> str:
    """Partition ids stay dense: the next one is ``p{num_partitions}``."""
    return PartitionMap.partition_name(partition_map.num_partitions)


def allocate_server_names(directory: ClusterDirectory, count: int) -> list[str]:
    """Fresh ``s{n}`` node ids continuing the deployment's numbering."""
    highest = 0
    for server in directory.all_servers():
        match = _SERVER_NAME.match(server)
        if match:
            highest = max(highest, int(match.group(1)))
    return [f"s{highest + i + 1}" for i in range(count)]


def plan_split(
    routing: VersionedRouting,
    source: str,
) -> ConfigChange:
    """Build the next epoch's change splitting ``source``.

    The new partition mirrors the source's replication factor on fresh
    servers; its first member is preferred, and the salt is unique per
    epoch so repeated splits of one partition move independent key
    halves.
    """
    if not routing.knows_partition(source):
        raise ConfigurationError(f"cannot split unknown partition {source!r}")
    if source in routing.retired:
        raise ConfigurationError(f"cannot split retired partition {source!r}")
    want = len(routing.directory.servers_of(source))
    new_members = tuple(allocate_server_names(routing.directory, want))
    new_epoch = routing.epoch + 1
    return ConfigChange(
        new_epoch=new_epoch,
        source=source,
        new_partition=next_partition_name(routing.partition_map),
        new_members=new_members,
        new_preferred=new_members[0],
        split_salt=f"split-e{new_epoch}-{source}",
    )


def plan_merge(routing: VersionedRouting, absorbed: str, into: str) -> ConfigChange:
    """Build the next epoch's change absorbing ``absorbed`` into ``into``.

    The merge reuses the split's field layout (``source`` = the retiring
    partition, ``new_partition`` = the surviving one); no servers are
    allocated — the absorbing partition's existing group takes over the
    key range.
    """
    for partition in (absorbed, into):
        if not routing.knows_partition(partition):
            raise ConfigurationError(f"cannot merge unknown partition {partition!r}")
        if partition in routing.retired:
            raise ConfigurationError(f"cannot merge retired partition {partition!r}")
    if absorbed == into:
        raise ConfigurationError(f"cannot merge {absorbed!r} into itself")
    return ConfigChange(
        new_epoch=routing.epoch + 1,
        source=absorbed,
        new_partition=into,
        new_members=(),
        new_preferred="",
        split_salt="",
        kind="merge",
    )
