"""SDUR — scalable deferred update replication (the paper's contribution).

The database is divided into partitions, each fully replicated by a Paxos
group (:mod:`repro.consensus`).  Transactions execute optimistically
against snapshots (:mod:`repro.storage`), then terminate through
per-partition atomic broadcast plus — for global transactions — a
two-phase-commit-like vote exchange:

* :mod:`repro.core.transaction` — transaction ids, projections, digests.
* :mod:`repro.core.partitioning` — key → partition mapping.
* :mod:`repro.core.messages` — the SDUR wire protocol.
* :mod:`repro.core.certifier` — the certification tests and the
  reorder-position search (Algorithm 2, lines 46–64).
* :mod:`repro.core.pending` — the pending list.
* :mod:`repro.core.server` — the server protocol core (Algorithm 2).
* :mod:`repro.core.client` — the client protocol core (Algorithm 1) and
  the transaction-program API.
* :mod:`repro.core.snapshots` — asynchronously built globally-consistent
  snapshot vectors for read-only transactions.
* :mod:`repro.core.config` — server/client tuning knobs, including the
  geo extensions (transaction delaying and reordering).
"""

from repro.core.certifier import CertificationWindow, CommittedRecord, ctest
from repro.core.client import ClientConfig, Read, ReadMany, SdurClient, TxnResult
from repro.core.config import ServiceCosts, SdurConfig
from repro.core.directory import ClusterDirectory
from repro.core.partitioning import PartitionMap
from repro.core.pending import PendingList, PendingTxn
from repro.core.server import SdurServer
from repro.core.transaction import Outcome, TxnId, TxnProjection

__all__ = [
    "CertificationWindow",
    "ClientConfig",
    "ClusterDirectory",
    "CommittedRecord",
    "Outcome",
    "PartitionMap",
    "PendingList",
    "PendingTxn",
    "Read",
    "ReadMany",
    "SdurClient",
    "SdurConfig",
    "SdurServer",
    "ServiceCosts",
    "TxnId",
    "TxnProjection",
    "TxnResult",
    "ctest",
]
