"""Storage substrate: multiversion store, bloom filters, write-ahead log.

* :mod:`repro.storage.mvstore` — the multiversion key-value store every
  SDUR server keeps for its partition (snapshot reads at any retained
  version).
* :mod:`repro.storage.bloom` — deterministic bloom filters used to ship
  readset digests and to bound certification memory (§V of the paper).
* :mod:`repro.storage.wal` — a crash-recoverable append-only log, the
  stand-in for the Berkeley DB log the paper's Paxos used.
"""

from repro.storage.bloom import BloomFilter
from repro.storage.mvstore import MultiVersionStore
from repro.storage.wal import WriteAheadLog

__all__ = ["MultiVersionStore", "BloomFilter", "WriteAheadLog"]
