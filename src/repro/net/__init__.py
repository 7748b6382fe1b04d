"""Cluster messaging fabric.

* :mod:`repro.net.message` — the ``@message`` registry and the tagged
  JSON encoding over it (checkpoints, dumps, the codec tests' oracle).
* :mod:`repro.net.codec` — the wire codec: every registered class
  compiled into a positional ``struct`` encoder / decoder; what TCP
  frames and WAL records are made of.
* :mod:`repro.net.topology` — nodes, regions, and the region-aware latency
  model (intra-region delay δ, inter-region delay Δ).
* :mod:`repro.net.sim_transport` — the simulated network: per-link delays,
  crash-stop failures, link cuts, optional message loss, and an optional
  round trip through the wire codec that proves every message is
  serializable.
* :mod:`repro.net.asyncio_transport` — a real TCP transport with
  length-prefixed frames, used by the asyncio runtime in integration
  tests.
"""

from repro.net.message import Message, decode_message, encode_message, message, registry
from repro.net.sim_transport import SimNetwork
from repro.net.topology import NodeSpec, RegionLatencyModel, Topology

__all__ = [
    "Message",
    "message",
    "encode_message",
    "decode_message",
    "registry",
    "SimNetwork",
    "Topology",
    "NodeSpec",
    "RegionLatencyModel",
]
