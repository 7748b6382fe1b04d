"""The simulated network.

``SimNetwork`` delivers messages between registered nodes on the
simulation kernel with delays drawn from a latency model.  It supports the
failure modes the paper's model allows:

* **crash-stop** — a crashed node neither sends nor receives, forever;
* **link cuts** — messages between two nodes are silently dropped until
  the link heals (used to exercise Paxos under partial connectivity);
* **probabilistic loss** — optional, for stress-testing retransmission-free
  protocols (Paxos tolerates loss; the SDUR layer assumes quasi-reliable
  links, which the default loss of zero provides).

With ``codec_roundtrip=True`` every message is encoded and decoded through
the wire codec before delivery, proving that the exact objects the
protocols exchange are serializable — the same property the asyncio
transport needs for real — and through the same codec
(:mod:`repro.net.codec`).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.errors import UnknownNodeError
from repro.net.codec import decode_packed, encode_packed
from repro.obs.recorder import NULL_RECORDER, ObsRecorder, traced_tid as _traced_tid
from repro.sim.kernel import Kernel
from repro.sim.latency import LatencyModel
from repro.sim.rng import RngRegistry

#: Signature of a node's message handler: ``handler(src_node_id, message)``.
Handler = Callable[[str, Any], None]


class SimNetwork:
    """Simulated message fabric between named nodes."""

    def __init__(
        self,
        kernel: Kernel,
        latency: LatencyModel,
        rng: RngRegistry,
        codec_roundtrip: bool = False,
        loss_probability: float = 0.0,
        strict: bool = True,
        obs: ObsRecorder | None = None,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(f"loss_probability must be in [0, 1), got {loss_probability!r}")
        self.kernel = kernel
        self.latency = latency
        self.codec_roundtrip = codec_roundtrip
        self.loss_probability = loss_probability
        #: Strict mode raises on sends to unregistered nodes (catches
        #: wiring bugs in tests); non-strict drops them like a real
        #: network drops traffic to departed processes.
        self.strict = strict
        self.obs = obs if obs is not None else NULL_RECORDER
        #: Monotonic id pairing a traced send with its delivery.
        self._hop = 0
        self._rng = rng.stream("net.latency")
        self._loss_rng = rng.stream("net.loss")
        self._handlers: dict[str, Handler] = {}
        self._crashed: set[str] = set()
        self._cut_links: set[frozenset[str]] = set()
        #: Gray-failed nodes -> (extra delay, jitter) added per message.
        self._degraded: dict[str, tuple[float, float]] = {}
        # Statistics.
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # Membership and failures
    # ------------------------------------------------------------------
    def register(self, node_id: str, handler: Handler) -> None:
        """Attach ``handler`` as the message sink for ``node_id``."""
        self._handlers[node_id] = handler

    def crash(self, node_id: str) -> None:
        """Crash-stop ``node_id``: it never sends or receives again."""
        self._crashed.add(node_id)
        if self.obs.enabled:
            self.obs.event("net.crash", node_id, None)

    def cut_link(self, a: str, b: str) -> None:
        """Silently drop all messages between ``a`` and ``b``."""
        self._cut_links.add(frozenset({a, b}))

    def heal_link(self, a: str, b: str) -> None:
        self._cut_links.discard(frozenset({a, b}))

    def link_is_cut(self, a: str, b: str) -> bool:
        return frozenset({a, b}) in self._cut_links

    def degrade(self, node_id: str, extra: float, jitter: float = 0.0) -> None:
        """Gray-fail ``node_id``: messages to or from it take ``extra``
        additional seconds (plus up to ``jitter`` more, uniform).

        Unlike a crash the node stays up and correct — just slow, the
        failure mode crash detectors miss (a *slow replica*).
        """
        if extra < 0 or jitter < 0:
            raise ValueError("degrade extra/jitter must be non-negative")
        self._degraded[node_id] = (extra, jitter)
        if self.obs.enabled:
            self.obs.event("net.degrade", node_id, None, extra=extra, jitter=jitter)

    def restore(self, node_id: str) -> None:
        """Undo :meth:`degrade`; no-op if the node was healthy."""
        self._degraded.pop(node_id, None)
        if self.obs.enabled:
            self.obs.event("net.restore", node_id, None)

    def _degrade_penalty(self, src: str, dst: str) -> float:
        penalty = 0.0
        for node in (src, dst):
            spec = self._degraded.get(node)
            if spec is not None:
                extra, jitter = spec
                penalty += extra
                if jitter:
                    penalty += jitter * self._rng.random()
        return penalty

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, msg: Any) -> None:
        """Send ``msg`` from ``src`` to ``dst`` (fire-and-forget)."""
        if dst not in self._handlers:
            if self.strict:
                raise UnknownNodeError(f"send to unregistered node {dst!r}")
            self.messages_dropped += 1
            if self.obs.enabled:
                self.obs.event("net.drop.unknown", src, None, dst=dst, msg=type(msg).__name__)
            return
        self.messages_sent += 1
        if src in self._crashed or dst in self._crashed:
            self.messages_dropped += 1
            return
        if self.link_is_cut(src, dst):
            self.messages_dropped += 1
            if self.obs.enabled:
                self.obs.event("net.drop.cut", src, None, dst=dst, msg=type(msg).__name__)
            return
        # In-process hand-offs (self sends) are never lost.
        if src != dst and self.loss_probability and self._loss_rng.random() < self.loss_probability:
            self.messages_dropped += 1
            if self.obs.enabled:
                self.obs.event("net.drop.loss", src, None, dst=dst, msg=type(msg).__name__)
            return
        payload = msg
        if self.codec_roundtrip:
            wire = encode_packed(msg)
            self.bytes_sent += len(wire)
            payload = decode_packed(wire)
        delay = self.latency.sample(src, dst, self._rng)
        # Self hand-offs skip the penalty: local compute slowness is the
        # CPU model's job, not the network's.
        if self._degraded and src != dst:
            delay += self._degrade_penalty(src, dst)
        # Traced sends take a separate scheduling path so the disabled
        # case costs exactly one extra branch (and zero allocations).
        if self.obs.enabled:
            tid = _traced_tid(msg)
            if tid is not None:
                self._hop += 1
                hop = self._hop
                name = type(msg).__name__
                self.obs.event("net.send", src, tid, dst=dst, msg=name, hop=hop)
                self.kernel.schedule(
                    delay, self._deliver_traced, src, dst, payload, tid, name, hop
                )
                return
        self.kernel.schedule(delay, self._deliver, src, dst, payload)

    def _deliver_traced(
        self, src: str, dst: str, msg: Any, tid: Any, name: str, hop: int
    ) -> None:
        self.obs.event("net.recv", dst, tid, src=src, msg=name, hop=hop)
        self._deliver(src, dst, msg)

    def _deliver(self, src: str, dst: str, msg: Any) -> None:
        if dst in self._crashed:
            self.messages_dropped += 1
            return
        handler = self._handlers.get(dst)
        if handler is None:
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        handler(src, msg)
