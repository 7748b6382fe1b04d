"""Token-bucket admission control and bounded-queue load leveling.

The controller sits in front of one :class:`~repro.core.server.SdurServer`
and answers a single question per commit request: *admit or shed?*  It
combines three classic production guards (throttling / rate limiting and
queue-based load leveling):

* a **token bucket** caps the sustained commit-admission rate while
  letting bursts up to the bucket capacity through;
* an **in-flight bound** caps transactions admitted here but not yet
  completed (admissions carry a TTL so a coordinator that never learns a
  remote-only transaction's outcome cannot leak slots);
* a **queue-depth bound** refuses new work while the server's delivery
  backlog (stall queue + pending list) is already deep.

Every decision is made from the simulated clock and counters only — no
wall-clock, no randomness — so runs stay deterministic and replayable.
Crucially the controller acts strictly *before* atomic broadcast: a shed
transaction was never proposed to any log, so all replicas of every
partition still deliver identical sequences and certification verdicts
are untouched (docs/PROTOCOL.md §16).
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Admission slots auto-expire after this long (leak guard for
#: coordinators that never see the transaction complete locally).
INFLIGHT_TTL = 30.0
#: Retry-after hint carried in Busy replies (clients treat it as the
#: floor of their backoff, not a promise).
RETRY_AFTER = 0.05

class AdmissionDecision(str, enum.Enum):
    """Outcome of one admission check (the shed reason travels in Busy)."""

    ADMIT = "admit"
    #: Token bucket empty: sustained rate above the configured limit.
    SHED_RATE = "rate"
    #: Too many admitted-but-uncompleted transactions at this server.
    SHED_INFLIGHT = "inflight"
    #: Delivery backlog (stall queue + pending list) beyond the bound.
    SHED_QUEUE = "queue"

    @property
    def admitted(self) -> bool:
        return self is AdmissionDecision.ADMIT


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs for one server's admission controller.

    ``None`` rate disables the bucket; the depth bounds always apply.
    The defaults are sized for the simulated deployments (a few hundred
    in-flight transactions per server); real deployments would derive
    them from measured service times.
    """

    #: Sustained commit admissions per second; ``None`` = unlimited.
    rate: float | None = None
    #: Bucket capacity (burst size) in tokens.
    burst: float = 64.0
    #: Max transactions admitted here and not yet completed locally.
    max_inflight: int = 256
    #: Shed commits while ``stalled + pending`` is at or above this.
    max_queue_depth: int = 512

    def __post_init__(self) -> None:
        if self.rate is not None and self.rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {self.rate!r}")
        if self.burst <= 0:
            raise ConfigurationError(f"burst must be positive, got {self.burst!r}")
        if self.max_inflight < 1:
            raise ConfigurationError("max_inflight must be at least 1")
        if self.max_queue_depth < 1:
            raise ConfigurationError("max_queue_depth must be at least 1")


class TokenBucket:
    """A deterministic token bucket refilled from the caller's clock."""

    def __init__(self, rate: float, capacity: float) -> None:
        if rate <= 0 or capacity <= 0:
            raise ConfigurationError("rate and capacity must be positive")
        self.rate = rate
        self.capacity = capacity
        self._tokens = capacity
        self._refilled_at = 0.0

    def _refill(self, now: float) -> None:
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)
        self._refilled_at = now

    def try_take(self, now: float) -> bool:
        """Consume a token if one is available; refills lazily from ``now``."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Admit-or-shed decisions for one server's ingress."""

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config
        self.bucket = (
            TokenBucket(config.rate, config.burst) if config.rate is not None else None
        )
        #: tid -> admission expiry time, insertion-ordered so expired
        #: slots are pruned from the front in O(pruned).
        self._inflight: OrderedDict[object, float] = OrderedDict()
        # Counters (mirrored into ServerStats by the server).
        self.admitted = 0
        self.shed_rate = 0
        self.shed_inflight = 0
        self.shed_queue = 0

    @property
    def shed_total(self) -> int:
        return self.shed_rate + self.shed_inflight + self.shed_queue

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    def _prune(self, now: float) -> None:
        while self._inflight:
            tid, deadline = next(iter(self._inflight.items()))
            if deadline > now:
                return
            del self._inflight[tid]

    def admit_commit(self, tid: object, now: float, queue_depth: int) -> AdmissionDecision:
        """Decide one commit request; records the decision in counters."""
        self._prune(now)
        if tid in self._inflight:
            # A client resubmission of a still-admitted transaction (its
            # first accept was slow, not lost).  Let it through without a
            # new slot or token: servers dedupe deliveries by tid, so the
            # duplicate broadcast is absorbed downstream.
            self.admitted += 1
            return AdmissionDecision.ADMIT
        if queue_depth >= self.config.max_queue_depth:
            self.shed_queue += 1
            return AdmissionDecision.SHED_QUEUE
        if len(self._inflight) >= self.config.max_inflight:
            self.shed_inflight += 1
            return AdmissionDecision.SHED_INFLIGHT
        if self.bucket is not None and not self.bucket.try_take(now):
            self.shed_rate += 1
            return AdmissionDecision.SHED_RATE
        self._inflight[tid] = now + INFLIGHT_TTL
        self.admitted += 1
        return AdmissionDecision.ADMIT

    def note_completed(self, tid: object) -> None:
        """Release ``tid``'s slot (the transaction completed locally)."""
        self._inflight.pop(tid, None)


class AdmitAll:
    """The no-bounds policy a server runs when ``SdurConfig.admission``
    is ``None``: every request admitted, nothing tracked.  It counts
    commit admissions so offered and accepted load stay comparable
    across the O4 ablation."""

    shed_total = 0
    inflight = 0

    def __init__(self) -> None:
        self.admitted = 0

    def admit_commit(self, tid: object, now: float, queue_depth: int) -> AdmissionDecision:
        self.admitted += 1
        return AdmissionDecision.ADMIT

    def note_completed(self, tid: object) -> None:
        """Nothing to release: no slot was taken."""
