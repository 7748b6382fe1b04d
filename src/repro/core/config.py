"""Server-side configuration for SDUR and its geo extensions."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.overload.admission import AdmissionConfig


class DelayMode(str, enum.Enum):
    """How the *delaying transactions* technique picks its delay (§IV-D)."""

    #: No delaying (baseline SDUR).
    OFF = "off"
    #: Delay the local broadcast by the estimated time for the remote
    #: broadcast request to reach the farthest involved partition
    #: (``max delay(x, p)`` in Algorithm 2 line 44).
    AUTO = "auto"
    #: Delay by a fixed amount (the paper sweeps D ∈ {20, 40, 60} ms).
    FIXED = "fixed"


@dataclass(frozen=True)
class ServiceCosts:
    """CPU seconds charged at a server per unit of protocol work.

    All-zero costs (default) make the system purely latency-bound, which
    is what the geo experiments measure.  The scalability experiments set
    nonzero costs so a single group saturates at ``1/(certify+apply)``
    transactions per second while partitioned deployments scale out.
    """

    read: float = 0.0
    certify: float = 0.0
    apply: float = 0.0


@dataclass(frozen=True)
class SdurConfig:
    """Tuning knobs for one SDUR server (shared across a deployment)."""

    # -- Reordering (§IV-E) -------------------------------------------
    #: Reorder threshold k.  0 disables reordering: a global's threshold
    #: is met the moment it is delivered and no local may ever leap it —
    #: exactly baseline SDUR.
    reorder_threshold: int = 0

    # -- Delaying (§IV-D) ----------------------------------------------
    delay_mode: DelayMode = DelayMode.OFF
    #: Fixed delay in seconds when ``delay_mode`` is FIXED.
    delay_fixed: float = 0.0

    # -- Certification (§III-B, §V) -------------------------------------
    #: Committed records retained for certification (the paper's last-K
    #: bloom filters).  Transactions older than the window abort.
    history_window: int = 50_000

    # -- Liveness and recovery ------------------------------------------
    #: Abort-request timeout for pending globals missing votes;
    #: ``None`` disables the recovery protocol.
    vote_timeout: float | None = 5.0

    # -- Globally-consistent snapshots (§III-A) -------------------------
    #: Gossip period for snapshot-vector construction; ``None`` disables
    #: (read-only transactions then need another vector source).
    gossip_interval: float | None = 0.05

    # -- Checkpointing ----------------------------------------------------
    #: Period at which the server tries to checkpoint its delivery-path
    #: state (only succeeds at quiescent points); enables WAL compaction
    #: and bounded recovery.  ``None`` disables.
    checkpoint_interval: float | None = None

    # -- Version garbage collection --------------------------------------
    #: Period of multiversion-store GC; ``None`` disables (versions are
    #: retained forever, as in short experiment runs).
    store_gc_interval: float | None = None
    #: Number of most recent commit versions kept readable by snapshots
    #: when GC runs; older snapshot reads abort with "snapshot too old".
    store_gc_keep: int = 10_000

    # -- Admission control (docs/PROTOCOL.md §16) -------------------------
    #: Token-bucket admission + bounded ingress/stall queues in front of
    #: the server; overload is refused with explicit ``Busy`` replies.
    #: ``None`` (default) disables shedding entirely — the pre-§16
    #: behavior, kept as the O4 ablation baseline.
    admission: AdmissionConfig | None = None

    # -- Client notification ---------------------------------------------
    #: Every replica (not just the coordinator) sends the outcome to the
    #: client.  Costlier but robust to coordinator crashes.
    notify_all_replicas: bool = False

    # -- Observability (docs/OBSERVABILITY.md) ----------------------------
    #: Record a causal event trace per transaction (``repro.obs``).  Off
    #: by default: the disabled recorder is a shared no-op and the
    #: instrumentation sites allocate nothing.
    tracing: bool = False

    # -- CPU model -------------------------------------------------------
    costs: ServiceCosts = field(default_factory=ServiceCosts)
