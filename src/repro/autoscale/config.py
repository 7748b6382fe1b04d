"""Tuning knobs for the autoscale control loop."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class AutoscaleConfig:
    """One immutable bundle shared by monitor, policy, and controller.

    The watermarks are fractions of ``capacity`` (the certification
    throughput one partition sustains, ``1/(certify+apply)`` under the
    scalability cost model).  Hysteresis has two guards: a signal must
    stay past its watermark for ``sustain`` consecutive samples, and at
    most one actuation fires per ``cooldown`` window — both are needed,
    or a migration's own goodput dip re-triggers the policy.
    """

    #: Sampling / decision period in seconds.
    interval: float = 0.5
    #: Transactions/second one partition can sustain (pressure unit).
    capacity: float = 1000.0
    #: Split a partition sustained above ``high_water * capacity``.
    high_water: float = 0.75
    #: Merge routing-adjacent partitions both below ``low_water * capacity``.
    low_water: float = 0.25
    #: Consecutive samples past a watermark before acting.
    sustain: int = 4
    #: Minimum seconds between actuations (covers the migration itself).
    cooldown: float = 6.0
    min_partitions: int = 1
    max_partitions: int = 8
    #: EWMA smoothing factor for the pressure signal (1 = no smoothing).
    ewma_alpha: float = 0.5
    #: Queue-depth contribution to pressure, in txn/s per queued entry.
    queue_weight: float = 5.0

    def __post_init__(self) -> None:
        if not 0 < self.low_water < self.high_water <= 1.0:
            raise ConfigurationError(
                "need 0 < low_water < high_water <= 1 "
                f"(got {self.low_water}, {self.high_water})"
            )
        if self.interval <= 0 or self.capacity <= 0:
            raise ConfigurationError("interval and capacity must be positive")
        if self.sustain < 1:
            raise ConfigurationError("sustain must be at least 1")
        if self.min_partitions < 1 or self.max_partitions < self.min_partitions:
            raise ConfigurationError("need 1 <= min_partitions <= max_partitions")
        if not 0 < self.ewma_alpha <= 1.0:
            raise ConfigurationError("ewma_alpha must be in (0, 1]")
