"""The scale policy: watermark hysteresis over pressure signals.

Pure decision logic — no cluster access, no clock reads beyond the
``now`` argument — so the unit tests drive it with synthetic pressure
traces and assert exactly when it fires.

Rules, in priority order (relieving overload beats consolidation):

* **split** the highest-pressure partition that has sat above
  ``high_water * capacity`` for ``sustain`` consecutive samples, unless
  the active-partition count is already at ``max_partitions``;
* **merge** the routing-adjacent pair whose members have *both* sat
  below ``low_water * capacity`` for ``sustain`` samples (lowest
  combined pressure first), unless at ``min_partitions``;
* otherwise **hold**.

A candidate inside the ``cooldown`` window is suppressed, not queued:
the controller counts the suppression and the candidate must re-earn
its streak — pressure during a migration is polluted by the migration
itself, so stale intent must not fire later.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autoscale.config import AutoscaleConfig


@dataclass(frozen=True)
class ScaleDecision:
    """What the policy wants done this tick."""

    action: str  # "split" | "merge" | "hold"
    #: Split: the overloaded source.  Merge: the partition to absorb.
    partition: str = ""
    #: Merge only: the surviving partition.
    into: str = ""
    #: A candidate existed but the cooldown window swallowed it.
    suppressed_by_cooldown: bool = False


HOLD = ScaleDecision(action="hold")


class ScalePolicy:
    """Watermark hysteresis with per-partition streak counters."""

    def __init__(self, config: AutoscaleConfig) -> None:
        self.config = config
        #: partition -> consecutive samples above the high watermark.
        self._over: dict[str, int] = {}
        #: partition -> consecutive samples below the low watermark.
        self._under: dict[str, int] = {}
        self._last_action_at: float | None = None

    def decide(
        self,
        now: float,
        pressures: dict[str, float],
        adjacency: list[tuple[str, str]],
        active: int,
    ) -> ScaleDecision:
        """One tick: update streaks, emit at most one action.

        ``pressures`` maps each active partition to its smoothed
        pressure; ``adjacency`` lists mergeable ``(absorbed, into)``
        pairs; ``active`` is the live partition count.
        """
        config = self.config
        high = config.high_water * config.capacity
        low = config.low_water * config.capacity
        for partition, pressure in pressures.items():
            self._over[partition] = self._over.get(partition, 0) + 1 if pressure > high else 0
            self._under[partition] = self._under.get(partition, 0) + 1 if pressure < low else 0
        for tracked in (self._over, self._under):
            for partition in list(tracked):
                if partition not in pressures:
                    del tracked[partition]

        candidate = self._split_candidate(pressures, active) or self._merge_candidate(
            pressures, adjacency, active
        )
        if candidate is None:
            return HOLD
        if (
            self._last_action_at is not None
            and now - self._last_action_at < config.cooldown
        ):
            return ScaleDecision(action="hold", suppressed_by_cooldown=True)
        self._last_action_at = now
        for partition in (candidate.partition, candidate.into):
            self._over.pop(partition, None)
            self._under.pop(partition, None)
        return candidate

    def _split_candidate(
        self, pressures: dict[str, float], active: int
    ) -> ScaleDecision | None:
        if active >= self.config.max_partitions:
            return None
        ripe = [
            partition
            for partition, streak in self._over.items()
            if streak >= self.config.sustain
        ]
        if not ripe:
            return None
        hottest = max(ripe, key=lambda p: (pressures.get(p, 0.0), p))
        return ScaleDecision(action="split", partition=hottest)

    def _merge_candidate(
        self,
        pressures: dict[str, float],
        adjacency: list[tuple[str, str]],
        active: int,
    ) -> ScaleDecision | None:
        if active <= self.config.min_partitions:
            return None
        sustain = self.config.sustain
        ripe = [
            (absorbed, into)
            for absorbed, into in adjacency
            if self._under.get(absorbed, 0) >= sustain
            and self._under.get(into, 0) >= sustain
        ]
        if not ripe:
            return None
        absorbed, into = min(
            ripe,
            key=lambda pair: (
                pressures.get(pair[0], 0.0) + pressures.get(pair[1], 0.0),
                pair,
            ),
        )
        return ScaleDecision(action="merge", partition=absorbed, into=into)
