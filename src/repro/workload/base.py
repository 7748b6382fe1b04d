"""Workload interface consumed by the closed-loop drivers."""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.client import TxnProgram


@dataclass(frozen=True)
class TxnSpec:
    """One transaction to run: its program plus execution flags."""

    program: TxnProgram
    read_only: bool = False
    #: Shows up in per-operation metrics (e.g. "post", "timeline").
    label: str = ""


class Workload(ABC):
    """A stream of transaction specs, parameterized by the driver's RNG."""

    @abstractmethod
    def next_txn(self, rng: random.Random) -> TxnSpec:
        """Produce the next transaction for one client."""
