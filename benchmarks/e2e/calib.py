"""The calibration kernel: how fast is this machine *right now*?

The sandbox this benchmark runs in shares its host.  Over minutes the same
code runs up to 3x slower (CPU time and wall time alike: a busy sibling
thread, a preempted vCPU), in episodes longer than a whole run, so no
estimator inside a run can repeat from one run to the next.  The
benchmark therefore interleaves the measurement with slices of a fixed
piece of **reference work** that no PR can change (standard library only:
JSON round trips, loopback TCP round trips, a little bytecode, and random
reads over a buffer larger than the caches — the mix the system under test
is made of, so that it slows down when the system does) and reports its
timings in **calibrated seconds**: seconds of a machine on which one slice
takes ``REF_SLICE_S``.

* ``wall factor`` of a window = mean wall time of the slices that ran in
  it / ``REF_SLICE_S``.  A preemption that hits a slice is in it, with the
  probability it hits any other code, so it is charged in proportion.
* ``cpu factor`` = the same from the slices' CPU time.
* a rate is multiplied by the wall factor, a latency divided by it, CPU
  time divided by the CPU factor; the slices' own time is taken out of
  the window first, so their share (which grows when the machine slows)
  does not lean on the result.

On a quiet machine both factors sit near 1 and calibrated numbers read as
plain wall-clock ones (README, "Calibrated seconds", has the evidence).
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import time
from array import array
from dataclasses import dataclass

#: Wall time of one slice on this benchmark's reference machine: the
#: sandbox it was written on, at its quietest, slices interleaved with
#: ``local_closed``.  Only a scale: it moves every calibrated number by the
#: same factor.
REF_SLICE_S = 250e-6
#: The same for slices run back to back (``burst``), which find their
#: code and data still in the caches.
REF_BURST_SLICE_S = 137e-6
#: One slice per period while a window is measured (the loop is busy, so
#: in effect one per ~3.5 ms: 5-6% of the time).
PERIOD_S = 0.002
#: How many recent slices ``pace`` averages over (~0.5 s of them).
PACE_SLICES = 256
#: Message round trips and random memory reads per slice: about half of a
#: slice's time each.  Epoch by epoch, the two halves together follow the
#: system's own slow-downs better than either alone (README).
ROUND_TRIPS = 5
MEMORY_READS = 300
#: The buffer the reads walk: larger than the last-level cache, and not a
#: container, so the collector the system depends on never sees it.
BUFFER_BYTES = 1 << 26

_MESSAGE = {
    "type": "Accept", "group": "p0", "ballot": [1, 0], "instance": 4242,
    "value": {
        "tid": ["c0~0badcafe", 4242], "partition": "p0",
        "readset": ["0/obj17", "0/obj4711"], "writeset": {"0/obj17": 12, "0/obj4711": 13},
        "snapshot": 4200, "partitions": ["p0"], "coordinator": "s1", "client": "c0",
    },
}


@dataclass(frozen=True)
class CalMark:
    """The calibrator's running totals at one instant."""

    slices: int
    wall_s: float
    cpu_s: float


@dataclass(frozen=True)
class Speed:
    """What the slices between two marks say about the machine."""

    slices: int
    #: Wall and CPU time the slices themselves took (to be taken out of
    #: the window they ran in).
    wall_s: float
    cpu_s: float
    #: What one of these slices takes on the reference machine.
    ref_slice_s: float = REF_SLICE_S

    @property
    def wall_factor(self) -> float:
        return self.wall_s / self.slices / self.ref_slice_s if self.slices else 1.0

    @property
    def cpu_factor(self) -> float:
        return self.cpu_s / self.slices / self.ref_slice_s if self.slices else 1.0


def between(start: CalMark, end: CalMark) -> Speed:
    return Speed(end.slices - start.slices, end.wall_s - start.wall_s, end.cpu_s - start.cpu_s)


class Calibrator:
    """Runs slices of the reference work: in bursts, or one per
    ``PERIOD_S`` from the event loop's timer while ``start``-ed."""

    def __init__(self) -> None:
        listener = socket.socket()
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            self._out = socket.create_connection(listener.getsockname())
            self._in, _ = listener.accept()
        finally:
            listener.close()
        self._out.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        rng = random.Random(0)
        self._buffer = rng.randbytes(1 << 20) * (BUFFER_BYTES >> 20)
        offsets = array("I")
        offsets.frombytes(rng.randbytes(4 << 18))
        self._offsets = array("I", (offset % BUFFER_BYTES for offset in offsets))
        self._next_read = 0
        self.slices = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._recent = REF_SLICE_S
        self._timer: asyncio.TimerHandle | None = None

    def close(self) -> None:
        self.stop()
        self._out.close()
        self._in.close()

    # ------------------------------------------------------------------
    def slice(self) -> None:
        """One unit of reference work, timed."""
        wall, cpu = time.perf_counter(), time.process_time()
        send, recv = self._out.sendall, self._in.recv
        for _ in range(ROUND_TRIPS):
            send(json.dumps(_MESSAGE).encode())
            reply = json.loads(recv(4096))
            total = 0
            for key, value in reply["value"]["writeset"].items():
                total += value + len(key)
        first = self._next_read
        self._next_read = (first + MEMORY_READS) % (len(self._offsets) - MEMORY_READS)
        total += sum(map(self._buffer.__getitem__, self._offsets[first : first + MEMORY_READS]))
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - wall
        self.slices += 1
        self.wall_s += wall
        self.cpu_s += cpu
        self._recent += (wall - self._recent) / PACE_SLICES

    def burst(self, seconds: float) -> Speed:
        """Slices back to back for about ``seconds``; also resets ``pace``
        to what they measured."""
        before = self.mark()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.slice()
        spent = self.since(before)
        speed = Speed(spent.slices, spent.wall_s, spent.cpu_s, REF_BURST_SLICE_S)
        self._recent = speed.wall_factor * REF_SLICE_S
        return speed

    def start(self) -> None:
        """One slice per ``PERIOD_S`` on the running loop until ``stop``."""
        loop = asyncio.get_running_loop()

        def tick() -> None:
            self.slice()
            self._timer = loop.call_later(PERIOD_S, tick)

        self._timer = loop.call_later(PERIOD_S, tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------------
    def mark(self) -> CalMark:
        return CalMark(self.slices, self.wall_s, self.cpu_s)

    def since(self, mark: CalMark) -> Speed:
        return between(mark, self.mark())

    def pace(self) -> float:
        """Wall seconds per calibrated second, over the last ~0.5 s of
        slices: the open-loop generator spaces its arrivals by it."""
        return self._recent / REF_SLICE_S
