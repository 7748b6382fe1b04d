"""Unit tests for the FIFO CPU service station."""

import pytest

from repro.sim.kernel import Kernel
from repro.sim.service import ServiceStation


class TestServiceStation:
    def test_zero_cost_on_idle_station_runs_immediately(self):
        kernel = Kernel()
        station = ServiceStation(kernel)
        seen = []
        station.submit(0.0, lambda: seen.append(kernel.now))
        assert seen == [0.0]  # before kernel even runs

    def test_service_time_delays_completion(self):
        kernel = Kernel()
        station = ServiceStation(kernel)
        seen = []
        station.submit(0.5, lambda: seen.append(kernel.now))
        kernel.run()
        assert seen == [0.5]

    def test_fifo_order_and_serial_service(self):
        kernel = Kernel()
        station = ServiceStation(kernel)
        seen = []
        station.submit(1.0, lambda: seen.append(("a", kernel.now)))
        station.submit(2.0, lambda: seen.append(("b", kernel.now)))
        station.submit(0.5, lambda: seen.append(("c", kernel.now)))
        kernel.run()
        assert seen == [("a", 1.0), ("b", 3.0), ("c", 3.5)]

    def test_zero_cost_behind_queued_work_waits(self):
        kernel = Kernel()
        station = ServiceStation(kernel)
        seen = []
        station.submit(1.0, lambda: seen.append(("slow", kernel.now)))
        station.submit(0.0, lambda: seen.append(("fast", kernel.now)))
        kernel.run()
        assert seen == [("slow", 1.0), ("fast", 1.0)]

    def test_work_submitted_later_queues_behind_in_flight(self):
        kernel = Kernel()
        station = ServiceStation(kernel)
        seen = []
        station.submit(2.0, lambda: seen.append(("first", kernel.now)))
        kernel.schedule(1.0, lambda: station.submit(1.0, lambda: seen.append(("second", kernel.now))))
        kernel.run()
        assert seen == [("first", 2.0), ("second", 3.0)]

    def test_negative_service_time_rejected(self):
        station = ServiceStation(Kernel())
        with pytest.raises(ValueError):
            station.submit(-1.0, lambda: None)

    def test_queue_length(self):
        kernel = Kernel()
        station = ServiceStation(kernel)
        station.submit(1.0, lambda: None)
        station.submit(1.0, lambda: None)
        station.submit(1.0, lambda: None)
        assert station.completed == 0  # one in service, two waiting
        kernel.run()
        assert station.completed == 3 and kernel.now == 3.0  # served one at a time
