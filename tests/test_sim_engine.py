"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import EventQueue


class TestEventQueue:
    def test_pop_returns_events_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, lambda: fired.append(2))
        queue.push(1.0, lambda: fired.append(1))
        queue.push(3.0, lambda: fired.append(3))
        order = [queue.pop().time for _ in range(3)]
        assert order == [1.0, 2.0, 3.0]

    def test_same_time_events_fire_in_scheduling_order(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        second = queue.push(1.0, lambda: None)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        keeper = queue.push(2.0, lambda: None)
        event.cancel()
        assert queue.pop() is keeper

    def test_peek_time_ignores_cancelled_head(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        event.cancel()
        assert queue.peek_time() == 5.0

    def test_len_counts_pending(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2


class TestSimulator:
    def test_run_until_stops_clock_at_horizon(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_events_fire_at_their_scheduled_time(self):
        sim = Simulator()
        times = []
        sim.schedule(0.5, lambda: times.append(sim.now))
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run(until=2.0)
        assert times == [0.5, 1.5]

    def test_callbacks_receive_arguments(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.1, seen.append, "hello")
        sim.run()
        assert seen == ["hello"]

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nan_times_are_rejected(self):
        # NaN compares false against everything: accepted, it would sit in
        # the heap and silently break its ordering.
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending_events == 0

    @pytest.mark.parametrize("wheel", [False, True])
    def test_run_until_never_moves_the_clock_backwards(self, wheel):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: None)  # keeps the queue non-empty
        if wheel:
            sim.add_slot_timer(10.0, lambda barrier_time, barrier_seq: None,
                               start_at=5.0)
        sim.run(until=1.0)
        assert sim.now == 1.0
        for until in (0.5, float("nan")):
            with pytest.raises(SimulationError):
                sim.run(until=until)
            assert sim.now == 1.0
        fired = []
        sim.schedule(0.1, lambda: fired.append(sim.now))
        sim.run(until=1.0)  # until == now is a no-op window
        sim.run(until=2.0)
        assert fired == [1.1]

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(sim.now)
            if depth < 3:
                sim.schedule(1.0, chain, depth + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_stop_interrupts_run(self):
        sim = Simulator()
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.now == 1.0

    def test_max_events_limits_processing(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(i + 1.0, lambda: None)
        processed = sim.run(max_events=4)
        assert processed == 4

    def test_processed_events_accumulates(self):
        sim = Simulator()
        sim.schedule(0.1, lambda: None)
        sim.schedule(0.2, lambda: None)
        sim.run()
        assert sim.processed_events == 2

    def test_processed_events_is_live_during_run(self):
        # Watchdog pattern: a callback must see the counter advance mid-run.
        sim = Simulator()
        seen = []

        def spin():
            seen.append(sim.processed_events)
            if sim.processed_events < 3:
                sim.schedule(1.0, spin)

        sim.schedule(1.0, spin)
        sim.run()
        # The counter increments after each callback returns, so the Nth
        # firing observes N-1 processed events.
        assert seen == [0, 1, 2, 3]

    def test_call_soon_runs_at_current_time(self):
        sim = Simulator()
        times = []
        sim.schedule(1.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
        sim.run()
        assert times == [1.0]

    def test_peek_time_reports_next_live_event(self):
        sim = Simulator()
        assert sim.peek_time() is None
        doomed = sim.schedule(0.5, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.peek_time() == 0.5
        doomed.cancel()
        assert sim.peek_time() == 2.0
        assert sim.pending_events == 1

    def test_peek_time_between_windowed_runs(self):
        """The windowed execution pattern the sharded runtime uses."""
        sim = Simulator()
        fired = []
        sim.schedule(0.75, fired.append, "a")
        sim.run(until=0.5)
        assert sim.now == 0.5
        assert fired == []
        assert sim.peek_time() == 0.75
        sim.run(until=1.0)
        assert fired == ["a"]
        assert sim.peek_time() is None
