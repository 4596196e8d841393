"""Tests for the simulation clock and periodic tasks."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import SimClock


class TestBasics:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(start=5.0).now == 5.0

    def test_advance_by(self):
        clock = SimClock()
        clock.advance_by(2.5)
        assert clock.now == 2.5

    def test_advance_to_past_raises(self):
        clock = SimClock(start=10.0)
        with pytest.raises(SimulationError):
            clock.advance_to(5.0)

    def test_advance_by_negative_raises(self):
        with pytest.raises(SimulationError):
            SimClock().advance_by(-1.0)


class TestPeriodicTasks:
    def test_fires_every_period(self):
        clock = SimClock()
        fired = []
        clock.every(1.0, fired.append)
        clock.advance_to(3.5)
        assert fired == [1.0, 2.0, 3.0]

    def test_first_at_override(self):
        clock = SimClock()
        fired = []
        clock.every(1.0, fired.append, first_at=0.25)
        clock.advance_to(2.3)
        assert fired == [0.25, 1.25, 2.25]

    def test_deadline_exactly_at_target_fires(self):
        clock = SimClock()
        fired = []
        clock.every(1.0, fired.append)
        clock.advance_to(1.0)
        assert fired == [1.0]

    def test_multiple_tasks_fire_in_deadline_order(self):
        clock = SimClock()
        order = []
        clock.every(2.0, lambda t: order.append(("slow", t)))
        clock.every(1.5, lambda t: order.append(("fast", t)))
        clock.advance_to(3.0)
        assert order == [("fast", 1.5), ("slow", 2.0), ("fast", 3.0)]

    def test_tie_breaks_by_registration_order(self):
        clock = SimClock()
        order = []
        clock.every(1.0, lambda t: order.append("a"))
        clock.every(1.0, lambda t: order.append("b"))
        clock.advance_to(1.0)
        assert order == ["a", "b"]

    def test_parked_task_skips_firings_until_resumed(self):
        clock = SimClock()
        fired = []
        handle = clock.every(1.0, fired.append)
        clock.advance_to(1.0)
        clock.park(handle)
        assert handle.deadline == 2.0  # kept while parked
        clock.advance_to(4.5)
        assert clock.next_deadline() is None
        clock.resume(handle, 5.0)
        clock.advance_to(6.0)
        assert fired == [1.0, 5.0, 6.0]

    def test_callback_may_park_its_own_task(self):
        clock = SimClock()
        fired = []
        holder = []

        def tick(t):
            fired.append(t)
            clock.park(holder[0])

        holder.append(clock.every(1.0, tick))
        clock.every(10.0, lambda t: None)
        clock.advance_to(5.0)
        assert fired == [1.0]

    def test_resumed_task_keeps_its_tie_break(self):
        clock = SimClock()
        order = []
        first = clock.every(1.0, lambda t: order.append("a"))
        clock.every(1.0, lambda t: order.append("b"))
        clock.park(first)
        clock.resume(first, 1.0)
        clock.advance_to(1.0)
        assert order == ["a", "b"]

    def test_resume_in_the_past_raises(self):
        clock = SimClock()
        handle = clock.every(1.0, lambda t: None)
        clock.park(handle)
        clock.advance_to(3.0)
        with pytest.raises(SimulationError):
            clock.resume(handle, 2.0)

    def test_cancel_stops_future_firings(self):
        clock = SimClock()
        fired = []
        handle = clock.every(1.0, fired.append)
        clock.advance_to(1.5)
        handle.cancel()
        assert handle.cancelled
        clock.advance_to(5.0)
        assert fired == [1.0]

    def test_cancel_is_idempotent(self):
        clock = SimClock()
        handle = clock.every(1.0, lambda t: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_rejects_nonpositive_period(self):
        with pytest.raises(SimulationError):
            SimClock().every(0.0, lambda t: None)

    def test_rejects_first_at_in_past(self):
        clock = SimClock(start=5.0)
        with pytest.raises(SimulationError):
            clock.every(1.0, lambda t: None, first_at=4.0)

    def test_next_deadline_skips_cancelled(self):
        clock = SimClock()
        h = clock.every(1.0, lambda t: None)
        clock.every(2.0, lambda t: None)
        h.cancel()
        assert clock.next_deadline() == 2.0

    def test_next_deadline_empty(self):
        assert SimClock().next_deadline() is None


class TestPruneAccounting:
    def test_pruned_total_counts_cancelled_pops(self):
        clock = SimClock()
        handles = [clock.every(1.0, lambda t: None) for _ in range(3)]
        for h in handles:
            h.cancel()
        assert clock.pruned_total == 0  # nothing pruned until observed
        assert clock.next_deadline() is None
        assert clock.pruned_total == 3

    def test_pruning_during_advance_counts_once(self):
        clock = SimClock()
        h = clock.every(1.0, lambda t: None)
        clock.every(2.0, lambda t: None)
        h.cancel()
        clock.advance_to(4.0)
        assert clock.pruned_total == 1

    def test_prune_telemetry_counter(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        clock = SimClock()
        clock.set_telemetry(telemetry)
        handles = [clock.every(1.0, lambda t: None) for _ in range(2)]
        for h in handles:
            h.cancel()
        clock.advance_to(1.0)
        assert telemetry.registry.counter("clock_pruned_total").value == 2.0
        assert clock.pruned_total == 2

    def test_no_telemetry_counter_without_prunes(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        clock = SimClock()
        clock.set_telemetry(telemetry)
        clock.every(1.0, lambda t: None)
        clock.advance_to(3.0)
        assert clock.pruned_total == 0


class TestOneShot:
    def test_at_fires_once(self):
        clock = SimClock()
        fired = []
        clock.at(2.0, fired.append)
        clock.advance_to(10.0)
        assert fired == [2.0]

    def test_at_in_past_raises(self):
        clock = SimClock(start=3.0)
        with pytest.raises(SimulationError):
            clock.at(2.0, lambda t: None)


class TestCallbackBehaviour:
    def test_callback_sees_current_time(self):
        clock = SimClock()
        seen = []
        clock.every(1.0, lambda t: seen.append((t, clock.now)))
        clock.advance_to(2.0)
        assert all(t == now for t, now in seen)

    def test_callback_may_schedule_new_tasks(self):
        clock = SimClock()
        fired = []

        def parent(t):
            clock.at(t + 0.5, lambda t2: fired.append(t2))

        clock.every(1.0, parent)
        clock.advance_to(2.0)
        assert fired == [1.5]

    def test_callback_cannot_advance_clock(self):
        clock = SimClock()
        errors = []

        def bad(t):
            try:
                clock.advance_by(1.0)
            except SimulationError as e:
                errors.append(e)

        clock.every(1.0, bad)
        clock.advance_to(1.0)
        assert len(errors) == 1

    def test_periodic_task_cancelling_itself(self):
        clock = SimClock()
        fired = []
        handle = None

        def once(t):
            fired.append(t)
            handle.cancel()

        handle = clock.every(1.0, once)
        clock.advance_to(5.0)
        assert fired == [1.0]
