"""Unit tests for the discrete-event scheduler."""

from __future__ import annotations

import math

import pytest

from repro.net.scheduler import EventScheduler, SchedulerError


class TestScheduling:
    def test_events_run_in_time_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(2.0, lambda: order.append("b"))
        scheduler.schedule(1.0, lambda: order.append("a"))
        scheduler.schedule(3.0, lambda: order.append("c"))
        scheduler.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        scheduler = EventScheduler()
        order = []
        for name in "abcde":
            scheduler.schedule(1.0, lambda n=name: order.append(n))
        scheduler.run()
        assert order == list("abcde")

    def test_now_advances_with_events(self):
        scheduler = EventScheduler()
        times = []
        scheduler.schedule(1.5, lambda: times.append(scheduler.now))
        scheduler.schedule(4.0, lambda: times.append(scheduler.now))
        scheduler.run()
        assert times == [1.5, 4.0]

    def test_events_can_schedule_more_events(self):
        scheduler = EventScheduler()
        order = []

        def first():
            order.append("first")
            scheduler.schedule(1.0, lambda: order.append("second"))

        scheduler.schedule(1.0, first)
        scheduler.run()
        assert order == ["first", "second"]
        assert scheduler.now == pytest.approx(2.0)

    def test_negative_delay_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(SchedulerError):
            scheduler.schedule(-0.1, lambda: None)

    def test_schedule_at_in_the_past_rejected(self):
        scheduler = EventScheduler()
        scheduler.schedule(5.0, lambda: None)
        scheduler.run()
        with pytest.raises(SchedulerError):
            scheduler.schedule_at(1.0, lambda: None)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_delay_rejected(self, bad):
        scheduler = EventScheduler()
        with pytest.raises(SchedulerError):
            scheduler.schedule(bad, lambda: None)
        assert scheduler.pending == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, bad):
        scheduler = EventScheduler()
        with pytest.raises(SchedulerError):
            scheduler.schedule_at(bad, lambda: None)
        assert scheduler.pending == 0

    def test_time_never_goes_backwards(self):
        # A NaN among the delays used to reorder the heap: events ran at
        # 1.0, 0.5, 2.0, nan, 3.0.  The NaN is now refused and the rest run
        # in time order.
        scheduler = EventScheduler()
        times = []
        for delay in (3.0, math.nan, 1.0, 2.0, 0.5):
            try:
                scheduler.schedule(delay, lambda: times.append(scheduler.now))
            except SchedulerError:
                pass
        scheduler.run()
        assert times == [0.5, 1.0, 2.0, 3.0]

    def test_schedule_returns_the_queued_event(self):
        scheduler = EventScheduler()
        scheduler.schedule(1.0, lambda: None)
        event = scheduler.schedule(0.5, lambda: None)
        assert (event.time, event.sequence, event.cancelled) == (0.5, 1, False)


class TestExecutionControls:
    def test_run_returns_executed_count(self):
        scheduler = EventScheduler()
        for _ in range(5):
            scheduler.schedule(1.0, lambda: None)
        assert scheduler.run() == 5
        assert scheduler.executed == 5

    def test_max_events_limit(self):
        scheduler = EventScheduler()
        for _ in range(10):
            scheduler.schedule(1.0, lambda: None)
        assert scheduler.run(max_events=3) == 3
        assert scheduler.pending == 7

    def test_until_time_limit(self):
        scheduler = EventScheduler()
        hits = []
        for delay in (1.0, 2.0, 3.0, 4.0):
            scheduler.schedule(delay, lambda d=delay: hits.append(d))
        scheduler.run(until_time=2.5)
        assert hits == [1.0, 2.0]

    def test_stop_when_predicate(self):
        scheduler = EventScheduler()
        hits = []
        for delay in (1.0, 2.0, 3.0):
            scheduler.schedule(delay, lambda d=delay: hits.append(d))
        scheduler.run(stop_when=lambda: len(hits) >= 2)
        assert hits == [1.0, 2.0]

    def test_cancelled_events_are_skipped(self):
        scheduler = EventScheduler()
        hits = []
        event = scheduler.schedule(1.0, lambda: hits.append("cancelled"))
        scheduler.schedule(2.0, lambda: hits.append("kept"))
        event.cancel()
        scheduler.run()
        assert hits == ["kept"]

    def test_step_returns_false_when_idle(self):
        scheduler = EventScheduler()
        assert scheduler.step() is False

    def test_len_reports_pending(self):
        scheduler = EventScheduler()
        scheduler.schedule(1.0, lambda: None)
        scheduler.schedule(1.0, lambda: None)
        assert len(scheduler) == 2

    def test_doctest(self):
        import doctest

        import repro.net.scheduler as module

        failures, _ = doctest.testmod(module)
        assert failures == 0


class TestDeterminism:
    def test_identical_schedules_produce_identical_traces(self):
        def build_and_run():
            scheduler = EventScheduler()
            trace = []

            def emit(name, delay):
                trace.append((name, scheduler.now))
                if delay > 0.25:
                    scheduler.schedule(delay / 2, lambda: emit(name + "'", delay / 2))

            for index, delay in enumerate((1.0, 0.5, 2.0)):
                scheduler.schedule(delay, lambda i=index, d=delay: emit(str(i), d))
            scheduler.run()
            return trace

        assert build_and_run() == build_and_run()
