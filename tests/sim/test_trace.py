"""Tests for the trace recorder."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.trace import Trace, TraceRecorder


class TestRecorder:
    def test_record_and_freeze(self):
        rec = TraceRecorder()
        rec.record("power", 0.0, 100.0)
        rec.record("power", 1.0, 120.0)
        trace = rec.trace("power")
        assert len(trace) == 2
        assert trace.final == 120.0

    def test_record_many(self):
        rec = TraceRecorder()
        rec.record_many(1.0, a=1.0, b=2.0)
        assert rec.trace("a").values[0] == 1.0
        assert rec.trace("b").values[0] == 2.0

    def test_record_series_equals_record_many_per_time(self):
        bulk, single = TraceRecorder(), TraceRecorder()
        times = [0.5, 1.0, 1.5]
        bulk.record_series(times, u=1.0, f=2.8e9)
        for t in times:
            single.record_many(t, u=1.0, f=2.8e9)
        for channel in ("u", "f"):
            assert np.array_equal(bulk.trace(channel).times,
                                  single.trace(channel).times)
            assert np.array_equal(bulk.trace(channel).values,
                                  single.trace(channel).values)

    def test_record_series_rejects_going_back(self):
        rec = TraceRecorder()
        rec.record("u", 2.0, 1.0)
        with pytest.raises(SimulationError):
            rec.record_series([1.0, 3.0], u=0.0)

    def test_channels_sorted(self):
        rec = TraceRecorder()
        rec.record("z", 0.0, 1.0)
        rec.record("a", 0.0, 1.0)
        assert rec.channels == ["a", "z"]

    def test_contains(self):
        rec = TraceRecorder()
        rec.record("x", 0.0, 1.0)
        assert "x" in rec and "y" not in rec

    def test_non_monotonic_time_raises(self):
        rec = TraceRecorder()
        rec.record("x", 5.0, 1.0)
        with pytest.raises(SimulationError):
            rec.record("x", 4.0, 2.0)

    def test_unknown_channel_raises(self):
        with pytest.raises(SimulationError):
            TraceRecorder().trace("missing")

    def test_as_dict(self):
        rec = TraceRecorder()
        rec.record_many(0.0, a=1.0, b=2.0)
        d = rec.as_dict()
        assert set(d) == {"a", "b"}


class TestTrace:
    def _trace(self, times, values, name="t"):
        return Trace(name, np.asarray(times, float), np.asarray(values, float))

    def test_mean(self):
        assert self._trace([0, 1, 2], [1.0, 2.0, 3.0]).mean() == 2.0

    def test_time_weighted_mean(self):
        # Value 10 held for 1 s, value 0 held for 3 s -> 2.5.
        trace = self._trace([0.0, 1.0, 4.0], [10.0, 0.0, 99.0])
        assert trace.time_weighted_mean() == pytest.approx(2.5)

    def test_time_weighted_mean_needs_two_samples(self):
        with pytest.raises(SimulationError):
            self._trace([0.0], [1.0]).time_weighted_mean()

    def test_window(self):
        trace = self._trace([0, 1, 2, 3], [1, 2, 3, 4])
        sub = trace.window(1.0, 2.0)
        assert list(sub.values) == [2.0, 3.0]

    def test_empty_final_raises(self):
        with pytest.raises(SimulationError):
            _ = self._trace([], []).final

    def test_mismatched_lengths_raise(self):
        with pytest.raises(SimulationError):
            Trace("x", np.zeros(2), np.zeros(3))
