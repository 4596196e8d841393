"""Property-based tests for the extension modules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GreenGpuConfig
from repro.core.division import WorkloadDivider
from repro.extensions.hardware_table import QuantizedWeightTable
from repro.workloads.trace_replay import TraceSample, compress, project_feasible
from repro.sim.perf import RooflineModel

utils = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestQuantizedTableProperties:
    @given(
        bits=st.integers(4, 12),
        n=st.integers(2, 6),
        m=st.integers(2, 6),
        data=st.data(),
    )
    @settings(max_examples=40)
    def test_weights_bounded_and_argmax_defined(self, bits, n, m, data):
        table = QuantizedWeightTable(n, m, bits=bits)
        scale = (1 << bits) - 1
        for _ in range(data.draw(st.integers(1, 15))):
            loss = np.array(
                data.draw(
                    st.lists(
                        st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m),
                        min_size=n, max_size=n,
                    )
                )
            )
            table.update(loss, beta=0.2)
            assert np.all(table.weights >= 0)
            assert np.all(table.weights <= scale)
        i, j = table.best_pair()
        assert 0 <= i < n and 0 <= j < m

    @given(loss_a=utils, loss_b=utils)
    @settings(max_examples=60)
    def test_clearly_separated_losses_ordered_correctly(self, loss_a, loss_b):
        """Losses more than a few quanta apart must order the weights."""
        if abs(loss_a - loss_b) < 16.0 / 255.0:
            return
        table = QuantizedWeightTable(1, 2, bits=8)
        loss = np.array([[loss_a, loss_b]])
        for _ in range(5):
            table.update(loss, beta=0.2)
        _, j = table.best_pair()
        assert j == (0 if loss_a < loss_b else 1)


class TestMultiwayProperties:
    """The core divider over 2-5 cards (CPU plus 1-4 cards)."""

    @given(
        n_devices=st.integers(2, 5),
        step=st.floats(0.01, 0.2),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_shares_stay_on_simplex(self, n_devices, step, data):
        divider = WorkloadDivider(GreenGpuConfig(division_step=step),
                                  cards=n_devices - 1)
        for _ in range(data.draw(st.integers(1, 20))):
            divider.update(*(data.draw(st.floats(0.0, 100.0))
                             for _ in range(n_devices)))
            shares = divider.shares
            assert sum(shares) == pytest.approx(1.0)
            assert min(shares) >= 0.0

    @given(
        n_devices=st.integers(2, 4),
        speeds=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_closed_loop_settles(self, n_devices, speeds):
        unit_times = [
            speeds.draw(st.floats(0.5, 10.0)) for _ in range(n_devices)
        ]
        divider = WorkloadDivider(cards=n_devices - 1)

        def drive(iterations):
            for _ in range(iterations):
                divider.update(*(s * u for s, u in zip(divider.shares, unit_times)))
            return divider.shares

        settled = drive(60)
        again = drive(10)
        assert np.allclose(settled, again)


class TestTraceProperties:
    @given(u_core=utils, u_mem=utils)
    def test_projection_always_feasible(self, u_core, u_mem):
        roofline = RooflineModel(4.0)
        pc, pm = project_feasible(u_core, u_mem, roofline)
        assert roofline.utilization_norm(pc, pm) <= 0.99 + 1e-9
        assert 0.0 <= pc <= 1.0 and 0.0 <= pm <= 1.0

    @given(
        values=st.lists(
            st.tuples(utils, utils), min_size=2, max_size=40
        ),
        tolerance=st.floats(0.0, 0.5),
    )
    @settings(max_examples=60)
    def test_compression_preserves_total_duration(self, values, tolerance):
        samples = [
            TraceSample(float(i), uc, um) for i, (uc, um) in enumerate(values)
        ]
        segments = compress(samples, tolerance=tolerance)
        total = sum(d for d, _, _ in segments)
        # Trace span plus one extrapolated tail interval.
        assert total == pytest.approx(len(values) - 1 + 1.0)
        for _, uc, um in segments:
            assert 0.0 <= uc <= 1.0 and 0.0 <= um <= 1.0



