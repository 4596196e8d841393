"""Tests for the §VI 8-bit fixed-point hardware weight table."""

import numpy as np
import pytest

from repro.core.config import GreenGpuConfig
from repro.core.wma import WmaFrequencyScaler
from repro.errors import ConfigError
from repro.extensions.hardware_table import QuantizedWeightTable, QuantizedWmaScaler


class TestQuantizedTable:
    def test_paper_storage_figure(self):
        """§VI: 'we only need a 36 bytes table (6x6x8)'."""
        assert QuantizedWeightTable(6, 6, bits=8).storage_bytes == 36

    def test_initial_weights_full_scale(self):
        table = QuantizedWeightTable(2, 2)
        assert np.all(table.weights == 255)

    def test_update_rounds_to_nearest(self):
        table = QuantizedWeightTable(1, 1)
        table.update(np.array([[0.5]]), beta=0.2)
        # factor = 0.6 -> quantized 153/255; 255*153/255 = 153.
        assert table.weights[0, 0] == 153

    def test_tiny_losses_may_quantize_to_zero(self):
        """The 8-bit blur: losses below half a quantum are invisible."""
        table = QuantizedWeightTable(1, 1)
        table.update(np.array([[0.001]]), beta=0.2)  # factor 0.9992 -> 255/255
        assert table.weights[0, 0] == 255

    def test_renormalization_shift_preserves_argmax(self):
        table = QuantizedWeightTable(2, 2)
        loss = np.array([[0.9, 0.3], [0.9, 0.9]])
        for _ in range(50):
            table.update(loss, beta=0.2)
        assert table.best_pair() == (0, 1)
        assert table.renormalizations > 0
        assert table.weights.max() > 0

    def test_total_collapse_resets_to_uniform(self):
        table = QuantizedWeightTable(2, 2, bits=2)
        for _ in range(20):
            table.update(np.ones((2, 2)), beta=0.2)
        assert np.all(table.weights > 0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            QuantizedWeightTable(0, 2)
        with pytest.raises(ConfigError):
            QuantizedWeightTable(2, 2, bits=1)
        with pytest.raises(ConfigError):
            QuantizedWeightTable(2, 2).update(np.zeros((3, 3)), 0.2)
        with pytest.raises(ConfigError):
            QuantizedWeightTable(2, 2).update(np.zeros((2, 2)), 1.0)

    def test_reset(self):
        table = QuantizedWeightTable(2, 2)
        table.update(np.full((2, 2), 0.5), 0.2)
        table.reset()
        assert np.all(table.weights == 255)


class TestQuantizedScaler:
    @pytest.fixture
    def pair(self, gpu_spec):
        cfg = GreenGpuConfig()
        return (
            QuantizedWmaScaler(gpu_spec.core_ladder, gpu_spec.mem_ladder, cfg),
            WmaFrequencyScaler(gpu_spec.core_ladder, gpu_spec.mem_ladder, cfg),
        )

    def test_exact_agreement_at_extremes(self, pair):
        quantized, floating = pair
        for u in ((1.0, 1.0), (0.0, 0.0)):
            quantized.table.reset(), floating.reset()
            for _ in range(10):
                dq = quantized.step(*u)
                df = floating.step(*u)
            assert (dq.core_level, dq.mem_level) == (df.core_level, df.mem_level)

    def test_steady_state_near_float_choice(self, pair):
        """The paper's 8-bit-is-enough claim, with the honest caveat: the
        per-update factor 1 - 0.8*loss collapses loss gaps below ~1.25
        quanta, so levels whose losses are that close become
        indistinguishable.  With alpha_core = 0.15 the core losses are
        well separated (agreement within one level); with alpha_mem = 0.02
        the memory losses are tiny and the blur reaches two levels."""
        quantized, floating = pair
        for u in ((0.6, 0.25), (0.3, 0.7), (0.45, 0.45), (0.85, 0.15)):
            quantized.table.reset(), floating.reset()
            for _ in range(20):
                dq = quantized.step(*u)
                df = floating.step(*u)
            assert abs(dq.core_level - df.core_level) <= 1, u
            assert abs(dq.mem_level - df.mem_level) <= 2, u
            # The blur is always toward *higher* frequency (ties resolve
            # fast), so it trades energy for performance, never the
            # other way — consistent with the paper's priorities.
            assert dq.mem_level <= df.mem_level, u

    def test_tracks_phase_changes(self, pair):
        quantized, _ = pair
        for _ in range(10):
            low = quantized.step(0.1, 0.1)
        for _ in range(10):
            high = quantized.step(0.95, 0.95)
        assert high.core_level < low.core_level
        assert high.mem_level < low.mem_level

    def test_more_bits_converge_to_float_behaviour(self, gpu_spec):
        """At 16 bits the quantization error is far below any loss gap the
        6-level ladders produce, so decisions match the float controller."""
        cfg = GreenGpuConfig()
        hi = QuantizedWmaScaler(gpu_spec.core_ladder, gpu_spec.mem_ladder, cfg, bits=16)
        ref = WmaFrequencyScaler(gpu_spec.core_ladder, gpu_spec.mem_ladder, cfg)
        for u in ((0.6, 0.25), (0.3, 0.7)):
            for _ in range(15):
                dq = hi.step(*u)
                df = ref.step(*u)
            assert (dq.core_level, dq.mem_level) == (df.core_level, df.mem_level)


class TestHardwareCatalog:
    def test_every_shipped_entry_validates(self):
        from repro.extensions.hardware_table import (
            HARDWARE_TABLE,
            validate,
            validate_all,
        )

        for entry in HARDWARE_TABLE.values():
            assert validate(entry) == [], entry.key
        validate_all()  # must not raise

    def test_wall_power_bounds_ordered(self):
        from repro.extensions.hardware_table import (
            HARDWARE_TABLE,
            floor_wall_power_w,
            peak_wall_power_w,
        )

        for entry in HARDWARE_TABLE.values():
            config = entry.make_config()
            assert 0.0 < floor_wall_power_w(config) < peak_wall_power_w(config)

    def test_wall_power_bounds_count_every_card(self):
        import dataclasses

        from repro.extensions.hardware_table import (
            floor_wall_power_w,
            peak_wall_power_w,
            wall_power_bound_w,
        )
        from repro.sim.calibration import (
            default_testbed_config,
            geforce_8800_gtx_spec,
        )
        from repro.sim.frequency import FrequencyLadder

        one = default_testbed_config()
        card = geforce_8800_gtx_spec()
        two = dataclasses.replace(one, extra_gpus=(card,))
        assert peak_wall_power_w(one) == pytest.approx(338.62, abs=0.005)
        supply_w = ((card.power.power_unchecked(1.0, 1.0, 1.0, 1.0)
                     + one.meter2_overhead_w) / one.meter2_efficiency)
        assert peak_wall_power_w(two) == pytest.approx(
            peak_wall_power_w(one) + supply_w)
        assert floor_wall_power_w(one) < floor_wall_power_w(two)
        assert floor_wall_power_w(two) < peak_wall_power_w(two)
        # A card with a shorter ladder is clipped to its own floor, as the
        # controller clips its ceiling.
        short = dataclasses.replace(card, core_ladder=FrequencyLadder(
            [card.core_ladder.peak, card.core_ladder.floor]))
        mixed = dataclasses.replace(one, extra_gpus=(short,))
        assert wall_power_bound_w(mixed, 5, 0) == pytest.approx(
            wall_power_bound_w(mixed, 1, 0) + wall_power_bound_w(one, 5, 0)
            - wall_power_bound_w(one, 1, 0))

    def test_entry_lookup(self):
        from repro.extensions.hardware_table import hardware_entry, hardware_keys

        assert "paper-8800gtx" in hardware_keys()
        assert hardware_entry("paper-8800gtx").key == "paper-8800gtx"
        with pytest.raises(ConfigError, match="unknown hardware entry"):
            hardware_entry("abacus")

    def test_broken_entry_detected(self):
        """A kW/W unit mixup surfaces, and validate_all names the entry."""
        from dataclasses import replace

        from repro.extensions.hardware_table import (
            HardwareEntry,
            hardware_entry,
            validate,
            validate_all,
        )

        base = hardware_entry("paper-8800gtx")

        def hot_psu():
            config = base.factory()
            return replace(config, meter1_overhead_w=5000.0)

        problems = validate(HardwareEntry("hot", "kW mixup", hot_psu))
        assert any("sanity band" in p for p in problems)

        def negative_overhead():
            config = base.factory()
            return replace(config, meter2_overhead_w=-1.0)

        problems = validate(HardwareEntry("neg", "negative overhead",
                                          negative_overhead))
        assert any("negative" in p for p in problems)

        with pytest.raises(ConfigError, match="validation failed"):
            validate_all({"hot": HardwareEntry("hot", "kW mixup", hot_psu)})

    def test_crashing_factory_is_a_finding(self):
        from repro.extensions.hardware_table import HardwareEntry, validate

        def boom():
            raise RuntimeError("no such card")

        problems = validate(HardwareEntry("boom", "broken", boom))
        assert problems and "factory failed" in problems[0]
