"""Tests for the tier-1 workload-division algorithm."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GreenGpuConfig
from repro.core.division import WorkloadDivider
from repro.errors import PartitionError


def fresh(r0=0.30, **cfg):
    return WorkloadDivider(GreenGpuConfig(**cfg) if cfg else None, r0=r0)


class TestBasicRule:
    def test_cpu_slower_moves_work_to_gpu(self):
        d = fresh(r0=0.30)
        decision = d.update(tc=100.0, tg=50.0)
        assert decision.r_next == pytest.approx(0.25)

    def test_gpu_slower_moves_work_to_cpu(self):
        d = fresh(r0=0.30)
        decision = d.update(tc=50.0, tg=100.0)
        assert decision.r_next == pytest.approx(0.35)

    def test_equal_times_hold(self):
        d = fresh(r0=0.30)
        decision = d.update(tc=50.0, tg=50.0)
        assert decision.r_next == pytest.approx(0.30)
        assert not decision.moved

    def test_clamped_at_bounds(self):
        d = fresh(r0=0.0)
        assert d.update(tc=0.0, tg=100.0).r_next == pytest.approx(0.05)
        d2 = fresh(r0=0.95)
        # tc >> tg pushes down, never above max.
        assert d2.update(tc=200.0, tg=1.0).r_next == pytest.approx(0.90)

    def test_rejects_negative_times(self):
        with pytest.raises(PartitionError):
            fresh().update(-1.0, 1.0)

    def test_rejects_bad_initial_ratio(self):
        with pytest.raises(PartitionError):
            fresh(r0=1.5)


class TestOscillationSafeguard:
    def test_paper_example_holds_at_10_90(self):
        """§V-B worked example: at 10/90 with tc < tg, the extrapolated
        15/85 prediction flips the comparison, so the division holds."""
        d = fresh(r0=0.10)
        # Optimal division r* = 0.125: tc = r * k_c with k_c chosen so
        # tc(0.125) = tg(0.125).  At r = 0.10: tc < tg, but at 0.15 the
        # CPU would become the straggler.
        tc, tg = 0.10 * 8.0, 0.90 * 1.0  # tc = 0.8 < tg = 0.9
        decision = d.update(tc, tg)
        assert decision.held_by_safeguard
        assert decision.r_next == pytest.approx(0.10)

    def test_clear_imbalance_not_held(self):
        d = fresh(r0=0.30)
        decision = d.update(tc=10.0, tg=100.0)
        assert not decision.held_by_safeguard
        assert decision.moved

    def test_safeguard_disabled_moves_anyway(self):
        d = fresh(r0=0.10, oscillation_safeguard=False)
        decision = d.update(0.8, 0.9)
        assert decision.r_next == pytest.approx(0.15)

    def test_safeguard_skipped_at_zero_ratio(self):
        """No CPU time exists to extrapolate from at r = 0."""
        d = fresh(r0=0.0)
        decision = d.update(tc=0.0, tg=10.0)
        assert decision.moved
        assert not decision.held_by_safeguard

    def test_hold_counter(self):
        d = fresh(r0=0.10)
        d.update(0.8, 0.9)
        assert d.safeguard_holds == 1


class TestConvergence:
    @staticmethod
    def _simulate(divider, cpu_per_unit, gpu_per_unit, iterations=20):
        """Feedback loop: times derive from the current division."""
        for _ in range(iterations):
            r = divider.r
            tc = r * cpu_per_unit
            tg = (1.0 - r) * gpu_per_unit
            divider.update(tc, tg)
        return divider.r

    def test_converges_near_balance_point(self):
        # cpu 4x slower per unit -> balance at r* = 1/5 = 0.20 (on-grid).
        d = fresh(r0=0.30)
        final = self._simulate(d, 4.0, 1.0)
        assert final == pytest.approx(0.20)

    def test_converges_from_any_initial_ratio(self):
        """Paper §VII-B: convergence is independent of the initial ratio."""
        for r0 in (0.0, 0.15, 0.50, 0.75):
            d = fresh(r0=r0)
            final = self._simulate(d, 4.0, 1.0, iterations=30)
            assert final == pytest.approx(0.20, abs=0.051)

    def test_off_grid_optimum_parks_on_adjacent_point(self):
        # cpu 4.5x slower -> r* = 1/5.5 ~ 0.182, between 0.15 and 0.20.
        d = fresh(r0=0.30)
        final = self._simulate(d, 4.5, 1.0)
        assert final in (pytest.approx(0.15), pytest.approx(0.20))

    def test_no_oscillation_once_settled(self):
        d = fresh(r0=0.30)
        self._simulate(d, 4.5, 1.0, iterations=10)
        settled = [self._simulate(d, 4.5, 1.0, iterations=1) for _ in range(5)]
        assert len(set(settled)) == 1

    def test_converged_property(self):
        d = fresh(r0=0.30)
        assert not d.converged
        self._simulate(d, 4.0, 1.0, iterations=20)
        assert d.converged

    def test_large_step_oscillates_without_safeguard(self):
        """The paper's §V-B warning: a large step with the safeguard off
        bounces around the optimum forever."""
        d = WorkloadDivider(
            GreenGpuConfig(division_step=0.25, oscillation_safeguard=False),
            r0=0.75,
        )
        # cpu 1.5x slower per unit -> balance at r* = 0.4, squarely
        # between the 0.25 grid points.
        ratios = []
        for _ in range(12):
            r = d.r
            ratios.append(r)
            d.update(r * 1.5, (1.0 - r) * 1.0)
        tail = ratios[-6:]
        assert max(tail) - min(tail) >= 0.25

    def test_history_records_every_decision(self):
        d = fresh()
        d.update(1.0, 2.0)
        d.update(2.0, 1.0)
        assert len(d.history) == 2
        assert d.iterations == 2


class TestCards:
    """One divider for any number of GPU cards (§VI): ``r`` against the
    slowest card, and one step of card fraction from the slowest card to
    the fastest."""

    def test_slowest_card_donates_to_fastest(self):
        d = WorkloadDivider(GreenGpuConfig(division_step=0.1), r0=0.4, cards=3)
        decision = d.update(4.0, 2.0, 4.0, 1.0)
        assert decision.tg == 4.0 and decision.moved
        assert d.r == 0.4  # the CPU matches the slowest card: held
        assert d.fractions == pytest.approx([1 / 3, 1 / 3 - 0.1, 1 / 3 + 0.1])

    def test_safeguard_holds_a_move_that_flips_the_order(self):
        # Fractions 0.5/0.5 at 1.0 and 0.9 s: moving 0.05 predicts
        # 0.9 s for the donor and 0.99 s for the receiver.
        d = WorkloadDivider(r0=0.3, cards=2)
        decision = d.update(1.0, 1.0, 0.9)
        assert decision.held_by_safeguard and not decision.moved
        assert d.fractions == [0.5, 0.5]
        assert d.safeguard_holds == 1

    def test_safeguard_off_moves_anyway(self):
        d = WorkloadDivider(GreenGpuConfig(oscillation_safeguard=False),
                            r0=0.3, cards=2)
        d.update(1.0, 1.0, 0.9)
        assert d.fractions == pytest.approx([0.45, 0.55])

    def test_zero_share_card_only_receives(self):
        cfg = GreenGpuConfig(division_step=0.5, oscillation_safeguard=False)
        d = WorkloadDivider(cfg, r0=0.3, cards=2)
        d.update(1.0, 2.0, 1.0)
        assert d.fractions == [0.0, 1.0]
        # Card 0 has no work: whatever time it reports counts as zero, so
        # it is the receiver and never the donor.
        d.update(1.0, 4.0, 3.0)
        assert d.fractions == [0.5, 0.5]
        assert min(d.shares) >= 0.0

    @pytest.mark.parametrize("cards, times", [(1, (1.0,)), (2, ()),
                                              (3, ()), (3, (1.0, 1.0, 1.0))])
    def test_wrong_number_of_card_times_raises(self, cards, times):
        d = WorkloadDivider(cards=cards)
        with pytest.raises(PartitionError):
            d.update(1.0, 1.0, *times)
        assert d.iterations == 0

    def test_cpu_share_respects_max_cpu_ratio(self):
        d = WorkloadDivider(r0=0.9, cards=2)
        for _ in range(5):
            d.update(0.0, 10.0, 20.0)
        assert d.r == d.config.max_cpu_ratio == 0.95

    @given(
        cards=st.integers(1, 4),
        r0=st.floats(0.0, 0.95),
        step=st.floats(0.01, 0.5),
        safeguard=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_shares_stay_on_the_simplex(self, cards, r0, step, safeguard, data):
        cfg = GreenGpuConfig(division_step=step, oscillation_safeguard=safeguard)
        d = WorkloadDivider(cfg, r0=r0, cards=cards)
        times = st.floats(0.0, 100.0)
        for _ in range(data.draw(st.integers(1, 20))):
            d.update(*(data.draw(times) for _ in range(cards + 1)))
            shares = d.shares
            assert abs(sum(shares) - 1.0) <= 1e-12
            assert min(shares) >= 0.0
            assert cfg.min_cpu_ratio <= shares[0] <= cfg.max_cpu_ratio
            if cards == 1:
                assert shares == (d.r, 1.0 - d.r)
