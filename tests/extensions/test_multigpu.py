"""Tier-1 division over several GPU cards (§VI, "one pthread for one GPU").

The core :class:`WorkloadDivider` divides over any number of cards: the
CPU share follows the paper's rule against the slowest card, and the
cards split the rest by fractions that move one step from the slowest
card to the fastest.  The closed-loop cases drive it against fixed
per-unit speeds, ``unit_times = [cpu, card 0, ...]``.
"""

import random

import pytest

from repro.core.config import GreenGpuConfig
from repro.core.division import WorkloadDivider
from repro.errors import ConfigError, PartitionError


def divider(cards, step=None, **kwargs):
    config = GreenGpuConfig(division_step=step) if step is not None else None
    return WorkloadDivider(config, cards=cards, **kwargs)


def drive(d, unit_times, iterations):
    """Closed loop: each side's time is its share times its unit time."""
    for _ in range(iterations):
        d.update(*(s * u for s, u in zip(d.shares, unit_times, strict=True)))
    return d.shares


def imbalance(d, unit_times):
    """max/min finish time over the sides with work (1.0 = perfect)."""
    times = [s * u for s, u in zip(d.shares, unit_times) if s > 0.0]
    return max(times) / min(times)


class TestConstruction:
    def test_defaults_to_uniform_shares(self):
        d = divider(cards=2)
        assert d.shares == (0.3, 0.35, 0.35)

    def test_explicit_initial_shares(self):
        assert divider(cards=1, r0=0.3).shares == (0.3, 0.7)

    def test_rejects_single_device(self):
        """A CPU with no card has nothing to divide with."""
        with pytest.raises(PartitionError):
            divider(cards=0)

    def test_rejects_bad_shares(self):
        for r0 in (-0.1, 1.1, 0.99):
            with pytest.raises(PartitionError):
                divider(cards=2, r0=r0)

    def test_rejects_bad_step(self):
        with pytest.raises(ConfigError):
            divider(cards=2, step=0.0)


class TestUpdateRule:
    def test_moves_from_slowest_to_fastest(self):
        d = divider(cards=3, step=0.1)
        decision = d.update(3.0, 3.0, 1.0, 2.0)
        assert decision.moved and decision.tg == 3.0
        assert d.r == 0.3
        assert d.fractions == pytest.approx([1/3 - 0.1, 1/3 + 0.1, 1/3])

    def test_equal_times_hold(self):
        d = divider(cards=2)
        decision = d.update(2.0, 2.0, 2.0)
        assert not decision.moved and not decision.held_by_safeguard

    def test_shares_always_sum_to_one(self):
        d = divider(cards=3, step=0.07)
        rng = random.Random(0)
        for _ in range(50):
            d.update(*(rng.uniform(0.1, 5.0) for _ in range(4)))
            assert sum(d.shares) == pytest.approx(1.0)
            assert min(d.shares) >= 0.0

    def test_rejects_wrong_timing_count(self):
        with pytest.raises(PartitionError):
            divider(cards=2).update(1.0, 1.0)

    def test_rejects_unknown_device_name(self):
        """A time for a card the divider does not have is refused."""
        with pytest.raises(PartitionError):
            divider(cards=2).update(1.0, 1.0, 1.0, 1.0)

    def test_rejects_negative_time(self):
        with pytest.raises(PartitionError):
            divider(cards=2).update(1.0, 1.0, -1.0)


class TestClosedLoopConvergence:
    def test_two_device_case_reduces_to_paper_algorithm(self):
        """Two identical cards, each half as fast as one card, walk the
        CPU share through exactly the one-card trajectory."""
        one = divider(cards=1)
        two = divider(cards=2)
        drive(one, [4.5, 1.0], iterations=20)
        drive(two, [4.5, 2.0, 2.0], iterations=20)
        assert [h.r_next for h in two.history] == [h.r_next for h in one.history]
        assert two.r == pytest.approx(0.20)  # kmeans-like parking

    def test_three_devices_approach_balance(self):
        d = divider(cards=2)
        unit_times = [5.0, 1.0, 1.5]
        drive(d, unit_times, iterations=40)
        # Perfect balance gives imbalance 1.0; step quantization plus the
        # safeguard can park within one step of it.
        assert imbalance(d, unit_times) < 1.5

    def test_parked_state_is_stable(self):
        d = divider(cards=2)
        unit_times = [5.0, 1.0, 1.5]
        settled = drive(d, unit_times, iterations=40)
        again = drive(d, unit_times, iterations=10)
        assert settled == again

    def test_smaller_step_balances_tighter(self):
        unit_times = [5.0, 1.0, 1.5]
        coarse = divider(cards=2, step=0.10)
        fine = divider(cards=2, step=0.01)
        drive(coarse, unit_times, iterations=60)
        drive(fine, unit_times, iterations=200)
        assert imbalance(fine, unit_times) <= imbalance(coarse, unit_times)
        assert imbalance(fine, unit_times) < 1.12

    def test_four_devices(self):
        d = divider(cards=3, step=0.02)
        unit_times = [6.0, 1.0, 1.2, 0.8]
        drive(d, unit_times, iterations=150)
        # The slow CPU's balanced share (~0.05) is only 2.5 steps wide, so
        # step quantization can park it up to ~step/share away from
        # perfect balance.
        assert imbalance(d, unit_times) < 1.5

    def test_dead_slow_device_starved(self):
        """A card 100x slower than its sibling ends up with (almost) no work."""
        shares = drive(divider(cards=2), [5.0, 1.0, 100.0], iterations=40)
        assert shares[2] <= 0.05
