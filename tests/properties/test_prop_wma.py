"""Property-based tests for the WMA scaler and its building blocks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GreenGpuConfig
from repro.core.loss import loss_vector, total_loss_matrix, umean_vector
from repro.core.weights import WeightTable
from repro.core.wma import WmaFrequencyScaler
from repro.sim.frequency import FrequencyLadder

utils = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
alphas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
level_counts = st.integers(min_value=2, max_value=8)


class TestLossProperties:
    @given(u=utils, alpha=alphas, n=level_counts)
    def test_losses_in_unit_interval(self, u, alpha, n):
        vec = loss_vector(u, umean_vector(n), alpha)
        assert np.all(vec >= 0.0) and np.all(vec <= 1.0)

    @given(u=utils, n=level_counts)
    def test_zero_loss_only_at_exact_umean(self, u, n):
        """Loss vanishes only where u (essentially) equals the level's
        umean — "essentially" because subnormal |u - umean| gaps can
        underflow to a zero loss after the alpha multiply."""
        umeans = umean_vector(n)
        vec = loss_vector(u, umeans, 0.5)
        for loss, umean in zip(vec, umeans):
            if loss == 0.0:
                assert abs(u - umean) < 1e-300
            else:
                assert u != umean

    @given(u=utils, alpha=alphas, phi=utils, n=level_counts, m=level_counts)
    def test_total_loss_in_unit_interval(self, u, alpha, phi, n, m):
        lc = loss_vector(u, umean_vector(n), alpha)
        lm = loss_vector(1.0 - u, umean_vector(m), alpha)
        total = total_loss_matrix(lc, lm, phi)
        assert total.shape == (n, m)
        assert np.all(total >= 0.0) and np.all(total <= 1.0)


class TestWeightTableProperties:
    @given(
        n=level_counts, m=level_counts,
        beta=st.floats(0.01, 0.99),
        data=st.data(),
    )
    @settings(max_examples=50)
    def test_weights_stay_positive_and_ordered_by_loss(self, n, m, beta, data):
        """After any sequence of identical loss matrices, weights order
        inversely to cumulative loss."""
        table = WeightTable(n, m)
        loss = np.array(
            data.draw(
                st.lists(
                    st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m),
                    min_size=n, max_size=n,
                )
            )
        )
        for _ in range(data.draw(st.integers(1, 10))):
            table.update(loss, beta)
        w = table.weights
        assert np.all(w > 0.0)
        i, j = table.best_pair()
        # Float ties: losses within one ulp of the minimum share the top
        # weight after rounding, so allow a hair of slack.
        assert loss[i, j] <= loss.min() + 1e-12

    @given(n=level_counts, m=level_counts)
    def test_initial_best_pair_is_fastest(self, n, m):
        assert WeightTable(n, m).best_pair() == (0, 0)


class TestScalerProperties:
    @given(u_core=utils, u_mem=utils, steps=st.integers(1, 30))
    @settings(max_examples=30, deadline=None)
    def test_stationary_input_settles(self, u_core, u_mem, steps):
        """Driving with a constant utilization pair always converges to a
        fixed frequency pair within the table horizon."""
        ladder = FrequencyLadder.equally_spaced(100.0, 600.0, 6)
        scaler = WmaFrequencyScaler(ladder, ladder, GreenGpuConfig())
        decisions = [scaler.step(u_core, u_mem) for _ in range(30 + steps)]
        tail = decisions[-5:]
        pairs = {(d.core_level, d.mem_level) for d in tail}
        assert len(pairs) == 1

    @given(u=utils)
    @settings(max_examples=30, deadline=None)
    def test_higher_utilization_never_lower_frequency(self, u):
        """Monotonicity of the settled choice in utilization."""
        ladder = FrequencyLadder.equally_spaced(100.0, 600.0, 6)
        low = WmaFrequencyScaler(ladder, ladder)
        high = WmaFrequencyScaler(ladder, ladder)
        u_hi = min(1.0, u + 0.3)
        for _ in range(25):
            d_low = low.step(u, u)
            d_high = high.step(u_hi, u_hi)
        assert d_high.core_level <= d_low.core_level
        assert d_high.mem_level <= d_low.mem_level


# -- the lean scaling tick against the numpy reference ---------------------


class _NumpyOracle:
    """Algorithm 1 on arrays: Eqs. 1-3 via ``loss_vector`` and
    ``total_loss_matrix``, Eq. 4 and renormalization in numpy, argmax by
    ``np.argmax`` — the form the weight table had before it became a
    tuple of floats with a per-input memo."""

    def __init__(self, core_ladder, mem_ladder, config):
        self.config = config
        self.umean_core = np.array(
            [core_ladder.umean(i) for i in range(len(core_ladder))])
        self.umean_mem = np.array(
            [mem_ladder.umean(j) for j in range(len(mem_ladder))])
        self.weights = np.ones((len(core_ladder), len(mem_ladder)))

    def step(self, u_core, u_mem):
        cfg = self.config
        lc = loss_vector(u_core, self.umean_core, cfg.alpha_core)
        lm = loss_vector(u_mem, self.umean_mem, cfg.alpha_mem)
        total = total_loss_matrix(lc, lm, cfg.phi)
        self.weights *= 1.0 - (1.0 - cfg.beta) * np.clip(total, 0.0, 1.0)
        peak = self.weights.max()
        if peak < 1e-30:
            if peak <= 0.0:
                self.weights[:] = 1.0
            else:
                self.weights /= peak
        flat = int(np.argmax(self.weights))
        pair = np.unravel_index(flat, self.weights.shape)
        return (int(pair[0]), int(pair[1])), lc, lm


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_lockstep(scaler, oracle, inputs):
    for u_core, u_mem in inputs:
        decision = scaler.step(u_core, u_mem)
        pair, lc, lm = oracle.step(u_core, u_mem)
        assert type(decision.core_level) is int
        assert type(decision.mem_level) is int
        assert (decision.core_level, decision.mem_level) == pair
        assert decision.f_core == scaler.core_ladder[pair[0]]
        assert decision.f_mem == scaler.mem_ladder[pair[1]]
        assert _same_bits(decision.core_loss, lc)
        assert _same_bits(decision.mem_loss, lm)
        assert _same_bits(scaler.table.weights, oracle.weights)


# Inputs come from a small pool, so sequences repeat and interleave
# values (memo hits and misses); the pool always offers both zeros.
_special_utils = st.sampled_from([0.0, -0.0, 1.0, 0.5])
_pools = st.lists(st.one_of(_special_utils, utils), min_size=1, max_size=6)
_configs = st.builds(
    GreenGpuConfig,
    alpha_core=alphas, alpha_mem=alphas, phi=utils,
    beta=st.floats(0.01, 0.99),
)


class TestLeanTickMatchesOracle:
    @given(config=_configs, n=st.integers(1, 8), m=st.integers(1, 8),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_numpy_oracle(self, config, n, m, data):
        core = FrequencyLadder.equally_spaced(100.0, 900.0, n)
        mem = FrequencyLadder.equally_spaced(200.0, 800.0, m)
        pool = data.draw(_pools)
        inputs = data.draw(st.lists(
            st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
            min_size=1, max_size=60))
        _assert_lockstep(WmaFrequencyScaler(core, mem, config),
                         _NumpyOracle(core, mem, config), inputs)

    @given(u_core=st.sampled_from([0.0, -0.0]),
           u_mem=st.sampled_from([0.0, -0.0]), steps=st.integers(2, 10))
    @settings(max_examples=20, deadline=None)
    def test_signed_zeros_share_a_memo_entry(self, u_core, u_mem, steps):
        """0.0 and -0.0 are one memo key; the losses they produce are
        bit-identical, so either sign may fill the entry."""
        ladder = FrequencyLadder.equally_spaced(100.0, 600.0, 6)
        scaler = WmaFrequencyScaler(ladder, ladder)
        oracle = _NumpyOracle(ladder, ladder, scaler.config)
        inputs = [(0.0, 0.0)] + [(u_core, u_mem)] * steps + [(-0.0, 0.0)]
        _assert_lockstep(scaler, oracle, inputs)
        assert len(scaler._memo) == 1

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_forced_renormalization(self, data):
        """Mid-level inputs leave every pair a loss of ~0.25 per tick, so
        the peak weight falls below the renormalization threshold within
        a few hundred ticks."""
        ladder = FrequencyLadder.equally_spaced(100.0, 600.0, 2)
        config = GreenGpuConfig(alpha_core=0.5, alpha_mem=0.5, beta=0.01)
        inputs = data.draw(st.lists(
            st.tuples(st.floats(0.45, 0.55), st.floats(0.45, 0.55)),
            min_size=1, max_size=4))
        scaler = WmaFrequencyScaler(ladder, ladder, config)
        oracle = _NumpyOracle(ladder, ladder, config)
        _assert_lockstep(scaler, oracle, (inputs * 400)[:400])
        assert scaler.table.renormalizations >= 1

    @given(pool=st.lists(utils, min_size=4, max_size=8, unique=True),
           data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_memo_eviction(self, pool, data):
        """With room for three inputs, a pool of four or more keeps
        evicting entries; recomputed entries stay bit-identical."""
        from unittest import mock

        ladder = FrequencyLadder.equally_spaced(100.0, 600.0, 6)
        inputs = [(u, 1.0 - u) for u in data.draw(st.lists(
            st.sampled_from(pool), min_size=10, max_size=60))]
        with mock.patch("repro.core.wma._MEMO_SIZE", 3):
            scaler = WmaFrequencyScaler(ladder, ladder)
            oracle = _NumpyOracle(ladder, ladder, scaler.config)
            _assert_lockstep(scaler, oracle, inputs + [(u, 1.0 - u) for u in pool])
            assert len(scaler._memo) == 3

    def test_reset_drops_the_memo(self):
        ladder = FrequencyLadder.equally_spaced(100.0, 600.0, 6)
        scaler = WmaFrequencyScaler(ladder, ladder)
        scaler.step(0.3, 0.7)
        scaler.reset()
        assert scaler._memo == {}
        oracle = _NumpyOracle(ladder, ladder, scaler.config)
        _assert_lockstep(scaler, oracle, [(0.3, 0.7), (0.9, 0.1)])
