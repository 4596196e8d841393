"""Algorithm 1: the coordinated online-learning GPU frequency scaler.

Per scaling interval (3 s on the paper's testbed):

1. read the GPU core and memory utilizations ``u_c``, ``u_m`` averaged
   over the previous interval;
2. compute each component's per-level Table-I loss (Eqs. 1-2) against the
   linear umean map;
3. blend them into the N x M pair-loss matrix (Eq. 3) and discount the
   weight table (Eq. 4);
4. enforce the argmax (core, memory) frequency pair for the next interval.

Because every pair's loss is evaluated every interval (not just the pair
currently enforced), the scaler can jump straight to the best pair after a
utilization change — the behaviour the paper highlights in Fig. 5a ("it
can adjust the GPU core and memory frequencies directly to the best
levels").

Steps 2-3 depend only on ``(u_c, u_m)`` and the frozen config, and
utilizations repeat (an idle GPU reads 0/0, a saturated one 1/1), so each
scaler memoizes the loss vectors and the Eq. 4 factor row per distinct
input; a tick on a seen input is one pass of 36 float multiplies over the
weight table (:mod:`repro.core.weights`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import GreenGpuConfig
from repro.core.loss import loss_vector, total_loss_matrix
from repro.core.weights import WeightTable, eq4_factors
from repro.sim.frequency import FrequencyLadder

#: Distinct ``(u_core, u_mem)`` inputs one scaler keeps the losses of;
#: a full memo forgets its oldest entry.
_MEMO_SIZE = 256


@dataclass(frozen=True, slots=True)
class ScalingDecision:
    """Outcome of one WMA interval.

    The loss vectors are read-only: decisions made from the same input
    share them.
    """

    core_level: int
    mem_level: int
    f_core: float
    f_mem: float
    core_loss: np.ndarray
    mem_loss: np.ndarray


def best_and_runner_up(
    weights: np.ndarray,
) -> tuple[tuple[int, int], tuple[int, int], float]:
    """Argmax pair, runner-up pair, and their relative weight margin.

    The margin is ``(w_best - w_runner_up) / w_best`` in ``[0, 1]`` — 0
    means a tie (the decision hangs by the argmax tie-break), values near
    1 mean the table is certain.  Both argmaxes use the same flattened
    first-occurrence rule as :meth:`WeightTable.best_pair`, so ties
    resolve to the fastest pair here too.  This is the audit trail's
    "how close was the call" derivation (:mod:`repro.telemetry.audit`);
    it runs at render time, never on the hot control path.
    """
    matrix = np.asarray(weights, dtype=float)
    flat = matrix.ravel()
    if flat.size == 1:
        pair = (0, 0)
        return pair, pair, 0.0
    best = int(np.argmax(flat))
    masked = flat.copy()
    masked[best] = -np.inf
    second = int(np.argmax(masked))
    w_best, w_second = float(flat[best]), float(flat[second])
    margin = (w_best - w_second) / w_best if w_best > 0.0 else 0.0
    best_pair = np.unravel_index(best, matrix.shape)
    second_pair = np.unravel_index(second, matrix.shape)
    return (
        (int(best_pair[0]), int(best_pair[1])),
        (int(second_pair[0]), int(second_pair[1])),
        float(margin),
    )


class WmaFrequencyScaler:
    """Weighted-majority frequency controller for GPU cores + memory.

    The umean maps default to the ladders' own normalized positions, which
    coincide with the paper's linear map for the equally spaced ladders of
    the testbed, and remain correct for unevenly spaced ladders.
    """

    def __init__(
        self,
        core_ladder: FrequencyLadder,
        mem_ladder: FrequencyLadder,
        config: GreenGpuConfig | None = None,
    ):
        self.config = config or GreenGpuConfig()
        self.core_ladder = core_ladder
        self.mem_ladder = mem_ladder
        self._umean_core = np.array(
            [core_ladder.umean(i) for i in range(len(core_ladder))]
        )
        self._umean_mem = np.array(
            [mem_ladder.umean(j) for j in range(len(mem_ladder))]
        )
        self.table = WeightTable(len(core_ladder), len(mem_ladder))
        self.decisions: int = 0
        self._memo: dict[tuple[float, float],
                         tuple[np.ndarray, np.ndarray, tuple[float, ...]]] = {}

    @property
    def umean_core(self) -> np.ndarray:
        return self._umean_core.copy()

    @property
    def umean_mem(self) -> np.ndarray:
        return self._umean_mem.copy()

    def step(self, u_core: float, u_mem: float) -> ScalingDecision:
        """Run one interval of Algorithm 1 and return the chosen pair."""
        entry = self._memo.get((u_core, u_mem))
        if entry is None:
            entry = self._losses(u_core, u_mem)
        core_loss, mem_loss, factors = entry
        table = self.table
        table.apply_factors(factors)
        i, j = table.best_pair()
        self.decisions += 1
        return ScalingDecision(
            core_level=i,
            mem_level=j,
            f_core=self.core_ladder.levels[i],
            f_mem=self.mem_ladder.levels[j],
            core_loss=core_loss,
            mem_loss=mem_loss,
        )

    def _losses(
        self, u_core: float, u_mem: float,
    ) -> tuple[np.ndarray, np.ndarray, tuple[float, ...]]:
        """Table-I loss vectors and Eq. 4 factor row for one input.

        All three are pure functions of the input and the frozen config,
        so they are memoized per scaler (``step`` sees the same input
        again on most ticks); the loss vectors are shared by every
        decision made from that input, hence read-only.
        """
        cfg = self.config
        core_loss = loss_vector(u_core, self._umean_core, cfg.alpha_core)
        mem_loss = loss_vector(u_mem, self._umean_mem, cfg.alpha_mem)
        factors = eq4_factors(total_loss_matrix(core_loss, mem_loss, cfg.phi),
                              self.table.shape, cfg.beta)
        core_loss.flags.writeable = False
        mem_loss.flags.writeable = False
        memo = self._memo
        if len(memo) >= _MEMO_SIZE:
            del memo[next(iter(memo))]
        entry = memo[(u_core, u_mem)] = (core_loss, mem_loss, factors)
        return entry

    def reset(self) -> None:
        """Forget all learned weights (start of a new workload)."""
        self.table.reset()
        self.decisions = 0
        self._memo.clear()

    # -- introspection used by tests and the design-ablation benches --------------

    def uniform_choice(self, u_core: float, u_mem: float) -> tuple[int, int]:
        """The pair a memoryless (beta-free) controller would choose now.

        Minimizes the one-shot pair loss; useful as a reference point when
        testing that the weighted history converges to the same pair under
        stationary utilizations.
        """
        cfg = self.config
        lc = loss_vector(u_core, self._umean_core, cfg.alpha_core)
        lm = loss_vector(u_mem, self._umean_mem, cfg.alpha_mem)
        total = total_loss_matrix(lc, lm, cfg.phi)
        flat = int(np.argmin(total))
        return np.unravel_index(flat, total.shape)  # type: ignore[return-value]
