"""The N x M core-memory frequency-pair weight table (paper §V-A, Eq. 4).

Each entry holds the weight of one (core level, memory level) pair.  After
every scaling interval the whole table is multiplicatively discounted by
its pair loss:

    weight[i][j] <- weight[i][j] * (1 - (1 - beta) * TotalLoss[i][j])

and the argmax pair is enforced for the next interval.

Two implementation notes:

- Algorithm 1's prose initializes the weights "to an equal value (e.g. 0)",
  but a multiplicative update cannot ever leave zero; standard WMA
  (Littlestone & Warmuth) initializes to 1, so we do too.  Any positive
  equal value is equivalent — argmax is scale-invariant.
- Repeated multiplication by values < 1 underflows after enough intervals,
  so the table renormalizes by its maximum whenever that maximum drops
  below a threshold.  Renormalization never changes the argmax.  (The
  paper's sketched 8-bit hardware table has the same property: only the
  relative order matters.)

Ties in the argmax resolve to the *fastest* pair (lowest indices), which
biases toward performance — consistent with the paper's stated goal of
"energy savings with only negligible performance degradation".

Representation: the table is a flat, row-major tuple of Python floats.
A 6 x 6 table is too small for numpy to pay off — each array call costs
more than the 36 multiplies it does — and the Eq. 4 product, the
renormalization and the first-occurrence argmax are the same IEEE
operations in the same order either way, so results are bit-identical to
the array form.  Every update builds a new tuple and never changes one in
place; :attr:`WeightTable.weights` builds a read-only array only when
asked for.  The factor row ``1 - (1 - beta) * clip(TotalLoss)`` depends
only on the loss matrix, which lets a caller compute it once per distinct
input (:func:`eq4_factors`, used by the WMA scaler's memo).
"""

from __future__ import annotations

from operator import mul

import numpy as np

from repro.errors import ConfigError

_RENORM_THRESHOLD = 1e-30


def eq4_factors(total_loss: np.ndarray, shape: tuple[int, int],
                beta: float) -> tuple[float, ...]:
    """Validate one interval's pair-loss matrix; return its Eq. 4 factors.

    The result is ``1 - (1 - beta) * clip(total_loss, 0, 1)`` flattened
    row-major, ready for :meth:`WeightTable.apply_factors`.  Raises
    :class:`ConfigError` for a beta outside (0, 1), a matrix of the wrong
    shape, or a loss outside [0, 1].
    """
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"beta must be in (0, 1), got {beta}")
    loss = np.asarray(total_loss, dtype=float)
    if loss.shape != shape:
        raise ConfigError(f"loss shape {loss.shape} != table shape {shape}")
    if np.any(loss < -1e-12) or np.any(loss > 1.0 + 1e-12):
        raise ConfigError("losses must be in [0, 1]")
    return tuple((1.0 - (1.0 - beta) * np.clip(loss, 0.0, 1.0)).ravel().tolist())


class WeightTable:
    """N x M weight table with the Eq. 4 multiplicative update."""

    __slots__ = ("_shape", "_w", "_best", "updates", "renormalizations")

    def __init__(self, n_core_levels: int, n_mem_levels: int):
        if n_core_levels < 1 or n_mem_levels < 1:
            raise ConfigError("need at least one level per component")
        self._shape = (n_core_levels, n_mem_levels)
        self.reset()

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def weights(self) -> np.ndarray:
        """Read-only ``(N, M)`` array of the current weights."""
        array = np.array(self._w).reshape(self._shape)
        array.flags.writeable = False
        return array

    def update(self, total_loss: np.ndarray, beta: float) -> None:
        """Apply Eq. 4 for one interval's loss matrix."""
        self.apply_factors(eq4_factors(total_loss, self._shape, beta))

    def apply_factors(self, factors: tuple[float, ...]) -> None:
        """Apply Eq. 4 with a factor row from :func:`eq4_factors`."""
        w = tuple(map(mul, self._w, factors))
        peak = max(w)
        if peak < _RENORM_THRESHOLD:
            if peak <= 0.0:
                # Total collapse is impossible while beta > 0 keeps every
                # factor >= beta > 0; guard against float underflow anyway.
                w = (1.0,) * len(w)
            else:
                w = tuple([v / peak for v in w])
            peak = max(w)
            self.renormalizations += 1
        self._w = w
        self._best = w.index(peak)
        self.updates += 1

    def best_pair(self) -> tuple[int, int]:
        """Indices of the highest-weight pair (ties -> fastest pair)."""
        return divmod(self._best, self._shape[1])

    def reset(self) -> None:
        """Return to the uniform initial state."""
        n_core, n_mem = self._shape
        self._w = (1.0,) * (n_core * n_mem)
        self._best = 0
        self.updates = 0
        self.renormalizations = 0
