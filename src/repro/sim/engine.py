"""Simulation clock and periodic-task scheduling.

The testbed is simulated with a piecewise-constant event model: device
power and progress rates only change at *events* (a controller tick, a
kernel phase boundary, a kernel completion, a DMA completion).  Between
events everything is analytically integrable, so the simulator advances
the clock directly from event to event instead of ticking at a fixed
resolution.  This keeps multi-hundred-second runs cheap while remaining
exact.

:class:`SimClock` owns simulated time and a set of periodic tasks
(controller loops, meter samplers).  Device/work completion events are
handled by the executor, which asks the clock for the next task deadline
and advances to ``min(deadline, completion)``.  A periodic task can be
*parked* — taken off the heap with its deadline and sequence number
kept — and *resumed* later; the ondemand tier parks while its decision
provably holds (``GreenGpuController._maybe_park``).

With a telemetry backend attached (:meth:`SimClock.set_telemetry`),
every task dispatch is traced as a ``clock_task`` span labeled by task
name and counted in ``clock_dispatch_total``, which is what surfaces
the callback cost profile of a run.
The default is no backend and a single ``is None`` branch per dispatch.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import SimulationError


@dataclass(order=True)
class _ScheduledTask:
    deadline: float
    seq: int
    period: float = field(compare=False)
    callback: Callable[[float], None] = field(compare=False)
    name: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)


class TaskHandle:
    """Opaque handle for cancelling a periodic task."""

    __slots__ = ("_task",)

    def __init__(self, task: _ScheduledTask):
        self._task = task

    def cancel(self) -> None:
        """Stop the task from firing again (safe to call repeatedly)."""
        self._task.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._task.cancelled

    @property
    def deadline(self) -> float:
        """The task's next firing time (kept while it is parked)."""
        return self._task.deadline


class SimClock:
    """Simulated wall clock with periodic callbacks.

    Callbacks fire in deadline order; ties break by registration order so
    runs are fully deterministic.  Callbacks receive the current simulated
    time and may register, cancel or park tasks, but must not advance
    the clock.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._heap: list[_ScheduledTask] = []
        self._seq = itertools.count()
        self._in_dispatch = False
        self._telemetry = None
        self.pruned_total = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def set_telemetry(self, telemetry) -> None:
        """Trace task dispatches through ``telemetry`` (None to disable)."""
        if telemetry is not None and not telemetry.enabled:
            telemetry = None
        self._telemetry = telemetry

    def every(
        self,
        period: float,
        callback: Callable[[float], None],
        *,
        first_at: float | None = None,
        name: str = "",
    ) -> TaskHandle:
        """Register ``callback`` to fire every ``period`` seconds.

        The first firing is at ``first_at`` (default: ``now + period``).
        """
        if period <= 0.0:
            raise SimulationError(f"task period must be positive, got {period}")
        deadline = self._now + period if first_at is None else float(first_at)
        if deadline < self._now:
            raise SimulationError("first deadline is in the past")
        task = _ScheduledTask(deadline, next(self._seq), period, callback, name)
        heapq.heappush(self._heap, task)
        return TaskHandle(task)

    def at(self, when: float, callback: Callable[[float], None], *, name: str = "") -> TaskHandle:
        """Register a one-shot callback at absolute time ``when``."""
        if when < self._now:
            raise SimulationError("cannot schedule in the past")
        task = _ScheduledTask(float(when), next(self._seq), 0.0, callback, name)
        heapq.heappush(self._heap, task)
        return TaskHandle(task)

    def park(self, handle: TaskHandle) -> None:
        """Take a scheduled task off the heap without cancelling it.

        The task keeps its deadline, period and sequence number, so
        :meth:`resume` puts it back exactly where a never-parked task
        would sort against its peers.  Callbacks may park their own task.
        """
        heap = self._heap
        heap.remove(handle._task)
        heapq.heapify(heap)

    def resume(self, handle: TaskHandle, deadline: float) -> None:
        """Put a parked task back on the heap, next firing at ``deadline``."""
        if deadline < self._now:
            raise SimulationError("cannot resume a task in the past")
        task = handle._task
        task.deadline = deadline
        heapq.heappush(self._heap, task)

    def _prune(self) -> float | None:
        """Drop cancelled tasks off the heap top; return the next deadline.

        The single pruning point shared by :meth:`next_deadline` and
        :meth:`advance_to`.  Prunes are counted in :attr:`pruned_total`
        and, with a backend attached, the ``clock_pruned_total`` counter.
        """
        heap = self._heap
        pruned = 0
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
            pruned += 1
        if pruned:
            self.pruned_total += pruned
            if self._telemetry is not None:
                self._telemetry.counter("clock_pruned_total").inc(pruned)
        return heap[0].deadline if heap else None

    def next_deadline(self) -> float | None:
        """Earliest pending task deadline, or None if no tasks are pending."""
        return self._prune()

    def advance_to(self, when: float) -> None:
        """Advance simulated time to ``when``, firing all due tasks in order.

        ``when`` must not be earlier than the current time.  Tasks whose
        deadline is exactly ``when`` fire.
        """
        if when < self._now - 1e-12:
            raise SimulationError(
                f"cannot move time backwards (now={self._now}, target={when})"
            )
        if self._in_dispatch:
            raise SimulationError("re-entrant clock advance from a callback")
        heap = self._heap
        while True:
            deadline = self._prune()
            if deadline is None or deadline > when:
                break
            # Batched dispatch: the due task stays at the heap root.  A
            # periodic task is rescheduled by mutating its deadline in
            # place — no sift at all when it is the only pending task
            # (the dominant steady state: one ondemand tick), a single
            # heapreplace sift otherwise instead of a pop + push pair.
            # Dispatch order is unchanged because (deadline, seq) is a
            # total order either way.
            task = heap[0]
            self._now = max(self._now, task.deadline)
            if task.period > 0.0:
                task.deadline += task.period
                if len(heap) > 1:
                    heapq.heapreplace(heap, task)
            else:
                heapq.heappop(heap)
            telemetry = self._telemetry
            self._in_dispatch = True
            try:
                if telemetry is not None:
                    with telemetry.span("clock_task",
                                        task=task.name or "anonymous"):
                        task.callback(self._now)
                    telemetry.counter("clock_dispatch_total",
                                      task=task.name or "anonymous").inc()
                else:
                    task.callback(self._now)
            finally:
                self._in_dispatch = False
        self._now = max(self._now, when)

    def advance_by(self, dt: float) -> None:
        """Advance simulated time by ``dt`` seconds (must be >= 0)."""
        if dt < 0.0:
            raise SimulationError(f"dt must be non-negative, got {dt}")
        self.advance_to(self._now + dt)
