"""Binary-heap reference scheduler: the oracle the calendar queue is
differentially tested against (``test_scheduler_equivalence.py``).

Every insert lands in one global ``(time, seq, obj)`` heap and dispatch is
a plain pop loop, so the order is ascending ``(time, seq)`` by
construction — no buckets, no year window, no refill, no compaction.
"""

from heapq import heappop

from repro.sim import Event, Simulator
from repro.sim.engine import _PENDING, _PROCESSED


class HeapSimulator(Simulator):
    """``Simulator`` with the calendar replaced by a lazy-deletion heap."""

    def __init__(self):
        super().__init__()
        # Inserts go to buckets only when `when < _limit`; -inf routes all
        # of them to the overflow heap, which is then the whole queue.
        self._limit = float("-inf")

    def _compact(self) -> None:
        """Reference behaviour: cancelled entries are only skipped at pop."""

    def _drain(self, target: Event, horizon: float) -> None:
        queue = self._queue
        while target._state == _PENDING and queue and queue[0][0] <= horizon:
            when, _seq, obj = heappop(queue)
            if isinstance(obj, list):  # fused call_later_batch record
                self.now = when
                for fn in obj:
                    fn()
            elif isinstance(obj, Event):
                if obj.cancelled:
                    continue  # no clock advance, no callbacks
                self.now = when
                callbacks, obj.callbacks = obj.callbacks, []
                obj._state = _PROCESSED
                for callback in callbacks:
                    callback(obj)
            else:
                self.now = when
                obj()  # bare call_later callable
