"""Definitional reference scheduler: the oracle the production heap is
differentially tested against (``test_scheduler_equivalence.py``).

Dispatch is *the minimum ``(time, seq)`` record, found by scanning the
whole queue*, so ascending ``(time, seq)`` holds by definition and
nothing here depends on the list being a heap: the production inserts
(``heappush``) are just appends as far as this drain is concerned, and
``remove`` leaves whatever order it leaves.
"""

from repro.sim import Event, Simulator
from repro.sim.engine import _PENDING, _PROCESSED


class ScanSimulator(Simulator):
    """``Simulator`` whose drain picks ``min(queue)`` by linear scan."""

    def _drain(self, target: Event, horizon: float) -> None:
        queue = self._queue
        while target._state == _PENDING and queue:
            entry = min(queue)
            when, _seq, obj = entry
            if when > horizon:
                return
            queue.remove(entry)
            if isinstance(obj, list):  # fused call_later_batch record
                self.now = when
                for fn in obj:
                    fn()
            elif isinstance(obj, Event):
                self.now = when
                callbacks, obj.callbacks = obj.callbacks, []
                obj._state = _PROCESSED
                for callback in callbacks:
                    callback(obj)
            else:
                self.now = when
                obj()  # bare call_later callable
