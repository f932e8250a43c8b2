"""Shared-resource primitives for the simulation kernel.

``Resource``
    A counted semaphore with FIFO queueing — used to model devices with a
    bounded queue depth (e.g. an SSD with N parallel channels).
``Store``
    An unbounded (or bounded) FIFO of items with blocking ``get``/``put`` —
    used for message queues between simulated components.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .engine import Event, SimulationError, Simulator

__all__ = ["Resource", "Store"]


class Resource:
    """A counted semaphore with FIFO granting order.

    Usage inside a process::

        req = resource.request()
        yield req
        try:
            ... hold the resource ...
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"Resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    def request(self) -> Event:
        """Return an event that succeeds once a slot is granted."""
        event = self.sim.event(name="Resource.request")
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release one slot; hands it to the oldest waiter if any."""
        if self.in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self._waiters:
            # Slot transfers directly to the next waiter: in_use unchanged.
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)


class Store:
    """A FIFO of items with blocking get/put.

    ``capacity=None`` means unbounded (puts never block).
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"Store capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)

    def put(self, item: Any) -> Event:
        """Return an event that succeeds once the item is accepted."""
        event = self.sim.event(name="Store.put")
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
            event.succeed()
        elif self.capacity is None or len(self.items) < self.capacity:
            self.items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Return an event that succeeds with the oldest available item."""
        event = self.sim.event(name="Store.get")
        if self.items:
            event.succeed(self.items.popleft())
            if self._putters:
                put_event, item = self._putters.popleft()
                self.items.append(item)
                put_event.succeed()
        elif self._putters:
            put_event, item = self._putters.popleft()
            event.succeed(item)
            put_event.succeed()
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self.items)
