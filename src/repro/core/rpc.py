"""Control-plane RPC over two-sided RDMA SEND/RECV.

The Resource Monitor is a user-space program exchanging control messages
(§6): load queries, slab map/unmap, eviction notices, regeneration
hand-offs. This module provides a tiny request/reply layer on top of the
fabric's SEND verb: a request carries a correlation id; the target's
registered handler computes a reply, which is SENT back and completes the
caller's event.

Handlers run at message-delivery time and must be non-blocking; long
operations (e.g. slab regeneration) spawn their own simulation process and
reply immediately with an acknowledgement.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional, Set, Tuple

from ..net import QueuePair, RdmaFabric
from ..sim import Event

__all__ = ["RpcError", "RpcEndpoint"]

_MESSAGE_BYTES = 256  # control messages are small; one MTU


class RpcError(Exception):
    """The remote handler raised, or the target is unreachable."""


def _request(message_type: str, request_id: int, body: Optional[dict]) -> dict:
    return {"kind": "request", "type": message_type, "id": request_id, "body": body or {}}


class RpcEndpoint:
    """Request/reply messaging for one machine.

    One endpoint per machine; both the Resilience Manager and the Resource
    Monitor of that machine share it. Handlers are registered per message
    type::

        endpoint.register("query_load", lambda src, body: {"free": ...})
        reply = yield endpoint.call(peer_id, "query_load", {})
    """

    _ids = itertools.count(1)

    def __init__(self, fabric: RdmaFabric, machine_id: int):
        self.fabric = fabric
        self.sim = fabric.sim
        self.machine_id = machine_id
        self._handlers: Dict[str, Callable[[int, dict], Any]] = {}
        # Calls awaiting a reply: request id -> (target, event). An entry
        # leaves on the reply, a failed SEND or the loss of the connection
        # to its target — whichever comes first completes the event.
        self._pending: Dict[int, Tuple[int, Event]] = {}
        self._watched: Set[int] = set()  # targets with a disconnect listener
        fabric.machine(machine_id).add_message_handler(self._on_message)

    def register(self, message_type: str, handler: Callable[[int, dict], Any]) -> None:
        """Register the handler for ``message_type`` (one per type)."""
        if message_type in self._handlers:
            raise ValueError(f"handler for {message_type!r} already registered")
        self._handlers[message_type] = handler

    def call(self, target_id: int, message_type: str, body: Optional[dict] = None) -> Event:
        """Issue a request; the returned event yields the reply body.

        Fails with :class:`RpcError` when the target is unreachable, its
        handler raises, or the connection to it drops before the reply
        arrives (a target that served the request and then died would
        otherwise leave the caller waiting forever).
        """
        request_id = next(self._ids)
        event = self.sim.event(name=f"rpc:{message_type}->{target_id}")
        self._pending[request_id] = (target_id, event)
        if target_id not in self._watched:
            self._watched.add(target_id)
            self.fabric.qp(self.machine_id, target_id).on_disconnect(self._on_lost)
        self._send(target_id, _request(message_type, request_id, body), request_id)
        return event

    def notify(self, target_id: int, message_type: str, body: Optional[dict] = None) -> None:
        """One-way, best-effort message: the handler runs on delivery, no
        reply is routed back and a SEND to a dead peer is dropped."""
        message = _request(message_type, next(self._ids), body)
        self._send(target_id, dict(message, oneway=True))

    def _send(self, target_id: int, message: dict, request_id: Optional[int] = None) -> None:
        """The one SEND of the RPC layer. Its completion reports to
        :meth:`_sent` with ``request_id`` as the token: the id of the call
        a failed SEND fails, or None for replies and notifications."""
        qp = self.fabric.qp(self.machine_id, target_id)
        delivery = (target_id, self.machine_id, message)
        post = (qp, request_id, self.fabric.deliver_message, delivery)
        QueuePair._post(self.fabric, _MESSAGE_BYTES, self._sent, (post,), one_sided=False)

    def _sent(self, request_id: Optional[int], ok: bool, value: Any) -> None:
        if not ok and request_id in self._pending:
            self._fail(request_id, value)

    def _on_lost(self, target_id: int) -> None:
        """The connection to ``target_id`` broke: no reply can arrive for
        the calls awaiting one. Schedules nothing when none is pending."""
        for request_id in [i for i, (t, _e) in self._pending.items() if t == target_id]:
            self._fail(request_id, "connection lost")

    def _fail(self, request_id: int, why: Any) -> None:
        _target_id, event = self._pending.pop(request_id)
        event.fail(RpcError(f"{event.name} failed: {why}"))

    # -- delivery ------------------------------------------------------------
    def _on_message(self, src_id: int, message: Any) -> None:
        if not isinstance(message, dict) or "kind" not in message:
            return  # not an RPC frame; other subsystems may use raw sends
        if message["kind"] == "request":
            self._serve(src_id, message)
        elif message["kind"] == "reply":
            self._complete(message)

    def _serve(self, src_id: int, message: dict) -> None:
        handler = self._handlers.get(message["type"])
        reply: Dict[str, Any] = {"kind": "reply", "id": message["id"]}
        if handler is None:
            reply["error"] = f"no handler for {message['type']!r} on {self.machine_id}"
        else:
            try:
                reply["body"] = handler(src_id, message["body"])
            except Exception as exc:  # noqa: BLE001 - errors cross the wire
                reply["error"] = f"{type(exc).__name__}: {exc}"
        if not message.get("oneway"):  # notify(): nobody is waiting for a reply
            self._send(src_id, reply)

    def _complete(self, message: dict) -> None:
        _target_id, event = self._pending.pop(message["id"], (None, None))
        if event is None:
            return  # the call already failed (connection lost); reply is late
        if "error" in message:
            event.fail(RpcError(message["error"]))
        else:
            event.succeed(message.get("body"))
