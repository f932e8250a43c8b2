"""From-outside tracing for the benchmark's ``--trace 1`` pass.

Nothing under ``src/`` knows about this file. :class:`Tracer` swaps the
public entry points of each layer (``src/repro/<layer>``) for timing
wrappers, records one span per call — name, layer, op id, parent span,
start and end in ``perf_counter_ns`` — and puts the originals back
afterwards. Process resumes are caught by substituting a proxy generator
in ``Simulator.process``; a resume belongs to the layer whose source file
defines the generator (``gi_code.co_filename``).

The simulator is single-threaded and every wrapped call returns before
its caller does, so spans nest strictly and a stack is enough to compute
self time exactly: a span's self time is its duration minus the duration
of the spans opened directly under it. Per-layer totals are accumulated
as spans close; the span list itself is only needed for the trace file.

Recording is gated by :attr:`Tracer.on` so a workload can exclude its
untimed preparation (cluster build, priming) from the layer budget.
"""

from __future__ import annotations

import json
import os
from array import array
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Tuple

_PAGE_BYTES = 4096      # every workload codes 4 KB pages
ROOT_LAYER = "sim"      # Simulator.run* spans: the engine's dispatch loop
BENCH_LAYER = "bench"   # the benchmark's own drivers and glue


def layer_of_file(filename: str) -> str:
    """``.../src/repro/<layer>/x.py`` -> ``<layer>``; anything else is the
    benchmark's own code."""
    parts = filename.replace(os.sep, "/").split("/")
    for i in range(len(parts) - 2, 0, -1):
        if parts[i - 1] == "repro":
            return parts[i]
    return BENCH_LAYER


class _Resume:
    """Generator stand-in handed to ``Process``: forwards ``send`` /
    ``throw`` / ``close`` and records one span per resume."""

    __slots__ = ("gen", "op", "tracer", "name_id", "__name__")

    def __init__(self, gen, layer: str, op: int, tracer: "Tracer"):
        self.gen = gen
        self.op = op
        self.tracer = tracer
        self.__name__ = getattr(gen, "__name__", "process")
        self.name_id = tracer.name_id("resume:" + self.__name__, layer)

    def send(self, value):
        return self.tracer._resume(self, self.gen.send, value)

    def throw(self, *exc):
        return self.tracer._resume(self, self.gen.throw, *exc)

    def close(self):
        return self.gen.close()


class Tracer:
    """Install/uninstall the wrappers and hold what they record.

    The wrappers do the least they can per call — two clock reads, a stack
    push and pop, one tuple — and everything else (self time, busy time,
    call counts) is derived from the span list afterwards, because every
    microsecond spent here lands in the self time of the caller.
    """

    def __init__(self) -> None:
        self.on = False
        # Seven ints per span — id, parent id, op id, name id, start ns,
        # end ns, bytes — in one flat array: a list of tuples would hand
        # the garbage collector a quarter of a million new containers.
        self._records = array("q")
        self._names: List[Tuple[str, str]] = []   # name id -> (name, layer)
        self._name_ids: Dict[Tuple[str, str], int] = {}
        self.window_ns = 0          # wall time with recording on
        self._window_start = 0
        self._next_id = 1
        self._op = 0
        self._stack: List[int] = [0]   # span ids; 0 = outside every span
        self._patched: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []   # entry points install() did not find

    # -- recording window ------------------------------------------------
    def start(self) -> None:
        self.on = True
        self._window_start = perf_counter_ns()

    def stop(self) -> None:
        self.window_ns += perf_counter_ns() - self._window_start
        self.on = False

    # -- wrappers --------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        found = self._name_ids.get(key)
        if found is None:
            found = self._name_ids[key] = len(self._names)
            self._names.append(key)
        return found

    @property
    def spans(self):
        """(id, parent, op, name, layer, start ns, end ns, bytes) per span."""
        records, names = self._records, self._names
        for i in range(0, len(records), 7):
            sid, parent, op, name_id, t0, t1, nbytes = records[i: i + 7]
            name, layer = names[name_id]
            yield sid, parent, op, name, layer, t0, t1, nbytes

    def _resume(self, proxy: _Resume, step: Callable, *args):
        if not self.on:
            return step(*args)
        stack = self._stack
        parent = stack[-1]
        sid = self._next_id
        self._next_id = sid + 1
        outer_op = self._op
        self._op = op = proxy.op
        stack.append(sid)
        t0 = perf_counter_ns()
        try:
            return step(*args)
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            self._records.extend((sid, parent, op, proxy.name_id, t0, t1, 0))
            self._op = outer_op

    def _wrap(self, fn: Callable, name: str, layer: str, nbytes=0) -> Callable:
        """Timing wrapper for one entry point. A call made outside any
        request (op id 0) starts a new one, so the spans it causes share
        its id. ``nbytes`` (a number, or a function of the call's
        arguments) is the page data the call codes."""
        tracer = self
        root = layer == ROOT_LAYER
        sized = callable(nbytes)
        name_id = self.name_id(name, layer)
        extend = self._records.extend

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1]
            sid = tracer._next_id
            tracer._next_id = sid + 1
            outer_op = op = tracer._op
            if op == 0 and not root:
                tracer._op = op = sid
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                extend((sid, parent, op, name_id, t0, t1,
                        nbytes(args) if sized else nbytes))
                tracer._op = outer_op

        return wrapper

    # -- install / uninstall ---------------------------------------------
    def _patch(self, owner, attr: str, layer: str, nbytes=0) -> None:
        label = f"{getattr(owner, '__name__', owner).rsplit('.', 1)[-1]}.{attr}"
        original = vars(owner).get(attr)
        if original is None:
            # Renamed or removed under src/: its time would silently land
            # in the caller's layer, so the traced run reports it.
            self.missing.append(label)
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, label, layer, nbytes))

    def install(self) -> None:
        from repro.cluster.machine import Machine
        from repro.core import resilience_manager, resource_monitor
        from repro.core.resilience_manager import ResilienceManager
        from repro.ec.pagecodec import PageCodec
        from repro.ec.rs import ReedSolomonCode
        from repro.net.rdma import QueuePair
        from repro.sim.engine import Simulator
        from repro.vmm.pager import PagedMemory

        for attr in ("run_until_triggered", "run"):
            self._patch(Simulator, attr, ROOT_LAYER)
        for attr in ("read", "write"):
            self._patch(ResilienceManager, attr, "core")
        # ``_post`` is the one private hook: the RM's batched fan-out
        # calls it directly, bypassing the three public verbs.
        for attr in ("post_read", "post_write", "post_send", "_post"):
            self._patch(QueuePair, attr, "net")
        for attr in ("read_split", "write_split"):
            self._patch(Machine, attr, "cluster")
        self._patch(PagedMemory, "access", "vmm")

        def batch(args):  # (codec, pages) or (codec, indices, stack, ...)
            return args[0].page_size * len(args[1] if len(args) == 2 else args[2])

        for attr in ("split", "join", "encode", "decode", "decode_verified",
                     "verify", "correct"):
            self._patch(PageCodec, attr, "ec", _PAGE_BYTES)
        for attr in ("encode_batch", "decode_batch", "correct_batch"):
            self._patch(PageCodec, attr, "ec", batch)
        for attr in ("split_pages", "join_pages"):
            self._patch(PageCodec, attr, "ec")

        for attr in ("encode", "encode_page", "decode", "decode_verified",
                     "verify", "correct", "reencode_split"):
            self._patch(ReedSolomonCode, attr, "ec", _PAGE_BYTES)
        # Slab-level helpers the core modules import by name.
        self._patch(resource_monitor, "rebuild_position", "ec")
        self._patch(resilience_manager, "reencode_split_pages", "ec")

        original = vars(Simulator)["process"]
        tracer = self

        def process(sim, generator, name: str = ""):
            code = getattr(generator, "gi_code", None)
            if code is not None:
                generator = _Resume(
                    generator, layer_of_file(code.co_filename), tracer._op, tracer
                )
            return original(sim, generator, name)

        self._patched.append((Simulator, "process", original))
        Simulator.process = process

    def uninstall(self) -> bool:
        """Put every original back; True when each patched attribute is
        the very object that was there before :meth:`install`."""
        restored = True
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
            restored = restored and vars(owner)[attr] is original
        self._patched.clear()
        return restored

    # -- results ---------------------------------------------------------
    def summary(self) -> dict:
        """Per-layer totals derived from the span list.

        ``self_s``  span time minus the spans opened directly under it;
                    ``bench`` also gets the time outside every root span,
                    so the values sum to the recording window.
        ``busy_s``  time of spans whose parent belongs to another layer:
                    how long callers waited on the layer, children included.
        ``calls``   how many such outermost spans; ``by_name`` counts every
                    span; ``bytes_coded`` sums outermost ``ec`` spans.
        """
        layer_of = {0: BENCH_LAYER}
        child_ns: Dict[int, int] = defaultdict(int)
        for sid, parent, _op, _name, layer, t0, t1, _n in self.spans:
            layer_of[sid] = layer
            child_ns[parent] += t1 - t0
        self_ns: Dict[str, int] = defaultdict(int)
        busy_ns: Dict[str, int] = defaultdict(int)
        calls: Dict[str, int] = defaultdict(int)
        by_name: Dict[str, int] = defaultdict(int)
        bytes_coded = 0
        for sid, parent, _op, name, layer, t0, t1, nbytes in self.spans:
            dur = t1 - t0
            self_ns[layer] += dur - child_ns[sid]
            by_name[name] += 1
            if layer_of[parent] != layer:
                busy_ns[layer] += dur
                calls[layer] += 1
                bytes_coded += nbytes
        self_ns[BENCH_LAYER] += self.window_ns - child_ns[0]
        return {
            "window_s": self.window_ns / 1e9,
            "self_s": {layer: ns / 1e9 for layer, ns in self_ns.items()},
            "busy_s": {layer: ns / 1e9 for layer, ns in busy_ns.items()},
            "calls": dict(calls),
            "by_name": dict(by_name),
            "bytes_coded": bytes_coded,
            "spans": len(self._records) // 7,
            "missing": list(self.missing),
        }

    def write(self, path: str) -> None:
        """One JSON object per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid, parent, op, name, layer, t0, t1, _n in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "layer": layer, "start_ns": t0, "end_ns": t1,
                }))
                fh.write("\n")
