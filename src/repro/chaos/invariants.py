"""Invariant checkers observing a ResilienceManager through its hooks.

The :class:`InvariantMonitor` registers as a passive RM observer
(:meth:`ResilienceManager.add_observer`) and maintains its own model of
what the application was promised: every acked write's (version, bytes),
every durability completion, every open regeneration. Against that model
it checks:

* **durability** — for every page whose last write is fully durable (data
  *and* parity phases complete, nothing in flight), at least ``k`` of the
  splits *actually stored* on alive machines decode to the acked bytes.
  The check inspects slab contents directly (out-of-band, zero simulated
  cost). An apparent violation is confirmed after a grace period so
  in-flight catch-up posts (microsecond-scale) cannot false-positive;
  real data loss cannot heal, so it always survives confirmation.
* **consistency** — a read never returns an *older version* than the
  last write acked before the read started (reads racing writes accept
  anything acked during the read window). Bytes matching no version at
  all are a violation too — unless a corruption burst was injected, in
  which case the §5.1 guarantee is deliberately weaker (detection lags a
  background verify) and the garbage read is counted, with convergence
  enforced by the final audit instead.
* **liveness** — no regeneration attempt runs longer than
  ``liveness_timeout_us``; at the final audit no ``(range, position)``
  entry remains open and every range is whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..cluster import PhantomSplit, SlabState
from ..core.resilience_manager import _REGEN_TIMEOUT_US

__all__ = ["Violation", "InvariantMonitor"]


@dataclass
class Violation:
    """One invariant breach, with enough context to debug it."""

    invariant: str  # "durability" | "consistency" | "liveness"
    at_us: float
    detail: str
    page_id: Optional[int] = None

    def to_dict(self) -> Dict:
        return {
            "invariant": self.invariant,
            "at_us": self.at_us,
            "detail": self.detail,
            "page_id": self.page_id,
        }


@dataclass
class _PageState:
    """The checker's model of one page."""

    version: int = 0
    data: Optional[bytes] = None
    durable_version: int = 0
    # Ack history for read-window consistency: (ack_time_us, version, data).
    history: List[Tuple[float, int, Optional[bytes]]] = field(default_factory=list)


class InvariantMonitor:
    """Observes one ResilienceManager and checks the three invariants."""

    def __init__(
        self,
        cluster,
        rm,
        config,
        *,
        check_interval_us: float = 100_000.0,
        confirm_grace_us: float = 50_000.0,
        flight=None,
    ):
        self.cluster = cluster
        self.rm = rm
        self.config = config
        self.sim = cluster.sim
        # Optional FlightRecorder: violations land in the ring so the
        # repro bundle's flight.json shows what led up to them.
        self.flight = flight
        self.check_interval_us = check_interval_us
        self.confirm_grace_us = confirm_grace_us
        # One full RPC round plus the silent-target timeout, twice over:
        # any single regeneration attempt exceeding this is stuck.
        self.liveness_timeout_us = 2.0 * (_REGEN_TIMEOUT_US + config.control_period_us)

        self.pages: Dict[int, _PageState] = {}
        self.open_regens: Dict[Tuple[int, int], float] = {}
        self.regen_outcomes: Dict[str, int] = {}
        self.violations: List[Violation] = []
        self.counters: Dict[str, int] = {
            "writes_acked": 0,
            "writes_durable": 0,
            "reads_checked": 0,
            "reads_failed": 0,
            "durability_checks": 0,
            "durability_confirms": 0,
            "regens_started": 0,
            "corrupt_reads_tolerated": 0,
        }
        self.corruption_injected = False
        self._expected_cache: Dict[int, Tuple[int, np.ndarray]] = {}
        self._flagged: Set[Tuple[str, object]] = set()
        self._confirming: Set[int] = set()
        # Pages whose last write was torn by an RM failover (intent
        # replicated, ack never issued): split state is mixed-version
        # until the successor re-seals them, so byte checks are relaxed
        # for exactly these pages, exactly until their next ack.
        self._torn: Set[int] = set()

    # ------------------------------------------------------------------
    # RM observer hooks
    # ------------------------------------------------------------------
    def on_write_acked(self, page_id: int, version: int, data) -> None:
        state = self.pages.setdefault(page_id, _PageState())
        state.version = version
        state.data = data
        state.history.append((self.sim.now, version, data))
        self._torn.discard(page_id)  # sealed (or overwritten): promise renewed
        self.counters["writes_acked"] += 1

    def on_write_durable(self, page_id: int, version: int) -> None:
        state = self.pages.get(page_id)
        if state is None:
            return
        if version > state.durable_version:
            state.durable_version = version
        self.counters["writes_durable"] += 1

    def on_read_done(self, page_id: int, version: int, data, start_us: float) -> None:
        state = self.pages.get(page_id)
        if state is None:
            return
        self.counters["reads_checked"] += 1
        history = state.history
        if not history:
            return
        # Acceptable: the last write acked at-or-before the read started,
        # plus everything acked while the read was in flight.
        floor = 0
        for index, (ack_us, _v, _d) in enumerate(history):
            if ack_us <= start_us:
                floor = index
            else:
                break
        acceptable = history[floor:]
        if data is not None:
            if any(d == data for (_t, _v, d) in acceptable):
                return
            stale = [v for (_t, v, d) in history[:floor] if d == data]
            if stale:
                self._violate(
                    "consistency",
                    f"read of page {page_id} returned stale version "
                    f"{stale[-1]}, acceptable "
                    f"{[v for (_t, v, _d) in acceptable]} "
                    f"(read started at {start_us:.1f}us)",
                    page_id=page_id,
                )
            elif page_id in self._torn:
                # Failover re-seal race: the page's splits are mixed
                # between the torn intent and its acked predecessor
                # until the successor rewrites them; either version's
                # bytes (or a decode of the mixture) may surface.
                self.counters["torn_reads_tolerated"] = (
                    self.counters.get("torn_reads_tolerated", 0) + 1
                )
            elif self.corruption_injected:
                # §5.1: detection lags a background verify; the garbage
                # read is tolerated, convergence enforced at final audit.
                self.counters["corrupt_reads_tolerated"] += 1
            else:
                self._violate(
                    "consistency",
                    f"read of page {page_id} returned bytes matching no "
                    f"version ever written (read started at {start_us:.1f}us)",
                    page_id=page_id,
                )
        else:
            # Phantom mode: check the RM's version bookkeeping instead.
            if version not in [v for (_t, v, _d) in acceptable]:
                self._violate(
                    "consistency",
                    f"read of page {page_id} saw version {version}, acceptable "
                    f"{[v for (_t, v, _d) in acceptable]}",
                    page_id=page_id,
                )

    def note_corruption(self) -> None:
        """The engine injected a corruption burst: weaken the read-byte
        check to the §5.1 contract (see class docstring)."""
        self.corruption_injected = True

    def on_read_failed(self, page_id: int) -> None:
        self.counters["reads_failed"] += 1

    def on_regen_start(self, range_id: int, position: int) -> None:
        self.open_regens[(range_id, position)] = self.sim.now
        self.counters["regens_started"] += 1

    def on_regen_end(self, range_id: int, position: int, outcome: str) -> None:
        self.open_regens.pop((range_id, position), None)
        self.regen_outcomes[outcome] = self.regen_outcomes.get(outcome, 0) + 1

    def on_page_lost(self, page_id: int) -> None:
        """Failover recovery gave up on a page (``ResilienceManager.seal``).

        Losing a torn page is the documented async-encoding trade-off:
        the client's overwrite was in flight, so neither the old nor the
        new version is guaranteed reconstructible. Losing a page with no
        write outstanding breaks the durability promise outright.
        """
        state = self.pages.pop(page_id, None)
        self._expected_cache.pop(page_id, None)
        key = "pages_lost_torn" if page_id in self._torn else "pages_lost"
        self.counters[key] = self.counters.get(key, 0) + 1
        if page_id in self._torn:
            self._torn.discard(page_id)
            return
        if state is not None and state.version > 0:
            self._violate(
                "durability",
                f"page {page_id} v{state.version} lost in failover despite "
                "an acked write and no overwrite in flight",
                page_id=page_id,
                dedup=("lost", page_id),
            )

    def rebind(self, new_rm, info: Dict) -> None:
        """Follow a control-plane failover: observe the successor RM.

        Clears per-RM state — regenerations open on the dead leader can
        never complete there (the successor restarts its own), and the
        split-inspection cache keys off the leader's codec. Pages whose
        write was torn mid-flight (``info["interrupted"]``) get relaxed
        byte checks until the successor's re-seal acks.
        """
        self.rm = new_rm
        self.open_regens.clear()
        self._expected_cache.clear()
        self._torn.update(page for page, _acked, _intent in info["interrupted"])
        self.counters["failovers"] = self.counters.get("failovers", 0) + 1

    # ------------------------------------------------------------------
    # periodic checking
    # ------------------------------------------------------------------
    def start(self):
        """Spawn the periodic checkpoint process; returns it."""
        return self.sim.process(self._check_loop(), name="chaos-invariants")

    def _check_loop(self):
        while True:
            yield self.sim.timeout(self.check_interval_us)
            self.checkpoint()

    def checkpoint(self) -> None:
        """One mid-run pass: durability suspects + stuck regenerations."""
        self.counters["durability_checks"] += 1
        now = self.sim.now
        for page_id in sorted(self.pages):
            state = self.pages[page_id]
            if not self._durability_checkable(page_id, state):
                continue
            if self._valid_split_count(page_id, state) < self.config.k:
                self._schedule_confirm(page_id, state.version)
        for key, started in sorted(self.open_regens.items()):
            if now - started > self.liveness_timeout_us:
                self._violate(
                    "liveness",
                    f"regeneration of range {key[0]} position {key[1]} open "
                    f"for {now - started:.0f}us (started {started:.1f}us)",
                    dedup=("liveness", key),
                )

    def _durability_checkable(self, page_id: int, state: _PageState) -> bool:
        """Durability applies once the write's parity phase completed and
        nothing newer is in flight for the page."""
        if state.data is None and self.config.payload_mode == "real":
            return False
        if state.durable_version != state.version:
            return False
        # A fenced RM is mid-handoff: split state is in flux until the
        # successor adopts the domain and the monitor is rebound. Torn
        # pages stay unchecked until their re-seal acks.
        if getattr(self.rm, "_fenced", False) or page_id in self._torn:
            return False
        return page_id not in self.rm._inflight_writes

    def _schedule_confirm(self, page_id: int, version: int) -> None:
        if page_id in self._confirming:
            return
        self._confirming.add(page_id)
        self.sim.process(
            self._confirm(page_id, version), name=f"chaos-confirm:{page_id}"
        )

    def _confirm(self, page_id: int, version: int):
        try:
            yield self.sim.timeout(self.confirm_grace_us)
            self.counters["durability_confirms"] += 1
            state = self.pages.get(page_id)
            if state is None or state.version != version:
                return  # overwritten since; the newer write is checked anew
            if not self._durability_checkable(page_id, state):
                return
            count = self._valid_split_count(page_id, state)
            if count < self.config.k:
                self._violate(
                    "durability",
                    f"page {page_id} v{version}: only {count} of the stored "
                    f"splits decode (need {self.config.k}) after "
                    f"{self.confirm_grace_us:.0f}us grace",
                    page_id=page_id,
                    dedup=("durability", (page_id, version)),
                )
        finally:
            self._confirming.discard(page_id)

    # ------------------------------------------------------------------
    # stored-split inspection
    # ------------------------------------------------------------------
    def _expected_splits(self, page_id: int, state: _PageState) -> Optional[np.ndarray]:
        cached = self._expected_cache.get(page_id)
        if cached is not None and cached[0] == state.version:
            return cached[1]
        if state.data is None:
            return None
        expected = self.rm.codec.encode(state.data)
        self._expected_cache[page_id] = (state.version, expected)
        return expected

    def _valid_split_count(self, page_id: int, state: _PageState) -> int:
        """How many stored splits of the page's acked version survive.

        Inspects slab contents on alive machines directly — the ground
        truth an oracle repair would have access to.
        """
        rm = self.rm
        range_id, offset = rm.space.locate(page_id)
        address_range = rm.space.get(range_id)
        if address_range is None:
            return 0
        expected = (
            self._expected_splits(page_id, state)
            if self.config.payload_mode == "real"
            else None
        )
        count = 0
        for position, handle in enumerate(address_range.slots):
            machine = self.cluster.machine(handle.machine_id)
            if not machine.alive:
                continue
            slab = machine.hosted_slabs.get(handle.slab_id)
            if slab is None or slab.state is SlabState.FREE:
                continue
            payload = slab.pages.get(offset)
            if expected is not None:
                if isinstance(payload, np.ndarray) and np.array_equal(
                    payload, expected[position]
                ):
                    count += 1
            elif (
                isinstance(payload, PhantomSplit)
                and payload.version == state.version
                and not payload.corrupt
            ):
                count += 1
        return count

    # ------------------------------------------------------------------
    # final audit
    # ------------------------------------------------------------------
    def final_check(self) -> None:
        """End-of-run audit after quiescing (no grace, no excuses)."""
        for page_id in sorted(self.pages):
            state = self.pages[page_id]
            if page_id in self._torn:
                # Torn by a failover and never successfully re-sealed:
                # the outstanding overwrite voids the byte-level promise
                # (same contract as on_page_lost for torn pages).
                self.counters["torn_after_quiesce"] = (
                    self.counters.get("torn_after_quiesce", 0) + 1
                )
                continue
            if state.durable_version != state.version:
                self._violate(
                    "durability",
                    f"page {page_id} v{state.version}: write never became "
                    "durable (parity phase still open after quiesce)",
                    page_id=page_id,
                )
                continue
            count = self._valid_split_count(page_id, state)
            if count < self.config.k:
                self._violate(
                    "durability",
                    f"page {page_id} v{state.version}: only {count} stored "
                    f"splits decode after quiesce (need {self.config.k})",
                    page_id=page_id,
                    dedup=("durability", (page_id, state.version)),
                )
        for key, started in sorted(self.open_regens.items()):
            self._violate(
                "liveness",
                f"regeneration of range {key[0]} position {key[1]} still open "
                f"after quiesce (started {started:.1f}us)",
                dedup=("liveness", key),
            )
        for address_range in self.rm.space.all_ranges():
            missing = [
                p
                for p in range(address_range.n)
                if not address_range.handle(p).available
            ]
            if missing:
                self._violate(
                    "liveness",
                    f"range {address_range.range_id} positions {missing} "
                    "still unavailable after quiesce",
                )

    def record_audit_mismatch(self, page_id: int, detail: str) -> None:
        """The engine's read-back audit found wrong/unreadable data."""
        self._violate(
            "durability", detail, page_id=page_id, dedup=("audit", page_id)
        )

    # ------------------------------------------------------------------
    @property
    def torn_pages(self) -> frozenset:
        """Pages torn by a failover and not yet re-sealed (see rebind)."""
        return frozenset(self._torn)

    @property
    def ok(self) -> bool:
        return not self.violations

    def report(self) -> Dict:
        """Deterministic JSON-able summary of what the monitor saw."""
        return {
            "ok": self.ok,
            "counters": dict(sorted(self.counters.items())),
            "regen_outcomes": dict(sorted(self.regen_outcomes.items())),
            "violations": [v.to_dict() for v in self.violations],
        }

    def _violate(
        self,
        invariant: str,
        detail: str,
        page_id: Optional[int] = None,
        dedup: Optional[Tuple] = None,
    ) -> None:
        if dedup is not None:
            if dedup in self._flagged:
                return
            self._flagged.add(dedup)
        self.violations.append(
            Violation(
                invariant=invariant,
                at_us=self.sim.now,
                detail=detail,
                page_id=page_id,
            )
        )
        if self.flight is not None:
            self.flight.note(
                "violation",
                self.sim.now,
                invariant=invariant,
                page_id=page_id,
                detail=detail,
            )
