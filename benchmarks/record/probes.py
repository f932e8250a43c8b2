"""Direct-drive probes: one layer at a time, through its public functions.

The traced pass says where a workload's time goes; these say what a layer
can do on its own, so a layer-level change has a number that moves before
any end-to-end metric does. The two ``host.*`` kernels never touch the
repo: they make host drift between two recordings visible.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable, Dict

import numpy as np

from repro.harness.builders import build_hydra_cluster
from repro.harness.microbench import run_process
from repro.sim import Simulator
from repro.vmm import PagedMemory

import hostclock
import workloads

_REPEATS = 3


def _rate(work: Callable[[], int]) -> float:
    """Median units/second over a few repeats of ``work`` (returns units)."""
    rates = []
    for _ in range(_REPEATS):
        t0 = perf_counter()
        units = work()
        rates.append(units / (perf_counter() - t0))
    return statistics.median(rates)


def sim_process_events(n: int) -> int:
    """Generator processes yielding timeouts: the scheduling style the RM
    and the open-loop engine use."""
    sim = Simulator()
    per_process = n // 8

    def ticker():
        for _ in range(per_process):
            yield sim.timeout(1.0)

    for i in range(8):
        sim.process(ticker(), name=f"ticker-{i}")
    sim.run()
    return per_process * 8


def sim_batch_events(n: int) -> int:
    """Fused ``call_later_batch`` completions: the style the NIC model uses."""
    sim = Simulator()
    delays = (0.3, 1.7, 0.9, 2.4, 0.1, 3.1, 0.6, 1.2)
    width = 64
    fired = [0]

    def make_chain(chain: int):
        beat = [chain]

        def rearm() -> None:
            fired[0] += width
            if fired[0] < n:
                beat[0] += 1
                sim.call_later_batch(delays[beat[0] & 7], burst)

        burst = (int,) * (width - 1) + (rearm,)
        return rearm

    for chain in range(8):
        sim.call_later(delays[chain], make_chain(chain))
    sim.run()
    return fired[0]


def net_posts(n: int) -> int:
    """512 B one-sided writes, one per queue pair per round, over 8 QPs —
    the shape of the RM's data-split fan-out, with nothing behind it."""
    hydra = build_hydra_cluster(machines=9, seed=7, start_monitors=False)
    sim = hydra.sim
    qps = [hydra.cluster.fabric.qp(0, target) for target in range(1, 9)]
    rounds = n // len(qps)
    done = [0]

    def apply() -> None:
        done[0] += 1

    def driver():
        for _ in range(rounds):
            yield sim.all_of([qp.post_write(512, apply=apply) for qp in qps])

    run_process(sim, sim.process(driver(), name="probe-net"), until=1e15)
    if done[0] != rounds * len(qps):
        raise RuntimeError("verb probe lost completions")
    return done[0]


def vmm_hits(n: int) -> int:
    """Resident-page hits through ``PagedMemory.access``."""
    hydra = build_hydra_cluster(machines=12, seed=7, payload_mode="phantom")
    sim = hydra.sim
    pager = PagedMemory(hydra.remote_memory(0), resident_pages=64)
    run_process(sim, pager.preload(range(64)), until=1e15)

    def driver():
        for i in range(n):
            yield pager.access(i & 63)

    run_process(sim, sim.process(driver(), name="probe-vmm"), until=1e15)
    if pager.stats["hits"] < n:
        raise RuntimeError("vmm probe missed its resident set")
    return n


def py_spin(n: int) -> int:
    for _ in range(n // 100_000):
        hostclock.arith_kernel()
    return n


def np_spin(n_bytes: int) -> int:
    a = np.arange(n_bytes, dtype=np.uint8)
    for _ in range(8):
        a ^= 0x5A
    return 8 * n_bytes


def monitoring_overhead(seed: int, scale: int) -> float:
    """rm_clean segments with the sampler + health monitor on
    (``period_us=200``) interleaved with bare ones. Telemetry is read-only,
    so both sides must produce identical anchors."""
    sides = {}
    for monitored in (False, True):
        workload = workloads.RmClean(seed, scale)
        workload.monitoring_period_us = 200.0 if monitored else None
        workload.setup()
        workload.warmup()
        sides[monitored] = workload
    seconds = {False: [], True: []}
    for index in range(2):
        anchors = {}
        for monitored in (False, True):
            seg = sides[monitored].segment(index)
            seconds[monitored].append(seg.seconds() * seg.host_scale)
            anchors[monitored] = seg.anchor
        if anchors[False] != anchors[True]:
            raise RuntimeError("monitoring perturbed the simulation")
    bare = statistics.median(seconds[False])
    return 100.0 * (statistics.median(seconds[True]) - bare) / bare


def run(seed: int, scale: int, workload: str) -> Dict[str, float]:
    n = 200_000 // scale
    out = {
        "sim.direct_process_events_per_s": _rate(lambda: sim_process_events(n)),
        "sim.direct_batch_events_per_s": _rate(lambda: sim_batch_events(5 * n)),
        "net.direct_posts_per_s": _rate(lambda: net_posts(n // 4)),
        "vmm.direct_hits_per_s": _rate(lambda: vmm_hits(n // 2)),
        "host.py_spin_mops": _rate(lambda: py_spin(10 * n)) / 1e6,
        "host.np_spin_gbps": _rate(lambda: np_spin((64 << 20) // scale)) / 1e9,
        "obs.monitoring_overhead_pct": 0.0,
    }
    if workload == "rm_clean":
        out["obs.monitoring_overhead_pct"] = monitoring_overhead(seed, scale)
    return out
