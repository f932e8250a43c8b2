"""The cluster-wide experiment (§7.4): 250 containers on 50 machines.

Reproduces the methodology of Figures 17-18 and Table 3, scaled down in
bytes (not in structure): an equal number of containers per application
(VoltDB-like, Memcached ETC, Memcached SYS), randomly distributed over the
machines; half run at the 100 % memory fit, ~30 % at 75 %, the rest at
50 %. The paper packs 2.76 TB of footprint into 3.20 TB (86 %) with 1 GB
slabs on 64 GB machines. Two scale effects force a lower default
footprint fraction (45 %) here: slabs are proportionally coarser relative
to machine memory (rounding waste), and under workload churn every page
of a constrained container is eventually paged out, so replication must
host 2x the *entire* working set remotely, not 2x the remote fraction.
The skew comparison (Fig 17) and completion comparison (Fig 18) are
unaffected — all three backends run under identical pressure.

Containers at 100 % never touch remote memory; the others page through
the backend under test. The run measures:

* per-container completion time (Fig 18) and op latency (Table 3);
* per-machine memory usage over time -> load-balancing skew (Fig 17).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cluster import Cluster
from ..core import HydraConfig, HydraDeployment
from ..ec import PAGE_SIZE
from ..sim import (
    DistributionSummary,
    RandomSource,
    coefficient_of_variation,
    imbalance_ratio,
    summarize,
)
from ..vmm import PagedMemory
from .builders import NamespacedPool, build_backend
from .microbench import run_process
from .report import percentile
from .scenarios import _make_workload

__all__ = ["ContainerSpec", "ClusterRunResult", "ClusterExperiment"]

_FIT_MIX = ((1.0, 0.5), (0.75, 0.3), (0.5, 0.2))  # (fit, fraction of containers)
_APPS = ("voltdb", "etc", "sys")
# Baselines place coarse whole-page slabs (Infiniswap's 1 GB unit,
# scaled); Hydra places fine RS(8+2) split slabs — the grain gap behind
# Figure 17.
_SLAB_PAGES = 256
_HYDRA_RANGE_PAGES = 128
_HYDRA_K, _HYDRA_R = 8, 2
# Cluster dynamics: mid-run pressure and the baselines' eviction daemon.
_PRESSURE_MACHINE_FRACTION = 0.3
_PRESSURE_EXTRA_FRACTION = 0.48
_PRESSURE_START_US = 1_500.0
_PRESSURE_DURATION_US = 5_000.0
_EVICTION_THRESHOLD = 0.12
_EVICTION_PERIOD_US = 250.0


@dataclass
class ContainerSpec:
    """One containerized application instance."""

    container_id: int
    host_id: int
    workload: str
    fit: float
    n_pages: int
    total_ops: int


@dataclass
class ContainerResult:
    spec: ContainerSpec
    completion_us: float
    op_latency: DistributionSummary
    samples: np.ndarray = field(default_factory=lambda: np.array([]))


@dataclass
class ClusterRunResult:
    """Everything Figs 17-18 and Table 3 need from one cluster run."""

    backend: str
    containers: List[ContainerResult]
    machine_mean_usage: np.ndarray  # bytes, averaged over the run
    total_memory_bytes: int

    # -- Fig 17 metrics ----------------------------------------------------
    @property
    def usage_imbalance(self) -> float:
        """Max/min average memory usage across machines."""
        return imbalance_ratio(self.machine_mean_usage)

    @property
    def usage_variation(self) -> float:
        """Std/mean of average memory usage (the paper's 'variation')."""
        return coefficient_of_variation(self.machine_mean_usage)

    @property
    def min_utilization(self) -> float:
        return float(self.machine_mean_usage.min() / self.total_memory_bytes)

    # -- Fig 18 / Table 3 metrics -----------------------------------------
    def median_completion_us(self, workload: str, fit: float) -> Optional[float]:
        values = self._completions(workload, fit)
        return float(np.median(values)) if values else None

    def mean_completion_us(self, workload: str, fit: float) -> Optional[float]:
        """Mean completion — sensitive to the minority of containers hit
        by evictions/pressure, where the backends differ most."""
        values = self._completions(workload, fit)
        return float(np.mean(values)) if values else None

    def _completions(self, workload: str, fit: float) -> list:
        return [
            c.completion_us
            for c in self.containers
            if c.spec.workload == workload and abs(c.spec.fit - fit) < 1e-9
        ]

    def latency_percentile(
        self, workload: str, fit: float, pct: float
    ) -> Optional[float]:
        """Percentile over the pooled op samples of all matching
        containers — tail events on a few containers must show (the
        paper's Table 3 p99 blowups are exactly such events)."""
        pools = [
            c.samples
            for c in self.containers
            if c.spec.workload == workload
            and abs(c.spec.fit - fit) < 1e-9
            and len(c.samples)
        ]
        if not pools:
            return None
        return percentile(np.concatenate(pools), pct)


class ClusterExperiment:
    """Build and run the 250-container experiment on one backend."""

    def __init__(
        self,
        backend: str,
        machines: int = 50,
        containers: int = 250,
        pages_per_container: int = 600,
        ops_per_container: int = 250,
        seed: int = 0,
        footprint_fraction: float = 0.40,
    ):
        self.backend_kind = backend
        self.machines = machines
        self.n_containers = containers
        self.pages_per_container = pages_per_container
        self.ops_per_container = ops_per_container
        self.seed = seed
        # Container placement, fits and pressure schedule must be
        # *identical* across backends for a fair comparison: derive them
        # from a backend-independent stream.
        self.rng = RandomSource(seed, "clusterrun/common")
        self.pool_rng = RandomSource(seed, f"clusterrun/{backend}")

        footprint = containers * pages_per_container * PAGE_SIZE
        self.memory_per_machine = int(footprint / footprint_fraction / machines)
        self.slab_size_bytes = _SLAB_PAGES * PAGE_SIZE
        if backend == "hydra":
            self.slab_size_bytes = _HYDRA_RANGE_PAGES * -(-PAGE_SIZE // _HYDRA_K)

    # ------------------------------------------------------------------
    def build_specs(self) -> List[ContainerSpec]:
        """Assign apps, fits and hosts exactly per the paper's mix."""
        specs: List[ContainerSpec] = []
        fits: List[float] = []
        for fit, fraction in _FIT_MIX:
            fits.extend([fit] * int(round(self.n_containers * fraction)))
        while len(fits) < self.n_containers:
            fits.append(1.0)
        fits = fits[: self.n_containers]
        self.rng.shuffle(fits)
        # Random (not balanced) hosting, like the paper's "randomly
        # distributed" containers: some machines end up crowded, others
        # nearly idle — the heterogeneity remote placement must absorb.
        hosts = [
            self.rng.randint(0, self.machines - 1)
            for _ in range(self.n_containers)
        ]
        for cid in range(self.n_containers):
            specs.append(
                ContainerSpec(
                    container_id=cid,
                    host_id=hosts[cid],
                    workload=_APPS[cid % len(_APPS)],
                    fit=fits[cid],
                    n_pages=self.pages_per_container,
                    total_ops=self.ops_per_container,
                )
            )
        return specs

    # ------------------------------------------------------------------
    def run(self, until: float = 2_000_000_000.0) -> ClusterRunResult:
        specs = self.build_specs()
        cluster = Cluster(
            machines=self.machines,
            memory_per_machine=self.memory_per_machine,
            with_ssd=(self.backend_kind == "ssd_backup"),
            seed=self.seed,
        )
        sim = cluster.sim

        deployment = None
        if self.backend_kind == "hydra":
            config = HydraConfig(
                k=_HYDRA_K,
                r=_HYDRA_R,
                delta=1,
                slab_size_bytes=self.slab_size_bytes,
                payload_mode="phantom",
                # The run spans ~10 simulated ms; the ControlPeriod must
                # fire many times within it for the headroom machinery
                # (Fig 7) to participate in the experiment.
                control_period_us=_EVICTION_PERIOD_US * 2,
                headroom_fraction=_EVICTION_THRESHOLD,
            )
            deployment = HydraDeployment(cluster, config, seed=self.seed)

        # Local (resident) memory is charged to the host machine so that
        # placement decisions see realistic heterogeneous pressure.
        pools = {}
        for spec in specs:
            resident_bytes = int(spec.n_pages * spec.fit) * PAGE_SIZE
            host = cluster.machine(spec.host_id)
            host.set_local_app_bytes(host.local_app_bytes + resident_bytes)
            if spec.fit >= 1.0:
                continue  # fully in-memory: no remote pool needed
            if self.backend_kind == "hydra":
                pools[spec.container_id] = NamespacedPool(
                    deployment.manager(spec.host_id),
                    base_page=spec.container_id * (1 << 22),
                )
            else:
                pools[spec.container_id] = build_backend(
                    self.backend_kind,
                    cluster,
                    client=spec.host_id,
                    slab_size_bytes=self.slab_size_bytes,
                    payload_mode="phantom",
                    rng=self.pool_rng.child(f"pool{spec.container_id}"),
                )

        # Periodic cluster-wide memory usage sampling for Fig 17.
        def usage_sampler():
            while True:
                yield sim.timeout(_EVICTION_PERIOD_US)
                for machine in cluster.machines:
                    if machine.alive:
                        machine.record_usage()

        sim.process(usage_sampler(), name="usage-sampler")

        # Cluster dynamics (§7.4): a fraction of machines see their local
        # applications grow mid-run, forcing slab evictions. Hydra's
        # Resource Monitors react on their own; the baselines get the
        # Infiniswap-style eviction daemon below.
        victims = self.rng.sample(
            cluster.machines,
            max(1, int(self.machines * _PRESSURE_MACHINE_FRACTION)),
        )
        extra = int(self.memory_per_machine * _PRESSURE_EXTRA_FRACTION)

        def pressure(machine):
            yield sim.timeout(_PRESSURE_START_US)
            machine.set_local_app_bytes(machine.local_app_bytes + extra)
            yield sim.timeout(_PRESSURE_DURATION_US)
            machine.set_local_app_bytes(max(0, machine.local_app_bytes - extra))

        for machine in victims:
            sim.process(pressure(machine), name=f"pressure:{machine.id}")
        if self.backend_kind != "hydra":
            sim.process(self._eviction_daemon(cluster, pools), name="evictiond")

        # Launch every container.
        container_procs: List[Tuple[ContainerSpec, object, object]] = []
        for spec in specs:
            rng = self.rng.child(f"wl{spec.container_id}")
            if spec.fit >= 1.0:
                # Fully in-memory: a backendless pager would still try to
                # page out; give it room for the whole working set.
                pool = _NullPool(sim)
                resident = spec.n_pages + 1
            else:
                pool = pools[spec.container_id]
                resident = max(1, int(spec.n_pages * spec.fit))
            pager = PagedMemory(pool, resident_pages=resident)
            work = _make_workload(
                spec.workload, pager, rng, spec.n_pages,
                clients=1, window_us=1_000_000.0,
            )

            def container(spec=spec, pager=pager, work=work):
                yield pager.preload(range(spec.n_pages))
                start = sim.now
                yield work.run(total_ops=spec.total_ops)
                return sim.now - start

            proc = sim.process(container(), name=f"container{spec.container_id}")
            container_procs.append((spec, proc, work))

        everything = sim.all_of([proc for _s, proc, _w in container_procs])
        run_process(sim, everything, until=until)

        results = [
            ContainerResult(
                spec=spec,
                completion_us=proc.value,
                op_latency=summarize(
                    work.latency.samples, name=f"c{spec.container_id}"
                ),
                samples=np.asarray(work.latency.samples, dtype=np.float64),
            )
            for spec, proc, work in container_procs
        ]
        usage = np.array(
            [
                m.usage_series.mean() if len(m.usage_series) else m.used_bytes
                for m in cluster.machines
            ]
        )
        return ClusterRunResult(
            backend=self.backend_kind,
            containers=results,
            machine_mean_usage=usage,
            total_memory_bytes=self.memory_per_machine,
        )


    # ------------------------------------------------------------------
    def _eviction_daemon(self, cluster: Cluster, pools: Dict[int, object]):
        """Infiniswap-style eviction for the baseline backends: when a
        machine's free memory falls below the threshold, its least-accessed
        hosted slab is dropped and the owning pool notified."""
        sim = cluster.sim
        while True:
            yield sim.timeout(_EVICTION_PERIOD_US)
            for machine in cluster.machines:
                if not machine.alive:
                    continue
                guard = 0
                while (
                    machine.free_bytes / machine.total_memory_bytes
                    < _EVICTION_THRESHOLD
                    and guard < 16
                ):
                    if not self._evict_one(machine, pools):
                        break
                    guard += 1

    @staticmethod
    def _evict_one(machine, pools: Dict[int, object]) -> bool:
        """Drop the coldest mapped slab on ``machine``; returns success."""
        best = None
        for pool in pools.values():
            # A pool without an independent backup (replication, direct)
            # must keep at least one live replica per group; SSD backup
            # always has the disk copy to fall back on.
            disk_backed = getattr(pool, "name", "") == "ssd_backup"
            for group_id, handles in pool.groups.items():
                live = sum(1 for h in handles if h.available)
                for index, handle in enumerate(handles):
                    if handle.machine_id != machine.id or not handle.available:
                        continue
                    if not disk_backed and live <= 1:
                        continue
                    slab = machine.hosted_slabs.get(handle.slab_id)
                    if slab is None:
                        continue
                    key = (slab.access_count, pool, group_id, index, handle)
                    if best is None or key[0] < best[0]:
                        best = key
        if best is None:
            return False
        _count, pool, group_id, index, handle = best
        handle.available = False
        machine.release_slab(handle.slab_id)
        pool.events.incr("pressure_evictions")
        pool.on_handle_lost(group_id, index)
        return True


class _NullPool:
    """Backend for fully-in-memory containers: never actually used, but
    present so the pager API stays uniform."""

    name = "null"

    def __init__(self, sim):
        self.sim = sim

    def write(self, page_id, data=None):
        def noop():
            yield self.sim.timeout(0.0)

        return self.sim.process(noop(), name="null-write")

    def read(self, page_id):
        def noop():
            yield self.sim.timeout(0.0)

        return self.sim.process(noop(), name="null-read")
