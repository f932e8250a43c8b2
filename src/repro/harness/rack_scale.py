"""Rack-scale sweep: load balance and data loss at 1000 machines.

This is the §5 analysis (Figures 8-9) re-run at the cluster sizes the
paper argues about, on the packed-array data plane
(:mod:`repro.cluster.slabtable`) instead of per-slab Python objects:

* **placement / load balance** — one range per machine owner, k+r
  splits each, placed under three policies (uniform random, power of d
  choices, Hydra batch placement with rack-distinct spreading); the
  metric is max/mean load in mapped slabs and in resident page-splits;
* **data loss** — the exact hypergeometric §5.2 probability next to an
  empirical correlated-failure campaign over the actually-placed
  slab→machine matrix, plus a *rack blast* campaign (whole racks fail
  together) that shows what rack-distinct placement buys;
* **engine traffic** — a completion-storm workload over the topology's
  three latency classes driven through the engine's scheduler with
  fused ``call_later_batch`` records, sized in events so the sweep
  doubles as an engine throughput probe.

Everything derives from ``RackScaleConfig.seed`` through explicit
``numpy.random.Generator`` streams: the report text is a pure function
of the config, which is what lets ``python -m repro bench -j N`` run
the shard byte-identically at any worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import floor
from typing import Dict, List

import numpy as np

from ..analysis import data_loss_probability
from ..cluster.slabtable import RackTopology, SlabTable, place_ranges
from ..sim import Simulator
from .report import banner, format_table

__all__ = ["RackScaleConfig", "run_rack_scale", "format_rack_scale"]

_POLICIES = ("random", "dchoices", "hydra")


@dataclass(frozen=True)
class RackScaleConfig:
    """Knobs for one rack-scale sweep (defaults: the full 1000-machine run)."""

    machines: int = 1000
    machines_per_rack: int = 40
    racks_per_pod: int = 8
    k: int = 8
    r: int = 2
    pages_per_range: int = 1024
    choices: int = 20
    failure_fraction: float = 0.02
    failure_trials: int = 200
    engine_events: int = 200_000
    seed: int = 42

    @property
    def n_splits(self) -> int:
        return self.k + self.r

    @property
    def n_ranges(self) -> int:
        """One address range per machine, owned by that machine."""
        return self.machines

    @property
    def logical_pages(self) -> int:
        return self.n_ranges * self.pages_per_range

    @classmethod
    def smoke(cls) -> "RackScaleConfig":
        """The ≤60 s CI configuration: 200 machines in 20 racks (the
        rack count must stay >= k+r or rack-distinct placement is
        impossible by pigeonhole)."""
        return cls(
            machines=200,
            machines_per_rack=10,
            pages_per_range=512,
            failure_trials=100,
            engine_events=50_000,
        )


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------
def _place_policy(config: RackScaleConfig, topology: RackTopology, policy: str):
    table = SlabTable(
        config.machines, capacity=config.n_ranges * config.n_splits
    )
    rng = np.random.default_rng([config.seed, _POLICIES.index(policy)])
    owners = np.arange(config.machines, dtype=np.int32)
    hosts = place_ranges(
        table,
        topology,
        owners,
        config.n_splits,
        config.choices,
        rng,
        policy=policy,
    )
    table.pages[table.mapped_ids()] = config.pages_per_range
    return table, hosts


def _imbalance(load: np.ndarray) -> float:
    mean = load.mean()
    return float(load.max() / mean) if mean > 0 else 1.0


def _rack_distinct_fraction(hosts: np.ndarray, topology: RackTopology) -> float:
    racks = topology.rack[hosts]
    distinct = np.array([len(np.unique(row)) for row in racks])
    return float(np.mean(distinct == hosts.shape[1]))


# ----------------------------------------------------------------------
# data loss
# ----------------------------------------------------------------------
def _empirical_loss(
    hosts: np.ndarray,
    r: int,
    machines: int,
    fraction: float,
    trials: int,
    rng: np.random.Generator,
) -> Dict[str, float]:
    """Correlated machine failures over the placed slab→machine matrix."""
    failed_count = floor(machines * fraction)
    mask = np.zeros(machines, dtype=bool)
    lost_range_fraction = 0.0
    trials_with_loss = 0
    for _ in range(trials):
        mask[:] = False
        mask[rng.choice(machines, size=failed_count, replace=False)] = True
        dead = mask[hosts].sum(axis=1)
        lost = int(np.count_nonzero(dead > r))
        lost_range_fraction += lost / hosts.shape[0]
        trials_with_loss += lost > 0
    return {
        "failed_machines": failed_count,
        "p_range_loss": lost_range_fraction / trials,
        "p_any_loss": trials_with_loss / trials,
    }


def _rack_blast(
    hosts: np.ndarray,
    topology: RackTopology,
    r: int,
    racks_to_fail: int,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """P(a range is lost) when whole racks fail together."""
    lost_range_fraction = 0.0
    for _ in range(trials):
        racks = rng.choice(topology.racks, size=racks_to_fail, replace=False)
        mask = np.isin(topology.rack, racks)
        dead = mask[hosts].sum(axis=1)
        lost_range_fraction += np.count_nonzero(dead > r) / hosts.shape[0]
    return lost_range_fraction / trials


# ----------------------------------------------------------------------
# engine traffic
# ----------------------------------------------------------------------
def _engine_traffic(
    config: RackScaleConfig, topology: RackTopology, hosts: np.ndarray
) -> Dict[str, float]:
    """Drive ``engine_events`` fused completions through the scheduler:
    each client issues a k+r-wide read to one range's hosts, grouped into
    one ``call_later_batch`` per interconnect latency class."""
    sim = Simulator()
    n_events = config.engine_events
    n_ranges = hosts.shape[0]
    nop = int
    think_us = 2.0
    # Per-range completion plan, precomputed: (latency_us, burst width)
    # per latency class actually present — pure topology, no randomness.
    class_latency = topology.class_latency_us
    plans: List[List[tuple]] = []
    for range_id in range(min(n_ranges, 512)):
        owner = range_id % config.machines
        classes = topology.latency_class(owner, hosts[range_id])
        widths = np.bincount(classes, minlength=3)
        plans.append(
            [
                (float(class_latency[c]), int(widths[c]))
                for c in range(3)
                if widths[c]
            ]
        )

    def make_client(client: int):
        step = [client * 1315423911]

        def rearm() -> None:
            if sim._seq >= n_events:
                return
            step[0] += 2654435761
            plan = plans[step[0] % len(plans)]
            slowest = 0.0
            for latency, width in plan:
                sim.call_later_batch(latency, (nop,) * width)
                slowest = max(slowest, latency)
            sim.call_later(slowest + think_us, rearm)

        return rearm

    started = time.perf_counter()
    for client in range(64):
        sim.call_later(think_us + (client & 7) * 0.25, make_client(client))
    sim.run()
    elapsed = time.perf_counter() - started
    return {
        "events": sim._active,
        "sim_now_us": round(sim.now, 6),
        "seconds": round(elapsed, 6),
        "events_per_sec": round(sim._active / elapsed) if elapsed > 0 else 0,
    }


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
def run_rack_scale(config: RackScaleConfig = RackScaleConfig()) -> dict:
    """Run the full sweep; every field except ``engine.seconds`` /
    ``engine.events_per_sec`` and ``wall_seconds`` is deterministic."""
    started = time.perf_counter()
    topology = RackTopology(
        config.machines,
        machines_per_rack=config.machines_per_rack,
        racks_per_pod=config.racks_per_pod,
    )
    placement = {}
    tables = {}
    host_matrices = {}
    for policy in _POLICIES:
        table, hosts = _place_policy(config, topology, policy)
        tables[policy] = table
        host_matrices[policy] = hosts
        placement[policy] = {
            "slab_imbalance": round(_imbalance(table.mapped_load()), 4),
            "page_imbalance": round(_imbalance(table.page_load()), 4),
            "rack_distinct": round(_rack_distinct_fraction(hosts, topology), 4),
        }

    loss_rng = np.random.default_rng([config.seed, 101])
    analytic = data_loss_probability(
        config.k, config.r, config.machines, config.failure_fraction
    )
    data_loss = {
        "analytic_p_range_loss": analytic,
        "empirical": {
            policy: _empirical_loss(
                host_matrices[policy],
                config.r,
                config.machines,
                config.failure_fraction,
                config.failure_trials,
                np.random.default_rng([config.seed, 101, _POLICIES.index(policy)]),
            )
            for policy in _POLICIES
        },
        "rack_blast": {
            policy: {
                str(racks): round(
                    _rack_blast(
                        host_matrices[policy],
                        topology,
                        config.r,
                        racks,
                        config.failure_trials,
                        np.random.default_rng(
                            [config.seed, 202, _POLICIES.index(policy), racks]
                        ),
                    ),
                    6,
                )
                for racks in (1, config.r, config.r + 1)
            }
            for policy in ("dchoices", "hydra")
        },
    }
    del loss_rng

    hydra_table = tables["hydra"]
    fields = hydra_table.field_nbytes()
    memory = {
        "slabs": len(hydra_table),
        "table_bytes": hydra_table.nbytes,
        "topology_bytes": topology.nbytes,
        "bytes_per_machine": round(
            (hydra_table.nbytes + topology.nbytes) / config.machines, 1
        ),
        "fields": fields,
        # The object model's per-slab cost (Slab dataclass + dict slots),
        # measured at ~0.5 KiB; the ratio is what makes 1000 machines fit.
        "object_model_estimate_bytes": len(hydra_table) * 512,
    }

    engine = _engine_traffic(config, topology, host_matrices["hydra"])
    result = {
        "config": {
            "machines": config.machines,
            "racks": topology.racks,
            "pods": topology.pods,
            "k": config.k,
            "r": config.r,
            "ranges": config.n_ranges,
            "pages_per_range": config.pages_per_range,
            "logical_pages": config.logical_pages,
            "page_splits": config.logical_pages * config.n_splits,
            "choices": config.choices,
            "failure_fraction": config.failure_fraction,
            "failure_trials": config.failure_trials,
            "seed": config.seed,
        },
        "placement": placement,
        "data_loss": data_loss,
        "memory": memory,
        "engine": engine,
        "wall_seconds": round(time.perf_counter() - started, 3),
    }
    return result


def format_rack_scale(result: dict) -> str:
    """Render the deterministic report (no wall-clock fields — the bench
    determinism gate diffs this text byte for byte across worker counts)."""
    config = result["config"]
    text = banner(
        f"Rack-scale sweep — {config['machines']} machines, "
        f"{config['racks']} racks, RS({config['k']}+{config['r']}), "
        f"{config['logical_pages']:,} pages"
    )
    text += "\n\nplacement (lower imbalance is better):\n"
    text += format_table(
        ["policy", "slab max/mean", "page max/mean", "rack-distinct"],
        [
            [
                policy,
                f"{row['slab_imbalance']:.4f}",
                f"{row['page_imbalance']:.4f}",
                f"{row['rack_distinct']:.1%}",
            ]
            for policy, row in result["placement"].items()
        ],
    )
    loss = result["data_loss"]
    text += (
        f"\n\ndata loss, {config['failure_fraction']:.0%} correlated machine "
        f"failures ({config['failure_trials']} trials):\n"
    )
    text += format_table(
        ["policy", "P(range loss)", "P(any loss)"],
        [
            [
                policy,
                f"{row['p_range_loss']:.5%}",
                f"{row['p_any_loss']:.1%}",
            ]
            for policy, row in loss["empirical"].items()
        ],
    )
    text += f"\nanalytic hypergeometric P(range loss): {loss['analytic_p_range_loss']:.5%}"
    text += "\n\nrack blast (whole racks fail together, P(range loss)):\n"
    blast_policies = list(loss["rack_blast"])
    rack_counts = list(loss["rack_blast"][blast_policies[0]])
    text += format_table(
        ["racks failed"] + blast_policies,
        [
            [racks]
            + [f"{loss['rack_blast'][p][racks]:.5%}" for p in blast_policies]
            for racks in rack_counts
        ],
    )
    memory = result["memory"]
    text += "\n\nslab-metadata memory (packed arrays):\n"
    text += format_table(
        ["field", "bytes"],
        [[name, f"{nbytes:,}"] for name, nbytes in memory["fields"].items()],
    )
    text += (
        f"\ntotal: {memory['table_bytes']:,} B for {memory['slabs']:,} slabs "
        f"(+{memory['topology_bytes']:,} B topology), "
        f"{memory['bytes_per_machine']:,} B/machine; "
        f"object model would need ~{memory['object_model_estimate_bytes']:,} B"
    )
    engine = result["engine"]
    text += (
        f"\n\nengine traffic: {engine['events']:,} completions over "
        f"3 latency classes, sim clock {engine['sim_now_us']:,} us"
    )
    return text
