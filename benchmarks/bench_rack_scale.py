"""Rack-scale sweep: §5's load-balance and data-loss analyses at 1000
machines on the packed-array data plane (docs/SCALING.md).

The report is a pure function of the config seed, so this shard is
byte-identical under any ``repro bench -j N`` worker count. CI's
bench-smoke job sets ``REPRO_RACK_SCALE=smoke`` to run the 200-machine
configuration instead (same assertions, ≤60 s budget).
"""

import os

from conftest import write_report

from repro.harness.rack_scale import (
    RackScaleConfig,
    format_rack_scale,
    run_rack_scale,
)


def _config() -> RackScaleConfig:
    if os.environ.get("REPRO_RACK_SCALE") == "smoke":
        return RackScaleConfig.smoke()
    return RackScaleConfig()


def test_rack_scale_sweep(benchmark):
    config = _config()
    result = benchmark.pedantic(lambda: run_rack_scale(config), rounds=1, iterations=1)

    write_report("rack_scale", format_rack_scale(result))

    assert result["config"]["machines"] == config.machines
    assert result["config"]["logical_pages"] == config.logical_pages

    # Placement: batch placement must beat uniform random on slab
    # imbalance and achieve fully rack-distinct ranges (racks >= k+r).
    placement = result["placement"]
    assert placement["hydra"]["slab_imbalance"] < placement["random"]["slab_imbalance"]
    assert placement["hydra"]["rack_distinct"] == 1.0
    assert placement["dchoices"]["rack_distinct"] < 1.0

    # Data loss: the empirical campaign over the placed matrix tracks the
    # exact hypergeometric value (machine failures are rack-oblivious, so
    # every policy should land near it).
    loss = result["data_loss"]
    analytic = loss["analytic_p_range_loss"]
    for policy, row in loss["empirical"].items():
        assert abs(row["p_range_loss"] - analytic) < max(3e-3, 3 * analytic), policy

    # Rack blast: rack-distinct placement loses nothing while failed
    # racks <= r; rack-oblivious placement already loses ranges at 1.
    blast = loss["rack_blast"]
    assert blast["hydra"][str(config.r)] == 0.0
    assert blast["hydra"]["1"] == 0.0
    assert blast["dchoices"]["1"] > 0.0
    assert blast["hydra"][str(config.r + 1)] > 0.0  # r+1 racks can exceed parity

    # Memory model: packed metadata stays under 1 KiB per machine and an
    # order of magnitude below the object model.
    memory = result["memory"]
    assert memory["table_bytes"] + memory["topology_bytes"] < config.machines * 1024
    assert memory["table_bytes"] * 10 <= memory["object_model_estimate_bytes"]

    # Engine traffic: the scheduler carried the completion storm.
    engine = result["engine"]
    assert engine["events"] >= config.engine_events
    assert engine["sim_now_us"] > 0

    benchmark.extra_info["machines"] = config.machines
    benchmark.extra_info["logical_pages"] = config.logical_pages
    benchmark.extra_info["hydra_imbalance"] = placement["hydra"]["slab_imbalance"]
    benchmark.extra_info["engine_events_per_sec"] = engine["events_per_sec"]
    benchmark.extra_info["wall_seconds"] = result["wall_seconds"]
