"""Seeded histories of the replicated control plane, pinned byte for byte.

A change to how the control plane is built — how the metadata log is
fed, how a commit reports its outcome, how failover rebuilds a page —
must leave every value below unchanged. A value may move only in a
change that fixes a behaviour and says which value it moves and why.

What is pinned:

* the sha256 of ``run_chaos(...).report_json()`` for the three
  control-plane scenarios at seeds 3, 5 and 11;
* the sha256 of every non-empty metadata log after a replicated run that
  places a range, heals a corrupted split, regenerates a crashed and an
  error-limited slab, reclaims a range and fails the leader over;
* the ``failovers`` entries of the write-path crash matrix.
"""

import hashlib
import json

import pytest

from repro.chaos import ChaosConfig, run_chaos
from repro.cluster import CorruptionInjector
from repro.sim import RandomSource

from . import test_rm_replica as replica_tests
from .conftest import drive, make_page

CHAOS_REPORTS = {
    ("rm_crash", 3): "65af91091474",
    ("rm_crash", 5): "5818d988784c",
    # Moved e4510cfe5fb1 -> b4c0b07cd93a when a torn page stopped being
    # resealed from k splits: the one torn page here (sealed 1) mixed both
    # versions, and is now reported lost (lost 1).
    ("rm_crash", 11): "b4c0b07cd93a",
    ("rm_partition", 3): "b621193b94bc",
    ("rm_partition", 5): "2dd8f921f26c",
    ("rm_partition", 11): "72042498a134",
    ("rm_failover", 3): "52ba032fc6d8",
    ("rm_failover", 5): "779ee1a52dd3",
    ("rm_failover", 11): "cd05eb03e149",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@pytest.mark.parametrize(
    "scenario,seed", sorted(CHAOS_REPORTS), ids=lambda v: str(v)
)
def test_chaos_scenario_report_is_pinned(scenario, seed):
    config = ChaosConfig(
        machines=10, pages=16, events=0, horizon_us=2_000_000.0,
        settle_us=4_000_000.0, op_gap_us=10_000.0, burst_ops=20,
        scenario=scenario,
    )
    result = run_chaos(seed, config=config)
    assert result.ok, "\n".join(v.detail for v in result.violations)
    assert _sha(result.report_json()) == CHAOS_REPORTS[scenario, seed]


def test_metadata_logs_are_pinned():
    cluster, deployment = replica_tests.deploy(machines=10)
    sim = cluster.sim
    rm = deployment.manager(0)
    control = deployment.control_plane
    logs = {}
    second = rm.config.pages_per_range  # the first page of range 1
    pages = {pid: make_page(pid) for pid in range(12)}
    pages.update({pid: make_page(pid) for pid in range(second, second + 4)})

    def proc():
        for pid, data in pages.items():
            yield rm.write(pid, data)
        yield sim.timeout(1_000.0)
        # Corrupt one data host behind a congested NIC: detection, heal,
        # error scores, and a regeneration once the score hits the limit.
        victim = cluster.machine(rm.space.get(0).handle(1).machine_id)
        CorruptionInjector(sim, RandomSource(9)).corrupt_machine(victim)
        victim.nic.background_flows = 40
        for pid in range(12):
            assert (yield rm.read(pid)) == pages[pid]
        yield sim.timeout(2_000_000.0)
        victim.nic.background_flows = 0
        # Crash a data host that holds no metadata replica of domain 0.
        crashed = next(
            handle.machine_id
            for handle in rm.space.get(0).slots
            if handle.machine_id not in control.peers_of_domain[0]
        )
        cluster.machine(crashed).fail()
        yield sim.timeout(2_000_000.0)
        reclaimed = yield rm.reclaim_range(1)
        assert sorted(reclaimed) == list(range(second, second + 4))
        yield sim.timeout(100_000.0)
        logs["leader"] = list(control.stores[0].log)  # wiped by the crash
        cluster.machine(0).fail()
        yield sim.timeout(replica_tests.LEASE_US + 1_000_000.0)
        return "ok"

    assert drive(sim, proc()) == "ok"
    assert len(control.failovers) == 1
    logs.update(
        (domain, list(store.log))
        for domain, store in sorted(control.stores.items())
        if store.log
    )
    assert sorted({rec["kind"] for rec in logs["leader"]}) == [
        "error_score", "position_failed", "position_replaced", "range_dropped",
        "range_installed", "write_acked", "write_durable", "write_intent",
    ]
    digests = {key: _sha(json.dumps(log, sort_keys=True)) for key, log in logs.items()}
    assert digests == LOGS


# LOGS[1] moved df2299c36036 -> 70d10d22034a when a replayed range_dropped
# began dropping the range's page versions, as the live reclaim does: the
# successor's snapshot no longer carries the four reclaimed pages.
LOGS = {"leader": "6d4e9d37a05e", 1: "70d10d22034a"}


def test_crash_matrix_failovers_are_pinned():
    matrix = replica_tests.TestWritePathCrashMatrix()
    failovers = {}
    for name, crash_at in sorted(matrix._boundaries().items()):
        _c, _d, control, _times, _outcome, _old, _new = matrix._run(crash_at=crash_at)
        failovers[name] = control.failovers
    assert failovers == CRASH_MATRIX_FAILOVERS


def _failover(at_us, log_records, unsettled, sealed):
    return [{
        "domain": 0, "successor": 1, "term": 2, "at_us": at_us,
        "log_records": log_records, "log_source": 1, "ranges": 1, "pages": 6,
        "interrupted": 0, "unsettled": unsettled, "regens_restarted": 1,
        "sealed": sealed, "lost": 0, "discarded": 0, "seal_failures": 0,
    }]


CRASH_MATRIX_FAILOVERS = {
    "post_client_ack": _failover(110118.064, 21, 1, 1),
    "post_majority_ack": _failover(110117.502, 21, 1, 1),
    "pre_intent_commit": _failover(110107.935, 19, 0, 0),
}
