"""The write as stage callbacks (``ResilienceManager._write``): differential
against the process-per-write oracle (``tests/write_oracle.py``), the
mechanism pins (no reference cycle per write, no swallowed stage
exception) and the regression test for a failed write that stranded its
page's readers."""

import gc

import pytest

from repro.cluster import Cluster
from repro.core import HydraConfig, HydraDeployment
from repro.net import NetworkConfig
from repro.obs.tracing import PhaseClock

from .conftest import make_page
from .test_read_chain import _Recorder, _settled
from .write_oracle import as_oracle

LEASE_US = 60_000.0


def _deploy(payload_mode, seed=4, replicas=0):
    cluster = Cluster(
        machines=10,
        memory_per_machine=1 << 26,
        network=NetworkConfig(straggler_prob=0.05),
        seed=seed,
    )
    config = HydraConfig(
        k=4, r=2, delta=1, slab_size_bytes=1 << 20,
        payload_mode=payload_mode, control_period_us=50_000,
        metadata_replicas=replicas, metadata_lease_timeout_us=LEASE_US,
    )
    deployment = HydraDeployment(cluster, config, seed=seed)
    return cluster, deployment, deployment.manager(0)


def _data(rm, page, salt=0):
    return make_page(page + salt) if rm.config.payload_mode == "real" else None


def _write(rm, page, out, salt=0):
    """Yield one write; log how it ended and when."""
    event = rm.write(page, _data(rm, page, salt))
    try:
        yield event
    except Exception:
        pass
    out.append((rm.sim.now, "write", page, _settled(event)))


def _read(rm, page, out):
    event = rm.read(page)
    try:
        yield event
    except Exception:
        pass
    out.append((rm.sim.now, "read", page, _settled(event)))


def _host(rm, position, page=0):
    """The machine holding ``position`` of ``page``'s range."""
    return rm.space.get(rm.space.locate(page)[0]).handle(position).machine_id


# ----------------------------------------------------------------------
# scenarios: each drives one RM and logs what its writes (and the reads
# that check them) returned
# ----------------------------------------------------------------------
def _clean(cluster, deployment, rm, out):
    for page in range(6):
        yield from _write(rm, page, out)
    yield from _write(rm, 0, out, salt=50)  # an overwrite
    far = 2 * rm.config.pages_per_range  # a burst into one unplaced range
    burst = [rm.write(page, _data(rm, page)) for page in range(far, far + 4)]
    burst += [rm.write(page, _data(rm, page)) for page in range(6, 10)]
    yield cluster.sim.timeout(2_000)
    out.extend(_settled(event) for event in burst)
    for page in [*range(10), *range(far, far + 4)]:
        yield from _read(rm, page, out)


def _degraded(cluster, deployment, rm, out):
    yield from _write(rm, 0, out)
    cluster.machine(_host(rm, 1)).fail()  # a data slab down
    yield cluster.sim.timeout(cluster.fabric.config.failure_detect_us + 0.5)
    burst = [rm.write(page, _data(rm, page)) for page in range(1, 5)]  # before regeneration
    yield cluster.sim.timeout(1_000)
    out.extend(_settled(event) for event in burst)
    for page in range(5):
        yield from _read(rm, page, out)
    yield cluster.sim.timeout(2_000_000)  # regenerated, catch-up applied
    for page in range(5, 8):
        yield from _write(rm, page, out)
    for page in range(8):
        yield from _read(rm, page, out)


def _retries(cluster, deployment, rm, out):
    for page in range(4):
        yield from _write(rm, page, out)
    # Two data hosts cut off while the splits are in flight: too few acks,
    # a probe, a backoff and another try.
    hosts = [_host(rm, position) for position in (0, 1)]
    write = rm.write(1, _data(rm, 1, salt=70))
    yield cluster.sim.timeout(rm._issue_us[rm.config.k] + 0.2)
    for host in hosts:
        cluster.fabric.partition(rm.machine_id, host)
    yield cluster.sim.timeout(1_000)
    out.append(_settled(write))
    for host in hosts:
        cluster.fabric.heal(rm.machine_id, host)
    yield cluster.sim.timeout(2_000_000)
    for page in range(4, 8):
        yield from _write(rm, page, out)
    for page in range(8):
        yield from _read(rm, page, out)
    # Three positions unreachable: fewer than k at every issue, then the
    # write gives up.
    for position in (2, 3, 4):
        cluster.fabric.partition(rm.machine_id, _host(rm, position))
    yield from _write(rm, 2, out, salt=80)


def _placement(cluster, deployment, rm, out):
    # Five of nine peers down: fewer candidates than the k + r slabs of a
    # range, so placement fails and backs off until they come back.
    down = [cluster.machine(m) for m in range(5, 10)]
    for machine in down:
        machine.fail()
    first = rm.write(0, _data(rm, 0))
    second = rm.write(1, _data(rm, 1))  # waits on the placement gate
    yield cluster.sim.timeout(1_500)
    for machine in down:
        machine.recover()
    yield cluster.sim.timeout(20_000)
    out.extend(_settled(event) for event in (first, second))
    for page in (0, 1):
        yield from _read(rm, page, out)
    for machine in down:  # and never back: the write gives up
        machine.fail()
    yield from _write(rm, 3 * rm.config.pages_per_range, out)


def _fenced(cluster, deployment, rm, out):
    for page in range(3):
        yield from _write(rm, page, out)
    write = rm.write(0, _data(rm, 0, salt=40))
    yield cluster.sim.timeout(rm._issue_us[rm.config.k] + 0.2)  # splits in flight
    rm.fence("mid-write")
    yield cluster.sim.timeout(1_000)
    out.append(_settled(write))
    yield from _write(rm, 1, out)
    yield from _read(rm, 2, out)


def _fenced_in_backoff(cluster, deployment, rm, out):
    for page in range(3):
        yield from _write(rm, page, out)
    for position in (1, 2, 3):
        cluster.fabric.partition(rm.machine_id, _host(rm, position))
    write = rm.write(0, _data(rm, 0, salt=40))
    yield cluster.sim.timeout(250)
    rm.fence("in backoff")
    yield cluster.sim.timeout(1_000)
    out.append(_settled(write))


def _replicated(cluster, deployment, rm, out, lose_at=None):
    """Intent and ack commits; with ``lose_at``, the RM is cut off from its
    metadata peers as it appends that record for page 7."""
    store = deployment.control_plane.stores[rm.machine_id]
    if lose_at is not None:
        append = store.append

        def cut_then_append(kind, **fields):
            if kind == lose_at and fields.get("page_id") == 7:
                for peer in deployment.control_plane.peers_of_domain[rm.machine_id]:
                    cluster.fabric.partition(rm.machine_id, peer)
            append(kind, **fields)

        store.append = cut_then_append
    for page in range(8):
        yield from _write(rm, page, out)
    for page in range(8):
        yield from _read(rm, page, out)
    out.append((store.commits, store.commit_failures, store.fenced))


def _dropped_parity(cluster, deployment, rm, out):
    rm.debug_drop_parity = True
    for page in range(4):
        yield from _write(rm, page, out)
    yield cluster.sim.timeout(1_000)
    for page in range(4):
        yield from _read(rm, page, out)


SCENARIOS = {
    "clean": (_clean, 0),
    "degraded": (_degraded, 0),
    "retries": (_retries, 0),
    "placement": (_placement, 0),
    "fenced": (_fenced, 0),
    "fenced_in_backoff": (_fenced_in_backoff, 0),
    "replicated": (_replicated, 2),
    "intent_quorum_lost": (lambda *a: _replicated(*a, lose_at="write_intent"), 2),
    "ack_quorum_lost": (lambda *a: _replicated(*a, lose_at="write_acked"), 2),
    "dropped_parity": (_dropped_parity, 0),
}


def _run(scenario, payload_mode, oracle):
    drive, replicas = SCENARIOS[scenario]
    cluster, deployment, rm = _deploy(payload_mode, replicas=replicas)
    placings = []
    if oracle:
        as_oracle(rm)
    else:  # the chain places a new range in a process of its own: one more record
        place = rm._place
        rm._place = lambda range_id: placings.append(range_id) or place(range_id)
    rm.tracer.set_sampling(1)
    recorder = _Recorder(cluster.sim)
    rm.add_observer(recorder)
    out = []
    scenario_run = cluster.sim.process(drive(cluster, deployment, rm, out))
    cluster.sim.run_until_triggered(scenario_run)
    assert scenario_run.ok, scenario_run.exception
    spans = [
        (s.span_id, s.parent_id, s.name, s.cat, s.machine_id, s.start_us, s.end_us,
         dict(s.tags))
        for s in rm.tracer.spans
    ]
    return {
        "out": out,
        "now": cluster.sim.now,
        "records": cluster.sim._active - len(placings),
        "events": dict(rm.events.counts),
        "versions": dict(rm._versions),
        "inflight": sorted(rm._inflight_writes),
        "catchup": {key: sorted(pages) for key, pages in rm._catchup.items()},
        # A copy: a regeneration still waiting when the run ends reports
        # on_regen_end from its `finally` whenever its generator is freed.
        "observed": list(recorder.calls),
        "spans": spans,
    }


# What each scenario must reach (real payloads), so the comparison covers
# every stage and branch of the write.
REACHES = {
    "clean": {"writes", "ranges_placed"},
    "degraded": {"degraded_writes", "catchup_writes", "regenerations"},
    "retries": {"write_retries", "write_failures", "regenerations"},
    "placement": {"placement_retries", "write_failures", "ranges_placed"},
    "fenced": {"fenced", "fenced_writes", "fenced_reads"},
    "fenced_in_backoff": {"fenced", "write_retries", "write_failures"},
    "replicated": {"writes"},
    "intent_quorum_lost": {"meta_commit_failures", "fenced_reads"},
    "ack_quorum_lost": {"meta_commit_failures", "fenced_reads"},
    "dropped_parity": {"writes"},
}


@pytest.mark.parametrize("payload_mode", ["real", "phantom"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_write_chain_matches_the_process_per_write_oracle(scenario, payload_mode, ec_backend):
    ours = _run(scenario, payload_mode, oracle=False)
    assert ours == _run(scenario, payload_mode, oracle=True)
    if payload_mode == "real":
        reached = {name for name, count in ours["events"].items() if count}
        assert REACHES[scenario] <= reached, REACHES[scenario] - reached
    assert any(span[2] == "rm.write" for span in ours["spans"])


# ----------------------------------------------------------------------
# mechanism pins
# ----------------------------------------------------------------------
def test_a_write_pass_leaves_no_reference_cycle():
    """The attempt loop names itself through its stages; 4,096 settled
    writes must still be freed by reference counting, or each leaves its
    closures and splits to the cycle collector."""
    cluster, _deployment, rm = _deploy("real")
    sim = cluster.sim
    pages = range(64)

    def loop(count):
        for i in range(count):
            yield rm.write(pages[i % len(pages)], make_page(i))

    sim.run_until_triggered(sim.process(loop(len(pages))))
    gc.collect()
    gc.disable()
    try:
        sim.run_until_triggered(sim.process(loop(4_096)))
        sim.run(until=sim.now + 1_000)  # the last parities land
        assert not rm._inflight_writes
        assert gc.collect() == 0
    finally:
        gc.enable()


STAGES = ["place", "issue", "encode", "wait_k", "completion", "retry_backoff"]


@pytest.mark.parametrize("stage", STAGES)
def test_a_raising_stage_fails_the_write(stage, monkeypatch):
    """Each stage is entered by the engine (a record, a gather, a commit):
    its exception fails the write's event — and releases the page's
    readers — instead of escaping ``Simulator.run`` or vanishing."""
    cluster, _deployment, rm = _deploy("real")
    sim = cluster.sim
    rm.tracer.set_sampling(1)
    sim.run_until_triggered(rm.write(0, make_page(0)))
    if stage == "encode":  # a degraded write encodes first
        rm.space.get(0).mark_failed(1)
    if stage == "retry_backoff":  # fewer than k positions: back off
        for position in (1, 2, 3):
            rm.space.get(0).mark_failed(position)
    mark = PhaseClock.mark

    def raising(self, name, **tags):
        if name == stage:
            raise RuntimeError(f"{stage} exploded")
        return mark(self, name, **tags)

    monkeypatch.setattr(PhaseClock, "mark", raising)
    write = rm.write(0, make_page(1))
    reader = rm.read(0)
    sim.run(until=sim.now + 5_000)
    assert write.triggered and not write.ok
    assert str(write.exception) == f"{stage} exploded"
    assert 0 not in rm._inflight_writes and reader.triggered
    (span,) = [s for s in rm.tracer.spans if s.name == "rm.write"][-1:]
    assert span.tags["error"] == "RuntimeError"


def test_a_settled_writes_waiter_raises_out_of_the_run():
    cluster, _deployment, rm = _deploy("real")
    write = rm.write(0, make_page(0))

    def waiter(_event):
        raise RuntimeError("waiter exploded")

    write.callbacks.append(waiter)
    with pytest.raises(RuntimeError, match="waiter exploded"):
        cluster.sim.run(until=1_000)
    assert write.ok


def test_a_failing_placement_fails_the_write_and_opens_the_gate(monkeypatch):
    cluster, _deployment, rm = _deploy("real")

    def broken(range_id):
        raise RuntimeError("placement exploded")
        yield

    monkeypatch.setattr(rm.placer, "place_range", broken)
    write = rm.write(0, make_page(0))
    cluster.sim.run(until=1_000)
    assert str(write.exception) == "placement exploded"
    assert not rm._placements_pending and not rm._inflight_writes


# ----------------------------------------------------------------------
# a failed write releases its page's readers
# ----------------------------------------------------------------------
def test_a_failed_degraded_write_leaves_no_reader_behind(monkeypatch):
    """A degraded write whose encode raises fails — and must release the
    page it gated, or every later read of the page waits forever."""
    cluster, _deployment, rm = _deploy("real")
    sim = cluster.sim
    sim.run_until_triggered(rm.write(0, make_page(0)))
    sim.run(until=sim.now + 1_000)
    rm.space.get(0).mark_failed(1)  # data position 1 down: encode first
    encode_page = rm.codec.code.encode_page

    def broken(_data_splits):
        raise RuntimeError("encode exploded")

    monkeypatch.setattr(rm.codec.code, "encode_page", broken)
    write = rm.write(0, make_page(1))
    sim.run(until=sim.now + 1_000)
    assert isinstance(write.exception, RuntimeError)
    monkeypatch.setattr(rm.codec.code, "encode_page", encode_page)
    read = rm.read(0)
    sim.run(until=sim.now + 100_000)
    assert read.triggered and read.value == make_page(0)
    assert 0 not in rm._inflight_writes
