"""The open-loop request path (``RequestChain``): differential against the
process-per-request oracle, the record-count pin, and failure delivery."""

import itertools

import numpy as np
import pytest

from repro.harness.microbench import run_process
from repro.harness.scenarios import build_pool
from repro.sim import RandomSource, Simulator
from repro.sim import engine
from repro.vmm import PagedMemory
from repro.workloads import (
    OpenLoopWorkload,
    ReplayTrace,
    TraceEpoch,
    TraceReplayWorkload,
    make_arrivals,
)

from .openloop_oracle import OracleOpenLoopWorkload, OracleTraceReplayWorkload

N_PAGES = 128


def _pager(seed, resident):
    cluster, pool = build_pool("hydra", 12, seed, payload_mode="phantom")
    pager = PagedMemory(pool, resident_pages=resident)
    run_process(cluster.sim, pager.preload(range(N_PAGES)), until=1e10)
    return cluster.sim, pool, pager


def _observed(sim, pool, pager, samples, fields):
    return {
        "samples": np.ascontiguousarray(samples, dtype=np.float64).tobytes(),
        "fields": fields,
        "sim_now": sim.now,
        "pager": dict(pager.stats.counts),
        "rm_events": dict(pool.events.counts),
    }


def _open_loop(driver, seed, resident, rate, **options):
    sim, pool, pager = _pager(seed, resident)
    rng = RandomSource(seed, "chain/openloop")
    work = driver(
        pager, rng.child("ops"),
        make_arrivals("poisson", rng.child("arrivals"), rate), N_PAGES,
        **options,
    )
    result = run_process(sim, work.run(2_500.0), until=1e10)
    fields = (result.issued, result.completed, result.completed_in_window,
              result.dropped, result.queue_peak, dict(result.stats.counts))
    return _observed(sim, pool, pager, result.latency_samples, fields)


# ----------------------------------------------------------------------
# differential: production == oracle, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("concurrency", (1, 2, 4))
@pytest.mark.parametrize("resident", (N_PAGES // 2, N_PAGES),
                         ids=("fit0.5", "all-resident"))
def test_open_loop_matches_the_process_per_request_oracle(resident, concurrency):
    grid = itertools.product(
        (0, 1, 2), (20_000.0, 70_000.0, 90_000.0), (None, 16), (0.0, 25.0)
    )
    admitted = 0
    for seed, rate, queue_limit, compute_us in grid:
        options = dict(concurrency=concurrency, queue_limit=queue_limit,
                       compute_us=compute_us)
        ours = _open_loop(OpenLoopWorkload, seed, resident, rate, **options)
        oracle = _open_loop(OracleOpenLoopWorkload, seed, resident, rate, **options)
        assert ours == oracle, (seed, rate, queue_limit, compute_us)
        admitted += ours["fields"][1]
    assert admitted > 1_000  # the grid did real work


@pytest.mark.parametrize("concurrency", (1, 2))
def test_trace_replay_matches_the_process_per_request_oracle(concurrency):
    trace = ReplayTrace(
        name="chain",
        key_space=N_PAGES,
        epochs=[
            TraceEpoch(duration_us=2_000.0, rate_per_sec=30_000.0,
                       size_pages=(1, 2, 4), size_weights=(0.5, 0.3, 0.2)),
            TraceEpoch(duration_us=2_000.0, rate_per_sec=60_000.0,
                       key_offset=40, get_fraction=0.6,
                       size_pages=(2, 3), size_weights=(0.5, 0.5)),
        ],
    )

    def replay(driver, seed):
        sim, pool, pager = _pager(seed, N_PAGES // 2)
        work = driver(pager, RandomSource(seed, "chain/replay"), trace,
                      concurrency=concurrency)
        rows = run_process(sim, work.run(), until=1e10)
        assert rows is work.epoch_results
        fields = (work.epoch_table(), dict(work.stats.counts))
        return _observed(sim, pool, pager, work.samples(), fields)

    for seed in (0, 1, 2):
        ours = replay(TraceReplayWorkload, seed)
        assert ours == replay(OracleTraceReplayWorkload, seed), seed
        assert ours["fields"][1]["completed"] > 50


# ----------------------------------------------------------------------
# mechanism pin: records and processes per request
# ----------------------------------------------------------------------
def test_resident_request_costs_three_records_and_no_process(monkeypatch):
    """Declared with the callback chain: an all-resident run of N requests
    below capacity pushes 3 N + 3 queue records — per request its arrival
    gap, the pager's hit and the compute delay; per run the process start,
    the wait for the window's end and the drain — and builds one Process,
    the run. The process-per-request path pushed 5 N + 3 and built N + 1."""
    sim, _pool, pager = _pager(0, N_PAGES)
    rng = RandomSource(0, "chain/records")
    work = OpenLoopWorkload(
        pager, rng.child("ops"),
        make_arrivals("poisson", rng.child("arrivals"), 20_000.0), N_PAGES,
    )
    built = []
    init = engine.Process.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(engine.Process, "__init__", counting)
    before = sim._active
    process = work.run(10_000.0)
    result = run_process(sim, process, until=1e10)
    assert result.completed == result.issued > 150
    assert pager.stats["faults"] == N_PAGES  # the preload's; none since
    assert sim._active - before == 3 * result.issued + 3
    assert built == [process]


# ----------------------------------------------------------------------
# a failed access ends the run with its exception, then and there
# ----------------------------------------------------------------------
class _Boom(Exception):
    pass


class _FailingMemory:
    """Stands in for a PagedMemory: every access takes 5 us, the
    ``fail_at``-th one fails — as a failed event or by raising."""

    def __init__(self, sim, fail_at, raises):
        self.sim = sim
        self.fail_at = fail_at
        self.raises = raises
        self.calls = 0
        self.failed_at_us = None

    def access(self, page_id, write=False, data=None):
        self.calls += 1
        if self.calls != self.fail_at:
            return self.sim.timeout(5.0)
        if self.raises:
            self.failed_at_us = self.sim.now
            raise _Boom(page_id)
        event = self.sim.event()

        def fail():
            self.failed_at_us = self.sim.now
            event.fail(_Boom(page_id))

        self.sim.call_later(5.0, fail)
        return event


def _failing_open_loop(memory):
    rng = RandomSource(3, "chain/failure")
    work = OpenLoopWorkload(
        memory, rng.child("ops"),
        make_arrivals("poisson", rng.child("arrivals"), 150_000.0), 64,
        concurrency=1,
    )
    return work, work.run(2_000.0)


def _failing_replay(memory):
    trace = ReplayTrace(name="failing", key_space=64, epochs=[
        TraceEpoch(duration_us=2_000.0, rate_per_sec=150_000.0,
                   size_pages=(1, 2), size_weights=(0.5, 0.5)),
    ])
    work = TraceReplayWorkload(memory, RandomSource(3, "chain/failure"), trace,
                               concurrency=1)
    return work, work.run()


@pytest.mark.parametrize("raises", (False, True), ids=("event-fails", "raises"))
@pytest.mark.parametrize("fail_at", (1, 20), ids=("first", "queued"))
@pytest.mark.parametrize("start", (_failing_open_loop, _failing_replay),
                         ids=("openloop", "replay"))
def test_failed_access_fails_the_run_and_frees_its_slot(start, fail_at, raises):
    sim = Simulator()
    memory = _FailingMemory(sim, fail_at, raises)
    work, process = start(memory)
    chain = work._chain
    admitted = []
    submit = chain.submit
    chain.submit = lambda *request: (admitted.append(request), submit(*request))
    sim.run_until_triggered(process)
    # The run ends with the request's own exception, when it happened —
    # long before the arrivals would have stopped.
    assert isinstance(process.exception, _Boom)
    with pytest.raises(_Boom):
        process.value
    assert sim.now == memory.failed_at_us < 1_000.0
    if fail_at > 1:
        assert chain.waiting  # overloaded: requests queue behind one slot
    # The others are not stranded: the slot is passed on until the queue
    # is empty, and only the failed request goes unrecorded.
    sim.run()
    assert chain.in_use == 0 and not chain.waiting
    assert work.stats["completed"] == len(admitted) - 1
    assert len(work.latency.samples) == len(admitted) - 1


def test_failure_during_the_drain_raises_too():
    sim = Simulator()
    memory = _FailingMemory(sim, fail_at=10**9, raises=False)
    work, process = _failing_open_loop(memory)
    sim.run(until=2_000.0)  # arrivals are over, the queue is not
    assert process.is_alive and work._chain.waiting
    memory.fail_at = memory.calls + 3
    sim.run_until_triggered(process)
    assert isinstance(process.exception, _Boom)
    assert sim.now == memory.failed_at_us > 2_000.0
    sim.run()
    assert work._chain.in_use == 0
    assert work.stats["completed"] == work.stats["issued"] - 1
