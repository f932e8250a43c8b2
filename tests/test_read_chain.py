"""The late-binding read as stage callbacks (``ResilienceManager._read``):
differential against the process-per-read oracle (``tests/read_oracle.py``),
the mechanism pins (no process, timeout or extra record per read) and the
position sampler against ``random.Random.sample``."""

import gc
import random
import sys

import pytest

from repro.cluster import Cluster, CorruptionInjector
from repro.core import HydraConfig, HydraDeployment, RemoteMemoryUnavailable
from repro.core.resilience_manager import _sample
from repro.harness.builders import build_hydra_cluster
from repro.net import NetworkConfig
from repro.sim import RandomSource, Timeout, engine

from .conftest import drive, make_page
from .read_oracle import as_oracle


def _deploy(payload_mode, seed=4):
    cluster = Cluster(
        machines=10,
        memory_per_machine=1 << 26,
        network=NetworkConfig(straggler_prob=0.05),
        seed=seed,
    )
    config = HydraConfig(
        k=4, r=2, delta=1, slab_size_bytes=1 << 20,
        payload_mode=payload_mode, control_period_us=50_000,
    )
    return cluster, HydraDeployment(cluster, config, seed=seed).manager(0)


class _Recorder:
    """An RM observer that logs every hook with plain arguments."""

    def __init__(self, sim):
        self.sim = sim
        self.calls = []

    def __getattr__(self, method):
        if not method.startswith("on_"):
            raise AttributeError(method)

        def hook(*args):
            plain = tuple(
                a if a is None or isinstance(a, (int, float, str, bytes))
                else getattr(a, "range_id", type(a).__name__)
                for a in args
            )
            self.calls.append((self.sim.now, method, plain))

        return hook


def _settled(event):
    if not event.triggered:
        return ("pending",)
    if event.ok:
        return ("ok", event.value)
    return (type(event.exception).__name__, str(event.exception))


def _read(rm, page, out):
    """Yield one read; log its value or exception and when it ended."""
    event = rm.read(page)
    try:
        yield event
    except Exception:
        pass
    out.append((rm.sim.now, page, _settled(event)))


def _data(rm, page):
    return make_page(page) if rm.config.payload_mode == "real" else None


def _written(cluster, rm, pages):
    for page in pages:
        yield rm.write(page, _data(rm, page))
    yield cluster.sim.timeout(1_000)


# ----------------------------------------------------------------------
# scenarios: each drives one RM and logs what its reads returned
# ----------------------------------------------------------------------
def _healthy(cluster, rm, out):
    yield from _written(cluster, rm, range(12))
    for page in range(12):  # systematic and decoded, by the straggler draws
        yield from _read(rm, page, out)
    burst = [rm.read(page) for page in range(12)]
    yield cluster.sim.timeout(2_000)
    out.extend(_settled(event) for event in burst)
    yield from _read(rm, 999, out)  # never written


def _ordered(cluster, rm, out):
    yield from _written(cluster, rm, [0])
    write = rm.write(0, _data(rm, 100))  # not awaited: the read orders behind it
    yield from _read(rm, 0, out)
    yield write
    yield rm.write(1, _data(rm, 1))
    yield from _read(rm, 1, out)  # at the ack instant: behind the parities


def _fenced(cluster, rm, out):
    yield from _written(cluster, rm, [0, 1])
    yield from _read(rm, 0, out)
    yield rm.write(0, _data(rm, 2))
    released = rm.read(0)  # waits on the parities the fence drops
    yield cluster.sim.timeout(0.0)
    rm.fence("test")
    yield from _read(rm, 1, out)
    out.append(_settled(released))


def _crash_mid_read(cluster, rm, out):
    yield from _written(cluster, rm, range(8))
    address_range = rm.space.get(0)
    reads = [rm.read(page) for page in range(6)]
    yield cluster.sim.timeout(0.5)
    for position in (0, 4):
        cluster.machine(address_range.handle(position).machine_id).fail()
    yield cluster.sim.timeout(2_000)
    out.extend(_settled(event) for event in reads)
    for page in range(8):  # after the disconnects: k left, no extras
        yield from _read(rm, page, out)


def _too_few_reachable(cluster, rm, out):
    yield from _written(cluster, rm, range(4))
    address_range = rm.space.get(0)
    for position in (0, 1, 5):
        cluster.machine(address_range.handle(position).machine_id).fail()
    reads = [rm.read(page) for page in range(4)]  # before the disconnects
    yield cluster.sim.timeout(2_000)
    out.extend(_settled(event) for event in reads)
    yield from _read(rm, 0, out)  # after them


def _corrupted(cluster, rm, out, positions=(1,)):
    pages = range(16)
    yield from _written(cluster, rm, pages)
    injector = CorruptionInjector(cluster.sim, RandomSource(9))
    for position in positions:
        injector.corrupt_machine(
            cluster.machine(rm.space.get(0).handle(position).machine_id), fraction=1.0
        )
    # Detect, correct and heal the first pages, read them again while
    # their host is suspected (verified or corrected inline), then the rest.
    for page in [*range(6), *range(6), *pages]:
        yield from _read(rm, page, out)
    yield cluster.sim.timeout(10_000)
    yield cluster.sim.timeout(2_000_000)  # the error limit's regeneration
    for page in pages:
        yield from _read(rm, page, out)


def _uncorrectable(cluster, rm, out):
    yield from _corrupted(cluster, rm, out, positions=(1, 4))


def _reclaim_race(cluster, rm, out):
    far = rm.config.pages_per_range
    yield from _written(cluster, rm, [0, 1, 2, 3, far])
    reclaim = rm.reclaim_range(0)
    reads = [rm.read(page) for page in (0, 3, far)]
    yield cluster.sim.timeout(1.0)
    reads += [rm.read(page) for page in (1, 2)]
    pages = yield reclaim
    out.append(sorted(pages.items()))
    out.extend(_settled(event) for event in reads)
    yield from _read(rm, 0, out)


SCENARIOS = {
    "healthy": _healthy,
    "ordered": _ordered,
    "fenced": _fenced,
    "crash_mid_read": _crash_mid_read,
    "too_few_reachable": _too_few_reachable,
    "corrupted": _corrupted,
    "uncorrectable": _uncorrectable,
    "reclaim_race": _reclaim_race,
}


def _run(scenario, payload_mode, oracle):
    cluster, rm = _deploy(payload_mode)
    if oracle:
        as_oracle(rm)
    rm.tracer.set_sampling(1)
    recorder = _Recorder(cluster.sim)
    rm.add_observer(recorder)
    out = []
    driver = cluster.sim.process(SCENARIOS[scenario](cluster, rm, out))
    cluster.sim.run_until_triggered(driver)
    assert driver.ok, driver.exception
    spans = [
        (s.span_id, s.parent_id, s.name, s.cat, s.machine_id, s.start_us, s.end_us,
         dict(s.tags))
        for s in rm.tracer.spans
    ]
    return {
        "out": out,
        "now": cluster.sim.now,
        "records": cluster.sim._active,
        "events": dict(rm.events.counts),
        "error_scores": dict(rm.error_scores),
        "observed": recorder.calls,
        "spans": spans,
    }


# What each scenario must reach (real payloads), so the comparison covers
# every stage and branch of the read.
REACHES = {
    "healthy": {"decoded_reads"},
    "ordered": set(),
    "fenced": {"fenced_reads"},
    "crash_mid_read": {"escalation_reads"},
    "too_few_reachable": {"read_failures", "escalation_reads"},
    "corrupted": {"corruption_detected", "corrected_reads", "healed_splits",
                  "suspicious_reads", "verified_reads", "regen_for_errors"},
    "uncorrectable": {"uncorrectable_detections", "suspicious_reads"},
    "reclaim_race": {"ranges_reclaimed"},
}


@pytest.mark.parametrize("payload_mode", ["real", "phantom"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_read_chain_matches_the_process_per_read_oracle(scenario, payload_mode, ec_backend):
    ours = _run(scenario, payload_mode, oracle=False)
    assert ours == _run(scenario, payload_mode, oracle=True)
    if payload_mode == "real":
        reached = {name for name, count in ours["events"].items() if count}
        assert REACHES[scenario] <= reached, REACHES[scenario] - reached
    assert any(span[2] == "rm.read" for span in ours["spans"])


# ----------------------------------------------------------------------
# mechanism pins
# ----------------------------------------------------------------------
def test_healthy_reads_make_no_process_or_timeout(monkeypatch):
    """A closed loop of N healthy reads builds one ``Process`` (the
    driver's) and no ``Timeout`` in the RM; it pushes exactly the queue
    records the process-per-read oracle pushes, which built N + 1
    processes and three or four timeouts per read."""
    made = {}
    for oracle in (False, True):
        cluster, rm = _deploy("real")
        sim = cluster.sim
        run = sim.process(_written(cluster, rm, range(32)))
        sim.run_until_triggered(run)
        if oracle:
            as_oracle(rm)
        processes, timeouts = [], []
        process_init, timeout_init = engine.Process.__init__, engine.Timeout.__init__

        def counting_process(self, sim_, generator, name=""):
            processes.append(name)
            process_init(self, sim_, generator, name)

        def counting_timeout(self, *args, **kwargs):
            timeouts.append(sys._getframe(1).f_code.co_filename)
            timeout_init(self, *args, **kwargs)

        monkeypatch.setattr(engine.Process, "__init__", counting_process)
        monkeypatch.setattr(engine.Timeout, "__init__", counting_timeout)

        def loop():
            for page in range(32):
                assert (yield rm.read(page)) == make_page(page)

        before = sim._active
        driver = sim.process(loop())
        sim.run_until_triggered(driver)
        assert driver.ok
        monkeypatch.undo()
        made[oracle] = (
            sim._active - before,
            sum(name.startswith("hydra-") for name in processes),
            sum(name.endswith(("resilience_manager.py", "read_oracle.py")) for name in timeouts),
            rm.events["decoded_reads"],
        )
    records, processes, timeouts, decoded = made[False]
    assert (processes, timeouts) == (0, 0)
    assert made[True][:3] == (records, 32, 2 * 32 + decoded)
    assert 0 < decoded < 32


def test_a_finished_read_leaves_no_reference_cycle():
    """Two stages name themselves to wait again; a healthy read must still
    be freed by reference counting, as the process read was, or each one
    leaves its page bytes and splits to the cycle collector."""
    cluster, rm = _deploy("real")
    sim = cluster.sim
    sim.run_until_triggered(sim.process(_written(cluster, rm, range(16))))

    def loop():
        for page in range(16):
            yield rm.read(page)

    gc.collect()
    gc.disable()
    try:
        sim.run_until_triggered(sim.process(loop()))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("seed", range(40))
def test_sampler_is_random_sample(seed):
    """Every population an RM can pass (a subset of its k + r positions)
    and every count up to its size: the same positions as
    ``random.Random.sample`` and the same generator state after it; past
    the pool branch's 21 the library is called."""
    shapes = random.Random(seed)
    for n in range(1, 26):
        for count in range(n + 1):
            population = sorted(shapes.sample(range(n + shapes.randrange(4)), n))
            ours, theirs = RandomSource(seed, f"{n}/{count}"), RandomSource(seed, f"{n}/{count}")
            assert _sample(ours, list(population), count) == theirs._rng.sample(
                population, count
            )
            assert ours._rng.getstate() == theirs._rng.getstate()


# ----------------------------------------------------------------------
# a read released by a fence is refused, not decoded from a torn codeword
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(1, 9))
def test_read_released_by_a_fence_is_refused(seed):
    """A read ordered behind v2's parities, then the fence: the fence
    drops the parity stage and releases the read, which would decode v2's
    data splits under v1's parities — bytes of neither version — and run
    detection on a fenced RM. It is refused as a read after the fence is."""
    hydra = build_hydra_cluster(machines=12, k=8, r=2, delta=1, seed=seed)
    sim, rm = hydra.sim, hydra.remote_memory(0)

    def proc():
        yield rm.write(7, make_page(1))
        yield rm.write(7, make_page(2))
        read = rm.read(7)
        yield Timeout(sim, 0.0)
        assert not rm._inflight_writes[7].triggered  # the read waits on v2's parities
        rm.fence("test")
        try:
            return (yield read)
        except RemoteMemoryUnavailable as exc:
            return exc

    result = drive(sim, proc())
    assert isinstance(result, RemoteMemoryUnavailable), (
        "neither version" if result not in (make_page(1), make_page(2)) else "a version"
    )
    assert "fenced" in str(result)
    sim.run(until=sim.now + 1_000)
    assert rm.events["fenced_reads"] == 1
    assert rm.events["corruption_detected"] == rm.events["uncorrectable_detections"] == 0
