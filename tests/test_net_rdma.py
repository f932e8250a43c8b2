"""RDMA fabric tests: verbs, ordering, congestion, failures, partitions."""

import pytest

from repro.cluster import Cluster
from repro.net import (
    NetworkConfig,
    QueuePair,
    RDMADisconnect,
    RemoteAccessError,
)
from repro.obs import Tracer
from repro.sim import RandomSource

from .conftest import drive


def quiet_config(**overrides):
    """A deterministic network: no jitter, no stragglers."""
    defaults = dict(jitter_sigma=0.0, straggler_prob=0.0)
    defaults.update(overrides)
    return NetworkConfig(**defaults)


@pytest.fixture
def cluster():
    return Cluster(machines=4, network=quiet_config(), seed=1)


def post_one(qp, size, sink, token, fn, args=()):
    """A fan-out of one: the shape every single poster gives ``_post``."""
    QueuePair._post(qp.fabric, size, sink, ((qp, token, fn, args),))


class TestVerbs:
    def test_write_then_read(self, cluster):
        sim = cluster.sim
        remote = cluster.machine(1)
        slab = remote.allocate_slab(1 << 20)
        slab.map_to(owner_id=0, range_id=0, split_index=0)
        qp = cluster.fabric.qp(0, 1)

        def proc():
            yield qp.post_write(512, apply=lambda: remote.write_split(slab.slab_id, 7, b"x"))
            value = yield qp.post_read(512, fetch=lambda: remote.read_split(slab.slab_id, 7))
            return value

        assert drive(sim, proc()) == b"x"

    def test_latency_scales_with_size(self, cluster):
        sim = cluster.sim
        qp = cluster.fabric.qp(0, 1)

        def timed(size):
            start = sim.now
            yield qp.post_read(size, fetch=lambda: None)
            return sim.now - start

        small = drive(sim, timed(512))
        large = drive(sim, timed(1 << 20))
        assert large > small
        # 512 B at 56 Gbps ~ base latency + ~0.07 us.
        assert small == pytest.approx(
            cluster.fabric.config.base_latency_us + 512 / cluster.fabric.config.bytes_per_us
        )

    def test_per_qp_ordering_read_after_write(self, cluster):
        """A read posted after a write on the same QP never sees stale
        data, even though its raw latency would complete it earlier."""
        sim = cluster.sim
        remote = cluster.machine(1)
        slab = remote.allocate_slab(1 << 20)
        slab.map_to(0, 0, 0)
        qp = cluster.fabric.qp(0, 1)

        def proc():
            # Big write (slow), then small read (fast): order must hold.
            qp.post_write(
                1 << 20, apply=lambda: remote.write_split(slab.slab_id, 0, "new")
            )
            value = yield qp.post_read(
                64, fetch=lambda: remote.read_split(slab.slab_id, 0)
            )
            return value

        assert drive(sim, proc()) == "new"

    def test_send_delivers_message(self, cluster):
        sim = cluster.sim
        inbox = []
        cluster.machine(2).add_message_handler(lambda src, msg: inbox.append((src, msg)))
        qp = cluster.fabric.qp(0, 2)

        def proc():
            yield qp.post_send({"hello": 1})

        drive(sim, proc())
        assert inbox == [(0, {"hello": 1})]

    def test_send_has_extra_overhead(self, cluster):
        sim = cluster.sim
        qp = cluster.fabric.qp(0, 1)

        def timed():
            start = sim.now
            yield qp.post_read(64, fetch=lambda: None)
            one_sided = sim.now - start
            start = sim.now
            yield qp.post_send("ping", size_bytes=64)
            two_sided = sim.now - start
            return one_sided, two_sided

        one_sided, two_sided = drive(sim, timed())
        assert two_sided > one_sided

    def test_remote_access_error_fails_event(self, cluster):
        sim = cluster.sim
        qp = cluster.fabric.qp(0, 1)

        def proc():
            with pytest.raises(RemoteAccessError):
                yield qp.post_read(
                    64, fetch=lambda: cluster.machine(1).read_split(999, 0)
                )
            return "ok"

        assert drive(sim, proc()) == "ok"

    def test_no_loopback_qp(self, cluster):
        with pytest.raises(ValueError):
            cluster.fabric.qp(1, 1)


class TestCongestionAndStragglers:
    def test_background_flow_inflates_latency(self):
        cluster = Cluster(machines=3, network=quiet_config(), seed=2)
        sim = cluster.sim
        qp = cluster.fabric.qp(0, 1)
        config = cluster.fabric.config

        def timed(size):
            start = sim.now
            yield qp.post_read(size, fetch=lambda: None)
            baseline = sim.now - start
            cluster.machine(1).nic.background_flows = 2
            start = sim.now
            yield qp.post_read(size, fetch=lambda: None)
            congested = sim.now - start
            cluster.machine(1).nic.background_flows = 0
            return baseline, congested

        baseline, congested = drive(sim, timed(512))
        inflation = 2 * config.congestion_per_flow
        expected_extra = inflation * (
            config.transfer_us(512) + 0.2 * config.base_latency_us
        )
        assert congested == pytest.approx(baseline + expected_extra)

    def test_congestion_penalizes_large_messages_more(self):
        """Queuing delay scales with message bytes: split-sized messages
        dodge bulk flows far better than whole pages (§4.1)."""
        cluster = Cluster(machines=3, network=quiet_config(), seed=2)
        sim = cluster.sim
        qp = cluster.fabric.qp(0, 1)
        cluster.machine(1).nic.background_flows = 3

        def timed(size):
            start = sim.now
            yield qp.post_read(size, fetch=lambda: None)
            return sim.now - start

        small = drive(sim, timed(512))
        large = drive(sim, timed(4096))
        uncongested_gap = cluster.fabric.config.transfer_us(4096 - 512)
        assert large - small > 2 * uncongested_gap

    def test_stragglers_create_tail(self):
        config = quiet_config(straggler_prob=0.2, straggler_scale_us=50.0)
        cluster = Cluster(machines=3, network=config, seed=3)
        sim = cluster.sim
        qp = cluster.fabric.qp(0, 1)

        def run():
            samples = []
            for _ in range(300):
                start = sim.now
                yield qp.post_read(512, fetch=lambda: None)
                samples.append(sim.now - start)
            return samples

        samples = drive(sim, run())
        samples.sort()
        p50 = samples[len(samples) // 2]
        p99 = samples[int(len(samples) * 0.99)]
        assert p99 > 10 * p50  # heavy tail present


class TestFailures:
    def test_pending_ops_fail_on_machine_death(self, cluster):
        sim = cluster.sim
        qp = cluster.fabric.qp(0, 1)

        def proc():
            event = qp.post_read(1 << 20, fetch=lambda: None)  # slow op
            cluster.machine(1).fail()
            with pytest.raises(RDMADisconnect):
                yield event
            return sim.now

        # Failure is detected after the RC retry timeout.
        now = drive(sim, proc())
        assert now >= cluster.fabric.config.failure_detect_us

    def test_post_to_dead_machine_fails(self, cluster):
        sim = cluster.sim
        cluster.machine(1).fail()
        qp = cluster.fabric.qp(0, 1)

        def proc():
            with pytest.raises(RDMADisconnect):
                yield qp.post_read(64, fetch=lambda: None)
            return "ok"

        assert drive(sim, proc()) == "ok"

    def test_disconnect_listener_notified(self, cluster):
        sim = cluster.sim
        qp = cluster.fabric.qp(0, 1)
        notified = []
        qp.on_disconnect(notified.append)

        def proc():
            event = qp.post_read(64, fetch=lambda: None)
            cluster.machine(1).fail()
            yield sim.timeout(cluster.fabric.config.failure_detect_us + 10)

        drive(sim, proc())
        assert notified == [1]

    def test_recovery_reconnects(self, cluster):
        sim = cluster.sim
        qp = cluster.fabric.qp(0, 1)
        cluster.machine(1).fail()
        cluster.machine(1).recover()

        def proc():
            value = yield qp.post_read(64, fetch=lambda: "alive")
            return value

        assert drive(sim, proc()) == "alive"

    def test_machine_memory_lost_on_failure(self, cluster):
        machine = cluster.machine(1)
        slab = machine.allocate_slab(1 << 20)
        machine.fail()
        assert machine.hosted_slabs == {}


class TestSinkVerbs:
    """``QueuePair._post`` reports each verb to a sink exactly once — the
    path the Resilience Manager's fan-out uses, with no event per verb."""

    @staticmethod
    def recording_sink(sim):
        calls = []

        def sink(token, ok, value):
            calls.append((sim.now, token, ok, value))

        return sink, calls

    def test_pending_verbs_fail_once_after_detection(self, cluster):
        """Verbs pending on a QP whose machine dies are each failed exactly
        once after ``failure_detect_us``; a completion record that falls
        inside the detection window delivers nothing."""
        sim = cluster.sim
        qp = cluster.fabric.qp(0, 1)
        sink, calls = self.recording_sink(sim)
        fetched = []
        detect = cluster.fabric.config.failure_detect_us

        def proc():
            for token in ("a", "b", "c"):
                post_one(qp, 512, sink, token, fetched.append, (token,))
            assert cluster.fabric.queue_depth(0) == 3
            cluster.machine(1).fail()
            assert cluster.fabric.queue_depth(0) == 0
            # The three completion records fire now, within the window.
            yield sim.timeout(detect / 2)
            assert calls == [] and fetched == []
            yield sim.timeout(detect)

        drive(sim, proc())
        assert fetched == []  # the data never arrived
        assert [(at, token, ok) for at, token, ok, _ in calls] == [
            (detect, "a", False), (detect, "b", False), (detect, "c", False)
        ]
        assert all(
            isinstance(exc, RDMADisconnect) and exc.machine_id == 1
            for *_, exc in calls
        )

    def test_unreachable_post_costs_the_same_queue_entries_as_an_event(self):
        """A post to an unreachable machine fails through the sink after the
        detection delay, with the two queue entries (the retry timeout,
        then the error completion) the ``Event`` path takes."""
        entries = {}
        for path in ("sink", "event"):
            cluster = Cluster(machines=4, network=quiet_config(), seed=1)
            sim = cluster.sim
            cluster.machine(1).fail()
            qp = cluster.fabric.qp(0, 1)
            sink, calls = self.recording_sink(sim)
            before = sim._active
            if path == "sink":
                post_one(qp, 64, sink, "t", lambda: None)
            else:
                event = qp.post_read(64, fetch=lambda: None)
                event.callbacks.append(
                    lambda done: sink("t", done._ok, done._value)
                )
            assert cluster.fabric.queue_depth(0) == 0
            sim.run()
            entries[path] = sim._active - before
            ((at, token, ok, exc),) = calls
            assert (at, token, ok) == (cluster.fabric.config.failure_detect_us, "t", False)
            assert isinstance(exc, RDMADisconnect)
        assert entries == {"sink": 2, "event": 2}

    def test_remote_access_error_arrives_not_ok(self, cluster):
        sim = cluster.sim
        qp = cluster.fabric.qp(0, 1)
        sink, calls = self.recording_sink(sim)
        post_one(qp, 64, sink, 7, cluster.machine(1).read_split, (999, 0))  # unmapped slab
        post_one(qp, 64, sink, 8, int, ("42",))
        sim.run()
        # Same completion instant on this jitter-free network: the error
        # completion is its own queue record, behind the one already queued.
        (_, token2, ok2, value2), (_, token, ok, exc) = calls
        assert (token, ok) == (7, False) and isinstance(exc, RemoteAccessError)
        assert (token2, ok2, value2) == (8, True, 42)
        assert cluster.fabric.queue_depth(0) == 0

    def test_queue_depth_counts_outstanding_sink_verbs(self, cluster):
        sim = cluster.sim
        fabric = cluster.fabric
        sink, calls = self.recording_sink(sim)
        depths = []
        for target in (1, 2):
            for token in range(3):
                post_one(
                    fabric.qp(0, target), 512, sink, (target, token),
                    lambda: depths.append(fabric.queue_depth(0)),
                )
        fabric.qp(0, 3).post_read(512, fetch=lambda: None)  # event verbs count too
        assert fabric.queue_depth(0) == 7
        sim.run()
        assert len(calls) == 6 and all(ok for _, _, ok, _ in calls)
        # Each verb had already left the queue when its fn ran; the event
        # verb, posted last, was still out.
        assert depths == [6, 5, 4, 3, 2, 1]
        assert fabric.queue_depth(0) == 0


FAN_OUT_SCENARIOS = {
    # name: (network overrides, what happens around the posting)
    "quiet": (dict(jitter_sigma=0.0, straggler_prob=0.0), None),
    "stragglers": (dict(straggler_prob=0.2), None),
    "flows on a remote nic": ({}, "remote_flows"),
    "flows on the local nic": ({}, "local_flows"),
    "one unreachable qp mid fan-out": ({}, "unreachable"),
    "disconnect while verbs are pending": ({}, "disconnect"),
}
_LATENCY_TAGS = ("wire_us", "congestion_us", "jitter_us", "straggler_us", "queue_us")


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("scenario", FAN_OUT_SCENARIOS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fan_out_equals_singles(seed, scenario, traced):
    """One ``_post`` of n posts is n ``_post``s of one: completion times,
    sink calls, NIC counters, every QP's RNG stream, the entries ever
    scheduled and a traced verb's latency tags are all identical."""
    overrides, twist = FAN_OUT_SCENARIOS[scenario]
    # Five targets, two of them twice: a QP's second verb queues behind its
    # first inside one fan-out. Machine 3 sits in the middle.
    targets = (1, 2, 3, 2, 4, 5, 1)

    def observe(fused):
        cluster = Cluster(
            machines=6, network=NetworkConfig(**dict(dict(jitter_sigma=0.3), **overrides)),
            seed=seed,
        )
        sim, fabric = cluster.sim, cluster.fabric
        qps = {target: fabric.qp(0, target) for target in set(targets)}
        if twist == "remote_flows":
            cluster.machine(2).nic.background_flows = 2
        elif twist == "local_flows":
            cluster.machine(0).nic.background_flows = 1
        elif twist == "unreachable":
            cluster.machine(3).fail()
        tracer = Tracer(sim)
        calls = []

        def sink(token, ok, value):
            calls.append((sim.now, token, ok, value if ok else (type(value), str(value))))

        for round_ in range(3):
            span = tracer.start_span("req") if traced else None
            posts = [
                (qps[target], (round_, index), int, (index,))
                for index, target in enumerate(targets)
            ]
            for batch in [posts] if fused else [[post] for post in posts]:
                QueuePair._post(fabric, 512 << round_, sink, batch, True, span, "write")
            if twist == "disconnect" and round_ == 1:
                cluster.machine(4).fail()
            sim.run(until=sim.now + 1.0)  # part of the fan-out is still pending
        sim.run()
        assert len(calls) == 3 * len(targets)
        return {
            "calls": calls,
            "nics": [
                (m.nic.bytes_sent, m.nic.bytes_received, m.nic.ops_sent)
                for m in cluster.machines
            ],
            "rng": {t: qp._draw_uniform.__self__.getstate() for t, qp in qps.items()},
            "active": sim._active,
            "now": sim.now,
            "verbs": [
                (s.tags["target"], s.start_us, s.duration_us, s.tags.get("error"))
                + tuple(s.tags.get(tag) for tag in _LATENCY_TAGS)
                for s in tracer.spans if s.name == "rdma.write"
            ],
        }

    fused = observe(True)
    assert fused == observe(False)
    assert len(fused["verbs"]) == (3 * len(targets) if traced else 0)
    if twist in ("unreachable", "disconnect"):
        assert any(not ok for _at, _token, ok, _value in fused["calls"])


def test_traced_and_untraced_verbs_complete_at_identical_times():
    """A span only *tags* the one latency computation in
    ``QueuePair._post``: a same-seed QP gives bit-identical completion
    times whether or not every verb carries a sampled span, and the five
    tags of a traced verb (wire, congestion, jitter, straggler, queue)
    tile its post-to-completion interval."""
    sizes = [64, 512, 512, 4096, 1 << 16, 512, 100, 1 << 20] * 8
    tags = ("wire_us", "congestion_us", "jitter_us", "straggler_us", "queue_us")

    def completion_times(traced, straggler_prob, flows):
        cluster = Cluster(
            machines=3,
            network=NetworkConfig(straggler_prob=straggler_prob, jitter_sigma=0.3),
            seed=9,
        )
        sim = cluster.sim
        cluster.machine(1).nic.background_flows = flows  # congestion term live
        tracer = Tracer(sim)
        qp = cluster.fabric.qp(0, 1)
        times = []

        def proc():
            for i, size in enumerate(sizes):
                span = tracer.start_span("req") if traced else None
                post = (qp.post_read, qp.post_write)[i % 2]
                done = post(size, lambda: None, span=span)
                done.callbacks.append(lambda _e: times.append(sim.now))
                if i % 5 == 4:
                    yield done  # let the QP drain now and then
                if i % 7 == 6:
                    yield qp.post_send("m", size_bytes=size, span=span)
                    times.append(sim.now)

        drive(sim, proc())
        sim.run()
        if traced:
            verbs = [s for s in tracer.spans if s.name.startswith("rdma.")]
            assert len(verbs) == len(sizes) + len(sizes) // 7
            for verb in verbs:
                # Each tag is rounded to 4 decimals: 5 x 0.00005 of slack.
                assert sum(verb.tags[tag] for tag in tags) == pytest.approx(
                    verb.duration_us, abs=3e-4
                )
                assert verb.tags["congestion_us"] > 0
            assert any(verb.tags["queue_us"] > 0 for verb in verbs)
            stragglers = sum(verb.tags["straggler_us"] > 0 for verb in verbs)
            if straggler_prob == 1.0:
                assert stragglers == len(verbs)
            else:
                assert 0 < stragglers < len(verbs)
        return times

    # Rare stragglers, then a straggler on every verb behind a single
    # background flow on one endpoint.
    for straggler_prob, flows in ((0.2, 2), (1.0, 1)):
        untraced = completion_times(False, straggler_prob, flows)
        assert len(untraced) == len(sizes) + len(sizes) // 7
        assert completion_times(True, straggler_prob, flows) == untraced


class TestPerQpOrderingStress:
    """Randomized per-QP ordering under the fused-completion fast path.

    The RC contract the Resilience Manager builds read-after-write safety
    on: completions on one QP are delivered strictly in post order, no
    matter how the per-op latencies (sizes, jitter, stragglers,
    congestion) would reorder them. Each seed draws a fresh interleaving
    of one-sided READ/WRITE and two-sided SEND at random sizes from 64 B
    to 256 KB and checks both the completion sequence and that completion
    timestamps never go backwards.
    """

    VERBS = ("read", "write", "send")

    @pytest.mark.parametrize("seed", range(20))
    def test_interleaved_verbs_complete_in_post_order(self, seed):
        rng = RandomSource(seed, "rdma-ordering-stress")
        # Noisy latency model on purpose — ordering may not depend on it.
        config = NetworkConfig(straggler_prob=0.15, straggler_scale_us=40.0)
        cluster = Cluster(machines=3, network=config, seed=seed)
        sim = cluster.sim
        inbox = []
        cluster.machine(1).add_message_handler(
            lambda src, msg: inbox.append(msg["op"])
        )
        qp = cluster.fabric.qp(0, 1)

        n = 40
        sends = []
        completions = []
        completion_times = []

        def on_complete(event, op=None):
            completions.append(op)
            completion_times.append(sim.now)

        for op in range(n):
            size = rng.randint(64, 256 * 1024)
            verb = rng.choice(self.VERBS)
            if verb == "read":
                event = qp.post_read(size, fetch=lambda op=op: op)
            elif verb == "write":
                event = qp.post_write(size, apply=lambda op=op: op)
            else:
                event = qp.post_send({"op": op}, size_bytes=size)
                sends.append(op)
            event.callbacks.append(
                lambda ev, op=op: on_complete(ev, op=op)
            )
        sim.run()

        assert completions == list(range(n))
        assert completion_times == sorted(completion_times)
        # Two-sided sends arrived, and in post order too.
        assert inbox == sends


class TestPartitions:
    def test_partition_blocks_both_directions(self, cluster):
        sim = cluster.sim
        cluster.fabric.partition(0, 1)
        assert not cluster.fabric.reachable(0, 1)
        assert not cluster.fabric.reachable(1, 0)
        assert cluster.fabric.reachable(0, 2)

        def proc():
            with pytest.raises(RDMADisconnect):
                yield cluster.fabric.qp(0, 1).post_read(64, fetch=lambda: None)
            return "ok"

        assert drive(sim, proc()) == "ok"

    def test_heal_restores(self, cluster):
        sim = cluster.sim
        cluster.fabric.partition(0, 1)
        cluster.fabric.heal(0, 1)
        assert cluster.fabric.reachable(0, 1)

        def proc():
            return (yield cluster.fabric.qp(0, 1).post_read(64, fetch=lambda: 5))

        assert drive(sim, proc()) == 5
