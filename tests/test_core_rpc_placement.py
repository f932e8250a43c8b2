"""Control-plane RPC and decentralized batch placement."""

import pytest

from repro.cluster import Cluster
from repro.core import (
    BatchPlacer,
    HydraConfig,
    PlacementError,
    RpcEndpoint,
    RpcError,
)
from repro.net import NetworkConfig
from repro.sim import RandomSource

from .conftest import drive


@pytest.fixture
def cluster():
    return Cluster(
        machines=8,
        network=NetworkConfig(jitter_sigma=0.0, straggler_prob=0.0),
        memory_per_machine=64 << 20,
        seed=1,
    )


def endpoints(cluster, count=None):
    return [
        RpcEndpoint(cluster.fabric, m.id)
        for m in cluster.machines[: count or len(cluster.machines)]
    ]


class TestRpc:
    def test_request_reply(self, cluster):
        a, b = endpoints(cluster, 2)
        b.register("ping", lambda src, body: {"pong": body["x"] + 1, "from": src})

        def proc():
            reply = yield a.call(1, "ping", {"x": 41})
            return reply

        reply = drive(cluster.sim, proc())
        assert reply == {"pong": 42, "from": 0}

    def test_missing_handler_is_error(self, cluster):
        a, _b = endpoints(cluster, 2)

        def proc():
            with pytest.raises(RpcError):
                yield a.call(1, "nothing")
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"

    def test_handler_exception_propagates(self, cluster):
        a, b = endpoints(cluster, 2)

        def explode(src, body):
            raise RuntimeError("kaboom")

        b.register("explode", explode)

        def proc():
            with pytest.raises(RpcError, match="kaboom"):
                yield a.call(1, "explode")
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"

    def test_call_to_dead_machine_fails(self, cluster):
        a, _b = endpoints(cluster, 2)
        cluster.machine(1).fail()

        def proc():
            with pytest.raises(RpcError):
                yield a.call(1, "ping")
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"

    def test_target_dying_after_serving_fails_the_call(self, cluster):
        """The handler ran, then its machine died before the reply was
        delivered: the caller gets RpcError when the connection drops
        instead of waiting forever, and nothing stays in ``_pending``."""
        a, b = endpoints(cluster, 2)
        sim = cluster.sim
        served = []

        def ping(src, body):
            served.append(sim.now)
            sim.call_later(0.5, cluster.machine(1).fail)  # reply in flight
            return "pong"

        b.register("ping", ping)

        def proc():
            with pytest.raises(RpcError, match="connection lost"):
                yield a.call(1, "ping")
            return sim.now

        failed_at = drive(sim, proc(), until=10_000_000.0)
        detect = cluster.fabric.config.failure_detect_us
        assert failed_at == pytest.approx(served[0] + 0.5 + detect)
        assert a._pending == {}

    def test_reply_after_loss_is_ignored(self, cluster):
        a, b = endpoints(cluster, 2)
        sim = cluster.sim
        b.register("ping", lambda src, body: "pong")
        call = a.call(1, "ping")
        (request_id,) = a._pending
        cluster.fabric.partition(0, 1)  # the request is dropped in flight
        sim.run()
        assert not call.ok and isinstance(call.exception, RpcError)
        assert a._pending == {}
        # A straggling reply for the failed call changes nothing.
        a._on_message(1, {"kind": "reply", "id": request_id, "body": "pong"})
        sim.run()
        assert not call.ok and a._pending == {}
        # The link heals: the next call works, and an idle disconnect
        # later (no call pending) schedules nothing.
        cluster.fabric.heal(0, 1)

        def proc():
            return (yield a.call(1, "ping"))

        assert drive(sim, proc()) == "pong"
        assert a._pending == {}
        cluster.fabric.partition(0, 1)
        sim.run()
        queued = len(sim._queue)
        a._on_lost(1)
        assert len(sim._queue) == queued

    def test_duplicate_handler_rejected(self, cluster):
        a = RpcEndpoint(cluster.fabric, 0)
        a.register("x", lambda s, b: None)
        with pytest.raises(ValueError):
            a.register("x", lambda s, b: None)


class TestBatchPlacement:
    def _placer(self, cluster, k=2, r=1, seed=3):
        config = HydraConfig(
            k=k, r=r, delta=min(1, r), slab_size_bytes=1 << 20, payload_mode="phantom"
        )
        eps = endpoints(cluster)
        # Every machine answers load queries and slab maps.
        for endpoint in eps[1:]:
            machine = cluster.machine(endpoint.machine_id)

            def query(src, body, machine=machine):
                return {
                    "utilization": machine.memory_utilization,
                    "free_bytes": machine.free_bytes,
                    "has_free_slab": False,
                    "rack": machine.rack,
                }

            def map_slab(src, body, machine=machine):
                slab = machine.allocate_slab(1 << 20)
                slab.map_to(src, body["range_id"], body["position"])
                return {"slab_id": slab.slab_id}

            endpoint.register("query_load", query)
            endpoint.register("map_slab", map_slab)
        peers = lambda: [m.id for m in cluster.machines if m.alive and m.id != 0]
        return (
            BatchPlacer(eps[0], peers, config, RandomSource(seed, "placer")),
            config,
        )

    def test_places_k_plus_r_distinct_machines(self, cluster):
        placer, config = self._placer(cluster)

        def proc():
            handles = yield from placer.place_range(0)
            return handles

        handles = drive(cluster.sim, proc())
        assert len(handles) == config.n
        machines = [h.machine_id for h in handles]
        assert len(set(machines)) == config.n
        assert 0 not in machines  # never places on itself

    def test_prefers_least_loaded(self, cluster):
        # Load up every machine except 3 lightly-loaded ones.
        light = {1, 2, 3}
        for machine in cluster.machines[1:]:
            if machine.id not in light:
                machine.set_local_app_bytes(48 << 20)
        placer, config = self._placer(cluster)

        def proc():
            handles = yield from placer.place_range(0)
            return handles

        handles = drive(cluster.sim, proc())
        chosen = {h.machine_id for h in handles}
        # With 2x(k+r)=6 contacts out of 7 peers, the three light machines
        # are almost surely contacted and must win.
        assert light <= chosen

    def test_place_single_excludes(self, cluster):
        placer, _config = self._placer(cluster)

        def proc():
            target = yield from placer.place_single(0, 1, exclude={1, 2, 3, 4, 5})
            return target

        assert drive(cluster.sim, proc()) in (6, 7)

    def test_too_few_machines_raises(self):
        small = Cluster(machines=2, seed=0)
        config = HydraConfig(k=4, r=2, slab_size_bytes=1 << 20, payload_mode="phantom")
        endpoint = RpcEndpoint(small.fabric, 0)
        placer = BatchPlacer(
            endpoint, lambda: [1], config, RandomSource(0)
        )

        def proc():
            with pytest.raises(PlacementError):
                yield from placer.place_range(0)
            return "ok"

        assert drive(small.sim, proc()) == "ok"

    def test_distinct_racks_when_possible(self):
        cluster = Cluster(
            machines=9,
            racks=4,
            network=NetworkConfig(jitter_sigma=0.0, straggler_prob=0.0),
            memory_per_machine=64 << 20,
            seed=2,
        )
        placer, config = self._placer(cluster, k=2, r=1)

        def proc():
            handles = yield from placer.place_range(0)
            return handles

        handles = drive(cluster.sim, proc())
        racks = [cluster.machine(h.machine_id).rack for h in handles]
        assert len(set(racks)) == 3  # k + r = 3 distinct racks
