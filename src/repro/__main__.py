"""``python -m repro`` — a 30-second guided tour of the reproduction.

Runs three vignettes: the single-µs erasure-coded data path, survival of
a remote machine failure with background regeneration, and the Figure 1
tradeoff corner Hydra occupies.
"""

from __future__ import annotations

import importlib
import sys

# Each subcommand is a module whose ``main(argv)`` parses the rest of the
# command line with argparse.
COMMANDS = {
    "trace": "repro.obs.cli",
    "perf": "repro.harness.perf",
    "chaos": "repro.chaos.cli",
    "bench": "repro.parallel.bench",
    "top": "repro.obs.top",
    "loadgen": "repro.harness.loadgen",
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        if argv[0] not in COMMANDS:
            usage = " | ".join(f"{command} ..." for command in COMMANDS)
            print(f"unknown command {argv[0]!r}; usage: python -m repro [{usage}]")
            return 2
        return importlib.import_module(COMMANDS[argv[0]]).main(argv[1:])

    from repro.harness import (
        build_hydra_cluster,
        measure_tradeoff_point,
        run_process,
    )
    from repro.harness.microbench import page_generator

    print("Hydra reproduction — quick tour (see examples/ for more)\n")

    # 1. The data path.
    hydra = build_hydra_cluster(machines=12, k=8, r=2, delta=1, seed=1)
    rm = hydra.remote_memory(0)
    sim = hydra.sim
    make_page = page_generator()

    def datapath():
        for pid in range(64):
            yield rm.write(pid, make_page(pid))
        for pid in range(64):
            yield rm.read(pid)

    run_process(sim, sim.process(datapath(), name="tour"), until=1e9)
    print(
        f"[1] RS(8+2) data path: read p50 {rm.read_latency.p50:.2f} us, "
        f"write p50 {rm.write_latency.p50:.2f} us at 1.25x memory overhead"
    )

    # 2. Failure survival.
    def failure():
        victim = rm.space.get(0).handle(0).machine_id
        hydra.cluster.machine(victim).fail()
        yield sim.timeout(200)
        good = 0
        for pid in range(64):
            good += (yield rm.read(pid)) == make_page(pid)
        yield sim.timeout(5_000_000)
        return good

    good = run_process(sim, sim.process(failure(), name="fail"), until=1e10)
    print(
        f"[2] remote machine killed: {good}/64 pages intact; "
        f"background regenerations: {rm.events['regenerations']}"
    )

    # 3. The tradeoff corner.
    print("[3] Figure 1 corner (read p50 under failure / memory overhead):")
    for scheme in ("ssd_backup", "replication_2x", "hydra"):
        point = measure_tradeoff_point(scheme, machines=12, ops=120, seed=2)
        print(
            f"      {scheme:>15}: {point.read_p50_us:7.2f} us "
            f"at {point.memory_overhead:.2f}x"
        )
    print("\nRun `pytest benchmarks/ --benchmark-only` for every paper figure.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
