"""One workload in one fresh interpreter: set-up, warm-up, timed segments.

``run.py`` starts this file once per measurement and reads the JSON
document it prints as its last line. One process, one thread; nothing is
shared with the parent but the command line.
"""

from __future__ import annotations

import faulthandler
import json
import os
import resource
import sys
import time
from time import perf_counter


def _percentiles(samples) -> dict:
    import numpy as np

    if not len(samples):
        return {"p50": 0.0, "p99": 0.0, "n": 0}
    p50, p99 = np.percentile(np.asarray(samples, dtype=np.float64), [50, 99])
    return {"p50": float(p50), "p99": float(p99), "n": len(samples)}


def _segment_doc(seg) -> dict:
    return {
        "phases": [list(phase) for phase in seg.phases],
        "exposed": seg.exposed,
        "ops": {kind or "all": seg.ops(kind) for kind in (None, "read", "write")},
        "seconds": {kind or "all": seg.seconds(kind) for kind in (None, "read", "write")},
        "mixed": bool(seg.mixed),
        "host_scale": seg.host_scale,
        "attempted": seg.attempted,
        "failed": seg.failed,
        "first_error": seg.first_error,
        "anchor": seg.anchor,
        "counts": seg.counts,
    }


def main(argv) -> int:
    args = json.loads(argv[1])
    # A livelock must fail the run with a traceback, not hang the pipeline.
    faulthandler.dump_traceback_later(args["limit_s"], exit=True)
    t_spawn = args["t_spawn"]

    import hostclock

    # Sample the host before set-up and after it; the first three samples
    # sit inside the measured interval and are taken out again.
    host = [hostclock.sample() for _ in range(3)]
    sampling_s = sum(seconds for _slowdown, seconds in host)
    t0 = perf_counter()
    import numpy  # noqa: F401
    import repro  # noqa: F401
    from repro.ec.native import load_native

    import workloads
    from spans import Tracer

    import_s = perf_counter() - t0
    t0 = perf_counter()
    native = load_native()
    native_load_s = perf_counter() - t0

    if args["mode"] == "probes":
        import probes

        doc = probes.run(args["seed"], args["scale"], args["workload"])
        doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(doc))
        return 0

    tracer = None
    if args["mode"] == "traced":
        tracer = Tracer()
        tracer.install()  # before anything is built
    workload = workloads.WORKLOADS[args["workload"]](args["seed"], args["scale"])
    workload.setup()
    t0 = perf_counter()
    workload.warmup()
    warmup_s = perf_counter() - t0
    setup_s = time.time() - t_spawn - sampling_s
    host += [hostclock.sample() for _ in range(3)]
    setup = {
        "setup_s": setup_s,
        "host_scale": hostclock.host_scale([slowdown for slowdown, _s in host]),
        "import_s": import_s,
        "native_load_s": native_load_s,
        "native_backend": 0 if native is None else 1,
        "build_s": workload.build_s,
        "preload_s": workload.preload_s,
        "warmup_s": warmup_s,
    }
    doc = {"workload": workload.name, "seed": args["seed"], "setup": setup}
    if args["mode"] == "setup":
        print(json.dumps(doc))
        return 0

    workload.tracer = tracer  # warm-up stays out of the trace
    anchor_n = workload.anchor_segments
    minimum = args["segments"] or anchor_n
    budget = args["seconds"]
    segments = []
    timed = 0.0
    while len(segments) < minimum or (
        # Stop at whichever whole segment lands nearest the budget.
        not args["segments"] and timed + 0.5 * timed / len(segments) < budget
    ):
        seg = workload.segment(len(segments))
        segments.append(seg)
        timed += seg.seconds()

    prefix = segments[:anchor_n]
    sim = {
        "read": _percentiles([x for seg in prefix for x in seg.read_lat]),
        "write": _percentiles([x for seg in prefix for x in seg.write_lat]),
        "req": {},
    }
    for label in prefix[0].req_lat:
        sim["req"][label] = _percentiles(
            [x for seg in prefix for x in seg.req_lat[label]]
        )
    doc.update(
        segments=[_segment_doc(seg) for seg in segments],
        anchor_segments=anchor_n,
        sim=sim,
        plan_cache=workload.plan_cache(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        restored = tracer.uninstall()
        path = os.path.join(args["out"], f"trace-{workload.name}.jsonl")
        tracer.write(path)
        doc["trace"] = dict(tracer.summary(), restored=restored, file=path)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
