"""The repo benchmark's self-check, inside tier-1.

``benchmarks/record/run.py --smoke`` runs every workload at tiny sizes,
traced and untraced, and fails when an entry point its tracer patches by
name (``QueuePair._post`` / ``post_*``, ``Simulator.run``, the codec
methods, ``rebuild_position`` …) has moved, when tracing perturbs the
simulation, or when a per-layer counter went dead. A refactor under
``src/`` finds that out here instead of at the driver's benchmark run.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_smoke_passes():
    done = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "record", "run.py"), "--smoke"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=600,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 0, output[-4000:]
    assert done.stdout.rstrip().splitlines()[-1] == "smoke: ok"
    assert "missing" not in output and "are gone" not in output
    # The verb layer's hook is alive: if the RM's fan-out entered anywhere but
    # the attribute ``QueuePair._post``, ``net.posts`` (a NIC counter) would
    # still count while the layer's time read ~0 and moved to ``core``.
    shares = [
        float(line.split()[2])
        for line in done.stdout.splitlines()
        if line.split()[:2] == ["rm_clean", "net.busy_share"]
    ]
    assert shares and min(shares) >= 0.05, shares
