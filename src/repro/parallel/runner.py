"""Deterministic process-pool experiment runner.

Every experiment layer in this repository — the perf-regression suite,
chaos campaigns, the ``benchmarks/`` figure suite — decomposes into
*shards*: independent units of work that are fully determined by their
inputs (a seed, a config, a benchmark name). :func:`run_shards` fans
shards out across worker processes while preserving the one property all
of those layers lean on as their correctness oracle: **parallel output is
byte-identical to serial output at the same seed**.

The contract, enforced rather than assumed:

* **Shard independence** — a shard function is a top-level callable whose
  result depends only on its arguments. Shards derive any randomness from
  seeds passed in explicitly (e.g. per-shard
  :class:`~repro.sim.RandomSource` streams); the runner never injects
  wall-clock time, worker identity, or completion order into a shard.
* **Deterministic merge** — results are returned ordered by shard *key*
  (a sortable tuple), never by completion time. Two runs with different
  ``jobs`` values return the same sequence of values.
* **Worker-crash detection with bounded retry** — a worker that dies
  without reporting (OOM kill, segfault, ``os._exit``) is distinguished
  from a shard that *raised*: crashes are environmental and retried on a
  fresh worker up to ``max_retries`` times; exceptions are deterministic
  (the retry would reproduce them) and recorded as failures immediately.
* **Heartbeat via the metrics registry** — per-shard progress lines are
  derived from ``<name>.shards_done`` / ``<name>.shards_failed`` /
  ``<name>.worker_retries`` counters on the caller's
  :class:`~repro.obs.MetricsRegistry`, so an embedding harness can watch
  a run the same way it watches a simulation.

At ``jobs=1`` with ``serial_in_process=True`` (the default) shards run in
the calling process in key order — exactly the pre-parallel code path —
which is what the determinism gate compares parallel runs against.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..obs import MetricsRegistry

__all__ = [
    "ShardTask",
    "ShardResult",
    "ShardFailure",
    "run_shards",
    "resolve_jobs",
    "merge_histogram_dicts",
]


def resolve_jobs(jobs: Union[int, str, None]) -> int:
    """Normalize a ``-j`` value: ``None``/``0``/``"auto"`` -> core count.

    Every CLI's ``-j/--jobs`` uses this as its argparse ``type``, so a
    value is checked in one place. Uses the scheduler affinity mask where
    available (containers often restrict it below ``os.cpu_count()``).
    """
    if jobs in (None, 0, "0", "auto"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux
            return max(1, os.cpu_count() or 1)
    count = int(jobs)
    if count < 1:
        raise ValueError(f"jobs must be >= 1 or 'auto', got {jobs!r}")
    return count


@dataclass(frozen=True)
class ShardTask:
    """One independent unit of work.

    ``key`` is a sortable tuple that names the shard — (figure, scenario,
    seed), (index, benchmark name), (campaign seed,) — and fixes its
    position in the merged output. ``fn`` must be a *top-level* function
    (picklable for worker dispatch) whose result is picklable too.
    """

    key: Tuple
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    label: str = ""

    def display(self) -> str:
        return self.label or "/".join(str(part) for part in self.key)


@dataclass
class ShardResult:
    """Outcome of one shard, success or not."""

    key: Tuple
    label: str
    value: Any = None
    error: Optional[str] = None  # formatted traceback when the shard raised
    crashed: bool = False  # worker died without reporting, retries exhausted
    exitcode: Optional[int] = None  # last worker exit code on a crash
    attempts: int = 1
    seconds: float = 0.0  # wall seconds of the final attempt

    @property
    def ok(self) -> bool:
        return self.error is None and not self.crashed

    def failure_summary(self) -> str:
        if self.crashed:
            return (
                f"{self.label}: worker crashed (exit {self.exitcode}) "
                f"after {self.attempts} attempts"
            )
        if self.error is not None:
            last = self.error.strip().splitlines()[-1]
            return f"{self.label}: {last}"
        return f"{self.label}: ok"


class ShardFailure(RuntimeError):
    """Raised by callers that require every shard to succeed."""

    def __init__(self, message: str, results: Sequence[ShardResult] = ()):
        super().__init__(message)
        self.results = list(results)


def _worker_entry(fn, args, kwargs, conn) -> None:
    """Worker process body: run the shard, report exactly one message."""
    try:
        value = fn(*args, **kwargs)
        payload = ("ok", value)
    except BaseException:
        payload = ("err", traceback.format_exc())
    try:
        conn.send(payload)
    finally:
        conn.close()


def _default_context():
    """Prefer fork (cheap, Linux default); fall back to spawn elsewhere.

    Shard determinism never depends on the start method: results are a
    function of shard arguments alone.
    """
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def run_shards(
    tasks: Sequence[ShardTask],
    jobs: Union[int, str, None] = 1,
    *,
    max_retries: int = 1,
    metrics: Optional[MetricsRegistry] = None,
    progress: Optional[Callable[[str], None]] = None,
    name: str = "parallel",
    serial_in_process: bool = True,
) -> List[ShardResult]:
    """Run every task; return :class:`ShardResult` s **ordered by key**.

    ``jobs`` caps concurrent worker processes (``"auto"`` = core count).
    With ``jobs == 1`` and ``serial_in_process`` the shards run in the
    calling process — the reference serial execution. Otherwise each
    attempt gets its own worker process; a worker that exits without
    reporting is retried on a fresh worker up to ``max_retries`` times
    (``<name>.worker_retries`` counts these), while a shard that raises
    is recorded as failed immediately — exceptions are deterministic, so
    a retry would only reproduce them.

    The function itself never raises for shard failures; inspect
    ``result.ok`` (or use a caller-side helper) so partial campaigns can
    still be merged and reported.
    """
    ordered = sorted(tasks, key=lambda task: task.key)
    keys = [task.key for task in ordered]
    if len(set(keys)) != len(keys):
        raise ValueError("shard keys must be unique (deterministic merge)")
    jobs = resolve_jobs(jobs)
    registry = metrics if metrics is not None else MetricsRegistry()
    done_counter = registry.counter(f"{name}.shards_done")
    failed_counter = registry.counter(f"{name}.shards_failed")
    retry_counter = registry.counter(f"{name}.worker_retries")
    emit = progress if progress is not None else (lambda line: None)

    total = len(ordered)
    results: Dict[Tuple, ShardResult] = {}

    def note(result: ShardResult) -> None:
        results[result.key] = result
        (done_counter if result.ok else failed_counter).incr()
        finished = done_counter.value + failed_counter.value
        status = "ok"
        if result.crashed:
            status = "CRASHED"
        elif result.error is not None:
            status = "FAILED"
        emit(
            f"[{name} {finished}/{total}] {result.label} {status} "
            f"in {result.seconds:.2f}s (done={done_counter.value} "
            f"failed={failed_counter.value} retries={retry_counter.value})"
        )

    if jobs == 1 and serial_in_process:
        for task in ordered:
            start = time.perf_counter()
            try:
                value = task.fn(*task.args, **task.kwargs)
                result = ShardResult(
                    task.key,
                    task.display(),
                    value=value,
                    seconds=time.perf_counter() - start,
                )
            except Exception:
                result = ShardResult(
                    task.key,
                    task.display(),
                    error=traceback.format_exc(),
                    seconds=time.perf_counter() - start,
                )
            note(result)
        return [results[key] for key in keys]

    ctx = _default_context()
    pending: List[ShardTask] = list(reversed(ordered))  # pop() -> key order
    active: Dict[Any, tuple] = {}  # conn -> (task, proc, attempt, started)

    def launch(task: ShardTask, attempt: int) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_entry,
            args=(task.fn, task.args, task.kwargs, child_conn),
            name=f"{name}:{task.display()}",
            daemon=True,
        )
        proc.start()
        child_conn.close()  # the worker holds the only write end now
        active[parent_conn] = (task, proc, attempt, time.perf_counter())

    try:
        while pending or active:
            while pending and len(active) < jobs:
                launch(pending.pop(), attempt=1)
            # A connection becomes ready on a result message or on EOF
            # (worker death) — never on partial data, so recv() below
            # returns promptly in both cases.
            ready = multiprocessing.connection.wait(list(active))
            for conn in ready:
                task, proc, attempt, started = active.pop(conn)
                message = None
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    message = None
                finally:
                    conn.close()
                proc.join()
                seconds = time.perf_counter() - started
                if message is None:
                    if attempt <= max_retries:
                        retry_counter.incr()
                        emit(
                            f"[{name}] {task.display()} worker crashed "
                            f"(exit {proc.exitcode}); retrying on a fresh "
                            f"worker ({attempt}/{max_retries})"
                        )
                        launch(task, attempt + 1)
                        continue
                    note(
                        ShardResult(
                            task.key,
                            task.display(),
                            crashed=True,
                            exitcode=proc.exitcode,
                            attempts=attempt,
                            seconds=seconds,
                        )
                    )
                elif message[0] == "ok":
                    note(
                        ShardResult(
                            task.key,
                            task.display(),
                            value=message[1],
                            attempts=attempt,
                            seconds=seconds,
                        )
                    )
                else:
                    note(
                        ShardResult(
                            task.key,
                            task.display(),
                            error=message[1],
                            attempts=attempt,
                            seconds=seconds,
                        )
                    )
    finally:
        for conn, (task, proc, _attempt, _started) in active.items():
            proc.terminate()
            proc.join()
            conn.close()

    return [results[key] for key in keys]


def merge_histogram_dicts(payloads: Sequence[dict]):
    """Merge :meth:`~repro.sim.trace.Histogram.to_dict` payloads from
    independent shards into one :class:`~repro.sim.trace.Histogram`.

    Bucket counts add, so the result is independent of shard completion
    order — merged buckets and percentiles are byte-identical to what a
    serial run recording every sample into one histogram would produce.
    This is the aggregation step soaks and perf shards use to report
    cluster-wide latency distributions under ``-j N``.
    """
    from ..sim.trace import Histogram

    if not payloads:
        raise ValueError("merge_histogram_dicts needs at least one payload")
    merged = Histogram.from_dict(payloads[0])
    for payload in payloads[1:]:
        merged.merge(Histogram.from_dict(payload))
    return merged


def require_ok(results: Sequence[ShardResult], what: str) -> List[ShardResult]:
    """Raise :class:`ShardFailure` listing every failed shard, else pass
    the results through."""
    failed = [result for result in results if not result.ok]
    if failed:
        details = "; ".join(result.failure_summary() for result in failed)
        raise ShardFailure(
            f"{len(failed)}/{len(results)} {what} shards failed: {details}",
            results=results,
        )
    return list(results)
