"""The execution engine: the repository's one worker pool for transpile jobs.

:class:`BatchTranspiler` owns the only ``concurrent.futures`` pool that executes
:class:`~repro.service.jobs.TranspileJob` specs, and :meth:`BatchTranspiler.submit` is
the one way onto it.  Two front ends drive that entry:

* :meth:`BatchTranspiler.run` — offline batches (the CLI, the experiment runners).  It
  serves cache hits, dedupes identical jobs, submits one future per unique miss, and
  settles outcomes in job order.  With one worker, or a single miss, it runs the job
  in-process instead.
* :class:`repro.server.runner.JobRunner` — the HTTP server awaits :meth:`submit`
  futures from its event loop, including the per-chunk futures of ensemble fan-out.

The pool policy lives here once:

* **Processes first.** The pool is a process pool (the passes are CPU-bound) and falls
  back to threads when a process pool cannot be created; ``use_processes=False`` asks for
  threads outright.
* **A dead worker never kills the service.** When a pool worker dies (``BrokenProcessPool``),
  the pool is replaced and every affected job is resubmitted once.  A job whose second
  attempt breaks the pool again settles as a structured :class:`JobError`.
* **Errors are data.** A job that raises produces ``{"ok": False, "error": ...}``; the
  futures returned by :meth:`submit` never raise.

Workers exchange only JSON-safe payloads (the :meth:`TranspileResult.to_dict` form), which
is also exactly what the cache stores — one representation end to end.  Jobs carry their
own seeds and workers share no state, so parallel, served and serial runs of a job are
bit-identical.
"""

from __future__ import annotations

import os
import signal
import threading
import traceback
from contextlib import nullcontext
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from typing import Callable, Dict, List, Optional, Sequence

from ..core.pipeline import TranspileResult
from ..obs.tracer import Tracer, use_tracer
from .cache import ResultCache
from .jobs import JobError, JobOutcome, TranspileJob

#: ``progress(done, total, outcome)`` — invoked in the parent as each job settles.
ProgressCallback = Callable[[int, int, JobOutcome], None]


def _job_error(job: TranspileJob, exc: BaseException, tb: str = "") -> Dict:
    error = JobError(
        fingerprint=job.fingerprint(),
        job_name=job.name,
        exc_type=type(exc).__name__,
        message=str(exc),
        traceback=tb,
    )
    return {"ok": False, "error": error.to_dict()}


def _execute(
    payload: Dict, trace_ctx: Optional[Dict] = None, trials: Optional[List[int]] = None
) -> Dict:
    """Worker entry point: run one job dict, returning ``{"ok": ..., "result"|"error": ...}``.

    Never raises.  ``trials`` restricts the job's ``best_of`` ensemble to those global
    trial indices (seeds unchanged) for the server's fan-out; the caller reduces the
    subset results by their ``ensemble["winner_key"]``, which is bit-identical to running
    all trials in one process because ensemble pruning is lossless under any partition.

    ``trace_ctx`` (``{"trace_id", "parent_id"}``) rides *next to* the job payload, never
    inside it: the job fingerprint is content-addressed and two identical jobs must keep
    identical fingerprints whether or not they are traced.  When present, a worker-side
    tracer is installed for the duration of the job and its span tree is returned under
    the top-level ``"trace"`` key — deliberately outside ``"result"``, so the result
    payload that enters the shared :class:`ResultCache` stays trace-free (cached payloads
    are served to unrelated future requests).
    """
    job = TranspileJob.from_dict(payload)
    tracer = None
    if trace_ctx is not None:
        tracer = Tracer(
            trace_id=trace_ctx.get("trace_id"),
            parent_id=trace_ctx.get("parent_id"),
            process="worker",
        )
    try:
        with use_tracer(tracer) if tracer is not None else nullcontext():
            result = job.run(trial_subset=trials)
        result_payload = result.to_dict()
        trace = result_payload.pop("trace", [])
        raw = {"ok": True, "result": result_payload}
        if trace:
            raw["trace"] = trace
        return raw
    except Exception as exc:  # noqa: BLE001 - error isolation is the contract
        raw = _job_error(job, exc, traceback.format_exc())
        if tracer is not None:
            raw["trace"] = tracer.span_dicts()
        return raw


def _init_worker() -> None:
    """Pool-worker initializer: detach the worker from its parent's signal handling.

    A worker forked from ``repro serve`` inherits the event loop's signal wakeup socket
    and its no-op SIGTERM handler.  Left alone, the SIGTERM a broken pool sends its
    surviving workers would be ignored by them and forwarded through the shared socket
    to the server, which would take it as its own shutdown signal.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def default_worker_count() -> int:
    """Worker count used when ``max_workers=None`` (all cores, capped at 8)."""
    return max(1, min(8, os.cpu_count() or 1))


class BatchTranspiler:
    """Job-oriented execution engine above the pass-manager core.

    Parameters
    ----------
    max_workers:
        Pool size.  With ``1`` (or ``0``/negative) :meth:`run` executes in-process;
        ``None`` picks :func:`default_worker_count`.
    cache:
        Optional shared :class:`ResultCache`.  When omitted a private in-memory cache is
        created, so repeated jobs inside and across batches of this executor still hit.
    use_processes:
        ``False`` makes the pool threads instead of processes (no fork costs; tests and
        in-process servers use it).

    The pool is created on the first :meth:`submit` (or by :meth:`start`) and lives until
    :meth:`close`; the executor is also a context manager.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        *,
        cache: Optional[ResultCache] = None,
        use_processes: bool = True,
    ) -> None:
        self.max_workers = default_worker_count() if max_workers is None else max(1, max_workers)
        self.cache = cache if cache is not None else ResultCache()
        self.use_processes = use_processes
        self._pool: Optional[Executor] = None
        self._pool_kind = "none"
        self._lock = threading.Lock()

    # -- pool lifecycle ---------------------------------------------------------

    @property
    def pool_kind(self) -> str:
        """``"process"``, ``"thread"``, or ``"none"`` (no pool created yet)."""
        return self._pool_kind

    def start(self) -> None:
        """Create the pool now instead of on the first :meth:`submit` (idempotent)."""
        self._current_pool()

    def close(self) -> None:
        """Shut the pool down, cancelling jobs that have not started."""
        with self._lock:
            pool, self._pool = self._pool, None
            self._pool_kind = "none"
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "BatchTranspiler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _current_pool(self) -> Executor:
        with self._lock:
            if self._pool is None and self.use_processes:
                try:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.max_workers, initializer=_init_worker
                    )
                    self._pool_kind = "process"
                except (OSError, PermissionError, RuntimeError):
                    pass  # process pools unavailable here (fork disallowed, ...) — use threads
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="repro-transpile"
                )
                self._pool_kind = "thread"
            return self._pool

    # -- submission ---------------------------------------------------------------

    def submit(
        self,
        job: TranspileJob,
        *,
        trace_ctx: Optional[Dict] = None,
        trials: Optional[List[int]] = None,
    ) -> "Future[Dict]":
        """Run one job on the pool; the future resolves to :func:`_execute`'s dict.

        The future never raises: a job error, and a pool that broke under the job twice,
        both resolve to ``{"ok": False, "error": ...}``.
        """
        outer: "Future[Dict]" = Future()
        self._dispatch(outer, job, (job.to_dict(), trace_ctx, trials), retry=True)
        return outer

    def _dispatch(self, outer: Future, job: TranspileJob, args: tuple, retry: bool) -> None:
        pool = self._current_pool()

        def broken(exc: BaseException) -> None:
            # Every job on a dying pool reports the breakage; only the first report drops
            # it (the broken pool has already terminated its own workers).
            with self._lock:
                if self._pool is pool:
                    self._pool = None
            if retry:
                self._dispatch(outer, job, args, retry=False)
            else:
                outer.set_result(_job_error(job, exc))

        def finished(inner: Future) -> None:
            if outer.cancelled():  # the caller stopped waiting (a server shutting down)
                return
            if inner.cancelled():
                outer.cancel()
                return
            exc = inner.exception()
            if exc is None:
                outer.set_result(inner.result())
            elif isinstance(exc, BrokenExecutor):
                broken(exc)
            else:  # the payload or result failed to cross the process boundary
                outer.set_result(_job_error(job, exc))

        try:
            inner = pool.submit(_execute, *args)
        except BrokenExecutor as exc:  # the pool died before this submission
            broken(exc)
            return
        except Exception as exc:  # noqa: BLE001 - shut down meanwhile, fork failed, ...
            outer.set_result(_job_error(job, exc))
            return
        inner.add_done_callback(finished)

    # -- batches ------------------------------------------------------------------

    @property
    def stats(self):
        """Cache statistics of the executor's result cache."""
        return self.cache.stats

    def run(
        self,
        jobs: Sequence[TranspileJob],
        *,
        progress: Optional[ProgressCallback] = None,
    ) -> List[JobOutcome]:
        """Execute a batch, returning one :class:`JobOutcome` per job, in job order."""
        total = len(jobs)
        outcomes: List[Optional[JobOutcome]] = [None] * total
        done = 0

        def settle(index: int, outcome: JobOutcome) -> None:
            nonlocal done
            outcomes[index] = outcome
            done += 1
            if progress is not None:
                progress(done, total, outcome)

        # Phase 1: resolve cache hits and dedupe identical jobs within the batch.
        pending: Dict[str, List[int]] = {}
        for index, job in enumerate(jobs):
            fingerprint = job.fingerprint()
            payload = self.cache.get(fingerprint)
            if payload is not None:
                settle(index, self._outcome_from_payload(job, fingerprint, payload, True))
            else:
                pending.setdefault(fingerprint, []).append(index)

        # Phase 2: execute the unique misses (on the pool when it pays off).
        def settle_executed(fingerprint: str, raw: Dict) -> None:
            if raw.get("ok", False):
                self.cache.put(fingerprint, raw["result"])
            for index in pending[fingerprint]:
                settle(index, self._outcome_from_payload(jobs[index], fingerprint, raw, False))

        if self.max_workers <= 1 or len(pending) == 1:
            for fingerprint, indices in pending.items():
                settle_executed(fingerprint, _execute(jobs[indices[0]].to_dict()))
        elif pending:
            futures = {
                self.submit(jobs[indices[0]]): fingerprint
                for fingerprint, indices in pending.items()
            }
            for future in as_completed(futures):
                settle_executed(futures[future], future.result())
        missing = [i for i, o in enumerate(outcomes) if o is None]
        assert not missing, f"executor lost outcomes for job indices {missing}"
        return outcomes  # type: ignore[return-value]

    def run_one(self, job: TranspileJob) -> JobOutcome:
        """Convenience wrapper: run a single job through the cache + executor."""
        return self.run([job])[0]

    def results(self, jobs: Sequence[TranspileJob], **kwargs) -> List[TranspileResult]:
        """Run a batch and unwrap every outcome (raises on the first failed job)."""
        return [outcome.unwrap() for outcome in self.run(jobs, **kwargs)]

    def _outcome_from_payload(
        self, job: TranspileJob, fingerprint: str, raw: Dict, from_cache: bool
    ) -> JobOutcome:
        if from_cache or raw.get("ok", False):
            payload = raw if from_cache else raw["result"]
            result = TranspileResult.from_dict(payload)
            # Cache entries are shared between identically-configured jobs whatever they
            # are called; the display name always comes from *this* job (falling back to
            # the QASM parser's default for unnamed jobs, never the cached job's label).
            result.circuit.name = job.name or "qasm_circuit"
            return JobOutcome(
                job=job,
                fingerprint=fingerprint,
                result=result,
                from_cache=from_cache,
            )
        return JobOutcome(
            job=job,
            fingerprint=fingerprint,
            error=JobError.from_dict(raw["error"]),
        )
