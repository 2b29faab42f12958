"""Batch transpilation service: job specs, content-addressed caching, parallel execution.

This is the job-oriented layer above the pass-manager core (``repro.core``), analogous to
the execution services real transpiler stacks ship above their circuit compilers:

* :class:`TranspileJob` — a serialisable spec of one ``transpile()`` call with a
  deterministic content fingerprint.
* :class:`ResultCache` / :class:`CacheStats` — content-addressed result cache (in-memory
  LRU plus optional on-disk JSON store).
* :class:`BatchTranspiler` — the execution engine: owns the one worker pool, fans job
  batches across it with per-job error capture and progress callbacks, and recovers
  from a dead worker.  The HTTP server's runner drives the same engine.
* ``python -m repro`` (:mod:`repro.service.cli`) — command-line front end that regenerates
  the paper's artifacts through the batch executor.
"""

from .cache import CacheStats, ResultCache
from .executor import BatchTranspiler, default_worker_count
from .jobs import JobError, JobOutcome, TranspileJob, jobs_for_seeds

__all__ = [
    "BatchTranspiler",
    "CacheStats",
    "JobError",
    "JobOutcome",
    "ResultCache",
    "TranspileJob",
    "default_worker_count",
    "jobs_for_seeds",
]
