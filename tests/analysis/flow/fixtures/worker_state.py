"""Deliberate RPR3xx violations: worker-shared mutable state.

This module is a lint fixture — it is parsed by the flow analyzer in
tests, never imported or executed.  ``run_all`` submits ``worker_task``
to a thread pool; everything the worker (and its callees) writes to
shared state below is an intentional violation.  ``run_merged`` is the
clean counterpart: its shared accumulator is a ``DataLog``, whose merge
is registered as deterministic.  ``run_mapped`` maps a worker over its
jobs; each job is one task's own item, so mutating it is clean too.
"""

from concurrent.futures import ThreadPoolExecutor


class DataLog:
    """Stand-in for repro.lab.datalog.DataLog (merge-registered type)."""

    def merge(self, other):
        """Deterministic chip-order merge."""


class WorkerPool:
    """Carries the class attribute the worker races on."""

    last_result = None


RESULTS = []
_TOTALS = {}
RUN_COUNT = 0
SHARED_LOG = DataLog()


def worker_task(index, payload, sink):
    """The racy worker: RPR301/302/303/304/305 live here."""
    global RUN_COUNT
    retries = 0

    def note_retry():
        """RPR303: workers race on the closure cell."""
        nonlocal retries
        retries = retries + 1

    RUN_COUNT = RUN_COUNT + 1
    RESULTS.append(payload)
    _TOTALS[index] = payload
    WorkerPool.last_result = payload
    sink.update({index: payload})
    note_retry()
    SHARED_LOG.merge(payload)
    return index


def merging_task(index, log: DataLog):
    """Clean worker: the shared accumulator merges deterministically."""
    log.merge(index)
    return index


def run_all(payloads, sink):
    """Submit the racy worker across a pool."""
    with ThreadPoolExecutor() as pool:
        futures = [
            pool.submit(worker_task, i, p, sink) for i, p in enumerate(payloads)
        ]
    return [f.result() for f in futures]


def run_merged(payloads, log: DataLog):
    """Submit the clean worker across a pool."""
    with ThreadPoolExecutor() as pool:
        futures = [pool.submit(merging_task, i, log) for i in range(len(payloads))]
    return [f.result() for f in futures]


def mapped_task(job):
    """Clean mapped worker: the job it mutates belongs to this task."""
    job.append(len(job))
    return job


def run_mapped(jobs):
    """Map the clean worker across a pool."""
    with ThreadPoolExecutor() as pool:
        return list(pool.map(mapped_task, jobs))
