"""The worker pool of the ICP-bound stages, generate and fuse.

ICP's iteration is Python-level numpy that holds the interpreter lock, so
threads align one at a time; forked processes do not share the lock. A
pool of several workers forks them from the calling process, which hands
each one the run's context (sequence, settings, model, an injected align)
by inheritance, not by pickling, so closures reach the workers too. Task
functions are module-level and take that context first. One worker, or a
platform without fork, runs the tasks on threads of this process.

The pool keeps the fault order of the caller's serial loop. Each task is
submitted at a place, an orderable key of that loop; the first fault in
the loop's order is the one raised, whichever was seen first.
"""
from __future__ import annotations

import multiprocessing
import signal
import sys
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, ThreadPoolExecutor, wait

_context = None  # the run's context, in a forked worker


def _start(context):
    global _context
    _context = context
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle


def _call(fn, *args):
    return fn(_context, *args)


class Pool:
    """min(threads, tasks) workers, where `tasks` bounds the tasks the
    caller has in flight at once.

    A fault comes from a task or from the caller's own step (fail). Once
    one is recorded, nothing placed after it starts: queued later tasks are
    cancelled and later submits refused. Leaving the block joins the
    workers and raises the earliest fault, when every task placed before
    it has finished; left by an exception, it cancels the queued tasks
    first.
    """

    def __init__(self, threads: int, tasks: int, context):
        workers = max(1, min(threads, tasks))
        self._context = context
        self._tasks = {}     # future -> place
        self._fault = None   # (place, error) of the earliest fault
        self._forked = workers > 1 and "fork" in multiprocessing.get_all_start_methods()
        if self._forked:
            for stream in (sys.stdout, sys.stderr):  # a worker flushes what it inherits
                stream.flush()
            self._pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                             initializer=_start, initargs=(context,))
        else:
            self._pool = ThreadPoolExecutor(workers)

    def allows(self, place) -> bool:
        """Whether place comes before every fault recorded."""
        return self._fault is None or place < self._fault[0]

    def submit(self, place, fn, *args):
        """Run fn(context, *args) at place, unless a fault is at or before it."""
        if not self.allows(place):
            return
        if self._forked:
            future = self._pool.submit(_call, fn, *args)
        else:
            future = self._pool.submit(fn, self._context, *args)
        self._tasks[future] = place

    def fail(self, place, error):
        """Record error at place and cancel the queued tasks after it."""
        if self.allows(place):
            self._fault = (place, error)
            for future, later in self._tasks.items():
                if later > place:
                    future.cancel()

    def results(self):
        """Yield (place, result) of each task as it finishes, in place order
        among those that finish together, until no task is left; a task
        placed after a fault yields nothing."""
        while self._tasks:
            done, _ = wait(self._tasks, return_when=FIRST_COMPLETED)
            for future in sorted(done, key=self._tasks.get):
                place = self._tasks.pop(future)
                if future.cancelled():
                    continue
                if future.exception() is not None:
                    self.fail(place, future.exception())
                elif self.allows(place):
                    yield place, future.result()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self._pool.shutdown(cancel_futures=exc_type is not None)
        if exc_type is None and self._fault is not None:
            raise self._fault[1]
