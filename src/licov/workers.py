"""The worker pool of the ICP-bound stages, generate and fuse.

ICP's iteration is Python-level numpy that holds the interpreter lock, so
threads align one at a time; forked processes do not share the lock. A
pool of several workers forks them from the calling process, which hands
each one the run's context (sequence, settings, model, an injected align)
by inheritance, not by pickling, so closures reach the workers too. Task
functions are module-level and take that context first. One worker, or a
platform without fork, runs the tasks on threads of this process.
"""
from __future__ import annotations

import multiprocessing
import signal
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

_context = None  # the run's context, in a forked worker


def _start(context):
    global _context
    _context = context
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle


def _call(fn, *args):
    return fn(_context, *args)


class Pool:
    """min(threads, tasks) workers; leaving the block joins them, and
    cancels the queued tasks first when it is left by an exception."""

    def __init__(self, threads: int, tasks: int, context):
        workers = max(1, min(threads, tasks))
        self._context = context
        self._forked = workers > 1 and "fork" in multiprocessing.get_all_start_methods()
        if self._forked:
            for stream in (sys.stdout, sys.stderr):  # a worker flushes what it inherits
                stream.flush()
            self._pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                             initializer=_start, initargs=(context,))
        else:
            self._pool = ThreadPoolExecutor(workers)

    def submit(self, fn, *args):
        """The future of fn(context, *args)."""
        if self._forked:
            return self._pool.submit(_call, fn, *args)
        return self._pool.submit(fn, self._context, *args)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self._pool.shutdown(cancel_futures=exc_type is not None)
