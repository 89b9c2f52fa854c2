"""Abort-aware synchronization primitives for worker pools.

Workers of one :class:`~repro.runtime.parallel.plan.ParallelPlan` run
share three pieces of state, bundled here as :class:`RunContext`:

* a :class:`threading.Barrier` bracketing every synchronous collective
  step (entry barrier: all operand rows written before anyone reads a
  foreign row; exit barrier: all foreign reads finished before anyone
  may overwrite an operand in a later step or loop iteration);
* a :class:`TransferMailbox` carrying async collective-permute payloads
  (see :mod:`repro.runtime.parallel.mailbox`);
* an abort flag. The first worker that raises stores its exception,
  breaks the barrier and sets the flag; every blocking wait in the
  other workers then raises :class:`Aborted`, the run loop joins all
  threads and re-raises the original error on the caller thread.

Memory-ordering contract: CPython guarantees that whatever a thread
wrote before releasing a lock (or setting an :class:`threading.Event`,
or arriving at a barrier) is visible to any thread that subsequently
acquires it — acquire/release semantics on every primitive used here.
Workers only ever *write* rows ``[lo, hi)`` of the shared stacked
arrays they own, and only *read* foreign rows either between an entry
and exit barrier or out of a mailbox payload that was snapshot-copied
by its producer, so every cross-thread read is ordered after the write
it observes by one of these primitives.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

import numpy as np


class Aborted(Exception):
    """Internal unwind signal: another worker already failed."""


#: A consume (or backpressured post) that waits this long has lost its
#: producer (or consumer): fail with a typed mailbox error instead of
#: hanging the run. The sanitizer tightens this to seconds.
DEFAULT_MAILBOX_TIMEOUT = 60.0


class RunContext:
    """Shared state of one multi-worker plan execution."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.barrier = threading.Barrier(workers)
        self.abort = threading.Event()
        self._error_lock = threading.Lock()
        self.error: Optional[BaseException] = None
        # uid of a (possibly nested) plan -> parity -> {slot: array}.
        self.arenas: Dict[int, List[Dict[int, np.ndarray]]] = {}
        # tracer.now of the caller's tracer; None on untraced runs.
        self.clock: Optional[Callable[[], float]] = None
        # Runtime sanitizer (repro.runtime.parallel.sanitize), installed
        # before the workers start; None on ordinary runs.
        self.sanitizer = None
        self.mailbox_timeout: Optional[float] = DEFAULT_MAILBOX_TIMEOUT
        # Barrier waits are unbounded unless the sanitizer arms a
        # deadlock timeout.
        self.barrier_timeout: Optional[float] = None

    def fail(self, error: BaseException) -> None:
        """Record the first failure and wake every blocked worker."""
        with self._error_lock:
            if self.error is None and not isinstance(error, Aborted):
                self.error = error
        self.abort.set()
        self.barrier.abort()

    def wait_barrier(self) -> None:
        try:
            self.barrier.wait(self.barrier_timeout)
        except threading.BrokenBarrierError:
            # A broken barrier usually means another worker failed (the
            # abort flag is set before the barrier is aborted). Under a
            # sanitizer deadlock timeout it can also mean nobody else
            # arrived: give the abort flag a grace window (the peer that
            # broke the barrier by raising sets it within microseconds)
            # before calling it a deadlock.
            if self.abort.is_set() or (
                self.barrier_timeout is not None and self.abort.wait(0.25)
            ):
                raise Aborted() from None
            if self.barrier_timeout is not None:
                from repro.runtime.parallel.errors import (
                    BarrierDivergenceError,
                )

                raise BarrierDivergenceError(
                    "barrier deadlock: no worker arrived within "
                    f"{self.barrier_timeout:.1f}s (some worker is stuck "
                    "or its plan reaches fewer barriers)"
                ) from None
            raise Aborted() from None

    def wait_event(
        self, event: threading.Event, timeout: Optional[float] = None
    ) -> bool:
        """Block on ``event``, aborting promptly if the run failed.

        Returns True once the event is set, False when ``timeout``
        seconds elapse first. The 0.05s poll only bounds how long an
        *abort* goes unnoticed; a normal ``set`` wakes the waiter
        immediately.
        """
        waited = 0.0
        while not event.wait(0.05):
            if self.abort.is_set():
                raise Aborted()
            waited += 0.05
            if timeout is not None and waited >= timeout:
                return False
        return True


class WorkerContext:
    """Per-worker view of a run: identity, row range, shared state.

    ``arena`` is the currently active ``{slot: array}`` mapping — the
    enclosing plan's at top level, swapped by While steps to the body
    plan's parity-selected arena for the duration of each iteration.
    ``recorder`` is the per-worker trace recorder (None when untraced).
    """

    __slots__ = ("worker", "lo", "hi", "ctx", "mailbox", "arena",
                 "recorder", "site")

    def __init__(self, worker: int, lo: int, hi: int, ctx: RunContext,
                 mailbox) -> None:
        self.worker = worker
        self.lo = lo
        self.hi = hi
        self.ctx = ctx
        self.mailbox = mailbox
        self.arena: Dict[int, np.ndarray] = {}
        self.recorder = None
        # Current plan step name, published by run_worker_steps when the
        # sanitizer is on, so each barrier arrival carries its site.
        self.site = ""

    def barrier(self) -> None:
        sanitizer = self.ctx.sanitizer
        if sanitizer is not None:
            sanitizer.arrive(self.worker, self.site)
        self.ctx.wait_barrier()
