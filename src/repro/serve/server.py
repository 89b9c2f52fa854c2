"""Continuous-batching request server over the unified Engine API.

A :class:`Server` owns one engine (any of :data:`ENGINE_KINDS`), a
bounded request queue and a pool of worker threads. Admission control is
explicit and typed: a full queue rejects with
:class:`~repro.serve.errors.QueueFullError` at submission time, and a
request whose deadline elapses while queued fails with
:class:`~repro.serve.errors.DeadlineExceededError` at dequeue time —
never silently dropped.

Batching is **plan-warm**: a worker drains up to ``max_batch_size``
requests *for the same program* (waiting at most ``max_wait`` for
stragglers), touches the compiled plan cache once for the whole batch,
then executes each request individually. True cross-request input
fusion would be unsound here — these programs run collectives over the
leading dimension (an ``all-gather`` over dim 0 of a fused batch mixes
requests), so the batch amortizes lowering and cache traffic, not
FLOPs. The compiled engine makes this nearly free: after the first
request of a program, every later batch is a cache hit.

All counters flow through one :class:`repro.obs.Tracer` behind a lock
(the tracer itself is single-writer by design): ``serve.requests``,
``serve.batches``, ``serve.completed``, ``serve.rejected_queue_full``,
``serve.deadline_exceeded``, ``serve.typed_failures``,
``serve.untyped_failures``.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.adapt.policy import LadderState
from repro.faults.errors import FaultError
from repro.models.serving import ServableProgram, default_catalog
from repro.obs.tracer import Tracer
from repro.runtime.engine import ENGINE_KINDS, create_engine
from repro.runtime.plan_cache import CacheStats, PlanCache
from repro.serve.errors import (
    DeadlineExceededError,
    DegradedServiceError,
    QueueFullError,
    ServeError,
    ServerClosedError,
    UnknownProgramError,
)

#: Queue-depth multiplier per ladder rung: the deeper the engine has
#: degraded, the less work admission lets pile up behind it. REBALANCED
#: keeps full capacity (same throughput class, different schedule);
#: UNIDIRECTIONAL halves it (half the fabric is out of service);
#: SYNC_FALLBACK quarters it (no overlap — every step pays exposed
#: communication).
SHED_FACTOR = {
    LadderState.FULL: 1.0,
    LadderState.REBALANCED: 1.0,
    LadderState.UNIDIRECTIONAL: 0.5,
    LadderState.SYNC_FALLBACK: 0.25,
}


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """The server's admission-control and execution knobs."""

    engine: str = "compiled"
    max_batch_size: int = 8        # requests per same-program batch
    max_wait: float = 0.002        # seconds a batch waits for stragglers
    queue_depth: int = 64          # bounded queue; beyond this, reject
    workers: int = 2
    default_deadline: Optional[float] = None   # seconds; None = no deadline
    plan_cache_capacity: int = 64
    #: Worker threads of each compiled-engine run; validated by
    #: create_engine when the server builds its engine.
    engine_workers: Optional[int] = None
    #: Autotuner database for the engine: ``True`` = the committed
    #: default path, a string = that path, ``None``/``False`` = off.
    tuned: Any = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_KINDS:
            raise ValueError(
                f"unknown engine kind {self.engine!r}; "
                f"expected one of {ENGINE_KINDS}"
            )
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        if self.tuned is not None and self.tuned is not False:
            if "tuned" not in ENGINE_KINDS.options_for(self.engine):
                takers = ENGINE_KINDS.accepting("tuned")
                raise ValueError(
                    f"tuned does not apply to {self.engine!r} engines"
                    + (f" (only to {takers})" if takers else "")
                )


class PendingRequest:
    """One submitted request: a future over the engine's output dict."""

    def __init__(
        self,
        program: str,
        inputs: Dict[str, List[np.ndarray]],
        deadline: Optional[float],
        submitted_at: float,
    ) -> None:
        self.program = program
        self.inputs = inputs
        self.deadline = deadline          # absolute perf_counter time
        self.submitted_at = submitted_at
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.values: Optional[Dict[str, Any]] = None
        self.error: Optional[BaseException] = None
        self._event = threading.Event()

    # --- completion (worker side) ----------------------------------------------

    def _complete(self, values: Dict[str, Any]) -> None:
        self.values = values
        self.finished_at = time.perf_counter()
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self.error = error
        self.finished_at = time.perf_counter()
        self._event.set()

    # --- client side ------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until the request finishes; re-raise its typed error."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request for {self.program!r} still pending after "
                f"{timeout}s"
            )
        if self.error is not None:
            raise self.error
        assert self.values is not None
        return self.values

    @property
    def latency(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def queue_wait(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at


@dataclasses.dataclass(frozen=True)
class ServerStats:
    """A consistent snapshot of the server's counters and cache state."""

    counters: Dict[str, float]
    peak_queue_depth: int
    plan_cache: Optional[CacheStats]
    ladder_state: str = LadderState.FULL.name.lower()
    tuning_db: Optional[Dict[str, int]] = None

    @property
    def requests(self) -> int:
        return int(self.counters.get("serve.requests", 0))

    @property
    def completed(self) -> int:
        return int(self.counters.get("serve.completed", 0))

    @property
    def batches(self) -> int:
        return int(self.counters.get("serve.batches", 0))

    @property
    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return self.counters.get("serve.batched_requests", 0) / self.batches

    @property
    def untyped_failures(self) -> int:
        return int(self.counters.get("serve.untyped_failures", 0))

    def to_json(self) -> Dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "peak_queue_depth": self.peak_queue_depth,
            "plan_cache": (
                self.plan_cache.to_json() if self.plan_cache else None
            ),
            "mean_batch_size": self.mean_batch_size,
            "ladder_state": self.ladder_state,
            "tuning_db": self.tuning_db,
        }


class Server:
    """Continuous-batching execution server over a program catalog."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        catalog: Optional[Dict[str, ServableProgram]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.catalog = catalog if catalog is not None else default_catalog()
        self.tracer = tracer or Tracer()
        self.plan_cache = PlanCache(capacity=self.config.plan_cache_capacity)
        # The engine runs untraced (worker threads would race on the
        # tracer's event list); cache behaviour is observable through
        # ``plan_cache.stats`` and the locked serve.* counters instead.
        # A plan-caching back end shares the server's cache, so stats
        # and prefetch work for every worker count.
        options: Dict[str, Any] = {}
        kind_options = ENGINE_KINDS.options_for(self.config.engine)
        if "plan_cache" in kind_options:
            options["plan_cache"] = self.plan_cache
        self.engine = create_engine(
            self.config.engine,
            workers=self.config.engine_workers,
            tuned=self.config.tuned,
            **options,
        )
        self._modules: Dict[str, Any] = {}
        self._module_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._queue: Deque[PendingRequest] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._ladder_state = LadderState.FULL
        self.peak_queue_depth = 0
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # --- observability ----------------------------------------------------------

    def _count(self, key: str, value: float = 1) -> None:
        with self._counter_lock:
            self.tracer.count(key, value)

    def stats(self) -> ServerStats:
        with self._counter_lock:
            counters = dict(self.tracer.counters)
        with self._cond:
            ladder_state = self._ladder_state
        db = getattr(self.engine, "tuning_db", None)
        return ServerStats(
            counters=counters,
            peak_queue_depth=self.peak_queue_depth,
            plan_cache=(
                self.plan_cache.stats
                if "plan_cache" in ENGINE_KINDS.options_for(self.config.engine)
                else None
            ),
            ladder_state=ladder_state.name.lower(),
            tuning_db=None if db is None else db.stats.to_json(),
        )

    # --- health-aware admission ---------------------------------------------------

    def report_ladder_state(self, state: LadderState) -> None:
        """Feed the engine's degradation rung into admission control.

        Called by whoever runs the adaptation loop (the ladder executor,
        or an operator reacting to the health monitor). Below FULL, the
        effective queue depth shrinks by :data:`SHED_FACTOR` and excess
        load is shed with a typed
        :class:`~repro.serve.errors.DegradedServiceError` so clients
        back off or reroute instead of queueing behind a degraded
        engine.
        """
        state = LadderState(state)
        with self._cond:
            changed = state is not self._ladder_state
            self._ladder_state = state
        if changed:
            self._count(f"serve.ladder.{state.name.lower()}")

    def _effective_queue_depth(self, state: LadderState) -> int:
        return max(1, int(self.config.queue_depth * SHED_FACTOR[state]))

    # --- submission (client side) ------------------------------------------------

    def submit(
        self,
        program: str,
        inputs: Optional[Dict[str, List[np.ndarray]]] = None,
        *,
        deadline: Optional[float] = None,
        seed: int = 0,
    ) -> PendingRequest:
        """Enqueue one request; returns immediately with a future.

        ``deadline`` is seconds from now (defaulting to the server's
        ``default_deadline``); the request fails typed if it has not
        *started* by then. ``inputs`` defaults to the program's own
        seeded input generator — the self-test path.
        """
        spec = self.catalog.get(program)
        if spec is None:
            self._count("serve.rejected_unknown_program")
            raise UnknownProgramError(program, self.catalog)
        if inputs is None:
            inputs = spec.make_inputs_seeded(seed)
        now = time.perf_counter()
        relative = (
            deadline if deadline is not None
            else self.config.default_deadline
        )
        request = PendingRequest(
            program,
            inputs,
            None if relative is None else now + relative,
            now,
        )
        with self._cond:
            if self._closed:
                raise ServerClosedError(
                    f"server is closed; request for {program!r} not accepted",
                    program=program,
                )
            state = self._ladder_state
            depth = self._effective_queue_depth(state)
            if len(self._queue) >= depth:
                if depth < self.config.queue_depth:
                    self._count("serve.shed_degraded")
                    raise DegradedServiceError(
                        program, state.name.lower(), depth
                    )
                self._count("serve.rejected_queue_full")
                raise QueueFullError(program, len(self._queue))
            self._queue.append(request)
            self.peak_queue_depth = max(
                self.peak_queue_depth, len(self._queue)
            )
            self._cond.notify()
        self._count("serve.requests")
        return request

    # --- worker side ------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            self._execute_batch(batch)

    def _take_batch(self) -> Optional[List[PendingRequest]]:
        """Pop the oldest request plus up to ``max_batch_size - 1`` more
        for the *same program*, waiting at most ``max_wait`` for
        stragglers. Returns ``None`` when the server is closed and the
        queue is drained."""
        config = self.config
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None
                self._cond.wait()
            first = self._queue.popleft()
            batch = [first]
            wait_until = time.perf_counter() + config.max_wait
            while len(batch) < config.max_batch_size:
                matched = False
                for index, request in enumerate(self._queue):
                    if request.program == first.program:
                        del self._queue[index]
                        batch.append(request)
                        matched = True
                        break
                if matched:
                    continue
                remaining = wait_until - time.perf_counter()
                if remaining <= 0 or self._closed:
                    break
                self._cond.wait(timeout=remaining)
                if not self._queue and self._closed:
                    break
            if self._queue:
                self._cond.notify()
        return batch

    def _module_for(self, spec: ServableProgram) -> Any:
        with self._module_lock:
            module = self._modules.get(spec.name)
            if module is None:
                module = spec.build_module()
                db = getattr(self.engine, "tuning_db", None)
                if db is not None:
                    # Resolve the tuned compilation once, up front, so
                    # the plan-warm prefetch below and every later run
                    # all see the tuned program (``engine.run`` would
                    # otherwise resolve it per call).
                    from repro.runtime.engine import resolve_tuned_module

                    module = resolve_tuned_module(
                        module, spec.num_devices, db
                    )
                self._modules[spec.name] = module
        return module

    def _fail_request(self, request: PendingRequest, error: BaseException) -> None:
        if isinstance(error, (ServeError, FaultError)):
            self._count("serve.typed_failures")
        else:
            self._count("serve.untyped_failures")
        request._fail(error)

    def _execute_batch(self, batch: List[PendingRequest]) -> None:
        self._count("serve.batches")
        self._count("serve.batched_requests", len(batch))
        now = time.perf_counter()
        live: List[PendingRequest] = []
        for request in batch:
            if request.deadline is not None and now > request.deadline:
                self._count("serve.deadline_exceeded")
                self._fail_request(
                    request,
                    DeadlineExceededError(
                        request.program,
                        request.deadline - request.submitted_at,
                        now - request.submitted_at,
                    ),
                )
            else:
                live.append(request)
        if not live:
            return
        spec = self.catalog[live[0].program]
        try:
            module = self._module_for(spec)
            if hasattr(self.engine, "plan_for"):
                # Plan-warm: one cache fetch covers the whole batch.
                self.engine.plan_for(module, num_devices=spec.num_devices)
        except BaseException as error:  # noqa: BLE001 - audited & classified
            for request in live:
                self._fail_request(request, error)
            return
        for request in live:
            request.started_at = time.perf_counter()
            try:
                values = self.engine.run(
                    module, request.inputs, mesh=spec.num_devices
                )
            except BaseException as error:  # noqa: BLE001 - audited
                self._fail_request(request, error)
            else:
                request._complete(values)
                self._count("serve.completed")

    # --- lifecycle ----------------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop accepting requests; by default let workers drain the
        queue, otherwise fail every queued request typed."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            dropped: List[PendingRequest] = []
            if not drain:
                dropped = list(self._queue)
                self._queue.clear()
            self._cond.notify_all()
        for request in dropped:
            self._fail_request(
                request,
                ServerClosedError(
                    f"server closed with request for {request.program!r} "
                    f"still queued",
                    program=request.program,
                ),
            )
        for worker in self._workers:
            worker.join()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
