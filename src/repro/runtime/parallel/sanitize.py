"""The runtime concurrency sanitizer (TSan-style, opt-in).

``create_engine(sanitize=True)`` (or ``repro chaos --sanitize``) arms
this instrumentation for every run:

* **Bounds preflight** — the plan's declared row-ownership partition is
  validated before any worker starts; overlap or gaps raise
  :class:`RaceError` (CC001).
* **Barrier site tracking** — each worker publishes ``(site, seq)``
  (the plan step it is arriving from and its arrival ordinal) before
  every barrier wait; a barrier action compares all workers' latest
  arrivals and raises :class:`BarrierDivergenceError` (CC003) the
  instant two workers meet at one global barrier from different plan
  sites. A bounded barrier wait turns a worker that never arrives into
  the same typed error instead of a hang.
* **Mailbox routing and epochs** — each worker registers its thread, so
  a post whose key names a different source worker, or a consume whose
  key names a different destination worker, raises
  :class:`MailboxRoutingError` (CC004) at the call site; the mailbox
  timeout is tightened from the 60s production default to seconds so
  orphaned posts/consumes (CC004) and parity-window overflows (CC002)
  surface fast.
* **Pin-window checksums** (single-worker plans) — a deferred permute's
  operand is checksummed when the transfer is issued and verified when
  the done materializes it; any mutation of the window raises
  :class:`DonationRaceError` (CC005).

Overhead when armed is a few dict/tuple operations per barrier and
mailbox call — far below the kernels they bracket — and exactly one
attribute check per call when disarmed.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.parallel.errors import (
    BarrierDivergenceError,
    DonationRaceError,
    MailboxRoutingError,
    RaceError,
)

Key = Tuple[int, int, int, int]

#: Sanitized runs bound every wait tightly: a healthy plan clears a
#: barrier or mailbox cell in microseconds, so seconds of silence is a
#: verdict, not noise.
SANITIZE_MAILBOX_TIMEOUT = 2.0
SANITIZE_BARRIER_TIMEOUT = 5.0

#: Sample stride of the pin-window checksum: cheap on big operands,
#: exact on small ones.
_CHECKSUM_STRIDE = 64


def checksum(array: np.ndarray) -> float:
    """A strided sample checksum of ``array`` (order-stable, exact on
    an unmutated buffer)."""
    flat = array.reshape(-1)
    sample = flat[::_CHECKSUM_STRIDE]
    return float(sample.sum()) + 0.5 * float(flat[0]) + float(flat[-1])


def verify_pin_window(
    module_name: str,
    step_name: str,
    armed: Tuple[str, float],
    array: Optional[np.ndarray],
) -> None:
    """Raise CC005 if a pinned operand changed since its start step."""
    origin, expected = armed
    if array is None or checksum(array) != expected:
        raise DonationRaceError(
            f"{module_name}:{step_name}: deferred-permute operand pinned "
            f"at {origin} was mutated before the done consumed it"
        )


def run_pinned(
    plan, stacked_args: Sequence[np.ndarray], iteration: int
) -> List[np.ndarray]:
    """A single-worker plan's run loop plus CC005 pin-window checksums.

    After a deferred permute start, the operand array must stay
    bit-identical until the matching done reads it (the lowering pins
    its buffer against release and donation). A strided checksum armed
    at the start and verified at the done catches any step that mutates
    the window anyway.
    """
    env: List[Optional[np.ndarray]] = plan.initial_env.copy()
    for binding, value in zip(plan.params, stacked_args):
        env[binding.slot] = value
    # slot -> (origin step, checksum, live pin count): overlapping
    # transfers may pin one operand more than once, and the window stays
    # armed until the last done unpins it.
    pins: Dict[int, Tuple[str, float, int]] = {}
    for step, site in zip(plan.steps, plan.model.steps):
        ops = site.ops[0]
        for op in ops:
            if op.kind == "unpin" and op.slot in pins:
                origin, expected, count = pins[op.slot]
                verify_pin_window(
                    plan.module_name, site.name, (origin, expected),
                    env[op.slot],
                )
                if count > 1:
                    pins[op.slot] = (origin, expected, count - 1)
                else:
                    del pins[op.slot]
        step(env, iteration)
        for op in ops:
            if op.kind == "pin":
                array = env[op.slot]
                assert array is not None
                if op.slot in pins:
                    origin, expected, count = pins[op.slot]
                    verify_pin_window(
                        plan.module_name, site.name, (origin, expected),
                        array,
                    )
                    pins[op.slot] = (origin, expected, count + 1)
                else:
                    pins[op.slot] = (site.name, checksum(array), 1)
    return [env[plan.output_slots[name]] for name in plan.output_order]


class Sanitizer:
    """Per-run instrumentation state, installed on the RunContext."""

    def __init__(self, plan) -> None:
        self.plan = plan
        self.mailbox_timeout = SANITIZE_MAILBOX_TIMEOUT
        self.barrier_timeout = SANITIZE_BARRIER_TIMEOUT
        workers = plan.workers
        self._sites: List[Tuple[str, int]] = [("", -1)] * workers
        self._seq: List[int] = [0] * workers
        self._tls = threading.local()
        self._lock = threading.Lock()
        self.barriers_checked = 0
        self.posts = 0
        self.consumes = 0

    # -- installation --------------------------------------------------

    def install(self, ctx) -> None:
        ctx.sanitizer = self
        ctx.mailbox_timeout = self.mailbox_timeout
        ctx.barrier_timeout = self.barrier_timeout
        # Rebuild the barrier with the divergence check as its action:
        # it runs once per cycle, in the last-arriving thread, with
        # every worker's published site visible.
        ctx.barrier = threading.Barrier(
            ctx.workers, action=self._check_sites
        )

    def register_thread(self, worker: int) -> None:
        self._tls.worker = worker

    def current_worker(self) -> Optional[int]:
        return getattr(self._tls, "worker", None)

    # -- barrier instrumentation ---------------------------------------

    def arrive(self, worker: int, site: str) -> None:
        seq = self._seq[worker]
        self._seq[worker] = seq + 1
        self._sites[worker] = (site, seq)

    def _check_sites(self) -> None:
        self.barriers_checked += 1
        first = self._sites[0]
        for worker, arrival in enumerate(self._sites):
            if arrival != first:
                pairs = ", ".join(
                    f"w{w}@{site!r}#{seq}"
                    for w, (site, seq) in enumerate(self._sites)
                )
                raise BarrierDivergenceError(
                    "workers met at one barrier from different plan "
                    f"sites: {pairs}", worker=worker,
                )

    # -- mailbox instrumentation ---------------------------------------

    def on_post(self, key: Key) -> None:
        with self._lock:
            self.posts += 1
        worker = self.current_worker()
        if worker is not None and key[1] != worker:
            raise MailboxRoutingError(
                f"worker {worker} posted a cell keyed for source worker "
                f"{key[1]}", key, worker=worker,
            )

    def on_consume(self, key: Key) -> None:
        with self._lock:
            self.consumes += 1
        worker = self.current_worker()
        if worker is not None and key[2] != worker:
            raise MailboxRoutingError(
                f"worker {worker} consumed a cell keyed for destination "
                f"worker {key[2]}", key, worker=worker,
            )

    # -- preflight and reporting ---------------------------------------

    def check_bounds(self) -> None:
        """CC001 preflight: the declared row ownership must partition
        ``[0, num_devices)`` into strictly increasing contiguous
        ranges."""
        plan = self.plan
        bounds = tuple(plan.bounds)
        ok = (
            len(bounds) == plan.workers + 1
            and bounds[0] == 0
            and bounds[-1] == plan.num_devices
            and all(a < b for a, b in zip(bounds, bounds[1:]))
        )
        if not ok:
            raise RaceError(
                f"{plan.module_name}: declared worker bounds "
                f"{list(bounds)} do not partition the "
                f"{plan.num_devices} device rows — overlapping or "
                "missing ownership means unordered writes"
            )

    def emit_summary(self, tracer) -> None:
        """One SANITIZE counter set per traced run."""
        tracer.count("sanitize.barriers", self.barriers_checked)
        tracer.count("sanitize.posts", self.posts)
        tracer.count("sanitize.consumes", self.consumes)


__all__ = [
    "SANITIZE_BARRIER_TIMEOUT",
    "SANITIZE_MAILBOX_TIMEOUT",
    "Sanitizer",
    "checksum",
    "run_pinned",
    "verify_pin_window",
]
