"""Typed concurrency errors raised by worker pools and the sanitizer.

Every error is pinned to the static rule id (``CC001``–``CC005``, see
:mod:`repro.analysis.concurrency` and DESIGN.md section 14) that the
same defect would trip at verification time, so the runtime sanitizer,
the chaos harness and the static checker all speak one vocabulary.

Mailbox errors additionally carry the ``(tid, src, dst, parity)`` cell
key and the worker that hit them, so a report can localize the transfer
without replaying the run.
"""

from __future__ import annotations

from typing import Optional, Tuple

Key = Tuple[int, int, int, int]


class ConcurrencyError(RuntimeError):
    """Base of every sanitizer/mailbox concurrency failure.

    ``rule`` is the static rule id the failure corresponds to.
    """

    rule: str = "CC001"

    def __init__(self, message: str, *, worker: Optional[int] = None) -> None:
        self.worker = worker
        where = f" [worker {worker}]" if worker is not None else ""
        super().__init__(f"{self.rule}: {message}{where}")


class RaceError(ConcurrencyError):
    """CC001: unordered access to shared rows (or a broken row partition)."""

    rule = "CC001"


class _MailboxError(ConcurrencyError):
    """Common carrier for the cell key of a mailbox failure."""

    def __init__(
        self, message: str, key: Key, *, worker: Optional[int] = None
    ) -> None:
        self.key = key
        tid, src, dst, parity = key
        detail = (
            f"{message} (transfer tid={tid} w{src}->w{dst} parity={parity})"
        )
        super().__init__(detail, worker=worker)


class MailboxOverflowError(_MailboxError):
    """CC002: a post would reuse a live same-key cell (parity overflow).

    Raised when the double-buffer backpressure wait on a full cell times
    out: a third in-flight transfer is trying to occupy a parity slot
    whose previous payload was never drained.
    """

    rule = "CC002"


class BarrierDivergenceError(ConcurrencyError):
    """CC003: workers reached different barrier sites, or none at all.

    Covers both detected divergence (two workers arrive at one global
    barrier from different plan sites) and the deadlock spelling (a
    sanitized barrier wait that times out because some worker never
    arrives).
    """

    rule = "CC003"


class MailboxTimeoutError(_MailboxError):
    """CC004: a consume waited on a cell that was never posted."""

    rule = "CC004"


class MailboxRoutingError(_MailboxError):
    """CC004: a post/consume key names a different worker than the one
    executing it — the payload is orphaned on its intended channel."""

    rule = "CC004"


class DonationRaceError(ConcurrencyError):
    """CC005: a donated buffer changed while a snapshot still read it."""

    rule = "CC005"


__all__ = [
    "BarrierDivergenceError",
    "ConcurrencyError",
    "DonationRaceError",
    "MailboxOverflowError",
    "MailboxRoutingError",
    "MailboxTimeoutError",
    "RaceError",
]
