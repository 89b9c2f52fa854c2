"""Row-partitioned multi-worker execution.

``create_engine(workers=k)`` (``k > 1``) lowers through
:func:`repro.runtime.compile.lower` into a :class:`ParallelPlan`, which
partitions the device-stacked execution by rows across a pool of worker
threads (numpy releases the GIL on the hot kernels, so the workers
genuinely overlap), with zero-copy shared stacked arrays,
barrier-bracketed synchronous collectives and a double-buffered mailbox
carrying async ring-permute payloads — making the
communication/computation overlap the paper decomposes for *measured
wall-clock*, not simulated.
"""

from repro.runtime.parallel.errors import (
    BarrierDivergenceError,
    ConcurrencyError,
    DonationRaceError,
    MailboxOverflowError,
    MailboxRoutingError,
    MailboxTimeoutError,
    RaceError,
)
from repro.runtime.parallel.mailbox import TransferMailbox
from repro.runtime.parallel.plan import ParallelPlan
from repro.runtime.parallel.sync import RunContext, WorkerContext

__all__ = [
    "BarrierDivergenceError",
    "ConcurrencyError",
    "DonationRaceError",
    "MailboxOverflowError",
    "MailboxRoutingError",
    "MailboxTimeoutError",
    "ParallelPlan",
    "RaceError",
    "RunContext",
    "TransferMailbox",
    "WorkerContext",
]
