"""Host-speed calibration for the CPU-bound timings.

The benchmark runs on a few cores of a shared host whose speed drifts
by 30-70% over minutes, as neighbours load its caches and memory. The
drift moves every CPU-bound timing, in wall time and in process CPU
time alike, so ten runs of the same code spread past any useful bound.

A fixed reference kernel, which uses nothing from the repository, runs
beside each timed operation. It slows down with the host, and a timing
divided by the kernel's time next to it does not. A normalized time
is that ratio times the kernel's nominal time on a quiet host
(:data:`NOMINAL_S`): milliseconds at the reference host speed. A change
that makes the program faster lowers it in proportion; the kernel is
the same in every run, so nothing the program does can move it.

Two kernels, for the two kinds of work the program does: ``python``
churns small objects, dicts, lists and a sort, like a compiler pass;
``blas`` runs float64 ``einsum`` contractions, like the engine. Each
takes about 40 ms on a quiet 2-vCPU Xeon host.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Sequence

#: Seconds each kernel takes on a quiet 2-vCPU Xeon host: the speed that
#: normalized times are stated at.
NOMINAL_S = {"python": 0.036, "blas": 0.037}

_operands = None


def _python() -> None:
    rnd = random.Random(7)
    nodes = [
        {"id": i, "name": f"n{i}", "ops": [rnd.random() for _ in range(8)]}
        for i in range(16000)
    ]
    by_name = {node["name"]: node for node in nodes}
    total = 0.0
    for node in sorted(nodes, key=lambda n: n["ops"][3]):
        total += by_name[node["name"]]["ops"][0]


def _blas() -> None:
    import numpy as np

    global _operands
    if _operands is None:
        _operands = (
            np.arange(256 * 512, dtype=np.float64).reshape(256, 512) % 7,
            np.arange(512 * 256, dtype=np.float64).reshape(512, 256) % 5,
        )
    lhs, rhs = _operands
    for _ in range(4):
        np.einsum("ij,jk->ik", lhs, rhs)


_KERNELS = {"python": _python, "blas": _blas}


class HostSpeed:
    """Runs the reference kernels of ``kinds`` between timed operations.

    ``mark()`` runs them and remembers their time on ``clock`` (use the
    clock the operations are timed with); ``normalize(t)`` scales ``t``,
    measured since the previous mark, by the nominal over the mean of
    the marks on either side of it (call it right after the closing
    ``mark()``).
    """

    def __init__(
        self,
        kinds: Sequence[str],
        clock: Callable[[], float] = time.process_time,
    ) -> None:
        self.kinds = tuple(kinds)
        self.clock = clock
        self.nominal = sum(NOMINAL_S[kind] for kind in self.kinds)
        self.previous = None
        self.latest = None

    def measure(self) -> float:
        start = self.clock()
        for kind in self.kinds:
            _KERNELS[kind]()
        return self.clock() - start

    def mark(self) -> None:
        self.previous, self.latest = self.latest, self.measure()

    def factor(self) -> float:
        """Nominal over measured kernel time around the last interval."""
        marks = [m for m in (self.previous, self.latest) if m is not None]
        return self.nominal / (sum(marks) / len(marks))

    def normalize(self, seconds: float) -> float:
        return seconds * self.factor()
