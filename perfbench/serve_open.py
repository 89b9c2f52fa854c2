"""Workload ``serve-open``: an open loop of requests against ``Server``.

One generator thread submits requests at seeded Poisson arrival times
(a fixed count per rung, placed uniformly at random over the rung, which
is a Poisson process conditioned on its count). Each request draws a
program from the default 12-program serve catalog and one of
:data:`POOL` seeded integer-valued inputs for it. The server runs the
default :class:`~repro.serve.ServeConfig`. Latency counts from each
request's *due* time, so a stalled generator or server charges the
wait to every request behind it.

The run climbs all of :data:`LADDER`; a rung passes when its p90 meets
:data:`LIMIT_MS`, nothing is refused or failed, and the queue drains
within the limit after the last arrival (no growing backlog). The
highest passing rung is the server's maximum rate. Every run climbs to
the top, so the run's length and peak memory do not depend on where
the host's speed put the maximum.

After the ladder, a closed loop keeps :data:`OUTSTANDING` requests in
flight for a while; the requests it completes per second are the
server's capacity.

Output check: every response is ``array_equal`` to the interpreter's
output for the same program and input, computed in set-up.
"""

from __future__ import annotations

import collections
import gc
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.pipeline import clear_compile_cache
from repro.faults.errors import FaultError
from repro.perfsim.simulator import simulate
from repro.runtime.engine import create_engine
from repro.serve import ServeConfig, Server
from repro.serve.errors import ServeError

from harness import (
    Outcome, Spans, clock, geomean, hit_rate_since, median, percentile,
)

#: Offered rates, requests per second.
LADDER = (100, 250, 500, 1000, 1500, 2000, 3000)
#: The named rates, gated and given twice the time of the other rungs.
#: Both sit far below the server's capacity (1000-2000 req/s on a shared
#: 2-vCPU host, depending on its load): there they hold without
#: refusals, and their medians stay within the gate through the host's
#: slow phases, which the latency near capacity does not.
LOW, HIGH = 100, 250
#: The p90 latency limit a rung must meet, and the drain-time bound.
LIMIT_MS = 50.0
#: Requests kept in flight by the closed loop: half the default queue
#: depth, so none is refused.
OUTSTANDING = 32
#: Seeded inputs per program.
POOL = 4
#: Reference kernels set-up time is normalized by (see calibrate.py):
#: set-up builds modules and runs the interpreter on tiny programs.
KERNELS = ("python",)
#: How long to wait for any one response before calling it failed.
RESULT_TIMEOUT_S = 30.0


def setup(seed: int):
    """Cold set-up: a fresh server whose plan cache is warmed with one
    request per program, and the interpreter's outputs for every
    pooled input."""
    clear_compile_cache()
    server = Server(ServeConfig())
    oracle = create_engine("interpreted")
    names = sorted(server.catalog)
    pool: Dict[str, List[Tuple[Dict, Dict]]] = {}
    for index, name in enumerate(names):
        spec = server.catalog[name]
        module = spec.build_module()
        rng = np.random.default_rng([seed, index])
        entries = []
        for _ in range(POOL):
            inputs = {
                param: [np.rint(2 * shard) for shard in shards]
                for param, shards in spec.make_inputs(rng).items()
            }
            expected = oracle.run(module, inputs, mesh=spec.num_devices)
            entries.append((inputs, expected))
        server.submit(name, dict(entries[0][0])).result(RESULT_TIMEOUT_S)
        pool[name] = entries
    return server, names, pool


def predicted_speedup(server: Server) -> float:
    """Perfsim's raw/overlapped ratio over the catalog's pairs, geomean."""
    ratios = []
    for name, spec in server.catalog.items():
        if spec.config is None:
            continue
        raw = server.catalog[name.replace("+overlap", "")]
        ratios.append(
            simulate(raw.build_module(), raw.mesh()).total_time
            / simulate(spec.build_module(), spec.mesh()).total_time
        )
    return geomean(ratios)


def _served(ticket: Any) -> bool:
    return (
        ticket is not None
        and ticket.finished_at is not None
        and ticket.error is None
    )


class Rung:
    """One rate's requests and what became of them."""

    def __init__(self, rate: int) -> None:
        self.rate = rate
        self.requests: List[Tuple[float, str, int, Any]] = []
        self.begin = self.end = 0.0
        self.counters: Dict[str, float] = {}   # server counters' change

    def latencies_ms(self) -> List[float]:
        """From due time to response; a refused or failed request
        counts as waiting until the rung ended."""
        values = []
        for due, _, _, ticket in self.requests:
            done = ticket.finished_at if _served(ticket) else self.end
            values.append((done - due) * 1e3)
        return values

    def failures(self) -> int:
        return sum(1 for _, _, _, t in self.requests if not _served(t))

    def drain_s(self) -> float:
        return self.end - self.requests[-1][0]

    def passed(self) -> bool:
        return bool(
            self.failures() == 0
            and percentile(self.latencies_ms(), 0.9) <= LIMIT_MS
            and self.drain_s() * 1e3 <= LIMIT_MS
        )

    def achieved_per_s(self) -> float:
        done = len(self.requests) - self.failures()
        return done / (self.end - self.begin)

    def queue_peak(self) -> int:
        """Most requests waiting at once (submitted, not started)."""
        served = [t for _, _, _, t in self.requests if _served(t)]
        steps = sorted(
            [(t.submitted_at, 1) for t in served]
            + [(t.started_at, -1) for t in served]
        )
        depth = peak = 0
        for _, step in steps:
            depth += step
            peak = max(peak, depth)
        return peak

    def ticket_ms(self, field: str, since: str) -> List[float]:
        return [
            (getattr(t, field) - getattr(t, since)) * 1e3
            for _, _, _, t in self.requests
            if _served(t)
        ]


def run_rung(
    server: Server, names, pool, rate: int, duration: float,
    rng: np.random.Generator, ops: Optional[Dict[int, int]] = None,
) -> Rung:
    """Offer ``rate`` requests/s for ``duration`` seconds and wait for
    every response. With ``ops``, each request's input dict is numbered
    there (by ``id``) before submission, so a traced engine call can
    tell which request it serves."""
    rung = Rung(rate)
    count = max(1, round(rate * duration))
    offsets = np.sort(rng.uniform(0.0, duration, size=count))
    programs = rng.integers(len(names), size=count)
    picks = rng.integers(POOL, size=count)
    gc.collect()
    before = server.stats().counters
    rung.begin = clock() + 0.005
    for offset, program, pick in zip(offsets, programs, picks):
        due = rung.begin + float(offset)
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        name = names[program]
        inputs = dict(pool[name][pick][0])
        if ops is not None:
            ops[id(inputs)] = len(ops) + 1
        try:
            ticket: Optional[Any] = server.submit(name, inputs)
        except ServeError:
            ticket = None
        rung.requests.append((due, name, int(pick), ticket))
    for _, _, _, ticket in rung.requests:
        if ticket is not None:
            try:
                ticket.result(RESULT_TIMEOUT_S)
            except (ServeError, FaultError, TimeoutError):
                pass
    rung.end = clock()
    rung.counters = {
        key: value - before.get(key, 0)
        for key, value in server.stats().counters.items()
    }
    return rung


def _counted(rung: Rung) -> bool:
    """Whether a rung's failures count: rungs above the maximum rate
    (failing rungs above the high rate) are left out."""
    return rung.rate <= HIGH or rung.passed()


def check_response(out: Outcome, ticket, expected, what: str) -> None:
    """Check one response against the interpreter's outputs, then drop
    it so memory does not grow with the number of requests."""
    if not _served(ticket):
        out.check(False, f"{what}: refused or failed")
    else:
        got = list(ticket.values.values())
        out.check(
            len(got) == len(expected) and all(
                np.array_equal(np.asarray(a), np.asarray(b))
                for a, b in zip(got, expected.values())
            ),
            f"{what}: differs from the interpreter",
        )
    if ticket is not None:
        ticket.values = None


def check_rung(out: Outcome, rung: Rung, pool) -> None:
    """Check every counted response of a rung."""
    count = _counted(rung)
    for _, name, pick, ticket in rung.requests:
        if count:
            check_response(
                out, ticket, pool[name][pick][1], f"{rung.rate}/s {name}"
            )
        elif ticket is not None:
            ticket.values = None


def closed_loop(
    out: Outcome, server: Server, names, pool, seed: int, duration: float
) -> float:
    """Keep :data:`OUTSTANDING` requests in flight for ``duration``
    seconds, replacing the oldest as it completes; checks every response
    and returns the requests served per second."""
    rng = np.random.default_rng([seed, len(LADDER)])
    window: collections.deque = collections.deque()
    served = 0

    def submit() -> None:
        name = names[rng.integers(len(names))]
        pick = int(rng.integers(POOL))
        inputs = dict(pool[name][pick][0])
        try:
            ticket: Optional[Any] = server.submit(name, inputs)
        except ServeError:
            ticket = None
        window.append((name, pick, ticket))

    gc.collect()
    begin = clock()
    for _ in range(OUTSTANDING):
        submit()
    while window:
        name, pick, ticket = window.popleft()
        if ticket is not None:
            try:
                ticket.result(RESULT_TIMEOUT_S)
            except (ServeError, FaultError, TimeoutError):
                pass
        served += int(_served(ticket))
        check_response(out, ticket, pool[name][pick][1], f"closed {name}")
        if clock() - begin < duration:
            submit()
    return served / (clock() - begin)


def climb(out: Outcome, server, names, pool, seed: int, seconds: float):
    """Run the ladder; returns the rungs run and the highest passing.
    The ladder takes ``seconds`` in units of ``seconds / (rungs + 2)``:
    one per rung, two for each named rung."""
    unit = seconds / (len(LADDER) + 2)
    rungs: List[Rung] = []
    for index, rate in enumerate(LADDER):
        rung = run_rung(
            server, names, pool, rate,
            2 * unit if rate in (LOW, HIGH) else unit,
            np.random.default_rng([seed, index]),
        )
        rungs.append(rung)
        check_rung(out, rung, pool)
    passing = [r for r in rungs if r.passed()]
    best = max(passing, key=lambda r: r.rate) if passing else None
    return rungs, best


def measure(out: Outcome, server, names, pool, seed: int, seconds: float):
    """The ladder, then the closed loop in two more of the ladder's
    time units."""
    share = len(LADDER) + 2
    rungs, best = climb(
        out, server, names, pool, seed, seconds * share / (share + 2)
    )
    capacity = closed_loop(
        out, server, names, pool, seed, seconds * 2 / (share + 2)
    )
    by_rate = {rung.rate: rung for rung in rungs}
    out.put("main_ms.p50", median(by_rate[HIGH].latencies_ms()))
    out.put("ref_ms.p50", median(by_rate[LOW].latencies_ms()))
    out.put("throughput_per_s", capacity)
    out.put("sim_speedup", predicted_speedup(server))
    out.report.update(
        limit_ms=LIMIT_MS,
        max_rate=best.rate if best else None,
        rungs=[_rung_row(rung) for rung in rungs],
    )


def _rung_row(rung: Rung) -> Dict[str, Any]:
    latencies = rung.latencies_ms()
    return {
        "rate": rung.rate,
        "requests": len(rung.requests),
        "failures": rung.failures(),
        "p50_ms": median(latencies),
        "p90_ms": percentile(latencies, 0.9),
        "p99_ms": percentile(latencies, 0.99),
        "drain_ms": rung.drain_s() * 1e3,
        "achieved_per_s": rung.achieved_per_s(),
        "passed": rung.passed(),
    }


def measure_traced(
    out: Outcome, server, names, pool, seed: int, seconds: float,
    probe, spans: Spans,
) -> Dict[str, float]:
    """The ladder untraced in half the time, then the two named rates
    traced. Server-side figures come from the untraced rungs (the
    timestamps they use are public and always recorded), runtime
    figures per request from the traced ones."""
    rungs, best = climb(out, server, names, pool, seed, seconds / 2)
    untraced = {rung.rate: rung for rung in rungs}
    cache = server.plan_cache.stats
    hits, misses = cache.hits, cache.misses
    ops: Dict[int, int] = {}
    probe.op_of = lambda inputs: ops.get(id(inputs))
    probe.recording = True
    try:
        traced = {
            rate: run_rung(server, names, pool, rate, seconds / 4,
                           np.random.default_rng([seed, rate, 1]), ops)
            for rate in (LOW, HIGH)
        }
    finally:
        probe.recording = False
    requests = sum(len(r.requests) for r in traced.values())
    layer = probe.metrics(requests)
    layer["runtime.plan_cache_hit_rate"] = hit_rate_since(
        server.plan_cache.stats, hits, misses
    )
    for rung in traced.values():
        check_rung(out, rung, pool)
    for rate, rung in untraced.items():
        latencies = rung.latencies_ms()
        layer[f"serve.p50_ms.r{rate}"] = median(latencies)
        layer[f"serve.p90_ms.r{rate}"] = percentile(latencies, 0.9)
    for label, rate in (("low", LOW), ("high", HIGH)):
        rung = untraced[rate]
        layer[f"serve.queue_wait_ms.p50.{label}"] = median(
            rung.ticket_ms("started_at", "submitted_at")
        )
        layer[f"serve.exec_ms.p50.{label}"] = median(
            rung.ticket_ms("finished_at", "started_at")
        )
    high = untraced[HIGH]
    layer["serve.batch_size_mean"] = (
        high.counters.get("serve.batched_requests", 0)
        / max(high.counters.get("serve.batches", 0), 1)
    )
    layer["serve.queue_peak"] = high.queue_peak()
    layer["serve.refused"] = sum(r.failures() for r in rungs if _counted(r))
    layer["serve.max_rps"] = best.achieved_per_s() if best else 0.0
    layer["serve.p99_ms.high"] = percentile(high.latencies_ms(), 0.99)
    layer["loadgen.late_ms.p99"] = percentile(
        [(t.submitted_at - due) * 1e3
         for due, _, _, t in high.requests if t is not None],
        0.99,
    )
    layer["obs.trace_overhead_frac"] = (
        median(traced[HIGH].latencies_ms()) / median(high.latencies_ms()) - 1
    )
    served = _request_spans(spans, traced, ops)
    layer.update(spans.op_figures("serve.request", served))
    out.report.update(
        requests_traced=requests,
        limit_ms=LIMIT_MS,
        max_rate=best.rate if best else None,
        rungs=[_rung_row(r) for r in rungs],
        traced=[_rung_row(r) for r in traced.values()],
    )
    return layer


def _request_spans(
    spans: Spans, rungs: Dict[int, Rung], ops: Dict[int, int]
) -> int:
    """One span per request (due to response) with its phases as
    children, under the request's operation id (shared with the
    engine's ``runtime.run`` span). Returns the number of requests."""
    served = 0
    for rung in rungs.values():
        for due, _, _, ticket in rung.requests:
            if not _served(ticket):
                continue
            op = ops[id(ticket.inputs)]
            root = spans.add("serve.request", due, ticket.finished_at, op)
            spans.add("loadgen.late", due, ticket.submitted_at, op, root)
            spans.add("serve.queue_wait", ticket.submitted_at,
                      ticket.started_at, op, root)
            spans.add("serve.exec", ticket.started_at,
                      ticket.finished_at, op, root)
            served += 1
    return served
