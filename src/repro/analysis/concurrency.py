"""Static race/deadlock verification of lowered plans.

``analyze_plan`` replays the concurrency model the lowering attaches to
every plan (:mod:`repro.runtime.parallel.model`) and builds
a happens-before relation from three ingredients:

* **the barrier sequence** — workers execute identical step lists, so
  every global barrier cycle pairs the k-th arrival of each worker; an
  access's *epoch* is the number of barriers its worker has passed, and
  two accesses from different workers are ordered iff their epochs
  differ (this is exactly what the entry/exit barrier bracketing of the
  synchronous collectives guarantees);
* **mailbox edges** — post/consume pairs keyed
  ``(transfer_id, src, dst, parity)``, paired FIFO per channel;
* **row ownership** — worker ``w`` writes only rows
  ``[bounds[w], bounds[w+1])``; only collective kernels read foreign
  rows (``"all"``), and only between their barriers.

While bodies are flattened for ``min(trip_count, 4)`` iterations with
the body-local parity ``i & 1`` selecting the arena generation, and the
body's parameter buffers bound to the incoming state's buffers — so an
access through a loop-carried alias lands on the same buffer key as the
access that produced it.

Rules (catalog ids in :mod:`repro.analysis.diagnostics`; the ``CC``
prefix exists because collective legality already owns ``C0xx``):

* **CC001** — write/write or write/read on overlapping rows of one
  buffer in one epoch by two workers (incl. a broken bounds partition).
* **CC002** — parity-window overflow: FIFO pairing of a channel's posts
  and consumes disagrees on parity, so a third in-flight transfer
  would reuse a live cell.
* **CC003** — barrier divergence (workers reach one global barrier from
  different plan sites) or deadlock (one worker's flattened schedule
  has fewer barriers than another's).
* **CC004** — posts without consumes or consumes without posts on a
  channel.
* **CC005** — single-worker plans: a step writes a buffer inside a
  deferred-permute pin window (the operand must stay frozen from start
  to done for snapshot-at-issue to hold).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import AnalysisResult, Diagnostic, error
from repro.runtime.parallel.model import (
    ALL,
    BARRIER,
    CONSUME,
    PIN,
    POST,
    UNPIN,
    WRITE,
    PlanModel,
)

#: While bodies are unrolled this far: enough to cover both arena
#: parities and a parity-window reuse, independent of trip count.
MAX_FLATTEN_ITERATIONS = 4

#: Cap per rule so a single systemic defect doesn't flood the report.
_MAX_DIAGNOSTICS_PER_RULE = 8

GKey = Tuple[int, int, int]  # (plan uid, arena parity, buffer id)


@dataclasses.dataclass
class _Access:
    worker: int
    key: GKey
    lo: int
    hi: int
    write: bool
    epoch: int
    where: str


@dataclasses.dataclass
class _ChannelOp:
    parity: int
    where: str


@dataclasses.dataclass
class _WorkerFlat:
    """One worker's flattened schedule."""

    accesses: List[_Access] = dataclasses.field(default_factory=list)
    sites: List[str] = dataclasses.field(default_factory=list)
    posts: List[Tuple[Tuple[int, int, int], _ChannelOp]] = (
        dataclasses.field(default_factory=list)
    )
    consumes: List[Tuple[Tuple[int, int, int], _ChannelOp]] = (
        dataclasses.field(default_factory=list)
    )


def _valid_bounds(model: PlanModel) -> bool:
    bounds = tuple(model.bounds)
    return (
        len(bounds) == model.workers + 1
        and bounds[0] == 0
        and bounds[-1] == model.num_devices
        and all(a < b for a, b in zip(bounds, bounds[1:]))
    )


def _flatten_worker(
    plan, worker: int, max_iterations: int
) -> _WorkerFlat:
    flat = _WorkerFlat()
    model: PlanModel = plan.model
    n = model.num_devices
    bounds = model.bounds
    own = (bounds[worker], bounds[worker + 1])

    def visit(
        p, m: PlanModel, iteration: int, binding: Dict[int, GKey],
        prefix: str,
    ) -> None:
        parity = iteration & 1

        def gkey(buffer: int) -> GKey:
            mapped = binding.get(buffer)
            return mapped if mapped is not None else (m.uid, parity, buffer)

        for step in m.steps:
            where = prefix + step.name
            if step.body is not None:
                body_plan = p.body_plans[step.body]
                body_model: PlanModel = body_plan.model
                state = [gkey(b) for b in step.state_buffers]
                for i in range(min(step.trip_count, max_iterations)):
                    body_binding = dict(
                        zip(body_model.param_buffers, state)
                    )
                    visit(
                        body_plan, body_model, i, body_binding,
                        f"{where}#i{i}.",
                    )
                    body_parity = i & 1

                    def bkey(buffer: int) -> GKey:
                        mapped = body_binding.get(buffer)
                        if mapped is not None:
                            return mapped
                        return (body_model.uid, body_parity, buffer)

                    state = [bkey(b) for b in body_model.output_buffers]
            for op in step.ops[worker]:
                if op.kind == BARRIER:
                    flat.sites.append(prefix + op.site)
                elif op.kind in (PIN, UNPIN):
                    continue
                elif op.kind == POST or op.kind == CONSUME:
                    cell_parity = (
                        op.parity if op.parity is not None else parity
                    )
                    channel = (op.tid, op.src, op.dst)
                    entry = (channel, _ChannelOp(cell_parity, where))
                    if op.kind == POST:
                        flat.posts.append(entry)
                    else:
                        flat.consumes.append(entry)
                else:  # READ / WRITE
                    lo, hi = (0, n) if op.rows == ALL else own
                    assert op.buffer is not None
                    flat.accesses.append(_Access(
                        worker=worker,
                        key=gkey(op.buffer),
                        lo=lo,
                        hi=hi,
                        write=(op.kind == WRITE),
                        epoch=len(flat.sites),
                        where=where,
                    ))

    visit(plan, model, 0, {}, "")
    return flat


def _check_barriers(
    flats: List[_WorkerFlat], module: str
) -> List[Diagnostic]:
    reference = flats[0].sites
    for worker, flat in enumerate(flats[1:], start=1):
        sites = flat.sites
        if sites == reference:
            continue
        common = min(len(sites), len(reference))
        for k in range(common):
            if sites[k] != reference[k]:
                return [error(
                    "CC003",
                    f"barrier divergence: worker 0 arrives at barrier "
                    f"{k} from {reference[k]!r} but worker {worker} "
                    f"from {sites[k]!r}",
                    module=module,
                    hint="every worker must pass the same barrier "
                         "sites in the same order",
                )]
        longer, shorter = (
            (0, worker) if len(reference) > len(sites) else (worker, 0)
        )
        return [error(
            "CC003",
            f"barrier deadlock: worker {shorter} reaches "
            f"{common} barrier(s) but worker {longer} waits at "
            f"barrier {common} forever",
            module=module,
            hint="a worker with fewer barrier arrivals leaves the "
                 "others blocked",
        )]
    return []


def _check_races(
    flats: List[_WorkerFlat], module: str
) -> List[Diagnostic]:
    buckets: Dict[Tuple[GKey, int], List[_Access]] = {}
    for flat in flats:
        for access in flat.accesses:
            buckets.setdefault((access.key, access.epoch), []).append(
                access
            )
    diagnostics: List[Diagnostic] = []
    reported = set()
    for (_key, _epoch), group in buckets.items():
        if not any(a.write for a in group):
            continue
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if a.worker == b.worker:
                    continue
                if not (a.write or b.write):
                    continue
                if max(a.lo, b.lo) >= min(a.hi, b.hi):
                    continue
                writer, other = (a, b) if a.write else (b, a)
                signature = (writer.where, other.where)
                if signature in reported:
                    continue
                reported.add(signature)
                mode = "write" if other.write else "read"
                diagnostics.append(error(
                    "CC001",
                    f"unordered race: worker {writer.worker} writes "
                    f"rows [{writer.lo}, {writer.hi}) at "
                    f"{writer.where} while worker {other.worker} "
                    f"{mode}s rows [{other.lo}, {other.hi}) at "
                    f"{other.where} with no barrier or mailbox edge "
                    "between them",
                    module=module,
                    hint="bracket the foreign-row access with the run "
                         "barrier or route it through the mailbox",
                ))
                if len(diagnostics) >= _MAX_DIAGNOSTICS_PER_RULE:
                    return diagnostics
    return diagnostics


def _check_channels(
    flats: List[_WorkerFlat], module: str
) -> List[Diagnostic]:
    posts: Dict[Tuple[int, int, int], List[_ChannelOp]] = {}
    consumes: Dict[Tuple[int, int, int], List[_ChannelOp]] = {}
    for flat in flats:
        for channel, op in flat.posts:
            posts.setdefault(channel, []).append(op)
        for channel, op in flat.consumes:
            consumes.setdefault(channel, []).append(op)
    diagnostics: List[Diagnostic] = []
    for channel in sorted(set(posts) | set(consumes)):
        tid, src, dst = channel
        channel_posts = posts.get(channel, [])
        channel_consumes = consumes.get(channel, [])
        label = f"transfer tid={tid} w{src}->w{dst}"
        if len(channel_posts) != len(channel_consumes):
            kind = (
                "post without consume"
                if len(channel_posts) > len(channel_consumes)
                else "consume without post"
            )
            witness = (channel_posts or channel_consumes)[-1]
            diagnostics.append(error(
                "CC004",
                f"{kind} on {label}: {len(channel_posts)} post(s) vs "
                f"{len(channel_consumes)} consume(s) (last at "
                f"{witness.where})",
                module=module,
                hint="every posted cell needs exactly one matching "
                     "consume on the same (tid, src, dst) channel",
            ))
            continue
        for k, (post, consume) in enumerate(
            zip(channel_posts, channel_consumes)
        ):
            if post.parity != consume.parity:
                diagnostics.append(error(
                    "CC002",
                    f"parity-window overflow on {label}: in-flight "
                    f"transfer {k} posts parity {post.parity} at "
                    f"{post.where} but its FIFO consumer expects "
                    f"parity {consume.parity} at {consume.where} — a "
                    "live cell would be reused",
                    module=module,
                    hint="the double-buffered window holds two "
                         "in-flight transfers per channel; keys must "
                         "alternate iteration & 1",
                ))
                break
        if len(diagnostics) >= _MAX_DIAGNOSTICS_PER_RULE:
            break
    return diagnostics


def _check_pin_windows(
    plan, module: str, prefix: str = ""
) -> List[Diagnostic]:
    """CC005 over a single-worker plan (and its While bodies)."""
    diagnostics: List[Diagnostic] = []
    model: PlanModel = plan.model
    pinned: Dict[int, Tuple[int, str]] = {}
    for step in model.steps:
        where = prefix + step.name
        if step.body is not None:
            diagnostics.extend(_check_pin_windows(
                plan.body_plans[step.body], module, f"{where}."
            ))
        for op in step.ops[0]:
            if op.kind == PIN:
                assert op.buffer is not None
                count, _ = pinned.get(op.buffer, (0, ""))
                pinned[op.buffer] = (count + 1, where)
            elif op.kind == UNPIN:
                count, origin = pinned.get(op.buffer, (0, ""))
                if count <= 1:
                    pinned.pop(op.buffer, None)
                else:
                    pinned[op.buffer] = (count - 1, origin)
            elif op.kind == WRITE and op.buffer in pinned:
                _, origin = pinned[op.buffer]
                diagnostics.append(error(
                    "CC005",
                    f"donation race: {where} writes the deferred-"
                    f"permute operand pinned at {origin} while its "
                    "snapshot is still pending",
                    module=module,
                    hint="the operand buffer must stay frozen until "
                         "the matching done materializes the permute",
                ))
    return diagnostics


def analyze_plan(
    plan, max_iterations: int = MAX_FLATTEN_ITERATIONS
) -> AnalysisResult:
    """Run the concurrency pass over one lowered plan (any worker count)."""
    model: Optional[PlanModel] = getattr(plan, "model", None)
    module = f"{plan.module_name}@w{plan.workers}"
    diagnostics: List[Diagnostic] = []
    if model is None:
        return AnalysisResult(module, (), ("concurrency",))
    if not _valid_bounds(model):
        diagnostics.append(error(
            "CC001",
            f"worker bounds {list(model.bounds)} do not partition the "
            f"{model.num_devices} device rows: overlapping or missing "
            "ownership means unordered writes to shared rows",
            module=module,
            hint="bounds must be strictly increasing from 0 to the "
                 "device count with one range per worker",
        ))
        return AnalysisResult(
            module, tuple(diagnostics), ("concurrency",)
        )
    if model.workers == 1:
        diagnostics.extend(_check_pin_windows(plan, module))
        return AnalysisResult(
            module, tuple(diagnostics), ("concurrency",)
        )
    flats = [
        _flatten_worker(plan, w, max_iterations)
        for w in range(model.workers)
    ]
    barrier_diagnostics = _check_barriers(flats, module)
    diagnostics.extend(barrier_diagnostics)
    if not barrier_diagnostics:
        # Epochs are only meaningful when the barrier sequences align;
        # a divergent plan would drown the report in phantom races.
        diagnostics.extend(_check_races(flats, module))
        diagnostics.extend(_check_channels(flats, module))
    return AnalysisResult(module, tuple(diagnostics), ("concurrency",))


__all__ = ["MAX_FLATTEN_ITERATIONS", "analyze_plan"]
