"""Seeded-defect mutations: the analyzer's own test corpus.

Each :class:`Mutation` plants one specific defect into a compiled module
— bypassing the builder-time checks on purpose, the way a buggy pass
would — and names the rule id the analyzer must report for it. The
mutation tests run every mutation over every compiled golden module and
assert (a) the expected rule fires and (b) un-mutated modules stay
clean, which pins each rule to a concrete defect class instead of
trusting that "no findings" means "nothing to find".

A mutation's ``apply`` edits the module in place and returns a dict of
extra keyword arguments for :func:`repro.analysis.analyze_module`
(usually empty; the donation mutation returns fabricated planner
records), or ``None`` when the module has no site the defect applies
to (e.g. no While loop to corrupt).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.hlo.dtypes import F32, S32
from repro.hlo.instruction import Instruction
from repro.hlo.module import HloModule
from repro.hlo.opcode import Opcode
from repro.hlo.shapes import Shape

_ELEMENTWISE = (Opcode.ADD, Opcode.MULTIPLY, Opcode.MAXIMUM)


@dataclasses.dataclass(frozen=True)
class Mutation:
    """One seeded defect and the rule id that must catch it."""

    name: str
    expected_rule: str
    description: str
    apply: Callable[[HloModule], Optional[Dict[str, Any]]]


def _positions(module: HloModule) -> Dict[str, int]:
    return {i.name: p for p, i in enumerate(module)}


def _first(module: HloModule, *opcodes: Opcode) -> Optional[Instruction]:
    for instruction in module:
        if instruction.opcode in opcodes:
            return instruction
    return None


# --- shape / dtype -------------------------------------------------------


def _corrupt_shape_dim(module: HloModule) -> Optional[Dict[str, Any]]:
    target = _first(module, Opcode.EINSUM, *_ELEMENTWISE)
    if target is None or not target.shape.dims:
        return None
    dims = list(target.shape.dims)
    dims[0] += 1
    target.shape = Shape(tuple(dims), target.shape.dtype)
    return {}


def _corrupt_dtype(module: HloModule) -> Optional[Dict[str, Any]]:
    target = _first(module, *_ELEMENTWISE, Opcode.NEGATE, Opcode.COPY)
    if target is None:
        return None
    flipped = S32 if target.shape.dtype is not S32 else F32
    target.shape = Shape(target.shape.dims, flipped)
    return {}


def _swap_einsum_operands(module: HloModule) -> Optional[Dict[str, Any]]:
    from repro.hlo.einsum_spec import EinsumSpec

    for instruction in module:
        if instruction.opcode is Opcode.EINSUM and len(
            instruction.operands
        ) == 2:
            lhs, rhs = instruction.operands
            try:
                EinsumSpec.parse(
                    instruction.attrs["equation"]
                ).output_shape(rhs.shape, lhs.shape)
            except ValueError:
                instruction.operands = [rhs, lhs]
                return {}
    return None


# --- async pairs ---------------------------------------------------------


def _drop_done(module: HloModule) -> Optional[Dict[str, Any]]:
    done = _first(module, Opcode.COLLECTIVE_PERMUTE_DONE)
    if done is None:
        return None
    module.replace_all_uses(done, done.operands[0])
    module.remove(done)
    return {}


def _duplicate_done(module: HloModule) -> Optional[Dict[str, Any]]:
    done = _first(module, Opcode.COLLECTIVE_PERMUTE_DONE)
    if done is None:
        return None
    twin = Instruction(
        name=Instruction.fresh_name("collective-permute-done"),
        opcode=Opcode.COLLECTIVE_PERMUTE_DONE,
        shape=done.shape,
        operands=[done.operands[0]],
    )
    module.insert_before(done, twin)
    return {}


def _reuse_channel(module: HloModule) -> Optional[Dict[str, Any]]:
    """Give two *simultaneously in-flight* starts the same channel."""
    position = _positions(module)
    spans: List[Tuple[int, int, Instruction]] = []
    for instruction in module:
        if instruction.opcode is Opcode.COLLECTIVE_PERMUTE_DONE:
            start = instruction.operands[0]
            spans.append(
                (position[start.name], position[instruction.name], start)
            )
    spans.sort()
    for (s1, d1, first), (s2, _, second) in zip(spans, spans[1:]):
        if s1 < s2 < d1:  # second launches while the first is in flight
            second.attrs["channel_id"] = first.attrs.get("channel_id", 1)
            return {}
    return None


# --- collectives ---------------------------------------------------------


def _corrupt_replica_group(module: HloModule) -> Optional[Dict[str, Any]]:
    for instruction in module:
        groups = instruction.attrs.get("groups")
        if groups and any(len(group) > 1 for group in groups):
            mutated = [list(group) for group in groups]
            for group in mutated:
                if len(group) > 1:
                    group.pop()  # that device is now in no group
                    break
            instruction.attrs["groups"] = [
                tuple(group) for group in mutated
            ]
            return {}
    return None


def _self_send(module: HloModule) -> Optional[Dict[str, Any]]:
    for instruction in module:
        pairs = instruction.attrs.get("pairs")
        if pairs:
            src, _ = pairs[0]
            instruction.attrs["pairs"] = [(src, src)] + [
                tuple(p) for p in pairs[1:]
            ]
            return {}
    return None


def _duplicate_receiver(module: HloModule) -> Optional[Dict[str, Any]]:
    for instruction in module:
        pairs = instruction.attrs.get("pairs")
        if pairs and len(pairs) > 1:
            mutated = [tuple(p) for p in pairs]
            mutated[1] = (mutated[1][0], mutated[0][1])
            instruction.attrs["pairs"] = mutated
            return {}
    return None


# --- schedule ------------------------------------------------------------


def _scramble_order(module: HloModule) -> Optional[Dict[str, Any]]:
    """Hoist an instruction above its operands (a broken scheduler)."""
    order = module.instructions
    for instruction in order:
        if instruction.operands:
            order.remove(instruction)
            order.insert(0, instruction)
            module._instructions = order
            return {}
    return None


def _interleave_fusion_group(module: HloModule) -> Optional[Dict[str, Any]]:
    """Wedge an unrelated instruction into a fusion group's middle."""
    order = module.instructions
    position = _positions(module)
    users = module.user_map()
    runs: Dict[int, List[int]] = {}
    for instruction in order:
        if instruction.fusion_group is not None:
            runs.setdefault(instruction.fusion_group, []).append(
                position[instruction.name]
            )
    for run in runs.values():
        if len(run) < 2:
            continue
        gap = run[0] + 1  # insertion point between the first two members
        for intruder in order:
            if intruder.fusion_group is not None:
                continue
            if position[intruder.name] >= run[0]:
                continue
            earliest_user = min(
                (position[u.name] for u in users[intruder]),
                default=len(order),
            )
            if earliest_user > gap:  # the move keeps def-before-use
                order.remove(intruder)
                order.insert(gap - 1, intruder)
                module._instructions = order
                return {}
    return None


# --- control flow / donation ---------------------------------------------


def _corrupt_while_signature(module: HloModule) -> Optional[Dict[str, Any]]:
    loop = _first(module, Opcode.WHILE)
    if loop is None:
        return None
    outputs = list(loop.attrs.get("body_outputs", []))
    if not outputs:
        return None
    outputs[0] = "no-such-instruction.999"
    loop.attrs["body_outputs"] = outputs
    return {}


def _alias_live_slot(module: HloModule) -> Optional[Dict[str, Any]]:
    """Fabricate a planner record donating a buffer someone still reads."""
    from repro.runtime.plan import DonationRecord

    position = _positions(module)
    users = module.user_map()
    for value in module:
        # A done is not a reader — the transfer snapshots its operand at
        # issue time — so a later done must not be the record's witness.
        readers = sorted(
            (
                u for u in users[value]
                if u.opcode is not Opcode.COLLECTIVE_PERMUTE_DONE
            ),
            key=lambda u: position[u.name],
        )
        if len(readers) >= 2:
            step, later = readers[0], readers[-1]
            if position[step.name] < position[later.name]:
                record = DonationRecord(module.name, step.name, value.name)
                return {"donation_records": [record]}
    return None


#: Every seeded defect, each pinned to the rule id that must catch it.
MUTATIONS: Tuple[Mutation, ...] = (
    Mutation(
        "corrupt-shape-dim", "S001",
        "grow one result dimension without touching the operands",
        _corrupt_shape_dim,
    ),
    Mutation(
        "corrupt-dtype", "S002",
        "flip an elementwise result dtype away from its operands'",
        _corrupt_dtype,
    ),
    Mutation(
        "swap-einsum-operands", "S003",
        "swap lhs/rhs of an einsum whose operand shapes differ",
        _swap_einsum_operands,
    ),
    Mutation(
        "drop-done", "A001",
        "delete a collective-permute-done, rewiring users to the start",
        _drop_done,
    ),
    Mutation(
        "duplicate-done", "A002",
        "give one start a second done",
        _duplicate_done,
    ),
    Mutation(
        "reuse-channel", "A003",
        "issue two overlapping transfers on the same channel",
        _reuse_channel,
    ),
    Mutation(
        "corrupt-replica-group", "C001",
        "drop a device from a replica group, leaving it uncovered",
        _corrupt_replica_group,
    ),
    Mutation(
        "self-send", "C003",
        "turn a permute pair into a device-to-itself send",
        _self_send,
    ),
    Mutation(
        "duplicate-receiver", "C004",
        "point two permute pairs at the same destination",
        _duplicate_receiver,
    ),
    Mutation(
        "scramble-order", "V001",
        "hoist an instruction above its operands' definitions",
        _scramble_order,
    ),
    Mutation(
        "interleave-fusion-group", "L003",
        "move an unrelated instruction inside a fusion group's span",
        _interleave_fusion_group,
    ),
    Mutation(
        "corrupt-while-signature", "V005",
        "point a While body_outputs entry at a missing instruction",
        _corrupt_while_signature,
    ),
    Mutation(
        "alias-live-slot", "D001",
        "fabricate a planner donation of a buffer with later readers",
        _alias_live_slot,
    ),
)

MUTATIONS_BY_NAME: Dict[str, Mutation] = {m.name: m for m in MUTATIONS}


# --------------------------------------------------------------------------
# Parallel-plan mutations: the concurrency verifier's test corpus.
#
# These plant defects one level lower than the HLO mutations above: into a
# freshly *lowered* plan and its concurrency model, the way a buggy
# lowering or scheduling pass would. Each mutation corrupts both halves of
# the artifact — the PlanModel (so repro.analysis.concurrency must flag it
# statically) and, where the defect is executable, the runtime worker steps
# (so the opt-in sanitizer must catch the same defect live). A mutation
# whose defect is a pure memory-ordering race with no crashing symptom
# (dropped barriers produce wrong numbers, not exceptions) is marked
# ``runtime_caught=False`` and only the static rule is required to fire.
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ParallelMutation:
    """One seeded concurrency defect in a lowered plan.

    ``apply`` edits the plan (and its model) in place and returns True,
    or False when the target plan has no site for the defect.
    ``target`` names the module family to lower: ``golden:<case>:<variant>``
    picks a chaos golden case compiled under one overlap variant;
    ``rolled-gather`` is the rolled Looped-CollectiveEinsum form (the only
    shape whose While body holds a sync collective, which the barrier-skew
    defect needs).
    """

    name: str
    expected_rule: str
    description: str
    target: str
    ring: int
    workers: int
    runtime_caught: bool
    apply: Callable[[Any], bool]


def _parallel_variant_config(variant: str):
    from repro.core.config import OverlapConfig

    if variant == "baseline":
        return OverlapConfig.baseline()
    if variant == "decomposed":
        return OverlapConfig(
            use_cost_model=False, scheduler="in_order", unroll=False
        )
    if variant == "scheduled":
        return OverlapConfig(use_cost_model=False, unroll=False)
    if variant == "unrolled":
        return OverlapConfig(use_cost_model=False)
    raise ValueError(f"unknown overlap variant {variant!r}")


def _rolled_gather(mesh, rng):
    """An all-gather→einsum module in the rolled While form, plus run
    arguments (sharded activations, replicated weights)."""
    from repro.core.loop import emit_rolled
    from repro.core.patterns import find_candidates
    from repro.hlo.builder import GraphBuilder

    n = mesh.num_devices
    builder = GraphBuilder("rolled_gather")
    a = builder.parameter(Shape((24 // n, 5), F32), name="a")
    w = builder.parameter(Shape((5, 7), F32), name="w")
    gathered = builder.all_gather(a, 0, mesh.rings("x"))
    builder.einsum("bf,fh->bh", gathered, w)
    module = builder.module
    (candidate,) = find_candidates(module)
    emit_rolled(module, candidate, mesh)
    weights = rng.normal(size=(5, 7))
    arguments = {
        "a": [rng.normal(size=(24 // n, 5)) for _ in range(n)],
        "w": [weights.copy() for _ in range(n)],
    }
    return module, arguments


def build_parallel_target(mutation: "ParallelMutation", seed: int = 0):
    """Freshly lower the plan one parallel mutation targets.

    Returns ``(plan, arguments)`` — the plan is unshared (every caller
    gets its own lowering, since mutations edit it in place) and the
    arguments fit ``plan.run``.
    """
    import numpy as np

    from repro.runtime.compile import lower
    from repro.sharding.mesh import DeviceMesh

    rng = np.random.default_rng(seed)
    mesh = DeviceMesh.ring(mutation.ring)
    if mutation.target == "rolled-gather":
        module, arguments = _rolled_gather(mesh, rng)
    else:
        from repro.core.pipeline import compile_module
        from repro.faults.chaos import GOLDEN_CASES

        _, case_name, variant = mutation.target.split(":")
        case = next(c for c in GOLDEN_CASES if c.name == case_name)
        module = case.build(mesh)
        compile_module(module, mesh, _parallel_variant_config(variant))
        arguments = case.make_arguments(mesh, rng)
    plan = lower(module, mesh.num_devices, workers=mutation.workers)
    return plan, arguments


# -- runtime defect injectors ----------------------------------------------


class _SkipWaits:
    """RunContext proxy that swallows the first N barrier waits."""

    def __init__(self, inner, skips: int) -> None:
        self._inner = inner
        self._skips = skips

    def wait_barrier(self) -> None:
        if self._skips > 0:
            self._skips -= 1
            return
        self._inner.wait_barrier()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _PostParityPin:
    """Mailbox proxy that posts every payload into the parity-1 cell."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def post(self, key, payload) -> None:
        tid, src, dst, _ = key
        self._inner.post((tid, src, dst, 1), payload)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _ConsumeKeySwap:
    """Mailbox proxy that consumes with src/dst reversed."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def consume(self, key):
        tid, src, dst, parity = key
        return self._inner.consume((tid, dst, src, parity))

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _replace_worker_step(plan, worker: int, index: int, step) -> None:
    lists = [list(steps) for steps in plan.worker_steps]
    lists[worker][index] = step
    plan.worker_steps = tuple(tuple(steps) for steps in lists)


def _skip_barrier_waits(plan, index: int, skips: int, workers) -> None:
    """Wrap step ``index`` of each worker so its barrier waits are
    skipped for the duration of that one call."""
    for w in workers:
        inner = plan.worker_steps[w][index]

        def wrapped(wctx, env, iteration, _inner=inner, _skips=skips):
            original = wctx.ctx
            wctx.ctx = _SkipWaits(original, _skips)
            try:
                _inner(wctx, env, iteration)
            finally:
                wctx.ctx = original

        _replace_worker_step(plan, w, index, wrapped)


def _install_mailbox_proxy(plan, proxy_cls) -> None:
    """Swap every worker's mailbox for ``proxy_cls`` at its first step
    (the proxy then persists for the whole run, While bodies included)."""
    for w in range(plan.workers):
        inner = plan.worker_steps[w][0]

        def wrapped(wctx, env, iteration, _inner=inner):
            if not isinstance(wctx.mailbox, proxy_cls):
                wctx.mailbox = proxy_cls(wctx.mailbox)
            _inner(wctx, env, iteration)

        _replace_worker_step(plan, w, 0, wrapped)


def _wrap_step_mailbox(plan, worker: int, index: int, proxy_cls) -> None:
    """Swap one worker's mailbox for ``proxy_cls`` around one step."""
    inner = plan.worker_steps[worker][index]

    def wrapped(wctx, env, iteration, _inner=inner):
        original = wctx.mailbox
        wctx.mailbox = proxy_cls(original)
        try:
            _inner(wctx, env, iteration)
        finally:
            wctx.mailbox = original

    _replace_worker_step(plan, worker, index, wrapped)


# -- the six defects -------------------------------------------------------


def _parallel_drop_barrier(plan) -> bool:
    """CC001: strip the entry/exit barriers from the first sync
    collective whose operand rows were written by an earlier step, so
    its all-rows reads are unordered against the producers' writes."""
    from repro.runtime.parallel import model as pmodel

    seen_write = False
    for index, step in enumerate(plan.model.steps):
        if seen_write and any(
            op.kind == pmodel.BARRIER for op in step.ops[0]
        ):
            step.ops = tuple(
                tuple(op for op in wops if op.kind != pmodel.BARRIER)
                for wops in step.ops
            )
            _skip_barrier_waits(
                plan, index, skips=2, workers=range(plan.workers)
            )
            return True
        if any(
            op.kind == pmodel.WRITE for wops in step.ops for op in wops
        ):
            seen_write = True
    return False


def _parallel_parity_collision(plan) -> bool:
    """CC002: pin every post to the parity-1 cell while the consumes
    keep expecting ``iteration & 1`` — the FIFO pairing on each channel
    breaks, and at runtime the expected cell is never filled."""
    from repro.runtime.parallel import model as pmodel

    applied = False

    def pin(model) -> None:
        nonlocal applied
        for step in model.steps:
            if not any(
                op.kind == pmodel.POST
                for wops in step.ops for op in wops
            ):
                continue
            step.ops = tuple(
                tuple(
                    dataclasses.replace(op, parity=1)
                    if op.kind == pmodel.POST else op
                    for op in wops
                )
                for wops in step.ops
            )
            applied = True

    pin(plan.model)
    for body in plan.body_plans:
        pin(body.model)
    if applied and plan.workers > 1:
        _install_mailbox_proxy(plan, _PostParityPin)
    return applied


def _parallel_row_overlap(plan) -> bool:
    """CC001: declare every worker the owner of all device rows — the
    partition no longer partitions, so own-row writes collide."""
    if plan.workers < 2:
        return False
    bad = (0,) + (plan.num_devices,) * plan.workers
    plan.bounds = bad
    plan.model.bounds = bad
    return True


def _parallel_swapped_consume(plan) -> bool:
    """CC004: reverse src/dst on worker 0's consume keys — its inbound
    channel keeps an orphaned post while its own outbound channel is
    consumed twice."""
    from repro.runtime.parallel import model as pmodel

    for index, step in enumerate(plan.model.steps):
        w0 = step.ops[0]
        if not any(op.kind == pmodel.CONSUME for op in w0):
            continue
        step.ops = (
            tuple(
                dataclasses.replace(op, src=op.dst, dst=op.src)
                if op.kind == pmodel.CONSUME else op
                for op in w0
            ),
        ) + tuple(step.ops[1:])
        _wrap_step_mailbox(plan, 0, index, _ConsumeKeySwap)
        return True
    return False


def _parallel_while_barrier_skew(plan) -> bool:
    """CC003: worker 0 skips the entry barrier of a While-body
    collective (falling back to a top-level one), so workers meet at
    one global barrier from different plan sites."""
    from repro.runtime.parallel import model as pmodel

    for candidate in tuple(plan.body_plans) + (plan,):
        for index, step in enumerate(candidate.model.steps):
            w0 = step.ops[0]
            barrier_at = next(
                (
                    i for i, op in enumerate(w0)
                    if op.kind == pmodel.BARRIER
                ),
                None,
            )
            if barrier_at is None:
                continue
            step.ops = (
                tuple(
                    op for i, op in enumerate(w0) if i != barrier_at
                ),
            ) + tuple(step.ops[1:])
            _skip_barrier_waits(candidate, index, skips=1, workers=(0,))
            return True
    return False


def _parallel_stale_donation(plan) -> bool:
    """CC005: insert a step right after a deferred permute start that
    scribbles on the pinned operand before the done snapshots it."""
    from repro.runtime.parallel import model as pmodel

    if plan.workers != 1:
        return False
    for index, step in enumerate(plan.model.steps):
        pin_op = next(
            (op for op in step.ops[0] if op.kind == pmodel.PIN), None
        )
        if pin_op is None:
            continue
        slot = pin_op.slot

        def scribble(env, iteration, _slot=slot):
            array = env[_slot]
            if array is not None:
                array += 1.0

        steps = list(plan.steps)
        steps.insert(index + 1, scribble)
        plan.steps = tuple(steps)
        plan.model.steps.insert(
            index + 1,
            pmodel.StepModel(
                name=f"{step.name}.scribble",
                opcode="scribble",
                ops=(
                    (
                        pmodel.Op(
                            pmodel.WRITE, buffer=pin_op.buffer,
                            donated=True, slot=slot,
                        ),
                    ),
                ),
            ),
        )
        return True
    return False


PARALLEL_MUTATIONS: Tuple[ParallelMutation, ...] = (
    ParallelMutation(
        "parallel-dropped-barrier", "CC001",
        "strip a sync collective's barriers so its all-rows reads race "
        "the producers' writes",
        "golden:einsum-reducescatter:baseline", 4, 2,
        False, _parallel_drop_barrier,
    ),
    ParallelMutation(
        "parallel-parity-collision", "CC002",
        "pin every transfer post to one parity cell, breaking the "
        "double-buffer pairing",
        "golden:allgather-einsum:unrolled", 4, 2,
        True, _parallel_parity_collision,
    ),
    ParallelMutation(
        "parallel-row-overlap", "CC001",
        "corrupt the worker row-ownership bounds into overlapping "
        "ranges",
        "golden:einsum-reducescatter:baseline", 4, 2,
        True, _parallel_row_overlap,
    ),
    ParallelMutation(
        "parallel-swapped-post-consume", "CC004",
        "reverse src/dst on one worker's consume keys, orphaning its "
        "inbound posts",
        "golden:allgather-einsum:unrolled", 4, 2,
        True, _parallel_swapped_consume,
    ),
    ParallelMutation(
        "parallel-while-barrier-skew", "CC003",
        "one worker skips a While-body entry barrier, meeting the "
        "others at the wrong site",
        "rolled-gather", 4, 2,
        True, _parallel_while_barrier_skew,
    ),
    ParallelMutation(
        "parallel-stale-donation", "CC005",
        "mutate a deferred permute's pinned operand before the done "
        "consumes it",
        "golden:allgather-einsum:unrolled", 4, 1,
        True, _parallel_stale_donation,
    ),
)

PARALLEL_MUTATIONS_BY_NAME: Dict[str, ParallelMutation] = {
    m.name: m for m in PARALLEL_MUTATIONS
}
