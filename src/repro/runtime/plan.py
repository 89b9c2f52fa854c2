"""CompiledPlan: the flat executable form of a lowered HloModule.

A plan is what the one-time lowering pass in ``repro.runtime.compile``
produces: a straight-line list of step closures over a slot-indexed
environment of device-stacked arrays. All opcode dispatch, attribute
lookups, ShardIndex evaluation, replica-group validation and buffer
(donation) decisions happened at lowering time; running a plan is just

    env = initial_env.copy()
    bind parameters
    for step in steps: step(env, iteration)

so per-run cost is one Python call per step plus one vectorized numpy
call, independent of the device count.

Plans are immutable once built. Constants live pre-broadcast in
``initial_env`` (read-only ``(n, *shape)`` views); parameter slots are
filled per run from the caller's per-device shard lists.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hlo.shapes import Shape
from repro.obs.events import ASYNC_DONE, ASYNC_START, SANITIZE, TRANSFER
from repro.obs.tracer import Tracer

#: A step mutates the environment in place; ``iteration`` is the
#: enclosing loop index (plans compiled from While bodies read it).
Step = Callable[[List[Optional[np.ndarray]], int], None]

PerDevice = List[np.ndarray]


@dataclasses.dataclass(frozen=True)
class PlanStats:
    """What the lowering pipeline did to one module."""

    instructions: int      # live instructions lowered
    steps: int             # executable steps emitted
    dce_eliminated: int    # instructions unreachable from the outputs
    folded: int            # non-source instructions folded to constants
    cse_eliminated: int    # instructions deduplicated against an earlier op
    copies_elided: int     # COPY ops turned into slot aliases
    donations: int         # steps that may write their result in place

    def merge(self, other: "PlanStats") -> "PlanStats":
        """Combine with a nested (While-body) plan's stats."""
        return PlanStats(
            *(a + b for a, b in zip(
                dataclasses.astuple(self), dataclasses.astuple(other)
            ))
        )


@dataclasses.dataclass(frozen=True)
class DonationRecord:
    """One buffer-donation decision the lowering pass committed to.

    ``step`` is the instruction that writes in place; ``value`` names the
    instruction whose buffer it overwrites (the representative producer,
    after CSE). The static analyzer's donation-race pass re-derives
    liveness independently and cross-checks every record — this is the
    planner *showing its work*, not the analysis itself.
    """

    module: str            # name of the (possibly nested) module
    step: str              # donating instruction
    value: str             # producer of the donated buffer's value


@dataclasses.dataclass(frozen=True)
class StepMeta:
    """Observability sidecar of one step: everything the traced run
    loop needs, precomputed at lowering time so the untraced loop pays
    nothing for it."""

    name: str              # instruction name
    opcode: str            # opcode value string
    kind: str              # timeline phase (repro.obs.events)
    bytes: int             # fabric payload (0 for non-communication)
    transfer_of: Optional[str] = None  # done steps: their start's name


@dataclasses.dataclass(frozen=True)
class ParamBinding:
    """Where one parameter's stacked value goes in the environment."""

    name: str
    shape: Shape
    slot: int


class CompiledPlan:
    """A lowered, directly executable module (see module docstring)."""

    #: Row-partitioned plans (:class:`~repro.runtime.parallel.plan.ParallelPlan`)
    #: override this; a plain plan runs on the caller thread.
    workers = 1

    def __init__(
        self,
        module_name: str,
        num_devices: int,
        steps: Sequence[Step],
        labels: Sequence[str],
        initial_env: Sequence[Optional[np.ndarray]],
        params: Sequence[ParamBinding],
        output_slots: Dict[str, int],
        output_order: Sequence[str],
        stats: PlanStats,
        meta: Sequence[StepMeta] = (),
        tracer_box: Optional[List[Optional[Tracer]]] = None,
        donations: Sequence[DonationRecord] = (),
        model: Optional[Any] = None,
        body_plans: Sequence["CompiledPlan"] = (),
    ) -> None:
        self.module_name = module_name
        self.num_devices = num_devices
        self.steps: Tuple[Step, ...] = tuple(steps)
        self.labels: Tuple[str, ...] = tuple(labels)
        self.initial_env: List[Optional[np.ndarray]] = list(initial_env)
        self.params: Tuple[ParamBinding, ...] = tuple(params)
        self.output_slots = dict(output_slots)
        self.output_order: Tuple[str, ...] = tuple(output_order)
        self.stats = stats
        self.meta: Tuple[StepMeta, ...] = tuple(meta)
        # The one-element cell nested While-body steps read to decide
        # whether to trace their body plan (set by execute_traced only,
        # so the untraced path never pays for it).
        self.tracer_box: List[Optional[Tracer]] = (
            tracer_box if tracer_box is not None else [None]
        )
        # Every in-place write the lowering decided on (own module plus
        # nested While bodies, each tagged with its module name).
        self.donations: Tuple[DonationRecord, ...] = tuple(donations)
        #: Concurrency model for repro.analysis.concurrency and the
        #: sanitizer (a :class:`~repro.runtime.parallel.model.PlanModel`).
        self.model = model
        #: Lowered While bodies, in step order (the model's ``body``
        #: indices point here).
        self.body_plans: Tuple["CompiledPlan", ...] = tuple(body_plans)

    # --- execution --------------------------------------------------------------

    def execute(
        self, stacked_args: Sequence[np.ndarray], iteration: int = 0
    ) -> List[np.ndarray]:
        """Run on pre-stacked arguments (one per parameter, in order).

        This is the zero-validation entry the While-loop step uses to feed
        loop-carried state through the body plan without restacking.
        Returns the stacked output values in ``output_order``.
        """
        env = self.initial_env.copy()
        for binding, value in zip(self.params, stacked_args):
            env[binding.slot] = value
        for step in self.steps:
            step(env, iteration)
        return [env[self.output_slots[name]] for name in self.output_order]

    def execute_traced(
        self,
        stacked_args: Sequence[np.ndarray],
        iteration: int,
        tracer: Tracer,
    ) -> List[np.ndarray]:
        """Like :meth:`execute`, but record one span per step (plus the
        synthesized in-flight TRANSFER window per async permute pair)
        into ``tracer``. While-body steps see the tracer through
        ``tracer_box`` and trace their iterations one level deeper."""
        if len(self.meta) != len(self.steps):  # plan built without meta
            return self.execute(stacked_args, iteration)
        env = self.initial_env.copy()
        for binding, value in zip(self.params, stacked_args):
            env[binding.slot] = value
        box = self.tracer_box
        previous = box[0]
        box[0] = tracer
        try:
            for step, meta in zip(self.steps, self.meta):
                start = tracer.now()
                depth = tracer.push()
                try:
                    step(env, iteration)
                finally:
                    tracer.pop()
                end = tracer.now()
                tracer.add(
                    meta.name, meta.kind, "compute", start, end,
                    bytes=meta.bytes, depth=depth,
                )
                if meta.kind == ASYNC_START:
                    tracer.count(f"bytes.{meta.opcode}", meta.bytes)
                    tracer.mark_issue(meta.name, start)
                elif meta.kind == ASYNC_DONE:
                    origin = meta.transfer_of or meta.name
                    tracer.add(
                        origin, TRANSFER, f"link:{origin}",
                        tracer.pop_issue(origin, default=start), end,
                        bytes=meta.bytes, depth=0,
                    )
                elif meta.bytes:
                    tracer.count(f"bytes.{meta.opcode}", meta.bytes)
        finally:
            box[0] = previous
        return [env[self.output_slots[name]] for name in self.output_order]

    def execute_sanitized(
        self,
        stacked_args: Sequence[np.ndarray],
        iteration: int,
        tracer: Optional[Tracer] = None,
    ) -> List[np.ndarray]:
        """Like :meth:`execute`, plus the runtime concurrency sanitizer
        (:mod:`repro.runtime.parallel.sanitize`). A traced run records
        one SANITIZE summary span instead of per-step spans."""
        from repro.runtime.parallel.sanitize import run_pinned

        if tracer is None:
            return run_pinned(self, stacked_args, iteration)
        start = tracer.now()
        values = run_pinned(self, stacked_args, iteration)
        tracer.add(
            self.module_name, SANITIZE, "sanitizer", start, tracer.now()
        )
        return values

    def run(
        self,
        arguments: Dict[str, Sequence[np.ndarray]],
        iteration: int = 0,
        tracer: Optional[Tracer] = None,
        *,
        sanitize: bool = False,
    ) -> Dict[str, PerDevice]:
        """Execute with per-device shard lists, like ``Executor.run``.

        ``sanitize=True`` arms the runtime concurrency sanitizer for this
        call. Returned shards are row views into the stacked result
        buffers; treat them as read-only.
        """
        from repro.runtime.executor import ExecutionError

        stacked_args = []
        for binding in self.params:
            try:
                shards = arguments[binding.name]
            except KeyError:
                raise ExecutionError(
                    f"missing argument for parameter {binding.name!r}"
                ) from None
            if len(shards) != self.num_devices:
                raise ExecutionError(
                    f"parameter {binding.name!r}: expected "
                    f"{self.num_devices} shards, got {len(shards)}"
                )
            for shard in shards:
                if tuple(np.shape(shard)) != binding.shape.dims:
                    raise ExecutionError(
                        f"parameter {binding.name!r}: shard shape "
                        f"{np.shape(shard)} != declared {binding.shape.dims}"
                    )
            stacked = np.asarray(shards, dtype=np.float64)
            if stacked is shards:
                # Caller handed us an already-stacked float64 array; copy so
                # buffer donation can never mutate caller-owned memory.
                stacked = stacked.copy()
            stacked_args.append(stacked)
        if sanitize:
            results = self.execute_sanitized(stacked_args, iteration, tracer)
        elif tracer is None:
            results = self.execute(stacked_args, iteration)
        else:
            results = self.execute_traced(stacked_args, iteration, tracer)
        return {
            name: list(stacked)
            for name, stacked in zip(self.output_order, results)
        }

    # --- introspection ----------------------------------------------------------

    def describe(self) -> str:
        """One line per step — what the run loop will actually do."""
        header = (
            f"plan {self.module_name!r} on {self.num_devices} devices: "
            f"{len(self.steps)} steps, "
            f"{len(self.initial_env)} slots, "
            f"{self.stats.donations} in-place, "
            f"{self.stats.folded} folded, "
            f"{self.stats.cse_eliminated} cse, "
            f"{self.stats.dce_eliminated} dce"
        )
        return "\n".join([header] + [f"  {label}" for label in self.labels])

    def __repr__(self) -> str:
        return (
            f"CompiledPlan({self.module_name!r}, {len(self.steps)} steps, "
            f"{self.num_devices} devices)"
        )
