"""Traced-run view of the runtime layer, measured from outside.

:class:`RuntimeProbe` wraps :meth:`repro.runtime.engine.CompiledEngine.run`
so each call gets its own public :class:`repro.obs.Tracer` (the engine's
``tracer=`` argument), then splits the call's wall time into self time
per op class, taken from the tracer's ``TraceEvent`` spans, plus the
dispatch remainder (wall time not covered by any top-level op span). It
also wraps :func:`repro.runtime.compile.lower`, the cold half of
``engine.plan_for``. Calls from several threads (the serve workers) are
merged under a lock.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional

from repro.hlo.opcode import ELEMENTWISE_OPS, Opcode
from repro.obs.events import (
    ASYNC_DONE,
    ASYNC_START,
    COLLECTIVE,
    CONTROL,
    TRANSFER,
)
from repro.obs.tracer import Tracer
import repro.runtime.compile as runtime_compile
import repro.runtime.engine as runtime_engine

from harness import Spans, clock

#: Op classes, in the order the report lists them.
OP_CLASSES = (
    "einsum",
    "elementwise",
    "data_movement",
    "sync_collective",
    "permute_start",
    "permute_done",
    "while_control",
    "other",
)

_KIND_CLASS = {
    ASYNC_START: "permute_start",
    ASYNC_DONE: "permute_done",
    COLLECTIVE: "sync_collective",
    CONTROL: "while_control",
}

_DATA_MOVEMENT = frozenset(
    {
        Opcode.SLICE,
        Opcode.DYNAMIC_SLICE,
        Opcode.DYNAMIC_UPDATE_SLICE,
        Opcode.PAD,
        Opcode.CONCATENATE,
        Opcode.RESHAPE,
        Opcode.TRANSPOSE,
    }
)

_OPCODE_VALUES = {opcode.value: opcode for opcode in Opcode}


def _compute_class(opcode: Optional[Opcode]) -> str:
    if opcode is Opcode.EINSUM:
        return "einsum"
    if opcode in ELEMENTWISE_OPS:
        return "elementwise"
    if opcode in _DATA_MOVEMENT:
        return "data_movement"
    return "other"


def _opcodes(module: Any, into: Dict[str, Opcode]) -> Dict[str, Opcode]:
    """Instruction name -> opcode, While bodies included."""
    for instr in module.instructions:
        into[instr.name] = instr.opcode
        body = instr.attrs.get("body") if instr.attrs else None
        if body is not None:
            _opcodes(body, into)
    return into


class RuntimeProbe:
    """Per-op-class self time, dispatch time and lowering time."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.recording = False
        #: Maps a call's ``inputs`` to the operation id its span gets.
        self.op_of: Optional[Callable[[Any], Optional[int]]] = None
        self._lock = threading.Lock()
        self._names: Dict[int, Dict[str, Opcode]] = {}
        self.op_s = {name: 0.0 for name in OP_CLASSES}
        self.op_count = {name: 0 for name in OP_CLASSES}
        self.run_s = 0.0
        self.dispatch_s = 0.0
        self.runs = 0

    def install(self) -> None:
        self.spans.patch(runtime_compile, "lower", "runtime.lower")
        self.spans.replace(
            runtime_engine.CompiledEngine, "run", self._wrap_run
        )

    def _wrap_run(self, original: Any) -> Any:
        probe = self

        def run(engine, module, inputs, *, mesh, outputs=None,
                iteration=0, tracer=None):
            if not probe.recording or tracer is not None or engine.tracer:
                return original(
                    engine, module, inputs, mesh=mesh, outputs=outputs,
                    iteration=iteration, tracer=tracer,
                )
            own = Tracer()
            op = probe.op_of(inputs) if probe.op_of else None
            with probe.spans.span("runtime.run", op=op):
                start = clock()
                values = original(
                    engine, module, inputs, mesh=mesh, outputs=outputs,
                    iteration=iteration, tracer=own,
                )
                wall = clock() - start
            probe._account(module, own, wall)
            return values

        return run

    def _account(self, module: Any, tracer: Tracer, wall: float) -> None:
        with self._lock:
            names = self._names.get(id(module))
            if names is None:
                names = self._names[id(module)] = _opcodes(module, {})
        # Children complete (and are appended) before their parent, so a
        # running sum per depth gives each span the time its children
        # covered.
        child_s: Dict[int, float] = {}
        op_s = {name: 0.0 for name in OP_CLASSES}
        op_count = {name: 0 for name in OP_CLASSES}
        top_s = 0.0
        for event in tracer.events:
            if event.kind == TRANSFER:
                continue
            duration = event.end - event.start
            own = duration - child_s.pop(event.depth + 1, 0.0)
            child_s[event.depth] = child_s.get(event.depth, 0.0) + duration
            if event.depth == 0:
                top_s += duration
            cls = _KIND_CLASS.get(event.kind)
            if cls is None:
                opcode = names.get(event.name) or _OPCODE_VALUES.get(
                    event.name.split(".")[0]
                )
                cls = _compute_class(opcode)
            op_s[cls] += own
            op_count[cls] += 1
        with self._lock:
            for name in OP_CLASSES:
                self.op_s[name] += op_s[name]
                self.op_count[name] += op_count[name]
            self.run_s += wall
            self.dispatch_s += wall - top_s
            self.runs += 1

    def metrics(self, ops: int) -> Dict[str, float]:
        """Per-operation figures (``ops`` = the workload's operations)."""
        per = 1.0 / max(ops, 1)
        out = {}
        for name in OP_CLASSES:
            out[f"runtime.op.{name}_ms"] = self.op_s[name] * 1e3 * per
            out[f"runtime.op.{name}_count"] = self.op_count[name] * per
        out["runtime.dispatch_ms"] = self.dispatch_s * 1e3 * per
        out["runtime.run_ms"] = self.run_s * 1e3 * per
        return out
