"""Workload ``layer-exec``: layer-scale programs on the host engine.

Two programs, each as the undecomposed reference and as the
forced-decomposition overlapped compilation, run on the default engine
(``create_engine()``):

* ``gpt_layer``: a reduced-width Table-1 GPT decoder layer (forward and
  backward) on a 4x2 mesh;
* ``train_step``: the composed 4x2 TP x DP training step, 256x128x512.

Compilation, lowering and the interpreter oracle all happen in set-up,
so the timed loop is einsum-bound execution. Inputs are seeded
integer-valued float64 arrays, so every sum of products is exact and
each output must be ``array_equal`` to the interpreter's.

The untraced run times each iteration in wall time and normalizes it by
the reference kernels run beside it (:mod:`calibrate`), because the
shared host's speed drifts by tens of percent over minutes.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import OverlapConfig
from repro.core.pipeline import compile_module
from repro.models.configs import GPT_32B
from repro.models.trainstep import (
    CHECK_OUTPUTS,
    train_step_graph,
    train_step_mesh,
)
from repro.models.transformer import decoder_layer_graph
from repro.perfsim.simulator import simulate
from repro.runtime.engine import create_engine
from repro.sharding import partition, shard_array

from calibrate import HostSpeed
from harness import (
    Outcome, clock, geomean, hit_rate_since, maybe_span, median,
)

GPT_LAYER = dataclasses.replace(
    GPT_32B, name="GPT_32B-w256", d_model=256, d_ff=1024, batch_size=8,
    seq_len=64, head_dim=64, mesh_x=4, mesh_y=2, num_chips=8,
)
FORCED = OverlapConfig(use_cost_model=False, decompose_standalone=True)
#: Reference kernels the untraced timings are normalized by: the engine
#: runs einsums and dispatches ops from Python.
KERNELS = ("python", "blas")


@dataclasses.dataclass
class Program:
    name: str
    mesh: Any
    reference: Any            # partitioned, undecomposed module
    overlapped: Any           # partitioned and pipeline-compiled module
    outputs: Optional[Sequence[str]]
    inputs: Dict[str, List[np.ndarray]]
    expected: Dict[str, Any]  # interpreter outputs


def _build(name, graph, mesh, outputs, seed: int) -> Program:
    reference = partition(graph, mesh)
    overlapped = partition(graph, mesh)
    compile_module(overlapped, mesh, FORCED)
    rng = np.random.default_rng([seed, len(name)])
    inputs = {
        tensor: shard_array(
            rng.integers(-2, 3, size=graph.tensors[tensor].shape.dims)
            .astype(np.float64),
            graph.tensors[tensor].spec,
            mesh,
        )
        for tensor in graph.inputs
    }
    expected = create_engine("interpreted").run(
        reference, inputs, mesh=mesh, outputs=outputs
    )
    return Program(name, mesh, reference, overlapped, outputs, inputs, expected)


def setup(seed: int):
    """Cold set-up: partition, compile, lower both variants of both
    programs on a fresh engine and run the interpreter oracle."""
    programs = [
        _build("gpt_layer", decoder_layer_graph(GPT_LAYER),
               GPT_LAYER.mesh(), None, seed),
        _build("train_step", train_step_graph(256, 128, 512),
               train_step_mesh(4, 2), CHECK_OUTPUTS, seed),
    ]
    engine = create_engine()
    for program in programs:
        for module in (program.reference, program.overlapped):
            engine.plan_for(
                module, outputs=program.outputs, mesh=program.mesh
            )
    return engine, programs


def predicted_speedup(programs: List[Program]) -> float:
    """Perfsim's baseline/overlapped step-time ratio, geomean."""
    return geomean([
        simulate(p.reference, p.mesh).total_time
        / simulate(p.overlapped, p.mesh).total_time
        for p in programs
    ])


def _run(out: Outcome, engine, program: Program, module, label: str) -> float:
    start = clock()
    values = engine.run(
        module, program.inputs, mesh=program.mesh, outputs=program.outputs
    )
    elapsed = clock() - start
    same = all(
        np.array_equal(np.asarray(values[name]), np.asarray(expected))
        for name, expected in program.expected.items()
    )
    out.check(same, f"{program.name} {label}: differs from the interpreter")
    return elapsed


def _iteration(out: Outcome, engine, programs, overlapped_first: bool):
    ov = ref = 0.0
    for program in programs:
        for overlapped in (overlapped_first, not overlapped_first):
            if overlapped:
                ov += _run(out, engine, program, program.overlapped, "ov")
            else:
                ref += _run(out, engine, program, program.reference, "ref")
    return ov, ref


def timed_loop(
    out: Outcome, engine, programs, seconds: float, spans=None, speed=None
):
    """Alternate the order of the two variants each iteration; returns
    per-iteration milliseconds of the overlapped and reference runs,
    normalized by ``speed`` when given, and the loop's wall seconds.
    With ``spans``, each iteration is one traced operation."""
    overlapped_ms, reference_ms = [], []
    if speed is not None:
        speed.mark()
    begin = clock()
    while not overlapped_ms or clock() - begin < seconds:
        first = len(overlapped_ms) % 2 == 0
        op = len(overlapped_ms) + 1
        with maybe_span(spans, "layer_exec.iteration", op):
            ov, ref = _iteration(out, engine, programs, first)
        if speed is not None:
            speed.mark()
            ov, ref = speed.normalize(ov), speed.normalize(ref)
        overlapped_ms.append(ov * 1e3)
        reference_ms.append(ref * 1e3)
    return overlapped_ms, reference_ms, clock() - begin


def measure(out: Outcome, engine, programs, seconds: float) -> None:
    overlapped_ms, reference_ms, _ = timed_loop(
        out, engine, programs, seconds, speed=HostSpeed(KERNELS, clock)
    )
    out.put("main_ms.p50", median(overlapped_ms))
    out.put("ref_ms.p50", median(reference_ms))
    out.put("throughput_per_s", 2 * len(programs) * 1e3 / median(
        [a + b for a, b in zip(overlapped_ms, reference_ms)]
    ))
    out.put("sim_speedup", predicted_speedup(programs))
    out.report.update(main_ms=overlapped_ms, ref_ms=reference_ms)


def pool_counts() -> List[int]:
    """Worker counts for the pool-scaling rows: every k up to the CPU
    count on small hosts, powers of two plus the CPU count beyond 8."""
    cpus = os.cpu_count() or 1
    if cpus <= 8:
        return list(range(1, cpus + 1))
    counts = [1 << i for i in range(cpus.bit_length()) if 1 << i <= cpus]
    return sorted(set(counts + [cpus]))


def pool_rows(out: Outcome, programs, repeats: int = 3) -> Dict[str, Any]:
    """Median ms of each overlapped program on the parallel engine at
    each worker count (always passed explicitly)."""
    rows: Dict[str, Dict[int, float]] = {p.name: {} for p in programs}
    for workers in pool_counts():
        engine = create_engine("parallel", workers=workers)
        for program in programs:
            engine.plan_for(
                program.overlapped, outputs=program.outputs, mesh=program.mesh
            )
            samples = [
                _run(out, engine, program, program.overlapped,
                     f"parallel w{workers}") * 1e3
                for _ in range(repeats)
            ]
            rows[program.name][workers] = median(samples)
    return rows


def measure_traced(
    out: Outcome, engine, programs, seconds: float, probe, spans
):
    """Untraced then traced halves; per-layer figures per iteration,
    then the pool-scaling rows."""
    untraced = timed_loop(out, engine, programs, seconds / 2)
    cache = engine.plan_cache.stats
    hits, misses = cache.hits, cache.misses
    probe.recording = True
    try:
        traced = timed_loop(out, engine, programs, seconds / 2, spans)
    finally:
        probe.recording = False
    iterations = len(traced[0])
    layer = probe.metrics(iterations)
    layer["runtime.plan_cache_hit_rate"] = hit_rate_since(
        engine.plan_cache.stats, hits, misses
    )
    layer.update(spans.op_figures("layer_exec.iteration", iterations))
    layer["obs.trace_overhead_frac"] = (
        median([a + b for a, b in zip(traced[0], traced[1])])
        / median([a + b for a, b in zip(untraced[0], untraced[1])])
        - 1
    )
    rows = pool_rows(out, programs)
    for name, by_workers in rows.items():
        best = min(by_workers, key=by_workers.get)
        layer[f"pool.{name}.w1_ms"] = by_workers[1]
        layer[f"pool.{name}.best_ms"] = by_workers[best]
        layer[f"pool.{name}.best_workers"] = best
    out.report.update(
        iterations_untraced=len(untraced[0]),
        iterations_traced=iterations,
        pool_rows_ms={n: {str(k): v for k, v in r.items()}
                      for n, r in rows.items()},
    )
    return layer
