"""Seeded property suite: worker pools vs one worker vs interpreter.

Every test draws a fully seed-determined schedule — golden case, ring
size, overlap config, worker count — runs it through all three engines
and asserts the outputs are bit-identical across the board. Failures
print the seed, so any divergence replays deterministically.
"""

import numpy as np
import pytest

from repro.core.config import OverlapConfig
from repro.core.loop import emit_rolled, unroll_while
from repro.core.patterns import find_candidates
from repro.core.pipeline import compile_module
from repro.faults.chaos import GOLDEN_CASES, run_chaos
from repro.hlo.builder import GraphBuilder
from repro.hlo.dtypes import F32
from repro.hlo.shapes import Shape
from repro.runtime.engine import create_engine
from repro.sharding.mesh import DeviceMesh

SCHEDULERS = ("bottom_up", "top_down", "in_order")


def _draw_schedule(seed):
    """One seed → one (case, mesh, config, workers, arguments) draw."""
    rng = np.random.default_rng([seed, 7])
    case = GOLDEN_CASES[int(rng.integers(len(GOLDEN_CASES)))]
    ring = int(case.rings[int(rng.integers(len(case.rings)))])
    mesh = DeviceMesh.ring(ring)
    config = OverlapConfig(
        use_cost_model=False,
        scheduler=SCHEDULERS[int(rng.integers(len(SCHEDULERS)))],
        unroll=bool(rng.integers(2)),
        bidirectional=bool(rng.integers(2)),
    )
    workers = int(rng.integers(1, 5))
    arguments = case.make_arguments(mesh, rng)
    return case, mesh, config, workers, arguments


def _assert_all_identical(seed, results):
    reference = results["interpreted"]
    for kind, got in results.items():
        assert reference.keys() == got.keys(), f"seed={seed}"
        for name in reference:
            for device, (want, have) in enumerate(
                zip(reference[name], got[name])
            ):
                assert np.array_equal(want, have), (
                    f"seed={seed}: {kind} output {name!r} differs from "
                    f"the interpreter on device {device}"
                )


@pytest.mark.parametrize("seed", range(24))
def test_seeded_schedules_bit_identical_across_engines(seed):
    case, mesh, config, workers, arguments = _draw_schedule(seed)
    module = case.build(mesh)
    compile_module(module, mesh, config)
    results = {
        kind: create_engine(kind, **options).run(
            module, arguments, mesh=mesh
        )
        for kind, options in (
            ("interpreted", {}),
            ("compiled", {}),
            ("parallel", {"workers": workers}),
        )
    }
    _assert_all_identical(seed, results)


@pytest.mark.parametrize("seed", range(8))
def test_seeded_while_bodies_bit_identical(seed):
    """Rolled / partially-unrolled loops at seed-drawn worker counts:
    the nested body plans run on the same pool as the outer plan."""
    rng = np.random.default_rng([seed, 11])
    ring = int(rng.choice([2, 3, 4]))
    workers = int(rng.integers(1, 5))
    unroll_factor = [None, 0, 2][int(rng.integers(3))]
    if unroll_factor == 2 and ring % 2:
        unroll_factor = None
    mesh = DeviceMesh.ring(ring)
    builder = GraphBuilder("ag")
    a = builder.parameter(Shape((24 // ring, 5), F32), name="a")
    w = builder.parameter(Shape((5, 7), F32), name="w")
    gathered = builder.all_gather(a, 0, mesh.rings("x"))
    builder.einsum("bf,fh->bh", gathered, w)
    module = builder.module
    (candidate,) = find_candidates(module)
    loop = emit_rolled(module, candidate, mesh)
    if unroll_factor == 0:
        unroll_while(module, loop)
    elif unroll_factor == 2:
        unroll_while(module, loop, factor=2)
    full_a = rng.normal(size=(24, 5))
    arguments = {
        "a": [s.copy() for s in np.split(full_a, ring, axis=0)],
        "w": [rng.normal(size=(5, 7))] * ring,
    }
    results = {
        "interpreted": create_engine("interpreted").run(
            module, arguments, mesh=mesh
        ),
        "compiled": create_engine("compiled").run(
            module, arguments, mesh=mesh
        ),
        "parallel": create_engine("parallel", workers=workers).run(
            module, arguments, mesh=mesh
        ),
    }
    _assert_all_identical(seed, results)


@pytest.mark.parametrize("seed", range(6))
def test_seeded_determinism_across_repeats(seed):
    """Two runs of the same drawn schedule are byte-identical."""
    case, mesh, config, workers, arguments = _draw_schedule(seed + 1000)
    module = case.build(mesh)
    compile_module(module, mesh, config)
    engine = create_engine("parallel", workers=workers)
    first = engine.run(module, arguments, mesh=mesh)
    second = engine.run(module, arguments, mesh=mesh)
    for name in first:
        for want, have in zip(first[name], second[name]):
            assert want.tobytes() == have.tobytes(), f"seed={seed}"


def test_chaos_contract_holds_with_parallel_oracle():
    """Injected faults audited against a worker pool as oracle:
    the resilience contract (recover or fail typed) must still hold,
    which also pins the oracle's bit-identity — a diverging oracle
    would flag silent corruption."""
    oracle = create_engine("parallel", workers=2)
    report = run_chaos(20230325, runs=12, oracle=oracle)
    assert report.ok, [str(v) for v in report.violations]
