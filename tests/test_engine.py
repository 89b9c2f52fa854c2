"""Tests for the unified Engine API (``repro.runtime.create_engine``).

Parity is the contract: the golden modules must produce bit-identical
outputs through every engine at every worker count, and (on the raw,
straight-line modules, where the compiled engine has nothing to fold
away) a one-worker plan must trace the same span-name sequence as the
interpreter. Decomposed variants introduce constants the compiled engine
folds, so only bit-identity is asserted there.
"""

import warnings

import numpy as np
import pytest

from repro.core.config import OverlapConfig
from repro.core.pipeline import compile_module
from repro.faults.chaos import GOLDEN_CASES
from repro.obs.tracer import Tracer
from repro.runtime import (
    Executor,
    ResilientExecutor,
    run_spmd,
    run_with_fallback,
)
from repro.runtime.engine import ENGINE_KINDS, create_engine
from repro.runtime.plan_cache import PlanCache
from repro.sharding.mesh import DeviceMesh

CASES_BY_RING = [
    (case, ring) for case in GOLDEN_CASES for ring in case.rings
]

#: Every parity case runs at these explicit worker counts; the one-worker
#: case keeps the bare case id.
WORKER_COUNTS = (1, 2, 4)
PARITY_CASES = [
    pytest.param(
        case, ring, workers,
        id=f"{case.name}-ring{ring}" + (f"-w{workers}" if workers > 1 else ""),
    )
    for workers in WORKER_COUNTS
    for case, ring in CASES_BY_RING
]


def _values_identical(a, b):
    assert a.keys() == b.keys()
    for key in a:
        assert len(a[key]) == len(b[key])
        for x, y in zip(a[key], b[key]):
            assert np.array_equal(x, y)


def _engines(workers):
    return {
        "interpreted": create_engine("interpreted"),
        "compiled": create_engine("compiled", workers=workers),
        "resilient": create_engine("resilient"),
    }


class TestParity:
    @pytest.mark.parametrize("case,ring,workers", PARITY_CASES)
    def test_raw_modules_bit_identical_with_identical_spans(
        self, case, ring, workers, rng
    ):
        mesh = DeviceMesh.ring(ring)
        module = case.build(mesh)
        arguments = case.make_arguments(mesh, rng)
        results, span_names = {}, {}
        for kind, engine in _engines(workers).items():
            tracer = Tracer()
            results[kind] = engine.run(
                module, arguments, mesh=mesh, tracer=tracer
            )
            span_names[kind] = [event.name for event in tracer.events]
        _values_identical(results["interpreted"], results["compiled"])
        _values_identical(results["interpreted"], results["resilient"])
        assert span_names["interpreted"] == span_names["resilient"]
        if workers == 1:
            # Worker pools trace one lane per worker; a one-worker plan
            # runs the plain step loop, one span per instruction.
            assert span_names["interpreted"] == span_names["compiled"]

    @pytest.mark.parametrize("case,ring,workers", PARITY_CASES)
    def test_decomposed_modules_bit_identical(self, case, ring, workers, rng):
        mesh = DeviceMesh.ring(ring)
        module = case.build(mesh)
        compile_module(module, mesh, OverlapConfig(use_cost_model=False))
        arguments = case.make_arguments(mesh, rng)
        results = {
            kind: engine.run(module, arguments, mesh=mesh)
            for kind, engine in _engines(workers).items()
        }
        _values_identical(results["interpreted"], results["compiled"])
        _values_identical(results["interpreted"], results["resilient"])

    def test_mesh_accepts_bare_device_count(self, rng):
        case, ring = GOLDEN_CASES[0], 4
        mesh = DeviceMesh.ring(ring)
        module = case.build(mesh)
        arguments = case.make_arguments(mesh, rng)
        engine = create_engine("compiled")
        _values_identical(
            engine.run(module, arguments, mesh=mesh),
            engine.run(module, arguments, mesh=ring),
        )


class TestCompiledEngineCache:
    def test_rebuilt_module_hits_and_keeps_its_own_root_name(self, rng):
        case = GOLDEN_CASES[0]
        mesh = DeviceMesh.ring(2)
        arguments = case.make_arguments(mesh, rng)
        engine = create_engine("compiled")
        first, second = case.build(mesh), case.build(mesh)
        values_first = engine.run(first, arguments, mesh=mesh)
        values_second = engine.run(second, arguments, mesh=mesh)
        stats = engine.plan_cache.stats
        assert stats.misses == 1 and stats.hits == 1
        # The hit's outputs are keyed by the *caller's* root name even
        # though the plan was lowered from the first module.
        assert set(values_second) == {second.root.name}
        for x, y in zip(
            values_first[first.root.name], values_second[second.root.name]
        ):
            assert np.array_equal(x, y)

    def test_shared_cache_across_engines(self, rng):
        case = GOLDEN_CASES[0]
        mesh = DeviceMesh.ring(2)
        arguments = case.make_arguments(mesh, rng)
        cache = PlanCache()
        one = create_engine("compiled", plan_cache=cache)
        two = create_engine("compiled", plan_cache=cache)
        one.run(case.build(mesh), arguments, mesh=mesh)
        two.run(case.build(mesh), arguments, mesh=mesh)
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_cache_counters_flow_through_tracer(self, rng):
        case = GOLDEN_CASES[0]
        mesh = DeviceMesh.ring(2)
        arguments = case.make_arguments(mesh, rng)
        tracer = Tracer()
        engine = create_engine("compiled", tracer=tracer)
        engine.run(case.build(mesh), arguments, mesh=mesh)
        engine.run(case.build(mesh), arguments, mesh=mesh)
        assert tracer.counters["plan.cache_misses"] == 1
        assert tracer.counters["plan.cache_hits"] == 1


class TestFactory:
    def test_kinds(self):
        assert tuple(ENGINE_KINDS) == (
            "interpreted", "compiled", "parallel", "resilient"
        )
        for kind in ("interpreted", "compiled", "resilient"):
            assert create_engine(kind).kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown engine kind"):
            create_engine("jit")

    def test_inapplicable_options_rejected(self):
        with pytest.raises(ValueError, match="plan_cache"):
            create_engine("interpreted", plan_cache=PlanCache())
        with pytest.raises(ValueError, match="donate_params"):
            create_engine("resilient", donate_params=False)
        with pytest.raises(ValueError, match="injector"):
            create_engine("compiled", injector=object())
        with pytest.raises(ValueError, match="workers"):
            create_engine("interpreted", workers=2)
        with pytest.raises(ValueError, match="sanitize"):
            create_engine("resilient", sanitize=True)

    def test_rejection_names_the_kinds_that_accept_the_option(self):
        with pytest.raises(ValueError, match="compiled"):
            create_engine("interpreted", workers=2)

    def test_resilient_engine_exposes_stats(self, rng):
        case = GOLDEN_CASES[0]
        mesh = DeviceMesh.ring(2)
        engine = create_engine("resilient")
        engine.run(
            case.build(mesh), case.make_arguments(mesh, rng), mesh=mesh
        )
        assert engine.last_stats is not None
        assert engine.last_stats.transfers == 0  # raw module, no permutes


class TestDeprecation:
    def test_engine_and_helper_paths_do_not_warn(self, rng):
        case = GOLDEN_CASES[0]
        mesh = DeviceMesh.ring(2)
        arguments = case.make_arguments(mesh, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for kind in ENGINE_KINDS:
                create_engine(kind).run(
                    case.build(mesh), arguments, mesh=mesh
                )
            Executor(2)
            ResilientExecutor(2)
            run_spmd(case.build(mesh), arguments, mesh.num_devices)
            run_with_fallback(
                case.build(mesh),
                case.build(mesh),
                arguments,
                mesh.num_devices,
            )
