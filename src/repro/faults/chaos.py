"""Chaos harness: randomized, seeded fault schedules over golden modules.

Every chaos run derives *everything* — golden module, mesh size, overlap
config, retry policy and fault plan — from one integer seed, so the seed
embedded in any :class:`FaultError` replays the exact failing schedule
via :func:`run_one`. The harness's contract, enforced by
``tests/test_chaos.py`` and the ``repro chaos`` CLI: every run either
recovers to oracle-exact output (directly or through the undecomposed
fallback) or fails with a typed, seeded error. Anything else — a wrong
answer without an error, an untyped exception, an error without its
replay seed — is a **violation** and fails the harness.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import OverlapConfig
from repro.core.pipeline import compile_module
from repro.faults.errors import FaultError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.hlo.builder import GraphBuilder
from repro.hlo.dtypes import F32
from repro.hlo.module import HloModule
from repro.hlo.opcode import Opcode
from repro.hlo.shapes import Shape
from repro.obs.events import ADAPT
from repro.obs.tracer import Tracer
from repro.runtime.engine import Engine, create_engine
from repro.runtime.resilient import RetryPolicy, run_with_fallback
from repro.sharding.mesh import DeviceMesh

#: One compiled engine shared by every chaos run in the process: the
#: golden modules are rebuilt per run but content-fingerprint to the
#: same plans, so a chaos batch lowers each (case, ring) oracle once.
#: Runs accept an ``oracle`` override (any bit-identical engine — a
#: worker pool qualifies); it replaces this default, never the
#: seed-determined draw sequence.
_ORACLE_ENGINE = create_engine("compiled")

#: Outcome labels.
RECOVERED = "recovered"            # primary ran through, oracle-exact
ADAPTED = "adapted"                # recovered on an intermediate ladder rung
FALLBACK = "fallback"              # degraded to the sync program, exact
TYPED_FAILURE = "typed-failure"    # a seeded FaultError (acceptable)
SILENT_CORRUPTION = "silent-corruption"      # wrong numbers, no error
UNTYPED_FAILURE = "untyped-failure"          # a non-FaultError exception
UNSEEDED_FAILURE = "unseeded-failure"        # FaultError missing its seed

#: Outcomes that violate the resilience contract.
VIOLATIONS = (SILENT_CORRUPTION, UNTYPED_FAILURE, UNSEEDED_FAILURE)


# --- golden modules --------------------------------------------------------------


def _allgather_einsum(mesh: DeviceMesh) -> HloModule:
    builder = GraphBuilder("ag_einsum")
    a = builder.parameter(Shape((2, 3), F32), name="a")
    w = builder.parameter(Shape((3, 5), F32), name="w")
    gathered = builder.all_gather(a, 0, mesh.rings("x"))
    builder.einsum("bf,fh->bh", gathered, w, name="out")
    return builder.module


def _einsum_reducescatter(mesh: DeviceMesh) -> HloModule:
    builder = GraphBuilder("einsum_rs")
    a = builder.parameter(Shape((4, 3), F32), name="a")
    w = builder.parameter(Shape((3, 8), F32), name="w")
    out = builder.einsum("bf,fh->bh", a, w, name="partial")
    builder.reduce_scatter(out, 1, mesh.rings("x"))
    return builder.module


def _mlp_chain(mesh: DeviceMesh) -> HloModule:
    builder = GraphBuilder("mlp_chain")
    a = builder.parameter(Shape((2, 3), F32), name="a")
    w = builder.parameter(Shape((3, 8), F32), name="w")
    gathered = builder.all_gather(a, 0, mesh.rings("x"))
    out = builder.einsum("bf,fh->bh", gathered, w, name="h")
    builder.reduce_scatter(out, 0, mesh.rings("x"))
    return builder.module


def _shards(rng, n, shape):
    return [rng.normal(size=shape) for _ in range(n)]


def _replicated(rng, n, shape):
    value = rng.normal(size=shape)
    return [value.copy() for _ in range(n)]


def _args_sharded_a(mesh, rng, a_shape, w_shape):
    n = mesh.num_devices
    return {
        "a": _shards(rng, n, a_shape),
        "w": _replicated(rng, n, w_shape),
    }


@dataclasses.dataclass(frozen=True)
class GoldenCase:
    """One golden module family the chaos harness exercises."""

    name: str
    rings: Tuple[int, ...]
    build: Callable[[DeviceMesh], HloModule]
    make_arguments: Callable[
        [DeviceMesh, np.random.Generator], Dict[str, List[np.ndarray]]
    ]


GOLDEN_CASES: Tuple[GoldenCase, ...] = (
    GoldenCase(
        "allgather-einsum", (2, 4), _allgather_einsum,
        lambda mesh, rng: _args_sharded_a(mesh, rng, (2, 3), (3, 5)),
    ),
    GoldenCase(
        "einsum-reducescatter", (2, 4), _einsum_reducescatter,
        lambda mesh, rng: _args_sharded_a(mesh, rng, (4, 3), (3, 8)),
    ),
    GoldenCase(
        "mlp-chain", (2, 4), _mlp_chain,
        lambda mesh, rng: _args_sharded_a(mesh, rng, (2, 3), (3, 8)),
    ),
)

SCHEDULERS = ("bottom_up", "top_down", "in_order")


# --- one run ---------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ChaosRunResult:
    """The audited outcome of one seeded chaos run."""

    seed: int
    case: str
    ring: int
    scheduler: str
    unroll: bool
    bidirectional: bool
    plan: str
    outcome: str
    error_type: Optional[str] = None
    message: Optional[str] = None
    retries: int = 0
    used_fallback: bool = False
    ladder_state: Optional[str] = None  # final rung (ladder mode only)
    transitions: int = 0                # ladder descents taken

    @property
    def is_violation(self) -> bool:
        return self.outcome in VIOLATIONS

    @property
    def signature(self) -> Tuple:
        """Everything seed-determined about the run. Excludes ``message``:
        instruction names embed a process-global counter, so only the
        behavioural fields are reproducible across processes."""
        return (
            self.seed, self.case, self.ring, self.scheduler, self.unroll,
            self.bidirectional, self.plan, self.outcome, self.error_type,
            self.retries, self.used_fallback, self.ladder_state,
            self.transitions,
        )


def run_one(
    seed: int,
    intensity: float = 0.5,
    atol: float = 1e-9,
    tracer: Optional[Tracer] = None,
    oracle: Optional[Engine] = None,
) -> ChaosRunResult:
    """Execute one fully seed-determined chaos schedule.

    ``tracer`` (optional) records the resilient run's spans, retry
    lanes and counters, and tallies the audited outcome under
    ``chaos.<outcome>`` — so a traced chaos batch shows where faulty
    schedules spent their time. ``oracle`` (optional) replaces the
    shared compiled oracle engine; the run's seed-derived draw sequence
    is independent of it, so signatures stay stable across oracles."""
    rng = np.random.default_rng([seed, 1])
    case = GOLDEN_CASES[int(rng.integers(len(GOLDEN_CASES)))]
    ring = int(case.rings[int(rng.integers(len(case.rings)))])
    mesh = DeviceMesh.ring(ring)
    config = OverlapConfig(
        use_cost_model=False,
        scheduler=SCHEDULERS[int(rng.integers(len(SCHEDULERS)))],
        unroll=bool(rng.integers(2)),
        bidirectional=bool(rng.integers(2)),
    )
    policy = RetryPolicy(max_attempts=int(rng.integers(2, 6)))

    arguments = case.make_arguments(mesh, rng)
    # The oracle runs on the compiled engine by default (bit-identical
    # to the interpreter, ~an order of magnitude faster over a batch).
    oracle_engine = oracle if oracle is not None else _ORACLE_ENGINE
    oracle_module = case.build(mesh)
    oracle_values = oracle_engine.run(oracle_module, arguments, mesh=mesh)[
        oracle_module.root.name
    ]

    primary = case.build(mesh)
    compile_module(primary, mesh, config)
    fallback = case.build(mesh)
    num_transfers = primary.count(Opcode.COLLECTIVE_PERMUTE_START)
    plan = FaultPlan.random(
        seed,
        num_devices=mesh.num_devices,
        max_transfer_index=max(1, num_transfers),
        intensity=intensity,
        timeout_hint=policy.timeout,
    )

    def describe(outcome, error=None, retries=0, used_fallback=False):
        if tracer is not None:
            tracer.count(f"chaos.{outcome}")
        return ChaosRunResult(
            seed=seed,
            case=case.name,
            ring=ring,
            scheduler=config.scheduler,
            unroll=config.unroll,
            bidirectional=config.bidirectional,
            plan=repr(plan),
            outcome=outcome,
            error_type=type(error).__name__ if error is not None else None,
            message=str(error) if error is not None else None,
            retries=retries,
            used_fallback=used_fallback,
        )

    try:
        result = run_with_fallback(
            primary,
            fallback,
            arguments,
            mesh.num_devices,
            injector=FaultInjector(plan),
            policy=policy,
            tracer=tracer,
        )
    except FaultError as error:
        if f"seed={seed}" not in str(error):
            return describe(UNSEEDED_FAILURE, error)
        return describe(TYPED_FAILURE, error)
    except Exception as error:  # noqa: BLE001 - the harness audits these
        return describe(UNTYPED_FAILURE, error)

    worst = max(
        float(np.abs(got - want).max())
        for got, want in zip(result.root, oracle_values)
    )
    if worst > atol:
        return describe(
            SILENT_CORRUPTION,
            error=FaultError(
                f"output diverges from oracle by {worst:.3e} without an "
                f"error",
                seed=seed,
            ),
            retries=result.stats.retries,
            used_fallback=result.used_fallback,
        )
    return describe(
        FALLBACK if result.used_fallback else RECOVERED,
        retries=result.stats.retries,
        used_fallback=result.used_fallback,
    )


# --- ladder mode -----------------------------------------------------------------


def _with_directions(plan: FaultPlan, rng: np.random.Generator) -> FaultPlan:
    """Scope each LINK_DOWN spec to a seeded ring direction.

    A third of outages stay fabric-wide (``None``), the rest down only
    one direction — the outages the ladder's unidirectional rung can
    route around. Applied as a post-pass so :meth:`FaultPlan.random`'s
    draw sequence (and thus every non-ladder signature) is untouched.
    """
    specs = []
    for spec in plan.specs:
        if spec.kind is FaultKind.LINK_DOWN:
            choice = (None, "minus", "plus")[int(rng.integers(3))]
            specs.append(dataclasses.replace(spec, direction=choice))
        else:
            specs.append(spec)
    return FaultPlan(seed=plan.seed, specs=tuple(specs))


def run_one_ladder(
    seed: int,
    intensity: float = 0.5,
    atol: float = 1e-9,
    tracer: Optional[Tracer] = None,
    oracle: Optional[Engine] = None,
) -> ChaosRunResult:
    """One seeded chaos schedule through the full degradation ladder.

    Derives the same case/ring/config/policy as :func:`run_one` from the
    same seed, then executes via
    :func:`repro.adapt.ladder.run_with_ladder` instead of the one-cliff
    fallback, with LINK_DOWN faults direction-scoped by a separate
    seeded stream. The audit adds two ladder-specific checks: every
    transition object must carry the replay seed, and every transition
    must appear as an ``ADAPT`` trace event embedding ``seed=<seed>`` —
    a transition without its seed is an :data:`UNSEEDED_FAILURE`
    violation even if the numbers come out right.
    """
    from repro.adapt.ladder import run_with_ladder

    rng = np.random.default_rng([seed, 1])
    case = GOLDEN_CASES[int(rng.integers(len(GOLDEN_CASES)))]
    ring = int(case.rings[int(rng.integers(len(case.rings)))])
    mesh = DeviceMesh.ring(ring)
    config = OverlapConfig(
        use_cost_model=False,
        scheduler=SCHEDULERS[int(rng.integers(len(SCHEDULERS)))],
        unroll=bool(rng.integers(2)),
        bidirectional=bool(rng.integers(2)),
    )
    policy = RetryPolicy(max_attempts=int(rng.integers(2, 6)))

    arguments = case.make_arguments(mesh, rng)
    oracle_engine = oracle if oracle is not None else _ORACLE_ENGINE
    oracle_module = case.build(mesh)
    oracle_values = oracle_engine.run(oracle_module, arguments, mesh=mesh)[
        oracle_module.root.name
    ]

    probe = case.build(mesh)
    compile_module(probe, mesh, config)
    num_transfers = probe.count(Opcode.COLLECTIVE_PERMUTE_START)
    plan = _with_directions(
        FaultPlan.random(
            seed,
            num_devices=mesh.num_devices,
            max_transfer_index=max(1, num_transfers),
            intensity=intensity,
            timeout_hint=policy.timeout,
        ),
        np.random.default_rng([seed, 7]),
    )
    # The ladder's own tracer, so the ADAPT-event audit sees exactly
    # this run's transitions even when the caller shares a tracer.
    audit = Tracer()

    def describe(
        outcome, error=None, retries=0, used_fallback=False,
        ladder_state=None, transitions=0,
    ):
        if tracer is not None:
            tracer.count(f"chaos.{outcome}")
        return ChaosRunResult(
            seed=seed,
            case=case.name,
            ring=ring,
            scheduler=config.scheduler,
            unroll=config.unroll,
            bidirectional=config.bidirectional,
            plan=repr(plan),
            outcome=outcome,
            error_type=type(error).__name__ if error is not None else None,
            message=str(error) if error is not None else None,
            retries=retries,
            used_fallback=used_fallback,
            ladder_state=ladder_state,
            transitions=transitions,
        )

    try:
        result = run_with_ladder(
            lambda: case.build(mesh),
            mesh,
            arguments,
            base_config=config,
            injector=FaultInjector(plan),
            policy=policy,
            tracer=audit,
        )
    except FaultError as error:
        if f"seed={seed}" not in str(error):
            return describe(UNSEEDED_FAILURE, error)
        return describe(TYPED_FAILURE, error)
    except Exception as error:  # noqa: BLE001 - the harness audits these
        return describe(UNTYPED_FAILURE, error)

    state = result.state.name.lower()
    descents = len(result.transitions)
    adapt_events = [e for e in audit.events if e.kind == ADAPT]
    if (
        len(adapt_events) != descents
        or any(f"seed={seed}" not in e.name for e in adapt_events)
        or any(t.seed != seed for t in result.transitions)
    ):
        return describe(
            UNSEEDED_FAILURE,
            error=FaultError(
                "ladder transition missing its typed, seeded trace event",
                seed=seed,
            ),
            retries=result.stats.retries,
            used_fallback=result.used_fallback,
            ladder_state=state,
            transitions=descents,
        )

    worst = max(
        float(np.abs(got - want).max())
        for got, want in zip(result.root, oracle_values)
    )
    if worst > atol:
        return describe(
            SILENT_CORRUPTION,
            error=FaultError(
                f"output diverges from oracle by {worst:.3e} without an "
                f"error",
                seed=seed,
            ),
            retries=result.stats.retries,
            used_fallback=result.used_fallback,
            ladder_state=state,
            transitions=descents,
        )
    if result.used_fallback:
        outcome = FALLBACK
    elif result.transitions:
        outcome = ADAPTED
    else:
        outcome = RECOVERED
    return describe(
        outcome,
        retries=result.stats.retries,
        used_fallback=result.used_fallback,
        ladder_state=state,
        transitions=descents,
    )


# --- batches ---------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ChaosReport:
    """The audited outcome of one seeded chaos batch."""

    seed: int
    intensity: float
    runs: Tuple[ChaosRunResult, ...]

    @property
    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for run in self.runs:
            counts[run.outcome] = counts.get(run.outcome, 0) + 1
        return counts

    @property
    def violations(self) -> List[ChaosRunResult]:
        return [run for run in self.runs if run.is_violation]

    @property
    def ok(self) -> bool:
        return not self.violations


def run_chaos(
    seed: int,
    runs: int,
    intensity: float = 0.5,
    ladder: bool = False,
    oracle: Optional[Engine] = None,
) -> ChaosReport:
    """Run ``runs`` independent seeded schedules derived from ``seed``.

    ``ladder=True`` executes each schedule through the full degradation
    ladder (:func:`run_one_ladder`) instead of the one-cliff fallback.
    ``oracle`` (optional) replaces the shared compiled oracle engine for
    every run in the batch.
    """
    run_seeds = [
        int(s) for s in
        np.random.SeedSequence(seed).generate_state(runs, dtype=np.uint32)
    ]
    runner = run_one_ladder if ladder else run_one
    results = tuple(
        runner(s, intensity=intensity, oracle=oracle) for s in run_seeds
    )
    return ChaosReport(seed=seed, intensity=intensity, runs=results)


def format_report(report: ChaosReport) -> str:
    """Human-readable summary (always names the batch seed)."""
    lines = [
        f"chaos: {len(report.runs)} runs, batch seed={report.seed}, "
        f"intensity={report.intensity}",
    ]
    for outcome in (
        RECOVERED, ADAPTED, FALLBACK, TYPED_FAILURE, *VIOLATIONS
    ):
        count = report.counts.get(outcome, 0)
        if count or outcome in (RECOVERED, FALLBACK, TYPED_FAILURE):
            lines.append(f"  {outcome:18} {count:4d}")
    retries = sum(run.retries for run in report.runs)
    lines.append(f"  total retransmissions  {retries}")
    if report.ok:
        lines.append("contract held: every run recovered or failed typed")
    else:
        lines.append("CONTRACT VIOLATIONS:")
        for run in report.violations:
            lines.append(
                f"  seed={run.seed} case={run.case} ring={run.ring} "
                f"[{run.outcome}] {run.error_type}: {run.message}"
            )
    return "\n".join(lines)
