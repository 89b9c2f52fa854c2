"""Benchmark harness: interpreted ``Executor`` vs the compiled engine.

Times both executors on the chaos harness's golden modules (and their
decomposed/unrolled variants) across a sweep of simulated device counts,
verifying bit-identical outputs along the way. The point is to pin the
repo's own hot path — every equivalence test, chaos schedule and
experiment funnels through the runtime — and to leave a machine-readable
trail (``BENCH_executor.json``) that CI can track over time.

Methodology: each measurement is the best of ``repeats`` timing windows,
each window averaging ``inner`` back-to-back ``run()`` calls (plan
lowering is excluded — the compiled executor caches its plan, and the
amortized hot path is what the suite actually exercises). Best-of keeps
scheduler noise out of the trend line.
"""

from __future__ import annotations

import json
import math
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import OverlapConfig
from repro.core.pipeline import compile_module
from repro.hlo.builder import GraphBuilder
from repro.hlo.dtypes import F32
from repro.hlo.module import HloModule
from repro.hlo.shapes import Shape
from repro.runtime.engine import create_engine
from repro.sharding.mesh import DeviceMesh


# --- benchmark modules -------------------------------------------------------
#
# The chaos harness's golden family, with the reduce-scattered dimension
# scaled by the ring size so every case runs on any device count (the
# fixed golden shapes only divide on rings of 2 and 4).


def _allgather_einsum(mesh: DeviceMesh) -> HloModule:
    builder = GraphBuilder("ag_einsum")
    a = builder.parameter(Shape((2, 3), F32), name="a")
    w = builder.parameter(Shape((3, 5), F32), name="w")
    gathered = builder.all_gather(a, 0, mesh.rings("x"))
    builder.einsum("bf,fh->bh", gathered, w, name="out")
    return builder.module


def _einsum_reducescatter(mesh: DeviceMesh) -> HloModule:
    n = mesh.num_devices
    builder = GraphBuilder("einsum_rs")
    a = builder.parameter(Shape((4, 3), F32), name="a")
    w = builder.parameter(Shape((3, 2 * n), F32), name="w")
    out = builder.einsum("bf,fh->bh", a, w, name="partial")
    builder.reduce_scatter(out, 1, mesh.rings("x"))
    return builder.module


def _mlp_chain(mesh: DeviceMesh) -> HloModule:
    n = mesh.num_devices
    builder = GraphBuilder("mlp_chain")
    a = builder.parameter(Shape((2, 3), F32), name="a")
    w = builder.parameter(Shape((3, 2 * n), F32), name="w")
    gathered = builder.all_gather(a, 0, mesh.rings("x"))
    out = builder.einsum("bf,fh->bh", gathered, w, name="h")
    builder.reduce_scatter(out, 0, mesh.rings("x"))
    return builder.module


def _arguments(
    mesh: DeviceMesh, rng: np.random.Generator, module: HloModule
) -> Dict[str, List[np.ndarray]]:
    n = mesh.num_devices
    arguments: Dict[str, List[np.ndarray]] = {}
    for parameter in module.parameters():
        if parameter.name == "w":  # replicated weights
            value = rng.normal(size=parameter.shape.dims)
            arguments[parameter.name] = [value.copy() for _ in range(n)]
        else:  # sharded activations
            arguments[parameter.name] = [
                rng.normal(size=parameter.shape.dims) for _ in range(n)
            ]
    return arguments


BENCH_CASES: Tuple[Tuple[str, Callable[[DeviceMesh], HloModule]], ...] = (
    ("allgather-einsum", _allgather_einsum),
    ("einsum-reducescatter", _einsum_reducescatter),
    ("mlp-chain", _mlp_chain),
)

#: Module variants benchmarked per golden case: the reference program,
#: the paper's decomposed overlap form, and the most aggressive unrolled
#: bidirectional form.
VARIANTS: Tuple[Tuple[str, Optional[OverlapConfig]], ...] = (
    ("reference", None),
    ("decomposed", OverlapConfig(use_cost_model=False, scheduler="in_order")),
    (
        "unrolled-bidir",
        OverlapConfig(
            use_cost_model=False, scheduler="bottom_up",
            unroll=True, bidirectional=True,
        ),
    ),
)

DEVICE_COUNTS: Tuple[int, ...] = (2, 4, 8, 16)
QUICK_DEVICE_COUNTS: Tuple[int, ...] = (4, 8)


def _best_seconds(fn: Callable[[], None], repeats: int, inner: int) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        elapsed = (time.perf_counter() - start) / inner
        best = min(best, elapsed)
    return best


def _bit_identical(a: Dict[str, list], b: Dict[str, list]) -> bool:
    if a.keys() != b.keys():
        return False
    return all(
        len(a[k]) == len(b[k])
        and all(np.array_equal(x, y) for x, y in zip(a[k], b[k]))
        for k in a
    )


def _geomean(values: Sequence[float]) -> float:
    if not values:
        return float("nan")
    return float(np.exp(np.mean(np.log(values))))


def run_bench(
    quick: bool = False,
    repeats: int = 3,
    inner: int = 10,
    device_counts: Optional[Sequence[int]] = None,
    engine: str = "compiled",
    workers: Optional[int] = None,
    parallel: bool = False,
    tuned=None,
    sanitize: bool = False,
) -> Dict:
    """Run the full benchmark grid; returns the JSON-ready report.

    ``engine`` selects the back end timed against the interpreter (any
    registered kind; ``workers`` sizes its worker pool).
    ``parallel=True`` additionally runs the large-ring worker-pool sweep
    (:func:`run_parallel_bench`, sized by ``workers`` instead) and
    attaches it under the report's ``"parallel"`` key. ``tuned`` (``True``, a
    path, or a ``TuningDB``) attaches the autotuner database to the
    timed engine: the raw ``reference`` rows then pick up tuned overlap
    configs by content fingerprint, exactly as serving does — kinds
    that cannot take a database are rejected loudly.
    """
    if device_counts is None:
        device_counts = QUICK_DEVICE_COUNTS if quick else DEVICE_COUNTS
    if quick:
        # Quick mode shrinks the grid and the averaging window but keeps
        # every best-of repeat: dropping timing windows is what makes
        # sub-millisecond speedups noisy enough to trip trend gates.
        inner = min(inner, 5)

    # One engine pair serves the whole grid: the compiled engine's
    # content-addressed plan cache holds every (module, devices) plan,
    # so the timed loop measures the warm serving path.
    interpreter = create_engine("interpreted")
    options: Dict[str, object] = {}
    if tuned is not None and tuned is not False:
        # Loud: --tuned must actually tune the timed engine. Never
        # silently time an untuned run under a tuned label.
        options["tuned"] = tuned
    if workers is not None and not parallel:
        options["workers"] = workers
    compiled = create_engine(engine, **options)
    rows: List[Dict] = []
    for case_name, build in BENCH_CASES:
        for label, config in VARIANTS:
            for n in device_counts:
                mesh = DeviceMesh.ring(n)
                rng = np.random.default_rng([20230325, n])
                module = build(mesh)
                arguments = _arguments(mesh, rng, module)
                if config is not None:
                    compile_module(module, mesh, config)

                reference = interpreter.run(module, arguments, mesh=n)
                result = compiled.run(module, arguments, mesh=n)  # lowers
                identical = _bit_identical(reference, result)

                interpreted_s = _best_seconds(
                    lambda: interpreter.run(module, arguments, mesh=n),
                    repeats, inner,
                )
                compiled_s = _best_seconds(
                    lambda: compiled.run(module, arguments, mesh=n),
                    repeats, inner,
                )
                row = {
                    "case": case_name,
                    "variant": label,
                    "devices": n,
                    "interpreted_ms": interpreted_s * 1e3,
                    "compiled_ms": compiled_s * 1e3,
                    "speedup": interpreted_s / compiled_s,
                    "bit_identical": identical,
                }
                if hasattr(compiled, "plan_for"):
                    stats = compiled.plan_for(module, num_devices=n).stats
                    row["plan"] = {
                        "steps": stats.steps,
                        "folded": stats.folded,
                        "cse_eliminated": stats.cse_eliminated,
                        "copies_elided": stats.copies_elided,
                        "donations": stats.donations,
                    }
                rows.append(row)

    speedups = [row["speedup"] for row in rows]
    at_8plus = [row["speedup"] for row in rows if row["devices"] >= 8]
    report = {
        "benchmark": "executor",
        "quick": quick,
        "repeats": repeats,
        "inner": inner,
        "engine": engine,
        "workers": getattr(compiled, "workers", 1),
        "tuned": bool(tuned),
        "device_counts": list(device_counts),
        "rows": rows,
        "summary": {
            "geomean_speedup": _geomean(speedups),
            "speedup_at_8plus": _geomean(at_8plus),
            "all_bit_identical": all(row["bit_identical"] for row in rows),
        },
    }
    if hasattr(compiled, "plan_cache"):
        report["summary"]["plan_cache"] = compiled.plan_cache.stats.to_json()
    if getattr(compiled, "tuning_db", None) is not None:
        report["summary"]["tuning_db"] = compiled.tuning_db.stats.to_json()
    if parallel:
        report["parallel"] = run_parallel_bench(
            quick=quick, repeats=repeats, inner=inner,
            workers=workers or PARALLEL_WORKERS, sanitize=sanitize,
        )
    return report


# --- the large-ring worker-pool sweep ----------------------------------------

#: Ring sizes for the worker-pool sweep: 8 anchors against the
#: interpreter-verified main grid, 64 and 256 are where row-partitioned
#: workers have real arrays to chew on.
PARALLEL_DEVICE_COUNTS: Tuple[int, ...] = (8, 64, 256)
QUICK_PARALLEL_DEVICE_COUNTS: Tuple[int, ...] = (8, 64)

#: Pool size the sweep times when none is given.
PARALLEL_WORKERS = 2


def run_parallel_bench(
    quick: bool = False,
    repeats: int = 3,
    inner: int = 10,
    workers: int = PARALLEL_WORKERS,
    device_counts: Optional[Sequence[int]] = None,
    sanitize: bool = False,
) -> Dict:
    """Time the compiled engine at ``workers`` threads against the same
    engine at one worker, at large ring sizes; returns the JSON-ready
    ``report["parallel"]`` section (``compiled_ms`` is the one-worker
    time, ``parallel_ms`` the pool's).

    Every row is verified **bit-identical against the interpreter** (one
    oracle run per row — the sweep times only the two worker counts),
    and carries the measured hidden-communication fraction from one
    traced pool run: the decomposed/unrolled variants must hide some
    transfer time behind computation, the undecomposed reference (which
    has no async transfers at all) must report exactly zero.
    """
    from repro.obs import overlap_summary
    from repro.obs.tracer import Tracer

    if device_counts is None:
        device_counts = (
            QUICK_PARALLEL_DEVICE_COUNTS if quick else PARALLEL_DEVICE_COUNTS
        )
    if quick:
        inner = min(inner, 5)
    interpreter = create_engine("interpreted")
    compiled = create_engine("compiled")
    # sanitize=True times the sanitized pool against the same one-worker
    # reference — the speedup floors then double as the
    # sanitizer-overhead gate.
    engine = create_engine("compiled", workers=workers, sanitize=sanitize)
    rows: List[Dict] = []
    for case_name, build in BENCH_CASES:
        for label, config in VARIANTS:
            for n in device_counts:
                mesh = DeviceMesh.ring(n)
                rng = np.random.default_rng([20230325, n])
                module = build(mesh)
                arguments = _arguments(mesh, rng, module)
                if config is not None:
                    compile_module(module, mesh, config)

                reference = interpreter.run(module, arguments, mesh=n)
                identical = _bit_identical(
                    reference, compiled.run(module, arguments, mesh=n)
                ) and _bit_identical(
                    reference, engine.run(module, arguments, mesh=n)
                )
                tracer = Tracer()
                engine.run(module, arguments, mesh=n, tracer=tracer)
                hidden = overlap_summary(tracer.events).hidden_fraction

                compiled_s = _best_seconds(
                    lambda: compiled.run(module, arguments, mesh=n),
                    repeats, inner,
                )
                parallel_s = _best_seconds(
                    lambda: engine.run(module, arguments, mesh=n),
                    repeats, inner,
                )
                rows.append({
                    "case": case_name,
                    "variant": label,
                    "devices": n,
                    "workers": min(workers, n),
                    "compiled_ms": compiled_s * 1e3,
                    "parallel_ms": parallel_s * 1e3,
                    "speedup": compiled_s / parallel_s,
                    "bit_identical": identical,
                    "hidden_fraction": hidden,
                })

    at_8plus = [r["speedup"] for r in rows if r["devices"] >= 8]
    return {
        "benchmark": "executor-parallel",
        "quick": quick,
        "repeats": repeats,
        "inner": inner,
        "workers": workers,
        "sanitize": sanitize,
        "device_counts": list(device_counts),
        "rows": rows,
        "summary": {
            "geomean_speedup": _geomean([r["speedup"] for r in rows]),
            "speedup_at_8plus": _geomean(at_8plus),
            "all_bit_identical": all(r["bit_identical"] for r in rows),
        },
    }


def write_report(report: Dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_report(report: Dict) -> str:
    lines = [
        f"{'case':<22} {'variant':<15} {'devs':>4} "
        f"{'interp ms':>10} {'compiled ms':>12} {'speedup':>8}  exact"
    ]
    for row in report["rows"]:
        lines.append(
            f"{row['case']:<22} {row['variant']:<15} {row['devices']:>4} "
            f"{row['interpreted_ms']:>10.3f} {row['compiled_ms']:>12.3f} "
            f"{row['speedup']:>7.2f}x  {'yes' if row['bit_identical'] else 'NO'}"
        )
    summary = report["summary"]
    lines.append(
        f"geomean speedup {summary['geomean_speedup']:.2f}x "
        f"(at 8+ devices: {summary['speedup_at_8plus']:.2f}x), "
        f"bit-identical: {'yes' if summary['all_bit_identical'] else 'NO'}"
    )
    if "parallel" in report:
        lines.append("")
        lines.append(format_parallel_report(report["parallel"]))
    return "\n".join(lines)


def format_parallel_report(section: Dict) -> str:
    lines = [
        f"{'case':<22} {'variant':<15} {'devs':>4} {'wrk':>3} "
        f"{'1 worker ms':>12} {'pool ms':>12} {'speedup':>8} "
        f"{'hidden':>6}  exact"
    ]
    for row in section["rows"]:
        lines.append(
            f"{row['case']:<22} {row['variant']:<15} {row['devices']:>4} "
            f"{row['workers']:>3} {row['compiled_ms']:>12.3f} "
            f"{row['parallel_ms']:>12.3f} {row['speedup']:>7.2f}x "
            f"{row['hidden_fraction']:>5.1%}  "
            f"{'yes' if row['bit_identical'] else 'NO'}"
        )
    summary = section["summary"]
    lines.append(
        f"pool vs one worker geomean {summary['geomean_speedup']:.2f}x "
        f"(at 8+ devices: {summary['speedup_at_8plus']:.2f}x), "
        f"bit-identical: {'yes' if summary['all_bit_identical'] else 'NO'}"
    )
    return "\n".join(lines)


def check_report(
    report: Dict,
    min_speedup: float,
    min_parallel_speedup: Optional[float] = None,
) -> List[str]:
    """Gate failures (empty list == pass) for CI and the CLI."""
    problems = []
    summary = report["summary"]
    if not summary["all_bit_identical"]:
        bad = [
            f"{r['case']}/{r['variant']}@{r['devices']}"
            for r in report["rows"] if not r["bit_identical"]
        ]
        problems.append(
            f"compiled outputs diverge from the oracle: {', '.join(bad)}"
        )
    if summary["geomean_speedup"] < min_speedup:
        problems.append(
            f"geomean speedup {summary['geomean_speedup']:.2f}x below the "
            f"required {min_speedup:.2f}x"
        )
    if "parallel" in report:
        problems.extend(
            check_parallel_report(report["parallel"], min_parallel_speedup)
        )
    return problems


def check_parallel_report(
    section: Dict, min_speedup: Optional[float] = None
) -> List[str]:
    """Gates on the parallel sweep (empty list == pass).

    * every row bit-identical to the interpreter oracle;
    * when ``min_speedup`` is given, the pool at least that many times
      one worker, geomean over the rows at 8+ devices (single rows are
      too noisy); there is no default floor because no pool size is
      known to beat one worker on every host;
    * measured hidden-communication fraction exactly zero on every
      undecomposed reference row, and strictly positive on at least one
      decomposed bottom-up (``unrolled-bidir``) row — the fraction is
      *measured* wall-clock, so whether one tiny case's start→done
      window happens to straddle compute is schedule- and pool-size-
      dependent, but a sweep that hides nothing anywhere means the
      deferred permutes are not actually deferred, and overlap measured
      where none can exist means the clock lanes are wrong.
    """
    problems: List[str] = []
    rows = section["rows"]
    bad = [
        f"{r['case']}/{r['variant']}@{r['devices']}"
        for r in rows if not r["bit_identical"]
    ]
    if bad:
        problems.append(
            f"parallel outputs diverge from the oracle: {', '.join(bad)}"
        )
    at_8plus = _geomean(
        [r["speedup"] for r in rows if r["devices"] >= 8]
    )
    if min_speedup is not None and at_8plus < min_speedup:
        problems.append(
            f"pool/one-worker geomean {at_8plus:.2f}x at 8+ devices "
            f"below the required {min_speedup:.2f}x"
        )
    for row in rows:
        where = f"{row['case']}/{row['variant']}@{row['devices']}"
        if row["variant"] == "reference" and row["hidden_fraction"] != 0.0:
            problems.append(
                f"{where}: undecomposed baseline reports a nonzero hidden "
                f"fraction {row['hidden_fraction']:.3f}"
            )
    hidden = [
        row["hidden_fraction"]
        for row in rows if row["variant"] == "unrolled-bidir"
    ]
    if hidden and max(hidden) <= 0:
        problems.append(
            "no unrolled-bidir row measures any hidden communication — "
            "deferred permutes are not overlapping with compute"
        )
    return problems


def compare_reports(
    baseline: Dict, fresh: Dict, max_drop: float = 0.2
) -> List[str]:
    """Trend-gate failures (empty list == pass) for a fresh report
    against a committed baseline.

    Rows are matched on ``(case, variant, devices)`` — only the
    intersection is compared, so shrinking or growing the grid (e.g.
    ``--quick`` vs the full sweep) never fails the gate by itself.
    ``bit_identical`` flipping to false on any matched row fails
    outright. Speedups are gated per *benchmark case* — the geomean
    over a ``(case, variant)`` pair's shared device counts — because a
    single sub-millisecond timing window is too noisy to gate on alone;
    a case whose geomean drops more than ``max_drop`` (relative) fails.
    Zero comparable rows is itself a failure: a gate that compares
    nothing protects nothing.
    """
    problems: List[str] = []

    def keyed(report: Dict) -> Dict[Tuple[str, str, int], Dict]:
        return {
            (row["case"], row["variant"], row["devices"]): row
            for row in report["rows"]
        }

    base_rows, fresh_rows = keyed(baseline), keyed(fresh)
    shared = sorted(base_rows.keys() & fresh_rows.keys())
    if not shared:
        problems.append(
            "no comparable rows between baseline and fresh reports "
            "(case/variant/devices grids are disjoint)"
        )
        return problems
    # Speedup trends only compare like with like: a fresh report timing
    # a different engine than the baseline (e.g. the interpreter, a
    # worker pool, or a --tuned run vs an untuned one) keeps the
    # bit-identity gate but skips the drop gate — the ratio to the
    # interpreter is engine-, pool- and tuning-specific.
    same_engine = all(
        baseline.get(key, default) == fresh.get(key, default)
        for key, default in (
            ("engine", "compiled"), ("workers", 1), ("tuned", False)
        )
    )
    by_case: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    for key in shared:
        case, variant, devices = key
        base, new = base_rows[key], fresh_rows[key]
        if base["bit_identical"] and not new["bit_identical"]:
            problems.append(
                f"{case}/{variant}@{devices}: bit_identical flipped to false"
            )
        by_case.setdefault((case, variant), []).append(
            (base["speedup"], new["speedup"])
        )
    trend = sorted(by_case.items()) if same_engine else []
    for (case, variant), pairs in trend:
        base_mean = _geomean([b for b, _ in pairs])
        new_mean = _geomean([n for _, n in pairs])
        if new_mean < base_mean * (1.0 - max_drop):
            problems.append(
                f"{case}/{variant}: speedup {new_mean:.2f}x dropped more "
                f"than {max_drop:.0%} below the baseline {base_mean:.2f}x"
            )
    if "parallel" in baseline and "parallel" in fresh:
        problems.extend(
            compare_parallel_sections(
                baseline["parallel"], fresh["parallel"], max_drop=max_drop
            )
        )
    return problems


def compare_parallel_sections(
    baseline: Dict, fresh: Dict, max_drop: float = 0.2
) -> List[str]:
    """Trend gate on the parallel sweep: matched on ``(case, variant,
    devices, workers)``, geomean per case, bit-identity may never flip.
    Worker counts are part of the key because parallel/compiled ratios
    at different pool sizes are not comparable (thread contention is a
    property of the host, not the code) — a CI matrix entry whose pool
    size is absent from the committed baseline skips the trend quietly
    and is held to its floor gate instead. Two sections that *do* share
    a pool size but no rows is a failure: a gate that compares nothing
    protects nothing.
    """
    problems: List[str] = []

    def keyed(section: Dict) -> Dict[Tuple[str, str, int, int], Dict]:
        return {
            (row["case"], row["variant"], row["devices"], row["workers"]):
                row
            for row in section["rows"]
        }

    base_rows, fresh_rows = keyed(baseline), keyed(fresh)
    shared = sorted(base_rows.keys() & fresh_rows.keys())
    if not shared:
        base_pools = {key[3] for key in base_rows}
        fresh_pools = {key[3] for key in fresh_rows}
        if base_pools & fresh_pools:
            problems.append(
                "no comparable parallel rows between baseline and fresh "
                "reports"
            )
        return problems
    by_case: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    for key in shared:
        case, variant, devices, _ = key
        base, new = base_rows[key], fresh_rows[key]
        if base["bit_identical"] and not new["bit_identical"]:
            problems.append(
                f"parallel {case}/{variant}@{devices}: bit_identical "
                f"flipped to false"
            )
        by_case.setdefault((case, variant), []).append(
            (base["speedup"], new["speedup"])
        )
    for (case, variant), pairs in sorted(by_case.items()):
        base_mean = _geomean([b for b, _ in pairs])
        new_mean = _geomean([n for _, n in pairs])
        if new_mean < base_mean * (1.0 - max_drop):
            problems.append(
                f"parallel {case}/{variant}: speedup {new_mean:.2f}x "
                f"dropped more than {max_drop:.0%} below the baseline "
                f"{base_mean:.2f}x"
            )
    return problems
