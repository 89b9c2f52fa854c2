"""Executor engine benchmark: interpreted oracle vs compiled engine.

Unlike the figure/table benchmarks (which reproduce the paper's
simulated numbers), this one measures the repo's *own* hot path: it
times the interpreted engine against the compiled engine on the golden
modules and their overlap variants, asserts the compiled engine's
outputs stay bit-identical, and writes ``BENCH_executor.json`` at the
repo root so the speedup trend is tracked run over run. The report also
carries the 8/64/256-device worker-pool sweep (the compiled engine on a
two-worker pool vs one worker, with measured hidden-communication
fractions).
"""

import json
import pathlib

from bench_utils import run_once

from repro.runtime.bench import check_report, format_report, run_bench

REPORT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_executor.json"


def test_executor_engine_speedup(benchmark):
    report = run_once(benchmark, lambda: run_bench(quick=False, parallel=True))
    print()
    print(format_report(report))

    summary = report["summary"]
    benchmark.extra_info["geomean_speedup"] = (
        f"{summary['geomean_speedup']:.2f}x"
    )
    benchmark.extra_info["speedup_at_8plus"] = (
        f"{summary['speedup_at_8plus']:.2f}x"
    )
    parallel = report["parallel"]["summary"]
    benchmark.extra_info["parallel_speedup_at_8plus"] = (
        f"{parallel['speedup_at_8plus']:.2f}x"
    )

    REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    # Hard gates: never slower than the interpreter, never inexact, the
    # headline claim — >= 3x at 8+ simulated devices — and the pool
    # sweep's gates (bit-identity on every 8/64/256-device row, zero
    # measured overlap on the undecomposed reference, positive measured
    # overlap on the decomposed schedule, and no loss to one worker at
    # 8+ devices).
    assert not check_report(
        report, min_speedup=1.0, min_parallel_speedup=1.0
    )
    assert summary["all_bit_identical"]
    assert summary["speedup_at_8plus"] >= 3.0
    assert parallel["all_bit_identical"]
