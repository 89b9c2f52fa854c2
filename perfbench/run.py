"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload table1-step --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program under test is imported
from ``src/``. With ``--trace 0`` the run measures the end-to-end
metrics declared in ``BENCHMARK.json``; with ``--trace 1`` it measures
the per-layer metrics instead (a per-layer metric a workload does not
exercise reads 0). Every metric is printed by name and unit, the full
report (and, traced, the spans) goes to ``.perfbench/``, and the last
line of standard output is the JSON result. See ``perfbench/README.md``.
"""

import time

from calibrate import HostSpeed

# Import time is part of set-up; the python reference kernel runs on
# either side of the imports to normalize it (see calibrate.py).
IMPORT_SPEED = HostSpeed(["python"], time.perf_counter)
IMPORT_SPEED.mark()
START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

# One BLAS thread, set before numpy is imported. On a shared 2-vCPU
# host, two OpenBLAS threads made layer-exec 13% slower than one, and a
# single competing process slowed them by 7% more, while one thread did
# not notice it; the parallel engine's own workers would also be
# oversubscribed.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("table1-step", "layer-exec", "serve-open")
#: Cold set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: What the role-named end-to-end metrics mean on each workload. Times
#: marked "normalized" are stated at the reference host speed of
#: calibrate.py, as are all set-up times.
ROLES = {
    "table1-step": {
        "main_ms": "normalized CPU ms of simulate_step(cfg), six models",
        "ref_ms": "normalized CPU ms of simulate_step(cfg, enabled=False)",
        "throughput_per_s": "full passes (both halves) per normalized s",
        "sim_speedup": "geomean predicted baseline/overlapped step time",
    },
    "layer-exec": {
        "main_ms": "normalized run of the two overlapped programs",
        "ref_ms": "normalized run of the two reference programs",
        "throughput_per_s": "program runs per normalized s",
        "sim_speedup": "geomean predicted speedup of the two programs",
    },
    "serve-open": {
        "main_ms": "request latency at the high rate, from due time",
        "ref_ms": "request latency at the low rate, from due time",
        "throughput_per_s": "requests served per second, closed loop",
        "sim_speedup": "geomean predicted speedup of the catalog pairs",
    },
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(
            f"run.py: {ROOT} is not a checkout of the repository "
            "(needs src/repro and BENCHMARK.json)",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))

    import harness
    from harness import Outcome, Spans, clock, timed_setup
    from runtime_probe import RuntimeProbe

    if args.workload == "table1-step":
        import table1_step as workload
    elif args.workload == "layer-exec":
        import layer_exec as workload
    else:
        import serve_open as workload
    import_s = clock() - START
    IMPORT_SPEED.mark()
    import_s = IMPORT_SPEED.normalize(import_s)

    out = Outcome()
    spans = Spans()
    probe = RuntimeProbe(spans)
    if args.trace:
        probe.install()
    repeats = 1 if args.trace else SETUP_REPEATS
    seed, seconds = args.seed, args.seconds
    layer = {}
    try:
        if args.workload == "table1-step":
            setup_s = 0.0   # nothing to set up beyond the imports
            if args.trace:
                layer = workload.measure_traced(out, seconds, spans)
                ops = out.report["passes_traced"]
            else:
                workload.measure(out, seconds)
        elif args.workload == "layer-exec":
            (engine, programs), setup_s = timed_setup(
                lambda: workload.setup(seed), repeats,
                HostSpeed(workload.KERNELS, clock),
            )
            if args.trace:
                layer = workload.measure_traced(
                    out, engine, programs, seconds, probe, spans
                )
                ops = out.report["iterations_traced"]
            else:
                workload.measure(out, engine, programs, seconds)
        else:
            (server, names, pool), setup_s = timed_setup(
                lambda: workload.setup(seed), repeats,
                HostSpeed(workload.KERNELS, clock),
                discard=lambda previous: previous[0].close(),
            )
            try:
                if args.trace:
                    layer = workload.measure_traced(
                        out, server, names, pool, seed, seconds, probe, spans
                    )
                    ops = out.report["requests_traced"]
                else:
                    workload.measure(out, server, names, pool, seed, seconds)
            finally:
                server.close()
    finally:
        spans.restore()

    if args.trace:
        for name, value in probe.metrics(ops).items():
            layer.setdefault(name, value)
        layer["runtime.lower_s"] = spans.self_times().get("runtime.lower", 0.0)
        layer["src_lines"] = harness.src_lines()
        declared = spec["per_layer"]
    else:
        out.put("setup_s", import_s + setup_s)
        out.put("ok_frac", 1 - out.failed / max(out.attempted, 1))
        out.put("peak_rss_mb", harness.peak_rss_mb())
        layer = out.metrics
        declared = spec["end_to_end"]

    undeclared = sorted(set(layer) - {m["name"] for m in declared})
    if undeclared:
        raise KeyError(f"metrics missing from BENCHMARK.json: {undeclared}")
    metrics = {
        m["name"]: {"value": float(layer.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }

    harness.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "seed": seed,
        "seconds": seconds,
        "trace": args.trace,
        "roles": ROLES[args.workload],
        "metrics": metrics,
        "attempted": out.attempted,
        "failed": out.failed,
        "problems": out.problems,
        **out.report,
    }
    (harness.OUT_DIR / f"{stem}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )
    if args.trace:
        spans.dump(harness.OUT_DIR / f"{stem}.spans.json")

    for problem in out.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        role = ROLES[args.workload].get(name.split(".")[0], "")
        print(f"{args.workload:12s} {name:40s} {metric['value']:14.6g} "
              f"{metric['unit']:6s} {role}")
    print(json.dumps({
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
