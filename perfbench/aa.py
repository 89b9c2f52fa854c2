"""Run-to-run spread and A/A self-comparison of the benchmark.

    python3 perfbench/aa.py --workloads table1-step,layer-exec,serve-open \\
        --seeds 1-10 --seeds-b 11-20 --out perfbench/AA_RESULT.json

Runs ``run.py`` (untraced, ``run_seconds`` from ``BENCHMARK.json``) once
per seed and workload, one run at a time. For each end-to-end metric it
reports the median and the spread, the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median. With ``--seeds-b`` a second, independent set is run and compared
with the first: every spread, ``setup_s``'s too, within the metric's
bound, and the two medians of every metric within its bound of each
other, whichever is worse (the difference over the smaller median).
``--out`` gets the rows of this invocation only. Exits 1 when the rule
fails. Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seed_range(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_set(spec, workload: str, seeds: List[int]) -> Dict[str, List[float]]:
    values: Dict[str, List[float]] = {}
    for seed in seeds:
        command = spec["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=180,
            check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"{workload} seed {seed}: incorrect: {result}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"{workload} seed {seed}: " + " ".join(
            f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()
        ), file=sys.stderr, flush=True)
    return values


def summary(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": q2,
        "spread": (q3 - q1) / q2 if q2 else 0.0,
        "values": values,
    }


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share."""
    change = (second - first) / first
    return change if better == "lower" else -change


def differ_by(first: float, second: float) -> float:
    """How far apart two medians are, over the smaller one."""
    low = min(first, second)
    return abs(second - first) / low if low else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seeds-b", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    out = pathlib.Path(args.out) if args.out else None
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        sets = [run_set(spec, workload, seed_range(args.seeds))]
        if args.seeds_b:
            sets.append(run_set(spec, workload, seed_range(args.seeds_b)))
        rows = {}
        for name, metric in metrics.items():
            summaries = [summary(values[name]) for values in sets]
            row = {"bound": metric["bound"], "sets": summaries}
            row["spread_ok"] = all(
                s["spread"] <= metric["bound"] for s in summaries
            )
            if len(summaries) == 2:
                first, second = (s["median"] for s in summaries)
                row["second_worse_by"] = worse_by(
                    first, second, metric["better"]
                )
                row["differ_by"] = differ_by(first, second)
                row["medians_ok"] = row["differ_by"] <= metric["bound"]
            rows[name] = row
            print(
                f"{workload:12s} {name:18s} bound {metric['bound']:.2f} "
                + " | ".join(
                    f"median {s['median']:.5g} spread {s['spread']:.4f}"
                    for s in summaries
                )
                + (f" | B worse by {row['second_worse_by']:+.4f}"
                   f" apart {row['differ_by']:.4f}"
                   if "differ_by" in row else ""),
            )
        report["workloads"][workload] = rows
    ok = all(
        row["spread_ok"] and row.get("medians_ok", True)
        for rows in report["workloads"].values()
        for row in rows.values()
    )
    report["accepted"] = ok
    if out is not None:
        out.write_text(json.dumps(report, indent=1) + "\n")
    print("accepted" if ok else "REJECTED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
