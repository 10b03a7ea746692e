"""Measure a trajectory point: every workload, several seeds, plus one traced run.

    python3 knotbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 --label seed \\
        --commit <git sha> --out knotbench/BENCH_seed.json

For each workload it runs run.py untraced once per seed and traced once (on
the first seed), one run at a time, and writes one JSON record:

- the untraced results exactly as run.py printed them, one per seed;
- per end-to-end metric, the median and the spread (interquartile range over
  median) across the seeds, and whether the spread is under a third of the
  metric's bound in BENCHMARK.json;
- the traced run's result, its self-time share per layer, its failures by
  layer, and the tracing overhead: 1 - trace.ops_per_s / median ops_per_s.

The loop type, client count and reason for each workload are copied in, so
the record reads on its own.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return {"report": lines[:-1], "result": json.loads(lines[-1])}


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--commit", required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"label": args.label, "commit": args.commit, "command": spec["command"],
              "run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        untraced = [run(name, s, spec["run_seconds"], 0) for s in args.seeds]
        traced = run(name, args.seeds[0], spec["run_seconds"], 1)
        results = [u["result"] for u in untraced]
        summary = {}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in results]
            entry = {"median": statistics.median(values), "unit": results[0]["metrics"][metric]["unit"]}
            if len(values) >= 2:
                entry["spread"] = spread(values)
                entry["under_third_of_bound"] = entry["spread"] < bounds[metric] / 3
            summary[metric] = entry
        layer = traced["result"]["metrics"]
        shares = {k[: -len(".share")]: v["value"] for k, v in layer.items() if k.endswith(".share")}
        overhead = 1 - layer["trace.ops_per_s"]["value"] / summary["ops_per_s"]["median"]
        record["workloads"][name] = {
            "why": w["why"],
            "loop": "closed",
            "clients": 1,
            "end_to_end": summary,
            "runs": [{"seed": s, **r} for s, r in zip(args.seeds, results)],
            "traced": {
                "seed": args.seeds[0],
                "self_time_share_pct": shares,
                "tracing_overhead": overhead,
                "failures": [line.strip() for line in traced["report"] if "fail" in line],
                "result": traced["result"],
            },
        }
        print(f"{name}: " + "  ".join(f"{m} {e['median']:.4g} ({e.get('spread', 0):.3f})"
                                      for m, e in summary.items()) + f"  trace overhead {overhead:.3f}")
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
