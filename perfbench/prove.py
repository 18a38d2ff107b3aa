"""Repeat the benchmark over seeds; report each metric's median and spread.

Run from the root of a checkout:

    python3 perfbench/prove.py --runs 10
    python3 perfbench/prove.py --runs 5 --workloads oracle_lindblad
    python3 perfbench/prove.py --runs 10 --record perfbench/BENCH_baseline.json

Each run is the command in BENCHMARK.json with ``--seconds run_seconds`` and
its own seed (1..runs, shifted by ``--first-seed``). The spread of a metric
is the distance between the first and third quartile of its run values
(``statistics.quantiles(values, n=4)``) as a share of their median. The
benchmark counts as steady when every end-to-end spread except setup_s is
below a third of the metric's bound. ``--record`` also makes one traced run
per workload and writes medians, spreads, per-layer medians and the
environment fingerprint to the given file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _run(spec: dict, workload: str, seed: int, trace: int):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    fingerprint = next((json.loads(line.split(" ", 1)[1]) for line in lines
                        if line.startswith("fingerprint ")), None)
    return json.loads(lines[-1]), fingerprint


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--record", type=Path)
    args = p.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    steady = True
    record = {"run_seconds": spec["run_seconds"], "runs": args.runs,
              "workloads": {}}
    for workload in names:
        results = []
        for k in range(args.runs):
            result, fingerprint = _run(spec, workload, args.first_seed + k, 0)
            results.append(result)
            record["fingerprint"] = fingerprint
            print(f"{workload} seed {args.first_seed + k}: "
                  + ", ".join(f"{n}={m['value']:.6g}"
                              for n, m in result["metrics"].items()),
                  flush=True)
        summary = {"correct": all(r["correct"] for r in results),
                   "attempted": sum(r["attempted"] for r in results),
                   "failed": sum(r["failed"] for r in results),
                   "metrics": {}}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values) if len(values) >= 2 else float("nan")
            ok = name == "setup_s" or s < bound / 3
            steady = steady and ok
            summary["metrics"][name] = {
                "median": statistics.median(values), "spread": s,
                "bound": bound, "unit": metric["unit"], "values": values}
            print(f"  {workload} {name}: median "
                  f"{statistics.median(values):.6g} {metric['unit']}, "
                  f"spread {s:.4f} (bound {bound}, "
                  f"{'ok' if ok else 'NOT below bound/3'})", flush=True)
        if args.record:
            traced, _ = _run(spec, workload, args.first_seed, 1)
            summary["per_layer"] = {n: m["value"]
                                    for n, m in traced["metrics"].items()}
        record["workloads"][workload] = summary
    if args.record:
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
