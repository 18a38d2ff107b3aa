"""One workload pass in a fresh interpreter (started by run.py, not by hand).

Every cavshare invocation is a fresh process, so a cache that survived from
one pass to the next would show a gain no user sees. Each pass therefore
gets its own interpreter. The child measures its own set-up (interpreter
start to imports done and inputs built), optionally runs one pass, checks
its outputs outside the timed region, and writes one JSON record.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", required=True)
    p.add_argument("--mode", choices=("setup", "pass", "traced"),
                   required=True)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() in the parent just before start")
    p.add_argument("--src", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    return p.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _env() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _run_cli(cli, ops, workdir: Path) -> list[dict]:
    os.chdir(workdir)
    records = []
    for op in ops:
        record = {"id": op["id"], "golden": op["golden"], "error": None}
        start = time.perf_counter()
        try:
            code = cli.main(op["argv"])
            if code != 0:
                record["error"] = f"exit code {code}"
        except Exception as exc:  # any raise is a failed operation
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["op_s"] = time.perf_counter() - start
        records.append(record)
    return records


def _check_cli(ops, records, workdir: Path, optimize_mod) -> float:
    """Digest each output; return the worst optimizer cross-check error.

    optimize.optimal_intensity (golden-section search, what the CLI writes)
    and optimize.threshold_intensity (Lambert-W root solve) are independent
    routes to the even-parity optimum for N >= 3; their disagreement is this
    workload's accuracy figure.
    """
    from workloads import file_digest

    worst = 0.0
    for op, record in zip(ops, records):
        path = workdir / op["out"]
        if record["error"] is None and not path.is_file():
            record["error"] = f"no output file {op['out']}"
        if record["error"] is not None:
            continue
        record["digest"], record["bytes"], record["rows"] = file_digest(path)
        if op["id"] != "optimize_even":
            continue
        lines = path.read_text(encoding="ascii").splitlines()
        header = lines[1].split(",")
        for line in lines[2:]:
            row = dict(zip(header, line.split(",")))
            n = int(row["N"])
            if n >= 3:
                root = optimize_mod.threshold_intensity(n).intensity
                worst = max(worst, abs(float(row["intensity"]) - root))
    return worst


def _run_verify(verify, calls) -> tuple[list[dict], list]:
    records, results = [], []
    for call in calls:
        record = {"id": call["id"], "error": None}
        start = time.perf_counter()
        try:
            results.append(getattr(verify, call["suite"])(**call["kwargs"]))
        except Exception as exc:  # any raise is a failed operation
            record["error"] = f"{type(exc).__name__}: {exc}"
            results.append(None)
        record["op_s"] = time.perf_counter() - start
        records.append(record)
    return records, results


def _check_verify(records, results) -> float:
    from workloads import cases_digest

    worst = 0.0
    for record, result in zip(records, results):
        if result is None:
            record.update(cases=0, failed_cases=0)
            worst = 1.0  # no case finished: no error can be bounded
            continue
        cases = result.cases
        record["cases"] = len(cases)
        record["failed_cases"] = sum(1 for c in cases if c.status != "pass")
        record["digest"] = cases_digest(cases)
        errors = [c.abs_error for c in cases if c.abs_error == c.abs_error]
        worst = max([worst] + errors)
        if len(errors) < len(cases):
            worst = 1.0  # a skipped case has no error; count it as the worst
    return worst


def main(argv=None) -> int:
    args = _args(argv)
    sys.path.insert(0, args.src)
    import cavshare
    from cavshare import cli, model, optimize, verify

    expected = Path(args.src, "cavshare").resolve()
    if Path(cavshare.__file__).resolve().parent != expected:
        print(f"imported cavshare from {cavshare.__file__}, "
              f"expected {expected}", file=sys.stderr)
        return 3
    import workloads

    workdir = Path(args.workdir)
    if args.workload == "closed_forms":
        ops = workloads.cli_ops(args.size, args.seed)
    else:
        ops = workloads.verify_calls(args.workload, args.size, args.seed,
                                     model.ParityKind)
    setup_s = time.monotonic() - args.spawned
    import hostspeed

    kind = workloads.PROBE_KIND[args.workload]
    kinds = dict.fromkeys(("interpreter", kind))  # set-up needs interpreter
    out = {"setup_s": setup_s, "mode": args.mode, "env": _env(),
           "probe_before": hostspeed.probe(kinds)}
    if args.mode != "setup":
        tracer = None
        if args.mode == "traced":
            import tracing
            tracer = tracing.install()
        start = time.perf_counter()
        if args.workload == "closed_forms":
            records = _run_cli(cli, ops, workdir)
        else:
            records, results = _run_verify(verify, ops)
        out["pass_s"] = time.perf_counter() - start
        out["peak_rss_mb"] = _peak_rss_mb()
        out["probe_after"] = hostspeed.probe((kind,))
        if tracer is not None:
            out["layers"] = tracer.metrics()
            out["missing"] = tracer.missing
        if args.workload == "closed_forms":
            out["max_abs_error"] = _check_cli(ops, records, workdir, optimize)
        else:
            out["max_abs_error"] = _check_verify(records, results)
        out["ops"] = records
    else:
        out["peak_rss_mb"] = _peak_rss_mb()
    Path(args.result).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
