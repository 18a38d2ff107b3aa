"""cavshare benchmark: one workload, measured in fresh interpreters.

Run from the root of a checkout:

    python3 perfbench/run.py --workload closed_forms --seed 1 \
        --seconds 30 --trace 0

Each pass runs in its own child interpreter, one child at a time, with BLAS
limited to min(2, nproc) threads. A run first starts a few set-up-only
children, then passes until the next one would end after ``--seconds``
(at least one pass; with ``--trace 1`` at least one untraced and one traced
pass, alternating). The last line of standard output is one JSON object:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The lines before it are a readable report and the
environment fingerprint. Metric definitions and the reasons for each
workload are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_ONLY_CHILDREN = 3  # plus one set-up per pass
RUN_LIMIT_S = 170.0  # a hung child is killed so the run ends within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "max_abs_error": "1",
}
TRACE_UNITS = {
    **tracing.metric_units(),
    "cli.rows": "rows",
    "cli.bytes": "B",
    "verify.cases": "count",
    "verify.cases_failed": "count",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.missing": "count",
}


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="tiny: small grids, no golden check (smoke test only)")
    return p.parse_args(argv)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def fingerprint(root: Path, blas_threads: int, child_env: dict) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git_sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "cavshare").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    libc = platform.libc_ver()
    return {
        "python": platform.python_version(),
        **child_env,
        "blas_threads": blas_threads,
        "libc": f"{libc[0]} {libc[1]}".strip(),
        "nproc": _nproc(),
        "cpu": cpu,
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
    }


class Runner:
    """Starts children one at a time and always reaps the current one."""

    def __init__(self, root: Path, workdir: Path, args, blas_threads: int):
        self.root = root
        self.workdir = workdir
        self.args = args
        self.env = dict(os.environ)
        for var in BLAS_ENV:
            self.env[var] = str(blas_threads)
        self.proc: subprocess.Popen | None = None
        self.count = 0
        self.kill_at = time.monotonic() + RUN_LIMIT_S

    def child(self, mode: str) -> tuple[dict | None, float]:
        self.count += 1
        cdir = self.workdir / f"child{self.count}"
        cdir.mkdir()
        result = cdir / "result.json"
        log = cdir / "stderr.txt"
        spawned = time.monotonic()
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--size", self.args.size, "--mode", mode,
               "--spawned", repr(spawned), "--src", str(self.root / "src"),
               "--workdir", str(cdir), "--result", str(result)]
        with open(log, "wb") as err:
            self.proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                         stdin=subprocess.DEVNULL,
                                         stdout=subprocess.DEVNULL, stderr=err)
            try:
                code = self.proc.wait(
                    timeout=max(0.0, self.kill_at - time.monotonic()))
            except subprocess.TimeoutExpired:
                self.stop()
                code = None
            self.proc = None
        wall = time.monotonic() - spawned
        record = None
        if code == 0 and result.is_file():
            record = json.loads(result.read_text(encoding="utf-8"))
        else:
            tail = log.read_text(errors="replace").strip().splitlines()[-5:]
            reason = "timed out" if code is None else f"exit code {code}"
            print(f"child {self.count} ({mode}) failed: {reason}",
                  file=sys.stderr)
            for line in tail:
                print(f"  {line}", file=sys.stderr)
        shutil.rmtree(cdir, ignore_errors=True)
        return record, wall

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def schedule(runner: Runner, seconds: float, trace: bool, size: str):
    """Set-up-only children first, then passes until the budget is spent."""
    start = time.monotonic()
    setups, passes, broken = [], [], 0
    for _ in range(SETUP_ONLY_CHILDREN if size == "full" else 0):
        record, _ = runner.child("setup")
        if record is None:
            broken += 1
        else:
            setups.append(record)
    modes = ("pass", "traced") if trace else ("pass",)
    last_wall: dict[str, float] = {}
    i = 0
    while True:
        mode = modes[i % len(modes)]
        if i >= len(modes) and (
                time.monotonic() - start + last_wall[mode] > seconds):
            break
        record, wall = runner.child(mode)
        last_wall[mode] = wall
        if record is None:
            broken += 1
        else:
            passes.append(record)
        i += 1
    return setups, passes, broken


def tail_percentile(values: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def evaluate(workload: str, passes: list[dict], root: Path) -> dict:
    """Count operations and failures, and check outputs across passes.

    A golden mismatch is a failed operation, but it is listed apart from the
    other problems: the hashes were recorded on another machine, so it is a
    cross-platform defect, while every other problem means the outputs on
    this machine are missing, wrong or unstable.
    """
    attempted = failed = 0
    problems: list[str] = []
    golden_mismatch: list[str] = []
    reference: dict[str, str] = {}
    golden_dir = root / "tests" / "golden"
    for record in passes:
        for op in record["ops"]:
            digest = op.get("digest")
            ref = reference.setdefault(op["id"], digest)
            if workload == "closed_forms":
                attempted += 1
                bad = None
                if op["error"] is not None:
                    bad = op["error"]
                elif digest != ref:
                    bad = "output differs from the first pass"
                elif op["golden"] is not None:
                    golden = golden_dir / f"{op['golden']}.sha256"
                    if not golden.is_file():
                        bad = f"golden hash {golden.name} missing"
                    elif golden.read_text().strip() != digest:
                        failed += 1
                        golden_mismatch.append(op["id"])
                if bad is not None:
                    failed += 1
                    problems.append(f"{op['id']}: {bad}")
            else:
                attempted += max(op["cases"], 1)
                failed += op["failed_cases"]
                if op["error"] is not None:
                    failed += 1
                    problems.append(f"{op['id']}: {op['error']}")
                elif digest != ref:
                    failed += op["cases"] - op["failed_cases"]
                    problems.append(f"{op['id']}: cases or statuses differ "
                                    "from the first pass")
                if op["failed_cases"]:
                    problems.append(f"{op['id']}: {op['failed_cases']} "
                                    "cases fail, skip or lack an error")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "golden_mismatch": golden_mismatch}


def _count_problems(problems: list[str]) -> list[str]:
    seen: dict[str, int] = {}
    for p in problems:
        seen[p] = seen.get(p, 0) + 1
    return [f"{p} (x{n})" if n > 1 else p for p, n in seen.items()]


def rescaled_pass(record: dict, kind: str) -> float:
    """Pass seconds at the reference host speed (see hostspeed.py)."""
    now = 0.5 * (record["probe_before"][kind] + record["probe_after"][kind])
    return record["pass_s"] * hostspeed.REFERENCE_S[kind] / now


def rescaled_setup(record: dict) -> float:
    """Set-up seconds at the reference host speed (interpreter work)."""
    now = record["probe_before"]["interpreter"]
    return record["setup_s"] * hostspeed.REFERENCE_S["interpreter"] / now


def _line(name: str, values: list[float], raw: list[float], unit: str) -> str:
    return (f"  {name:<13} median {statistics.median(values):.4f} {unit} "
            f"(raw wall {statistics.median(raw):.4f} {unit}), n={len(values)}")


def report(args, setups, passes, broken, checks, env) -> tuple[dict, bool]:
    kind = workloads.PROBE_KIND[args.workload]
    untraced = [r for r in passes if r["mode"] == "pass"]
    traced = [r for r in passes if r["mode"] == "traced"]
    pass_s = [rescaled_pass(r, kind) for r in untraced]
    setup_s = [rescaled_setup(r) for r in setups + passes]
    rss = [r["peak_rss_mb"] for r in untraced]
    max_err = max(r["max_abs_error"] for r in passes)
    attempted, failed = checks["attempted"], checks["failed"]
    correct = broken == 0 and not checks["problems"]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"size {args.size}: {len(untraced)} untraced and {len(traced)} "
          f"traced passes, {len(setups)} set-up-only children, "
          f"{broken} broken children; times rescaled by the {kind} probe")
    print(_line("pass_s", pass_s, [r["pass_s"] for r in untraced], "s"))
    tail = tail_percentile(pass_s)
    print("    " + ("no percentile has ten samples beyond it" if tail is None
                    else f"p{tail[0]:.0f} {tail[1]:.4f} s")
          + "; samples " + " ".join(f"{v:.3f}" for v in pass_s))
    print(_line("setup_s", setup_s, [r["setup_s"] for r in setups + passes],
                "s"))
    print(f"  peak_rss_mb   median {statistics.median(rss):.1f} MiB, "
          f"n={len(rss)}")
    print(f"  fail_frac     {failed / attempted:.4f} ({failed} of {attempted} "
          "operations)")
    print(f"  max_abs_error {max_err:.3e}")
    op_times: dict[str, list[float]] = {}
    for r in untraced:
        for op in r["ops"]:
            op_times.setdefault(op["id"], []).append(op["op_s"])
    for op_id, times in sorted(op_times.items()):
        print(f"    op {op_id:<20} raw median "
              f"{statistics.median(times):.4f} s")
    for line in _count_problems(checks["problems"]):
        print(f"  failure: {line}")
    for line in _count_problems(checks["golden_mismatch"]):
        print(f"  failure: {line}: golden hash mismatch")
    print("fingerprint " + json.dumps(env, sort_keys=True))

    if not args.trace:
        metrics = {"pass_s": statistics.median(pass_s),
                   "setup_s": statistics.median(setup_s),
                   "peak_rss_mb": statistics.median(rss),
                   "max_abs_error": max_err}
        units = END_TO_END_UNITS
    else:
        metrics = trace_metrics(untraced, traced, kind)
        units = TRACE_UNITS
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()}, correct


def trace_metrics(untraced, traced, kind: str) -> dict:
    """Medians over traced passes; layer self times are raw wall seconds."""
    per_pass = []
    missing: dict[str, str] = {}
    for r in traced:
        values = dict(r["layers"])
        values["cli.rows"] = sum(op.get("rows", 0) for op in r["ops"])
        values["cli.bytes"] = sum(op.get("bytes", 0) for op in r["ops"])
        values["verify.cases"] = sum(op.get("cases", 0) for op in r["ops"])
        values["verify.cases_failed"] = sum(
            op.get("failed_cases", 0) for op in r["ops"])
        per_pass.append(values)
        missing.update(r["missing"])
    names = [n for n in TRACE_UNITS if not n.startswith("trace.")]
    metrics = {n: statistics.median([v[n] for v in per_pass]) for n in names}
    traced_s = statistics.median([rescaled_pass(r, kind) for r in traced])
    untraced_s = statistics.median([rescaled_pass(r, kind) for r in untraced])
    metrics.update({"trace.pass_s": traced_s,
                    "trace.untraced_pass_s": untraced_s,
                    "trace.overhead_s": traced_s - untraced_s,
                    "trace.missing": len(missing)})
    print("  per-layer self time (median over traced passes, raw wall):")
    for name in sorted(names, key=lambda n: -metrics[n]):
        if name.endswith(".self_s") and metrics[name] > 0:
            layer = name[:-len(".self_s")]
            print(f"    {layer:<36} {metrics[name]:9.4f} s "
                  f"{metrics[layer + '.calls']:>9.0f} calls")
    for name, unit in tracing.COUNT_UNITS.items():
        print(f"    {name:<36} {metrics[name]:.0f} {unit}")
    print(f"  tracing overhead (rescaled): {traced_s:.4f} s traced - "
          f"{untraced_s:.4f} s untraced = {traced_s - untraced_s:+.4f} s")
    for target, reason in sorted(missing.items()):
        print(f"  missing: {target}: {reason}")
    return metrics


def main(argv=None) -> int:
    args = _args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    root = Path.cwd()
    if not (root / "src" / "cavshare" / "__init__.py").is_file():
        print("error: src/cavshare not found; run from the root of a "
              "repository checkout", file=sys.stderr)
        return 2
    blas_threads = min(2, _nproc())
    workdir = HERE / ".work" / f"run{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(root, workdir, args, blas_threads)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        setups, passes, broken = schedule(runner, args.seconds,
                                          bool(args.trace), args.size)
    finally:
        runner.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    done = {r["mode"] for r in passes}
    if not done >= ({"pass", "traced"} if args.trace else {"pass"}):
        print("error: no pass of a required kind completed", file=sys.stderr)
        return 1
    checks = evaluate(args.workload, passes, root)
    env = fingerprint(root, blas_threads, passes[0]["env"])
    metrics, correct = report(args, setups, passes, broken, checks, env)
    print(json.dumps({"correct": correct, "attempted": checks["attempted"],
                      "failed": checks["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
