"""persym benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py                                  # all workloads
    python3 perfbench/run.py --workload verify-mix --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload seminorm-stream --trace 1

Every set-up and every measurement runs in a fresh process (perfbench/worker.py)
with PERSYM_CACHE_DIR removed, BLAS pinned to one thread and PYTHONPATH=src.
With --trace 0 the run reports the end-to-end metrics; with --trace 1 a
separate traced run reports the per-layer metrics and writes its spans to
.perfbench_out/.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit code 0 means every op's
output passed its checks; 1 means some op failed; 2 means the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPANS_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("verify-mix", "seminorm-stream", "seminorm-sweep")
# An untraced run measures in WINDOWS processes of --seconds / WINDOWS each,
# so that its timed ops are spread over the whole run rather than one stretch
# of it; the machine's speed drifts over seconds to minutes.  Every measuring
# process also sets up, and more set-up-only processes follow while the
# set-ups have taken less than SETUP_BUDGET_S in all; setup_s is their median.
WINDOWS = 3
SETUP_BUDGET_S = 5.0
DEADLINE_S = 170.0  # one workload's run, set-ups included
BLAS_THREADS = "1"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("kernels.builds", "count"), ("kernels.build_s", "s"), ("kernels.self_s", "s"),
    ("seminorm.calls", "count"), ("seminorm.cache_hit_ratio", "ratio"),
    ("seminorm.warm_call_p50_ms", "ms"), ("seminorm.self_s", "s"),
    ("verify.calls", "count"), ("verify.classify_s", "s"), ("verify.self_s", "s"),
    ("rearrange.calls", "count"), ("rearrange.self_s", "s"),
    ("functionals.calls", "count"), ("functionals.self_s", "s"),
    ("grid.calls", "count"), ("grid.self_s", "s"),
    ("trace.overhead_ratio", "ratio"), ("seminorm.dual_gap_max", "ratio"),
    ("premise.violations", "count"),
)
PREMISES = {
    "verify-mix": "every timed seminorm call finds its tables cached",
    "seminorm-stream": "no timed op enters a kernels build",
    "seminorm-sweep": "both routes of every op enter a kernels build",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed op)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PERSYM_CACHE_DIR", None)  # a disk cache would turn 2D builds into loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every set-up compiles persym alike
    return env


def spawn(mode: str, workload: str, seed: int, seconds: float, deadline: float,
          extra: list[str] = ()) -> dict:
    """Run one worker process to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time before the {mode} process")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode, *extra]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: {mode} process timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: {mode} process exited {proc.returncode}\n"
                         + proc.stderr[-3000:])
    return json.loads(lines[-1])


def _pool(parts: list[dict]) -> dict:
    """One result from the measuring processes of a run."""
    lat = sorted(x for p in parts for x in p["latencies"])
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    split = {}
    for p in parts:
        for key, c in p["split"].items():
            split[key] = split.get(key, 0) + c
    return dict(
        versions=parts[0]["versions"],
        ops=len(lat), wall_s=sum(p["wall_s"] for p in parts), split=split,
        op_p50_ms=1e3 * statistics.median(lat), op_p90_ms=1e3 * p90,
        beyond_p90=sum(1 for x in lat if x > p90),
        peak_rss_mb=max(p["peak_rss_mb"] for p in parts),
        attempted=sum(p["attempted"] for p in parts),
        failed=sum(p["failed"] for p in parts),
        failures=[n for p in parts for n in p["failures"]],
    )


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; prints its report and returns the result."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        res = spawn("trace", workload, seed, seconds, deadline,
                    extra=["--spans", os.path.join(SPANS_DIR, f"spans-{workload}.json")])
        setups = []
    else:
        parts = [spawn("measure", workload, seed, seconds / WINDOWS, deadline,
                       extra=["--window", str(w), "--windows", str(WINDOWS)])
                 for w in range(WINDOWS)]
        setups = [p["setup_s"] for p in parts]
        while sum(setups) < SETUP_BUDGET_S:
            setups.append(spawn("setup", workload, seed, seconds, deadline)["setup_s"])
        res = _pool(parts)
    env = dict(res["versions"], nproc=os.cpu_count(), blas_threads=BLAS_THREADS,
               persym_cache_dir="removed", seed=seed, seconds=seconds,
               trace=int(trace), commit=git_commit(), workload=workload)
    print(f"# {workload}")
    print("env: " + json.dumps(env))
    print("split: " + json.dumps(res["split"]))
    for note in res["failures"]:
        print("FAILED " + note)
    ops = res["ops"]
    if trace:
        vals = dict(res["layers"], **{"seminorm.dual_gap_max": res["dual_gap_max"]})
        metrics = {name: {"value": vals[name], "unit": unit} for name, unit in PER_LAYER}
        print(f"traced: {ops} ops, {res['spans']} spans, untraced {res['wall_s']:.3f} s, "
              f"traced {res['traced_wall_s']:.3f} s")
        held = vals["premise.violations"] == 0
        print(f"premise {'holds' if held else 'BROKEN'}: {PREMISES[workload]} "
              f"({vals['premise.violations']} violations)")
    else:
        vals = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops / res["wall_s"],
            "op_p50_ms": res["op_p50_ms"],
            "op_p90_ms": res["op_p90_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": vals[name], "unit": unit} for name, unit in END_TO_END}
        print("samples: " + json.dumps({
            "setup_s": len(setups), "setups": setups, "windows": WINDOWS, "ops": ops,
            "wall_s": res["wall_s"],
            "beyond_p90": res["beyond_p90"],
        }))
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':28s} {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']} failed of {res['attempted']} attempted)")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="persym closed-loop benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "persym", "__init__.py")):
        print(f"perfbench: no persym sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
