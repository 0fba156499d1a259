"""One benchmark process: set up a workload, then time it, trace it or stop.

run.py starts this in a fresh process for every set-up and measurement; it is
not meant to be run by hand, except to record reference values:

    PYTHONPATH=src python3 perfbench/worker.py --workload verify-mix --mode record

Modes:
  setup    set up (inputs, reference ops, warm-up) and report set-up time;
  measure  set up, then run the closed loop untraced for --seconds, starting
           at part --window of the spec pool; report every op's latency;
  trace    set up, then for --seconds alternate untraced blocks of ops with
           the same ops traced by boundary spans; report per-layer numbers;
  record   write this workload's reference values into reference.json.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
MAX_FAILURE_NOTES = 10
TRACE_BLOCK_S = 0.5


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.dual_gap_max = 0.0

    def run(self, W, op, label: str, reference: dict | None = None) -> None:
        self.attempted += 1
        try:
            vals, problems = W.run_op(op)
            if reference is not None:
                problems += W.compare_reference(vals, reference)
            self.dual_gap_max = max(self.dual_gap_max, vals.get("dual_gap", 0.0))
        except Exception as exc:  # an op that raises is a failed op, not a crash
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if len(self.notes) < MAX_FAILURE_NOTES:
                self.notes.append(f"{label} ({op.family}): {'; '.join(problems)}")


def _loop(W, ops, tally, seconds=None, count=None, first=0, tracer=None):
    """Closed loop: the next op starts when the previous one has returned.

    Runs ops[first], ops[first + 1], ... (cycling) until ``count`` ops or
    ``seconds`` have passed.  Returns (ops run, wall seconds, per-op
    latencies, ops per family or input kind).
    """
    lat, split = [], {}
    i = 0
    start = time.perf_counter()
    while (count is None or i < count) and (
        seconds is None or time.perf_counter() - start < seconds
    ):
        k = first + i
        op = ops[k % len(ops)]
        t = time.perf_counter()
        if tracer is None:
            tally.run(W, op, f"op {k}")
        else:
            with tracer.op_span(k, f"op:{op.family}"):
                tally.run(W, op, f"op {k}")
        lat.append(time.perf_counter() - t)
        key = op.kind or op.family
        split[key] = split.get(key, 0) + 1
        i += 1
    return i, time.perf_counter() - start, lat, split


def _clear_caches() -> None:
    """Empty every lru_cache in persym, as a fresh process would have it."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("persym."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "record"), required=True)
    ap.add_argument("--t0", type=float, default=None,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--spans", default=None, help="file to write the trace's spans to")
    ap.add_argument("--window", type=int, default=0,
                    help="measure: which of --windows equal parts of the spec pool to start at")
    ap.add_argument("--windows", type=int, default=1)
    args = ap.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0

    import numpy
    import scipy

    import workloads as W

    if args.mode == "record":
        ref_ops = [W.build(s) for s in W.generate(args.workload, W.REFERENCE_SEED,
                                                   W.REFERENCE_OPS[args.workload])]
        values = [W.run_op(op)[0] for op in ref_ops]
        data = {}
        if os.path.exists(REFERENCE):
            with open(REFERENCE) as fh:
                data = json.load(fh)
        data[args.workload] = values
        with open(REFERENCE, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(json.dumps({"recorded": len(values)}))
        return 0

    specs = W.generate(args.workload, args.seed)
    ops = [W.build(s) for s in specs]
    ref_specs = W.generate(args.workload, W.REFERENCE_SEED, W.REFERENCE_OPS[args.workload])
    with open(REFERENCE) as fh:
        ref_values = json.load(fh)[args.workload]
    tally = Tally()
    for i, spec in enumerate(ref_specs):
        tally.run(W, W.build(spec), f"reference op {i}", ref_values[i])
    # warm-up: one op per distinct table key, so that the timed ops find every
    # table they reuse already built
    seen = set()
    for i, spec in enumerate(specs):
        key = W.warm_key(spec)
        if key is not None and key not in seen:
            seen.add(key)
            tally.run(W, ops[i], f"warm-up op {i}")
    setup_s = time.monotonic() - t0
    out = {
        "workload": args.workload,
        "setup_s": setup_s,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.mode == "measure":
        first = args.window * len(ops) // args.windows
        n, wall, lat, split = _loop(W, ops, tally, seconds=args.seconds, first=first)
        out.update(ops=n, wall_s=wall, split=split, latencies=lat)
    else:
        from tracing import SPAN_FIELDS, Tracer, layer_metrics, seminorm_calls

        # Untraced and traced blocks alternate over the same ops, so that the
        # machine's drift between them cancels out of the overhead ratio;
        # seminorm-sweep empties the caches before every block so that both
        # passes build the same tables.
        tracer = Tracer()
        n, wall_u, wall_t, split = 0, 0.0, 0.0, {}
        end = time.perf_counter() + args.seconds
        while time.perf_counter() < end:
            if args.workload == "seminorm-sweep":
                _clear_caches()
            k, w, _, blk = _loop(W, ops, tally, seconds=TRACE_BLOCK_S, first=n)
            wall_u += w
            if args.workload == "seminorm-sweep":
                _clear_caches()
            tracer.install()
            try:
                wall_t += _loop(W, ops, tally, count=k, first=n, tracer=tracer)[1]
            finally:
                tracer.uninstall()
            n += k
            for key, c in blk.items():
                split[key] = split.get(key, 0) + c
        layers = layer_metrics(tracer.spans)
        layers["trace.overhead_ratio"] = wall_t / wall_u - 1.0
        calls = seminorm_calls(tracer.spans)
        if args.workload == "seminorm-sweep":  # every route of every op builds
            violations = sum(1 for c in calls if c["from_op"] and not c["built"])
        else:  # every table the seminorm needs was built in set-up
            violations = sum(1 for c in calls if c["built"])
        layers["premise.violations"] = violations
        out.update(ops=n, wall_s=wall_u, traced_wall_s=wall_t, split=split, layers=layers,
                   spans=len(tracer.spans))
        if args.spans:
            os.makedirs(os.path.dirname(os.path.abspath(args.spans)), exist_ok=True)
            with open(args.spans, "w") as fh:
                json.dump({"fields": SPAN_FIELDS, "spans": tracer.spans}, fh)
    out.update(
        attempted=tally.attempted, failed=tally.failed, failures=tally.notes,
        dual_gap_max=tally.dual_gap_max,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
