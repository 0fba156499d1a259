"""Tests of the benchmark's own machinery: seeded inputs, spans, self time.

    python3 -m pytest perfbench/test_perfbench.py -q

They check the input digests, the span schema and the self-time arithmetic;
they never check timings.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import persym  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from persym import rearrange, verify  # noqa: E402

WORKLOADS = ("verify-mix", "seminorm-stream", "seminorm-sweep")
DIGEST = ("import sys, workloads; "
          "print(workloads.digest(workloads.generate(sys.argv[1], int(sys.argv[2]))))")


def _digest_in_subprocess(workload: str, seed: int, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
    out = subprocess.run([sys.executable, "-c", DIGEST, workload, str(seed)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_depend_on_seed_alone(workload):
    a = _digest_in_subprocess(workload, 9, "1")
    b = _digest_in_subprocess(workload, 9, "2")
    assert a == b
    assert a != W.digest(W.generate(workload, 10))


def test_sweep_draws_fresh_s_in_range():
    specs = W.generate("seminorm-sweep", 3)
    s = [spec["s"] for spec in specs]
    assert len(set(s)) == len(s)
    assert all(0.1 <= v < 0.9 for v in s)
    assert [spec["dim"] for spec in specs[:4]] == [1, 2, 1, 2]


def test_verify_mix_has_equal_family_shares_and_equality_cases():
    specs = W.generate("verify-mix", 4, 500)
    counts = {f: sum(1 for s in specs if s["family"] == f) for f in W.FAMILIES}
    assert set(counts.values()) == {100}
    expected = {s["expect"] for s in specs} - {None}
    assert expected == {"constant", "zero", "common-translate", "levelwise-translate"}


def _small_ops():
    specs = W.generate("verify-mix", 5, 40)
    return [W.build(s) for s in specs]


def test_span_schema_and_boundaries():
    ops = _small_ops()
    original = verify.check_riesz_circle
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, op in enumerate(ops):
            with tracer.op_span(i, f"op:{op.family}"):
                W.run_op(op)
    finally:
        tracer.uninstall()
    assert verify.check_riesz_circle is original
    assert not hasattr(persym.StepFunction.__init__, "__wrapped__")
    spans = tracer.spans
    assert spans and all(len(sp) == len(tracing.SPAN_FIELDS) for sp in spans)
    layers = set(tracing.LAYERS) | {"op"}
    for i, (name, layer, start, end, parent, op) in enumerate(spans):
        assert layer in layers and name.startswith(layer + ".") or layer == "op"
        assert start <= end
        if layer == "op":
            assert parent == -1
            continue
        assert 0 <= parent < i
        p = spans[parent]
        assert p[2] <= start and end <= p[3]
        assert p[5] == op
        # a call inside one layer is no boundary and records no span
        assert p[1] != layer
    names = {sp[0] for sp in spans}
    assert {"verify.check_riesz_circle", "verify.classify_equality",
            "rearrange.periodic_rearrange_1d", "grid.StepFunction.__init__",
            "kernels.HeatKernel.weights", "seminorm.gagliardo_periodic_direct"} <= names


def test_untraced_calls_record_nothing():
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    W.run_op(_small_ops()[0])
    assert tracer.spans == []
    assert rearrange.periodic_rearrange_1d.__module__ == "persym.rearrange"
    assert not hasattr(rearrange.periodic_rearrange_1d, "__wrapped__")


def _span(name, layer, start, end, parent, op=0):
    return (name, layer, start, end, parent, op)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("op:x", "op", 0.0, 10.0, -1),
        _span("verify.a", "verify", 1.0, 3.0, 0),
        _span("verify.b", "verify", 2.0, 5.0, 0),  # overlaps its sibling
        _span("grid.c", "grid", 6.0, 7.0, 0),
        _span("grid.d", "grid", 1.5, 2.5, 1),  # grandchild: only its parent sees it
        _span("kernels.e", "kernels", 11.0, 12.0, 0),  # outside its parent
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    m = tracing.layer_metrics(spans)
    assert m["verify.calls"] == 2 and m["grid.calls"] == 2
    assert m["verify.self_s"] == pytest.approx(1.0 + 3.0)
    assert m["grid.self_s"] == pytest.approx(2.0)


def test_build_counts_and_cache_hits():
    spans = [
        _span("op:x", "op", 0.0, 10.0, -1),
        _span("seminorm.gagliardo_periodic_direct", "seminorm", 0.0, 4.0, 0),
        _span("kernels.riesz_weights_1d", "kernels", 1.0, 3.0, 1),
        _span("seminorm.gagliardo_periodic_laplace", "seminorm", 4.0, 5.0, 0),
        _span("kernels.LaplaceConfig.apply", "kernels", 4.2, 4.4, 3),
    ]
    m = tracing.layer_metrics(spans)
    assert m["kernels.builds"] == 1
    assert m["kernels.build_s"] == pytest.approx(2.0)
    assert m["kernels.self_s"] == pytest.approx(2.2)
    assert m["seminorm.cache_hit_ratio"] == pytest.approx(0.5)
    assert m["seminorm.warm_call_p50_ms"] == pytest.approx(1000.0)
    calls = tracing.seminorm_calls(spans)
    assert [(c["built"], c["from_op"]) for c in calls] == [(True, True), (False, True)]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
