"""Tests for the benchmark harness's own logic: span self time, the
percentile and rate reductions, the correctness gate, and that every
metric the benchmark prints matches BENCHMARK.json by name and unit."""

import dataclasses
import json
import os
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import nslp.bsf  # noqa: E402
import run_bench  # noqa: E402
from spans import Span, Tracer, patched, self_times_ns, totals_ns  # noqa: E402

TINY = harness.Workload(6)
TINY_DRIFT = harness.Workload(6, "random-sparse", 1.0, 1e-3)


def test_self_time_subtracts_direct_children():
    spans = [
        Span("root", 0, 100, None, 0),
        Span("a", 10, 30, 0, 0),
        Span("b", 40, 50, 0, 0),
        Span("a.child", 12, 18, 1, 0),
        Span("a", 60, 70, 0, 1),
    ]
    assert self_times_ns(spans) == [60, 14, 10, 6, 10]
    assert totals_ns(spans, self_time=True)["a"] == 24
    assert totals_ns(spans)["a"] == 30
    assert totals_ns(spans)["root"] == 100


def test_tracer_nests_spans_and_restores_bindings():
    import types

    mod = types.SimpleNamespace(inner=lambda x: x + 1)
    original = mod.inner
    tracer = Tracer()
    outer = tracer.timed("outer", lambda x: mod.inner(x) * 2)
    with patched([(mod, "inner", tracer.timed("inner", mod.inner))]):
        tracer.iteration = 3
        assert outer(1) == 4
    assert [s.name for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1].parent == 0 and tracer.spans[0].parent is None
    assert {s.iteration for s in tracer.spans} == {3}
    assert mod.inner is original
    counted = tracer.counted("c", lambda: 0.0, lambda t, v: t.record("v", v))
    counted(), counted()
    assert tracer.counts["c"] == 2 and tracer.values["v"] == [0.0, 0.0]


def test_p90():
    values = [float(v) for v in range(101)]
    assert harness.p90(values) == 90.0
    assert harness.p90([1.0, 2.0]) == pytest.approx(1.9)
    assert harness.p90(values[::-1]) == 90.0


def test_inputs_depend_only_on_seed():
    w = harness.WORKLOADS["drift-full-n100"]
    (p1, s1), (p2, s2), (p3, s3) = (harness.make_inputs(w, s) for s in (7, 7, 8))
    assert (s1 == s2).all() and p1.drift == p2.drift
    assert not (s1 == s3).all() and p1.drift.seed != p3.drift.seed
    assert (s1 >= 0).all() and p1.drift.delta == 1.0


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_benchmark_json():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    for key, table in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table
    assert spec["command"][1:] == ["bench/run_bench.py"]


@pytest.fixture(scope="module")
def tiny_run():
    saved = harness.SETUP_PROBES
    harness.SETUP_PROBES = 1
    try:
        return harness.measure(TINY, seed=3, seconds=0.0, trace=True)
    finally:
        harness.SETUP_PROBES = saved


def test_printed_metrics_match_benchmark_json(tiny_run):
    spec = _spec()
    assert tiny_run.failed == 0
    # serial, farm (P=2), traced and P=1 farm passes, plus one 1-iteration probe
    assert tiny_run.attempted == 4 * harness.ITERATIONS + 1
    for key, metrics, table in (("end_to_end", harness.end_to_end(tiny_run), harness.END_TO_END),
                                ("per_layer", harness.per_layer(tiny_run), harness.PER_LAYER)):
        line = json.loads(run_bench.result_line(tiny_run, metrics, table))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        printed = {name: m["unit"] for name, m in line["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}
        assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def test_layer_counts_are_exact_on_a_stationary_run(tiny_run):
    layers = harness.per_layer(tiny_run)
    n, k = TINY.n, harness.K
    assert layers["cross.point_builds"] == n * k
    assert layers["lp.delta_entries"] == 0
    assert layers["quest.recoveries"] == 0
    # 8-byte theta per coordinate, u32 n, u64 clock and three empty sections
    assert layers["bsf.order_bytes"] == 4 + 8 * n + 8 + 3 * 4

def test_medians_and_rates_pool_the_passes(tiny_run):
    user = harness.tracking(tiny_run)
    farm_iters = [t for r in tiny_run.farm for t in r.iter_s]
    serial_iters = [t for r in tiny_run.serial for t in r.iter_s]
    assert len(serial_iters) == harness.ITERATIONS
    assert user["farm_iter_ms_p50"] == 1e3 * statistics.median(farm_iters)
    assert user["serial_iters_per_s"] == len(serial_iters) / sum(r.loop_s for r in tiny_run.serial)
    assert sum(serial_iters) == pytest.approx(tiny_run.serial[0].loop_s)


def test_gate_counts_each_differing_row(tiny_run):
    ref = tiny_run.ref
    assert ref is tiny_run.farm[0]
    lines = ref.csv.splitlines()
    lines[2] += "0"
    bad = dataclasses.replace(ref, csv="\n".join(lines) + "\n")
    assert harness.failed_iterations(TINY, ref, ref) == set()
    assert harness.failed_iterations(TINY, ref, bad) == {1}
    far = dataclasses.replace(ref, rows=ref.rows[:-1] + [
        dataclasses.replace(ref.rows[-1], residual=0.5)])
    assert harness.failed_iterations(TINY, ref, far) == {harness.ITERATIONS - 1}


def test_gate_catches_a_corrupt_delta_shared_by_both_backends(monkeypatch):
    problem, start = harness.make_inputs(TINY_DRIFT, 3)
    good = harness.run_pass(problem, start, "sequential-sim", 1, 5)
    assert good.bad_orders == set()
    assert harness.failed_iterations(TINY_DRIFT, good, good) == set()
    real = nslp.bsf.delta_between

    def off_by_one_bit(prev, next_lp):
        d = real(prev, next_lp)
        vals = d.a_vals.copy()
        vals.view(np.uint64)[-1:] ^= 1
        return dataclasses.replace(d, a_vals=vals)

    monkeypatch.setattr(nslp.bsf, "delta_between", off_by_one_bit)
    bad = harness.run_pass(problem, start, "sequential-sim", 1, 5)
    # the first order carries no A change; every later one is one bit off
    assert harness.failed_iterations(TINY_DRIFT, bad, bad) == {1, 2, 3, 4}


def test_a_missing_pass_still_prints_the_counts():
    run = harness.Run(TINY)
    run.abort(harness.ITERATIONS, RuntimeError("worker died"))
    line = json.loads(run_bench.result_line(run, None, harness.END_TO_END))
    assert line["correct"] is False
    assert line["attempted"] == line["failed"] == harness.ITERATIONS
    assert {name for name in line["metrics"]} == set(harness.END_TO_END)
    assert all(m["value"] is None for m in line["metrics"].values())


def test_stop_children_leaves_no_process_behind():
    import multiprocessing
    from multiprocessing import resource_tracker

    ctx = multiprocessing.get_context("spawn")
    proc = ctx.Process(target=json.dumps, args=({},))
    proc.start()
    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    assert pid is not None
    run_bench.stop_children()
    assert not proc.is_alive()
    assert tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, 0)
