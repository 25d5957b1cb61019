"""The benchmark's own checks.  Run from the repository root with

    python3 -m pytest perfbench -q
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

import run

run.import_program()

import layers  # noqa: E402 - needs the program on the path
import workloads  # noqa: E402
from tracer import APPS, JOB, TRACE, Tracer  # noqa: E402

SEED = 3
#: a seed no tuning run used: the output checks must hold on it too
FRESH_SEED = 97


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def bench(request):
    return run.Bench(request.param, SEED)


@pytest.fixture(scope="module")
def traced(bench):
    """Two traced jobs on one tracer: (tracer, [(secs, outcome, counts,
    layer_of), ...])."""
    tr = Tracer()
    jobs = [run.traced_job(bench, tr, keep_spans=k) for k in (True, False)]
    return tr, jobs


def virtual_of(wl, outcome):
    return workloads.virtual_metrics(wl, outcome.virtual)


def test_traced_counts_and_virtual_results_repeat(bench, traced):
    tr, (a, b) = traced
    for _secs, out, _counts, _layer_of in (a, b):
        assert out.ok, out.reason
        assert out.virtual == bench.reference
    assert a[2] == b[2]
    assert set(a[2]) == set(layers.ACTIONS) | {"sched_switches"}
    assert virtual_of(bench.wl, a[1]) == virtual_of(bench.wl, b[1])
    assert tr.spans and {s[5] for s in tr.spans} == {0}


def test_tracing_unwraps_and_moves_no_virtual_result(bench, traced):
    from repro.core.when_all import when_all
    from repro.sim.costmodel import CostModel
    import repro.apps.gups as gups

    assert not hasattr(CostModel.__dict__["charge"], "__wrapped__")
    assert not hasattr(gups.when_all, "__wrapped__")
    assert gups.when_all is when_all
    _secs, out = bench.job()
    assert out.ok and out.virtual == bench.reference


def test_buckets_partition_the_job_time(traced):
    tr, jobs = traced
    job_wall = tr.incl_s[JOB]
    total = sum(tr.self_s.values()) + sum(s for _, s in tr.leaf.values())
    assert total == pytest.approx(job_wall, rel=0.02)
    assert tr.self_s[APPS] + tr.self_s[JOB] > 0 and tr.self_s[TRACE] > 0
    assert job_wall == pytest.approx(sum(j[0] for j in jobs), rel=0.01)


def test_split_matches_the_expected_layers(bench, traced):
    tr, jobs = traced
    counts = jobs[0][2] + jobs[1][2]
    m = layers.layer_metrics(
        tr, jobs[0][3], counts, counts["sched_switches"], 2 * bench.wl.ops, 1.0
    )
    assert set(m) == set(layers.metric_units())
    name = bench.wl.name
    cells = m["actions.HEAP_ALLOC_PROMISE_CELL_per_op"]
    switches = m["runtime.scheduler.switches_per_op"]
    if name == "gups_eager":
        assert cells == 0
    if name == "gups_defer":
        assert cells == pytest.approx(3.94, abs=0.05)
    if name.startswith("gups_"):
        assert switches < 0.01
    else:
        assert 10 < switches < 100
    agg_calls = m["gasnet.aggregator.calls_per_op"]
    assert (agg_calls > 0) == (name == "gups_agg_offnode")
    assert m["apps.residual_s_per_op"] > 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_checks_pass_on_a_fresh_seed(name):
    b = run.Bench(name, FRESH_SEED)
    secs, out = b.job()
    assert not b.failures and out.ok


def test_checks_catch_wrong_output():
    eager = run.Bench("gups_eager", SEED)
    res = eager.wl.run(eager.cfg)
    bad = copy.copy(res)
    bad.table = res.table.copy()
    bad.table[: len(bad.table) // 50] ^= np.uint64(1)  # 2% of words wrong
    assert not eager.wl.check(bad, eager.oracle).ok

    agg = run.Bench("gups_agg_offnode", SEED)
    res = agg.wl.run(agg.cfg)
    bad = copy.copy(res)
    bad.table = res.table.copy()
    bad.table[0] ^= np.uint64(1)
    assert not agg.wl.check(bad, agg.oracle).ok

    serve = run.Bench("serve_offnode", SEED)
    res = serve.wl.run(serve.cfg)
    bad = copy.copy(res)
    bad.missing = 1
    assert not serve.wl.check(bad, None).ok


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    units = layers.metric_units()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == units
