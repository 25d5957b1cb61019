"""Extension: open-loop DHT serving saturation sweep (quick mode).

Runs the CI-sized serving sweep (same workload as ``python -m repro.bench
serve --quick``), validates the artifact schema, and asserts the shape
claims the full ``BENCH_serve.json`` headline rests on:

* every (config, rate) cell completes with zero missing keys;
* each swept config exhibits a p99 saturation knee within the rate grid;
* the eager build's knee is at least as high as the deferred build's
  (the paper's mechanism, restated as sustainable offered load).
"""

import time

from benchmarks.conftest import write_figure
from repro.bench.report import format_serve_report
from repro.bench.servebench import (
    GATE_CONFIG,
    GATE_RATE_RPS,
    run_serve_bench,
    validate_serve_doc,
)

#: generous wall budget; the quick sweep is a CI smoke, not a soak
SWEEP_BUDGET_S = 300.0


def test_serve_quick_sweep(figure_dir):
    t0 = time.perf_counter()
    doc = run_serve_bench(quick=True)
    wall = time.perf_counter() - t0

    assert validate_serve_doc(doc) == []
    assert doc["quick"] is True

    rows = doc["sweep"]["rows"]
    configs = {r["config"] for r in rows}
    head = doc["headline"]

    # every swept config has a knee entry; the coarse quick grid may
    # miss some configs' knees (None), but any located knee is a swept
    # rate, and the two headline configs must both saturate in-grid
    knees = head["knee_rate_rps_by_config"]
    assert set(knees) == configs
    rates = set(doc["sweep"]["rates_rps"])
    for config, knee in knees.items():
        assert knee is None or knee in rates, (
            f"{config} knee {knee} not a swept rate"
        )
    assert knees["eager"] is not None
    assert knees["defer"] is not None

    # the paper's claim as sustainable load: eager >= defer
    assert knees["eager"] >= knees["defer"]
    assert head["eager_over_defer_knee"] >= 1.0

    # the CI gate cell exists and reports a positive p99
    gate = head["gate"]
    assert gate["config"] == GATE_CONFIG
    assert gate["offered_rate_rps"] == GATE_RATE_RPS
    assert gate["p99_total_ns"] > 0.0

    # mean/p999 inversions are only claimed with both witnesses present
    for inv in head["inversions"]:
        assert inv["mean_winner"] != inv["p999_winner"]
        assert {inv["mean_winner"], inv["p999_winner"]} <= configs

    write_figure(
        figure_dir,
        "ext_serve_sweep.txt",
        format_serve_report(
            "Extension: open-loop DHT serving (quick sweep, ibv 2-node) "
            "[virtual ns]",
            doc,
        ),
    )

    assert wall < SWEEP_BUDGET_S, (
        f"quick serving sweep took {wall:.1f}s (budget {SWEEP_BUDGET_S}s)"
    )
