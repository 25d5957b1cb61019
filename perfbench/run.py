"""Host-time benchmark of the simulator, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gups_eager --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced jobs with jobs whose layer calls are
timed from outside (``tracer.py``, ``layers.py``) and reports the
per-layer split.  Either way every job's output is checked and the last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when any check failed.  Results and the first traced job's spans
are written under ``perfbench/out/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts set-up time
import gzip  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("gups_eager", "gups_defer", "serve_offnode", "gups_agg_offnode")
#: extra processes that repeat the set-up, so setup_s is a median of five
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 170

#: end-to-end metrics in the final JSON line: name -> unit
END_TO_END = {
    "setup_s": "s",
    "sim_ops_per_s": "ops/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "peak_rss_mb": "MB",
}


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the
    program from there; exit non-zero without a result if it is absent."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of ``n`` jobs beyond
    it (50 when fewer than twenty jobs ran)."""
    return max(50, int(100 * (1 - 10 / n))) if n else 50


def nearest_rank(sorted_vals: list, pct: int) -> float:
    k = max(1, -(-pct * len(sorted_vals) // 100))
    return sorted_vals[k - 1]


class Bench:
    """One workload at one seed: inputs, the reference job, checked jobs."""

    def __init__(self, name: str, seed: int):
        from workloads import WORKLOADS

        self.wl = WORKLOADS[name]
        self.cfg, self.oracle = self.wl.inputs(seed)
        # the warm-up job; every later job must reproduce its virtual results
        first = self.wl.check(self.wl.run(self.cfg), self.oracle)
        self.reference = first.virtual
        self.failures = [] if first.ok else [first.reason]

    def job(self, run=None):
        """Run one job; return (host seconds, the check's outcome)."""
        run = run or self.wl.run
        t0 = time.perf_counter()
        res = run(self.cfg)
        secs = time.perf_counter() - t0
        out = self.wl.check(res, self.oracle)
        if out.ok and out.virtual != self.reference:
            out.ok = False
            out.reason = (
                f"virtual results {out.virtual} differ from the first "
                f"job's {self.reference}"
            )
        if not out.ok:
            self.failures.append(out.reason)
        return secs, out


def _error_frac(bench, outcomes) -> float:
    words = bench.wl.error_words()
    wrong = sum(o.wrong_ops if o.ok else words for o in outcomes)
    return wrong / (words * len(outcomes))


def run_setup_children(args) -> list:
    """Repeat the whole set-up (imports, inputs, warm-up job) in fresh
    processes, one at a time; return their set-up seconds."""
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def timed_run(args, bench, setup_s: float) -> dict:
    """End-to-end metrics over ``args.seconds`` of untraced jobs."""
    wl = bench.wl
    times, outcomes = [], []
    deadline = time.perf_counter() + args.seconds
    while not times or time.perf_counter() < deadline:
        secs, out = bench.job()
        times.append(secs)
        outcomes.append(out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_s] + run_setup_children(args)

    n = len(times)
    pct = tail_percentile(n)
    ordered = sorted(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "sim_ops_per_s": n * wl.ops / sum(times),
        "job_s_p50": statistics.median(times),
        "job_s_tail": nearest_rank(ordered, pct),
        "peak_rss_mb": peak_rss_mb,
    }
    from workloads import virtual_metrics

    extra = {
        "jobs": n,
        "ops_per_job": wl.ops,
        "tail_percentile": pct,
        "setup_s_samples": setups,
        "error_frac": _error_frac(bench, outcomes),
        "virtual": virtual_metrics(wl, bench.reference),
        "job_s": times,
    }
    failed = sum(wl.ops for o in outcomes if not o.ok)
    return {
        "metrics": {k: (v, END_TO_END[k]) for k, v in metrics.items()},
        "extra": extra,
        "attempted": n * wl.ops,
        "failed": failed,
    }


def traced_job(bench, tr, keep_spans: bool):
    """One job with every layer target wrapped; return (host seconds, the
    check's outcome, the job's CostAction totals and scheduler switches,
    wrapped name -> layer)."""
    import layers
    from repro.sim.costmodel import CostAction
    from tracer import Installation

    worlds = []
    inst = Installation(tr, layers.TARGETS, on_world=worlds.append)
    frame = tr.begin_job(tr.job + 1, keep_spans)

    def run(cfg):
        try:
            return bench.wl.run(cfg)
        finally:
            tr.end_job(frame)

    try:
        secs, out = bench.job(run)
    finally:
        inst.remove()
    counts = Counter()
    for w in worlds:
        for a in layers.ACTIONS:
            counts[a] += w.total_count(CostAction[a])
        counts["sched_switches"] += w.sched_switches
    return secs, out, counts, inst.layer_of


def traced_run(args, bench) -> dict:
    """Per-layer metrics: untraced and traced jobs alternate for
    ``args.seconds``; the layer split comes from the traced ones."""
    import layers
    from tracer import Tracer

    wl = bench.wl
    tr = Tracer()
    plain, traced, outcomes = [], [], []
    totals = Counter()
    first_counts = None
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        secs, out = bench.job()
        plain.append(secs)
        outcomes.append(out)
        secs, out, counts, layer_of = traced_job(bench, tr, not traced)
        if first_counts is None:
            first_counts = counts
        elif out.ok and counts != first_counts:
            out.ok = False
            out.reason = (
                f"action counts {dict(counts)} differ from the first traced "
                f"job's {dict(first_counts)}"
            )
            bench.failures.append(out.reason)
        totals.update(counts)
        traced.append(secs)
        outcomes.append(out)

    ops = len(traced) * wl.ops
    overhead = statistics.median(traced) / statistics.median(plain)
    metrics = layers.layer_metrics(
        tr, layer_of, totals, totals["sched_switches"], ops, overhead
    )
    units = layers.metric_units()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{wl.name}-seed{args.seed}-spans.jsonl.gz"
    with gzip.open(spans_path, "wt") as fh:
        fh.write(json.dumps({
            "fields": ["name", "start_s", "end_s", "id", "parent", "job"],
            "workload": wl.name, "seed": args.seed,
        }) + "\n")
        for span in tr.spans:
            fh.write(json.dumps(span) + "\n")
    return {
        "metrics": {k: (v, units[k][0]) for k, v in metrics.items()},
        "extra": {
            "traced_jobs": len(traced),
            "untraced_jobs": len(plain),
            "traced_job_s_p50": statistics.median(traced),
            "untraced_job_s_p50": statistics.median(plain),
            "spans": len(tr.spans),
            "spans_file": str(spans_path.relative_to(HERE.parent)),
        },
        "attempted": len(outcomes) * wl.ops,
        "failed": sum(wl.ops for o in outcomes if not o.ok),
    }


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def print_report(name: str, seed: int, result: dict) -> None:
    extra = result["extra"]
    print(f"workload {name}  seed {seed}")
    for k, (v, unit) in result["metrics"].items():
        note = ""
        if k == "job_s_p50":
            note = f"  ({extra['jobs']} jobs of {extra['ops_per_job']} ops)"
        elif k == "job_s_tail":
            note = f"  (p{extra['tail_percentile']})"
        elif k == "setup_s":
            note = f"  (median of {len(extra['setup_s_samples'])} set-ups)"
        print(f"  {k:<42} {_fmt(v):>14} {unit}{note}")
    if "error_frac" in extra:
        print(f"  {'error_frac':<42} {_fmt(extra['error_frac']):>14} ratio")
        for k, (v, unit) in extra["virtual"].items():
            print(f"  {k:<42} {_fmt(v):>14} {unit}  (virtual)")
    else:
        for k in ("traced_job_s_p50", "untraced_job_s_p50"):
            print(f"  {k:<42} {_fmt(extra[k]):>14} s")
        print(f"  spans written: {extra['spans']} to {extra['spans_file']}")


def result_line(correct: bool, result: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            k: {"value": v, "unit": unit}
            for k, (v, unit) in result["metrics"].items()
        },
    })


def pin_to_one_cpu() -> None:
    """Run on one CPU.  The simulator runs one rank at a time, so a second
    CPU adds nothing but cross-CPU handoffs between rank threads, whose
    cost depends on whatever else the machine is running."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_one(args) -> int:
    pin_to_one_cpu()
    import_program()
    bench = Bench(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "ok": not bench.failures}))
        return 0 if not bench.failures else 1
    if args.trace:
        result = traced_run(args, bench)
    else:
        result = timed_run(args, bench, setup_s)
    correct = not bench.failures
    for reason in dict.fromkeys(bench.failures):
        print(f"CHECK FAILED: {reason}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct,
        "failures": sorted(set(bench.failures)), **result,
    }, indent=1))
    print_report(args.workload, args.seed, result)
    print(result_line(correct, result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, then one table of every metric."""
    rc = 0
    results = {}
    for name in WORKLOAD_NAMES:
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60,
        )
        sys.stderr.write(proc.stderr)
        rc = rc or proc.returncode
        if path.exists():
            results[name] = json.loads(path.read_text())
    rows = {}
    for name, res in results.items():
        cells = {k: (v, u) for k, (v, u) in res["metrics"].items()}
        extra = res["extra"]
        if "error_frac" in extra:
            cells["error_frac"] = (extra["error_frac"], "ratio")
            cells["job_s_tail.percentile"] = (extra["tail_percentile"], "pct")
            cells["jobs"] = (extra["jobs"], "count")
            cells.update({k: tuple(v) for k, v in extra["virtual"].items()})
        else:
            cells["traced_job_s_p50"] = (extra["traced_job_s_p50"], "s")
            cells["untraced_job_s_p50"] = (extra["untraced_job_s_p50"], "s")
        for k, vu in cells.items():
            rows.setdefault(k, {})[name] = vu
    names = list(results)
    print(f"{'metric':<40} {'unit':<14}" + "".join(f"{n:>18}" for n in names))
    for k, by in rows.items():
        unit = next(iter(by.values()))[1]
        vals = "".join(
            f"{_fmt(by[n][0]) if n in by else '-':>18}" for n in names
        )
        print(f"{k:<40} {unit:<14}{vals}")
    correct = rc == 0 and len(results) == len(WORKLOAD_NAMES) and all(
        r["correct"] for r in results.values()
    )
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": names,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
