"""Saturation sweep for the open-loop DHT serving driver.

Sweeps offered rate x mechanism configuration over
:func:`repro.serve.run_serve` on a fixed two-node ibv topology (the
regime where *every* studied mechanism is live: the eager/defer
notification path, AM aggregation, adaptive progress and wait hints)
and emits a machine-readable artifact
(``BENCH_serve.json``):

* one row per (configuration, offered rate): request counts, SLO misses,
  achieved rate, and p50/p99/p999 + mean for every latency phase
  (total/queue/service) plus the per-key-popularity-class totals —
  all in *virtual* nanoseconds, so every number is deterministic and the
  committed artifact doubles as a regression baseline;
* a **p99 knee** per configuration: the lowest swept rate whose total-
  latency p99 exceeds ``KNEE_FACTOR`` x that configuration's p99 at the
  lowest rate — the capacity figure a service operator actually reads;
* the **headline inversion**: mechanism pairs whose ranking by *mean*
  latency differs from their ranking by *p999* at the same offered rate.
  Mean-centric comparisons (the paper reports means) would pick the
  wrong mechanism for a tail SLO — this artifact exhibits concrete
  (pair, rate) witnesses with margins beyond the sketch's relative
  error.

Wall-clock cost is a few seconds in quick mode (CI) and well under a
minute for the full sweep; quick mode keeps the workload parameters
identical and trims only rates/configurations, so its rows are directly
comparable against the committed artifact (the CI p99 gate).
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import Optional

from repro.runtime.config import Version, flags_for
from repro.serve.driver import ServeResult, run_serve, sketch_key
from repro.serve.workload import KCLASSES, ServeConfig

#: p99(rate) >= KNEE_FACTOR * p99(lowest rate) marks the knee.
KNEE_FACTOR = 1.5

#: Margins an inversion witness must clear (the sketch's relative error
#: is 1%, so a 2% p999 gap cannot be bucket-quantization noise).
INVERSION_MEAN_MARGIN = 0.005
INVERSION_P999_MARGIN = 0.02

#: Offered world-wide rates, requests per virtual second.
FULL_RATES = (1e5, 2.5e5, 5e5, 1e6, 2e6, 4e6)
QUICK_RATES = (1e5, 2.5e5, 1e6)

#: The CI regression gate row: sub-saturation, so its p99 reflects
#: mechanism cost rather than queueing explosion.
GATE_CONFIG = "eager"
GATE_RATE_RPS = 2.5e5

#: Fixed serving workload (identical in quick and full mode so rows are
#: comparable across the two).
WORKLOAD = ServeConfig(
    log2_slots=10,
    key_space=128,
    requests_per_rank=128,
    zipf_s=1.1,
    get_frac=0.6,
    put_frac=0.25,
    slo_ns=150_000.0,
    seed=3,
)
RANKS = 8
N_NODES = 2
CONDUIT = "ibv"
MACHINE = "intel"


def _mech(
    *,
    eager: bool,
    am_aggregation: bool = False,
    progress_adaptive: bool = False,
    wait_hints: bool = False,
):
    """(version, flags, mechanism-description dict) for one configuration."""
    version = Version.V2021_3_6_EAGER if eager else Version.V2021_3_6_DEFER
    flags = dataclasses.replace(
        flags_for(version),
        am_aggregation=am_aggregation,
        progress_adaptive=progress_adaptive,
        wait_hints=wait_hints,
    )
    mech = {
        "eager_notification": eager,
        "am_aggregation": am_aggregation,
        "progress_adaptive": progress_adaptive,
        "wait_hints": wait_hints,
    }
    return version, flags, mech


#: name -> (version, flags, mechanism dict).
CONFIGS = {
    "defer": _mech(eager=False),
    "eager": _mech(eager=True),
    "eager+agg": _mech(eager=True, am_aggregation=True),
    "eager+adaptive": _mech(eager=True, progress_adaptive=True),
    "eager+hints": _mech(
        eager=True, progress_adaptive=True, wait_hints=True
    ),
}
QUICK_CONFIGS = ("defer", "eager", "eager+agg", "eager+hints")


def _phase_stats(res: ServeResult, phase: str, kclass: str) -> Optional[dict]:
    sk = res.sketches.get(sketch_key(phase, kclass))
    if sk is None:
        return None
    pct = sk.percentiles()
    return {
        "n": sk.n,
        "mean_ns": sk.mean,
        "p50_ns": pct["p50"],
        "p99_ns": pct["p99"],
        "p999_ns": pct["p999"],
        "max_ns": sk.max,
    }


def serve_row(name: str, rate_rps: float) -> dict:
    """Run one (configuration, offered rate) cell and build its row."""
    version, flags, mech = CONFIGS[name]
    cfg = dataclasses.replace(WORKLOAD, offered_rate_rps=rate_rps)
    res = run_serve(
        cfg,
        ranks=RANKS,
        version=version,
        machine=MACHINE,
        conduit=CONDUIT,
        n_nodes=N_NODES,
        flags=flags,
    )
    if res.missing:
        raise AssertionError(
            f"serve workload correctness: {res.missing} requests hit "
            f"absent keys ({name} @ {rate_rps:g} rps)"
        )
    phases = {
        "total": _phase_stats(res, "total", "all"),
        "queue": _phase_stats(res, "queue", "all"),
        "service": _phase_stats(res, "service", "all"),
    }
    by_class = {}
    for kc in KCLASSES:
        st = _phase_stats(res, "total", kc)
        if st is not None:
            by_class[kc] = st
    return {
        "config": name,
        "version": version.value,
        "mechanisms": mech,
        "offered_rate_rps": rate_rps,
        "ranks": res.ranks,
        "requests": res.requests,
        "missing": res.missing,
        "slo_ns": cfg.slo_ns,
        "slo_misses": res.slo_misses,
        "slo_miss_frac": res.slo_misses / res.requests,
        "by_op": dict(sorted(res.by_op.items())),
        "achieved_rate_rps": res.achieved_rate_rps,
        "solve_ns": res.solve_ns,
        "phases": phases,
        "by_class": by_class,
    }


def find_knees(rows: list) -> dict:
    """Per configuration, the lowest swept rate whose total p99 is >=
    ``KNEE_FACTOR`` x the configuration's lowest-rate p99 (None if the
    sweep never saturates it)."""
    knees: dict[str, Optional[float]] = {}
    by_cfg: dict[str, list] = {}
    for row in rows:
        by_cfg.setdefault(row["config"], []).append(row)
    for name, cfg_rows in by_cfg.items():
        cfg_rows.sort(key=lambda r: r["offered_rate_rps"])
        base = cfg_rows[0]["phases"]["total"]["p99_ns"]
        knee = None
        for row in cfg_rows[1:]:
            if row["phases"]["total"]["p99_ns"] >= KNEE_FACTOR * base:
                knee = row["offered_rate_rps"]
                break
        knees[name] = knee
    return knees


def find_inversions(rows: list, knees: dict) -> list:
    """Mechanism pairs whose mean ranking contradicts their p999 ranking
    at the same offered rate, at-or-above the earliest knee.

    Both margins must clear :data:`INVERSION_MEAN_MARGIN` /
    :data:`INVERSION_P999_MARGIN` so a witness cannot be sketch
    quantization noise.
    """
    known_knees = [k for k in knees.values() if k is not None]
    min_knee = min(known_knees) if known_knees else None
    by_rate: dict[float, list] = {}
    for row in rows:
        by_rate.setdefault(row["offered_rate_rps"], []).append(row)
    out = []
    for rate in sorted(by_rate):
        if min_knee is not None and rate < min_knee:
            continue
        cells = sorted(by_rate[rate], key=lambda r: r["config"])
        for a in cells:
            for b in cells:
                if a["config"] >= b["config"]:
                    continue
                am, bm = (
                    a["phases"]["total"]["mean_ns"],
                    b["phases"]["total"]["mean_ns"],
                )
                at, bt = (
                    a["phases"]["total"]["p999_ns"],
                    b["phases"]["total"]["p999_ns"],
                )
                # a wins mean, b wins p999 (or vice versa), with margin
                lo_mean, hi_mean = sorted((am, bm))
                lo_t, hi_t = sorted((at, bt))
                if (
                    hi_mean - lo_mean < INVERSION_MEAN_MARGIN * hi_mean
                    or hi_t - lo_t < INVERSION_P999_MARGIN * hi_t
                ):
                    continue
                if (am < bm) != (at < bt):
                    mean_winner = a if am < bm else b
                    tail_winner = a if at < bt else b
                    out.append({
                        "offered_rate_rps": rate,
                        "pair": [a["config"], b["config"]],
                        "mean_winner": mean_winner["config"],
                        "p999_winner": tail_winner["config"],
                        "mean_ns": {
                            a["config"]: am, b["config"]: bm
                        },
                        "p999_ns": {
                            a["config"]: at, b["config"]: bt
                        },
                    })
    return out


def run_serve_bench(*, quick: bool = False, progress=None) -> dict:
    """Run the sweep; returns the ``BENCH_serve.json`` document."""

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    rates = QUICK_RATES if quick else FULL_RATES
    names = QUICK_CONFIGS if quick else tuple(CONFIGS)
    rows = []
    for rate in rates:
        for name in names:
            say(f"serve: {name} @ {rate:g} rps ...")
            rows.append(serve_row(name, rate))

    knees = find_knees(rows)
    inversions = find_inversions(rows, knees)

    gate_row = next(
        (
            r
            for r in rows
            if r["config"] == GATE_CONFIG
            and r["offered_rate_rps"] == GATE_RATE_RPS
        ),
        None,
    )
    knee_d, knee_e = knees.get("defer"), knees.get("eager")
    doc = {
        "bench": "serve",
        "invocation": "python -m repro.bench serve",
        "python": sys.version.split()[0],
        "quick": quick,
        "workload": {
            **dataclasses.asdict(WORKLOAD),
            "ranks": RANKS,
            "n_nodes": N_NODES,
            "conduit": CONDUIT,
            "machine": MACHINE,
            "note": (
                "offered_rate_rps in the workload block is the config "
                "default; each row carries its own swept rate"
            ),
        },
        "sweep": {
            "rates_rps": list(rates),
            "configs": list(names),
            "knee_factor": KNEE_FACTOR,
            "rows": rows,
        },
        "headline": {
            "knee_rate_rps_by_config": knees,
            "eager_over_defer_knee": (
                knee_e / knee_d
                if knee_e is not None and knee_d is not None
                else None
            ),
            "inversions": inversions,
            "inversion": inversions[0] if inversions else None,
            "gate": (
                None
                if gate_row is None
                else {
                    "config": GATE_CONFIG,
                    "offered_rate_rps": GATE_RATE_RPS,
                    "p99_total_ns": gate_row["phases"]["total"]["p99_ns"],
                }
            ),
            "note": (
                "all latencies are virtual-time and deterministic; an "
                "'inversion' is a mechanism pair whose mean ranking "
                "contradicts its p999 ranking at the same offered rate "
                "-- the reason mean-centric comparisons mislead under "
                "tail SLOs"
            ),
        },
    }
    return doc


def write_serve_bench(
    path: str, *, quick: bool = False, progress=None
) -> dict:
    doc = run_serve_bench(quick=quick, progress=progress)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc


# ---------------------------------------------------------------------------
# artifact schema validation (CI runs this on every generated artifact)
# ---------------------------------------------------------------------------


def _check_phase(errors: list, where: str, st) -> None:
    if not isinstance(st, dict):
        errors.append(f"{where}: not an object")
        return
    for key in ("n", "mean_ns", "p50_ns", "p99_ns", "p999_ns"):
        v = st.get(key)
        if not isinstance(v, (int, float)) or v < 0:
            errors.append(f"{where}.{key}: missing/negative {v!r}")
            return
    if not st["n"]:
        errors.append(f"{where}: empty phase (n == 0)")
    if not (st["p50_ns"] <= st["p99_ns"] <= st["p999_ns"]):
        errors.append(
            f"{where}: percentiles not monotone "
            f"(p50 {st['p50_ns']}, p99 {st['p99_ns']}, p999 {st['p999_ns']})"
        )


def validate_serve_doc(doc) -> list:
    """Structurally validate a ``BENCH_serve.json`` document.

    Returns a list of problems (empty = valid).  Checks the invariants
    downstream consumers rely on: row shape, monotone percentiles per
    phase, zero missing keys, and that each headline inversion witness
    references rows that exist and actually invert.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"expected object at top level, got {type(doc).__name__}"]
    if doc.get("bench") != "serve":
        errors.append(f"bench != 'serve' ({doc.get('bench')!r})")
    sweep = doc.get("sweep")
    if not isinstance(sweep, dict) or not isinstance(sweep.get("rows"), list):
        return errors + ["no sweep.rows list"]
    rows = sweep["rows"]
    if not rows:
        errors.append("sweep.rows is empty")
    seen = set()
    for i, row in enumerate(rows):
        where = f"rows[{i}]"
        if not isinstance(row, dict):
            errors.append(f"{where}: not an object")
            continue
        name = row.get("config")
        rate = row.get("offered_rate_rps")
        if not isinstance(name, str):
            errors.append(f"{where}: missing config name")
            continue
        if not isinstance(rate, (int, float)) or rate <= 0:
            errors.append(f"{where}: bad offered_rate_rps {rate!r}")
            continue
        if (name, rate) in seen:
            errors.append(f"{where}: duplicate cell ({name}, {rate:g})")
        seen.add((name, rate))
        if row.get("missing") != 0:
            errors.append(
                f"{where}: missing != 0 ({row.get('missing')!r}) — "
                "the workload must only touch prepopulated keys"
            )
        reqs = row.get("requests")
        if not isinstance(reqs, int) or reqs <= 0:
            errors.append(f"{where}: bad requests {reqs!r}")
        phases = row.get("phases")
        if not isinstance(phases, dict):
            errors.append(f"{where}: no phases object")
            continue
        for phase in ("total", "queue", "service"):
            _check_phase(errors, f"{where}.phases.{phase}", phases.get(phase))
        by_class = row.get("by_class", {})
        if not isinstance(by_class, dict) or not by_class:
            errors.append(f"{where}: no by_class stats")
        else:
            for kc, st in by_class.items():
                _check_phase(errors, f"{where}.by_class.{kc}", st)
    head = doc.get("headline")
    if not isinstance(head, dict):
        errors.append("no headline object")
        return errors
    knees = head.get("knee_rate_rps_by_config")
    if not isinstance(knees, dict):
        errors.append("headline.knee_rate_rps_by_config missing")
    inversions = head.get("inversions")
    if not isinstance(inversions, list):
        errors.append("headline.inversions missing")
    else:
        cells = {
            (r["config"], r["offered_rate_rps"]): r
            for r in rows
            if isinstance(r, dict) and "config" in r
        }
        for j, inv in enumerate(inversions):
            where = f"headline.inversions[{j}]"
            pair = inv.get("pair") if isinstance(inv, dict) else None
            rate = inv.get("offered_rate_rps") if isinstance(inv, dict) else None
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or rate is None
            ):
                errors.append(f"{where}: malformed witness")
                continue
            ra, rb = cells.get((pair[0], rate)), cells.get((pair[1], rate))
            if ra is None or rb is None:
                errors.append(f"{where}: references missing rows")
                continue
            am = ra["phases"]["total"]["mean_ns"]
            bm = rb["phases"]["total"]["mean_ns"]
            at = ra["phases"]["total"]["p999_ns"]
            bt = rb["phases"]["total"]["p999_ns"]
            if (am < bm) == (at < bt):
                errors.append(
                    f"{where}: rows do not invert "
                    f"(mean {am:g} vs {bm:g}, p999 {at:g} vs {bt:g})"
                )
    return errors
