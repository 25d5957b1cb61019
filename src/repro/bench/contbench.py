"""Continuation-completion benchmark: callback path vs future path.

Sweeps the GUPS atomic-update workload across batch sizes under the
deferred-notification build, comparing three completion-tracking idioms
on the *mean notification gap* (completion observed → notification
dispatched, :class:`repro.obs.span.GapStats`):

* **future** — ``amo_future``: per-op futures conjoined with ``when_all``
  per batch.  Under deferred notification every fulfilment parks on the
  progress queue until a drain retires it; the gap is the defer penalty.
* **promise** — ``prog_adaptive``: promise-tracked batches with the idle
  polling segment.  Same parking behaviour, cheaper per-op bookkeeping.
* **cont** — the continuation variant (``FeatureFlags.cx_continuations``):
  each op carries ``operation_cx.as_continuation`` ticking a counter.
  Continuations are eager-by-construction — they dispatch the moment the
  ack is observed, never touching the deferred queue — so their gaps
  collapse to the eager baseline *on the defer build*, which is the
  headline this artifact pins: ``cont`` mean gap strictly below the
  future path's at every batch size.

Every variant's result must pass HPCC verification exactly (atomics
never race within an update).

The future-vs-cont comparison itself now runs on the shared A/B engine
(:mod:`repro.bench.ab`, spec ``cont_future`` — ``cx_continuations`` is
the one toggled flag); this module rebuilds the legacy ``BENCH_cont``
row/comparison shape from the engine's cells and adds the promise rows,
which are descriptive context rather than an arm of the experiment.
"""

from __future__ import annotations

import json
import sys

from repro.bench import ab as _ab

#: batch sizes of the sweep (updates per tracked batch)
BATCH_SWEEP = (8, 16, 32, 64)

#: (variant label, GUPS variant) of the completion idioms compared
CONT_VARIANTS = (
    ("future", "amo_future"),
    ("promise", "prog_adaptive"),
    ("cont", "cont"),
)


def _mean_update_gap(stats) -> tuple[float, int]:
    """Weighted mean notification gap over the operation spans (moved to
    :func:`repro.bench.ab.mean_update_gap`; re-exported for callers)."""
    return _ab.mean_update_gap(stats)


def _legacy_row(
    variant: str, gups_variant: str, batch: int, spec, cell: dict, env: dict
) -> dict:
    """An A/B engine cell rendered as the legacy ``BENCH_cont`` row."""
    m, d = cell["metrics"], cell["details"]
    p = spec.workload_params
    return {
        "variant": variant,
        "gups_variant": gups_variant,
        "batch": batch,
        "ranks": p["ranks"],
        "updates_per_rank": p["updates_per_rank"],
        "version": spec.version.value,
        "machine": p["machine"],
        "solve_ns": m["solve_ns"],
        "gups": d["gups"],
        "mean_gap_ns": round(m["mean_gap_ns"], 3),
        "gap_count": d["gap_count"],
        "gap_modes": d["gap_modes"],
        "wall_s": env["wall_s"],
    }


def run_cont_bench(*, quick: bool = False, progress=None) -> dict:
    """Run the full continuation benchmark; returns the artifact doc.

    The future/cont arms come from one :func:`repro.bench.ab.run_ab_spec`
    sweep of the ``cont_future`` spec (first seed's cells — the legacy
    rows are single-seed); the promise rows reuse the same workload
    off-spec via ``params_override``.
    """

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    spec = _ab.CONT_FUTURE
    ab_doc = _ab.run_ab_spec(spec, quick=quick, progress=progress)
    det = ab_doc["deterministic"]
    env_cells = ab_doc["environment"]["cells"]
    seed0 = det["seeds"][0]
    arm_flags = spec.arm_flags()
    arm_of = {"future": det["arms"]["a"], "cont": det["arms"]["b"]}
    rows = []
    for point_row in det["points"]:
        batch = point_row["point"]
        for variant, gups_variant in CONT_VARIANTS:
            label = arm_of.get(variant)
            if label is None:
                # promise is context, not an arm: same base flags as the
                # future arm, tracking idiom swapped via params_override
                say(f"cont sweep: {variant} batch={batch} ...")
                cell, env = _ab.run_cell(
                    spec,
                    point=batch,
                    flags=arm_flags[det["arms"]["a"]],
                    seed=seed0,
                    params_override={"variant": gups_variant},
                )
            else:
                cell = point_row["cells"][label][str(seed0)]
                env = env_cells[f"{batch}|{label}|{seed0}"]
            rows.append(
                _legacy_row(variant, gups_variant, batch, spec, cell, env)
            )

    by_batch = {}
    for row in rows:
        by_batch.setdefault(row["batch"], {})[row["variant"]] = row
    comparisons = []
    for batch in sorted(by_batch):
        cell = by_batch[batch]
        fut, cont = cell["future"], cell["cont"]
        comparisons.append({
            "batch": batch,
            "future_mean_gap_ns": fut["mean_gap_ns"],
            "cont_mean_gap_ns": cont["mean_gap_ns"],
            "gap_ratio": round(
                fut["mean_gap_ns"] / cont["mean_gap_ns"], 3
            ) if cont["mean_gap_ns"] else float("inf"),
            "cont_beats_future": (
                cont["mean_gap_ns"] < fut["mean_gap_ns"]
            ),
        })
    doc = {
        "bench": "cont",
        "invocation": "python -m repro.bench cont",
        "python": sys.version.split()[0],
        "quick": quick,
        "ab_spec": spec.name,
        "description": (
            "GUPS atomic-update sweep on the deferred-notification build: "
            "mean notification gap of the continuation callback path "
            "(eager-by-construction, never parked) vs the future and "
            "promise paths (parked on the deferred queue until a drain)"
        ),
        "rows": rows,
        "comparisons": comparisons,
        "headline": {
            "cont_beats_future_all_batches": all(
                c["cont_beats_future"] for c in comparisons
            ),
            "gap_ratio_min": min(c["gap_ratio"] for c in comparisons),
            "gap_ratio_max": max(c["gap_ratio"] for c in comparisons),
            "note": (
                "continuations dispatch inline at whichever agent "
                "observes the ack, so on the defer build their "
                "notification gaps are the eager baseline while "
                "future/promise completions pay the deferred-queue "
                "parking latency"
            ),
        },
    }
    return doc


def write_cont_bench(path: str, *, quick: bool = False, progress=None) -> dict:
    doc = run_cont_bench(quick=quick, progress=progress)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc
