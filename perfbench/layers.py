"""The layers the traced run measures, and the per-layer metrics.

A layer is a module of the program; the traced run wraps the public
functions below (see ``tracer.py``) and reads the deterministic
``CostAction`` totals and ``World.sched_switches`` from every world the
job constructs.

Which end-to-end metric each layer should move, and on which workloads
it should not, is tabled in ``README.md``.
"""

from __future__ import annotations

from tracer import APPS, CALL, JOB, LEAF, SPAN, TRACE


def _is_true(_args, result) -> bool:
    return result is True


def _returned_an_input(args, result) -> bool:
    return any(result is a for a in args)


#: (layer, module, functions, wrapper kind, hit predicate)
TARGETS = (
    ("sim.costmodel", "repro.sim.costmodel",
     ("CostModel.charge", "CostModel.charge_bytes"), LEAF, None),
    ("memory.global_ptr", "repro.memory.global_ptr",
     ("GlobalPtr.__init__",), LEAF, None),
    ("memory.global_ptr", "repro.memory.global_ptr",
     ("GlobalPtr.is_local", "GlobalPtr.local", "GlobalPtr.where"), CALL, None),
    ("memory.segment", "repro.memory.segment", ("Segment.*",), CALL, None),
    ("rma", "repro.rma",
     ("rput", "rput_bulk", "rget", "rget_into", "rget_bulk", "copy",
      "rput_strided", "rget_strided", "rput_indexed", "rget_indexed"),
     SPAN, None),
    ("atomics", "repro.atomics.domain", ("AtomicDomain.*",), SPAN, None),
    ("rpc", "repro.rpc.rpc", ("rpc", "rpc_ff"), SPAN, None),
    ("core.cell", "repro.core.cell",
     ("alloc_cell", "ready_cell", "ready_unit_cell", "PromiseCell.*"),
     CALL, None),
    ("core.when_all", "repro.core.when_all", ("when_all",), CALL,
     _returned_an_input),
    ("core.completions", "repro.core.completions",
     ("CxDispatcher.__init__", "CxDispatcher.*", "PendingEvent.complete",
      "CxCounter.signal", "CxCounter.add_callback", "_CxFactory.*"),
     CALL, None),
    ("core.completions", "repro.core.completions",
     ("CxCounter.wait", "CxCounter.wait_gen"), SPAN, None),
    ("core.future", "repro.core.future",
     ("make_future", "to_future", "Future.is_ready", "Future.result",
      "Future.result_tuple", "Future.then"), CALL, None),
    ("core.future", "repro.core.future",
     ("Future.wait", "Future.wait_gen"), SPAN, None),
    ("runtime.progress", "repro.runtime.progress",
     ("ProgressEngine.progress",), SPAN, _is_true),
    ("runtime.progress", "repro.runtime.progress",
     ("ProgressEngine.enqueue_deferred", "ProgressEngine.enqueue_lpc",
      "ProgressEngine.has_pending"), CALL, None),
    ("runtime.scheduler", "repro.runtime.scheduler",
     ("CooperativeScheduler.start", "CooperativeScheduler.wait_for_token",
      "CooperativeScheduler.yield_now", "CooperativeScheduler.block_until",
      "CooperativeScheduler.finish"), SPAN, None),
    ("runtime.scheduler", "repro.runtime.event_loop",
     ("EventLoopScheduler.yield_now", "EventLoopScheduler.block_until"),
     SPAN, None),
    ("gasnet.conduit", "repro.gasnet.conduit",
     ("Conduit.send_am", "Conduit.send_bundle"), SPAN, None),
    ("gasnet.conduit", "repro.gasnet.conduit", ("Conduit.poll",), SPAN,
     _is_true),
    ("gasnet.conduit", "repro.gasnet.conduit",
     ("Conduit.has_incoming", "Conduit.pending_for",
      "Conduit.pshm_reachable", "Conduit.am_latency_ns"), CALL, None),
    ("gasnet.aggregator", "repro.gasnet.aggregator",
     ("AmAggregator.append", "AmAggregator.flush", "AmAggregator.flush_all",
      "AmAggregator.flush_aged", "AmAggregator.flush_for_wait"), SPAN, None),
    ("gasnet.aggregator", "repro.gasnet.aggregator",
     ("AmAggregator.has_pending", "AmAggregator.pending_entries",
      "AmAggregator.thresholds_for"), CALL, None),
    ("obs.percentiles", "repro.obs.percentiles",
     ("PercentileSketch.*", "PercentileSnapshot.quantile",
      "PercentileSnapshot.percentiles", "merge_percentiles"), CALL, None),
    ("serve.driver", "repro.serve.driver",
     ("ServeRankObs.record", "ServeRankObs.snapshot",
      "merge_serve_snapshots"), CALL, None),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))

#: CostAction totals reported per op (deterministic for a seed); a host
#: time that moves while these stay put is interpreter work, not model work
ACTIONS = (
    "HEAP_ALLOC_PROMISE_CELL", "PROGRESS_QUEUE_ENQUEUE", "PROGRESS_DISPATCH",
    "PROGRESS_POLL", "WHEN_ALL_NODE_BUILD", "FUTURE_READY_CHECK",
    "AM_INJECT", "AM_BUNDLE_HEADER", "AM_AGG_APPEND",
)

_WAITS = ("Future.wait", "Future.wait_gen")


def metric_units() -> dict:
    """Every per-layer metric name -> (unit, better)."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls_per_op"] = ("calls/op", "lower")
        out[f"{layer}.self_s_per_op"] = ("s/op", "lower")
    out.update({
        "core.future.wait_s_per_op": ("s/op", "lower"),
        "core.when_all.shortcut_frac": ("ratio", "higher"),
        "runtime.progress.productive_frac": ("ratio", "higher"),
        "gasnet.conduit.productive_poll_frac": ("ratio", "higher"),
        "gasnet.aggregator.entries_per_bundle": ("entries/bundle", "higher"),
        "runtime.scheduler.switches_per_op": ("switches/op", "lower"),
        "runtime.scheduler.self_s_per_switch": ("s/switch", "lower"),
        "apps.residual_s_per_op": ("s/op", "lower"),
        "trace.bookkeeping_s_per_op": ("s/op", "lower"),
        "trace.overhead_ratio": ("ratio", "lower"),
    })
    for a in ACTIONS:
        out[f"actions.{a}_per_op"] = ("count/op", "lower")
    return out


def _frac(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, layer_of: dict, counts: dict, switches: int,
                  ops: int, overhead_ratio: float) -> dict:
    """Per-op layer metrics over every traced job.

    ``layer_of`` maps each wrapped function name to its layer,
    ``counts`` holds the summed CostAction totals, ``switches`` the summed
    ``World.sched_switches`` and ``ops`` the summed ops of those jobs.
    """
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for name, layer in layer_of.items():
        calls[layer] += tracer.calls.get(name, 0)
        self_s[layer] += tracer.self_s.get(name, 0.0)
    for name, (n, secs) in tracer.leaf.items():
        calls[layer_of[name]] += n
        self_s[layer_of[name]] += secs

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls_per_op"] = calls[layer] / ops
        m[f"{layer}.self_s_per_op"] = self_s[layer] / ops
    c, h = tracer.calls, tracer.hits
    m["core.future.wait_s_per_op"] = (
        sum(tracer.incl_s.get(n, 0.0) for n in _WAITS) / ops
    )
    m["core.when_all.shortcut_frac"] = _frac(
        h.get("when_all", 0), c.get("when_all", 0)
    )
    m["runtime.progress.productive_frac"] = _frac(
        h.get("ProgressEngine.progress", 0), c.get("ProgressEngine.progress", 0)
    )
    m["gasnet.conduit.productive_poll_frac"] = _frac(
        h.get("Conduit.poll", 0), c.get("Conduit.poll", 0)
    )
    m["gasnet.aggregator.entries_per_bundle"] = _frac(
        counts["AM_AGG_APPEND"], counts["AM_BUNDLE_HEADER"]
    )
    m["runtime.scheduler.switches_per_op"] = switches / ops
    # the handoff lands in the resuming rank's wait_for_token frame
    m["runtime.scheduler.self_s_per_switch"] = _frac(
        tracer.self_s.get("CooperativeScheduler.wait_for_token", 0.0),
        switches,
    )
    m["apps.residual_s_per_op"] = (
        tracer.self_s.get(APPS, 0.0) + tracer.self_s.get(JOB, 0.0)
    ) / ops
    m["trace.bookkeeping_s_per_op"] = tracer.self_s.get(TRACE, 0.0) / ops
    m["trace.overhead_ratio"] = overhead_ratio
    for a in ACTIONS:
        m[f"actions.{a}_per_op"] = counts[a] / ops
    return m
