"""Wait-aware completion targeting (``FeatureFlags.wait_hints``).

Functional coverage of the hinted-wait plumbing end to end:

* the wait-target stack on :class:`~repro.runtime.context.RankContext`
  and the :class:`~repro.runtime.wait_hints.WaitTarget` semantics;
* targeted drains from real ``Future.wait()`` / promise waits (the
  engine-level removal invariants live in ``test_prop_progress.py``);
* the aggregator's targeted flush composition — awaited destination and
  near-full ride-alongs — and its stats plumbing;
* observability: ``t_hinted`` stamps, wait counters, stall histogram,
  report rows;
* flag gating: validation, and bit-identity with the flag off;
* the two ``Future`` regressions riding along in this change: the
  ready+eager ``then()`` fast path must not charge a callback-schedule,
  and a second ``wait()`` on a ready future must re-charge nothing but
  the ready check.
"""

import numpy as np
import pytest

from repro import (
    AtomicDomain,
    barrier,
    current_ctx,
    make_future,
    new_array,
    operation_cx,
    rank_me,
    rank_n,
)
from repro.core.cell import alloc_cell
from repro.core.future import Future
from repro.core.promise import Promise
from repro.bench.report import (
    format_aggregation_report,
    format_progress_report,
)
from repro.errors import UpcxxError
from repro.memory.global_ptr import GlobalPtr
from repro.runtime.config import flags_for
from repro.runtime.runtime import spmd_run
from repro.runtime.wait_hints import WaitTarget
from repro.sim.costmodel import CostAction
from repro.sim.stats import (
    aggregation_stats,
    observability_snapshots,
    observability_stats,
    progress_snapshots,
    progress_stats,
)
from tests.conftest import (
    VD,
    VE,
    agg_world,
    progress_adaptive_flags,
    send_agg_am,
)


def hinted_flags(**kw):
    return progress_adaptive_flags(wait_hints=True, **kw)


# ---------------------------------------------------------------------------
# WaitTarget and the context stack
# ---------------------------------------------------------------------------


class TestWaitTarget:
    def test_targeted_property(self):
        assert not WaitTarget().targeted
        assert not WaitTarget(op="barrier").targeted
        assert WaitTarget(cell=object()).targeted
        assert WaitTarget(dst_rank=3).targeted

    def test_context_stack_nests(self, versioned_ctx):
        ctx = versioned_ctx(VD, flags=hinted_flags())
        assert ctx.active_wait_target is None
        outer = WaitTarget(cell=object())
        inner = WaitTarget(cell=object())
        ctx.push_wait_target(outer)
        assert ctx.active_wait_target is outer
        ctx.push_wait_target(inner)
        assert ctx.active_wait_target is inner
        ctx.pop_wait_target()
        assert ctx.active_wait_target is outer
        ctx.pop_wait_target()
        assert ctx.active_wait_target is None

    def test_flag_mirrored_on_context(self, versioned_ctx):
        assert versioned_ctx(VD, flags=hinted_flags()).wait_hints
        assert not versioned_ctx(VD).wait_hints


class TestFlagValidation:
    @pytest.mark.parametrize("bad", (0.0, -0.5, 1.5))
    def test_fill_frac_range_enforced(self, bad):
        with pytest.raises(UpcxxError):
            flags_for(VD).replace(wait_flush_fill_frac=bad)

    def test_defaults_off(self):
        flags = flags_for(VD)
        assert not flags.wait_hints
        assert 0.0 < flags.wait_flush_fill_frac <= 1.0


# ---------------------------------------------------------------------------
# hinted waits in a real world
# ---------------------------------------------------------------------------


def _hinted_body(probes=12):
    """Future-tracked atomics waited in reverse issue order, then one
    promise-tracked batch — both targeting shapes in one body."""
    ctx = current_ctx()
    me, p = rank_me(), rank_n()
    per = 64
    mine = new_array("u64", per)
    view = ctx.segment.view_array(mine.offset, mine.ts, per)
    view[:] = 0
    bases = [GlobalPtr(r, mine.offset, mine.ts) for r in range(p)]
    ad = AtomicDomain({"bit_xor"}, "u64")
    barrier()
    futs = [
        ad.bit_xor(bases[(me + i) % p] + (i % per), i + 1)
        for i in range(probes)
    ]
    for f in reversed(futs):
        f.wait()
    prom = Promise()
    for i in range(probes):
        ad.bit_xor(
            bases[(me + i) % p] + (i % per), i + 1,
            operation_cx.as_promise(prom),
        )
    prom.finalize().wait()
    barrier()
    return int(np.bitwise_xor.reduce(view))


def _run_hinted(flags, ranks=4):
    return spmd_run(
        _hinted_body, ranks=ranks, version=VD, machine="generic", flags=flags
    )


class TestHintedWaits:
    def test_targeted_drains_fire_and_results_hold(self):
        res = _run_hinted(hinted_flags(obs_spans=True))
        w = res.world
        # promise-batch updates cancel the future-tracked ones exactly
        assert all(v == 0 for v in res.values)
        assert w.total_count(CostAction.PROGRESS_HINT_SCAN) > 0
        stats = progress_stats(w)
        assert stats.hinted_scans > 0
        assert stats.hinted_dispatched > 0

    def test_promise_wait_targets_the_whole_batch(self):
        """Every fulfilment thunk of a promise batch shares the promise's
        cell, so one targeted drain retires the batch *past* the cap."""
        res = _run_hinted(hinted_flags(progress_max_batch=4), ranks=4)
        cap = 4
        snaps = progress_snapshots(res.world)
        assert any(s.hinted_dispatched > cap for s in snaps)

    def test_obs_spans_and_counters(self):
        res = _run_hinted(hinted_flags(obs_spans=True))
        snaps = observability_snapshots(res.world)
        hinted_spans = [
            s for snap in snaps for s in snap.spans if s.t_hinted is not None
        ]
        assert hinted_spans
        for span in hinted_spans:
            assert span.t_hinted >= span.t_init
        obs = observability_stats(res.world)
        assert obs.metrics.counters["wait.hints"] > 0
        assert obs.metrics.histograms["wait.stall_ns"].n > 0

    def test_waited_gap_rollup_populated(self):
        res = _run_hinted(hinted_flags(obs_spans=True))
        obs = observability_stats(res.world)
        key = ("defer", "pshm")
        assert key in obs.waited_gaps
        assert obs.waited_gaps[key].count > 0

    def test_report_rows_render(self):
        res = _run_hinted(hinted_flags(obs_spans=True))
        prog = format_progress_report("p", progress_stats(res.world))
        assert "hinted scans" in prog
        assert "hinted dispatches" in prog
        agg = format_aggregation_report("a", aggregation_stats(res.world))
        assert "wait-hint flushes" in agg

    def test_flag_off_bit_identical(self):
        """With ``wait_hints`` off, the wait knob is dead: clocks and
        counters are unchanged whatever it holds."""
        a = _run_hinted(progress_adaptive_flags())
        b = _run_hinted(
            progress_adaptive_flags(wait_flush_fill_frac=0.9)
        )
        assert [c.clock.now_ns for c in a.world.contexts] == [
            c.clock.now_ns for c in b.world.contexts
        ]
        assert a.world.total_count(CostAction.PROGRESS_POLL) == \
            b.world.total_count(CostAction.PROGRESS_POLL)
        assert a.world.total_count(CostAction.PROGRESS_HINT_SCAN) == 0
        assert b.world.total_count(CostAction.PROGRESS_HINT_SCAN) == 0

    def test_hinted_vs_adaptive_same_results(self):
        """The hint reorders dispatch, never outcomes."""
        a = _run_hinted(progress_adaptive_flags())
        b = _run_hinted(hinted_flags())
        assert a.values == b.values


# ---------------------------------------------------------------------------
# the aggregator's targeted flush composition
# ---------------------------------------------------------------------------


def _wait_world(**kw):
    """6 ranks / 2 nodes: rank 0 has off-node destinations 3, 4, 5."""
    defaults = dict(ranks=6, wait_hints=True, wait_flush_fill_frac=0.5)
    defaults.update(kw)
    return agg_world(**defaults)


class TestFlushForWait:
    def test_awaited_destination_flushes_immediately(self):
        w = _wait_world()
        agg = w.contexts[0].am_agg
        send_agg_am(w, 0, 3)
        send_agg_am(w, 0, 3)
        assert agg.pending_entries(3) == 2
        shipped = agg.flush_for_wait(3)
        assert shipped == 2
        assert agg.pending_entries(3) == 0
        assert agg.flush_reasons["wait_hint"] == 1
        assert agg.wait_flushes == 1

    def test_near_full_rides_along_sparse_stays(self):
        """static thresholds (8 entries): fill_frac 0.5 -> a 5-entry
        buffer rides the targeted flush, a 1-entry buffer keeps batching."""
        w = _wait_world()
        agg = w.contexts[0].am_agg
        send_agg_am(w, 0, 3)  # the awaited destination
        for _ in range(5):
            send_agg_am(w, 0, 4)  # near full: 5/8 >= 0.5
        send_agg_am(w, 0, 5)  # sparse: 1/8 < 0.5
        agg.flush_for_wait(3)
        assert agg.pending_entries(3) == 0
        assert agg.pending_entries(4) == 0
        assert agg.pending_entries(5) == 1
        assert agg.flush_reasons["wait_hint"] == 1
        assert agg.flush_reasons["near_full"] == 1

    def test_wait_flush_without_destination_hint(self):
        """A local-op wait carries no destination: only ride-alongs
        ship."""
        w = _wait_world()
        agg = w.contexts[0].am_agg
        for _ in range(5):
            send_agg_am(w, 0, 4)
        send_agg_am(w, 0, 5)
        agg.flush_for_wait(None)
        assert agg.pending_entries(4) == 0
        assert agg.pending_entries(5) == 1
        assert "wait_hint" not in agg.flush_reasons

    def test_snapshot_carries_wait_flushes(self):
        w = _wait_world()
        agg = w.contexts[0].am_agg
        send_agg_am(w, 0, 3)
        agg.flush_for_wait(3)
        assert agg.stats().wait_flushes == 1
        assert aggregation_stats(w).wait_flushes == 1


# ---------------------------------------------------------------------------
# the Future regressions riding along
# ---------------------------------------------------------------------------


class TestThenFastPath:
    def test_ready_eager_then_charges_no_schedule(self, versioned_ctx):
        ctx = versioned_ctx(VE)
        fut = make_future(5)
        ran = []
        before = ctx.costs.count(CostAction.FUTURE_CALLBACK_SCHEDULE)
        out = fut.then(lambda v: ran.append(v))
        assert ran == [5]
        assert out.is_ready()
        assert ctx.costs.count(CostAction.FUTURE_CALLBACK_SCHEDULE) == before

    def test_ready_defer_then_keeps_legacy_charge(self, versioned_ctx):
        """Deferred builds model the release's unconditional scheduling
        bookkeeping even for ready sources — unchanged by the fast path."""
        ctx = versioned_ctx(VD)
        fut = make_future(5)
        before = ctx.costs.count(CostAction.FUTURE_CALLBACK_SCHEDULE)
        fut.then(lambda v: v)
        assert (
            ctx.costs.count(CostAction.FUTURE_CALLBACK_SCHEDULE) == before + 1
        )

    def test_pending_eager_then_still_charges(self, versioned_ctx):
        ctx = versioned_ctx(VE)
        cell = alloc_cell(ctx, nvalues=1, deps=1)
        fut = Future(cell)
        before = ctx.costs.count(CostAction.FUTURE_CALLBACK_SCHEDULE)
        fut.then(lambda v: v)
        assert (
            ctx.costs.count(CostAction.FUTURE_CALLBACK_SCHEDULE) == before + 1
        )


class TestDoubleWait:
    @pytest.mark.parametrize("hints", (False, True))
    def test_second_wait_charges_only_the_ready_check(
        self, versioned_ctx, hints
    ):
        ctx = versioned_ctx(
            VD, flags=hinted_flags() if hints else progress_adaptive_flags()
        )
        fut = make_future(7)
        assert fut.wait() == 7
        snap = ctx.costs.snapshot()
        assert fut.wait() == 7
        delta = ctx.costs.snapshot() - snap
        assert delta == {CostAction.FUTURE_READY_CHECK: 1}

    def test_second_wait_never_reenters_the_hinted_spin(self, versioned_ctx):
        ctx = versioned_ctx(VD, flags=hinted_flags())
        fut = make_future()
        fut.wait()
        before = ctx.costs.count(CostAction.PROGRESS_HINT_SCAN)
        fut.wait()
        assert ctx.costs.count(CostAction.PROGRESS_HINT_SCAN) == before
        assert ctx.costs.count(CostAction.PROGRESS_HINT_SCAN) == 0
