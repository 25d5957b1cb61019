"""The adaptive progress controller: control law, engine integration,
latency guarantee, wiring, stats rollup, and the GUPS variant.

The controller (``repro.runtime.adaptive_progress``) must:

* validate its knobs at ``FeatureFlags`` construction (floor/ceiling
  consistency only once ``progress_adaptive`` binds the range);
* converge the drain cap toward observed queue depth and the poll
  interval toward the observed empty-poll rate (EWMA control law);
* keep the engine dispatching FIFO under the cap, with aged entries
  exempt (the ``progress_max_age_ticks`` latency guarantee), and retire
  aged entries at enqueue-time engine activity;
* elide provably-empty polls as cheap ``PROGRESS_POLL_SKIP`` charges;
* be inert with the flag off — no controller, no new charges, static
  drain-until-quiescent behaviour bit-identical to the seed;
* roll up per-rank snapshots through ``sim.stats`` and render via
  ``bench/report``, and carry the trade on the ``prog_adaptive`` GUPS
  variant (lower mean notification gap than static defer without more
  ``PROGRESS_POLL`` charge).
"""

import pytest

from repro.apps.gups import GupsConfig, run_gups
from repro.bench.report import format_progress_report
from repro.errors import UpcxxError
from repro.runtime.adaptive_progress import (
    TRAJECTORY_CAP,
    AdaptiveProgressController,
    ProgressDecision,
)
from repro.runtime.config import flags_for
from repro.runtime.runtime import spmd_run
from repro.sim.costmodel import CostAction
from repro.sim.stats import ProgressStats, progress_snapshots, progress_stats
from tests.conftest import VD, VE, obs_flags, progress_adaptive_flags


# ---------------------------------------------------------------------------
# flag validation
# ---------------------------------------------------------------------------


class TestFlagValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(progress_min_batch=0),
            dict(progress_max_batch=0),
            dict(progress_max_poll_interval=0),
            dict(progress_max_poll_interval=-1),
            dict(progress_max_age_ticks=0.0),
            dict(progress_max_age_ticks=-5.0),
        ],
    )
    def test_bad_knobs_rejected_at_construction(self, bad):
        with pytest.raises(UpcxxError):
            flags_for(VD).replace(**bad)

    def test_floor_above_ceiling_rejected_only_when_adaptive(self):
        # a static config may carry any floor/ceiling combination ...
        flags_for(VD).replace(progress_min_batch=64, progress_max_batch=8)
        # ... but flipping the flag on re-validates the range
        with pytest.raises(UpcxxError, match="progress_min_batch"):
            flags_for(VD).replace(
                progress_adaptive=True,
                progress_min_batch=64,
                progress_max_batch=8,
            )

    def test_defaults_valid_for_every_build(self):
        for v in (VD, VE):
            assert flags_for(v).replace(progress_adaptive=True)


# ---------------------------------------------------------------------------
# controller unit behaviour
# ---------------------------------------------------------------------------


def make_controller(**kw):
    return AdaptiveProgressController(progress_adaptive_flags(**kw))


class TestControlLaw:
    def test_initial_outputs_are_static_like(self):
        ctl = make_controller()
        assert ctl.drain_cap == ctl.ceil_batch
        assert ctl.poll_interval == 1

    def test_depth_ewma_sizes_the_cap(self):
        ctl = make_controller(progress_min_batch=2, progress_max_batch=64)
        # deep queues drive the cap up (2x slack over the EWMA depth)
        for _ in range(20):
            cap = ctl.on_poll(depth=10)
            ctl.on_drained(0.0, cap, 0, True)
        assert ctl.drain_cap == 21  # 1 + 2 * 10
        # an idle stream drives it back to the floor
        for _ in range(40):
            cap = ctl.on_poll(depth=0)
            ctl.on_drained(0.0, 0, 0, False)
        assert ctl.drain_cap == ctl.floor_batch

    def test_cap_clamps_to_ceiling(self):
        ctl = make_controller(progress_max_batch=8)
        assert ctl.on_poll(depth=1000) == 8

    def test_busy_stream_keeps_interval_one(self):
        ctl = make_controller()
        for _ in range(30):
            ctl.on_poll(depth=3)
            ctl.on_drained(0.0, 3, 0, True)
        assert ctl.poll_interval == 1
        assert not ctl.may_skip()

    def test_idle_stream_grows_interval_to_ceiling(self):
        ctl = make_controller(progress_max_poll_interval=16)
        for _ in range(60):
            ctl.on_poll(depth=0)
            ctl.on_drained(0.0, 0, 0, False)
        assert ctl.poll_interval == 16

    def test_skip_cadence_forces_periodic_full_poll(self):
        ctl = make_controller()
        # drive the interval to 4 exactly: yield EWMA of 1/4
        while ctl.poll_interval < 4:
            ctl.on_poll(depth=0)
            ctl.on_drained(0.0, 0, 0, False)
        interval = ctl.poll_interval
        skips = 0
        while ctl.may_skip():
            ctl.on_skip()
            skips += 1
        assert skips == interval - 1
        # a full poll resets the budget
        ctl.on_poll(depth=0)
        assert ctl.may_skip() == (ctl.poll_interval > 1)

    def test_trajectory_records_changes_only(self):
        ctl = make_controller()
        for _ in range(50):
            ctl.on_poll(depth=5)
            ctl.on_drained(0.0, 5, 0, True)
        decisions = list(ctl.trajectory)
        assert decisions
        for a, b in zip(decisions, decisions[1:]):
            assert (a.drain_cap, a.poll_interval) != (
                b.drain_cap, b.poll_interval
            )
        assert all(isinstance(d, ProgressDecision) for d in decisions)
        assert len(decisions) <= TRAJECTORY_CAP

    def test_snapshot_carries_counters(self):
        ctl = make_controller()
        ctl.on_poll(depth=4)
        ctl.on_drained(10.0, 4, 2, True)
        ctl.on_skip()
        ctl.on_aged_drain(3)
        snap = ctl.snapshot(rank=7)
        assert snap.rank == 7
        assert snap.full_polls == 1
        assert snap.skipped_polls == 1
        assert snap.dispatched == 7  # 4 drained + 3 aged
        assert snap.capped_polls == 1
        assert snap.aged_drains == 1
        assert snap.aged_dispatched == 3
        assert snap.trajectory
        assert 0.0 < snap.elision_ratio < 1.0

    def test_elision_ratio_zero_before_any_call(self):
        assert make_controller().snapshot(rank=0).elision_ratio == 0.0


# ---------------------------------------------------------------------------
# engine integration (single-rank world with the controller wired)
# ---------------------------------------------------------------------------


@pytest.fixture
def actx(versioned_ctx):
    """A single-rank context with tight adaptive-progress knobs."""
    return versioned_ctx(VD, flags=progress_adaptive_flags())


class TestEngineIntegration:
    def test_capped_fifo_drain(self, actx):
        order = []
        eng = actx.progress_engine
        for i in range(20):
            eng.enqueue_deferred(lambda i=i: order.append(i))
        per_call = []
        while eng.has_pending():
            before = actx.costs.count(CostAction.PROGRESS_DISPATCH)
            assert actx.progress()
            per_call.append(
                actx.costs.count(CostAction.PROGRESS_DISPATCH) - before
            )
        assert order == list(range(20))
        assert sum(per_call) == 20
        assert len(per_call) > 1  # the cap actually split the backlog
        assert all(n <= 8 for n in per_call)  # progress_max_batch

    def test_capped_poll_still_reports_work_pending(self, actx):
        eng = actx.progress_engine
        for i in range(20):
            eng.enqueue_deferred(lambda: None)
        assert actx.progress()  # capped: leftovers remain
        assert eng.has_pending()
        assert actx.has_incoming()  # wait loops keep re-entering

    def test_aged_entries_bypass_the_cap(self, actx):
        eng = actx.progress_engine
        for i in range(20):
            eng.enqueue_deferred(lambda: None)
        actx.clock.advance(10_000.0)  # every entry far past the age bound
        assert actx.progress()
        assert not eng.has_pending()  # one poll drained all 20

    def test_enqueue_time_aged_mini_drain(self, actx):
        eng = actx.progress_engine
        fired = []
        eng.enqueue_deferred(lambda: fired.append("old"))
        actx.clock.advance(10_000.0)
        polls_before = actx.costs.count(CostAction.PROGRESS_POLL)
        eng.enqueue_deferred(lambda: fired.append("new"))
        assert fired == ["old"]  # retired by the enqueue, not a poll
        assert eng.pending_deferred() == 1
        assert actx.costs.count(CostAction.PROGRESS_POLL) == polls_before + 1
        ctl = actx.progress_ctl
        assert ctl.aged_drains == 1 and ctl.aged_dispatched == 1

    def test_enqueue_lpc_also_retires_aged_entries(self, actx):
        eng = actx.progress_engine
        fired = []
        eng.enqueue_deferred(lambda: fired.append("old"))
        actx.clock.advance(10_000.0)
        eng.enqueue_lpc(lambda: fired.append("lpc"))
        assert fired == ["old"]

    def test_age_invariant_across_engine_activity(self, actx):
        """Immediately after any enqueue or progress call, nothing queued
        is older than the bound (the externally checkable latency
        guarantee; between activities entries age passively — the
        guarantee is that the next engine touch retires them)."""
        eng = actx.progress_engine

        def age_ok():
            age = eng.oldest_pending_age_ns()
            return age is None or age < actx.flags.progress_max_age_ticks

        for step in range(50):
            eng.enqueue_deferred(lambda: None)
            assert age_ok()
            actx.clock.advance(300.0 * (step % 5))
            if step % 7 == 0:
                actx.progress()
                assert age_ok()

    def test_empty_polls_become_cheap_skips(self, actx):
        for _ in range(40):
            actx.progress()
        skips = actx.costs.count(CostAction.PROGRESS_POLL_SKIP)
        polls = actx.costs.count(CostAction.PROGRESS_POLL)
        assert skips > 0
        assert polls + skips == 40
        assert polls < 40

    def test_skip_returns_false_and_dispatches_nothing(self, actx):
        # drive the interval up so skips are allowed, then verify a skip
        for _ in range(30):
            actx.progress()
        assert actx.progress_ctl.may_skip()
        before = actx.costs.count(CostAction.PROGRESS_DISPATCH)
        assert actx.progress() is False
        assert actx.costs.count(CostAction.PROGRESS_DISPATCH) == before

    def test_pending_work_forbids_skipping(self, actx):
        for _ in range(30):
            actx.progress()  # grow the interval
        fired = []
        actx.progress_engine.enqueue_deferred(lambda: fired.append(1))
        assert actx.progress()  # must be a full poll despite the cadence
        assert fired == [1]

    def test_adapt_charged_once_per_full_poll(self, actx):
        for _ in range(25):
            actx.progress()
        assert actx.costs.count(CostAction.PROGRESS_ADAPT) == actx.costs.count(
            CostAction.PROGRESS_POLL
        )

    def test_reentrant_progress_still_noop(self, actx):
        seen = []
        actx.progress_engine.enqueue_deferred(
            lambda: seen.append(actx.progress())
        )
        assert actx.progress()
        assert seen == [False]


class TestFlagOffInertness:
    def test_no_controller_and_no_new_charges(self, versioned_ctx):
        ctx = versioned_ctx(VD)
        assert ctx.progress_ctl is None
        for _ in range(10):
            ctx.progress()
        ctx.progress_engine.enqueue_deferred(lambda: None)
        ctx.progress()
        assert ctx.costs.count(CostAction.PROGRESS_ADAPT) == 0
        assert ctx.costs.count(CostAction.PROGRESS_POLL_SKIP) == 0
        assert ctx.costs.count(CostAction.PROGRESS_POLL) == 11

    def test_gups_figures_unchanged_by_knob_values(self):
        """With the flag off the knob values are dead config: any pair of
        off-flag configurations produces bit-identical figures."""
        cfg = GupsConfig(variant="rma_promise", table_log2=8,
                         updates_per_rank=32, batch=8)
        base = run_gups(cfg, ranks=4, version=VD, machine="generic")
        tweaked = run_gups(
            cfg, ranks=4, version=VD, machine="generic",
            flags=flags_for(VD).replace(
                progress_min_batch=1, progress_max_batch=3,
                progress_max_age_ticks=1.0,
            ),
        )
        assert base.solve_ns == tweaked.solve_ns
        assert base.checksum == tweaked.checksum
        assert base.progress_polls == tweaked.progress_polls
        assert base.progress_poll_skips == 0
        assert base.prog_stats is None


# ---------------------------------------------------------------------------
# wiring, stats rollup, report rendering
# ---------------------------------------------------------------------------


def _poll_a_lot():
    from repro import barrier, current_ctx

    ctx = current_ctx()
    for _ in range(50):
        ctx.progress()
    barrier()
    return ctx.progress_ctl is not None


class TestWiringAndStats:
    def test_every_rank_gets_a_controller(self):
        res = spmd_run(
            _poll_a_lot, ranks=4, version=VD,
            flags=progress_adaptive_flags(),
        )
        assert all(res.values)
        snaps = progress_snapshots(res.world)
        assert len(snaps) == 4
        assert {s.rank for s in snaps} == {0, 1, 2, 3}

    def test_stats_rollup_sums_ranks(self):
        res = spmd_run(
            _poll_a_lot, ranks=4, version=VD,
            flags=progress_adaptive_flags(),
        )
        snaps = progress_snapshots(res.world)
        stats = progress_stats(res.world)
        assert isinstance(stats, ProgressStats)
        assert stats.ranks == 4
        assert stats.full_polls == sum(s.full_polls for s in snaps)
        assert stats.skipped_polls == sum(s.skipped_polls for s in snaps)
        assert stats.skipped_polls > 0
        assert 0.0 < stats.elision_ratio < 1.0

    def test_stats_none_when_off(self):
        res = spmd_run(_poll_a_lot, ranks=2, version=VD)
        assert progress_snapshots(res.world) == []
        assert progress_stats(res.world) is None
        assert not any(res.values)

    def test_report_renders(self):
        res = spmd_run(
            _poll_a_lot, ranks=2, version=VD,
            flags=progress_adaptive_flags(),
        )
        text = format_progress_report("progress", progress_stats(res.world))
        assert "full polls" in text
        assert "skipped polls" in text
        assert "elision ratio" in text
        assert "aged mini-drains" in text


# ---------------------------------------------------------------------------
# the GUPS variant: the latency/overhead trade end to end
# ---------------------------------------------------------------------------


class TestGupsVariant:
    def _run(self, flags):
        cfg = GupsConfig(variant="prog_adaptive", table_log2=10,
                         updates_per_rank=96, batch=32)
        return run_gups(cfg, ranks=4, version=VD, machine="intel",
                        flags=flags)

    def test_exact_under_static_and_adaptive(self):
        static = self._run(obs_flags(VD))
        adaptive = self._run(
            progress_adaptive_flags(obs_spans=True,
                                    progress_max_age_ticks=4000.0)
        )
        assert static.matches_oracle
        assert adaptive.matches_oracle

    def test_adaptive_cuts_gap_without_more_poll_charge(self):
        static = self._run(obs_flags(VD))
        adaptive = self._run(
            progress_adaptive_flags(obs_spans=True,
                                    progress_max_age_ticks=4000.0)
        )
        key = ("defer", "pshm")
        gap_static = static.obs_stats.gaps[key].hist.mean
        gap_adaptive = adaptive.obs_stats.gaps[key].hist.mean
        assert gap_adaptive < gap_static
        assert adaptive.progress_polls <= static.progress_polls
        assert adaptive.progress_poll_skips > 0
        assert adaptive.prog_stats.aged_dispatched > 0
