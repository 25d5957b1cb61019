"""Tests for the execution tracer."""

import pytest

from repro import new_, rput
from repro.runtime.config import RuntimeConfig, Version
from repro.runtime.runtime import build_world
from repro.sim.costmodel import CostAction
from repro.sim.trace import Tracer


class TestRecording:
    def test_attach_records(self, ctx):
        tr = Tracer()
        tr.attach(ctx)
        ctx.charge(CostAction.CPU_LOAD)
        tr.detach(ctx)
        ctx.charge(CostAction.CPU_LOAD)
        assert len(tr) == 1
        assert tr.events[0].action is CostAction.CPU_LOAD

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_attach_after_construction_records_every_charge(self, noise):
        c = build_world(RuntimeConfig(noise=noise)).contexts[0]
        tr = Tracer()
        tr.attach(c)
        c.charge(CostAction.CPU_LOAD, times=3)
        c.charge_bytes(CostAction.MEMCPY_PER_BYTE, 64)
        c.costs.charge(CostAction.CPU_STORE)
        t_last = c.clock.now_ns
        tr.detach(c)
        c.charge(CostAction.CPU_LOAD)
        c.charge_bytes(CostAction.MEMCPY_PER_BYTE, 8)
        assert [(e.action, e.times) for e in tr.events] == [
            (CostAction.CPU_LOAD, 3),
            (CostAction.MEMCPY_PER_BYTE, 1),
            (CostAction.CPU_STORE, 1),
        ]
        assert tr.events[-1].t_ns == t_last

    def test_timestamps_monotone(self, ctx):
        tr = Tracer()
        tr.attach(ctx)
        for _ in range(5):
            ctx.charge(CostAction.PROGRESS_DISPATCH)
        ts = [e.t_ns for e in tr.events]
        assert ts == sorted(ts)

    def test_counts_aggregate_times(self, ctx):
        tr = Tracer()
        tr.attach(ctx)
        ctx.charge(CostAction.CPU_LOAD, times=4)
        assert tr.counts()[CostAction.CPU_LOAD] == 4

    def test_capacity_drops(self, ctx):
        tr = Tracer(capacity=2)
        tr.attach(ctx)
        for _ in range(5):
            ctx.charge(CostAction.CPU_LOAD)
        assert len(tr) == 2
        assert tr.dropped == 3

    def test_filter_by_action_and_rank(self, ctx):
        tr = Tracer()
        tr.attach(ctx)
        ctx.charge(CostAction.CPU_LOAD)
        ctx.charge(CostAction.CPU_STORE)
        assert len(tr.filter(action=CostAction.CPU_LOAD)) == 1
        assert len(tr.filter(rank=ctx.rank)) == 2
        assert tr.filter(rank=ctx.rank + 1) == []

    def test_first_last(self, ctx):
        tr = Tracer()
        tr.attach(ctx)
        ctx.charge(CostAction.CPU_LOAD)
        ctx.clock.advance(100)
        ctx.charge(CostAction.CPU_LOAD)
        assert tr.first(CostAction.CPU_LOAD).t_ns < tr.last(
            CostAction.CPU_LOAD
        ).t_ns
        assert tr.first(CostAction.BARRIER) is None


class TestOrderingClaims:
    def test_defer_dispatch_happens_after_enqueue(self, versioned_ctx):
        """The deferred path's temporal shape: enqueue at initiation,
        dispatch strictly later (inside wait's progress)."""
        c = versioned_ctx(Version.V2021_3_6_DEFER)
        tr = Tracer()
        tr.attach(c)
        g = new_("u64")
        rput(1, g).wait()
        enq = tr.first(CostAction.PROGRESS_QUEUE_ENQUEUE)
        disp = tr.first(CostAction.PROGRESS_DISPATCH)
        assert enq is not None and disp is not None
        assert enq.t_ns < disp.t_ns

    def test_eager_has_no_dispatch_at_all(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_6_EAGER)
        tr = Tracer()
        tr.attach(c)
        g = new_("u64")
        rput(1, g).wait()
        assert tr.first(CostAction.PROGRESS_DISPATCH) is None
        assert tr.first(CostAction.MEMCPY_8B) is not None


class TestRendering:
    def test_timeline_format(self, ctx):
        tr = Tracer()
        tr.attach(ctx)
        ctx.charge(CostAction.CPU_LOAD, times=2)
        text = tr.format_timeline()
        assert "cpu_load x2" in text
        assert "rank" in text

    def test_timeline_truncation(self, ctx):
        tr = Tracer()
        tr.attach(ctx)
        for _ in range(60):
            ctx.charge(CostAction.CPU_LOAD)
        text = tr.format_timeline(limit=10)
        assert "50 more events" in text

    def test_timeline_surfaces_drops_in_header(self, ctx):
        tr = Tracer(capacity=2)
        tr.attach(ctx)
        for _ in range(5):
            ctx.charge(CostAction.CPU_LOAD)
        text = tr.format_timeline()
        first_line = text.splitlines()[0]
        assert "dropped=3" in first_line
        assert "capacity=2" in first_line
        assert "3 events dropped (capacity)" in text

    def test_summary_accounting(self, ctx):
        tr = Tracer(capacity=2)
        tr.attach(ctx)
        assert tr.summary() == {
            "recorded": 0,
            "dropped": 0,
            "capacity": 2,
            "complete": True,
        }
        for _ in range(5):
            ctx.charge(CostAction.CPU_LOAD)
        assert tr.summary() == {
            "recorded": 2,
            "dropped": 3,
            "capacity": 2,
            "complete": False,
        }
