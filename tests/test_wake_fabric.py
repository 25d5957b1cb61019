"""Wake-fabric wiring tests: nested/directly-driven worlds keep wake
lists, and losing the wiring is observable instead of silent.

Historically only :func:`repro.runtime.runtime.spmd_run` set
``world.scheduler``, so a world built with :func:`build_world` and driven
directly through :class:`EventLoopScheduler.run` had no wake routing: the
conduit's and barrier's notify sites found no scheduler, and a keyed
block would have parked on a wake bit nobody ever set.  The fabric is now
wired through :meth:`World.attach_scheduler` (which ``run`` calls
itself), and each of the two possible wiring gaps is observable:

* a wake notification arriving at a scheduler-less world counts in
  ``World.wake_notify_misses``;
* a keyed block entering a scheduler with no bound wake source demotes to
  the predicate scan and counts in ``SchedulerCore.keyed_scan_fallbacks``.
"""

import contextlib
import dataclasses

import pytest

from repro import barrier_gen, current_ctx, rank_me
from repro.errors import UpcxxError
from repro.runtime.config import RuntimeConfig, Version, flags_for
from repro.runtime.event_loop import EventLoopScheduler
from repro.runtime.runtime import build_world, spmd_run
from repro.runtime.scheduler import SchedulerCore
from repro.sim.costmodel import CostAction
from tests.conftest import shim_gups


def _flags(**kw):
    return dataclasses.replace(flags_for(Version.V2021_3_6_EAGER), **kw)


def _storm_body(rounds: int):
    ctx = current_ctx()
    me = rank_me()
    for k in range(rounds):
        ctx.charge(CostAction.FUNCTION_CALL, 1 + ((me + k) % 5) * 7)
        yield from barrier_gen()
    return ctx.clock.now_ns


def _drive_direct(ranks: int, rounds: int, *, wake_list: bool):
    """A directly-driven world (build_world + loop.run, no spmd_run) —
    the nested/ambient shape that used to lose wake-list scheduling."""
    config = RuntimeConfig(
        version=Version.V2021_3_6_EAGER,
        flags=_flags(sched_wake_list=wake_list),
    )
    world = build_world(config, ranks=ranks)
    trace: list = []
    loop = EventLoopScheduler(ranks, switch_trace=trace, wake_list=wake_list)
    values = loop.run(world, _storm_body, (rounds,))
    assert loop.first_error() is None
    clocks = [c.clock.now_ns for c in world.contexts]
    return values, clocks, loop.switches, trace, loop, world


class TestDirectlyDrivenWorld:
    """build_world + EventLoopScheduler.run: wake lists actually engage."""

    @pytest.mark.parametrize("ranks", [2, 8])
    def test_wake_vs_scan_bit_identical(self, ranks):
        out_scan = _drive_direct(ranks, 6, wake_list=False)
        out_wake = _drive_direct(ranks, 6, wake_list=True)
        # values, per-rank clocks, switch count, full decision trace
        assert out_wake[:4] == out_scan[:4]
        # the program genuinely blocked (the regime under test)
        assert any(ev[0] == "block" for ev in out_wake[3])

    def test_wake_path_taken_not_fallback(self):
        *_, loop, world = _drive_direct(8, 6, wake_list=True)
        assert world.scheduler is loop
        # every keyed block parked on its wake bit — zero scan demotions,
        # zero notifications lost to an unattached world
        assert loop.keyed_scan_fallbacks == 0
        assert world.wake_notify_misses == 0

    def test_run_attach_is_idempotent_with_prewired_world(self):
        config = RuntimeConfig(version=Version.V2021_3_6_EAGER)
        world = build_world(config, ranks=4)
        loop = EventLoopScheduler(4)
        world.attach_scheduler(loop)  # wired up front
        values = loop.run(world, _storm_body, (3,))  # attaches again
        assert loop.first_error() is None
        assert len(values) == 4
        assert world.scheduler is loop

    def test_second_scheduler_rejected(self):
        config = RuntimeConfig(version=Version.V2021_3_6_EAGER)
        world = build_world(config, ranks=2)
        world.attach_scheduler(EventLoopScheduler(2))
        with pytest.raises(UpcxxError):
            world.attach_scheduler(EventLoopScheduler(2))


class TestObservableFallbacks:
    """Each wiring gap counts and notes instead of silently degrading."""

    def test_unattached_world_counts_wake_misses(self):
        world = build_world(
            RuntimeConfig(version=Version.V2021_3_6_EAGER), ranks=4
        )
        assert world.scheduler is None
        world.notify_incoming(2)
        world.notify_barrier_epoch()
        assert world.wake_notify_misses == 2

    def test_single_rank_world_misses_not_counted(self):
        # the ambient single-rank world legitimately has no scheduler;
        # nothing can be parked, so a notify there is not a wiring bug
        world = build_world(
            RuntimeConfig(version=Version.V2021_3_6_EAGER), ranks=1
        )
        world.notify_incoming(0)
        world.notify_barrier_epoch()
        assert world.wake_notify_misses == 0

    def test_unbound_scheduler_demotes_keyed_block_to_scan(self):
        sched = SchedulerCore(2, wake_list=True)
        assert sched._wake_source is None
        sched._enter_blocked(0, lambda: False, ("epoch",))
        assert sched.keyed_scan_fallbacks == 1
        # the demoted block is scan-pinned (counted unkeyed), so the pick
        # loop re-evaluates its predicate instead of trusting a wake bit
        # that no notify site can reach
        assert sched._unkeyed == 1

    def test_bound_scheduler_parks_keyed_block(self):
        sched = SchedulerCore(2, wake_list=True)
        world = build_world(
            RuntimeConfig(version=Version.V2021_3_6_EAGER), ranks=2
        )
        sched.bind_wake_source(world)
        sched._enter_blocked(0, lambda: False, ("epoch",))
        assert sched.keyed_scan_fallbacks == 0
        assert sched._unkeyed == 0


class TestSpmdRunStillWired:
    """The classic entry point routes everything through the fabric."""

    @pytest.mark.parametrize("shim", [False, True])
    def test_offnode_run_loses_no_notifications(self, shim):
        from repro.apps.gups import GupsConfig, run_gups

        with shim_gups() if shim else contextlib.nullcontext():
            res = run_gups(
                GupsConfig(variant="amo_future", table_log2=8,
                           updates_per_rank=16, batch=8),
                ranks=4,
                n_nodes=2,
                conduit="udp",
                machine="ibm",
                version=Version.V2021_3_6_EAGER,
            )
        assert res.matches_oracle

    def test_world_scheduler_attached(self):
        trace: list = []
        res = spmd_run(
            _storm_body, ranks=3, args=(2,), switch_trace=trace,
        )
        assert res.world.scheduler is not None
        assert res.world.wake_notify_misses == 0
        assert res.world.scheduler.keyed_scan_fallbacks == 0
