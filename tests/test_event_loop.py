"""Parity tests: the event-loop scheduler vs the thread scheduler.

The tentpole guarantee of ``FeatureFlags.sched_event_loop``: swapping the
scheduling substrate is *unobservable* — same per-rank results, same
virtual clocks, same switch traces (every scheduling decision, in order),
same deadlock declarations and failure teardown.  These tests compare the
two substrates event by event on direct SPMD programs, on the GUPS
variants across the flag matrix axes, and on seeded fuzz programs.

Traces are compared up to the first terminal event (``deadlock``/``fail``):
past that point the thread substrate wakes the to-be-torn-down rank
threads in OS order, so the *order* of subsequent ``fail`` entries is
scheduler-noise by design (the set of torn-down ranks is still checked).
"""

import dataclasses

import pytest

from repro import barrier, barrier_gen, current_ctx, rank_me
from repro.errors import DeadlockError, SchedulerError
from repro.fuzz import generate_program
from repro.fuzz.runner import _fuzz_body, mode_flags, run_program
from repro.runtime.config import Version, flags_for
from repro.runtime.runtime import spmd_run
from repro.runtime.switchpoints import YIELD_NOW, BlockUntil
from repro.sim.costmodel import CostAction, CostModel, NoisyCostModel
from tests.conftest import per_charge_costs

TERMINALS = ("deadlock", "fail")


def _truncate(trace):
    """The deterministic prefix: everything up to and including the first
    terminal event (teardown wake order after it is OS noise)."""
    for i, ev in enumerate(trace):
        if ev[0] in TERMINALS:
            return trace[: i + 1]
    return trace


def _flags(version=Version.V2021_3_6_EAGER, **kw):
    return dataclasses.replace(flags_for(version), **kw)


def run_both(fn, *, ranks, args=(), expect=None, **kw):
    """Run ``fn`` under both substrates; assert identical values, clocks,
    and truncated switch traces; return the two results."""
    tr_th, tr_ev = [], []
    base = kw.pop("flags", flags_for(kw.get("version", Version.V2021_3_6_EAGER)))
    fl_ev = dataclasses.replace(base, sched_event_loop=True)
    if expect is None:
        r_th = spmd_run(fn, ranks=ranks, args=args, flags=base,
                        switch_trace=tr_th, **kw)
        r_ev = spmd_run(fn, ranks=ranks, args=args, flags=fl_ev,
                        switch_trace=tr_ev, **kw)
        assert r_ev.values == r_th.values
    else:
        with pytest.raises(expect) as ei_th:
            spmd_run(fn, ranks=ranks, args=args, flags=base,
                     switch_trace=tr_th, **kw)
        with pytest.raises(expect) as ei_ev:
            spmd_run(fn, ranks=ranks, args=args, flags=fl_ev,
                     switch_trace=tr_ev, **kw)
        assert str(ei_ev.value) == str(ei_th.value)
        r_th = r_ev = None
    assert _truncate(tr_ev) == _truncate(tr_th)
    if r_th is not None:
        assert [c.clock.now_ns for c in r_ev.world.contexts] == [
            c.clock.now_ns for c in r_th.world.contexts
        ]
    return r_th, r_ev


class TestBasicParity:
    def test_values_and_clocks(self):
        def body():
            yield from barrier_gen()
            return rank_me() * 3

        r_th, _ = run_both(body, ranks=8)
        assert r_th.values == [r * 3 for r in range(8)]

    def test_round_robin_promotion_order(self):
        """Satellite check: the fused single-pass _pick_next keeps the
        exact round-robin order of the old two-pass scan."""
        log = []

        def body():
            me = rank_me()
            for _ in range(3):
                log.append(me)
                yield YIELD_NOW

        fl = _flags(sched_event_loop=True)
        spmd_run(body, ranks=4, flags=fl)
        assert log[:4] == [0, 1, 2, 3]
        log_ev = list(log)
        log.clear()
        spmd_run(body, ranks=4)
        assert log == log_ev

    def test_block_until_producer_consumer(self):
        def body():
            ctx = current_ctx()
            box = ctx.world.shared  # type: ignore[attr-defined]
            me = rank_me()
            if me == 0:
                yield YIELD_NOW
                box.append("ping")
                yield BlockUntil(lambda: len(box) == 2)
                return box[-1]
            yield BlockUntil(lambda: len(box) == 1)
            box.append("pong")
            return box[0]

        def run(flags):
            tr = []
            world_box = []

            def wrapped():
                ctx = current_ctx()
                ctx.world.shared = world_box  # type: ignore[attr-defined]
                return (yield from body())

            r = spmd_run(wrapped, ranks=2, flags=flags, switch_trace=tr)
            return r.values, tr

        v_th, t_th = run(_flags())
        v_ev, t_ev = run(_flags(sched_event_loop=True))
        assert v_ev == v_th == ["pong", "ping"]
        assert t_ev == t_th

    def test_plain_function_rides_the_shim(self):
        """Un-ported (non-generator) bodies run under the thread shim and
        stay observably identical."""
        def body():
            barrier()
            ctx = current_ctx()
            ctx.yield_to_others()
            barrier()
            return rank_me()

        r_th, r_ev = run_both(body, ranks=6)
        assert r_th.values == list(range(6))


class TestDeadlockParity:
    def test_all_blocked_is_deadlock_with_state_dump(self):
        def body():
            yield BlockUntil(lambda: False)

        tr_th, tr_ev = [], []
        with pytest.raises(DeadlockError) as ei_th:
            spmd_run(body, ranks=3, switch_trace=tr_th)
        with pytest.raises(DeadlockError) as ei_ev:
            spmd_run(body, ranks=3, flags=_flags(sched_event_loop=True),
                     switch_trace=tr_ev)
        assert str(ei_ev.value) == str(ei_th.value)
        assert "states:" in str(ei_ev.value)
        for r in range(3):
            assert f"{r}:" in str(ei_ev.value)
        assert _truncate(tr_ev) == _truncate(tr_th)
        assert tr_ev[-1][0] == "deadlock" or ("deadlock" in
                                              [e[0] for e in tr_ev])

    def test_partial_deadlock_after_finishes(self):
        """The finish-path declaration: the last runnable rank completes
        while others still block — deadlock without a blocking declarer."""
        def body():
            if rank_me() == 0:
                return "done"
            yield BlockUntil(lambda: False)

        run_both(body, ranks=3, expect=DeadlockError)

    def test_deadlock_unwinds_finally_blocks(self):
        cleaned = []

        def body():
            try:
                yield BlockUntil(lambda: False)
            finally:
                cleaned.append(rank_me())

        with pytest.raises(DeadlockError):
            spmd_run(body, ranks=3, flags=_flags(sched_event_loop=True))
        assert sorted(cleaned) == [0, 1, 2]
        cleaned.clear()
        with pytest.raises(DeadlockError):
            spmd_run(body, ranks=3)
        assert sorted(cleaned) == [0, 1, 2]


class TestFailureParity:
    def test_failure_tears_down_blocked_ranks(self):
        cleaned = []

        def body():
            try:
                if rank_me() == 1:
                    raise ValueError("kaboom")
                yield from barrier_gen()
            finally:
                cleaned.append(rank_me())

        # rank 0 blocks at the barrier, rank 1 fails before ranks 2/3 ever
        # start: started ranks unwind (finally runs), never-started ranks
        # run no user code at all — identically on both substrates
        with pytest.raises(ValueError, match="kaboom"):
            spmd_run(body, ranks=4, flags=_flags(sched_event_loop=True))
        assert sorted(cleaned) == [0, 1]
        cleaned.clear()
        with pytest.raises(ValueError, match="kaboom"):
            spmd_run(body, ranks=4)
        assert sorted(cleaned) == [0, 1]

    def test_failure_unwinds_all_started_ranks(self):
        cleaned = []

        def body():
            try:
                yield from barrier_gen()  # everyone starts and syncs
                if rank_me() == 1:
                    raise ValueError("kaboom")
                yield from barrier_gen()
            finally:
                cleaned.append(rank_me())

        with pytest.raises(ValueError, match="kaboom"):
            spmd_run(body, ranks=4, flags=_flags(sched_event_loop=True))
        assert sorted(cleaned) == [0, 1, 2, 3]
        cleaned.clear()
        with pytest.raises(ValueError, match="kaboom"):
            spmd_run(body, ranks=4)
        assert sorted(cleaned) == [0, 1, 2, 3]

    def test_first_error_wins(self):
        def body():
            raise KeyError(f"r{rank_me()}")
            yield  # pragma: no cover - makes this a generator function

        # rank 0 errors before any other rank has started on both
        # substrates, so its error is the one that propagates
        tr_th, tr_ev = [], []
        with pytest.raises(KeyError, match="r0"):
            spmd_run(body, ranks=3, switch_trace=tr_th)
        with pytest.raises(KeyError, match="r0"):
            spmd_run(body, ranks=3, flags=_flags(sched_event_loop=True),
                     switch_trace=tr_ev)
        assert _truncate(tr_ev) == _truncate(tr_th) == [("fail", 0)]

    def test_teardown_error_type_for_survivors(self):
        seen = []

        def body():
            if rank_me() == 2:
                raise RuntimeError("boom")
            try:
                yield from barrier_gen()
            except DeadlockError as exc:
                seen.append(str(exc))
                raise

        with pytest.raises(RuntimeError, match="boom"):
            spmd_run(body, ranks=3, flags=_flags(sched_event_loop=True))
        assert len(seen) == 2
        assert all("tearing down" in s for s in seen)


class TestInlineGuards:
    def test_inline_block_with_pending_predicate_raises(self):
        def body():
            ctx = current_ctx()
            if rank_me() == 0:
                with pytest.raises(SchedulerError, match="switch commands"):
                    ctx.block_until(lambda: False)
            yield from barrier_gen()

        spmd_run(body, ranks=2, flags=_flags(sched_event_loop=True))

    def test_inline_yield_with_runnable_peer_raises(self):
        def body():
            ctx = current_ctx()
            if rank_me() == 0:
                # rank 1 has not started yet and is runnable
                with pytest.raises(SchedulerError, match="YIELD_NOW"):
                    ctx.yield_to_others()
            yield from barrier_gen()

        spmd_run(body, ranks=2, flags=_flags(sched_event_loop=True))

    def test_inline_calls_fine_when_alone(self):
        """A 1-rank world never switches, so inline blocking primitives
        (ambient-style code) keep working inside continuation bodies."""
        def body():
            ctx = current_ctx()
            ctx.yield_to_others()
            ctx.block_until(lambda: True)
            return "ok"
            yield  # pragma: no cover - makes this a generator function

        r = spmd_run(body, ranks=1, flags=_flags(sched_event_loop=True))
        assert r.values == ["ok"]


class TestGupsFlagMatrixParity:
    """Spot checks over the existing flag-matrix axes: the substrates must
    agree on functional results and virtual clocks for every build."""

    @pytest.mark.parametrize("variant", ["rma_promise", "rma_future", "agg"])
    @pytest.mark.parametrize("version", [Version.V2021_3_6_EAGER,
                                         Version.V2021_3_6_DEFER])
    def test_gups_variant_parity(self, variant, version):
        from repro.apps.gups import GupsConfig, run_gups

        cfg = GupsConfig(variant=variant, table_log2=8,
                         updates_per_rank=16, batch=8)
        kw = dict(ranks=4, version=version, machine="generic",
                  conduit="udp", n_nodes=2)
        base = flags_for(version)
        if variant == "agg":
            base = dataclasses.replace(base, am_aggregation=True)
        r_th = run_gups(cfg, flags=base, **kw)
        r_ev = run_gups(
            cfg, flags=dataclasses.replace(base, sched_event_loop=True), **kw
        )
        assert r_ev.checksum == r_th.checksum
        assert r_ev.solve_ns == r_th.solve_ns
        assert r_ev.gups == r_th.gups
        assert (r_ev.table == r_th.table).all()

    def test_wait_hints_and_adaptive_axes(self):
        from repro.apps.gups import GupsConfig, run_gups

        cfg = GupsConfig(variant="wait_hints", table_log2=8,
                         updates_per_rank=16, batch=8)
        base = dataclasses.replace(
            flags_for(Version.V2021_3_6_DEFER),
            wait_hints=True, progress_adaptive=True, obs_spans=True,
        )
        kw = dict(ranks=4, version=Version.V2021_3_6_DEFER,
                  machine="generic", conduit="udp", n_nodes=2)
        r_th = run_gups(cfg, flags=base, **kw)
        r_ev = run_gups(
            cfg, flags=dataclasses.replace(base, sched_event_loop=True), **kw
        )
        assert r_ev.checksum == r_th.checksum
        assert r_ev.solve_ns == r_th.solve_ns


class TestFuzzParity:
    """Property tests on seeded fuzz programs: for any generated program
    and any mode, the two substrates produce the same FuzzOutcome —
    tables, per-op values, completion counts, *and clocks*."""

    @pytest.mark.parametrize("seed", range(10))
    def test_outcomes_identical(self, seed):
        program = generate_program(seed)
        from repro.fuzz import MODES

        mode = MODES[seed % len(MODES)]
        assert run_program(program, mode, "event") == run_program(
            program, mode, "thread"
        )

    @pytest.mark.parametrize("seed", [3, 11, 27])
    def test_switch_traces_identical(self, seed):
        program = generate_program(seed)
        version, flags = mode_flags("hinted")
        tr_th, tr_ev = [], []
        kw = dict(
            ranks=program.ranks, version=version, machine="generic",
            conduit=program.conduit, n_nodes=program.n_nodes,
            seed=program.seed, args=(program,),
        )
        r_th = spmd_run(_fuzz_body, flags=flags, switch_trace=tr_th, **kw)
        r_ev = spmd_run(
            _fuzz_body,
            flags=flags.replace(sched_event_loop=True),
            switch_trace=tr_ev,
            **kw,
        )
        assert tr_ev == tr_th
        assert r_ev.values == r_th.values

    def test_check_program_covers_both_substrates(self):
        from repro.fuzz import SCHEDULERS, check_program

        program = generate_program(5)
        assert check_program(program, schedulers=SCHEDULERS) == []


class TestCostBatching:
    """The dense cost model adds each charge's exact integer clock units
    straight onto the clock, so it is *bit-identical* to the per-charge
    reference (the noisy model at noise 0, advancing through the float
    clock API): same results, counts, clocks and switch traces, no
    tolerance."""

    def test_counts_identical_and_clocks_bit_identical(self):
        from repro.apps.gups import GupsConfig, run_gups

        cfg = GupsConfig(variant="rma_promise", table_log2=8,
                         updates_per_rank=32, batch=8)
        flags = _flags(sched_event_loop=True)
        with per_charge_costs():
            r_plain = run_gups(cfg, ranks=4, machine="generic", flags=flags)
        r_dense = run_gups(cfg, ranks=4, machine="generic", flags=flags)
        assert r_dense.checksum == r_plain.checksum
        assert r_dense.solve_ns == r_plain.solve_ns

    def test_counts_merge_lazily(self):
        """Per-rank counts, clocks and switch traces of a fuzz program
        match the per-charge reference on both substrates."""
        program = generate_program(7)
        kw = dict(ranks=program.ranks, machine="generic",
                  conduit=program.conduit, n_nodes=program.n_nodes,
                  seed=program.seed, args=(program,))
        for flags in (_flags(), _flags(sched_event_loop=True)):
            tr_plain, tr_dense = [], []
            with per_charge_costs():
                r_plain = spmd_run(_fuzz_body, flags=flags,
                                   switch_trace=tr_plain, **kw)
            r_dense = spmd_run(_fuzz_body, flags=flags,
                               switch_trace=tr_dense, **kw)
            assert all(type(c.costs) is NoisyCostModel
                       for c in r_plain.world.contexts)
            assert all(type(c.costs) is CostModel
                       for c in r_dense.world.contexts)
            assert r_dense.values == r_plain.values
            assert tr_dense == tr_plain
            for cp, cd in zip(r_plain.world.contexts, r_dense.world.contexts):
                assert cd.costs.snapshot() == cp.costs.snapshot()
                assert cd.clock._units == cp.clock._units

    def test_noise_auto_disables_default_batching(self):
        """``noise`` on a default build selects the per-charge noisy
        model (jitter is drawn per charge)."""
        def body():
            return 0

        r = spmd_run(body, ranks=2, noise=0.1, seed=3)
        assert r.values == [0, 0]
        assert all(type(c.costs) is NoisyCostModel for c in r.world.contexts)

    def test_noise_with_explicit_flags(self):
        """Explicit flags plus noise run the same noisy model as the
        default build: same jitter draws, same clocks."""
        def body():
            ctx = current_ctx()
            for _ in range(50):
                ctx.charge(CostAction.HEAP_ALLOC_PROMISE_CELL)
            return ctx.clock.now_ns

        r_default = spmd_run(body, ranks=2, noise=0.1, seed=3)
        r_explicit = spmd_run(body, ranks=2, noise=0.1, seed=3,
                              flags=_flags())
        assert r_explicit.values == r_default.values
        noiseless = 50 * r_default.world.contexts[0].profile.cost_ns(
            CostAction.HEAP_ALLOC_PROMISE_CELL
        )
        assert min(r_default.values) > noiseless
