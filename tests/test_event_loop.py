"""Parity and robustness tests of the event-loop scheduler.

Every rank runs on one event loop, either as a generator continuation or
— for a plain-function body — on a per-rank thread shim.  How a body is
run must be *unobservable*: passing the same generator body once directly
and once through a plain ``lambda`` gives the same per-rank results,
virtual clock units, action counts and switch traces (every scheduling
decision, in order), the same deadlock declarations and the same failure
teardown.  These tests compare the two body styles event by event on
direct SPMD programs, on the GUPS variants across the flag matrix axes,
and on seeded fuzz programs; they also pin the failure paths (a rank
raising mid-barrier or mid-wait, a deadlock) and that finished jobs leave
neither shim threads nor their world behind.
"""

import gc
import threading
import weakref

import pytest

from repro import barrier, barrier_gen, current_ctx, rank_me
from repro.core.promise import Promise
from repro.errors import DeadlockError, SchedulerError
from repro.fuzz import generate_program
from repro.fuzz.runner import _fuzz_body, mode_flags, run_program
from repro.runtime.config import Version, flags_for
from repro.runtime.event_loop import as_shim
from repro.runtime.runtime import spmd_run
from repro.runtime.switchpoints import YIELD_NOW, BlockUntil
from repro.sim.costmodel import CostAction, CostModel, NoisyCostModel
from tests.conftest import (
    per_charge_costs,
    run_fingerprint,
    shim_gups,
)


def _shim_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("repro-shim-")]


def run_both(fn, *, ranks, args=(), expect=None, **kw):
    """Run generator body ``fn`` directly and through a plain ``lambda``;
    assert identical values, clock units, action counts and switch traces
    (or identical errors), and that no shim thread outlives either job.
    Returns the two fingerprints (None when ``expect`` is given)."""
    out = []
    for body in (fn, as_shim(fn)):
        trace = []
        if expect is None:
            res = spmd_run(body, ranks=ranks, args=args, switch_trace=trace,
                           **kw)
            out.append(run_fingerprint(res, trace))
        else:
            with pytest.raises(expect) as ei:
                spmd_run(body, ranks=ranks, args=args, switch_trace=trace,
                         **kw)
            out.append((type(ei.value), str(ei.value), trace))
        assert _shim_threads() == []
    assert out[0] == out[1]
    return tuple(out) if expect is None else (None, None)


class TestBasicParity:
    def test_values_and_clocks(self):
        def body():
            yield from barrier_gen()
            return rank_me() * 3

        gen, _ = run_both(body, ranks=8)
        assert gen[0] == [r * 3 for r in range(8)]

    def test_round_robin_promotion_order(self):
        """The fused single-pass _pick_next keeps the exact round-robin
        order of the old two-pass scan, for both body styles."""
        log = []

        def body():
            me = rank_me()
            for _ in range(3):
                log.append(me)
                yield YIELD_NOW

        spmd_run(body, ranks=4)
        assert log[:4] == [0, 1, 2, 3]
        log_gen = list(log)
        log.clear()
        spmd_run(as_shim(body), ranks=4)
        assert log == log_gen

    def test_block_until_producer_consumer(self):
        def body():
            ctx = current_ctx()
            if not hasattr(ctx.world, "shared"):
                ctx.world.shared = []  # type: ignore[attr-defined]
            box = ctx.world.shared  # type: ignore[attr-defined]
            if rank_me() == 0:
                yield YIELD_NOW
                box.append("ping")
                yield BlockUntil(lambda: len(box) == 2)
                return box[-1]
            yield BlockUntil(lambda: len(box) == 1)
            box.append("pong")
            return box[0]

        gen, _ = run_both(body, ranks=2)
        assert gen[0] == ["pong", "ping"]

    def test_plain_function_rides_the_shim(self):
        """A hand-written blocking body is observably identical to its
        generator form."""
        def blocking():
            barrier()
            current_ctx().yield_to_others()
            barrier()
            return rank_me()

        def generator():
            yield from barrier_gen()
            yield YIELD_NOW
            yield from barrier_gen()
            return rank_me()

        runs = []
        for body in (blocking, generator):
            trace = []
            res = spmd_run(body, ranks=6, switch_trace=trace)
            runs.append(run_fingerprint(res, trace))
        assert runs[0] == runs[1]
        assert runs[0][0] == list(range(6))
        assert _shim_threads() == []


class TestDeadlockParity:
    def test_all_blocked_is_deadlock_with_state_dump(self):
        def body():
            yield BlockUntil(lambda: False)

        msgs = []
        for fn in (body, as_shim(body)):
            trace = []
            with pytest.raises(DeadlockError) as ei:
                spmd_run(fn, ranks=3, switch_trace=trace)
            msgs.append((str(ei.value), trace))
        assert msgs[0] == msgs[1]
        assert "states:" in msgs[0][0]
        for r in range(3):
            assert f"{r}:" in msgs[0][0]
        assert "deadlock" in [e[0] for e in msgs[0][1]]

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

        for fn in (body, as_shim(body)):
            with pytest.raises(DeadlockError):
                spmd_run(fn, ranks=3)
            assert sorted(cleaned) == [0, 1, 2]
            cleaned.clear()


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
        # run no user code at all — for both body styles
        for fn in (body, as_shim(body)):
            with pytest.raises(ValueError, match="kaboom"):
                spmd_run(fn, ranks=4)
            assert sorted(cleaned) == [0, 1]
            cleaned.clear()

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

        for fn in (body, as_shim(body)):
            with pytest.raises(ValueError, match="kaboom"):
                spmd_run(fn, ranks=4)
            assert sorted(cleaned) == [0, 1, 2, 3]
            cleaned.clear()

    def test_first_error_wins(self):
        def body():
            raise KeyError(f"r{rank_me()}")
            yield  # pragma: no cover - makes this a generator function

        # rank 0 errors before any other rank has started, so its error
        # is the one that propagates
        for fn in (body, as_shim(body)):
            trace = []
            with pytest.raises(KeyError, match="r0"):
                spmd_run(fn, ranks=3, switch_trace=trace)
            assert trace == [("fail", 0)]

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

        for fn in (body, as_shim(body)):
            with pytest.raises(RuntimeError, match="boom"):
                spmd_run(fn, ranks=3)
            assert len(seen) == 2
            assert all("tearing down" in s for s in seen)
            seen.clear()


class TestRobustness:
    """Failure paths, each run with the generator body and its shim form:
    the first error wins, every survivor unwinds with the teardown
    ``DeadlockError``, and no shim thread outlives the job."""

    @staticmethod
    def _run(body, ranks, expect):
        outcomes = []
        for fn in (body, as_shim(body)):
            seen = {}
            trace = []
            with pytest.raises(expect) as ei:
                spmd_run(fn, ranks=ranks, args=(seen,), switch_trace=trace)
            assert _shim_threads() == []
            outcomes.append((type(ei.value), str(ei.value), seen, trace))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def test_rank_raising_mid_barrier(self):
        def body(seen):
            me = rank_me()
            yield from barrier_gen()
            if me == 2:
                raise ValueError("rank 2 failed")
            try:
                yield from barrier_gen()
            except DeadlockError as exc:
                seen[me] = str(exc)
                if me == 3:
                    # a survivor failing during teardown is an echo: it
                    # must not replace the first error
                    raise RuntimeError("rank 3 echo") from exc
                raise

        _, msg, seen, _ = self._run(body, 4, ValueError)
        assert msg == "rank 2 failed"
        assert sorted(seen) == [0, 1, 3]
        assert all("tearing down" in s and "rank 2 failed" in s
                   for s in seen.values())

    def test_rank_raising_mid_future_wait(self):
        def body(seen):
            me = rank_me()
            yield from barrier_gen()
            if me == 0:
                yield YIELD_NOW  # let every peer park in its wait first
                raise ValueError("rank 0 failed")
            fut = Promise().get_future()  # never fulfilled
            try:
                yield from fut.wait_gen()
            except DeadlockError as exc:
                seen[me] = str(exc)
                raise

        _, msg, seen, trace = self._run(body, 3, ValueError)
        assert msg == "rank 0 failed"
        assert sorted(seen) == [1, 2]
        assert all("tearing down" in s for s in seen.values())
        assert ("fail", 0) in trace

    def test_deadlock_dump_and_teardown(self):
        def body(seen):
            me = rank_me()
            yield from barrier_gen()
            try:
                yield from Promise().get_future().wait_gen()
            except DeadlockError as exc:
                seen[me] = str(exc)
                raise

        _, msg, seen, trace = self._run(body, 3, DeadlockError)
        assert msg.startswith("all simulated ranks are blocked")
        assert "(states: 0:blocked, 1:blocked, 2:blocked)" in msg
        assert trace[-1] == ("deadlock", ("blocked",) * 3)
        # the declaring rank sees the state dump, the others the wrap
        assert [s == msg for s in seen.values()].count(True) == 1
        assert sum("tearing down" in s for s in seen.values()) == 2

    def test_removed_substrate_flag_is_rejected(self):
        flags = flags_for(Version.V2021_3_6_EAGER)
        with pytest.raises(TypeError):
            flags.replace(sched_event_loop=True)


class TestWorldReclamation:
    def test_finished_world_is_reclaimed_by_the_next_job(self):
        """A finished job's World is cyclic garbage; spmd_run collects it
        before building the next world even when automatic collection
        never runs."""
        def body():
            yield from barrier_gen()
            return rank_me()

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            res = spmd_run(body, ranks=4)
            world = weakref.ref(res.world)
            del res
            spmd_run(body, ranks=4)
            assert world() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_promoted_world_is_left_to_a_full_collection(self):
        """The limit of the young-generation collection: a job that
        allocates enough to trigger an automatic gen-1 collection while it
        runs promotes its live world to the oldest generation, which the
        next job's collection does not scan.  That world is still plain
        garbage, freed by the next full collection."""
        def body():
            # ~30 automatic gen-0 collections, so at least two gen-1 ones
            junk = [[] for _ in range(20_000)]
            yield from barrier_gen()
            return len(junk)

        collected = []

        def on_gc(phase, info):
            if phase == "start":
                collected.append(info["generation"])

        was_enabled = gc.isenabled()
        gc.enable()
        gc.callbacks.append(on_gc)
        try:
            res = spmd_run(body, ranks=2)
            gc.disable()
            assert max(collected) >= 1
            world = weakref.ref(res.world)
            del res
            spmd_run(body, ranks=2)
            assert world() is not None
            gc.collect()
            assert world() is None
        finally:
            gc.callbacks.remove(on_gc)
            if was_enabled:
                gc.enable()
            else:
                gc.disable()


class TestInlineGuards:
    def test_inline_block_with_pending_predicate_raises(self):
        def body():
            ctx = current_ctx()
            if rank_me() == 0:
                with pytest.raises(SchedulerError, match="switch commands"):
                    ctx.block_until(lambda: False)
            yield from barrier_gen()

        spmd_run(body, ranks=2)

    def test_inline_yield_with_runnable_peer_raises(self):
        def body():
            ctx = current_ctx()
            if rank_me() == 0:
                # rank 1 has not started yet and is runnable
                with pytest.raises(SchedulerError, match="YIELD_NOW"):
                    ctx.yield_to_others()
            yield from barrier_gen()

        spmd_run(body, ranks=2)

    def test_inline_calls_fine_when_alone(self):
        """A 1-rank world never switches, so inline blocking primitives
        (ambient-style code) keep working inside continuation bodies."""
        def body():
            ctx = current_ctx()
            ctx.yield_to_others()
            ctx.block_until(lambda: True)
            return "ok"
            yield  # pragma: no cover - makes this a generator function

        r = spmd_run(body, ranks=1)
        assert r.values == ["ok"]


class TestGupsFlagMatrixParity:
    """Spot checks over the existing flag-matrix axes: generator and shim
    bodies must agree on functional results and virtual clocks for every
    build."""

    @staticmethod
    def _both(cfg, **kw):
        from repro.apps.gups import run_gups

        r_gen = run_gups(cfg, **kw)
        with shim_gups():
            r_shim = run_gups(cfg, **kw)
        assert r_gen.checksum == r_shim.checksum
        assert r_gen.solve_ns == r_shim.solve_ns
        assert r_gen.gups == r_shim.gups
        assert r_gen.progress_polls == r_shim.progress_polls
        assert (r_gen.table == r_shim.table).all()

    @pytest.mark.parametrize("variant", ["rma_promise", "rma_future", "agg"])
    @pytest.mark.parametrize("version", [Version.V2021_3_6_EAGER,
                                         Version.V2021_3_6_DEFER])
    def test_gups_variant_parity(self, variant, version):
        from repro.apps.gups import GupsConfig

        cfg = GupsConfig(variant=variant, table_log2=8,
                         updates_per_rank=16, batch=8)
        flags = flags_for(version)
        if variant == "agg":
            flags = flags.replace(am_aggregation=True)
        self._both(cfg, ranks=4, version=version, machine="generic",
                   conduit="udp", n_nodes=2, flags=flags)

    def test_wait_hints_and_adaptive_axes(self):
        from repro.apps.gups import GupsConfig

        cfg = GupsConfig(variant="wait_hints", table_log2=8,
                         updates_per_rank=16, batch=8)
        flags = flags_for(Version.V2021_3_6_DEFER).replace(
            wait_hints=True, progress_adaptive=True, obs_spans=True,
        )
        self._both(cfg, ranks=4, version=Version.V2021_3_6_DEFER,
                   machine="generic", conduit="udp", n_nodes=2, flags=flags)


class TestFuzzParity:
    """Property tests on seeded fuzz programs: for any generated program
    and any mode, both body styles produce the same FuzzOutcome — tables,
    per-op values, completion counts, *and clocks*."""

    @pytest.mark.parametrize("seed", range(10))
    def test_outcomes_identical(self, seed):
        program = generate_program(seed)
        from repro.fuzz import MODES

        mode = MODES[seed % len(MODES)]
        assert run_program(program, mode, "event") == run_program(
            program, mode, "shim"
        )

    @pytest.mark.parametrize("seed", [3, 11, 27])
    def test_switch_traces_identical(self, seed):
        program = generate_program(seed)
        version, flags = mode_flags("hinted")
        run_both(
            _fuzz_body, ranks=program.ranks, args=(program,),
            version=version, flags=flags, machine="generic",
            conduit=program.conduit, n_nodes=program.n_nodes,
            seed=program.seed,
        )

    def test_check_program_covers_both_substrates(self):
        from repro.fuzz import SCHEDULERS, check_program

        assert SCHEDULERS == ("shim", "event")
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
        with per_charge_costs():
            r_plain = run_gups(cfg, ranks=4, machine="generic")
        r_dense = run_gups(cfg, ranks=4, machine="generic")
        assert r_dense.checksum == r_plain.checksum
        assert r_dense.solve_ns == r_plain.solve_ns

    def test_counts_merge_lazily(self):
        """Per-rank counts, clocks and switch traces of a fuzz program
        match the per-charge reference for both body styles."""
        program = generate_program(7)
        kw = dict(ranks=program.ranks, machine="generic",
                  conduit=program.conduit, n_nodes=program.n_nodes,
                  seed=program.seed, args=(program,))
        for body in (_fuzz_body, as_shim(_fuzz_body)):
            tr_plain, tr_dense = [], []
            with per_charge_costs():
                r_plain = spmd_run(body, switch_trace=tr_plain, **kw)
            r_dense = spmd_run(body, switch_trace=tr_dense, **kw)
            assert all(type(c.costs) is NoisyCostModel
                       for c in r_plain.world.contexts)
            assert all(type(c.costs) is CostModel
                       for c in r_dense.world.contexts)
            assert run_fingerprint(r_dense, tr_dense) == run_fingerprint(
                r_plain, tr_plain
            )

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
                              flags=flags_for(Version.V2021_3_6_EAGER))
        assert r_explicit.values == r_default.values
        noiseless = 50 * r_default.world.contexts[0].profile.cost_ns(
            CostAction.HEAP_ALLOC_PROMISE_CELL
        )
        assert min(r_default.values) > noiseless
