"""Unit tests for the cooperative scheduler through spmd_run with
plain-function bodies (each rank on its thread shim)."""

import pytest

from repro import barrier, current_ctx, rank_me, rank_n
from repro.errors import DeadlockError
from repro.runtime.runtime import spmd_run


class TestBasicSpmd:
    def test_single_rank(self):
        assert spmd_run(lambda: 42, ranks=1).values == [42]

    def test_many_ranks_all_run(self):
        res = spmd_run(rank_me, ranks=8)
        assert res.values == list(range(8))

    def test_rank_n_visible(self):
        res = spmd_run(rank_n, ranks=5)
        assert res.values == [5] * 5

    def test_args_forwarded(self):
        res = spmd_run(lambda a, b: a + b, ranks=2, args=(10, 5))
        assert res.values == [15, 15]

    def test_exception_propagates(self):
        def boom():
            if rank_me() == 1:
                raise ValueError("kaboom")
            barrier()

        with pytest.raises(ValueError, match="kaboom"):
            spmd_run(boom, ranks=3)

    def test_rank0_exception_propagates(self):
        def boom():
            raise KeyError("r0")

        with pytest.raises(KeyError):
            spmd_run(boom, ranks=2)


class TestDeterminism:
    def test_interleaving_is_deterministic(self):
        def body():
            order = []
            ctx = current_ctx()
            barrier()
            for _ in range(3):
                ctx.yield_to_others()
                order.append(ctx.clock.now_ns)
            barrier()
            return tuple(order)

        a = spmd_run(body, ranks=4, seed=7)
        b = spmd_run(body, ranks=4, seed=7)
        assert a.values == b.values
        assert [c.clock.now_ns for c in a.world.contexts] == [
            c.clock.now_ns for c in b.world.contexts
        ]

    def test_yield_round_robin_visits_all(self):
        log = []

        def body():
            me = rank_me()
            ctx = current_ctx()
            for _ in range(2):
                log.append(me)
                ctx.yield_to_others()
            return None

        spmd_run(body, ranks=3)
        # first pass visits 0,1,2 in order (round-robin from rank 0)
        assert log[:3] == [0, 1, 2]


class TestBlocking:
    def test_block_until_peer_produces(self):
        def body():
            ctx = current_ctx()
            world = ctx.world
            if rank_me() == 0:
                ctx.block_until(lambda: getattr(world, "_flag", False))
                return "saw flag"
            world._flag = True
            return "set flag"

        res = spmd_run(body, ranks=2)
        assert res.values == ["saw flag", "set flag"]

    def test_deadlock_detected(self):
        def body():
            current_ctx().block_until(lambda: False)

        with pytest.raises(DeadlockError):
            spmd_run(body, ranks=2)

    def test_partial_deadlock_detected(self):
        def body():
            if rank_me() == 0:
                return "done"
            current_ctx().block_until(lambda: False)

        with pytest.raises(DeadlockError):
            spmd_run(body, ranks=2)

    def test_immediate_true_predicate_never_blocks(self):
        def body():
            current_ctx().block_until(lambda: True)
            return "ok"

        assert spmd_run(body, ranks=2).values == ["ok", "ok"]
