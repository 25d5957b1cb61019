"""Differential fuzzing: eager / defer / adaptive / hinted equivalence.

The tentpole guarantee of the fuzz harness (``repro.fuzz``): for any
generated program, all notification configurations agree on

* final memory state (every rank's table words),
* per-op values (every ``get``/``rpc`` result, in wait order),
* completion counts (futures waited, promises finalized),

and re-running the same (program, mode) pair is bit-identical including
virtual clocks.  Programs are constructed confluent (commutative-only amo
cells, single-writer put cells, phase fences — see
``repro.fuzz.programs``), so any disagreement is a runtime bug, not
program nondeterminism.

The CI ``tier2-fuzz`` job runs the heavier multi-seed sweep through
``python -m repro.fuzz``; this suite keeps one full 200-program seed in
tier 1 plus targeted structure/replay checks.
"""

import random

import pytest

from repro.fuzz import (
    CX_MODES,
    MODES,
    check_program,
    generate_program,
    mode_flags,
    program_from_json,
    program_to_json,
    run_program,
)
from repro.fuzz.runner import _swap_plan

#: the tier-1 sweep seed (CI adds more, plus a run-derived one)
SWEEP_SEED = 1
SWEEP_PROGRAMS = 200


class TestGenerator:
    def test_deterministic(self):
        assert generate_program(42) == generate_program(42)
        assert generate_program(42) != generate_program(43)

    def test_json_round_trip(self):
        for seed in range(20):
            prog = generate_program(seed)
            assert program_from_json(program_to_json(prog)) == prog

    def test_corpus_covers_the_interesting_structure(self):
        """The generated corpus must actually exercise what the harness
        claims to cover: off-node targets, both commutative amo kinds,
        single-writer puts, reply-less rpc_ff, gets, rpcs, wait points."""
        programs = [generate_program(s) for s in range(60)]
        kinds = set()
        offnode = False
        for prog in programs:
            if prog.n_nodes > 1:
                offnode = True
            for ph in prog.phases:
                for rank_ops in ph.ops:
                    for op in rank_ops:
                        kinds.add(op["kind"])
        assert offnode
        assert {
            "put", "get", "amo_xor", "amo_add", "rpc", "rpc_ff",
            "wait_all", "progress",
        } <= kinds

    def test_roles_are_single_writer_and_single_op_kind(self):
        """The confluence argument rests on the role discipline; assert
        the generator never emits an op violating its phase's roles."""
        for seed in range(40):
            prog = generate_program(seed)
            for ph in prog.phases:
                for me, rank_ops in enumerate(ph.ops):
                    for op in rank_ops:
                        if op["kind"] == "put":
                            role = ph.roles[op["owner"]][op["idx"]]
                            assert role == f"put:{me}"
                        elif op["kind"] in ("amo_xor", "amo_add"):
                            role = ph.roles[op["owner"]][op["idx"]]
                            assert role == op["kind"]
                        elif op["kind"] == "rpc_ff":
                            role = ph.roles[op["owner"]][op["idx"]]
                            assert role == "amo_xor"
                        elif op["kind"] == "get":
                            role = ph.roles[op["owner"]][op["idx"]]
                            assert role == "frozen"


class TestModeFlags:
    def test_known_modes(self):
        for mode in MODES:
            version, flags = mode_flags(mode)
            assert flags == flags  # constructible & validated

    def test_adaptive_mode_is_defer_plus_controller(self):
        _, defer = mode_flags("defer")
        _, adaptive = mode_flags("adaptive")
        assert not defer.eager_notification
        assert not defer.progress_adaptive
        assert not adaptive.eager_notification
        assert adaptive.progress_adaptive

    def test_hinted_mode_is_adaptive_plus_wait_hints(self):
        _, adaptive = mode_flags("adaptive")
        _, hinted = mode_flags("hinted")
        assert not adaptive.wait_hints
        assert hinted.wait_hints
        assert hinted.progress_adaptive
        assert hinted.replace(
            wait_hints=False, wait_flush_fill_frac=adaptive.wait_flush_fill_frac
        ) == adaptive

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown fuzz mode"):
            mode_flags("bogus")


class TestDifferentialSweep:
    def test_sweep_200_programs_all_modes_agree(self):
        """The headline: 200 generated programs; eager, defer,
        adaptive-progress, and hinted agree on every one."""
        failures = []
        for index in range(SWEEP_PROGRAMS):
            prog = generate_program(SWEEP_SEED * 1_000_003 + index)
            mismatches = check_program(prog)
            if mismatches:
                failures.append((index, prog.seed, mismatches))
        assert not failures, f"differential mismatches: {failures[:5]}"

    def test_values_actually_recorded(self):
        """Guard against a vacuous sweep: a healthy fraction of programs
        must produce recorded get/rpc values and non-trivial tables."""
        with_values = with_memory = 0
        for index in range(30):
            prog = generate_program(SWEEP_SEED * 1_000_003 + index)
            out = run_program(prog, "eager")
            if any(rank_values for rank_values in out.values):
                with_values += 1
            if any(any(row) for row in out.tables):
                with_memory += 1
        assert with_values >= 20
        assert with_memory >= 20


class TestCxModes:
    """The completion-kind swap dimension: future-tracked ops replayed
    as continuation- or counter-tracked must reproduce the future
    baseline's memory, values, and completion counts in every mode."""

    def test_cx_mode_names(self):
        assert CX_MODES == ("future", "continuation", "counter")

    def test_swap_plan_is_deterministic_and_nonvacuous(self):
        """The swap coin is a pure function of (program, rank, kind),
        and the corpus genuinely contains swappable ops."""
        swapped = 0
        for seed in range(20):
            prog = generate_program(SWEEP_SEED * 1_000_003 + seed)
            for me in range(prog.ranks):
                a = _swap_plan(prog, me, "continuation")
                b = _swap_plan(prog, me, "continuation")
                assert a == b
                assert _swap_plan(prog, me, "future") == {}
                swapped += sum(a.values())
                # the two kinds use different coins (independent plans)
        assert swapped > 0

    @pytest.mark.parametrize("cx", CX_MODES[1:])
    def test_swapped_runs_reproduce_future_baseline(self, cx):
        """40 programs x all modes: tables, values, and completion
        counts equal the future baseline exactly (clocks exempt — the
        swapped kinds charge different costs)."""
        failures = []
        for index in range(40):
            prog = generate_program(SWEEP_SEED * 1_000_003 + index)
            for mode in MODES:
                base = run_program(prog, mode)
                swapped = run_program(prog, mode, cx=cx)
                if (
                    swapped.tables != base.tables
                    or swapped.values != base.values
                    or swapped.completions != base.completions
                ):
                    failures.append((index, mode, cx))
        assert not failures, f"cx-swap mismatches: {failures[:5]}"

    @pytest.mark.parametrize("cx", CX_MODES[1:])
    def test_cx_replay_bit_identical(self, cx):
        rng = random.Random(11)
        for _ in range(4):
            prog = generate_program(rng.randrange(1 << 30))
            first = run_program(prog, "adaptive", cx=cx)
            second = run_program(prog, "adaptive", cx=cx)
            assert first == second
            assert first.clock_ns == second.clock_ns

    def test_check_program_covers_cx_modes(self):
        """check_program(cx_modes=...) folds the swap dimension into
        the standard sweep (the CI entry point's code path)."""
        for index in range(8):
            prog = generate_program(SWEEP_SEED * 1_000_003 + index)
            assert check_program(prog, cx_modes=CX_MODES[1:]) == []

    def test_cross_scheduler_exact_with_cx(self):
        """Generator and shim bodies agree bit-for-bit (clocks included)
        on swapped runs."""
        for index in range(6):
            prog = generate_program(SWEEP_SEED * 1_000_003 + index)
            for cx in CX_MODES[1:]:
                a = run_program(prog, "adaptive", "shim", cx=cx)
                b = run_program(prog, "adaptive", "event", cx=cx)
                assert a == b
                assert a.clock_ns == b.clock_ns


class TestReplay:
    @pytest.mark.parametrize("mode", MODES)
    def test_replay_bit_identical_per_mode(self, mode):
        """Same (program, flags) pair -> identical outcome, *including*
        per-rank virtual clocks."""
        rng = random.Random(7)
        for _ in range(5):
            prog = generate_program(rng.randrange(1 << 30))
            first = run_program(prog, mode)
            second = run_program(prog, mode)
            assert first == second
            assert first.clock_ns == second.clock_ns

    def test_modes_differ_in_timing_not_outcome(self):
        """Sanity check that the equivalence is not trivial: eager and
        defer clocks genuinely differ on a notification-heavy program
        while outcomes agree (if the clocks always matched, the sweep
        would not be exercising the paper's distinction at all)."""
        diffs = 0
        for seed in range(10):
            prog = generate_program(seed)
            eager = run_program(prog, "eager")
            defer = run_program(prog, "defer")
            assert eager.tables == defer.tables
            assert eager.values == defer.values
            if eager.clock_ns != defer.clock_ns:
                diffs += 1
        assert diffs > 0

    def test_failing_artifact_round_trip(self):
        """The CI artifact path: a program serialized on failure replays
        to the same outcomes after a JSON round trip."""
        prog = generate_program(12345)
        clone = program_from_json(program_to_json(prog))
        assert run_program(prog, "adaptive") == run_program(clone, "adaptive")
