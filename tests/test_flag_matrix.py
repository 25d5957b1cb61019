"""Flag-matrix equivalence: small GUPS across every feature-flag combo.

One small ``agg``-variant GUPS run (4 ranks / 2 nodes / udp) is executed
for every combination of ``{eager, defer} x 2^4`` feature flags:
``am_aggregation``, ``obs_spans``, ``progress_adaptive``, ``wait_hints``.
Expectations:

===================  =====================================================
axis                 expectation
===================  =====================================================
(all combos)         checksum equals the HPCC oracle — no flag may change
                     program semantics
obs_spans            pure observation: toggling it leaves ``solve_ns``
                     and ``am_injects`` bit-identical
am_aggregation       strictly fewer ``AM_INJECT`` charges than the same
                     combo without it (bundling), and bundle headers
                     appear; checksum unchanged
progress_adaptive    checksum unchanged vs. the same combo without it;
                     total ``PROGRESS_POLL`` charge does not exceed the
                     static engine's (skips replace full polls; the few
                     aged mini-drains are charged as polls and must be
                     amortized by the elisions)
wait_hints           fully inert: the ``agg`` workload blocks only in
                     barriers, whose wait target is non-targeting by
                     design, so there are zero targeted wait flushes and
                     ``solve_ns``, ``am_injects`` and checksum are
                     bit-identical to the same combo with it cleared
===================  =====================================================

Timing (``solve_ns``) is *expected* to differ across the notification
and aggregation axes — that is the paper's whole subject — so no
cross-axis timing equality is asserted beyond the rows above.

Two further axis families are swept separately below: the mechanism
axes (``sched_wake_list``, the per-charge reference cost model and the
thread-shim body style — pure implementation strategies, bit-identical
on every observable) and
``cx_continuations`` (a *gate* on the continuation/counter completion
kinds: bit-identical for workloads that request neither, documented
expectations for the ``cont`` workload that does).
"""

import contextlib
import itertools

import pytest

from repro.apps import gups
from repro.apps.gups import GupsConfig, run_gups
from repro.runtime.config import flags_for
from repro.runtime.runtime import spmd_run
from tests.conftest import VD, VE, per_charge_costs, shim_gups

AXES = (
    "am_aggregation",
    "obs_spans",
    "progress_adaptive",
    "wait_hints",
)

CFG = GupsConfig(variant="agg", table_log2=8, updates_per_rank=16, batch=8)


def combo_key(version, on):
    return (version, frozenset(on))


@pytest.fixture(scope="module")
def matrix():
    """All 32 runs, keyed by (version, frozenset(enabled flag names))."""
    results = {}
    for version in (VE, VD):
        for bits in itertools.product((False, True), repeat=len(AXES)):
            on = {name for name, bit in zip(AXES, bits) if bit}
            flags = flags_for(version).replace(
                **{name: True for name in on}
            )
            results[combo_key(version, on)] = run_gups(
                CFG,
                ranks=4,
                n_nodes=2,
                conduit="udp",
                version=version,
                machine="generic",
                flags=flags,
            )
    return results


def combos(*, without=(), with_=()):
    """All (version, on-set) keys containing ``with_`` and none of
    ``without``."""
    out = []
    for version in (VE, VD):
        for bits in itertools.product((False, True), repeat=len(AXES)):
            on = {name for name, bit in zip(AXES, bits) if bit}
            if set(with_) <= on and not (set(without) & on):
                out.append((version, on))
    return out


class TestMatrix:
    def test_every_combo_matches_the_oracle(self, matrix):
        bad = [
            key for key, res in matrix.items() if not res.matches_oracle
        ]
        assert not bad, f"checksum mismatches: {bad}"

    def test_obs_spans_is_pure_observation(self, matrix):
        for version, on in combos(without=("obs_spans",)):
            base = matrix[combo_key(version, on)]
            obs = matrix[combo_key(version, on | {"obs_spans"})]
            assert obs.solve_ns == base.solve_ns, (version, on)
            assert obs.am_injects == base.am_injects, (version, on)
            assert obs.checksum == base.checksum, (version, on)

    def test_aggregation_bundles_reduce_injections(self, matrix):
        for version, on in combos(without=("am_aggregation",)):
            base = matrix[combo_key(version, on)]
            agg = matrix[combo_key(version, on | {"am_aggregation"})]
            assert agg.am_injects < base.am_injects, (version, on)
            assert agg.am_bundles > 0, (version, on)
            assert base.am_bundles == 0, (version, on)
            assert agg.checksum == base.checksum, (version, on)

    def test_adaptive_progress_preserves_results_and_poll_budget(
        self, matrix
    ):
        for version, on in combos(without=("progress_adaptive",)):
            static = matrix[combo_key(version, on)]
            adaptive = matrix[
                combo_key(version, on | {"progress_adaptive"})
            ]
            assert adaptive.checksum == static.checksum, (version, on)
            assert adaptive.progress_polls <= static.progress_polls, (
                version,
                on,
            )
            assert static.progress_poll_skips == 0, (version, on)

    def test_wait_hints_inert_without_targeted_waits(self, matrix):
        for version, on in combos(without=("wait_hints",)):
            base = matrix[combo_key(version, on)]
            hinted = matrix[combo_key(version, on | {"wait_hints"})]
            assert hinted.checksum == base.checksum, (version, on)
            # barriers publish non-targeting targets; nothing in the agg
            # workload blocks on a future, so every hinted path is dead
            assert hinted.agg_stats.wait_flushes == 0, (version, on)
            assert hinted.solve_ns == base.solve_ns, (version, on)
            assert hinted.am_injects == base.am_injects, (version, on)


# Scheduler-mechanism axes: ``sched_wake_list``, the cost model and the
# body style are pure implementation strategies — swapping any of them
# must be bit-identical on *every* observable (per-rank results, clocks,
# action counts and the switch trace), unlike the semantic axes above
# where only checksums are pinned.  The ``scan`` variant turns
# ``sched_wake_list`` off; the ``per_charge`` variant builds every rank's
# cost model as the per-charge reference (``NoisyCostModel`` at noise 0)
# instead of the dense default; the ``shim`` variant runs the GUPS body
# behind a plain function, every rank on its thread shim.  Swept against
# a smaller base matrix (the three flags that most reshape
# scheduling/progress behavior) to keep the run count reasonable.
MECH_BASE_AXES = (
    "am_aggregation",
    "progress_adaptive",
    "wait_hints",
)


def _observe(flags, version):
    """Run the matrix's GUPS cell and keep every observable."""
    runs = []

    def traced_spmd_run(*args, **kw):
        trace = []
        res = spmd_run(*args, switch_trace=trace, **kw)
        runs.append((res, trace))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gups, "spmd_run", traced_spmd_run)
        r = run_gups(
            CFG,
            ranks=4,
            n_nodes=2,
            conduit="udp",
            version=version,
            machine="generic",
            flags=flags,
        )
    (res, trace), = runs
    contexts = res.world.contexts
    return {
        "result": (r.solve_ns, r.checksum, r.am_injects, r.progress_polls),
        "values": [(v[0], v[1], v[2].tolist()) for v in res.values],
        "clocks": [c.clock._units for c in contexts],
        "counts": [c.costs.snapshot() for c in contexts],
        "trace": trace,
    }


class TestMechanismFlagsBitIdentical:
    @pytest.fixture(scope="class")
    def mech_matrix(self):
        """(version, on-set, variant) -> observables, where variant is
        ``base`` (defaults: wake list on, dense cost model, generator
        body), ``scan`` (sched_wake_list off), ``per_charge`` (reference
        cost model) or ``shim`` (thread-shim body)."""
        results = {}
        for version in (VE, VD):
            for bits in itertools.product(
                (False, True), repeat=len(MECH_BASE_AXES)
            ):
                on = {
                    name for name, bit in zip(MECH_BASE_AXES, bits) if bit
                }
                flags = flags_for(version).replace(
                    **{name: True for name in on}
                )
                key = (version, frozenset(on))
                results[key + ("base",)] = _observe(flags, version)
                results[key + ("scan",)] = _observe(
                    flags.replace(sched_wake_list=False), version
                )
                with per_charge_costs():
                    results[key + ("per_charge",)] = _observe(flags, version)
                with shim_gups():
                    results[key + ("shim",)] = _observe(flags, version)
        return results

    def _assert_identical(self, mech_matrix, variant):
        for (version, on, vname), res in mech_matrix.items():
            if vname != "base":
                continue
            other = mech_matrix[(version, on, variant)]
            key = (version, sorted(on))
            for observable, value in res.items():
                assert other[observable] == value, (observable, key)

    def test_wake_list_bit_identical(self, mech_matrix):
        self._assert_identical(mech_matrix, "scan")

    def test_cost_batching_bit_identical(self, mech_matrix):
        self._assert_identical(mech_matrix, "per_charge")

    def test_shim_body_bit_identical(self, mech_matrix):
        self._assert_identical(mech_matrix, "shim")


# The ``cx_continuations`` axis: the flag *gates* two new completion
# kinds (continuations, counters — DESIGN.md §13) but must be perfectly
# inert for workloads that do not request them — bit-identical on every
# observable, timing included, like the mechanism flags above.  For a
# workload that *does* use them (the ``cont`` GUPS variant), the
# documented expectations hold across the mechanism combos: the oracle
# checksum is preserved, the continuation-dispatch charge appears, and
# no future/promise cells are allocated for the tracked updates.
CX_BASE_AXES = (
    "am_aggregation",
    "progress_adaptive",
)

CX_CFG = GupsConfig(
    variant="cont", table_log2=8, updates_per_rank=16, batch=8
)


def _cx_combos():
    for version in (VE, VD):
        for bits in itertools.product(
            (False, True), repeat=len(CX_BASE_AXES)
        ):
            yield version, {
                name for name, bit in zip(CX_BASE_AXES, bits) if bit
            }


class TestCxContinuationsDimension:
    @pytest.fixture(scope="class")
    def cx_off_matrix(self):
        """(version, on-set, flag?) -> agg-workload result: the workload
        issues no continuation/counter requests, so the flag is dead."""
        results = {}
        for version, on in _cx_combos():
            for cx in (False, True):
                flags = flags_for(version).replace(
                    **{name: True for name in on}, cx_continuations=cx
                )
                results[(version, frozenset(on), cx)] = run_gups(
                    CFG,
                    ranks=4,
                    n_nodes=2,
                    conduit="udp",
                    version=version,
                    machine="generic",
                    flags=flags,
                )
        return results

    @pytest.fixture(scope="class")
    def cx_on_matrix(self):
        """(version, on-set, shim?) -> cont-workload result, flag on,
        generator body or thread-shim body."""
        results = {}
        for version, on in _cx_combos():
            flags = flags_for(version).replace(
                **{name: True for name in on}, cx_continuations=True
            )
            for shim in (False, True):
                with shim_gups() if shim else contextlib.nullcontext():
                    results[(version, frozenset(on), shim)] = run_gups(
                        CX_CFG,
                        ranks=4,
                        n_nodes=2,
                        conduit="udp",
                        version=version,
                        machine="generic",
                        flags=flags,
                    )
        return results

    def test_flag_bit_identical_without_requests(self, cx_off_matrix):
        for (version, on, cx), res in cx_off_matrix.items():
            if cx:
                continue
            other = cx_off_matrix[(version, on, True)]
            key = (version, sorted(on))
            assert other.solve_ns == res.solve_ns, key
            assert other.checksum == res.checksum, key
            assert other.am_injects == res.am_injects, key
            assert other.progress_polls == res.progress_polls, key

    def test_cont_workload_matches_oracle_everywhere(self, cx_on_matrix):
        bad = [
            (version, sorted(on), shim)
            for (version, on, shim), res in cx_on_matrix.items()
            if not res.matches_oracle
        ]
        assert not bad, f"checksum mismatches: {bad}"

    def test_cont_spans_are_eager_class_on_defer_build(self):
        """The documented flag-on expectation: continuation-tracked
        updates never park, so their notification gaps land in the
        ``eager`` class even on the deferred-notification build."""
        res = run_gups(
            CX_CFG, ranks=4, n_nodes=2, conduit="udp", version=VD,
            machine="generic",
            flags=flags_for(VD).replace(
                cx_continuations=True, obs_spans=True
            ),
        )
        assert res.matches_oracle
        modes = {m for (m, _loc) in res.obs_stats.gaps if m != "none"}
        assert modes == {"eager"}, modes

    def test_event_loop_substrate_bit_identical(self, cx_on_matrix):
        """The cont workload is body-style-independent: each combo's
        continuation run reproduces the thread-shim run exactly."""
        for (version, on, shim), res in cx_on_matrix.items():
            if shim:
                continue
            other = cx_on_matrix[(version, on, True)]
            key = (version, sorted(on))
            assert other.solve_ns == res.solve_ns, key
            assert other.checksum == res.checksum, key
            assert other.progress_polls == res.progress_polls, key
