"""Unit tests for the cost model and machine profiles."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import UNITS_PER_NS, VirtualClock
from repro.sim.costmodel import CostAction, CostModel, NoisyCostModel
from repro.sim.machines import (
    GENERIC,
    IBM,
    INTEL,
    MARVELL,
    profile_by_name,
)


@pytest.fixture
def model():
    return CostModel(GENERIC, VirtualClock())


class TestCharge:
    def test_charge_advances_clock(self, model):
        ns = model.charge(CostAction.MEMCPY_8B)
        assert ns == GENERIC.cost_ns(CostAction.MEMCPY_8B)
        assert model.clock.now_ns == ns

    def test_charge_counts(self, model):
        model.charge(CostAction.PROGRESS_POLL)
        model.charge(CostAction.PROGRESS_POLL)
        assert model.count(CostAction.PROGRESS_POLL) == 2

    def test_charge_times(self, model):
        model.charge(CostAction.CPU_LOAD, times=5)
        assert model.count(CostAction.CPU_LOAD) == 5
        assert model.clock.now_ns == 5 * GENERIC.cost_ns(CostAction.CPU_LOAD)

    def test_charge_bytes_scales(self, model):
        ns = model.charge_bytes(CostAction.MEMCPY_PER_BYTE, 100)
        assert ns == pytest.approx(
            100 * GENERIC.cost_ns(CostAction.MEMCPY_PER_BYTE)
        )

    def test_disabled_model_charges_nothing(self, model):
        model.enabled = False
        assert model.charge(CostAction.HEAP_ALLOC_PROMISE_CELL) == 0.0
        assert model.clock.now_ns == 0.0
        assert model.count(CostAction.HEAP_ALLOC_PROMISE_CELL) == 0

    def test_snapshot_is_a_copy(self, model):
        model.charge(CostAction.CPU_LOAD)
        snap = model.snapshot()
        model.charge(CostAction.CPU_LOAD)
        assert snap[CostAction.CPU_LOAD] == 1
        assert model.count(CostAction.CPU_LOAD) == 2

    def test_reset_counts_keeps_clock(self, model):
        model.charge(CostAction.CPU_LOAD)
        t = model.clock.now_ns
        model.reset_counts()
        assert model.count(CostAction.CPU_LOAD) == 0
        assert model.clock.now_ns == t

    def test_clock_setter_overrides_earlier_charges(self, ctx):
        """Setting a rank's clock wins over every charge made before it
        (none may be parked and folded in after the write)."""
        for _ in range(1000):
            ctx.charge(CostAction.MEMCPY_8B)
        ctx.clock.now_ns = 5.0
        assert ctx.clock.now_ns == 5.0
        ctx.charge(CostAction.MEMCPY_8B)
        assert ctx.clock.now_ns == 5.0 + ctx.profile.cost_ns(
            CostAction.MEMCPY_8B
        )


PROFILES = (INTEL, IBM, MARVELL, GENERIC)


class TestDenseTables:
    def test_dense_action_index(self):
        actions = tuple(CostAction)
        assert [a.index for a in actions] == list(range(len(actions)))
        assert all(CostAction[a.name] is a for a in actions)

    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    def test_unit_table_matches_profile(self, profile):
        model = CostModel(profile, VirtualClock())
        for a in CostAction:
            assert model._units[a.index] == round(
                profile.cost_ns(a) * UNITS_PER_NS
            ), a
        assert model._units[CostAction.NETWORK_LATENCY.index] == round(
            profile.network_latency_ns * UNITS_PER_NS
        )

    def test_snapshot_type(self, model):
        model.charge(CostAction.CPU_LOAD, times=3)
        snap = model.snapshot()
        assert type(snap) is Counter
        assert snap == Counter({CostAction.CPU_LOAD: 3})


# one step of a random cost-model call sequence: (op, action, n)
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ("charge", "charge_bytes", "count", "snapshot", "reset",
             "read", "advance", "advance_to")
        ),
        st.sampled_from(tuple(CostAction)),
        st.integers(min_value=0, max_value=4096),
    ),
    max_size=60,
)


class TestDenseMatchesPerCharge:
    """The dense model against the per-charge reference (the noisy model
    at noise 0) and a plain ``Counter``, on every machine profile."""

    @settings(max_examples=60, deadline=None)
    @given(profile=st.sampled_from(PROFILES), steps=_STEPS)
    def test_random_call_sequences_identical(self, profile, steps):
        dense = CostModel(profile, VirtualClock())
        ref = NoisyCostModel(profile, VirtualClock())
        expected = Counter()
        for op, action, n in steps:
            if op == "charge":
                assert dense.charge(action, n) == ref.charge(action, n)
                expected[action] += n
            elif op == "charge_bytes":
                assert dense.charge_bytes(action, n) == ref.charge_bytes(
                    action, n
                )
                expected[action] += 1
            elif op == "count":
                assert dense.count(action) == ref.count(action)
                assert dense.count(action) == expected[action]
            elif op == "snapshot":
                assert dense.snapshot() == ref.snapshot() == expected
            elif op == "reset":
                dense.reset_counts()
                ref.reset_counts()
                expected.clear()
            elif op == "read":
                assert dense.clock.now_ns == ref.clock.now_ns
            elif op == "advance":
                assert dense.clock.advance(n / 8) == ref.clock.advance(n / 8)
            else:
                t = ref.clock.now_ns + n - 2048
                assert dense.clock.advance_to(t) == ref.clock.advance_to(t)
            assert dense.clock._units == ref.clock._units
        assert dense.snapshot() == ref.snapshot() == expected


class TestProfiles:
    def test_lookup_by_name(self):
        assert profile_by_name("intel") is INTEL
        assert profile_by_name("IBM") is IBM
        assert profile_by_name("Marvell") is MARVELL

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            profile_by_name("cray")

    def test_unlisted_action_is_free(self):
        assert GENERIC.cost_ns(CostAction.NETWORK_LATENCY) == 1000.0

    def test_network_latency_special_cased(self):
        assert INTEL.cost_ns(CostAction.NETWORK_LATENCY) == (
            INTEL.network_latency_ns
        )

    @pytest.mark.parametrize("profile", [INTEL, IBM, MARVELL, GENERIC])
    def test_all_costs_nonnegative(self, profile):
        for action, ns in profile.costs_ns.items():
            assert ns >= 0, action

    def test_with_costs_override(self):
        p = GENERIC.with_costs(heap_alloc_promise_cell=0.0)
        assert p.cost_ns(CostAction.HEAP_ALLOC_PROMISE_CELL) == 0.0
        # original untouched (frozen dataclass semantics)
        assert GENERIC.cost_ns(CostAction.HEAP_ALLOC_PROMISE_CELL) > 0

    def test_with_costs_unknown_key_raises(self):
        with pytest.raises(ValueError):
            GENERIC.with_costs(not_an_action=1.0)

    def test_paper_platform_metadata(self):
        assert INTEL.default_conduit == "smp"
        assert IBM.default_conduit == "udp"
        assert MARVELL.default_conduit == "udp"
        assert (INTEL.cores_per_node, IBM.cores_per_node,
                MARVELL.cores_per_node) == (40, 44, 64)

    def test_cost_structure_supports_paper_shapes(self):
        """The qualitative relations the calibration relies on."""
        for p in (INTEL, IBM, MARVELL):
            # deferred notification must cost something beyond the branch
            q = (
                p.cost_ns(CostAction.PROGRESS_QUEUE_ENQUEUE)
                + p.cost_ns(CostAction.PROGRESS_DISPATCH)
            )
            assert q > p.cost_ns(CostAction.LOCALITY_BRANCH)
            # a promise-cell allocation is a dominant per-op cost
            assert p.cost_ns(CostAction.HEAP_ALLOC_PROMISE_CELL) > 5 * (
                p.cost_ns(CostAction.MEMCPY_8B)
            )
        # IBM's allocator/atomics are modeled as the priciest (→ its 95%
        # put speedup, 15% fadd speedup, ~90% non-value gap)
        assert IBM.cost_ns(CostAction.HEAP_ALLOC_PROMISE_CELL) > INTEL.cost_ns(
            CostAction.HEAP_ALLOC_PROMISE_CELL
        )
        assert IBM.cost_ns(CostAction.CPU_ATOMIC_RMW) > INTEL.cost_ns(
            CostAction.CPU_ATOMIC_RMW
        )
