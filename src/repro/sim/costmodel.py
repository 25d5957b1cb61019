"""Cost accounting for runtime-internal actions.

The reproduction's core measurement device: every action the UPC++-style
runtime performs on the critical path of a communication operation is named
by a :class:`CostAction`, and a :class:`CostModel` charges that action's
nanosecond cost (from a :class:`~repro.sim.machines.MachineProfile`) onto the
calling rank's :class:`~repro.sim.clock.VirtualClock`.

The action vocabulary mirrors Section II-B/III of the paper:

* ``HEAP_ALLOC_PROMISE_CELL`` — the internal promise cell backing a
  non-ready future (the cost eager notification removes);
* ``HEAP_ALLOC_OP_DESCRIPTOR`` — the *extra* per-RMA allocation that the
  2021.3.6 snapshot elides for directly-addressable pointers (orthogonal to
  eager/defer, Section IV-A);
* ``PROGRESS_QUEUE_ENQUEUE`` / ``PROGRESS_DISPATCH`` — insertion into the
  internal progress queue and later dispatch by the progress engine;
* ``WHEN_ALL_NODE_BUILD`` / ``DEP_GRAPH_RESOLVE_EDGE`` — construction and
  resolution of the dynamically-discovered dependency graph (Figure 1);
* ``LOCALITY_BRANCH`` — the dynamic ``is_local`` check (compiled away under
  the SMP conduit in 2021.3.6, and the *single* branch added to the
  off-node path by eager support);
* data-movement primitives (``MEMCPY_8B``, ``CPU_ATOMIC_RMW``, …) and the
  active-message path (``AM_INJECT``/``AM_POLL``/``AM_EXECUTE``).

A :class:`CostModel` also counts how many times each action fired, which the
tests use to assert *structural* claims (e.g. "the eager local put performs
zero heap allocations", "the off-node path gained exactly one branch").
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import TYPE_CHECKING

from repro.sim.clock import UNITS_PER_NS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.clock import VirtualClock
    from repro.sim.machines import MachineProfile

_INV_UNITS = 1.0 / UNITS_PER_NS


class CostAction(enum.Enum):
    """Named runtime-internal actions with per-machine nanosecond costs.

    Every member carries a dense ``index`` (``0..N-1`` in declaration
    order), which the cost model uses to keep its per-action tables in
    flat lists: an enum-keyed dict lookup pays a Python-level
    ``Enum.__hash__`` on every charge.
    """

    index: int

    # -- heap traffic ----------------------------------------------------
    HEAP_ALLOC_PROMISE_CELL = "heap_alloc_promise_cell"
    HEAP_ALLOC_OP_DESCRIPTOR = "heap_alloc_op_descriptor"
    HEAP_FREE = "heap_free"

    # -- progress engine ---------------------------------------------------
    PROGRESS_QUEUE_ENQUEUE = "progress_queue_enqueue"
    PROGRESS_DISPATCH = "progress_dispatch"
    PROGRESS_POLL = "progress_poll"
    #: one observation of the adaptive progress controller: EWMA updates of
    #: the deferred-queue depth / drain yield plus the cap recompute (paid
    #: per full poll when ``progress_adaptive`` is on)
    PROGRESS_ADAPT = "progress_adapt"
    #: an elided empty poll: the adaptive engine proved no work was possible
    #: and charged this instead of a full ``PROGRESS_POLL`` (the cadence
    #: saving the controller exists to buy)
    PROGRESS_POLL_SKIP = "progress_poll_skip"
    #: one targeted scan of the deferred/LPC queues for thunks resolving
    #: the cell an active wait is blocked on (paid per poll while a
    #: ``wait_hints`` target with a cell is published)
    PROGRESS_HINT_SCAN = "progress_hint_scan"

    # -- future / promise machinery --------------------------------------
    FUTURE_READY_CHECK = "future_ready_check"
    FUTURE_CALLBACK_SCHEDULE = "future_callback_schedule"
    WHEN_ALL_NODE_BUILD = "when_all_node_build"
    DEP_GRAPH_RESOLVE_EDGE = "dep_graph_resolve_edge"
    PROMISE_REGISTER = "promise_register"
    PROMISE_FULFILL = "promise_fulfill"

    # -- notifiable completions: continuations / counters ------------------
    #: running one continuation completion's callback inline at the agent
    #: that observed completion (``notify_sync`` fast path or the progress
    #: engine's ack dispatch) — the whole per-op cost of the callback path,
    #: replacing cell allocation + ready-check + wait machinery
    CX_CONTINUATION_DISPATCH = "cx_continuation_dispatch"
    #: one member operation signalling its :class:`CxCounter` (an integer
    #: decrement on the shared cell; the N-ops-to-one-notification
    #: amortization counters exist to buy)
    CX_COUNTER_SIGNAL = "cx_counter_signal"
    #: the counter tripping: the Nth signal fires the single aggregate
    #: notification (callback run + wake push), charged once per counter
    CX_COUNTER_TRIP = "cx_counter_trip"

    # -- pointer / dispatch ------------------------------------------------
    LOCALITY_BRANCH = "locality_branch"
    GPTR_DOWNCAST = "gptr_downcast"
    RMA_CALL_OVERHEAD = "rma_call_overhead"
    AMO_CALL_OVERHEAD = "amo_call_overhead"
    COMPLETION_PROCESS = "completion_process"

    # -- data movement -----------------------------------------------------
    MEMCPY_8B = "memcpy_8b"
    MEMCPY_PER_BYTE = "memcpy_per_byte"
    CPU_ATOMIC_RMW = "cpu_atomic_rmw"
    CPU_LOAD = "cpu_load"
    CPU_STORE = "cpu_store"
    #: random access into a table far larger than cache (GUPS's defining
    #: cost; cache-hot microbenchmark loops never pay it)
    DRAM_RANDOM_ACCESS = "dram_random_access"
    #: coherence/fence penalty paid per co-located peer when many processes
    #: issue atomic RMWs concurrently (why the paper's 16-process GUPS sees
    #: atomics as far costlier than the 2-process microbenchmark does)
    AMO_CONTENTION_PER_PEER = "amo_contention_per_peer"

    # -- active messages / network ----------------------------------------
    AM_INJECT = "am_inject"
    AM_POLL = "am_poll"
    AM_EXECUTE = "am_execute"
    NETWORK_LATENCY = "network_latency"
    RPC_SERIALIZE_PER_BYTE = "rpc_serialize_per_byte"
    #: appending one small AM to a per-destination aggregation buffer (the
    #: cheap operation that replaces a full ``AM_INJECT`` when destination
    #: batching is on — the amortization the aggregator exists to buy)
    AM_AGG_APPEND = "am_agg_append"
    #: building/writing the bundle header when a destination buffer is
    #: flushed as one bundled AM (paid once per bundle, on the sender)
    AM_BUNDLE_HEADER = "am_bundle_header"
    #: receiver-side dispatch of one entry out of a delivered bundle
    #: (cheaper than a full ``AM_EXECUTE``: no per-message poll/queue work)
    AM_BUNDLE_ENTRY_DISPATCH = "am_bundle_entry_dispatch"
    #: one observation of the adaptive batching controller: EWMA updates
    #: of the destination's inter-arrival gap / payload size plus the
    #: threshold recompute (paid per append when ``agg_adaptive`` is on)
    AM_AGG_ADAPT = "am_agg_adapt"
    #: delta-encoding one bundle entry at flush time (run detection and
    #: continuation-header emission; paid per entry when
    #: ``agg_compression`` is on)
    AM_BUNDLE_COMPRESS = "am_bundle_compress"

    # -- misc ----------------------------------------------------------------
    LPC_ENQUEUE = "lpc_enqueue"
    BARRIER = "barrier"
    FUNCTION_CALL = "function_call"


_ACTIONS: tuple[CostAction, ...] = tuple(CostAction)
for _i, _a in enumerate(_ACTIONS):
    _a.index = _i
del _i, _a


class CostModel:
    r"""Charges :class:`CostAction` costs onto a rank's virtual clock.

    Parameters
    ----------
    profile:
        The machine profile supplying per-action nanosecond costs.
    clock:
        The rank's virtual clock; may be swapped via :attr:`clock` when a
        context is re-bound.

    Notes
    -----
    Counting is always on; it is what lets tests make structural
    assertions independent of the tuned constants.

    Per-action costs are resolved once, at construction, into a flat list
    of exact integer clock units indexed by :attr:`CostAction.index` (the
    profile quantizes every cost to the 2\ :sup:`-20` ns grid, see
    :meth:`MachineProfile.cost_ns`); counts live in a parallel list.  A
    charge is two list reads, one count add and one integer add onto the
    clock's unit counter: no enum hashing, no clock method call, no float
    round trip.  Integer addition is exact, so the clock reads exactly as
    if every charge had gone through :meth:`VirtualClock.advance` —
    which is what :class:`NoisyCostModel` does, per charge.
    """

    __slots__ = ("profile", "clock", "enabled", "tracer", "_ctx",
                 "_units", "_counts")

    def __init__(self, profile: "MachineProfile", clock: "VirtualClock"):
        self.profile = profile
        self.clock = clock
        self.enabled: bool = True
        #: action index -> integer clock units (resolves the profile's
        #: NETWORK_LATENCY special case once; exact because the profile
        #: quantizes to the unit grid)
        self._units: list[int] = [
            round(profile.cost_ns(a) * UNITS_PER_NS) for a in _ACTIONS
        ]
        #: action index -> times charged
        self._counts: list[int] = [0] * len(_ACTIONS)
        #: optional repro.sim.trace.Tracer recording the event timeline
        self.tracer = None
        #: back-reference set by RankContext (used only for tracing)
        self._ctx = None

    def charge(self, action: CostAction, times: int = 1) -> float:
        """Charge ``times`` occurrences of ``action``; return ns charged."""
        if not self.enabled:
            return 0.0
        i = action.index
        self._counts[i] += times
        units = self._units[i] * times
        self.clock._units += units
        if self.tracer is not None:
            self.tracer.record(self._ctx, action, times)
        return units * _INV_UNITS

    def charge_bytes(self, action: CostAction, nbytes: int) -> float:
        """Charge a per-byte action scaled by ``nbytes``."""
        if not self.enabled:
            return 0.0
        i = action.index
        self._counts[i] += 1
        units = self._units[i] * nbytes
        self.clock._units += units
        if self.tracer is not None:
            self.tracer.record(self._ctx, action, 1)
        return units * _INV_UNITS

    # -- queries -------------------------------------------------------------

    def count(self, action: CostAction) -> int:
        """How many times ``action`` has been charged."""
        return self._counts[action.index]

    def snapshot(self) -> Counter:
        """A copy of the current action counters (for differential checks)."""
        return Counter({a: c for a, c in zip(_ACTIONS, self._counts) if c})

    def reset_counts(self) -> None:
        """Zero the action counters (clock is left untouched)."""
        self._counts = [0] * len(_ACTIONS)


class NoisyCostModel(CostModel):
    """The per-charge cost path, with optional one-sided timing jitter.

    Each charge converts its cost to float nanoseconds, scales it by the
    jitter draw and advances the clock through
    :meth:`VirtualClock.advance`.  ``RankContext`` builds one when
    ``RuntimeConfig.noise > 0``; at ``noise=0`` it draws nothing and is
    the per-charge reference the tests diff :class:`CostModel` against.

    Noise is one-sided — interference (OS, other processes, coherence
    traffic) only ever *adds* time — which is exactly why the paper's
    estimator keeps the *best* 10 of 20 samples.
    """

    __slots__ = ("noise", "noise_rng", "noise_run_factor")

    def __init__(
        self,
        profile: "MachineProfile",
        clock: "VirtualClock",
        noise: float = 0.0,
        noise_rng=None,
        noise_run_factor: float = 1.0,
    ):
        super().__init__(profile, clock)
        #: relative per-charge jitter (0.0 = deterministic)
        self.noise = noise
        #: seeded random.Random drawing the per-charge jitter
        self.noise_rng = noise_rng
        #: run-wide interference factor (>= 1): co-runners/OS activity
        #: slow a whole sample, not individual instructions.  This
        #: correlated component is what the top-10-of-N estimator filters.
        self.noise_run_factor = noise_run_factor

    def charge(self, action: CostAction, times: int = 1) -> float:
        return self._advance(action, times, times)

    def charge_bytes(self, action: CostAction, nbytes: int) -> float:
        return self._advance(action, 1, nbytes)

    def _advance(self, action: CostAction, count: int, scale: int) -> float:
        if not self.enabled:
            return 0.0
        i = action.index
        self._counts[i] += count
        ns = self._units[i] * _INV_UNITS * scale
        if self.noise and self.noise_rng is not None and ns > 0:
            per_charge = 1.0 + self.noise * abs(self.noise_rng.gauss(0, 1))
            ns = ns * self.noise_run_factor * per_charge
        if ns:
            self.clock.advance(ns)
        if self.tracer is not None:
            self.tracer.record(self._ctx, action, count)
        return ns
