"""Library versions and feature flags.

The paper compares three builds of UPC++ (Section IV):

* ``2021.3.0`` — the official release: deferred notification everywhere,
  an extra heap allocation on the local-RMA path, legacy ``when_all``,
  ready ``future<>`` construction allocates a promise cell, no non-value
  fetching atomics, dynamic ``is_local`` even under the SMP conduit.
* ``2021.3.6 defer`` — a development snapshot with several orthogonal
  optimizations (allocation elision for directly-addressable RMA,
  ``constexpr is_local`` under SMP, shared ready-``future<>`` cell,
  ``when_all`` short-cuts, non-value fetching atomics available) but still
  using deferred notification — the legacy semantics.
* ``2021.3.6 eager`` — the same snapshot with eager notification enabled
  (the paper's contribution; ``as_future``/``as_promise`` default to eager).

Rather than forking the code, each build is a :class:`FeatureFlags` value;
the runtime consults the flags at each decision point, exactly mirroring
where the real implementation's ``#ifdef``/template specializations sit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace

from repro.errors import UpcxxError


class Version(enum.Enum):
    """The three UPC++ builds compared in the paper."""

    V2021_3_0 = "2021.3.0"
    V2021_3_6_DEFER = "2021.3.6-defer"
    V2021_3_6_EAGER = "2021.3.6-eager"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class FeatureFlags:
    """Individual implementation toggles making up a build.

    Attributes
    ----------
    eager_notification:
        ``as_future``/``as_promise`` request eager completion by default
        (Section III-A).  Explicit ``as_defer_*``/``as_eager_*`` factories
        override the default either way (on builds where they exist).
    eager_factories_available:
        Whether the ``as_defer_*``/``as_eager_*`` factories and non-value
        fetching atomics exist at all (2021.3.6 only).
    elide_local_rma_alloc:
        Skip the extra op-descriptor heap allocation for RMA on directly
        addressable pointers (orthogonal 2021.3.6 optimization, §IV-A).
    constexpr_is_local_smp:
        Under the SMP conduit every pointer is directly addressable, so the
        locality branch is compiled away (orthogonal 2021.3.6 optimization,
        §IV-B).
    ready_future_shared_cell:
        Ready value-less ``future<>`` construction reuses a pre-allocated
        shared promise cell instead of heap-allocating (§III-B).
    when_all_shortcuts:
        ``when_all`` returns an input future directly when the others are
        ready and value-less (§III-C).
    nonvalue_fetching_atomics:
        The new ``fetch_*_into`` atomic overloads that write the fetched
        value to memory instead of the notification (§III-B).
    am_aggregation:
        Destination-batched coalescing of small off-node AMs into bundled
        messages (see :mod:`repro.gasnet.aggregator`).  Off by default on
        every build: it is an extension beyond the paper, orthogonal to
        eager/deferred notification, and with it off the runtime behaves
        bit-identically to the seed.
    agg_max_entries / agg_max_bytes:
        Aggregator auto-flush thresholds: a destination buffer flushes
        when it holds this many entries or payload bytes (only consulted
        when ``am_aggregation`` is on).
    progress_adaptive:
        EWMA-based control of the progress engine's drain loop (see
        :mod:`repro.runtime.adaptive_progress`): each full poll observes
        the deferred-queue depth and drain yield, sizes a per-poll drain
        batch cap, and thins the cadence of provably-empty polls (charging
        the cheap ``PROGRESS_POLL_SKIP`` instead of a full
        ``PROGRESS_POLL``).  Off by default on every build: with the flag
        off the engine is bit-identical to the static drain-until-quiescent
        behaviour.
    progress_min_batch / progress_max_batch:
        Floor and ceiling of the controller's per-poll drain batch cap
        (only consulted when ``progress_adaptive`` is on).
    progress_max_poll_interval:
        Ceiling of the poll-thinning interval: at most ``interval - 1``
        consecutive provably-empty progress calls are elided before a
        full poll is forced.  The floor is 1, which never elides.
    progress_max_age_ticks:
        Notification-latency guarantee in simulated-clock ticks (ns): no
        deferred completion waits longer than this once enqueued — aged
        entries are dispatched past the batch cap and opportunistically
        retired at the next engine activity.
    wait_hints:
        Wait-aware completion targeting (see
        :mod:`repro.runtime.wait_hints`): a blocking wait publishes the
        awaited cell/destination on the context, the progress engine
        dispatches matching queued notifications ahead of the adaptive
        batch cap (charging ``PROGRESS_HINT_SCAN`` per targeted scan),
        and the AM aggregator immediately flushes the awaited
        destination's buffer plus near-full ride-alongs instead of
        flushing every buffer.  Off by default on every build: with
        the flag off no target is ever published and the runtime is
        bit-identical to the unhinted behaviour.
    wait_flush_fill_frac:
        Near-full ride-along threshold of the targeted flush (0 < f <=
        1): while a hinted wait is active, a destination buffer whose
        entry or byte fill reaches this fraction of its flush threshold
        is flushed in the same conduit activity as the awaited
        destination, sharing the injection wake-up (only consulted when
        ``wait_hints`` is on).
    obs_spans:
        Operation-lifecycle observability (see :mod:`repro.obs`): every
        asynchronous operation records a span with phase timestamps
        (injected / transfer-complete / notification-dispatched /
        waited), and the progress engine, conduit, and aggregator feed a
        per-rank metrics registry.  Off by default on every build;
        recording charges no cost-model actions, so virtual timings are
        identical either way, and with the flag off ``RankContext.obs``
        stays ``None`` (one attribute check per site — zero cost).
    obs_span_capacity:
        Maximum spans retained per rank; later spans are counted as
        dropped but still stamped (only consulted when ``obs_spans`` is
        on).
    sched_wake_list:
        Event-driven wake lists in the scheduler core:
        a blocking construct that names its wake event (cell readiness,
        barrier epoch advance — see
        :class:`~repro.runtime.switchpoints.BlockUntil`) parks on a wake
        bit that the completion site sets, instead of having its predicate
        re-evaluated by every switch's round-robin scan.  Promotion sets,
        picks, virtual clocks, and switch traces are bit-identical to the
        scan (the order-preservation argument is in DESIGN.md §11); any
        keyless block falls back to the scan until it wakes.  On by
        default on every build; turning it off restores the pure
        predicate-scan scheduler — the differential oracle the parity and
        fuzz suites diff against.
    cx_continuations:
        Notifiable completion objects beyond futures/promises (see
        :mod:`repro.core.completions` and DESIGN.md §13): continuation
        completions (``operation_cx.as_continuation(fn)`` — the callback
        runs inline at whichever agent observes completion, with zero
        future/cell allocation) and counter completions
        (:class:`~repro.core.completions.CxCounter` — N operation events
        aggregate into one notification, targetable by ``wait_hints`` as
        a unit).  Off by default on every build: with the flag off the
        factories raise ``CompletionError`` and no code path changes, so
        the runtime is bit-identical to the future/promise-only
        behaviour.
    """

    eager_notification: bool
    eager_factories_available: bool
    elide_local_rma_alloc: bool
    constexpr_is_local_smp: bool
    ready_future_shared_cell: bool
    when_all_shortcuts: bool
    nonvalue_fetching_atomics: bool
    am_aggregation: bool = False
    agg_max_entries: int = 32
    agg_max_bytes: int = 4096
    obs_spans: bool = False
    obs_span_capacity: int = 65536
    progress_adaptive: bool = False
    progress_min_batch: int = 4
    progress_max_batch: int = 256
    progress_max_poll_interval: int = 64
    progress_max_age_ticks: float = 32768.0
    wait_hints: bool = False
    wait_flush_fill_frac: float = 0.5
    sched_wake_list: bool = True
    cx_continuations: bool = False

    def __post_init__(self):
        """Reject unusable aggregation knobs at construction.

        A zero/negative threshold would make a destination buffer never
        flush on its own — with the old aggregator-side check this was
        only caught when a world with ``am_aggregation`` was built, and
        not at all for flag values constructed but consumed later.  The
        knobs are validated here, at the single choke point every
        configuration passes through.
        """
        if self.agg_max_entries < 1:
            raise UpcxxError(
                f"agg_max_entries must be >= 1, got {self.agg_max_entries}"
            )
        if self.agg_max_bytes < 1:
            raise UpcxxError(
                f"agg_max_bytes must be >= 1, got {self.agg_max_bytes}"
            )
        if self.obs_span_capacity < 1:
            raise UpcxxError(
                f"obs_span_capacity must be >= 1, got {self.obs_span_capacity}"
            )
        if self.progress_min_batch < 1:
            raise UpcxxError(
                f"progress_min_batch must be >= 1, got {self.progress_min_batch}"
            )
        if self.progress_max_batch < 1:
            raise UpcxxError(
                f"progress_max_batch must be >= 1, got {self.progress_max_batch}"
            )
        if self.progress_max_poll_interval < 1:
            raise UpcxxError(
                "progress_max_poll_interval must be >= 1, got "
                f"{self.progress_max_poll_interval}"
            )
        if (
            self.progress_adaptive
            and self.progress_min_batch > self.progress_max_batch
        ):
            # the floor/ceiling range only binds when the controller
            # actually operates on it
            raise UpcxxError(
                "progress_min_batch must not exceed progress_max_batch "
                f"({self.progress_min_batch} > {self.progress_max_batch})"
            )
        if self.progress_max_age_ticks <= 0:
            raise UpcxxError(
                "progress_max_age_ticks must be > 0, got "
                f"{self.progress_max_age_ticks}"
            )
        if not (0.0 < self.wait_flush_fill_frac <= 1.0):
            raise UpcxxError(
                "wait_flush_fill_frac must be in (0, 1], got "
                f"{self.wait_flush_fill_frac}"
            )

    def replace(self, **kw) -> "FeatureFlags":
        """A copy with the given flags overridden (ablation support)."""
        return replace(self, **kw)


_FLAGS_BY_VERSION: dict[Version, FeatureFlags] = {
    Version.V2021_3_0: FeatureFlags(
        eager_notification=False,
        eager_factories_available=False,
        elide_local_rma_alloc=False,
        constexpr_is_local_smp=False,
        ready_future_shared_cell=False,
        when_all_shortcuts=False,
        nonvalue_fetching_atomics=False,
    ),
    Version.V2021_3_6_DEFER: FeatureFlags(
        eager_notification=False,
        eager_factories_available=True,
        elide_local_rma_alloc=True,
        constexpr_is_local_smp=True,
        ready_future_shared_cell=True,
        when_all_shortcuts=True,
        nonvalue_fetching_atomics=True,
    ),
    Version.V2021_3_6_EAGER: FeatureFlags(
        eager_notification=True,
        eager_factories_available=True,
        elide_local_rma_alloc=True,
        constexpr_is_local_smp=True,
        ready_future_shared_cell=True,
        when_all_shortcuts=True,
        nonvalue_fetching_atomics=True,
    ),
}


def flags_for(version: Version) -> FeatureFlags:
    """The feature set of a given build."""
    return _FLAGS_BY_VERSION[version]


def flag_names() -> tuple[str, ...]:
    """Every :class:`FeatureFlags` field name (spec validation helper)."""
    return tuple(f.name for f in fields(FeatureFlags))


def flag_delta(a: FeatureFlags, b: FeatureFlags) -> dict:
    """Field name -> ``(a_value, b_value)`` for every flag on which the
    two feature sets disagree.

    This is the A/B discipline's measurement device (see
    :mod:`repro.bench.ab`): an experiment's two arms must differ in
    *exactly* the declared toggle — the engine asserts
    ``flag_delta(arm_a, arm_b)`` covers the toggle keys and nothing else,
    so a spec can never silently compare configurations that drifted
    apart in some unrelated knob.
    """
    out = {}
    for f in fields(FeatureFlags):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if va != vb:
            out[f.name] = (va, vb)
    return out


@dataclass(frozen=True)
class RuntimeConfig:
    """Complete configuration of one simulated run.

    Combines the library build (version or explicit flag overrides), the
    machine profile name, and the conduit.  ``flags`` defaults to the
    version's standard feature set; benchmarks doing ablations pass custom
    flags.
    """

    version: Version = Version.V2021_3_6_EAGER
    machine: str = "generic"
    conduit: str = "smp"
    flags: FeatureFlags | None = None
    seed: int = 0
    #: relative timing jitter (0 = deterministic virtual time; >0 makes
    #: the paper's 20-sample/top-10 estimator meaningful — see
    #: repro.sim.stats)
    noise: float = 0.0

    def resolved_flags(self) -> FeatureFlags:
        if self.flags is not None:
            return self.flags
        return flags_for(self.version)

    def describe(self) -> str:
        return (
            f"version={self.version.value} machine={self.machine} "
            f"conduit={self.conduit} seed={self.seed}"
        )
