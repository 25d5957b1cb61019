"""Online control of the progress engine's drain loop.

The progress engine of :mod:`repro.runtime.progress` is static in two ways:

* **drain depth** — every poll drains until quiescent, so a rank that
  enters progress behind a deep backlog pays the whole backlog at once
  even when the caller only needed one completion;
* **poll cadence** — every call charges a full ``PROGRESS_POLL`` even when
  the engine can prove there is nothing to do (no deferred notifications,
  no LPCs, no arrived AMs, no parked aggregation), which is the common
  case for wait loops spinning on a remote event.

This module applies EWMA control to both dimensions.  Estimators, updated
once per *full* poll (``a = 0.25``)::

    d_hat <- a*depth + (1-a)*d_hat      deferred-queue depth at poll entry
    y_hat <- a*y     + (1-a)*y_hat      y = 1 if the poll did work else 0

Control law::

    cap      = clamp(progress_min_batch, floor(1 + 2*d_hat), progress_max_batch)
    interval = clamp(1, floor(1 / max(y_hat, eps)), progress_max_poll_interval)

``cap`` bounds dispatches per poll — a 2x slack over the typical depth so
steady traffic still drains to quiescence while a pathological backlog is
amortized across polls.  ``interval`` thins provably-empty polls: up to
``interval - 1`` consecutive empty progress calls charge the cheap
``PROGRESS_POLL_SKIP`` instead of a full ``PROGRESS_POLL``; a busy stream
(``y_hat`` near 1) drives the interval back to 1.

Latency guarantee — the batch cap must not strand notifications, so the
engine enforces ``progress_max_age_ticks``: an entry older than the bound
is dispatched *past* the cap, and enqueue-time activity opportunistically
retires aged entries (see
:meth:`repro.runtime.progress.ProgressEngine.progress`).

The controller is pure bookkeeping plus one cheap modeled charge
(``PROGRESS_ADAPT`` per full poll, costed in every machine profile); its
decisions are exported via :meth:`AdaptiveProgressController.snapshot` and
rolled up world-wide by :func:`repro.sim.stats.progress_stats`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.config import FeatureFlags

#: retained control decisions per rank (a converged controller stops
#: producing entries)
TRAJECTORY_CAP = 1024
#: blending factor of the depth and yield EWMA estimators
_EWMA_ALPHA = 0.25
#: floor of the poll-thinning interval (1 = a busy stream never elides)
_MIN_POLL_INTERVAL = 1


@dataclass(frozen=True)
class ProgressDecision:
    """One recorded controller output (emitted only when it changes)."""

    t_ns: float
    drain_cap: int
    poll_interval: int


@dataclass(frozen=True)
class ProgressControllerSnapshot:
    """Point-in-time view of one rank's progress controller (see
    :meth:`AdaptiveProgressController.snapshot`)."""

    rank: int
    #: full polls observed (each charges PROGRESS_POLL + PROGRESS_ADAPT)
    full_polls: int
    #: provably-empty polls elided (each charges PROGRESS_POLL_SKIP)
    skipped_polls: int
    #: thunks dispatched under the controller (drain loop + aged retires)
    dispatched: int
    #: polls that hit the drain cap with non-aged work left over
    capped_polls: int
    #: enqueue-time mini-drains triggered by the age bound
    aged_drains: int
    #: thunks retired because they outlived ``progress_max_age_ticks``
    aged_dispatched: int
    #: targeted-drain scans that found awaited work (``wait_hints``)
    hinted_scans: int
    #: thunks dispatched ahead of the cap for an active wait target
    hinted_dispatched: int
    #: EWMA of deferred-queue depth at full-poll entry (None before data)
    depth_ewma: float | None
    #: EWMA of the did-work fraction of full polls (None before data)
    yield_ewma: float | None
    #: current drain batch cap
    drain_cap: int
    #: current poll-thinning interval
    poll_interval: int
    #: recorded control decisions, oldest first
    trajectory: tuple[ProgressDecision, ...]

    @property
    def elision_ratio(self) -> float:
        """Fraction of progress calls elided as skips."""
        calls = self.full_polls + self.skipped_polls
        if not calls:
            return 0.0
        return self.skipped_polls / calls


class AdaptiveProgressController:
    """Per-rank online sizing of the drain batch cap and poll cadence."""

    __slots__ = (
        "max_age_ns", "floor_batch", "ceil_batch", "ceil_interval",
        "depth_ewma", "yield_ewma", "_drain_cap", "_poll_interval",
        "_skips_since_full",
        "full_polls", "skipped_polls", "dispatched", "capped_polls",
        "aged_drains", "aged_dispatched", "hinted_scans",
        "hinted_dispatched", "trajectory",
    )

    def __init__(self, flags: "FeatureFlags"):
        self.max_age_ns = flags.progress_max_age_ticks
        self.floor_batch = flags.progress_min_batch
        self.ceil_batch = flags.progress_max_batch
        self.ceil_interval = flags.progress_max_poll_interval
        self.depth_ewma: float | None = None
        self.yield_ewma: float | None = None
        # before any data: drain like the static engine (ceiling) and poll
        # on every call (floor) — the controller only deviates on evidence
        self._drain_cap = self.ceil_batch
        self._poll_interval = _MIN_POLL_INTERVAL
        self._skips_since_full = 0
        self.full_polls = 0
        self.skipped_polls = 0
        self.dispatched = 0
        self.capped_polls = 0
        self.aged_drains = 0
        self.aged_dispatched = 0
        self.hinted_scans = 0
        self.hinted_dispatched = 0
        self.trajectory: deque[ProgressDecision] = deque(maxlen=TRAJECTORY_CAP)

    # -- current outputs ---------------------------------------------------

    @property
    def drain_cap(self) -> int:
        return self._drain_cap

    @property
    def poll_interval(self) -> int:
        return self._poll_interval

    def may_skip(self) -> bool:
        """Whether the cadence allows eliding one more provably-empty poll
        (the engine has already established there is no possible work)."""
        return self._skips_since_full < self._poll_interval - 1

    # -- observations ------------------------------------------------------

    def on_skip(self) -> None:
        """Record one elided empty poll."""
        self.skipped_polls += 1
        self._skips_since_full += 1

    def on_poll(self, depth: int) -> int:
        """Record full-poll entry at deferred-queue ``depth``; return the
        drain cap to apply to this poll."""
        self._skips_since_full = 0
        self.full_polls += 1
        if self.depth_ewma is None:
            self.depth_ewma = float(depth)
        else:
            self.depth_ewma = (
                _EWMA_ALPHA * depth + (1 - _EWMA_ALPHA) * self.depth_ewma
            )
        cap = int(1 + 2 * self.depth_ewma)
        self._drain_cap = max(self.floor_batch, min(cap, self.ceil_batch))
        return self._drain_cap

    def on_drained(
        self, now_ns: float, dispatched: int, leftover: int, did_work: bool
    ) -> None:
        """Record full-poll exit: ``dispatched`` thunks run, ``leftover``
        still queued (cap hit), ``did_work`` the poll's overall yield."""
        self.dispatched += dispatched
        if leftover:
            self.capped_polls += 1
        y = 1.0 if did_work else 0.0
        if self.yield_ewma is None:
            self.yield_ewma = y
        else:
            self.yield_ewma = (
                _EWMA_ALPHA * y + (1 - _EWMA_ALPHA) * self.yield_ewma
            )
        eps = 1.0 / self.ceil_interval
        interval = int(1.0 / max(self.yield_ewma, eps))
        self._poll_interval = max(
            _MIN_POLL_INTERVAL, min(interval, self.ceil_interval)
        )
        decision = ProgressDecision(now_ns, self._drain_cap, self._poll_interval)
        if (
            not self.trajectory
            or (self.trajectory[-1].drain_cap,
                self.trajectory[-1].poll_interval)
            != (decision.drain_cap, decision.poll_interval)
        ):
            self.trajectory.append(decision)

    def on_aged_drain(self, dispatched: int) -> None:
        """Record one enqueue-time mini-drain retiring aged entries."""
        self.aged_drains += 1
        self.aged_dispatched += dispatched
        self.dispatched += dispatched

    def on_hinted(self, dispatched: int) -> None:
        """Record one targeted drain that dispatched awaited thunks ahead
        of the batch cap (``wait_hints``)."""
        self.hinted_scans += 1
        self.hinted_dispatched += dispatched
        self.dispatched += dispatched

    # -- export ------------------------------------------------------------

    def snapshot(self, rank: int) -> ProgressControllerSnapshot:
        return ProgressControllerSnapshot(
            rank=rank,
            full_polls=self.full_polls,
            skipped_polls=self.skipped_polls,
            dispatched=self.dispatched,
            capped_polls=self.capped_polls,
            aged_drains=self.aged_drains,
            aged_dispatched=self.aged_dispatched,
            hinted_scans=self.hinted_scans,
            hinted_dispatched=self.hinted_dispatched,
            depth_ewma=self.depth_ewma,
            yield_ewma=self.yield_ewma,
            drain_cap=self._drain_cap,
            poll_interval=self._poll_interval,
            trajectory=tuple(self.trajectory),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AdaptiveProgressController polls={self.full_polls} "
            f"skips={self.skipped_polls} cap={self._drain_cap} "
            f"interval={self._poll_interval}>"
        )
