"""Wait targets: what a blocked caller is actually waiting for.

With ``FeatureFlags.wait_hints`` on, a blocking wait (``Future.wait()``,
a finalized promise's future, a barrier) publishes a :class:`WaitTarget`
on its rank's context for the duration of the wait.  The two hot
subsystems consult it:

* the progress engine (:mod:`repro.runtime.progress`) runs a *targeted
  drain* — queued deferred/LPC thunks that resolve the awaited cell are
  dispatched ahead of the adaptive batch cap instead of waiting their
  FIFO turn;
* the AM aggregator (:mod:`repro.gasnet.aggregator`) flushes the awaited
  destination's buffer immediately (plus near-full ride-alongs) instead
  of flushing everything.

A target with neither a cell nor a destination (a barrier — blocked on
*everything*) deliberately changes nothing: the pre-existing
drain-until-quiescent / flush-all behaviour *is* the targeted behaviour
for "waiting on everyone", so such targets exist only for observability.

This module is dependency-free by design: ``runtime.context`` imports
``runtime.progress`` at module level, so the type both (and
``core.future``) share must not import either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


@dataclass(frozen=True)
class WaitTarget:
    """One blocked wait's declared interest, pushed on the context stack.

    Attributes
    ----------
    cell:
        The :class:`~repro.core.cell.PromiseCell` the caller is blocked
        on (``None`` for waits with no single cell, e.g. barriers).
        Queue entries are matched by identity.
    dst_rank:
        Destination rank of the awaited operation when it was injected
        off-node (``None`` for local operations) — the aggregator's
        flush hint.
    dst_ranks:
        Destination ranks of a *multi-operation* wait (a
        :class:`~repro.core.completions.CxCounter` aggregates N member
        operations; waiting on the counter flushes every member's
        off-node destination).  Empty for single-operation waits.
    op:
        Short label of the waiting construct (``"future"``,
        ``"counter"``, ``"barrier"``) for diagnostics.
    """

    cell: Optional[Any] = None
    dst_rank: Optional[int] = None
    dst_ranks: tuple = ()
    op: str = "future"

    @property
    def targeted(self) -> bool:
        """Whether this target narrows the wait at all (a cell to drain
        toward or destinations to flush); non-targeted waits keep the
        engine's drain-everything/flush-all behaviour."""
        return (
            self.cell is not None
            or self.dst_rank is not None
            or bool(self.dst_ranks)
        )

    @property
    def flush_dsts(self) -> tuple:
        """Every destination this wait should flush toward (the single
        ``dst_rank`` and the counter's ``dst_ranks``, deduplicated in
        rank order)."""
        if not self.dst_ranks:
            return (self.dst_rank,) if self.dst_rank is not None else ()
        dsts = set(self.dst_ranks)
        if self.dst_rank is not None:
            dsts.add(self.dst_rank)
        return tuple(sorted(dsts))
