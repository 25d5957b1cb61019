r"""Per-rank virtual clocks.

Each simulated rank owns a :class:`VirtualClock` measuring nanoseconds of
simulated execution.  Runtime actions advance the clock through
:meth:`VirtualClock.advance`; synchronization points (barriers, AM arrival)
use :meth:`VirtualClock.advance_to` to move a clock forward to an absolute
time (never backward — virtual time is monotone per rank).

Internally the clock counts integer *units* of 2\ :sup:`-20` ns
(:data:`UNITS_PER_NS` per nanosecond).  Machine-profile costs are quantized
to this grid at the profile level (:meth:`MachineProfile.cost_ns`), so
every charge is an exact integer number of units and accumulation is
integer addition.  That is what lets the cost model add a charge's units
straight onto :attr:`VirtualClock._units` while staying **bit-identical**
to advancing the clock through the float API one charge at a time.  The
float-facing API is exact both ways: a unit count below 2\ :sup:`53`
converts to float without rounding (the grid is dyadic), which bounds
exact operation to ~8.6 virtual seconds per rank — orders of magnitude
beyond any modeled run.
"""

from __future__ import annotations

#: fixed-point resolution: clock units per nanosecond (a power of two, so
#: unit counts convert to float nanoseconds exactly below 2**53 units)
UNITS_PER_NS = 1 << 20

_INV_UNITS = 1.0 / UNITS_PER_NS


class VirtualClock:
    """A monotone per-rank nanosecond counter (integer fixed-point inside).

    The clock also tracks a set of named accumulation buckets so benchmarks
    can attribute virtual time to phases (e.g. ``"solve"`` vs ``"init"``)
    via :meth:`mark`/:meth:`elapsed_since`.
    """

    __slots__ = ("_units", "_marks")

    def __init__(self, start_ns: float = 0.0):
        #: current time in integer units of 2**-20 ns
        self._units: int = round(start_ns * UNITS_PER_NS)
        self._marks: dict[str, float] = {}

    @property
    def now_ns(self) -> float:
        """The current virtual time."""
        return self._units * _INV_UNITS

    @now_ns.setter
    def now_ns(self, t_ns: float) -> None:
        self._units = round(t_ns * UNITS_PER_NS)

    def advance(self, ns: float) -> float:
        """Advance the clock by ``ns`` nanoseconds and return the new time.

        Negative advances are rejected: virtual time is monotone.  ``ns``
        values on the unit grid (every quantized profile cost and sum
        thereof) advance exactly; off-grid values round to the nearest
        unit — deterministically, so two runs still agree.
        """
        if ns < 0:
            raise ValueError(f"cannot advance clock by negative time {ns}")
        self._units += round(ns * UNITS_PER_NS)
        return self._units * _INV_UNITS

    def advance_to(self, t_ns: float) -> float:
        """Move the clock forward to absolute time ``t_ns`` if it is ahead
        of the current time; otherwise leave the clock unchanged.

        Returns the (possibly unchanged) current time.  This models waiting
        for an event that happened at ``t_ns`` on another rank's timeline.
        Off-grid targets (e.g. arrival stamps with a bandwidth term) round
        to the nearest unit before the comparison, so the same target
        always lands every waiting rank on the same grid point.
        """
        units = round(t_ns * UNITS_PER_NS)
        if units > self._units:
            self._units = units
        return self._units * _INV_UNITS

    # -- phase marks -----------------------------------------------------

    def mark(self, name: str) -> None:
        """Record the current time under ``name`` (for elapsed queries)."""
        self._marks[name] = self.now_ns

    def elapsed_since(self, name: str) -> float:
        """Nanoseconds elapsed since :meth:`mark` was called with ``name``."""
        try:
            return self.now_ns - self._marks[name]
        except KeyError:
            raise KeyError(f"no mark named {name!r} on this clock") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now_ns={self.now_ns!r})"
