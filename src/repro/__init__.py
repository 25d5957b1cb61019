"""repro — a Python APGAS runtime reproducing *"Optimization of
Asynchronous Communication Operations through Eager Notifications"*
(Kamil & Bonachea, SC 2021).

The public API mirrors UPC++ (namespace qualifiers elided, as in the
paper's listings)::

    from repro import (
        spmd_run, rank_me, rank_n, barrier,
        new_, new_array, delete_,
        rput, rget, rget_into, when_all, make_future,
        Promise, operation_cx, source_cx, remote_cx,
        AtomicDomain, rpc, rpc_ff, Version,
    )

    def main():
        gptr = new_("i64", 3)           # allocate in my shared segment
        fut = rput(42, gptr)             # asynchronous put
        fut.wait()
        assert rget(gptr).wait() == 42
        barrier()

    spmd_run(main, ranks=4, version=Version.V2021_3_6_EAGER)

Everything runs inside a simulated SPMD world (all ranks cooperatively
scheduled on one event loop) with virtual-time cost accounting; see
DESIGN.md for the reproduction methodology.
"""

from __future__ import annotations

from repro.atomics import AMO_OPS, AtomicDomain
from repro.core import (
    Completions,
    CxCounter,
    Event,
    Future,
    Promise,
    make_future,
    operation_cx,
    remote_cx,
    source_cx,
    to_future,
    when_all,
)
from repro.errors import UpcxxError
from repro.gasnet.team import Team
from repro.memory.global_ptr import GlobalPtr, LocalRef
from repro.memory.segment import TypeSpec, type_spec
from repro.coll import barrier_async, broadcast, reduce_all, reduce_one
from repro.rma import (
    copy,
    rget,
    rget_bulk,
    rget_indexed,
    rget_into,
    rget_strided,
    rput,
    rput_bulk,
    rput_indexed,
    rput_strided,
)
from repro.rpc import rpc, rpc_ff
from repro.runtime import RuntimeConfig, SpmdResult, Version, spmd_run
from repro.runtime.config import FeatureFlags, flags_for
from repro.runtime.context import current_ctx, current_ctx_or_none
from repro.runtime.dist import DistObject
from repro.runtime.persona import (
    Persona,
    current_persona,
    lpc,
    master_persona,
    persona_scope,
)
from repro.sim.machines import GENERIC, IBM, INTEL, MARVELL, profile_by_name

__version__ = "1.0.0"

__all__ = [
    # runtime / world
    "spmd_run", "SpmdResult", "Version", "RuntimeConfig", "FeatureFlags",
    "flags_for", "rank_me", "rank_n", "barrier", "barrier_gen", "progress",
    "world_team", "local_team", "current_ctx", "current_ctx_or_none",
    # memory
    "GlobalPtr", "LocalRef", "TypeSpec", "type_spec",
    "new_", "new_array", "delete_",
    # futures / promises / completions
    "Future", "Promise", "make_future", "to_future", "when_all",
    "Completions", "CxCounter", "Event",
    "operation_cx", "source_cx", "remote_cx",
    # communication
    "rput", "rput_bulk", "rget", "rget_into", "rget_bulk", "copy",
    "rput_strided", "rget_strided", "rput_indexed", "rget_indexed",
    "AtomicDomain", "AMO_OPS", "rpc", "rpc_ff",
    # collectives / distributed objects
    "broadcast", "reduce_one", "reduce_all", "barrier_async", "DistObject",
    # personas
    "Persona", "master_persona", "current_persona", "persona_scope", "lpc",
    # teams / profiles
    "Team", "INTEL", "IBM", "MARVELL", "GENERIC", "profile_by_name",
    "UpcxxError",
]


# ---------------------------------------------------------------------------
# SPMD convenience functions (the upcxx:: free functions)
# ---------------------------------------------------------------------------


def rank_me() -> int:
    """The calling rank's index in the world (``upcxx::rank_me``)."""
    return current_ctx().rank


def rank_n() -> int:
    """The number of ranks in the world (``upcxx::rank_n``)."""
    return current_ctx().world_size


def barrier() -> None:
    """Block until all ranks arrive (``upcxx::barrier``); runs progress."""
    current_ctx().barrier()


def barrier_gen():
    """Generator form of :func:`barrier` for continuation rank bodies:
    ``yield from barrier_gen()``.  The event loop interprets the yields in
    place; :func:`barrier` drives the same generator through the blocking
    primitives."""
    return current_ctx().barrier_gen()


def progress() -> None:
    """Invoke the progress engine (``upcxx::progress``)."""
    current_ctx().progress()


def world_team() -> Team:
    """The team of all ranks."""
    return current_ctx().world.world_team()


def local_team() -> Team:
    """The team of ranks co-located on the caller's node (PSHM peers)."""
    ctx = current_ctx()
    return ctx.world.local_team(ctx)


# ---------------------------------------------------------------------------
# shared-heap allocation (upcxx::new_ / new_array / delete_)
# ---------------------------------------------------------------------------


def new_(ts: str | TypeSpec = "u64", value=0) -> GlobalPtr:
    """Allocate one element in the calling rank's shared segment and
    initialize it to ``value``; returns the global pointer."""
    ctx = current_ctx()
    spec = type_spec(ts)
    offset = ctx.allocator.allocate(spec.size)
    ctx.segment.write_scalar(offset, spec, value)
    return GlobalPtr(ctx.rank, offset, spec)


def new_array(ts: str | TypeSpec, count: int, fill=0) -> GlobalPtr:
    """Allocate ``count`` elements in the calling rank's shared segment
    (zero/fill-initialized); returns a pointer to the first element."""
    if count < 1:
        raise ValueError("new_array needs count >= 1")
    ctx = current_ctx()
    spec = type_spec(ts)
    offset = ctx.allocator.allocate(spec.size * count)
    view = ctx.segment.view_array(offset, spec, count)
    view[:] = fill
    return GlobalPtr(ctx.rank, offset, spec)


def delete_(gptr: GlobalPtr) -> None:
    """Free a shared-heap allocation (scalar or array) made by the
    corresponding ``new_``/``new_array``.  The memory must be locally
    addressable (same node), as in UPC++."""
    ctx = current_ctx()
    if gptr.is_null:
        return
    if not ctx.is_local_rank(gptr.rank):
        raise UpcxxError(
            "delete_ requires a locally addressable global pointer"
        )
    ctx.world.allocators[gptr.rank].free(gptr.offset)
