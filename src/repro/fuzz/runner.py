"""Execution and differential comparison of fuzz programs.

:func:`run_program` interprets a :class:`~repro.fuzz.programs.FuzzProgram`
under one named mode and returns a :class:`FuzzOutcome`;
:func:`check_program` runs all modes and returns human-readable mismatch
descriptions (empty list = the program is confluent, as constructed).

Modes::

    eager     2021.3.6 eager   — notifications bypass the progress queue
    defer     2021.3.6 defer   — every completion takes the queue
    adaptive  defer + progress_adaptive with tight knobs (small batch cap,
              short age bound, poll thinning) so capped drains, aged
              mini-drains, and elided polls all actually fire
    hinted    adaptive + wait_hints — every future/promise wait publishes
              its target, so targeted drains (mid-queue removal ahead of
              the cap) and wait-triggered aggregation flushes fire on the
              same programs

The runs must agree on final memory, per-op recorded values, and
completion counts.  Virtual clocks legitimately differ across modes (that
difference *is* the paper's subject) but must be bit-identical when the
same (program, mode) pair is replayed — :func:`run_program` is a pure
function of its arguments, which the replay test asserts.

**Completion-kind swaps (``cx``).**  Beyond the mode axis, a program can
be re-run with its future-tracked value-less operations randomly swapped
for the ``cx_continuations`` completion kinds (the swap coin is a pure
function of the program seed and rank, so every run of a given ``cx``
makes identical choices):

    future        the baseline — ops tracked exactly as generated
    continuation  swapped ops carry ``operation_cx.as_continuation`` and
                  a fence spins until every issued callback fired
    counter       each phase's swapped ops share one ``CxCounter``,
                  waited at the phase fence

A swapped run must reproduce the future baseline's tables, values, and
completion counts under every mode (clocks legitimately differ — the
swap changes what is charged), and must itself be bit-identical across
the two ways of running the body (see :data:`SCHEDULERS`), clocks
included.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import (
    AtomicDomain,
    CxCounter,
    barrier_gen,
    current_ctx,
    new_array,
    operation_cx,
    rget,
    rput,
    rpc,
    rpc_ff,
    spmd_run,
)
from repro.core.promise import Promise
from repro.memory.global_ptr import GlobalPtr
from repro.runtime.config import FeatureFlags, Version, flags_for
from repro.runtime.event_loop import as_shim
from repro.runtime.switchpoints import BlockUntil
from repro.fuzz.programs import FuzzProgram
from repro.sim.costmodel import CostAction

_MASK64 = (1 << 64) - 1

#: the differential mode set (name -> (version, flags))
MODES = ("eager", "defer", "adaptive", "hinted")

#: completion-kind swap variants ("future" = the unmodified baseline)
CX_MODES = ("future", "continuation", "counter")

#: op kinds eligible for a completion-kind swap: value-less and
#: future-tracked (gets/rpcs produce values the swap has no slot for;
#: promise-tracked ops already share one notification object)
_SWAPPABLE = ("put", "amo_xor", "amo_add")

#: how the event loop runs a program's body: ``"shim"`` passes it through
#: :func:`~repro.runtime.event_loop.as_shim` (every rank a blocking call
#: stack on its thread shim), ``"event"`` passes the generator itself
#: (every rank an in-place continuation).  The two must be
#: indistinguishable — clocks included — for any program; the
#: differential check enforces it.
SCHEDULERS = ("shim", "event")


def mode_flags(mode: str) -> tuple[Version, FeatureFlags]:
    """The (version, flags) pair a named mode runs under."""
    if mode == "eager":
        v = Version.V2021_3_6_EAGER
        return v, flags_for(v)
    if mode == "defer":
        v = Version.V2021_3_6_DEFER
        return v, flags_for(v)
    if mode == "adaptive":
        v = Version.V2021_3_6_DEFER
        return v, flags_for(v).replace(
            progress_adaptive=True,
            progress_min_batch=2,
            progress_max_batch=8,
            progress_max_poll_interval=16,
            progress_max_age_ticks=2000.0,
        )
    if mode == "hinted":
        # the adaptive knobs plus wait targeting: the tight batch cap
        # means the fuzz programs' wait_all fences genuinely race the cap,
        # so targeted mid-queue removal and wait flushes both exercise
        v, flags = mode_flags("adaptive")
        return v, flags.replace(wait_hints=True, wait_flush_fill_frac=0.5)
    raise ValueError(f"unknown fuzz mode {mode!r}; known: {MODES}")


@dataclass(frozen=True)
class FuzzOutcome:
    """Everything a mode run must reproduce."""

    #: final table words, per owner rank
    tables: tuple[tuple[int, ...], ...]
    #: per rank: (phase, op index, value) for every get/rpc, in wait order
    values: tuple[tuple[tuple[int, int, int], ...], ...]
    #: per rank: (futures waited, promises finalized)
    completions: tuple[tuple[int, int], ...]
    #: per rank final virtual clock (replay determinism only — modes may
    #: legitimately differ here)
    clock_ns: tuple[float, ...]


def _pure_fn(x: int) -> int:
    """The rpc payload: a pure splitmix64-style mix of the argument."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _apply_xor(offset: int, ts, value: int) -> None:
    """rpc_ff handler: commutative xor into the owner's table word."""
    tctx = current_ctx()
    seg = tctx.segment
    old = seg.read_scalar(offset, ts)
    seg.write_scalar(offset, ts, (int(old) ^ value) & _MASK64)


def _swap_plan(program: FuzzProgram, me: int, cx: str) -> dict:
    """Which (phase, serial) ops this rank swaps under ``cx``.

    A pure function of (program, rank, cx): the coin stream is seeded from
    the program seed and rank only, so every mode/scheduler run of a given
    swap variant makes identical choices — the differential comparison
    depends on it.  Roughly 3 in 4 eligible ops swap, leaving genuinely
    mixed future/continuation programs in the corpus.
    """
    if cx == "future":
        return {}
    tag = 1 if cx == "continuation" else 2
    rng = random.Random((program.seed * 2654435761 + me) ^ (tag << 48))
    plan: dict[tuple[int, int], bool] = {}
    for phase_i, phase in enumerate(program.phases):
        for serial, op in enumerate(phase.ops[me]):
            if op["kind"] in _SWAPPABLE and op.get("track") == "future":
                plan[(phase_i, serial)] = rng.random() < 0.75
    return plan


def _fuzz_body(program: FuzzProgram, cx: str = "future"):
    # a generator continuation: runs in place on the event loop, or through
    # run_blocking on a thread shim when wrapped in a plain function
    ctx = current_ctx()
    me = ctx.rank
    ranks = program.ranks
    arr = new_array("u64", program.words)
    view = ctx.segment.view_array(arr.offset, arr.ts, program.words)
    view[:] = 0
    # lock-step allocation: offsets agree across ranks (cf. the GUPS body)
    bases = [GlobalPtr(r, arr.offset, arr.ts) for r in range(ranks)]
    ad = AtomicDomain({"bit_xor", "add"}, "u64")
    swaps = _swap_plan(program, me, cx)
    yield from barrier_gen()

    values: list[tuple[int, int, int]] = []
    futures_waited = 0
    promises_done = 0
    # continuation-swap bookkeeping: each fired callback stands in for one
    # waited future, so the completion counts match the baseline exactly
    cont_issued = 0
    cont_fired = [0]
    cont_counted = 0
    for phase_i, phase in enumerate(program.phases):
        pending: list[tuple[int, object, bool]] = []
        prom = Promise()
        phase_ctr = None
        ctr_members = 0
        if cx == "counter":
            ctr_members = sum(
                1 for (p, _s), on in swaps.items() if p == phase_i and on
            )
            if ctr_members:
                phase_ctr = CxCounter(ctr_members)

        def wait_pending():
            nonlocal futures_waited, cont_counted
            for serial, fut, record in pending:
                v = yield from fut.wait_gen()
                futures_waited += 1
                if record:
                    values.append((phase_i, serial, int(v) & _MASK64))
            pending.clear()
            # the wait_all fence covers swapped continuations too: spin
            # until every issued callback has fired (off-node acks arrive
            # through progress; local ones fired inline at issue)
            while cont_fired[0] < cont_issued:
                ctx.progress()
                if cont_fired[0] >= cont_issued:
                    break
                yield BlockUntil(
                    lambda: cont_fired[0] >= cont_issued
                    or ctx.has_incoming()
                )
            futures_waited += cont_issued - cont_counted
            cont_counted = cont_issued

        def _on_cont():
            cont_fired[0] += 1

        def swap_cx(serial):
            """The completion to attach to a swapped op (None = keep the
            generated future tracking)."""
            nonlocal cont_issued
            if not swaps.get((phase_i, serial)):
                return None
            if cx == "continuation":
                cont_issued += 1
                return operation_cx.as_continuation(_on_cont)
            return operation_cx.as_counter(phase_ctr)

        for serial, op in enumerate(phase.ops[me]):
            kind = op["kind"]
            if kind == "put":
                dest = bases[op["owner"]] + op["idx"]
                if op["track"] == "promise":
                    rput(op["value"], dest, operation_cx.as_promise(prom))
                else:
                    swapped = swap_cx(serial)
                    if swapped is not None:
                        rput(op["value"], dest, swapped)
                    else:
                        pending.append(
                            (serial, rput(op["value"], dest), False)
                        )
            elif kind in ("amo_xor", "amo_add"):
                dest = bases[op["owner"]] + op["idx"]
                meth = ad.bit_xor if kind == "amo_xor" else ad.add
                if op["track"] == "promise":
                    meth(dest, op["value"], operation_cx.as_promise(prom))
                else:
                    swapped = swap_cx(serial)
                    if swapped is not None:
                        meth(dest, op["value"], swapped)
                    else:
                        pending.append(
                            (serial, meth(dest, op["value"]), False)
                        )
            elif kind == "rpc_ff":
                dest = bases[op["owner"]] + op["idx"]
                rpc_ff(op["owner"], _apply_xor, dest.offset, dest.ts,
                       op["value"])
            elif kind == "get":
                dest = bases[op["owner"]] + op["idx"]
                pending.append((serial, rget(dest), True))
            elif kind == "rpc":
                fut = rpc(op["dst"], _pure_fn, op["value"])
                pending.append((serial, fut, True))
            elif kind == "wait_all":
                yield from wait_pending()
            elif kind == "progress":
                for _ in range(op["n"]):
                    ctx.progress()
            elif kind == "spin":
                # pure local work — skews this rank's clock so collective
                # points below see staggered arrivals
                ctx.charge(CostAction.FUNCTION_CALL, op["n"])
            elif kind == "barrier":
                # mid-phase collective: early arrivals park long while
                # clock-skewed stragglers finish their remaining ops
                yield from barrier_gen()
            else:  # pragma: no cover - generator never emits other kinds
                raise ValueError(f"unknown fuzz op kind {kind!r}")

        # phase fence: settle local completions, deliver stray rpc_ff
        # updates, and only then let anyone read the next phase's roles
        yield from wait_pending()
        if phase_ctr is not None:
            # one blocking wait covers every swapped op of the phase; each
            # member event stands in for one baseline future wait
            yield from phase_ctr.wait_gen()
            futures_waited += ctr_members
        yield from prom.finalize().wait_gen()
        promises_done += 1
        yield from barrier_gen()
        while ctx.progress():
            pass
        yield from barrier_gen()

    return (
        tuple(int(x) for x in view),
        tuple(values),
        (futures_waited, promises_done),
        ctx.clock.now_ns,
    )


def run_program(
    program: FuzzProgram,
    mode: str,
    scheduler: str = "event",
    cx: str = "future",
) -> FuzzOutcome:
    """Execute ``program`` under ``mode``; a pure function of both.

    ``scheduler`` picks how the body runs (see :data:`SCHEDULERS`):
    ``"event"`` (every rank a generator continuation) or ``"shim"`` (the
    same body behind :func:`~repro.runtime.event_loop.as_shim`, every rank
    on its thread shim).
    The two are required to be observably identical — same tables,
    values, completions, *and clocks* — so the outcome is a pure function
    of (program, mode) alone.

    ``cx`` picks the completion-kind swap variant (see module docstring);
    non-baseline variants run with ``cx_continuations`` enabled and must
    reproduce the baseline's tables/values/completions under every mode.
    """
    version, flags = mode_flags(mode)
    if scheduler == "event":
        body = _fuzz_body
    elif scheduler == "shim":
        body = as_shim(_fuzz_body)
    else:
        raise ValueError(
            f"unknown scheduler {scheduler!r}; known: {SCHEDULERS}"
        )
    if cx not in CX_MODES:
        raise ValueError(f"unknown cx variant {cx!r}; known: {CX_MODES}")
    if cx != "future":
        flags = flags.replace(cx_continuations=True)
    res = spmd_run(
        body,
        args=(program, cx),
        ranks=program.ranks,
        version=version,
        machine="generic",
        conduit=program.conduit,
        n_nodes=program.n_nodes,
        seed=program.seed,
        flags=flags,
    )
    return FuzzOutcome(
        tables=tuple(v[0] for v in res.values),
        values=tuple(v[1] for v in res.values),
        completions=tuple(v[2] for v in res.values),
        clock_ns=tuple(v[3] for v in res.values),
    )


def check_program(
    program: FuzzProgram,
    modes: tuple[str, ...] = MODES,
    schedulers: tuple[str, ...] = ("event",),
    cx_modes: tuple[str, ...] = (),
) -> list[str]:
    """Run ``program`` under every mode; describe any disagreement.

    Returns an empty list when all modes agree on tables, values, and
    completion counts (clocks are exempt — they are the measurement).

    With more than one entry in ``schedulers``, every mode additionally
    runs with each extra body style, and those runs must match the first
    style's outcome *exactly* — clocks included — since how the body is
    run is an implementation detail, not a semantic mode.

    ``cx_modes`` adds completion-kind swap variants ("continuation" /
    "counter"): each (mode, cx) run must reproduce that mode's future
    baseline on tables, values, and completion counts (clocks exempt —
    the swap changes which actions are charged), and must itself be
    bit-identical, clocks included, across the body styles.
    """
    outcomes = {
        mode: run_program(program, mode, schedulers[0]) for mode in modes
    }
    base_mode = modes[0]
    base = outcomes[base_mode]
    mismatches = []

    def compare(other, ref, what: str, clocks: bool) -> None:
        if other.tables != ref.tables:
            mismatches.append(f"final memory differs: {what}")
        if other.values != ref.values:
            mismatches.append(f"per-op values differ: {what}")
        if other.completions != ref.completions:
            mismatches.append(
                f"completion counts differ: {what} "
                f"({ref.completions} vs {other.completions})"
            )
        if clocks and other.clock_ns != ref.clock_ns:
            mismatches.append(f"virtual clocks differ: {what}")

    for mode in modes[1:]:
        compare(outcomes[mode], base, f"{base_mode} vs {mode}", False)
    for scheduler in schedulers[1:]:
        for mode in modes:
            other = run_program(program, mode, scheduler)
            if other != outcomes[mode]:
                mismatches.append(
                    f"body styles disagree under {mode}: "
                    f"{schedulers[0]} vs {scheduler}"
                )
    for cx in cx_modes:
        if cx == "future":
            continue
        for mode in modes:
            swapped = run_program(program, mode, schedulers[0], cx=cx)
            compare(
                swapped, outcomes[mode],
                f"{mode}/future vs {mode}/{cx}", False,
            )
            for scheduler in schedulers[1:]:
                other = run_program(program, mode, scheduler, cx=cx)
                if other != swapped:
                    mismatches.append(
                        "body styles disagree under "
                        f"{mode}/{cx}: {schedulers[0]} vs {scheduler}"
                    )
    return mismatches
