"""CI entry point for the differential fuzzer.

Runs ``--programs`` generated programs per seed through every mode
(eager / defer / adaptive-progress), checking cross-mode agreement, and
replays every ``--replay-every``-th program under the adaptive mode to
assert bit-identical re-execution.  On the first failure the offending
program (with the mismatch descriptions) is written to ``--artifact`` as
JSON and the process exits non-zero — CI uploads that file so the run can
be reproduced locally::

    PYTHONPATH=src python -m repro.fuzz --seeds 1 2 3 --programs 200

    # replay a failing program artifact
    PYTHONPATH=src python -m repro.fuzz --replay fuzz-failure.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.fuzz.programs import (
    generate_program,
    program_from_json,
    program_to_json,
)
from repro.fuzz.runner import (
    CX_MODES,
    MODES,
    SCHEDULERS,
    check_program,
    run_program,
)


def _program_seed(seed: int, index: int) -> int:
    """The per-program generator seed (stable, well separated)."""
    return seed * 1_000_003 + index


def _fail(args, seed: int, index: int, program, mismatches) -> int:
    doc = json.loads(program_to_json(program, indent=None))
    artifact = {
        "generator_seed": seed,
        "program_index": index,
        "program_seed": _program_seed(seed, index),
        "mismatches": mismatches,
        "program": doc,
    }
    with open(args.artifact, "w") as fh:
        json.dump(artifact, fh, indent=2)
    print(
        f"MISMATCH at seed={seed} index={index}: {mismatches}\n"
        f"program written to {args.artifact}; replay with\n"
        f"  PYTHONPATH=src python -m repro.fuzz --replay {args.artifact}",
        file=sys.stderr,
    )
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz", description=__doc__
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=[1, 2, 3],
        help="generator seeds (each yields --programs programs)",
    )
    parser.add_argument(
        "--programs", type=int, default=200,
        help="programs per seed (default 200)",
    )
    parser.add_argument(
        "--replay-every", type=int, default=10,
        help="replay every Nth program to assert bit-identical re-runs",
    )
    parser.add_argument(
        "--artifact", default="fuzz-failure.json",
        help="where to write the failing program on mismatch",
    )
    parser.add_argument(
        "--replay", metavar="ARTIFACT",
        help="re-run the program in a failure artifact (or a bare "
        "program JSON) instead of generating new ones",
    )
    parser.add_argument(
        "--sched", choices=SCHEDULERS + ("both",), default="event",
        help="how to run each body: 'event' (generator continuations) or "
        "'shim' (the same body behind a plain lambda, on thread shims); "
        "'both' additionally asserts the two agree exactly, clocks "
        "included (default: event)",
    )
    parser.add_argument(
        "--cx", nargs="+", choices=CX_MODES[1:], default=[],
        metavar="VARIANT",
        help="completion-kind swap variants (continuation, counter): each "
        "program additionally runs with its future-tracked ops swapped "
        "for the named kinds, and every (mode, variant) outcome must "
        "reproduce that mode's future baseline (default: none)",
    )
    args = parser.parse_args(argv)
    schedulers = SCHEDULERS if args.sched == "both" else (args.sched,)
    cx_modes = tuple(args.cx)

    if args.replay:
        with open(args.replay) as fh:
            doc = json.load(fh)
        program = program_from_json(
            json.dumps(doc["program"] if "program" in doc else doc)
        )
        mismatches = check_program(
            program, schedulers=schedulers, cx_modes=cx_modes
        )
        if mismatches:
            print(f"still mismatching: {mismatches}", file=sys.stderr)
            return 1
        print("replay clean: all modes agree")
        return 0

    total = 0
    t0 = time.time()
    for seed in args.seeds:
        print(f"seed {seed}: {args.programs} programs ...", flush=True)
        for index in range(args.programs):
            program = generate_program(_program_seed(seed, index))
            mismatches = check_program(
                program, schedulers=schedulers, cx_modes=cx_modes
            )
            if mismatches:
                return _fail(args, seed, index, program, mismatches)
            if args.replay_every and index % args.replay_every == 0:
                a = run_program(program, "adaptive", schedulers[0])
                b = run_program(program, "adaptive", schedulers[0])
                if a != b:
                    return _fail(
                        args, seed, index, program,
                        ["adaptive replay not bit-identical"],
                    )
                if cx_modes:
                    cx = cx_modes[index % len(cx_modes)]
                    a = run_program(
                        program, "adaptive", schedulers[0], cx=cx
                    )
                    b = run_program(
                        program, "adaptive", schedulers[0], cx=cx
                    )
                    if a != b:
                        return _fail(
                            args, seed, index, program,
                            [f"adaptive/{cx} replay not bit-identical"],
                        )
            total += 1
    dt = time.time() - t0
    variants = 1 + len(cx_modes)
    print(
        f"OK: {total} programs x {len(MODES)} modes "
        f"x {variants} cx variant(s) "
        f"x {len(schedulers)} body style(s) agree ({dt:.1f}s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
