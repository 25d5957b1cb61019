"""Per-thread span tracer that times calls into the program from outside.

The traced run replaces the public functions listed in ``layers.TARGETS``
with thin wrappers for the duration of one job and restores the originals
afterwards; the program itself is not changed.  Three wrapper kinds:

* ``leaf`` -- hot calls that never call back into a traced layer
  (``CostModel.charge``, ``GlobalPtr`` construction): a count and the
  summed time, nothing else;
* ``call`` -- a frame on the calling thread's stack, so the layer's self
  time excludes its children, but no span record;
* ``span`` -- a ``call`` that is also kept as a span record
  ``(name, start, end, id, parent, job)`` for the coarse boundaries.

Self time is exclusive wall time.  Every wrapper entry and exit is an
event; the wall time since the previous event, on whichever thread, is
charged to the layer on top of the reporting thread's stack (``apps``
when the stack is empty).  This is exact because the simulator runs one
rank at a time on either scheduler substrate: the thread-per-rank
substrate passes a single run token (a cProfile of the driver thread
would show only ``lock.acquire``), and the event loop runs every rank on
one thread.  A thread switch only happens inside a scheduler call, so the
handoff from one rank entering a switch to the next rank resuming is
charged to the resuming rank's ``wait_for_token`` frame.  Generator
functions (``Future.wait_gen``) leave the stack at every ``yield`` and
re-enter on resume, which keeps the stacks right when the event loop
interleaves rank generators on one thread.

The wrappers' own bookkeeping is charged to a separate ``trace`` bucket,
so the buckets partition each job's wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import types
from collections import defaultdict
from time import perf_counter

APPS = "apps"
TRACE = "trace"
JOB = "job"
LEAF, CALL, SPAN = "leaf", "call", "span"


class Tracer:
    """Exclusive-time accounting over per-thread frame stacks.

    A frame is ``[name, start, span_id, parent_id, recorded]``; an
    unrecorded frame carries its nearest recorded ancestor's id so that
    recorded children link to it.
    """

    def __init__(self):
        self._tls = threading.local()
        self._last = perf_counter()
        self._leaf_s = 0.0
        self._next_id = 0
        self._job_sid = 0
        self._t_job = 0.0
        self.job = -1
        #: wrapped function name (or APPS / TRACE) -> exclusive seconds
        self.self_s = defaultdict(float)
        #: wrapped function name -> calls / hits / inclusive seconds
        self.calls = defaultdict(int)
        self.hits = defaultdict(int)
        self.incl_s = defaultdict(float)
        #: leaf name -> [calls, seconds]
        self.leaf = {}
        #: span records of the jobs run with ``keep_spans``
        self.spans = []
        self.keep_spans = False

    # -- events --------------------------------------------------------------

    def _stack(self) -> list:
        tls = self._tls
        try:
            return tls.stack
        except AttributeError:
            tls.stack = []
            return tls.stack

    def _tick(self, stack) -> float:
        """Close the interval since the last event on the running thread."""
        t = perf_counter()
        key = stack[-1][0] if stack else APPS
        self.self_s[key] += t - self._last - self._leaf_s
        self._leaf_s = 0.0
        return t

    def _tock(self, t: float) -> None:
        now = perf_counter()
        self.self_s[TRACE] += now - t
        self._last = now

    def enter(self, name: str, record: bool) -> list:
        st = self._stack()
        t = self._tick(st)
        parent = st[-1][2] if st else self._job_sid
        if record:
            self._next_id += 1
            sid = self._next_id
        else:
            sid = parent
        frame = [name, t, sid, parent, record]
        st.append(frame)
        self._tock(t)
        return frame

    def exit(self, frame: list, hit: bool) -> None:
        st = self._stack()
        t = self._tick(st)
        _remove(st, frame)
        name = frame[0]
        self.calls[name] += 1
        if hit:
            self.hits[name] += 1
        self.incl_s[name] += t - frame[1]
        if frame[4] and self.keep_spans:
            t0 = self._t_job
            self.spans.append(
                (name, frame[1] - t0, t - t0, frame[2], frame[3], self.job)
            )
        self._tock(t)

    def suspend(self, frame: list) -> None:
        st = self._stack()
        t = self._tick(st)
        _remove(st, frame)
        self._tock(t)

    def resume(self, frame: list) -> None:
        st = self._stack()
        t = self._tick(st)
        st.append(frame)
        self._tock(t)

    # -- jobs ----------------------------------------------------------------

    def begin_job(self, job: int, keep_spans: bool) -> list:
        self.job = job
        self.keep_spans = keep_spans
        self._t_job = perf_counter()
        self._last = self._t_job
        self._leaf_s = 0.0
        frame = self.enter(JOB, True)
        self._job_sid = frame[2]
        return frame

    def end_job(self, frame: list) -> None:
        self.exit(frame, False)
        self._job_sid = 0


def _remove(stack: list, frame: list) -> None:
    if stack and stack[-1] is frame:
        stack.pop()
        return
    for i in range(len(stack) - 1, -1, -1):  # unwinding after an error
        if stack[i] is frame:
            del stack[i]
            return


# -- wrappers ------------------------------------------------------------------


def _leaf(tr: Tracer, fn, acc: list):
    @functools.wraps(fn)
    def leaf(*args, **kwargs):
        t0 = perf_counter()
        r = fn(*args, **kwargs)
        d = perf_counter() - t0
        acc[0] += 1
        acc[1] += d
        tr._leaf_s += d
        return r

    return leaf


def _call(tr: Tracer, fn, name: str, record: bool, hit):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        f = tr.enter(name, record)
        try:
            r = fn(*args, **kwargs)
        except BaseException:
            tr.exit(f, False)
            raise
        tr.exit(f, hit is not None and hit(args, r))
        return r

    return call


def _gen(tr: Tracer, fn, name: str, record: bool):
    @functools.wraps(fn)
    def gen_wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        f = tr.enter(name, record)
        try:
            try:
                cmd = gen.send(None)
            except StopIteration as stop:
                return stop.value
            while True:
                tr.suspend(f)
                try:
                    val = yield cmd
                except GeneratorExit:
                    tr.resume(f)
                    gen.close()
                    raise
                except BaseException as exc:  # noqa: BLE001 - forwarded
                    tr.resume(f)
                    try:
                        cmd = gen.throw(exc)
                    except StopIteration as stop:
                        return stop.value
                    continue
                tr.resume(f)
                try:
                    cmd = gen.send(val)
                except StopIteration as stop:
                    return stop.value
        finally:
            tr.exit(f, False)

    return gen_wrapper


# -- installing ------------------------------------------------------------------


def _resolve(module: str, target: str) -> list:
    """``(owner, attr, function)`` for ``func``, ``Class.method`` or
    ``Class.*`` (every public plain function in the class body); names
    the program no longer has resolve to nothing."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return []
    if "." not in target:
        fn = getattr(mod, target, None)
        return [(mod, target, fn)] if isinstance(fn, types.FunctionType) else []
    cls_name, attr = target.split(".", 1)
    cls = getattr(mod, cls_name, None)
    if not isinstance(cls, type):
        return []
    if attr == "*":
        return [
            (cls, k, v)
            for k, v in cls.__dict__.items()
            if not k.startswith("_") and isinstance(v, types.FunctionType)
        ]
    fn = cls.__dict__.get(attr)
    return [(cls, attr, fn)] if isinstance(fn, types.FunctionType) else []


def _modules():
    return [
        m
        for n, m in list(sys.modules.items())
        if m is not None and (n == "repro" or n.startswith("repro."))
    ]


class Installation:
    """The wrappers of one traced job; :meth:`remove` restores every
    binding it replaced, including names a module imported from a
    wrapped module while the job ran."""

    def __init__(self, tracer: Tracer, targets, on_world=None):
        self._saved = []  # (owner, attr, original)
        self._wrappers = {}  # id(wrapper) -> (wrapper, original)
        mods = _modules()
        self.layer_of = {}  # wrapped name -> layer
        for layer, module, names, kind, hit in targets:
            for target in names:
                for owner, attr, fn in _resolve(module, target):
                    name = (
                        f"{owner.__name__}.{attr}"
                        if isinstance(owner, type)
                        else attr
                    )
                    self.layer_of[name] = layer
                    if kind == LEAF:
                        acc = tracer.leaf.setdefault(name, [0, 0.0])
                        w = _leaf(tracer, fn, acc)
                    elif inspect.isgeneratorfunction(fn):
                        w = _gen(tracer, fn, name, kind == SPAN)
                    else:
                        w = _call(tracer, fn, name, kind == SPAN, hit)
                    self._wrappers[id(w)] = (w, fn)
                    if isinstance(owner, type):
                        self._set(owner, attr, fn, w)
                    else:  # a module function: rebind it wherever imported
                        for m in mods:
                            for k, v in list(vars(m).items()):
                                if v is fn:
                                    self._set(m, k, fn, w)
        if on_world is not None:
            self._capture_worlds(on_world)

    def _set(self, owner, attr, original, wrapper) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _capture_worlds(self, on_world) -> None:
        from repro.runtime.runtime import World

        init = World.__dict__["__init__"]

        @functools.wraps(init)
        def capturing_init(world, *args, **kwargs):
            init(world, *args, **kwargs)
            on_world(world)

        self._set(World, "__init__", init, capturing_init)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        for m in _modules():
            for k, v in list(vars(m).items()):
                entry = self._wrappers.get(id(v))
                if entry is not None and entry[0] is v:
                    setattr(m, k, entry[1])
