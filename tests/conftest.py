"""Shared fixtures.

Most unit tests exercise the runtime through the *ambient* single-rank
world (created lazily by ``current_ctx()`` outside ``spmd_run``); the
autouse fixture discards it between tests so each test gets fresh
segments, clocks and counters.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.runtime.config import RuntimeConfig, Version, flags_for
from repro.runtime.context import (
    current_ctx,
    reset_ambient_ctx,
    set_current_ctx,
)
from repro.runtime.event_loop import as_shim
from repro.runtime.runtime import build_world
from repro.sim.costmodel import NoisyCostModel

ALL_VERSIONS = (
    Version.V2021_3_0,
    Version.V2021_3_6_DEFER,
    Version.V2021_3_6_EAGER,
)

VD = Version.V2021_3_6_DEFER
VE = Version.V2021_3_6_EAGER


# ---------------------------------------------------------------------------
# shared world/flags helpers (used by the aggregation, wait-hint,
# adaptive-progress and property suites; import as
# ``from tests.conftest import agg_flags, ...``)
# ---------------------------------------------------------------------------


def agg_flags(version=VE, **kw):
    """Aggregation flags with a test-sized static entry threshold."""
    defaults = dict(am_aggregation=True, agg_max_entries=8)
    defaults.update(kw)
    return flags_for(version).replace(**defaults)


def agg_world(ranks=4, n_nodes=2, conduit="ibv", **kw):
    """Ranks 0/1 on node 0, ranks 2/3 on node 1, aggregation on."""
    return build_world(
        RuntimeConfig(conduit=conduit, flags=agg_flags(**kw)),
        ranks=ranks,
        n_nodes=n_nodes,
    )


def send_agg_am(w, src, dst, sink=None, nbytes=8, label="am"):
    """One aggregatable AM from ``src`` to ``dst`` (appends ``dst`` to
    ``sink`` on delivery when a sink list is given)."""
    handler = (lambda t: None) if sink is None else (
        lambda t, s=sink: s.append(dst)
    )
    w.conduit.send_am(
        w.contexts[src], dst, handler, nbytes=nbytes, label=label,
        aggregatable=True,
    )


def obs_flags(version):
    """The version's standard flags with observability spans enabled."""
    return flags_for(version).replace(obs_spans=True)


def progress_adaptive_flags(version=VD, **kw):
    """Adaptive-progress flags with tight test-sized knobs: small batch
    cap, short age bound, and a modest poll-thinning ceiling so capped
    drains, aged mini-drains, and elided polls all fire in small runs."""
    defaults = dict(
        progress_adaptive=True,
        progress_min_batch=2,
        progress_max_batch=8,
        progress_max_poll_interval=16,
        progress_max_age_ticks=2000.0,
    )
    defaults.update(kw)
    return flags_for(version).replace(**defaults)


@contextlib.contextmanager
def per_charge_costs():
    """Build every rank's cost model as the per-charge reference
    (:class:`NoisyCostModel` at noise 0, which advances the clock through
    its float API one charge at a time) instead of the dense default —
    the oracle the bit-identity pins diff :class:`CostModel` against."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.runtime.context.CostModel", NoisyCostModel)
        yield


@contextlib.contextmanager
def shim_gups():
    """Make ``run_gups`` pass its body through :func:`as_shim`, so a GUPS
    run drives every rank on a thread shim instead of as a
    continuation."""
    from repro.apps import gups

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gups, "_gups_body", as_shim(gups._gups_body))
        yield


def run_fingerprint(result, trace=None):
    """Everything the parity pins compare bit for bit: per-rank values,
    clock units, per-rank action counts, switch count and switch trace."""
    world = result.world
    return (
        result.values,
        tuple(c.clock._units for c in world.contexts),
        tuple(c.costs.snapshot() for c in world.contexts),
        world.sched_switches,
        trace,
    )


@pytest.fixture(autouse=True)
def _fresh_ambient_world():
    """Isolate tests from each other's ambient world state."""
    reset_ambient_ctx()
    yield
    reset_ambient_ctx()


@pytest.fixture
def ctx():
    """The ambient single-rank context (generic profile, smp conduit)."""
    return current_ctx()


@pytest.fixture
def versioned_ctx():
    """Factory: bind the calling thread to a fresh single-rank world built
    for a given version/machine; restores the ambient world afterwards."""
    created = []

    def make(
        version: Version = Version.V2021_3_6_EAGER,
        machine: str = "generic",
        conduit: str = "smp",
        flags=None,
    ):
        config = RuntimeConfig(
            version=version, machine=machine, conduit=conduit, flags=flags
        )
        world = build_world(config)
        set_current_ctx(world.contexts[0])
        created.append(world)
        return world.contexts[0]

    yield make
    set_current_ctx(None)
    reset_ambient_ctx()


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="run slow integration tests",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running integration test")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="needs --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
