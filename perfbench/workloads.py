"""The benchmark's workloads: inputs from a seed, one job through the
program's public entry point, and the checks on that job's output.

A *job* is one call to ``repro.apps.gups.run_gups`` or
``repro.serve.run_serve``; an *op* is one simulated GUPS update or one
served request.  The program only ever receives the generated config --
never a workload name -- and every workload runs with the build's default
feature flags unless its definition below says otherwise.

Why these four (each stresses layers the others leave idle):

* ``gups_eager`` -- GUPS ``rma_future`` on 16 ranks of one intel/smp
  node, default eager build, table 2^14, 1024 updates/rank, batch 32 (the
  paper's Figure 5 setting).  Every op completes synchronously, so cost
  charging, ``GlobalPtr`` and RMA do the whole job; cells, progress and
  the scheduler sit idle.
* ``gups_defer`` -- the same inputs on the 2021.3.6-defer build: per
  update ~4 promise-cell allocations, 2 progress enqueues/dispatches and
  ~2 ``when_all`` nodes, so ``core.*`` and ``runtime.progress`` work.
* ``serve_offnode`` -- open-loop DHT serving on 8 ranks over 2 ibv nodes,
  256 requests/rank at 2.5e5 offered rps (virtual), Zipf 1.1, 60/25/15
  get/put/CAS: the only workload where scheduler switches and idle
  polling dominate.
* ``gups_agg_offnode`` -- GUPS ``agg`` (reply-less ``rpc_ff`` updates) on
  16 ranks over 2 ibv nodes with ``am_aggregation`` on: the only
  workload through ``gasnet.aggregator`` and ``rpc``; exact by design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.gups import GupsConfig, run_gups
from repro.runtime.config import Version, flags_for
from repro.serve import ServeConfig, run_serve

_MASK64 = (1 << 64) - 1
#: HPCC accepts a racy RandomAccess run when at most 1% of table words
#: differ from a race-free execution.
HPCC_MAX_ERROR = 0.01


def _rank_seed(seed: int, rank: int) -> int:
    """The program's documented per-rank stream start (splitmix64 of
    ``(seed, rank)``), restated here so the oracle is independent."""
    z = (seed * 0x9E3779B97F4A7C15 + rank + 1) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) or 1


def gups_oracle(seed: int, ranks: int, updates: int, table_log2: int) -> np.ndarray:
    """The table a race-free GUPS run ends with: word ``i`` starts as
    ``i`` and every HPCC stream value ``ran`` xors into word
    ``ran mod 2^table_log2``."""
    n = 1 << table_log2
    vals = []
    for r in range(ranks):
        ran = _rank_seed(seed, r)
        for _ in range(updates):
            ran = ((ran << 1) & _MASK64) ^ (7 if ran >> 63 else 0)
            vals.append(ran)
    v = np.array(vals, dtype=np.uint64)
    table = np.arange(n, dtype=np.uint64)
    np.bitwise_xor.at(table, v & np.uint64(n - 1), v)
    return table


@dataclass
class JobOutcome:
    """What the benchmark keeps from one job."""

    #: ops whose output is wrong (GUPS: table words that differ from the
    #: race-free oracle; serve: missing requests)
    wrong_ops: int
    #: the output check passed (HPCC limit / exact oracle / no misses)
    ok: bool
    #: every virtual-time result, compared exactly across jobs
    virtual: dict
    #: why the check failed ("" when it passed)
    reason: str = ""


@dataclass(frozen=True)
class GupsWorkload:
    name: str
    variant: str
    version: str
    conduit: str
    n_nodes: int
    #: ``agg`` is exact; the racy RMA variant is held to the HPCC limit
    exact: bool
    aggregation: bool = False
    ranks: int = 16
    table_log2: int = 14
    updates_per_rank: int = 1024
    batch: int = 32

    @property
    def ops(self) -> int:
        return self.ranks * self.updates_per_rank

    def inputs(self, seed: int):
        cfg = GupsConfig(
            variant=self.variant,
            table_log2=self.table_log2,
            updates_per_rank=self.updates_per_rank,
            batch=self.batch,
            seed=seed,
        )
        oracle = gups_oracle(
            seed, self.ranks, self.updates_per_rank, self.table_log2
        )
        return cfg, oracle

    def run(self, cfg):
        version = Version(self.version)
        flags = None
        if self.aggregation:
            flags = flags_for(version).replace(am_aggregation=True)
        return run_gups(
            cfg,
            ranks=self.ranks,
            version=version,
            machine="intel",
            conduit=self.conduit,
            n_nodes=self.n_nodes,
            flags=flags,
        )

    def check(self, res, oracle) -> JobOutcome:
        table = np.asarray(res.table)
        if table.shape != oracle.shape:
            return JobOutcome(self.ops, False, {}, "table has the wrong size")
        wrong = int(np.count_nonzero(table != oracle))
        oracle_xor = int(np.bitwise_xor.reduce(oracle))
        virtual = {"solve_ns": res.solve_ns, "checksum": int(res.checksum)}
        if self.exact:
            ok = wrong == 0 and res.checksum == oracle_xor
            reason = "" if ok else f"{wrong} table words differ from the oracle"
        else:
            ok = wrong / len(oracle) <= HPCC_MAX_ERROR
            reason = "" if ok else (
                f"HPCC verification failed: {wrong}/{len(oracle)} words differ"
            )
        return JobOutcome(wrong, ok, virtual, reason)

    def error_words(self) -> int:
        """The denominator of ``error_frac`` for one job (table words)."""
        return 1 << self.table_log2


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    ranks: int = 8
    n_nodes: int = 2
    conduit: str = "ibv"
    requests_per_rank: int = 256
    offered_rate_rps: float = 2.5e5
    zipf_s: float = 1.1
    get_frac: float = 0.60
    put_frac: float = 0.25

    @property
    def ops(self) -> int:
        return self.ranks * self.requests_per_rank

    def inputs(self, seed: int):
        cfg = ServeConfig(
            requests_per_rank=self.requests_per_rank,
            offered_rate_rps=self.offered_rate_rps,
            zipf_s=self.zipf_s,
            get_frac=self.get_frac,
            put_frac=self.put_frac,
            seed=seed,
        )
        return cfg, None

    def run(self, cfg):
        return run_serve(
            cfg, ranks=self.ranks, conduit=self.conduit, n_nodes=self.n_nodes
        )

    def check(self, res, _oracle) -> JobOutcome:
        pct = res.percentiles("total", "all")
        virtual = {
            "solve_ns": res.solve_ns,
            "p50_ns": pct["p50"],
            "p99_ns": pct["p99"],
            "p999_ns": pct["p999"],
            "slo_misses": int(res.slo_misses),
            "requests": int(res.requests),
        }
        served = res.requests - res.missing
        wrong = self.ops - served
        ok = (
            res.requests == self.ops
            and res.missing == 0
            and sum(res.by_op.values()) == self.ops
        )
        reason = "" if ok else (
            f"{res.missing} missing of {res.requests} served, "
            f"{self.ops} offered"
        )
        return JobOutcome(wrong, ok, virtual, reason)

    def error_words(self) -> int:
        return self.ops


WORKLOADS = {
    w.name: w
    for w in (
        GupsWorkload(
            "gups_eager", "rma_future", "2021.3.6-eager", "smp", 1,
            exact=False,
        ),
        GupsWorkload(
            "gups_defer", "rma_future", "2021.3.6-defer", "smp", 1,
            exact=False,
        ),
        ServeWorkload("serve_offnode"),
        GupsWorkload(
            "gups_agg_offnode", "agg", "2021.3.6-eager", "ibv", 2,
            exact=True, aggregation=True,
        ),
    )
}


def virtual_metrics(wl, virtual: dict) -> dict:
    """The paper's virtual-time quantities for one job (name -> (value,
    unit)); they repeat exactly from job to job for a given seed."""
    out = {"virt_ns_per_op": (virtual["solve_ns"] / wl.ops, "ns")}
    if isinstance(wl, ServeWorkload):
        out["virt_p50_ns"] = (virtual["p50_ns"], "ns")
        out["virt_p99_ns"] = (virtual["p99_ns"], "ns")
        out["slo_miss_frac"] = (virtual["slo_misses"] / wl.ops, "ratio")
    return out
