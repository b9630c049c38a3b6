"""Two-level replication groups: hierarchical masters for 1024 ranks.

The flat drivers (one master, N-1 workers) stop scaling near np=256:
every result meta, every output offset and every liveness decision
funnels through rank 0, and the bench files show worker wait share
climbing with np.  This package splits the cluster into K replication
groups (:mod:`repro.hier.topology`), each a self-contained
fault-tolerant pull-RPC cluster run by a **sub-master**
(:mod:`repro.hier.groupmaster`), under a top-level **coordinator**
(:mod:`repro.hier.coordinator`) that deals only in query batches and
group-level result metadata.

Failover is hierarchical too: groups succeed their own sub-master from
within (the coordinator never notices); the coordinator is succeeded by
the lowest surviving member rank — a *live* succession list, so ranks
promoted to sub-master mid-run are candidates too.  Output is
byte-identical to the serial oracle under any kill schedule that
leaves each fragment recoverable — the same determinism argument as
the flat FT drivers, applied per group.

:mod:`repro.hier.elastic` serves *live traffic* through the hierarchy:
the coordinator becomes an admission front-end routing service waves
to elastic groups (runtime join/drain, whole-group-loss recovery with
re-replication from the shared FS, SLO-preserving degradation when a
fragment slice is permanently lost).

Usage::

    from repro.hier import HierConfig, run_hier
    res = run_hier(nprocs, store, cfg, hier=HierConfig(ngroups=4))
    assert res.report == oracle_bytes

    from repro.hier import ElasticConfig, run_hier_service
    sres = run_hier_service(nprocs, store, cfg, jobs,
                            hier=HierConfig(ngroups=4),
                            elastic=ElasticConfig(joins=((4, 80.0),)))
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.parallel.config import ParallelConfig
from repro.simmpi import FileStore, PlatformSpec, ProcContext, RunResult
from repro.simmpi.faults import FaultPlan

from repro.hier.coordinator import launch, run_coordinator
from repro.hier.elastic import (
    ElasticConfig,
    HierServiceResult,
    run_hier_service,
)
from repro.hier.groupmaster import run_rank
from repro.hier.topology import (
    GroupSpec,
    HierTopology,
    MODES,
    build_topology,
)

__all__ = [
    "ElasticConfig",
    "GroupSpec",
    "HierConfig",
    "HierResult",
    "HierServiceResult",
    "HierTopology",
    "MODES",
    "build_topology",
    "run_hier",
    "run_hier_service",
]


@dataclass(frozen=True)
class HierConfig:
    """Shape of the hierarchy.

    ``batch_queries == 0`` sizes query batches to ~2 per group
    (coordinator keeps slack for balancing); ``mode`` picks the
    database placement — ``replicate`` (each group holds the whole
    database, batches split across groups) or ``shard`` (one global
    partition, groups own fragment slices, every group searches every
    batch).
    """

    ngroups: int = 2
    mode: str = "replicate"
    batch_queries: int = 0

    def __post_init__(self) -> None:
        if self.ngroups < 1:
            raise ValueError("ngroups must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.batch_queries < 0:
            raise ValueError("batch_queries must be >= 0")


@dataclass(frozen=True)
class HierResult:
    """A hierarchical run plus its topology."""

    result: RunResult
    topology: HierTopology
    output_path: str

    @property
    def report(self) -> bytes:
        return self.result.store.read_all(self.output_path)


def _program(ctx: ProcContext):
    cfg: ParallelConfig = ctx.args["config"]
    hcfg: HierConfig = ctx.args["hier"]
    topo: HierTopology = ctx.args["topology"]
    return run_rank(ctx, cfg, hcfg, topo, lambda promoted: run_coordinator(
        ctx, cfg, hcfg, topo, promoted=promoted))


def run_hier(
    nprocs: int,
    store: FileStore,
    config: ParallelConfig,
    hier: HierConfig | None = None,
    platform: PlatformSpec | None = None,
    *,
    faults: FaultPlan | None = None,
    tracer=None,
    on_cluster=None,
) -> HierResult:
    """Run hierarchical parallel BLAST on a simulated cluster.

    ``store`` needs the formatted global database and the query file.
    The report lands at ``config.output_path``, byte-identical to the
    serial reference — including under sub-master and coordinator
    kills (pass a :class:`~repro.simmpi.faults.FaultPlan`;
    role-targeted events like ``crash=submaster:g2@40`` are resolved
    against the topology here).
    """
    hier = hier if hier is not None else HierConfig()
    topo = build_topology(nprocs, hier.ngroups, hier.mode)
    if config.query_batch > 0:
        raise ValueError(
            "query_batch is not supported by the hierarchical driver "
            "(the coordinator owns query batching; use "
            "HierConfig.batch_queries)"
        )
    # The hierarchy is timeout-driven even in fault-free runs.
    config = config.with_cost_timeouts()
    result = launch(
        nprocs, _program, platform, store, topo,
        {"config": config, "hier": hier, "topology": topo},
        faults=faults, tracer=tracer, on_cluster=on_cluster,
    )
    return HierResult(
        result=result, topology=topo, output_path=config.output_path
    )
