"""Cluster assembly and SPMD program launch.

:func:`run` is the top-level entry point: it builds an engine, a network,
a shared filesystem, per-node local disks, and a communicator for
``nprocs`` ranks, pre-populates the shared filesystem if asked, executes
one instance of ``program(ctx)`` per rank, and returns a
:class:`RunResult` with the virtual makespan, per-rank phase times, and
the final filesystem contents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.simmpi.comm import Communicator
from repro.simmpi.engine import Engine
from repro.simmpi.faults import FaultPlan, FaultReport
from repro.simmpi.filesystem import (
    FileStore,
    FilesystemModel,
    LocalDisk,
    NFSFilesystem,
    ParallelFS,
)
from repro.simmpi.network import NetworkModel
from repro.simmpi.trace import PhaseRecorder


@dataclass(frozen=True)
class PlatformSpec:
    """Hardware description of a simulated cluster.

    ``cpu_speed`` scales modelled compute charges: a rank asking for
    ``t`` seconds of work sleeps ``t / cpu_speed`` virtual seconds.
    """

    name: str = "generic"
    network: NetworkModel = field(default_factory=NetworkModel)
    shared_fs_kind: str = "parallel"  # 'parallel' | 'nfs'
    shared_fs_capacity: float = 2e9
    shared_fs_per_stream: float = 400e6
    shared_fs_op_overhead: float = 2e-4
    local_disks: bool = False
    local_disk_capacity: float = 5e7
    local_disk_op_overhead: float = 5e-3
    cpu_speed: float = 1.0
    # Optional per-rank speed multipliers (heterogeneous nodes); rank r
    # runs at cpu_speed * cpu_speed_per_rank[r % len].  Used by the §5
    # adaptive-granularity experiments.
    cpu_speed_per_rank: tuple[float, ...] | None = None

    def rank_speed(self, rank: int) -> float:
        if self.cpu_speed_per_rank:
            return self.cpu_speed * self.cpu_speed_per_rank[
                rank % len(self.cpu_speed_per_rank)
            ]
        return self.cpu_speed

    def make_shared_fs(self, engine: Engine, store: FileStore | None = None
                       ) -> FilesystemModel:
        if self.shared_fs_kind == "parallel":
            return ParallelFS(
                engine,
                capacity=self.shared_fs_capacity,
                per_stream=self.shared_fs_per_stream,
                op_overhead=self.shared_fs_op_overhead,
                store=store,
            )
        if self.shared_fs_kind == "nfs":
            return NFSFilesystem(
                engine,
                capacity=self.shared_fs_capacity,
                per_stream=self.shared_fs_per_stream or None,
                op_overhead=self.shared_fs_op_overhead,
                store=store,
            )
        raise ValueError(f"unknown shared_fs_kind {self.shared_fs_kind!r}")


class ProcContext:
    """Everything a rank program sees: identity, comm, storage, timers."""

    def __init__(
        self,
        cluster: "Cluster",
        rank: int,
        args: dict[str, Any],
    ) -> None:
        self.cluster = cluster
        self.rank = rank
        self.size = cluster.nprocs
        self.engine = cluster.engine
        self.comm = cluster.comm
        self.fs = cluster.shared_fs
        self.local_disk = cluster.local_disks[rank] if cluster.local_disks else None
        self.phases = cluster.phases
        self.platform = cluster.platform
        self.args = args
        self.faults = cluster.faults
        self.fault_report = cluster.fault_report
        self.result: Any = None  # program-visible per-rank result slot

    @property
    def now(self) -> float:
        return self.engine.now

    def compute(self, seconds: float) -> None:
        """Charge ``seconds`` of single-CPU work (scaled by this rank's
        speed, which may be heterogeneous, and by any active straggler
        fault window)."""
        if seconds < 0:
            raise ValueError(f"negative compute time {seconds}")
        speed = self.platform.rank_speed(self.rank)
        if self.faults is not None:
            speed *= self.faults.cpu_factor(self.rank, self.engine.now)
        self.engine.sleep(seconds / speed)

    def phase(self, name: str):
        return self.phases.phase(name)


class Cluster:
    """An engine plus the hardware models for one simulation run."""

    def __init__(
        self,
        nprocs: int,
        platform: PlatformSpec,
        *,
        shared_store: FileStore | None = None,
        faults: FaultPlan | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if nprocs < 1:
            raise ValueError("need at least one process")
        self.nprocs = nprocs
        self.platform = platform
        self.engine = Engine()
        self.comm = Communicator(self.engine, nprocs, platform.network)
        self.shared_fs = platform.make_shared_fs(self.engine, shared_store)
        self.local_disks: list[LocalDisk] | None = None
        if platform.local_disks:
            self.local_disks = [
                LocalDisk(
                    self.engine,
                    capacity=platform.local_disk_capacity,
                    op_overhead=platform.local_disk_op_overhead,
                    name=f"disk{r}",
                )
                for r in range(nprocs)
            ]
        self.phases = PhaseRecorder(self.engine, nprocs)
        # A report always exists (drivers record detection/recovery into
        # it unconditionally); an ActiveFaults runtime only when a plan
        # was supplied.
        self.fault_report = FaultReport()
        # Observability: metrics are cheap enough to collect on every run;
        # the tracer is opt-in (None keeps every hook a single `is None`).
        self.metrics = metrics if metrics is not None else MetricsRegistry(nprocs)
        self.tracer = tracer
        self._wire_observability()
        self.faults = None
        if faults is not None and faults.events:
            self.faults = faults.activate(self)
            self.comm.faults = self.faults
            self.shared_fs.faults = self.faults
            if self.local_disks:
                for d in self.local_disks:
                    d.faults = self.faults

    def _wire_observability(self) -> None:
        """Attach the tracer/metrics to every instrumented component."""
        t, m = self.tracer, self.metrics
        self.engine.tracer = t
        self.engine.metrics = m
        self.comm.tracer = t
        self.comm.metrics = m
        self.phases.tracer = t
        self.fault_report.tracer = t
        self.fault_report.metrics = m
        for fs in [self.shared_fs, *(self.local_disks or [])]:
            fs.tracer = t
            fs.metrics = m
            fs.pipe.tracer = t


@dataclass
class RunResult:
    """Outcome of one simulated SPMD run."""

    makespan: float
    nprocs: int
    platform: str
    phase_times: list[dict[str, float]]  # per rank
    rank_results: list[Any]
    store: FileStore
    messages_sent: int
    bytes_sent: int
    fs_read_ops: int
    fs_write_ops: int
    fault_report: FaultReport | None = None
    dead_ranks: tuple[int, ...] = ()
    #: ranks that promoted themselves to master after a master crash
    #: (``recover:promote-master`` entries, in promotion order)
    promotions: tuple[int, ...] = ()
    #: metrics registry snapshot (``repro.obs.MetricsRegistry.snapshot``)
    metrics: dict[str, Any] | None = None
    #: the raw traced event list (only when a tracer was passed to ``run``)
    events: list[Any] | None = None

    def phase_max(self, phase: str) -> float:
        """Max over ranks — the phase's contribution to the makespan."""
        return max((p.get(phase, 0.0) for p in self.phase_times), default=0.0)

    def phase_rank0(self, phase: str) -> float:
        return self.phase_times[0].get(phase, 0.0) if self.phase_times else 0.0

    def phase_total(self, phases: list[str] | None = None) -> float:
        """Makespan decomposition helper: sum of per-phase maxima."""
        names = phases
        if names is None:
            names = sorted({k for p in self.phase_times for k in p})
        return sum(self.phase_max(n) for n in names)


def run(
    nprocs: int,
    program: Callable[[ProcContext], Any],
    platform: PlatformSpec | None = None,
    *,
    shared_store: FileStore | None = None,
    args: dict[str, Any] | None = None,
    faults: FaultPlan | None = None,
    tracer: Tracer | None = None,
    on_cluster: Callable[["Cluster"], None] | None = None,
) -> RunResult:
    """Execute ``program`` on every rank of a fresh simulated cluster.

    ``shared_store`` lets the caller pre-populate the shared filesystem
    (formatted databases, query files) and inspect outputs afterwards.
    ``faults`` injects a deterministic :class:`FaultPlan`; the resulting
    :class:`FaultReport` is returned on the :class:`RunResult`.
    ``tracer`` enables structured event tracing (``repro.obs.Tracer``);
    the traced events come back on ``RunResult.events``.
    ``on_cluster`` is called with the assembled :class:`Cluster` before
    any rank starts — the hook point for out-of-band administrative
    actions (e.g. ``cluster.engine.schedule(t, fn)`` to mutate the
    shared store mid-run, the way an external ``formatdb`` would).  Such
    actions may run on any rank's thread: they must not block and must
    not ask for the current rank (see :meth:`Engine.schedule`).
    """
    plat = platform if platform is not None else PlatformSpec()
    cluster = Cluster(
        nprocs, plat, shared_store=shared_store, faults=faults, tracer=tracer
    )
    if on_cluster is not None:
        on_cluster(cluster)
    ctxs = [ProcContext(cluster, r, dict(args or {})) for r in range(nprocs)]

    def make_body(ctx: ProcContext) -> Callable[[], None]:
        def body() -> None:
            ctx.result = program(ctx)

        return body

    for r in range(nprocs):
        cluster.engine.spawn(make_body(ctxs[r]), r)
    makespan = cluster.engine.run()
    return RunResult(
        makespan=makespan,
        nprocs=nprocs,
        platform=plat.name,
        phase_times=[cluster.phases.rank_phases(r) for r in range(nprocs)],
        rank_results=[c.result for c in ctxs],
        store=cluster.shared_fs.store,
        messages_sent=cluster.comm.messages_sent,
        bytes_sent=cluster.comm.bytes_sent,
        fs_read_ops=cluster.shared_fs.read_ops,
        fs_write_ops=cluster.shared_fs.write_ops,
        fault_report=cluster.fault_report,
        dead_ranks=tuple(sorted(cluster.engine.dead_ranks)),
        promotions=tuple(
            e.detail[0]
            for e in cluster.fault_report.events
            if e.kind == "recover:promote-master"
        ),
        metrics=cluster.metrics.snapshot(),
        events=tracer.events if tracer is not None else None,
    )
