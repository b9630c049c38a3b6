"""The benchmark's workloads: inputs from a seed, staging, one run.

Every workload searches the paper-regime synthetic protein database
(600 sequences, mean length 250, 70% in families of 6) with queries
sampled from it, under the calibrated paper cost model
(``repro.experiments.common.PAPER_COSTS``).  ``--seed`` drives database
synthesis, query sampling and the arrival schedule; seed 0 uses
the repository's historic seeds (database 20050404, queries 42,
arrivals 7), seed ``n`` offsets each of them by ``n``.

The parent process builds :class:`Inputs` and writes them to a work
directory; the fresh run process reads them back, so the program under
test receives only the generated records and arrival times.
"""

from __future__ import annotations

import json
import pathlib
import re
from dataclasses import dataclass, field

DB_SEED, QUERY_SEED, ARRIVAL_SEED = 20050404, 42, 7
DB_SEQUENCES, DB_MEAN_LENGTH = 600, 250


@dataclass
class Inputs:
    """What the program under test receives."""

    db: list  # list[SeqRecord]
    queries: list  # list[SeqRecord]
    #: ``(arrival virtual seconds, query index)``; empty for batch runs
    arrivals: list[tuple[float, int]] = field(default_factory=list)

    def dump(self, path: pathlib.Path) -> None:
        path.write_text(json.dumps({
            "db": [[r.defline, r.sequence] for r in self.db],
            "queries": [[r.defline, r.sequence] for r in self.queries],
            "arrivals": self.arrivals,
        }))

    @classmethod
    def load(cls, path: pathlib.Path) -> "Inputs":
        from repro.blast.fasta import SeqRecord

        doc = json.loads(path.read_text())
        return cls(
            db=[SeqRecord(d, s) for d, s in doc["db"]],
            queries=[SeqRecord(d, s) for d, s in doc["queries"]],
            arrivals=[(t, q) for t, q in doc["arrivals"]],
        )


@dataclass
class Outcome:
    """One run's output and the columns that must repeat exactly."""

    report: bytes
    virtual_makespan_s: float
    #: per-query virtual latency (arrival to completion), query order
    latencies: list[float]
    #: query indices answered as shed or degraded rather than in full
    not_answered: dict[int, str] = field(default_factory=dict)
    #: the simulator's ``RunResult`` (read for per-layer counters after
    #: the timed region)
    result: object = None
    #: the service's ``HierServiceResult``, for service workloads
    service: object = None


def split_report(report: bytes) -> list[bytes]:
    """``[preamble, section of query 0, section of query 1, ...]``."""
    return re.split(rb"(?m)^(?=Query= )", report)


def _config():
    from repro.blast.engine import SearchParams
    from repro.experiments.common import PAPER_COSTS
    from repro.parallel import ParallelConfig

    return ParallelConfig(search=SearchParams(max_alignments=50),
                          cost=PAPER_COSTS)


class Workload:
    """Base: inputs from a seed, staging on a fresh store, oracle.

    The size arguments exist so the accounting tests can run the same
    code on a tiny database; the benchmark uses the defaults.
    """

    name = ""

    def __init__(self, *, nqueries: int = 78,
                 slo_limit_s: float = 150.0,
                 db_sequences: int = DB_SEQUENCES,
                 mean_length: int = DB_MEAN_LENGTH) -> None:
        self.nqueries = nqueries
        self.slo_limit_s = slo_limit_s
        self.db_sequences = db_sequences
        self.mean_length = mean_length

    def make_inputs(self, seed: int) -> Inputs:
        from repro.workloads import (
            SynthSpec,
            sample_queries,
            synthesize_protein_records,
        )

        db = synthesize_protein_records(SynthSpec(
            num_sequences=self.db_sequences, mean_length=self.mean_length,
            family_fraction=0.7, family_size=6, seed=DB_SEED + seed,
        ))
        # A fixed count, not the usual byte budget, so that no seed
        # changes the offered load by a query more or less.  The sampler
        # draws a seeded permutation and stops at the byte budget, so the
        # first ``nqueries`` of an ample budget are the same records the
        # budget-sampled sets of the repository's experiments start with.
        queries = sample_queries(db, 1_000 * self.nqueries,
                                 seed=QUERY_SEED + seed)[:self.nqueries]
        return Inputs(db, queries, self.arrivals(queries, seed))

    def arrivals(self, queries, seed: int) -> list[tuple[float, int]]:
        return []

    def stage(self, inputs: Inputs):
        """Format the database and write the queries; ``(store, cfg)``."""
        from repro.parallel import stage_inputs
        from repro.simmpi import FileStore

        store = FileStore()
        cfg = stage_inputs(store, inputs.db, inputs.queries,
                           config=_config(), title="synthetic nr")
        return store, cfg

    def oracle(self, store, cfg) -> bytes:
        from repro.parallel import run_serial_reference

        return run_serial_reference(store, cfg, output_path="_oracle.out")

    def run(self, store, cfg, inputs: Inputs, tracer=None) -> Outcome:
        raise NotImplementedError

    def layer_counters(self, outcome: Outcome) -> dict[str, float]:
        """Program-side per-layer counters of a traced run: messages,
        bytes and the largest per-rank share of the makespan spent
        waiting (from the traced events)."""
        from repro.obs.critical_path import attribute_makespan

        result = outcome.result
        share = 0.0
        if result.events is not None and result.makespan > 0:
            attr = attribute_makespan(result.events, result.nprocs,
                                      result.makespan)
            share = max(a["wait"] for a in attr) / result.makespan
        return {
            "simmpi.messages": float(result.messages_sent),
            "simmpi.message_bytes": float(result.bytes_sent),
            "simmpi.virtual_wait_share": share,
        }


class PioBlast(Workload):
    """Flat fault-free pioBLAST on the ORNL Altix model; every query is
    answered when the collective report write ends (the makespan)."""

    def __init__(self, nprocs: int, **size) -> None:
        super().__init__(**size)
        self.nprocs = nprocs
        self.name = f"pio-np{nprocs}"

    def run(self, store, cfg, inputs, tracer=None) -> Outcome:
        from repro.parallel import run_pioblast
        from repro.platforms import ORNL_ALTIX

        result = run_pioblast(self.nprocs, store, cfg, ORNL_ALTIX,
                              tracer=tracer)
        return Outcome(
            report=store.read_all(cfg.output_path),
            virtual_makespan_s=result.makespan,
            latencies=[result.makespan] * len(inputs.queries),
            result=result,
        )


class ElasticGroupKill(Workload):
    """The elastic hierarchical service (K replicate groups) serving an
    open-loop stream while a whole group is killed; the
    hier-service-groupkill scenario of ``repro.obs.bench`` at a lower
    rate.

    Arrivals are a Poisson stream conditioned on its count: ``nqueries``
    uniform draws over ``nqueries / rate`` virtual seconds, sorted.  At
    0.2 q/s, three surviving groups run near saturation and the median
    latency of one 78-query stream moves by 15-20% from seed to seed;
    at 0.1 q/s with the count fixed it moves by about 5%, which is what
    a gated metric needs.
    """

    rate = 0.1
    redispatch_timeout = 90.0
    name = "elastic-groupkill"

    def __init__(self, nprocs: int = 32, ngroups: int = 4,
                 fault: str | None = "crash=group:g1@40", **size) -> None:
        super().__init__(**size)
        self.nprocs, self.ngroups, self.fault = nprocs, ngroups, fault

    def arrivals(self, queries, seed):
        import numpy as np

        n = len(queries)
        rng = np.random.default_rng(ARRIVAL_SEED + seed)
        times = np.sort(rng.uniform(0.0, n / self.rate, n))
        return [(float(t), q) for q, t in enumerate(times)]

    def run(self, store, cfg, inputs, tracer=None) -> Outcome:
        from repro.hier import ElasticConfig, HierConfig, run_hier_service
        from repro.platforms import ORNL_ALTIX
        from repro.service import QueryJob, ServiceConfig
        from repro.simmpi import FaultPlan

        jobs = [QueryJob(qid=q, arrival=t, record=inputs.queries[q])
                for t, q in inputs.arrivals]
        sres = run_hier_service(
            self.nprocs, store, cfg, jobs,
            hier=HierConfig(ngroups=self.ngroups, mode="replicate"),
            service=ServiceConfig(max_wave=4, max_scan_defer=10,
                                  interactive_max_len=210,
                                  admission_delay=20.0),
            elastic=ElasticConfig(redispatch_timeout=self.redispatch_timeout),
            platform=ORNL_ALTIX,
            faults=FaultPlan.parse(self.fault) if self.fault else None,
            tracer=tracer,
        )
        result = sres.result
        latency = [float("inf")] * len(inputs.queries)
        not_answered: dict[int, str] = {}
        for row in sres.per_query:
            if row.get("shed"):
                not_answered[row["qid"]] = "shed"
                continue
            if row.get("degraded"):
                not_answered[row["qid"]] = row["degraded"]
            latency[row["qid"]] = row["latency_s"]
        return Outcome(
            report=sres.report,
            virtual_makespan_s=result.makespan,
            latencies=latency,
            not_answered=not_answered,
            result=result,
            service=sres,
        )

    def layer_counters(self, outcome: Outcome) -> dict[str, float]:
        sres = outcome.service
        report = sres.result.fault_report
        counters = (sres.result.metrics or {}).get("global", {}).get(
            "counters", {})
        probes = sum(
            len(e.detail[-1]) for e in report.events
            if e.kind in ("recover:rereplicate-start",
                          "detect:recovery-probe-failed")
        )
        layer = super().layer_counters(outcome)
        layer.update({
            "hier.redispatches": counters.get("hier.redispatches", 0.0),
            "hier.dup_results": float(report.count("recover:dup-result")),
            "hier.results_used": counters.get("hier.results", 0.0),
            "hier.regroups": float(sres.regroups),
            "hier.recovery_probes": float(probes),
            "service.waves": float(sres.waves),
            "service.answered": float(len(sres.per_query) - sres.shed_queries),
            "service.shed": float(sres.shed_queries),
            "service.degraded": float(sres.degraded_queries),
        })
        return layer


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        PioBlast(512, nqueries=15, slo_limit_s=90.0),
        ElasticGroupKill(),
    )
}
