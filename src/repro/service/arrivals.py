"""Query arrival streams: timestamped jobs for the online service.

Two generators produce the same thing — a list of :class:`QueryJob`
with virtual-clock arrival stamps:

- :func:`poisson_arrivals` draws i.i.d. exponential inter-arrival gaps
  from a seeded generator (the memoryless open-loop client model);
- :func:`trace_arrivals` replays an explicit trace file, one
  ``<arrival-seconds> <query-index> [lane]`` line per query, for
  workloads measured elsewhere or constructed by tests.

Both are deterministic: the same seed/trace always yields the same
stream, which is what makes service runs replayable end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blast.fasta import SeqRecord

#: Admission lanes a job may be pinned to (None = classify by length).
LANES = ("interactive", "scan")


@dataclass(frozen=True)
class QueryJob:
    """One query submission: who, what, and when it arrived.

    ``lane`` pins the admission lane explicitly; ``None`` lets the
    scheduler classify by sequence length (short = interactive).
    """

    qid: int
    arrival: float
    record: SeqRecord
    lane: str | None = None

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise ValueError(f"negative arrival time {self.arrival}")
        if self.lane is not None and self.lane not in LANES:
            raise ValueError(
                f"unknown lane {self.lane!r} (expected one of {LANES})"
            )

    def payload_nbytes(self) -> int:
        """Wire size when shipped inside a wave dispatch."""
        return 16 + len(self.record.defline) + len(self.record.sequence)


def admission_order(jobs: list[QueryJob], config) -> tuple[QueryJob, ...]:
    """Check a service's job stream and order it by (arrival, qid).

    ``config`` is the run's ``ParallelConfig``: its ``query_batch`` is
    a batch-driver setting a service must not be given.
    """
    if not jobs:
        raise ValueError("the service needs at least one QueryJob")
    qids = [j.qid for j in jobs]
    if len(set(qids)) != len(qids):
        raise ValueError("duplicate qid in the job stream")
    if config.query_batch > 0:
        raise ValueError(
            "query_batch is a batch-driver setting; the service's "
            "admission scheduler owns batching — set query_batch=0 "
            "and size waves with ServiceConfig.max_wave"
        )
    return tuple(sorted(jobs, key=lambda j: (j.arrival, j.qid)))


def poisson_arrivals(
    records: list[SeqRecord],
    *,
    rate: float,
    seed: int = 0,
    start: float = 0.0,
) -> list[QueryJob]:
    """A Poisson arrival process over ``records`` (one job per record).

    ``rate`` is the mean arrival rate in queries per virtual second;
    ``seed`` fully determines the stream.  Jobs keep the record order as
    their ``qid`` (the oracle's query order), arrivals are strictly
    ordered by construction.
    """
    if rate <= 0:
        raise ValueError(f"arrival rate must be positive, got {rate}")
    rng = np.random.default_rng(seed)
    t = start
    jobs: list[QueryJob] = []
    for qid, rec in enumerate(records):
        t += float(rng.exponential(1.0 / rate))
        jobs.append(QueryJob(qid=qid, arrival=t, record=rec))
    return jobs


def trace_arrivals(
    text: str, records: list[SeqRecord]
) -> list[QueryJob]:
    """Parse a trace into jobs against ``records``.

    Each non-comment line is ``<arrival-seconds> <query-index> [lane]``;
    ``#`` starts a comment, blank lines are skipped.  Every referenced
    query index becomes that job's ``qid``, and each index may appear at
    most once (one report section per query).  Malformed lines raise
    :exc:`ValueError` naming the line number.
    """
    jobs: list[QueryJob] = []
    seen: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(
                f"trace line {lineno}: expected "
                f"'<arrival> <query-index> [lane]', got {raw!r}"
            )
        try:
            arrival = float(parts[0])
            qid = int(parts[1])
        except ValueError:
            raise ValueError(
                f"trace line {lineno}: bad arrival/index in {raw!r}"
            ) from None
        if arrival < 0:
            raise ValueError(
                f"trace line {lineno}: negative arrival {arrival}"
            )
        if not 0 <= qid < len(records):
            raise ValueError(
                f"trace line {lineno}: query index {qid} out of range "
                f"(have {len(records)} records)"
            )
        if qid in seen:
            raise ValueError(
                f"trace line {lineno}: query index {qid} repeated"
            )
        seen.add(qid)
        lane = parts[2] if len(parts) == 3 else None
        if lane is not None and lane not in LANES:
            raise ValueError(
                f"trace line {lineno}: unknown lane {lane!r} "
                f"(expected one of {LANES})"
            )
        jobs.append(
            QueryJob(qid=qid, arrival=arrival, record=records[qid],
                     lane=lane)
        )
    return jobs
