"""Answered-query accounting shared by both query services.

The flat service (:mod:`repro.service.service`) and the elastic
coordinator (:mod:`repro.hier.elastic`) finish a merged query the same
way: keep its section, add a per-query row and a lane latency sample,
count it in ``service.*`` metrics and trace an ``EV_QUERY`` span.
"""

from __future__ import annotations

from repro.obs.events import EV_QUERY
from repro.obs.latency import flatten_latency, latency_summary
from repro.simmpi import ProcContext


class AnswerLedger:
    """Sections, rows and latency samples of every settled query.

    A query is settled once answered or shed; ``len(ledger)`` counts
    them and ``qid in ledger`` asks for one.  ``first_arrival`` starts
    the throughput span.  ``degrades``: the service can shed or degrade
    answers, so the end-of-run gauges carry both counts.
    """

    def __init__(self, ctx: ProcContext, first_arrival: float, *,
                 degrades: bool = False) -> None:
        self.ctx = ctx
        self.metrics = ctx.cluster.metrics
        self.degrades = degrades
        self.sections: dict[int, bytes] = {}
        self.rows: list[dict] = []
        self.samples: dict[str, list[float]] = {}
        self.shed_qids: set[int] = set()
        self.waves = 0
        self.degraded = 0
        self.first_arrival = first_arrival
        self.last_completion = first_arrival

    def __len__(self) -> int:
        return len(self.sections) + len(self.shed_qids)

    def __contains__(self, qid: int) -> bool:
        return qid in self.sections or qid in self.shed_qids

    def open_wave(self) -> int:
        """Number the next wave (1, 2, ...)."""
        self.waves += 1
        return self.waves

    def answer(self, q, wave: int, section: bytes, done_at: float,
               missing: tuple[int, ...] | None = None) -> None:
        """Queued job ``q`` was answered by ``section`` at ``done_at``;
        ``missing`` (the absent fragment ids) marks the answer
        degraded."""
        qid, lane, arrival = q.job.qid, q.lane, q.job.arrival
        self.sections[qid] = section
        lat = done_at - arrival
        self.samples.setdefault(lane, []).append(lat)
        row = {
            "qid": qid, "lane": lane, "wave": wave,
            "arrival": arrival, "completed": done_at, "latency_s": lat,
        }
        metrics = self.metrics
        if missing is not None:
            row["degraded"] = "missing-fragments"
            row["missing"] = missing
            self.degraded += 1
            metrics.inc(None, "service.degraded_queries")
        self.rows.append(row)
        metrics.inc(None, "service.queries")
        metrics.observe(None, "service.latency_s", lat)
        metrics.observe(None, f"service.latency.{lane}_s", lat)
        tracer = self.ctx.cluster.tracer
        if tracer is not None:
            tracer.span(EV_QUERY, self.ctx.rank, arrival, done_at,
                        lane, qid, wave, len(section))
        self.last_completion = done_at

    def count_wave(self) -> None:
        """A wave finished (the ``service.waves`` counter)."""
        self.metrics.inc(None, "service.waves")

    def shed(self, job, lane: str) -> None:
        """``job`` was shed at admission: accounted, never searched."""
        self.shed_qids.add(job.qid)
        self.rows.append({
            "qid": job.qid, "lane": lane,
            "arrival": job.arrival, "shed": True,
        })
        self.metrics.inc(None, "service.shed_queries")
        self.ctx.fault_report.record(
            self.ctx.engine.now, "detect:shed", job.qid
        )

    def report_bytes(self, writer) -> bytes:
        """The report: preamble, then every section in qid order."""
        return b"".join(
            [writer.preamble()]
            + [self.sections[qid] for qid in sorted(self.sections)]
        )

    # ---- checkpoint ---------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "sections": dict(self.sections),
            "per_query": list(self.rows),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "shed": sorted(self.shed_qids),
            "nwaves": self.waves,
            "degraded": self.degraded,
        }

    def restore(self, snap: dict) -> None:
        self.sections.update(snap["sections"])
        self.rows.extend(snap["per_query"])
        for lane, vals in snap["samples"].items():
            self.samples.setdefault(lane, []).extend(vals)
        self.shed_qids.update(snap["shed"])
        self.waves = snap["nwaves"]
        self.degraded = snap["degraded"]
        self.last_completion = max(
            (r["completed"] for r in self.rows if "completed" in r),
            default=self.first_arrival,
        )

    # ---- end of run ---------------------------------------------------
    def outcome(self) -> dict:
        """Latency summary, per-query rows (qid order) and counts."""
        span = max(0.0, self.last_completion - self.first_arrival)
        self.rows.sort(key=lambda r: r["qid"])
        return {
            "latency": latency_summary(self.samples, span),
            "per_query": self.rows,
            "waves": self.waves,
            "degraded_queries": self.degraded,
            "shed_queries": len(self.shed_qids),
        }

    def publish(self) -> dict:
        """:meth:`outcome`, with its summary set as ``service.*``
        gauges."""
        out = self.outcome()
        metrics = self.metrics
        for key, value in flatten_latency(out["latency"]).items():
            metrics.set_gauge(None, f"service.{key}", value)
        metrics.set_gauge(None, "service.waves", float(self.waves))
        if self.degrades:
            metrics.set_gauge(
                None, "service.degraded_queries", float(self.degraded)
            )
            metrics.set_gauge(
                None, "service.shed_queries", float(len(self.shed_qids))
            )
        return out
