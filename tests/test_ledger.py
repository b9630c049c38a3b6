"""AnswerLedger: the answered-query accounting of both query services.

The elastic coordinator checkpoints its ledger and a successor that
finds the run already finished rebuilds the accounting from that
snapshot alone, so snapshot → restore must reproduce the outcome.
"""

from __future__ import annotations

import pickle

import pytest

from repro.blast.fasta import SeqRecord
from repro.obs import EV_QUERY, Tracer
from repro.service.arrivals import QueryJob
from repro.service.ledger import AnswerLedger
from repro.service.scheduler import QueuedJob
from repro.simmpi.launcher import run


def _job(qid, arrival, lane="scan"):
    rec = SeqRecord(f"q{qid}", "MKVLAW")
    return QueuedJob(QueryJob(qid, arrival, rec, lane=lane), lane, arrival)


def _fill(ledger):
    """Two waves, one degraded answer and one shed query."""
    w = ledger.open_wave()
    ledger.answer(_job(3, 1.0), w, b"three", 4.0)
    ledger.answer(_job(0, 0.5, "interactive"), w, b"zero", 4.0)
    ledger.shed(_job(2, 2.0).job, "scan")
    w = ledger.open_wave()
    ledger.answer(_job(1, 3.0, "interactive"), w, b"one", 7.5,
                  missing=(2, 5))


def _on_rank(body, tracer=None):
    res = run(1, lambda ctx: body(ctx), tracer=tracer)
    return res.rank_results[0], res


def test_snapshot_restore_reproduces_the_outcome():
    def body(ctx):
        ledger = AnswerLedger(ctx, 0.5, degrades=True)
        _fill(ledger)
        # A checkpoint pickles the snapshot.
        snap = pickle.loads(pickle.dumps(ledger.snapshot()))
        restored = AnswerLedger(ctx, 0.5, degrades=True)
        restored.restore(snap)
        return ledger, restored

    (ledger, restored), _res = _on_rank(body)
    assert restored.outcome() == ledger.outcome()
    assert restored.report_bytes(_Writer()) == ledger.report_bytes(_Writer())
    assert len(restored) == 4 and all(q in restored for q in range(4))


def test_outcome_counts_rows_and_span():
    def body(ctx):
        ledger = AnswerLedger(ctx, 0.5, degrades=True)
        _fill(ledger)
        return ledger.publish()

    out, res = _on_rank(body)
    assert [r["qid"] for r in out["per_query"]] == [0, 1, 2, 3]
    assert out["per_query"][1]["missing"] == (2, 5)
    assert out["per_query"][2] == {
        "qid": 2, "lane": "scan", "arrival": 2.0, "shed": True,
    }
    assert (out["waves"], out["degraded_queries"], out["shed_queries"]) == (
        2, 1, 1,
    )
    lat = out["latency"]
    assert lat["queries"] == 3 and lat["span_s"] == pytest.approx(7.0)
    gauges = res.metrics["global"]["gauges"]
    assert gauges["service.shed_queries"] == 1.0
    assert gauges["service.degraded_queries"] == 1.0
    assert res.fault_report.count("detect:shed") == 1


def test_flat_ledger_publishes_no_outcome_counts():
    def body(ctx):
        ledger = AnswerLedger(ctx, 0.0)
        ledger.answer(_job(0, 0.0), ledger.open_wave(), b"x", 1.0)
        return ledger.publish()

    _out, res = _on_rank(body)
    gauges = res.metrics["global"]["gauges"]
    assert gauges["service.waves"] == 1.0
    assert "service.shed_queries" not in gauges
    assert "service.degraded_queries" not in gauges


def test_answers_trace_query_spans():
    def body(ctx):
        _fill(AnswerLedger(ctx, 0.5, degrades=True))

    tracer = Tracer()
    _on_rank(body, tracer)
    spans = [(e.name, *e.args, e.t0, e.t1)
             for e in tracer.events if e.kind == EV_QUERY]
    assert spans == [
        ("scan", 3, 1, 5, 1.0, 4.0),
        ("interactive", 0, 1, 4, 0.5, 4.0),
        ("interactive", 1, 2, 3, 3.0, 7.5),
    ]


class _Writer:
    def preamble(self) -> bytes:
        return b"PRE|"
