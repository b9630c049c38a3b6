"""Bit-identity of the fast paths against their scalar references.

Two independent fast paths landed together and both promise *identical*
output, not just equivalent output:

* the batched search kernel (``SearchParams.batch``) must produce the
  same alignments, the same statistics counters, and byte-identical
  rendered reports as the scalar per-subject loop;
* the simmpi scheduler fast path (``Engine.fast_wakes``) must replay
  whole simulated runs — makespans, per-rank phase times, output files —
  bit for bit against the legacy closure-per-wake scheduler.

These tests are the contract that lets every other test in the suite
run against the fast paths only.
"""

import contextlib
import dataclasses
import hashlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast.engine import (
    BlastSearch,
    ListDatabase,
    SearchParams,
    SearchStats,
    finalize_results,
)
from repro.blast.extend import ungapped_extend, ungapped_extend_batch
from repro.blast.fasta import SeqRecord
from repro.blast.matrices import blosum62
from repro.hier import ElasticConfig
from repro.blast.output import DbStats, HitSummary, ReportWriter
from repro.simmpi.comm import TIMEOUT, Communicator
from repro.simmpi.engine import Engine, RankKilled, SimError
from repro.simmpi.network import NetworkModel
from repro.workloads import (
    SynthSpec,
    synthesize_dna_records,
    synthesize_protein_records,
)

# ----------------------------------------------------------------------
# batched search kernel vs scalar reference
# ----------------------------------------------------------------------


def render_report(eng, queries, results, num_seqs, letters) -> bytes:
    sp = eng.stats_params
    writer = ReportWriter(
        eng.params.program,
        DbStats("identity-db", num_seqs, letters),
        lam=sp.lam,
        k=sp.K,
        h=sp.H,
    )
    parts = [writer.preamble()]
    for query, alns in zip(queries, results):
        summaries = [
            HitSummary(a.subject_defline, a.bit_score, a.evalue)
            for a in alns
        ]
        parts.append(
            writer.query_header(query.defline, len(query.sequence),
                                summaries)
        )
        parts.extend(writer.alignment_block(a) for a in alns)
        parts.append(
            writer.query_footer(
                eng.effective_space(len(query.sequence), letters, num_seqs)
            )
        )
    return b"".join(parts)


def run_search(params: SearchParams, records, queries):
    """One fragment search; returns (results, stats, report bytes)."""
    BlastSearch._GLOBAL_INDEX_MEMO.clear()
    eng = BlastSearch(params)
    db = ListDatabase(records, eng.alphabet)
    stats = SearchStats()
    results = eng.search_fragment(
        queries,
        db,
        db_letters=db.total_letters,
        db_num_seqs=db.num_sequences,
        stats=stats,
    )
    report = render_report(eng, queries, results, db.num_sequences,
                           db.total_letters)
    return results, stats, report


def run_fragmented(params, records, queries, frag_sizes, *, one_at_a_time):
    """Search ``records`` split into consecutive fragments of
    ``frag_sizes`` (cycled) with global statistics, as a parallel
    worker does; either every query in one call per fragment (a cohort)
    or one call per (query, fragment).  Returns per-query alignments
    (ranked and capped), the summed stats and the report bytes."""
    BlastSearch._GLOBAL_INDEX_MEMO.clear()
    eng = BlastSearch(params)
    letters = ListDatabase(records, eng.alphabet).total_letters
    stats = SearchStats()
    per_query = [[] for _ in queries]
    base = 0
    k = 0
    while base < len(records):
        chunk = records[base : base + frag_sizes[k % len(frag_sizes)]]
        k += 1
        db = ListDatabase(chunk, eng.alphabet)
        common = dict(db_letters=letters, db_num_seqs=len(records),
                      base_oid=base, stats=stats)
        if one_at_a_time:
            for qi, q in enumerate(queries):
                (als,) = eng.search_fragment([q], db, **common)
                per_query[qi].extend(
                    dataclasses.replace(a, query_index=qi) for a in als
                )
        else:
            for qi, als in enumerate(eng.search_fragment(queries, db,
                                                         **common)):
                per_query[qi].extend(als)
        base += len(chunk)
    ranked = [
        r.alignments
        for r in finalize_results(queries, per_query, params.max_alignments)
    ]
    report = render_report(eng, queries, ranked, len(records), letters)
    return ranked, stats, report


def assert_cohort_identical(records, queries, frag_sizes=(1, 2, 3),
                            **params):
    """Cohort kernel over tiny fragments == scalar, one query at a time."""
    scalar = run_fragmented(SearchParams(batch=False, **params), records,
                            queries, frag_sizes, one_at_a_time=True)
    cohort = run_fragmented(SearchParams(batch=True, **params), records,
                            queries, frag_sizes, one_at_a_time=False)
    assert scalar[1] == cohort[1], "statistics counters diverged"
    for qi in range(len(queries)):
        assert scalar[0][qi] == cohort[0][qi], f"query {qi} diverged"
    assert scalar[2] == cohort[2], "rendered report bytes diverged"
    return cohort


def assert_batch_identical(records, queries, **params):
    scalar = run_search(SearchParams(batch=False, **params), records, queries)
    batched = run_search(SearchParams(batch=True, **params), records, queries)
    assert scalar[1] == batched[1], "statistics counters diverged"
    assert scalar[0] == batched[0], "alignments diverged"
    assert scalar[2] == batched[2], "rendered report bytes diverged"


class TestBatchedKernelIdentity:
    def test_protein_families(self):
        recs = synthesize_protein_records(
            SynthSpec(num_sequences=120, mean_length=150,
                      family_fraction=0.6, family_size=5, seed=101)
        )
        assert_batch_identical(recs, [recs[0], recs[3], recs[50]],
                               program="blastp")

    def test_protein_low_threshold(self):
        # A lower neighbourhood threshold densifies word hits and
        # triggers, stressing the covered-diagonal replay rounds.
        recs = synthesize_protein_records(
            SynthSpec(num_sequences=60, mean_length=120, seed=8)
        )
        assert_batch_identical(recs, [recs[1]], program="blastp",
                               threshold=9)

    def test_protein_ungapped(self):
        recs = synthesize_protein_records(
            SynthSpec(num_sequences=60, mean_length=120, seed=9)
        )
        assert_batch_identical(recs, [recs[2], recs[30]], program="blastp",
                               gapped=False)

    def test_nucleotide(self):
        recs = synthesize_dna_records(
            SynthSpec(num_sequences=150, mean_length=250,
                      family_fraction=0.5, family_size=5, seed=11)
        )
        assert_batch_identical(recs, [recs[0], recs[70]], program="blastn")

    def test_nucleotide_ungapped(self):
        recs = synthesize_dna_records(
            SynthSpec(num_sequences=150, mean_length=250, seed=12)
        )
        assert_batch_identical(recs, [recs[5]], program="blastn",
                               gapped=False)

    def test_wildcard_subjects(self):
        recs = list(
            synthesize_protein_records(
                SynthSpec(num_sequences=40, mean_length=100, seed=13)
            )
        )
        # Splice wildcards into subjects: word scanning must skip the
        # X-containing words identically in both programs, and batched
        # extensions must not leak across them.
        for i in range(0, len(recs), 3):
            s = recs[i].sequence
            mid = len(s) // 2
            recs[i] = SeqRecord(recs[i].defline,
                                s[:mid] + "XXX" + s[mid:])
        assert_batch_identical(recs, [recs[0], recs[3]], program="blastp")

    def test_degenerate_subjects(self):
        recs = list(
            synthesize_protein_records(
                SynthSpec(num_sequences=30, mean_length=90, seed=14)
            )
        )
        # Empty, single-residue, and all-wildcard records exercise the
        # concatenation bookkeeping (zero-length segments, sentinel
        # adjacency) that the scalar path never sees.
        recs[3] = SeqRecord("empty subject", "")
        recs[7] = SeqRecord("single residue", "W")
        recs[11] = SeqRecord("all wildcards", "XXXXX")
        assert_batch_identical(recs, [recs[0], recs[7]], program="blastp")

    def test_duplicate_subjects(self):
        recs = list(
            synthesize_protein_records(
                SynthSpec(num_sequences=20, mean_length=110, seed=15)
            )
        )
        # Duplicates force exact tie-breaking (same score, same spans,
        # different oids) through cull/rank/render.
        recs = recs + recs[:6]
        assert_batch_identical(recs, [recs[0], recs[2]], program="blastp")

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_random_workloads(self, seed):
        recs = synthesize_protein_records(
            SynthSpec(num_sequences=25, mean_length=80,
                      family_fraction=0.4, family_size=3, seed=seed)
        )
        assert_batch_identical(recs, [recs[0]], program="blastp")

    def test_tiny_band_forces_widening(self):
        # band=1 makes nearly every gapped DP clip its band edge: the
        # widen-and-retry (and, for long halves, scalar-fallback) paths
        # must still render byte-identical reports and equal stats.
        recs = synthesize_protein_records(
            SynthSpec(num_sequences=80, mean_length=150,
                      family_fraction=0.6, family_size=5, seed=21)
        )
        assert_batch_identical(recs, [recs[0], recs[10]],
                               program="blastp", band=1)

    def test_gapped_batch_escape_hatch(self):
        # gapped_batch=False keeps the batched scan/ungapped kernel but
        # routes gapped extensions through the scalar per-subject stage.
        recs = synthesize_protein_records(
            SynthSpec(num_sequences=60, mean_length=130,
                      family_fraction=0.5, family_size=4, seed=22)
        )
        scalar = run_search(
            SearchParams(batch=False, program="blastp"), recs,
            [recs[0], recs[8]],
        )
        hatch = run_search(
            SearchParams(batch=True, gapped_batch=False,
                         program="blastp"), recs, [recs[0], recs[8]],
        )
        assert scalar[1] == hatch[1]
        assert scalar[0] == hatch[0]
        assert scalar[2] == hatch[2]

    def test_duplicate_subjects_dedup_gapped_work(self):
        # Word-identical subjects produce identical (subject, anchor) DP
        # problems; both kernels must answer repeats from the memo —
        # counted as gapped_dedup, which the stats equality check above
        # also forces to be path-independent.
        recs = list(
            synthesize_protein_records(
                SynthSpec(num_sequences=30, mean_length=120,
                          family_fraction=0.5, family_size=4, seed=23)
            )
        )
        recs = recs + recs[:10] + recs[:10]
        queries = [recs[0], recs[4]]
        scalar = run_search(
            SearchParams(batch=False, program="blastp"), recs, queries
        )
        batched = run_search(
            SearchParams(batch=True, program="blastp"), recs, queries
        )
        assert scalar[1] == batched[1]
        assert scalar[0] == batched[0]
        assert scalar[2] == batched[2]
        assert batched[1].gapped_dedup > 0, (
            "triplicated subjects produced no memoized gapped hits"
        )
        assert scalar[1].gapped_dedup == batched[1].gapped_dedup


class TestCohortKernelIdentity:
    """Multi-query cohorts against many tiny fragments (the np=512
    shape: 1-3 sequences per fragment) against the scalar kernel run
    one query at a time."""

    @staticmethod
    def protein_case():
        recs = list(
            synthesize_protein_records(
                SynthSpec(num_sequences=36, mean_length=110,
                          family_fraction=0.6, family_size=4, seed=31)
            )
        )
        # Duplicated subjects: with fragment sizes 1, 2, 3, ... the two
        # copies of recs[0] at positions 7 and 8 share a fragment, so
        # the per-query gapped memo answers one of them; the trailing
        # copies land in other fragments.
        recs = recs[:7] + [recs[0], recs[0]] + recs[7:] + recs[10:13]
        rng = np.random.default_rng(5)
        random_q = "".join(rng.choice(list("ACDEFGHIKLMNPQRSTVWY"), 90))
        queries = [
            recs[0],
            SeqRecord("shorter than a word", "MK"),
            recs[9],
            SeqRecord("no words at all", "X" * 40),
            SeqRecord("random", random_q),
            recs[9],  # the same query twice in one cohort
            recs[21],
        ]
        return recs, queries

    def test_protein_cohort(self):
        recs, queries = self.protein_case()
        ranked, stats, _report = assert_cohort_identical(
            recs, queries, program="blastp"
        )
        assert stats.gapped_extensions > 0
        assert stats.gapped_dedup > 0, "duplicated subjects never deduped"
        assert ranked[0] and ranked[2]
        assert ranked[1] == [] and ranked[3] == []
        # Repeated query: same alignments, own query index.
        assert [dataclasses.replace(a, query_index=5) for a in ranked[2]] \
            == ranked[5]

    def test_protein_cohort_ungapped(self):
        recs, queries = self.protein_case()
        assert_cohort_identical(recs, queries, program="blastp",
                                gapped=False)

    def test_protein_cohort_scalar_gapped_stage(self):
        recs, queries = self.protein_case()
        assert_cohort_identical(recs, queries, program="blastp",
                                gapped_batch=False)

    def test_protein_cohort_one_fragment(self):
        recs, queries = self.protein_case()
        assert_cohort_identical(recs, queries, frag_sizes=(len(recs),),
                                program="blastp")

    def test_protein_cohort_many_slabs(self, monkeypatch):
        # A tiny cell budget makes every subject its own slab, so the
        # per-query gapped memo must carry across slabs.
        monkeypatch.setattr(BlastSearch, "SLAB_CELLS", 64)
        recs, queries = self.protein_case()
        assert_cohort_identical(recs, queries, frag_sizes=(len(recs),),
                                program="blastp")

    def test_nucleotide_cohort(self):
        recs = list(
            synthesize_dna_records(
                SynthSpec(num_sequences=40, mean_length=200,
                          family_fraction=0.5, family_size=4, seed=32)
            )
        )
        recs = recs + recs[:4]
        queries = [
            recs[0],
            SeqRecord("shorter than a word", "ACGTAC"),
            recs[7],
            SeqRecord("no words at all", "N" * 30),
            recs[7],
            recs[30],
        ]
        ranked = assert_cohort_identical(recs, queries, program="blastn")[0]
        assert ranked[0] and ranked[2] and ranked[1] == []

    def test_nucleotide_cohort_ungapped(self):
        recs = synthesize_dna_records(
            SynthSpec(num_sequences=30, mean_length=200,
                      family_fraction=0.5, family_size=3, seed=33)
        )
        assert_cohort_identical(recs, [recs[0], recs[4], recs[0]],
                                program="blastn", gapped=False)

    def test_fragment_local_filter(self):
        # mpiBLAST-style fragment-local expect filter, per query.
        recs, queries = self.protein_case()
        frag = recs[:3]
        local = sum(len(r.sequence) for r in frag)

        def search(batch, qs):
            BlastSearch._GLOBAL_INDEX_MEMO.clear()
            eng = BlastSearch(SearchParams(batch=batch))
            return eng.search_fragment(
                qs, ListDatabase(frag, eng.alphabet),
                db_letters=40_000, db_num_seqs=len(recs),
                filter_db_letters=local, filter_db_num_seqs=len(frag),
            )

        cohort = search(True, queries)
        assert any(cohort)
        for qi, q in enumerate(queries):
            (want,) = search(False, [q])
            assert cohort[qi] == [
                dataclasses.replace(a, query_index=qi) for a in want
            ]

    @given(seed=st.integers(0, 2**16), nq=st.integers(1, 5))
    @settings(max_examples=8, deadline=None)
    def test_random_cohorts(self, seed, nq):
        recs = synthesize_protein_records(
            SynthSpec(num_sequences=18, mean_length=80,
                      family_fraction=0.5, family_size=3, seed=seed)
        )
        rng = np.random.default_rng(seed)
        queries = [recs[int(i)] for i in rng.integers(0, len(recs), nq)]
        assert_cohort_identical(recs, queries, program="blastp")


class TestUngappedBatchProperty:
    @given(
        seed=st.integers(0, 2**16),
        qlen=st.integers(10, 60),
        slen=st.integers(10, 60),
    )
    @settings(max_examples=40, deadline=None)
    def test_elementwise_equals_scalar(self, seed, qlen, slen):
        rng = np.random.default_rng(seed)
        q = rng.integers(0, 20, qlen).astype(np.int8)
        s = rng.integers(0, 20, slen).astype(np.int8)
        m = blosum62()
        w = 3
        qpos = np.arange(0, qlen - w + 1, dtype=np.int64)
        spos = rng.integers(0, slen - w + 1, len(qpos)).astype(np.int64)
        qs, qe, ss, se, sc = ungapped_extend_batch(q, s, qpos, spos, w, m, 16)
        for i in range(len(qpos)):
            hit = ungapped_extend(q, s, int(qpos[i]), int(spos[i]), w, m, 16)
            assert (qs[i], qe[i], ss[i], se[i], sc[i]) == (
                hit.qstart, hit.qend, hit.sstart, hit.send, hit.score,
            )


# ----------------------------------------------------------------------
# simmpi scheduler fast path vs legacy scheduler
# ----------------------------------------------------------------------


def run_fingerprint(program, nprocs, *, fast, faults=None):
    """Full-driver run under one scheduler mode; dense fingerprint."""
    from repro.experiments.common import ExperimentWorkload, run_program_raw
    from repro.obs import Tracer

    tracer = Tracer()
    with scheduler_mode(fast):
        wl = ExperimentWorkload(
            db_spec=SynthSpec(num_sequences=90, mean_length=130,
                              family_fraction=0.6, family_size=4,
                              seed=2025),
            query_bytes=2_500,
        )
        _b, result, store, _cfg = run_program_raw(
            program, nprocs, wl, faults=faults, tracer=tracer
        )
    files = {p: store.read_all(p) for p in store.listdir()}
    return {
        **result_fingerprint(result),
        "files": files,
        "events": tracer.as_tuples(),
    }


@contextlib.contextmanager
def scheduler_mode(fast):
    old = Engine.FAST_WAKES_DEFAULT
    Engine.FAST_WAKES_DEFAULT = fast
    try:
        yield
    finally:
        Engine.FAST_WAKES_DEFAULT = old


def result_fingerprint(result):
    """Every simulated fact a ``RunResult`` carries."""
    return {
        "makespan": result.makespan,
        "phase_times": result.phase_times,
        "messages_sent": result.messages_sent,
        "bytes_sent": result.bytes_sent,
        "fs_ops": (result.fs_read_ops, result.fs_write_ops),
        "dead_ranks": result.dead_ranks,
        "promotions": result.promotions,
        "faults": [
            (e.time, e.kind, e.detail) for e in result.fault_report.events
        ],
        "metrics": result.metrics,
    }


def hier_service_fingerprint(db, queries, *, fast, nprocs=13,
                             faults="crash=group:g1@6", elastic=None,
                             checkpoint_interval=0.0, files=False):
    """Elastic hier-service run (default: np=13, K=3 replicate groups,
    group g1 killed mid-stream) under one scheduler mode.  ``files``
    adds every written file (checkpoints included)."""
    from repro.costmodel import CostModel
    from repro.hier import HierConfig, run_hier_service
    from repro.obs import Tracer
    from repro.parallel import ParallelConfig, stage_inputs
    from repro.service import poisson_arrivals
    from repro.simmpi import FaultPlan, FileStore

    store = FileStore()
    cfg = stage_inputs(store, db, queries,
                       config=ParallelConfig(
                           cost=CostModel(),
                           checkpoint_interval=checkpoint_interval),
                       title="test nr")
    tracer = Tracer()
    with scheduler_mode(fast):
        sres = run_hier_service(
            nprocs, store, cfg, poisson_arrivals(queries, rate=0.5, seed=0),
            hier=HierConfig(ngroups=3, mode="replicate"),
            elastic=elastic,
            faults=FaultPlan.parse(faults) if faults else None,
            tracer=tracer,
        )
    return {
        **result_fingerprint(sres.result),
        "report": sres.report,
        "per_query": sres.per_query,
        "latency": sres.latency,
        "counts": (sres.waves, sres.degraded_queries, sres.shed_queries,
                   sres.regroups),
        "events": tracer.as_tuples(),
        **({"files": {p: store.read_all(p) for p in store.listdir()}}
           if files else {}),
    }


class TestSchedulerReplayIdentity:
    @pytest.mark.parametrize("program", ["mpiblast", "pioblast"])
    def test_driver_replays_bit_for_bit(self, program):
        fast = run_fingerprint(program, 6, fast=True)
        legacy = run_fingerprint(program, 6, fast=False)
        assert fast == legacy

    def test_chaos_replay(self):
        from repro.simmpi.faults import CrashFault, FaultPlan, StragglerFault

        plan = FaultPlan(
            seed=11,
            events=(CrashFault(rank=2, time=0.05),
                    StragglerFault(rank=3, factor=2.5)),
        )
        fast = run_fingerprint("pioblast", 8, fast=True, faults=plan)
        legacy = run_fingerprint("pioblast", 8, fast=False, faults=plan)
        assert fast == legacy

    def test_elastic_group_kill_replay(self, small_db, small_queries):
        # Polls, replies, heartbeats, receive timeouts and a whole-group
        # kill: the message mix whose deliveries the fast path runs
        # inline on parking ranks.
        fast = hier_service_fingerprint(small_db, small_queries, fast=True)
        legacy = hier_service_fingerprint(small_db, small_queries,
                                          fast=False)
        assert fast["dead_ranks"] and fast["messages_sent"] > 100
        assert fast == legacy


def digest(fingerprint) -> str:
    """sha256 over a fingerprint's repr (dicts keep insertion order;
    every value is a number, string, bytes or a container of them)."""
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()


def traced_fingerprint(result, store, tracer):
    """``result_fingerprint`` plus trace events and every written file
    (the report among them)."""
    return {
        **result_fingerprint(result),
        "files": {p: store.read_all(p) for p in store.listdir()},
        "events": tracer.as_tuples(),
    }


def ft_fingerprint(db, queries, program, plan, *, checkpoint_interval=0.0):
    """Flat fault-tolerant driver at np=5 on the laboratory cost model."""
    from repro.costmodel import CostModel
    from repro.obs import Tracer
    from repro.parallel import (
        ParallelConfig, mpiformatdb, run_mpiblast, run_pioblast,
        stage_inputs,
    )
    from repro.simmpi import FileStore

    store = FileStore()
    cfg = stage_inputs(
        store, db, queries,
        config=ParallelConfig(cost=CostModel(),
                              checkpoint_interval=checkpoint_interval),
        title="test nr",
    )
    tracer = Tracer()
    if program == "mpiblast":
        mpiformatdb(store, cfg.db_name, cfg.fragments_for(4))
        res = run_mpiblast(5, store, cfg, faults=plan, tracer=tracer)
    else:
        res = run_pioblast(5, store, cfg, faults=plan, tracer=tracer)
    return traced_fingerprint(res, store, tracer)


def hier_fingerprint(db, queries, faults, mode):
    """``run_hier`` at np=13 in three groups."""
    from repro.costmodel import CostModel
    from repro.hier import HierConfig, run_hier
    from repro.obs import Tracer
    from repro.parallel import ParallelConfig, stage_inputs
    from repro.simmpi import FaultPlan, FileStore

    store = FileStore()
    cfg = stage_inputs(store, db, queries,
                       config=ParallelConfig(cost=CostModel()),
                       title="test nr")
    tracer = Tracer()
    hres = run_hier(13, store, cfg, HierConfig(ngroups=3, mode=mode),
                    faults=FaultPlan.parse(faults), tracer=tracer)
    return traced_fingerprint(hres.result, store, tracer)


def service_fingerprint(db, queries, faults=None):
    """Flat ``run_service`` at np=4 over a Poisson stream."""
    from repro.costmodel import CostModel
    from repro.obs import Tracer
    from repro.parallel import ParallelConfig, stage_inputs
    from repro.service import ServiceConfig, poisson_arrivals, run_service
    from repro.simmpi import FaultPlan, FileStore

    store = FileStore()
    cfg = stage_inputs(store, db, queries,
                       config=ParallelConfig(cost=CostModel()),
                       title="test nr")
    tracer = Tracer()
    sres = run_service(
        4, store, cfg, poisson_arrivals(queries, rate=5.0, seed=1),
        service=ServiceConfig(max_wave=3, admission_delay=0.2),
        faults=FaultPlan.parse(faults) if faults else None,
        tracer=tracer,
    )
    return {
        **traced_fingerprint(sres.result, store, tracer),
        "per_query": sres.per_query,
        "latency": sres.latency,
        "waves": sres.waves,
    }


def _drops(req, reply):
    from repro.simmpi.faults import FaultPlan, MessageDropFault

    return FaultPlan(seed=3, events=(
        MessageDropFault(tag=req, skip=3, count=2),
        MessageDropFault(tag=reply, skip=1, count=2),
    ))


def _plan(spec):
    from repro.simmpi.faults import FaultPlan

    return FaultPlan.parse(spec)


def _straggler():
    from repro.simmpi.faults import FaultPlan, StragglerFault

    return FaultPlan(seed=6, events=(
        StragglerFault(rank=1, factor=0.006, start=0.0),
    ))


#: (program, plan factory, checkpoint interval) per flat FT scenario.
FT_SCENARIOS = {
    "pio-worker-kill": ("pioblast", lambda: _plan("seed=11,kill=3@0.02"), 0.0),
    "pio-master-kill-ckpt": ("pioblast", lambda: _plan("seed=3,kill=0@0.12"),
                             0.04),
    "pio-request-drop": ("pioblast", lambda: _drops(40, 41), 0.0),
    "pio-straggler-revival": ("pioblast", _straggler, 0.0),
    "mpi-worker-kill": ("mpiblast", lambda: _plan("seed=11,kill=3@0.02"), 0.0),
    "mpi-master-kill-ckpt": ("mpiblast", lambda: _plan("seed=3,kill=0@0.1"),
                             0.02),
    "mpi-request-drop": ("mpiblast", lambda: _drops(16, 17), 0.0),
    "mpi-straggler-revival": ("mpiblast", _straggler, 0.0),
}

HIER_SCENARIOS = {
    "hier-submaster-kill": ("crash=submaster:g1@0.2", "replicate"),
    "hier-shard-coordinator-kill": ("crash=coordinator@0.5", "shard"),
}

SERVICE_SCENARIOS = {
    "service-group-kill": dict(faults="crash=group:g1@6"),
    "service-coordinator-kill": dict(faults="crash=coordinator@6"),
    "service-join-drain": dict(
        nprocs=17, faults=None,
        elastic=ElasticConfig(joins=((4, 5.0),), drains=((0, 6.0),)),
    ),
    "service-coordinator-kill-ckpt": dict(
        faults="crash=coordinator@6", checkpoint_interval=1.0, files=True,
    ),
}

#: Flat ``run_service`` fault plans.
FLAT_SERVICE_SCENARIOS = {
    "flat-service": None,
    "flat-service-worker-kill": "kill=2@0.3",
}

#: Digests of the scenarios above, captured before the supervision
#: protocol moved into ``repro.parallel.supervise``.  The port must not
#: move a byte, a virtual instant or an event.  The flat FT digests were
#: re-pinned once when those masters gained the completion marker: the
#: marker file, its write (one FS op on the master) and the instants
#: after it are the only differences.
GOLDEN = {
    "mpi-master-kill-ckpt":
        "0b98ad4c89c6194e3f92e445832125ba6018613c2dbe7cb4a9e2e4b2337210cc",
    "mpi-request-drop":
        "3bf2b2d1fef55b0518abd3cf924f244bfd4e6939ddb7d698150488af277ed533",
    "mpi-straggler-revival":
        "8c1c8ced174786e1cf786a2fd110a9bcf91ed2ea84bbc0c0912f9f7e2f75dfd3",
    "mpi-worker-kill":
        "816b59ec580fb19c4ce6a9ff55ed0188d04c259f5e3a5fcbf1d4e547afc69870",
    "pio-master-kill-ckpt":
        "de70075502948677408e1c1ce57d139973fbec19897132682534e7036ad27867",
    "pio-request-drop":
        "6703e17c4832eab06277bbfd3b41504e833371b7c475db95c51c50a3d04c52c8",
    "pio-straggler-revival":
        "f18b502d8b60acbb8ab8a1a8afc09456a71079aaade52ffaad0b1608f026f22b",
    "pio-worker-kill":
        "cb73937048c13c52709136655950c0029aab03567c1470816e416594eb38c5ea",
    "hier-shard-coordinator-kill":
        "c77485730f5306336bc91465d401dc390f5e953ed72528ff4a1b8718864aa444",
    "hier-submaster-kill":
        "57c699c555429de8206ca409b090df3c5e52a1185b8e1d856e1e481bc00e0828",
    "service-coordinator-kill":
        "91361137f1ce1c411b1720c56d6596b8f955218886f7ac3e8ac9ae335535d762",
    "service-group-kill":
        "63f7338e9fc5c2e01d02f7dbdef19601821f67017aca62f0adfdde1fa2971788",
    "service-join-drain":
        "e8a4d45a5bca89c736ea8f6671d6288c3d9010e779b3cdec4509d9061b799945",
    # Captured before the answered-query accounting moved into
    # ``repro.service.ledger``.
    "flat-service":
        "52be851b144bc787a877699d5052f746583d0908baf7b562c66993645ba2a80b",
    "flat-service-worker-kill":
        "06dc553372c1516e358ec1cf6c82751c847af28a6d8fd218c0451e3999f99e41",
    "service-coordinator-kill-ckpt":
        "6d6c5a6b58509dfefed319af42c6ecca72f26a1fd58ac254e75c7becd46aba5f",
}


class TestSupervisionGoldenDigests:
    """Replay digests of every fault-tolerant role under its faults.

    Each digest covers the run's ``result_fingerprint`` (makespan,
    phases, message and FS counters, dead ranks, promotions, fault
    ledger, metrics) and the trace events; all but the first three
    hier-service digests also cover every written file (reports and
    checkpoints).  They are stable across ``PYTHONHASHSEED`` values."""

    @pytest.mark.parametrize("name", sorted(FT_SCENARIOS))
    def test_flat_ft(self, name, small_db, small_queries):
        program, plan, interval = FT_SCENARIOS[name]
        fp = ft_fingerprint(small_db, small_queries, program, plan(),
                            checkpoint_interval=interval)
        assert digest(fp) == GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(HIER_SCENARIOS))
    def test_hier(self, name, small_db, small_queries):
        faults, mode = HIER_SCENARIOS[name]
        fp = hier_fingerprint(small_db, small_queries, faults, mode)
        assert digest(fp) == GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(SERVICE_SCENARIOS))
    def test_hier_service(self, name, small_db, small_queries):
        fp = hier_service_fingerprint(small_db, small_queries, fast=True,
                                      **SERVICE_SCENARIOS[name])
        assert digest(fp) == GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(FLAT_SERVICE_SCENARIOS))
    def test_flat_service(self, name, small_db, small_queries):
        fp = service_fingerprint(small_db, small_queries,
                                 FLAT_SERVICE_SCENARIOS[name])
        assert digest(fp) == GOLDEN[name]


class TestSchedulerFastPathUnits:
    def test_park_steal_consumes_own_sleep(self):
        eng = Engine(fast_wakes=True)
        seen = []

        def prog():
            for i in range(5):
                eng.sleep(1.0)
                seen.append(eng.now)

        eng.spawn(prog, 0)
        assert eng.run() == 5.0
        assert seen == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_preposted_value_delivered(self):
        eng = Engine(fast_wakes=True)
        got = []

        def prog():
            p = eng.make_parker("pre-posted")
            eng.unpark_at(p, eng.now, value="hello")
            eng.sleep(0.5)  # wake fires while we are busy elsewhere
            got.append(eng.park(p))

        eng.spawn(prog, 0)
        eng.run()
        assert got == ["hello"]

    def test_double_unpark_is_error(self):
        eng = Engine(fast_wakes=True)

        def prog():
            p = eng.make_parker("dup")
            eng.unpark_at(p, eng.now + 1.0, value=1)
            eng.unpark_at(p, eng.now + 2.0, value=2)
            eng.park(p)
            eng.sleep(5.0)

        eng.spawn(prog, 0)
        with pytest.raises(SimError):
            eng.run()

    def test_relay_hands_off_between_ranks(self):
        # Two ranks alternating sleeps: the relay path passes the baton
        # rank-to-rank; order and final clock must match legacy exactly.
        def trace(fast):
            eng = Engine(fast_wakes=fast)
            order = []

            def mk(rank):
                def prog():
                    for _ in range(20):
                        eng.sleep(1.0 + rank * 0.001)
                        order.append((rank, round(eng.now, 6)))
                return prog

            for r in range(3):
                eng.spawn(mk(r), r)
            makespan = eng.run()
            return makespan, order

        assert trace(True) == trace(False)


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "legacy"])
class TestInlineActionSemantics:
    """Scheduled actions run inline on a parking rank's thread on the
    fast path; each case must behave exactly as under the legacy
    scheduler, which runs them on the scheduler thread."""

    @staticmethod
    def race(fast, *, delivery_first):
        # The message arrives at t=1.0 (sent at 0.5, latency 0.5) and
        # the receive times out at t=1.0; whichever was scheduled first
        # wins the instant.
        eng = Engine(fast_wakes=fast)
        comm = Communicator(eng, 2, NetworkModel(latency=0.5, overhead=0.0))
        got = []

        def sender():
            eng.sleep(0.5)
            comm.isend("payload", 1, tag=3, nbytes=0)

        def receiver():
            if delivery_first:
                eng.sleep(0.75)  # timeout scheduled at 0.75 > 0.5
                got.append(comm.recv_with_timeout(0, 3, timeout=0.25))
            else:
                got.append(comm.recv_with_timeout(0, 3, timeout=1.0))
                got.append(comm.recv(0, 3))  # still queued
            got.append(eng.now)

        eng.spawn(sender, 0)
        eng.spawn(receiver, 1)
        eng.run()
        return got

    def test_delivery_scheduled_first_wins(self, fast):
        assert self.race(fast, delivery_first=True) == ["payload", 1.0]

    def test_timeout_scheduled_first_wins(self, fast):
        assert self.race(fast, delivery_first=False) == [
            TIMEOUT, "payload", 1.0,
        ]

    def test_action_exception_aborts_run(self, fast):
        eng = Engine(fast_wakes=fast)
        swallowed = []

        def boom():
            raise ValueError("boom in action")

        def prog():
            eng.schedule(1.0, boom)
            try:
                eng.sleep(2.0)  # the action comes due while parked
            except Exception as exc:  # noqa: BLE001 - must not get here
                swallowed.append(exc)

        eng.spawn(prog, 0)
        with pytest.raises(ValueError, match="boom in action"):
            eng.run()
        assert swallowed == []

    @pytest.mark.parametrize("wake_first", [True, False])
    def test_kill_at_instant_of_pending_wake_unwinds(self, fast, wake_first):
        eng = Engine(fast_wakes=fast)
        log = []

        def victim():
            p = eng.make_parker("victim")
            if wake_first:
                eng.unpark_at(p, 1.0, "woken")
                eng.kill_rank_at(0, 1.0)
            else:
                eng.kill_rank_at(0, 1.0)
                eng.unpark_at(p, 1.0, "woken")
            try:
                log.append(eng.park(p))
                eng.sleep(0.0)
                log.append("survived")
            except RankKilled:
                log.append(("unwound", eng.now))
                raise

        def bystander():
            eng.sleep(3.0)
            log.append("bystander")

        eng.spawn(victim, 0)
        eng.spawn(bystander, 1)
        assert eng.run() == 3.0
        assert eng.dead_ranks == {0}
        head = ["woken"] if wake_first else []
        assert log == head + [("unwound", 1.0), "bystander"]

    def test_no_current_rank_inside_action(self, fast):
        # A wrong answer here would charge the action's work to
        # whichever rank happens to be draining the queue.
        eng = Engine(fast_wakes=fast)
        comm = Communicator(eng, 1, NetworkModel())
        seen = {}

        def action():
            seen["thread"] = threading.current_thread().name
            for probe in (eng.current_rank, lambda: comm.rank,
                          eng.make_parker):
                with pytest.raises(SimError):
                    probe()
            seen["checked"] = True

        def prog():
            eng.schedule(1.0, action)
            eng.sleep(2.0)
            seen["rank_after"] = eng.current_rank()

        eng.spawn(prog, 0)
        eng.run()
        assert seen["checked"] and seen["rank_after"] == 0
        # the fast path really ran the action on the parking rank
        assert seen["thread"] == ("simrank-0" if fast else
                                  threading.current_thread().name)


class TestCancelCompaction:
    def test_cancelled_timeouts_do_not_accumulate(self):
        # The FT drivers' heartbeat pattern: schedule a timeout, cancel
        # it, repeat.  Without compaction the heap grows linearly with
        # the number of cancels; with it the pending queue stays small.
        eng = Engine(fast_wakes=True)
        n = 5000

        def prog():
            for i in range(n):
                ev = eng.schedule(eng.now + 1000.0 + i, lambda: None)
                eng.cancel(ev)
                if i % 100 == 0:
                    eng.sleep(0.001)
            # All cancels are pending by now; the queue must be bounded
            # by the live events, not the cancel count.
            assert len(eng._queue) + len(eng._ready) < n // 10

        eng.spawn(prog, 0)
        eng.run()

    def test_cancel_then_fire_is_noop(self):
        eng = Engine(fast_wakes=True)
        fired = []

        def prog():
            ev = eng.schedule(eng.now + 1.0, lambda: fired.append(1))
            eng.cancel(ev)
            eng.cancel(ev)  # double-cancel must not corrupt the counter
            eng.sleep(2.0)

        eng.spawn(prog, 0)
        eng.run()
        assert fired == []

    def test_legacy_mode_cancel_still_works(self):
        eng = Engine(fast_wakes=False)
        fired = []

        def prog():
            keep = eng.schedule(eng.now + 1.0, lambda: fired.append("keep"))
            drop = eng.schedule(eng.now + 1.0, lambda: fired.append("drop"))
            eng.cancel(drop)
            del keep
            eng.sleep(2.0)

        eng.spawn(prog, 0)
        eng.run()
        assert fired == ["keep"]
