"""Coverage for smaller surfaces: ungapped mode, full_report, phase spans,
package exports, run-config helpers."""

import pytest

from repro import (
    BlastSearch,
    SearchParams,
    blastp_search,
    formatdb,
    FormattedDatabase,
    __version__,
)
from repro.blast.fasta import SeqRecord
from repro.workloads import SynthSpec, synthesize_protein_records


class TestPackageSurface:
    def test_version(self):
        assert __version__.count(".") == 2

    def test_top_level_names(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_parallel_all_resolvable(self):
        import repro.parallel as par

        for name in par.__all__:
            assert getattr(par, name) is not None

    def test_simmpi_all_resolvable(self):
        import repro.simmpi as sim

        for name in sim.__all__:
            assert getattr(sim, name) is not None

    def test_blast_all_resolvable(self):
        import repro.blast as bl

        for name in bl.__all__:
            assert getattr(bl, name) is not None


class TestUngappedMode:
    @pytest.fixture(scope="class")
    def db(self):
        return synthesize_protein_records(
            SynthSpec(num_sequences=30, mean_length=120, seed=21)
        )

    def test_ungapped_blastp_finds_self(self, db):
        params = SearchParams(gapped=False)
        res = blastp_search([db[4]], db, params)
        top = res[0].alignments[0]
        assert top.subject_oid == 4
        assert top.gaps == 0
        assert "-" not in top.aligned_query

    def test_ungapped_uses_ungapped_statistics(self, db):
        eng = BlastSearch(SearchParams(gapped=False))
        assert not eng.stats_params.gapped
        eng2 = BlastSearch(SearchParams(gapped=True))
        assert eng2.stats_params.gapped
        assert eng.stats_params.lam != eng2.stats_params.lam

    def test_ungapped_score_at_most_gapped(self, db):
        q = db[1]
        gapped = blastp_search([q], db, SearchParams(gapped=True))
        ungapped = blastp_search([q], db, SearchParams(gapped=False))
        gbest = {a.subject_oid: a.score for a in gapped[0].alignments}
        for a in ungapped[0].alignments:
            if a.subject_oid in gbest:
                assert a.score <= gbest[a.subject_oid]


class TestFullReport:
    def test_full_report_concatenates_pieces(self):
        from repro.blast.engine import ListDatabase, finalize_results
        from repro.blast.output import DbStats, ReportWriter

        db = synthesize_protein_records(
            SynthSpec(num_sequences=20, mean_length=100, seed=9)
        )
        eng = BlastSearch()
        ldb = ListDatabase(db, eng.alphabet)
        queries = [db[0]]
        per_q = eng.search_fragment(
            queries, ldb, db_letters=ldb.total_letters,
            db_num_seqs=ldb.num_sequences,
        )
        results = finalize_results(queries, per_q, 10)
        w = ReportWriter(
            "blastp", DbStats("t", 20, ldb.total_letters),
            lam=eng.stats_params.lam, k=eng.stats_params.K,
            h=eng.stats_params.H,
        )
        space = eng.effective_space(len(db[0].sequence),
                                    ldb.total_letters, 20)
        text = w.full_report([(results[0], space)])
        assert text.startswith(b"BLASTP")
        assert b"Query=" in text and b"Lambda" in text


class TestTimelineFromDriver:
    """A driver's phase spans, read from the tracer's ``EV_PHASE``
    events."""

    @staticmethod
    def phase_spans(staged):
        from repro.obs import EV_PHASE, Tracer
        from repro.parallel import run_pioblast

        store, cfg = staged
        tracer = Tracer()
        res = run_pioblast(3, store, cfg, tracer=tracer)
        return res, tracer.by_kind(EV_PHASE)

    def test_driver_produces_spans(self, staged):
        _res, spans = self.phase_spans(staged)
        search_spans = [s for s in spans if s.name == "search"]
        assert len(search_spans) == 2  # one per worker
        for s in search_spans:
            assert s.t1 >= s.t0 >= 0

    def test_spans_within_makespan(self, staged):
        res, spans = self.phase_spans(staged)
        assert all(s.t1 <= res.makespan + 1e-9 for s in spans)


class TestFormatDbConvenience:
    def test_formatdb_with_fasta_text_and_open(self):
        files = {}
        formatdb(">q1\nMKVLAW\n", "d", lambda p, v: files.__setitem__(p, v))
        db = FormattedDatabase.open("d", files.__getitem__)
        assert db.num_sequences == 1
        assert db.get_record(0).sequence == "MKVLAW"

    def test_open_missing_raises(self):
        with pytest.raises(KeyError):
            FormattedDatabase.open("absent", {}.__getitem__)
