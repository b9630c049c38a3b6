"""The command-line interface end to end (real filesystem I/O)."""

import pathlib

import pytest

from repro.cli import build_parser, main
from repro.blast.fasta import write_fasta
from repro.workloads import SynthSpec, synthesize_protein_records


@pytest.fixture()
def fasta_file(tmp_path):
    db = synthesize_protein_records(SynthSpec(num_sequences=30,
                                              mean_length=120, seed=5))
    path = tmp_path / "db.fasta"
    path.write_text(write_fasta(db))
    return path, db


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestFormatDbCommand:
    def test_creates_files(self, fasta_file, tmp_path):
        path, _ = fasta_file
        out = tmp_path / "dbdir"
        rc = main(["formatdb", str(path), "--name", "nr",
                   "--outdir", str(out)])
        assert rc == 0
        for ext in ("xin", "xhr", "xsq"):
            assert (out / f"nr.{ext}").exists()

    def test_multi_volume(self, fasta_file, tmp_path):
        path, db = fasta_file
        letters = sum(len(r.sequence) for r in db)
        out = tmp_path / "dbdir"
        main(["formatdb", str(path), "--name", "nr", "--outdir", str(out),
              "--volume-letters", str(letters // 3)])
        assert (out / "nr.xal").exists()
        assert (out / "nr.00.xin").exists()


class TestSearchCommand:
    def test_search_to_file(self, fasta_file, tmp_path, capsys):
        path, db = fasta_file
        out = tmp_path / "dbdir"
        main(["formatdb", str(path), "--name", "nr", "--outdir", str(out)])
        qpath = tmp_path / "q.fasta"
        qpath.write_text(write_fasta(db[:2]))
        report = tmp_path / "report.txt"
        rc = main(["search", str(qpath), "--db", "nr",
                   "--dbdir", str(out), "--out", str(report)])
        assert rc == 0
        text = report.read_text()
        assert text.startswith("BLASTP")
        # queries sampled from the db find themselves
        assert db[0].defline in text

    def test_search_to_stdout(self, fasta_file, tmp_path, capsys):
        path, db = fasta_file
        out = tmp_path / "dbdir"
        main(["formatdb", str(path), "--name", "nr", "--outdir", str(out)])
        qpath = tmp_path / "q.fasta"
        qpath.write_text(write_fasta(db[:1]))
        main(["search", str(qpath), "--db", "nr", "--dbdir", str(out)])
        captured = capsys.readouterr()
        assert "Query=" in captured.out


class TestSimulateCommand:
    @pytest.mark.parametrize("program", ["pioblast", "mpiblast", "queryseg"])
    def test_simulate_prints_breakdown(self, program, capsys):
        rc = main([
            "simulate", program, "--nprocs", "4",
            "--db-sequences", "60", "--mean-length", "100",
            "--query-bytes", "1000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "search share" in out
        assert "total" in out

    def test_simulate_blade_platform(self, capsys):
        rc = main([
            "simulate", "pioblast", "--nprocs", "3", "--platform", "blade",
            "--db-sequences", "60", "--mean-length", "100",
            "--query-bytes", "800",
        ])
        assert rc == 0
        assert "ncsu-blade" in capsys.readouterr().out


class TestSimulateObservability:
    def test_trace_and_metrics_files(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        rc = main([
            "simulate", "pioblast", "--nprocs", "4",
            "--db-sequences", "60", "--mean-length", "100",
            "--query-bytes", "1000",
            "--trace", str(trace), "--metrics-json", str(metrics),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Bottleneck attribution" in out
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        m = json.loads(metrics.read_text())
        assert m["makespan"] > 0
        assert m["critical_path_coverage"] > 0.9

    def test_faults_and_trace_compose(self, tmp_path, capsys):
        """--faults events appear in the --trace with matching virtual
        timestamps (kill=2@0.05 -> instants at 50000 µs)."""
        import json

        trace = tmp_path / "trace.json"
        rc = main([
            "simulate", "pioblast", "--nprocs", "4",
            "--db-sequences", "60", "--mean-length", "100",
            "--query-bytes", "1000",
            "--faults", "kill=2@0.05", "--trace", str(trace),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dead ranks: [2]" in out
        doc = json.loads(trace.read_text())
        faults = [
            e for e in doc["traceEvents"]
            if e.get("cat", "").startswith("fault")
        ]
        assert faults, "fault instants missing from trace"
        for ev in faults:
            assert ev["ph"] == "i"
            assert ev["ts"] == pytest.approx(0.05 * 1e6)

    def test_metrics_json_without_trace(self, tmp_path):
        import json

        metrics = tmp_path / "metrics.json"
        rc = main([
            "simulate", "mpiblast", "--nprocs", "4",
            "--db-sequences", "60", "--mean-length", "100",
            "--query-bytes", "1000",
            "--metrics-json", str(metrics),
        ])
        assert rc == 0
        m = json.loads(metrics.read_text())
        assert m["counters"]["msgs_sent"] > 0
        assert "critical_path" not in m


SMALL = ["--db-sequences", "60", "--mean-length", "100",
         "--query-bytes", "1000"]
RUN_COMMANDS = {
    "simulate": ["simulate", "pioblast", "--nprocs", "4"],
    "service": ["service", "--nprocs", "4"],
    "hier": ["hier", "--nprocs", "7", "--groups", "2"],
    "hier-service": ["hier-service", "--nprocs", "7", "--groups", "2"],
}
ORACLE_LINES = {
    "service": "oracle: service report is byte-identical to the serial "
               "reference",
    "hier": "oracle: hierarchical report is byte-identical to the serial "
            "reference",
    "hier-service": "oracle: service report is byte-identical to the "
                    "serial reference",
}


class TestRunCommandExitCodes:
    """Exit codes shared by the simulate-style commands: 2 for bad
    input (checked before the run), 1 for an oracle mismatch, 3 for a
    blown host budget."""

    @pytest.mark.parametrize("command", sorted(RUN_COMMANDS))
    def test_bad_faults_spec_exits_2(self, command, capsys):
        rc = main(RUN_COMMANDS[command] + SMALL + ["--faults", "kill=x@y"])
        assert rc == 2
        assert "bad --faults spec" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(RUN_COMMANDS))
    def test_missing_metrics_dir_exits_2(self, command, tmp_path, capsys):
        path = tmp_path / "absent" / "metrics.json"
        rc = main(RUN_COMMANDS[command] + SMALL
                  + ["--metrics-json", str(path)])
        assert rc == 2
        assert "bad --metrics-json path" in capsys.readouterr().err
        assert not path.parent.exists()

    @pytest.mark.parametrize("command", sorted(ORACLE_LINES))
    def test_verify_oracle_then_host_budget_exits_3(self, command, capsys):
        rc = main(RUN_COMMANDS[command] + SMALL
                  + ["--verify-oracle", "--host-budget", "0"])
        captured = capsys.readouterr()
        assert ORACLE_LINES[command] in captured.out
        assert "host budget exceeded" in captured.err
        assert rc == 3
