"""Command-line interface: ``python -m repro <command>``.

Commands mirror the tools the paper's users touch:

- ``formatdb``    — format a FASTA file into the binary database format
  (optionally multi-volume), on the real filesystem;
- ``search``      — serial blastp/blastn of a query FASTA against a
  formatted database, writing the NCBI-style report;
- ``simulate``    — run mpiBLAST / pioBLAST / queryseg on a simulated
  cluster over a synthetic workload and print the phase breakdown;
- ``experiment``  — run one of the paper's table/figure harnesses and
  print the paper-vs-measured table;
- ``report``      — assemble the archived benchmark tables
  (``benchmarks/results/``) into one reproduction report.
"""

from __future__ import annotations

import argparse
import pathlib
import sys


def _cmd_formatdb(args: argparse.Namespace) -> int:
    from repro.blast.alphabet import DNA, PROTEIN
    from repro.blast.formatdb import formatdb

    fasta = pathlib.Path(args.fasta).read_text()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    def put(path: str, data: bytes) -> None:
        (outdir / path).write_bytes(data)

    names = formatdb(
        fasta,
        args.name,
        put,
        alphabet=DNA if args.dbtype == "nucl" else PROTEIN,
        title=args.title or args.name,
        max_letters_per_volume=args.volume_letters,
    )
    print(f"formatted {args.fasta} -> {outdir}/{args.name} "
          f"({len(names)} volume(s))")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.blast.engine import (
        BlastSearch,
        SearchParams,
        finalize_results,
    )
    from repro.blast.fasta import parse_fasta
    from repro.blast.formatdb import FormattedDatabase
    from repro.blast.output import DbStats, HitSummary, ReportWriter
    from repro.parallel.common import GlobalDbInfo, writer_for

    dbdir = pathlib.Path(args.dbdir)

    def get(path: str) -> bytes:
        return (dbdir / path).read_bytes()

    db = FormattedDatabase.open(args.db, get)
    queries = parse_fasta(pathlib.Path(args.queries).read_text())
    params = SearchParams(
        program=args.program,
        expect=args.evalue,
        max_alignments=args.max_alignments,
    )
    engine = BlastSearch(params)
    per_query = engine.search_fragment(
        queries, db, db_letters=db.total_letters,
        db_num_seqs=db.num_sequences,
    )
    results = finalize_results(queries, per_query, params.max_alignments)
    info = GlobalDbInfo(db.title, db.num_sequences, db.total_letters)
    writer = writer_for(engine, info)
    parts = [writer.preamble()]
    for qrec, qr in zip(queries, results):
        summaries = [
            HitSummary(a.subject_defline, a.bit_score, a.evalue)
            for a in qr.alignments
        ]
        parts.append(
            writer.query_header(qr.query_defline, qr.query_length, summaries)
        )
        for a in qr.alignments:
            parts.append(writer.alignment_block(a))
        space = engine.effective_space(
            qr.query_length, db.total_letters, db.num_sequences
        )
        parts.append(writer.query_footer(space))
    report = b"".join(parts)
    if args.out == "-":
        sys.stdout.write(report.decode())
    else:
        pathlib.Path(args.out).write_bytes(report)
        nhits = sum(len(r.alignments) for r in results)
        print(f"{len(queries)} queries, {nhits} alignments -> {args.out}")
    return 0


class _BadInput(Exception):
    """Invalid command input, reported on stderr with exit code 2."""


def _prepare(args: argparse.Namespace):
    """Steps every run command takes before its run: parse ``--faults``,
    check the output paths, then build the tracer, the workload and the
    platform.  Raises :class:`_BadInput` on bad input."""
    from repro.experiments.common import ExperimentWorkload
    from repro.platforms import PLATFORMS
    from repro.simmpi import FaultPlan
    from repro.workloads import SynthSpec

    faults = None
    if args.faults is not None:
        try:
            faults = FaultPlan.parse(args.faults)
        except ValueError as e:
            raise _BadInput(f"bad --faults spec: {e}") from None
    # Fail fast on unwritable output paths: the simulation itself can
    # take minutes, so a typo'd directory must not cost a full run.
    for opt, path in (("--trace", args.trace),
                      ("--metrics-json", args.metrics_json)):
        if path is None:
            continue
        parent = pathlib.Path(path).resolve().parent
        if not parent.is_dir():
            raise _BadInput(
                f"bad {opt} path: directory does not exist: {parent}"
            )
    tracer = None
    if args.trace is not None:
        from repro.obs import Tracer

        tracer = Tracer()
    wl = ExperimentWorkload(
        db_spec=SynthSpec(
            num_sequences=args.db_sequences, mean_length=args.mean_length,
        ),
        query_bytes=args.query_bytes,
    )
    return faults, tracer, wl, PLATFORMS[args.platform]


def _finish(args: argparse.Namespace, result, store, cfg, faults, tracer,
            *, program: str, report: bytes | None = None,
            subject: str = "", degraded: bool = False,
            trace_note: str = "", host_s: float = 0.0) -> int:
    """Steps every run command takes after its run: report size, fault
    summary, ``--verify-oracle`` (exit 1 on a mismatch unless
    ``degraded``), trace, metrics and ``--host-budget`` (exit 3)."""
    print(f"  report: {store.size(cfg.output_path):,} bytes at "
          f"'{cfg.output_path}' (virtual filesystem)")
    if faults is not None:
        from repro.parallel import fault_summary

        print(fault_summary(result) or
              "faults: none injected, none detected")
        if result.promotions:
            print(f"  master promotions: {list(result.promotions)}")
    if getattr(args, "verify_oracle", False):
        from repro.parallel import run_serial_reference

        oracle = run_serial_reference(store, cfg, output_path="_oracle.out")
        if report == oracle:
            print(f"  oracle: {subject} is byte-identical to the serial "
                  "reference")
        elif degraded:
            print("  oracle: report degraded (expected: fragments lost "
                  "or queries shed)")
        else:
            print("  oracle: MISMATCH against the serial reference",
                  file=sys.stderr)
            return 1
    if tracer is not None:
        from repro.obs import write_chrome_trace

        write_chrome_trace(args.trace, result.events, result.nprocs)
        print(f"  trace: {len(result.events)} events -> {args.trace}"
              f"{trace_note}")
    if args.metrics_json is not None:
        from repro.obs import write_run_metrics

        write_run_metrics(args.metrics_json, result, program=program)
        print(f"  metrics: -> {args.metrics_json}")
    budget = getattr(args, "host_budget", None)
    if budget is not None and host_s > budget:
        print(f"host budget exceeded: {host_s:.1f} s > {budget:.1f} s",
              file=sys.stderr)
        return 3
    return 0


def _service_config(args: argparse.Namespace, **extra):
    from repro.service import ServiceConfig

    return ServiceConfig(
        max_wave=args.max_wave,
        admission_delay=args.admission_delay,
        priority=not args.no_priority,
        interactive_max_len=args.interactive_max_len,
        **extra,
    )


def _print_latency(lat: dict) -> None:
    rows = [("all", lat["all"])] + sorted(lat["lanes"].items())
    print(f"  {'lane':<12} {'n':>5} {'p50':>9} {'p95':>9} {'p99':>9} "
          f"{'mean':>9} {'max':>9}")
    for name, s in rows:
        print(f"  {name:<12} {s['count']:>5} {s['p50_s']:>9.3f} "
              f"{s['p95_s']:>9.3f} {s['p99_s']:>9.3f} "
              f"{s['mean_s']:>9.3f} {s['max_s']:>9.3f}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.experiments.common import run_program_raw

    faults, tracer, wl, platform = _prepare(args)
    overrides = {}
    if args.checkpoint_interval > 0:
        overrides["checkpoint_interval"] = args.checkpoint_interval
    if args.checkpoint_dir is not None:
        overrides["checkpoint_dir"] = args.checkpoint_dir
    b, result, store, cfg = run_program_raw(
        args.program, args.nprocs, wl, platform, faults=faults,
        tracer=tracer, config_overrides=overrides or None,
    )
    print(
        f"{args.program} on {platform.name}, {args.nprocs} processes "
        f"({args.db_sequences} db seqs, {args.query_bytes} B queries)"
    )
    print(
        f"  copy/input {b.copy_input:10.2f} s\n"
        f"  search     {b.search:10.2f} s\n"
        f"  output     {b.output:10.2f} s\n"
        f"  other      {b.other:10.2f} s\n"
        f"  total      {b.total:10.2f} s   "
        f"(search share {100 * b.search_share:.1f}%)"
    )
    note = " (load in chrome://tracing or ui.perfetto.dev)"
    if tracer is not None:
        from repro.parallel import bottleneck_table

        note += "\n" + bottleneck_table(result)
    return _finish(args, result, store, cfg, faults, tracer,
                   program=args.program, trace_note=note)


def _cmd_service(args: argparse.Namespace) -> int:
    import time

    from repro.experiments.common import run_service_raw

    faults, tracer, wl, platform = _prepare(args)
    trace_text = None
    if args.arrivals is not None:
        trace_text = pathlib.Path(args.arrivals).read_text()
    scfg = _service_config(args)
    t0 = time.perf_counter()
    sres, store, cfg = run_service_raw(
        args.nprocs, wl, platform,
        rate=args.rate, arrival_seed=args.seed, trace_text=trace_text,
        service=scfg, faults=faults, tracer=tracer,
    )
    host_s = time.perf_counter() - t0
    lat = sres.latency
    print(
        f"service on {platform.name}, {args.nprocs} processes "
        f"({lat['all']['count']} queries, {sres.waves} waves, "
        f"{'trace' if trace_text is not None else f'poisson rate={args.rate}/s'}"
        f", priority={'on' if scfg.priority else 'off'})"
    )
    _print_latency(lat)
    print(f"  span {lat['span_s']:.2f} s, throughput "
          f"{lat['throughput_qps']:.3f} q/s, makespan "
          f"{sres.result.makespan:.2f} s (host {host_s:.1f} s)")
    return _finish(args, sres.result, store, cfg, faults, tracer,
                   program="service", report=sres.report,
                   subject="service report", host_s=host_s)


def _cmd_hier(args: argparse.Namespace) -> int:
    import time

    from repro.experiments.common import run_hier_raw

    faults, tracer, wl, platform = _prepare(args)
    mode = "shard" if args.shard else "replicate"
    t0 = time.perf_counter()
    try:
        hres, store, cfg = run_hier_raw(
            args.nprocs, wl, platform,
            ngroups=args.groups, mode=mode,
            batch_queries=args.batch_queries,
            faults=faults, tracer=tracer,
        )
    except ValueError as e:
        raise _BadInput(f"bad topology: {e}") from None
    host_s = time.perf_counter() - t0
    result = hres.result
    topo = hres.topology
    gsizes = [len(g.members) for g in topo.groups]
    print(
        f"hier on {platform.name}, {args.nprocs} processes: "
        f"{topo.ngroups} {mode} groups of "
        f"{min(gsizes)}-{max(gsizes)} ranks, coordinator + "
        f"sub-masters {[g.submaster for g in topo.groups]}"
    )
    gauges = result.metrics.get("global", {}).get("gauges", {})
    makespan = max(result.makespan, 1e-12)
    coord_busy = gauges.get("hier.coordinator.busy_s", 0.0)
    print(f"  makespan   {result.makespan:10.2f} s   (host {host_s:.1f} s)")
    print(f"  coordinator busy {coord_busy:8.2f} s "
          f"({100 * coord_busy / makespan:.1f}% of makespan)")
    waits = {
        g.gid: gauges.get(f"hier.group.g{g.gid}.coord_wait_s", 0.0)
        for g in topo.groups
    }
    worst = max(waits.values(), default=0.0)
    print(f"  group coordinator-wait max {worst:8.2f} s "
          f"({100 * worst / makespan:.1f}% of makespan; per group "
          f"{['%.1f' % waits[g] for g in sorted(waits)]})")
    return _finish(args, result, store, cfg, faults, tracer,
                   program="hier", report=hres.report,
                   subject="hierarchical report", host_s=host_s,
                   trace_note=" (EV_GROUP spans show per-batch group "
                   "activity)")


def _cmd_hier_service(args: argparse.Namespace) -> int:
    import time

    from repro.experiments.common import run_hier_service_raw
    from repro.hier import ElasticConfig

    def parse_pairs(specs, what):
        out = []
        for tok in specs or ():
            try:
                a, b = tok.split("@", 1)
                out.append((int(a), float(b)))
            except ValueError:
                raise _BadInput(
                    f"bad --{what} spec {tok!r} (expected N@TIME)"
                ) from None
        return tuple(out)

    joins = parse_pairs(args.join, "join")
    drains = parse_pairs(args.drain, "drain")
    faults, tracer, wl, platform = _prepare(args)
    trace_text = None
    if args.arrivals is not None:
        trace_text = pathlib.Path(args.arrivals).read_text()
    scfg = _service_config(args, shed_threshold=args.shed_threshold)
    ecfg = ElasticConfig(joins=joins, drains=drains,
                         recovery_attempts=args.recovery_attempts,
                         redispatch_timeout=args.redispatch_timeout)
    mode = "shard" if args.shard else "replicate"
    t0 = time.perf_counter()
    try:
        sres, store, cfg = run_hier_service_raw(
            args.nprocs, wl, platform,
            ngroups=args.groups, mode=mode,
            rate=args.rate, arrival_seed=args.seed, trace_text=trace_text,
            service=scfg, elastic=ecfg, faults=faults, tracer=tracer,
        )
    except ValueError as e:
        raise _BadInput(f"bad topology: {e}") from None
    host_s = time.perf_counter() - t0
    topo = sres.topology
    lat = sres.latency
    gsizes = [len(g.members) for g in topo.groups]
    print(
        f"hier-service on {platform.name}, {args.nprocs} processes: "
        f"{len(topo.initial_groups)}+{len(topo.latent)} {mode} groups "
        f"of {min(gsizes)}-{max(gsizes)} ranks "
        f"({lat['all']['count']} queries, {sres.waves} waves, "
        f"{sres.regroups} regroup events)"
    )
    _print_latency(lat)
    print(f"  span {lat['span_s']:.2f} s, throughput "
          f"{lat['throughput_qps']:.3f} q/s, makespan "
          f"{sres.result.makespan:.2f} s (host {host_s:.1f} s)")
    degraded = bool(sres.degraded_queries or sres.shed_queries)
    if degraded:
        print(f"  degraded {sres.degraded_queries} queries "
              f"(missing fragments), shed {sres.shed_queries} at "
              f"admission")
    return _finish(args, sres.result, store, cfg, faults, tracer,
                   program="hier-service", report=sres.report,
                   subject="service report", degraded=degraded,
                   host_s=host_s,
                   trace_note=" (EV_REGROUP spans show elastic membership "
                   "events)")


_EXPERIMENTS = {
    "table1": ("repro.experiments.table1", "run_table1", "render_table1"),
    "table2": ("repro.experiments.table2", "run_table2", None),
    "fig1a": ("repro.experiments.fig1a", "run_fig1a", "render_fig1a"),
    "fig1b": ("repro.experiments.fig1b", "run_fig1b", "render_fig1b"),
    "fig3a": ("repro.experiments.fig3a", "run_fig3a", "render_fig3a"),
    "fig3b": ("repro.experiments.fig3b", "run_fig3b", "render_fig3b"),
    "fig4": ("repro.experiments.fig4", "run_fig4", "render_fig4"),
    "formatdb": (
        "repro.experiments.formatdb_cost",
        "run_formatdb_cost",
        "render_formatdb",
    ),
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    modname, runner_name, renderer_name = _EXPERIMENTS[args.which]
    mod = importlib.import_module(modname)
    res = getattr(mod, runner_name)()
    if args.which == "table2":
        from repro.experiments.common import PAPER_COSTS
        from repro.experiments.table2 import render_table2

        print(render_table2(res, PAPER_COSTS.data_scale))
    else:
        print(getattr(mod, renderer_name)(res))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import assemble_report, missing_experiments

    print(assemble_report(args.results))
    missing = missing_experiments(args.results)
    if missing:
        print(f"missing experiments (not yet benchmarked): "
              f"{', '.join(missing)}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Efficient Data Access for Parallel "
        "BLAST' (IPDPS 2005)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("formatdb", help="format a FASTA database")
    f.add_argument("fasta")
    f.add_argument("--name", default="db")
    f.add_argument("--outdir", default=".")
    f.add_argument("--title", default=None)
    f.add_argument("--dbtype", choices=["prot", "nucl"], default="prot")
    f.add_argument("--volume-letters", type=int, default=None,
                   help="split into volumes of at most this many residues")
    f.set_defaults(func=_cmd_formatdb)

    s = sub.add_parser("search", help="serial BLAST search")
    s.add_argument("queries", help="query FASTA file")
    s.add_argument("--db", default="db", help="database name")
    s.add_argument("--dbdir", default=".", help="database directory")
    s.add_argument("--program", choices=["blastp", "blastn"],
                   default="blastp")
    s.add_argument("--evalue", type=float, default=10.0)
    s.add_argument("--max-alignments", type=int, default=100)
    s.add_argument("--out", default="-", help="report path or - for stdout")
    s.set_defaults(func=_cmd_search)

    # Options shared by the run commands (simulate, service, hier,
    # hier-service).  Each adds its own --nprocs: parents share action
    # objects, so a per-command default set on one would leak into all.
    cluster = argparse.ArgumentParser(add_help=False)
    cluster.add_argument("--platform", choices=["altix", "blade"],
                         default="altix")
    cluster.add_argument("--db-sequences", type=int, default=300)
    cluster.add_argument("--mean-length", type=int, default=200)
    cluster.add_argument("--query-bytes", type=int, default=6000)

    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-injection plan; ','-separated events, e.g. "
        "'seed=7,kill=2@0.05,slowdisk=4x1.0@0.2,ioerr=nr@0.1n2' "
        "(see FAULTS.md for the full mini-language).  mpiblast/pioblast "
        "switch to their fault-tolerant drivers; hierarchical runs also "
        "take role events 'crash=coordinator@T', 'crash=submaster:gN@T' "
        "and 'crash=group:gN@T'",
    )
    outputs.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a Chrome/Perfetto trace of the run to FILE "
        "(see OBSERVABILITY.md)",
    )
    outputs.add_argument(
        "--metrics-json", default=None, metavar="FILE",
        help="write machine-readable run metrics (makespan, counters, "
        "and the command's latency/hier sections) to FILE",
    )

    checks = argparse.ArgumentParser(add_help=False)
    checks.add_argument("--verify-oracle", action="store_true",
                        help="also run the serial reference and fail "
                        "unless the report is byte-identical (degraded "
                        "or shed hier-service runs are reported, not "
                        "failed)")
    checks.add_argument("--host-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="exit 3 if the run needs more wall-clock "
                        "than this (CI smoke guard)")

    service = argparse.ArgumentParser(add_help=False)
    service.add_argument("--rate", type=float, default=0.1,
                         help="Poisson arrival rate in queries per "
                         "virtual second (default 0.1)")
    service.add_argument("--seed", type=int, default=0,
                         help="arrival-stream seed (default 0)")
    service.add_argument("--arrivals", default=None, metavar="FILE",
                         help="replay an arrival trace file instead of a "
                         "Poisson stream ('<arrival> <query-index> "
                         "[lane]' per line)")
    service.add_argument("--max-wave", type=int, default=8,
                         help="admission batch size (default 8)")
    service.add_argument("--admission-delay", type=float, default=20.0,
                         help="max virtual seconds a queued query waits "
                         "before a wave departs anyway (default 20)")
    service.add_argument("--no-priority", action="store_true",
                         help="disable the interactive priority lane "
                         "(single FIFO admission)")
    service.add_argument("--interactive-max-len", type=int, default=120,
                         help="sequences up to this length ride the "
                         "interactive lane (default 120)")

    placement = argparse.ArgumentParser(add_help=False)
    placement.add_argument("--groups", type=int, default=4,
                           help="number of (initial) replication groups "
                           "(default 4)")
    where = placement.add_mutually_exclusive_group()
    where.add_argument("--replicate", action="store_true",
                       help="each group holds the whole database "
                       "(default)")
    where.add_argument("--shard", action="store_true",
                       help="one global partition; each group owns a "
                       "fragment slice")

    m = sub.add_parser("simulate", parents=[cluster, outputs],
                       help="parallel run on a simulated cluster")
    m.add_argument("program", choices=["mpiblast", "pioblast", "queryseg"])
    m.add_argument("--nprocs", type=int, default=16)
    m.add_argument(
        "--checkpoint-interval", type=float, default=0.0,
        metavar="SECONDS",
        help="FT master checkpoint period in virtual seconds (0 = "
        "disabled); with checkpointing on, even the master (rank 0) "
        "is killable — a surviving worker restores the latest valid "
        "checkpoint and resumes (see FAULTS.md)",
    )
    m.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="virtual-filesystem directory for checkpoint snapshots "
        "(default: _ckpt)",
    )
    m.set_defaults(func=_cmd_simulate)

    v = sub.add_parser(
        "service", parents=[cluster, service, outputs, checks],
        help="online query service on a simulated cluster "
        "(streaming arrivals, admission batching, latency SLOs)",
    )
    v.add_argument("--nprocs", type=int, default=16)
    v.set_defaults(func=_cmd_service)

    h = sub.add_parser(
        "hier", parents=[cluster, placement, outputs, checks],
        help="two-level hierarchical run (replication groups under a "
        "coordinator) on a simulated cluster",
    )
    h.add_argument("--nprocs", type=int, default=64)
    h.add_argument("--batch-queries", type=int, default=0,
                   help="queries per coordinator batch (0 = ~2 batches "
                   "per group)")
    h.set_defaults(func=_cmd_hier)

    hs = sub.add_parser(
        "hier-service", parents=[cluster, placement, service, outputs, checks],
        help="online query service through elastic replication groups "
        "(group join/drain, group-loss recovery, degraded answers)",
    )
    hs.add_argument("--nprocs", type=int, default=32)
    hs.add_argument("--shed-threshold", type=int, default=0,
                    help="shed arrivals once this many queries are "
                    "queued (0 disables; default 0)")
    hs.add_argument("--join", action="append", metavar="N@TIME",
                    help="reserve an N-rank group that joins at virtual "
                    "TIME (repeatable)")
    hs.add_argument("--drain", action="append", metavar="GID@TIME",
                    help="drain group GID at virtual TIME (repeatable)")
    hs.add_argument("--recovery-attempts", type=int, default=3,
                    help="re-replication probes per lost fragment "
                    "before declaring it permanently lost (default 3)")
    hs.add_argument("--redispatch-timeout", type=float, default=None,
                    metavar="SECONDS",
                    help="steal a group's in-flight wave after this much "
                    "virtual-time silence instead of waiting out the "
                    "group-death budget (default: the death budget; "
                    "see FAULTS.md §5)")
    hs.set_defaults(func=_cmd_hier_service)

    e = sub.add_parser("experiment", help="run a paper table/figure harness")
    e.add_argument("which", choices=sorted(_EXPERIMENTS))
    e.set_defaults(func=_cmd_experiment)

    r = sub.add_parser("report", help="assemble archived benchmark results")
    r.add_argument("--results", default="benchmarks/results",
                   help="directory of archived tables")
    r.set_defaults(func=_cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _BadInput as e:
        print(e, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
