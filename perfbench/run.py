"""Repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload pio-np512 --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45 --trace 0

The parent process synthesizes the inputs from ``--seed``, computes the
serial oracle once, then starts one fresh interpreter per timed run
(``child.py``) until ``--seconds`` are used; each of them also times
the set-up (``setup_s`` is the median over them).  Every run's report is
compared with the oracle query by query, and its virtual columns
(makespan, per-query latencies) with the first run's.  Each mismatch is
printed by name and counted as a failed query.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes the
first run a traced one (``layers.LayerClock`` plus a
``repro.obs.Tracer``) and prints the per-layer metrics.  The last line
of standard output is the JSON result; the exit code is 1 if any query
failed and 2 if the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, split_report

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: A run process is given at most this long, so that an invocation
#: ends within 180 s, set-up and reporting included.
CHILD_TIMEOUT_S = 150.0

#: End-to-end metrics and their units (BENCHMARK.json ``end_to_end``).
END_TO_END = {
    "host_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "virtual_makespan_s": "virtual_s",
    "vlat_p50_s": "virtual_s",
    "vlat_tail_s": "virtual_s",
    "slo_met_share": "ratio",
    "answered_share": "ratio",
}

#: Per-layer metrics and their units (BENCHMARK.json ``per_layer``).
PER_LAYER = {
    "blast.setup_s": "s", "blast.setup_calls": "count",
    "blast.search_s": "s", "blast.search_calls": "count",
    "blast.pairs": "count", "blast.search_us_per_pair": "us",
    "blast.scan_s": "s", "blast.ungapped_s": "s", "blast.gapped_s": "s",
    "blast.render_s": "s", "blast.pair_hit_share": "ratio",
    "blast.gapped_extensions": "count", "blast.gapped_dedup": "count",
    "blast.report_s": "s", "blast.report_bytes": "bytes",
    "simmpi.sizing_s": "s", "simmpi.sizing_calls": "count",
    "simmpi.comm_s": "s", "simmpi.comm_calls": "count",
    "simmpi.messages": "count", "simmpi.message_bytes": "bytes",
    "simmpi.parks": "count",
    "simmpi.fs_s": "s", "simmpi.fs_ops": "count", "simmpi.fs_bytes": "bytes",
    "simmpi.virtual_wait_share": "ratio",
    "parallel.merge_s": "s", "parallel.merge_calls": "count",
    "parallel.partition_s": "s",
    "hier.redispatches": "count", "hier.dup_results": "count",
    "hier.result_yield": "ratio", "hier.regroups": "count",
    "hier.recovery_probes": "count",
    "service.waves": "count", "service.mean_wave_size": "count",
    "service.shed": "count", "service.degraded": "count",
    "obs.metrics_s": "s", "obs.metrics_calls": "count",
    "obs.tracer_s": "s", "obs.events": "count",
    "driver.residual_s": "s",
    "ref.serial_s": "s", "ref.host_per_serial": "ratio",
    "bench.traced_host_s": "s", "bench.trace_overhead": "ratio",
}


def tail_rank(n: int) -> int:
    """1-based nearest rank of the highest percentile that still has at
    least ten samples beyond it (``n - 10``); 0 when ``n <= 10``."""
    return max(n - 10, 0)


def describe_tail(values: list[float], unit: str) -> str:
    k = tail_rank(len(values))
    if not k:
        return f"tail n/a ({len(values)} samples, needs > 10)"
    p = 100 * k // len(values)
    return f"p{p} {sorted(values)[k - 1]:.4f} {unit} ({len(values)} samples)"


def calibration_probe() -> dict[str, float]:
    """Short fixed NumPy and pure-Python work (reported, not gated)."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random((300, 300))
    t0 = time.perf_counter()
    for _ in range(10):
        a = a @ a
        a /= a.max()
    t1 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    t2 = time.perf_counter()
    return {"numpy_matmul_s": t1 - t0, "python_loop_s": t2 - t1}


def provenance() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "probe": calibration_probe(),
    }


def run_child(workload: str, seed: int, inputs: pathlib.Path,
              out: pathlib.Path, trace: bool,
              timeout: float) -> tuple[dict | None, str]:
    """One fresh-interpreter run; ``(summary or None, error text)``."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--inputs", str(inputs), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"run exceeded {timeout:.0f} s"
    if proc.returncode != 0:
        return None, (proc.stderr or proc.stdout)[-2000:]
    doc = json.loads(out.read_text())
    doc["report"] = out.with_suffix(".report").read_bytes()
    return doc, ""


class Checker:
    """Compares runs with the oracle and with the first run."""

    def __init__(self, oracle: bytes, nqueries: int) -> None:
        self.oracle = split_report(oracle)
        self.nqueries = nqueries
        self.first: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def _fail(self, run_no: int, what: str, queries: set[int]) -> set[int]:
        self.mismatches.append(f"run {run_no}: {what}")
        return queries

    def check(self, run_no: int, doc: dict | None, error: str) -> None:
        n = self.nqueries
        self.attempted += n
        everything = set(range(n))
        if doc is None:
            self.failed += n
            self.mismatches.append(f"run {run_no}: raised: {error.strip()}")
            return
        bad: set[int] = set()
        got = split_report(doc["report"])
        if got[:1] != self.oracle[:1]:
            bad |= self._fail(run_no, "report preamble differs", everything)
        for qi in range(n):
            if str(qi) in doc["not_answered"]:
                bad |= self._fail(
                    run_no, f"query {qi} {doc['not_answered'][str(qi)]}", {qi})
            elif qi + 1 >= len(got):
                bad |= self._fail(run_no, f"query {qi} missing", {qi})
            elif got[qi + 1] != self.oracle[qi + 1]:
                bad |= self._fail(run_no, f"query {qi} report differs", {qi})
        if len(got) > len(self.oracle):
            bad |= self._fail(run_no, "report has extra sections", everything)
        if self.first is None:
            self.first = doc
        else:
            if doc["virtual_makespan_s"] != self.first["virtual_makespan_s"]:
                bad |= self._fail(run_no, "virtual makespan differs from "
                                  "run 1", everything)
            for qi, (a, b) in enumerate(zip(doc["latencies"],
                                            self.first["latencies"])):
                if a != b:
                    bad |= self._fail(run_no, f"query {qi} virtual latency "
                                      "differs from run 1", {qi})
        self.failed += len(bad)


def end_to_end(runs: list[dict], setup: list[float], checker: Checker,
               slo_limit_s: float) -> dict[str, float]:
    first = checker.first or {}
    lats = [x for x in first.get("latencies", []) if x is not None]
    lats.sort()
    k = tail_rank(len(lats)) or len(lats)
    met = 0
    if first:
        met = sum(1 for qi, x in enumerate(first["latencies"])
                  if x is not None and x <= slo_limit_s
                  and str(qi) not in first["not_answered"])
    return {
        "host_s": statistics.median(r["host_s"] for r in runs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "virtual_makespan_s": first.get("virtual_makespan_s", 0.0),
        "vlat_p50_s": lats[(len(lats) + 1) // 2 - 1] if lats else 0.0,
        "vlat_tail_s": lats[k - 1] if lats else 0.0,
        "slo_met_share": met / checker.nqueries,
        "answered_share": 1.0 - checker.failed / max(checker.attempted, 1),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if ns.workload == "all":
        chosen = list(WORKLOADS.values())
    elif ns.workload in WORKLOADS:
        chosen = [WORKLOADS[ns.workload]]
    else:
        print(f"unknown workload {ns.workload!r}; one of "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    code = 0
    for wl in chosen:
        work = ROOT / ".perfbench_work" / f"{wl.name}-s{ns.seed}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            code = max(code, measure(wl, ns, work))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass  # another invocation is still using it
    return code


def measure(wl, ns, work: pathlib.Path) -> int:
    started = time.perf_counter()
    inputs = wl.make_inputs(ns.seed)
    store, cfg = wl.stage(inputs)
    inputs_path = work / "inputs.json"
    inputs.dump(inputs_path)
    t0 = time.perf_counter()
    oracle = wl.oracle(store, cfg)
    serial_s = time.perf_counter() - t0
    checker = Checker(oracle, len(inputs.queries))

    # As many whole runs as fit best into --seconds (at least one); a
    # traced run comes first and its time counts against the budget.
    runs: list[dict] = []
    traced: dict | None = None
    setup: list[float] = []
    t_runs = time.perf_counter()
    untraced_s = 0.0
    while True:
        run_no = len(runs) + (traced is not None) + 1
        trace = bool(ns.trace) and traced is None
        remaining = CHILD_TIMEOUT_S - (time.perf_counter() - started)
        t0 = time.perf_counter()
        doc, error = run_child(wl.name, ns.seed, inputs_path,
                               work / f"run{run_no}.json", trace,
                               max(remaining, 1.0))
        checker.check(run_no, doc, error)
        if doc is None:
            break
        setup.append(doc["setup_s"])
        if trace:
            traced = doc
            continue
        runs.append(doc)
        untraced_s += time.perf_counter() - t0
        budget = ns.seconds - (time.perf_counter() - t_runs - untraced_s)
        if len(runs) >= max(1, round(budget * len(runs) / untraced_s)):
            break

    for line in checker.mismatches:
        print(f"MISMATCH {line}")
    correct = not checker.failed and bool(runs)
    prov = provenance()
    print(f"workload {wl.name} seed {ns.seed}: {len(runs)} timed runs, "
          f"oracle {serial_s:.3f} s; python {prov['python']}, numpy "
          f"{prov['numpy']}, nproc {prov['nproc']}, probe "
          + ", ".join(f"{k} {v:.4f}" for k, v in prov["probe"].items()))
    if ns.trace:
        metrics = dict(traced["layers"]) if traced else {}
        units = PER_LAYER
        if traced and runs:
            base = statistics.median(r["host_s"] for r in runs)
            metrics["ref.serial_s"] = serial_s
            metrics["ref.host_per_serial"] = base / serial_s
            metrics["bench.trace_overhead"] = traced["host_s"] / base
            print(f"ratios: host_per_serial = untraced median {base:.4f} s "
                  f"/ serial oracle {serial_s:.4f} s; trace_overhead = "
                  f"traced {traced['host_s']:.4f} s / {base:.4f} s")
        if traced:
            print("bases: " + "; ".join(
                f"{k} over {v:g}" for k, v in traced["bases"].items()))
    else:
        metrics = end_to_end(runs, setup, checker, wl.slo_limit_s) if runs \
            else {}
        units = END_TO_END
        if runs:
            print("host_s median of "
                  f"{len(runs)} runs; "
                  + describe_tail([r["host_s"] for r in runs], "s"))
            lats = [x for x in checker.first["latencies"] if x is not None]
            print("vlat_tail_s " + describe_tail(lats, "virtual_s")
                  + f"; slo limit {wl.slo_limit_s} virtual_s")
            if inputs.arrivals:
                print("generator lateness 0 s: arrivals are injected at "
                      "their exact virtual times")
            print(f"failed_share {checker.failed}/{checker.attempted} "
                  "query-runs")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
