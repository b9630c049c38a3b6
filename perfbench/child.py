"""One timed run of a workload, in a fresh interpreter.

Started by ``run.py`` once per timed run, so process-wide caches of the
program (``BlastSearch._GLOBAL_INDEX_MEMO``,
``repro.experiments.common._db_cache``) start cold every time and the
peak resident memory belongs to this run alone.  Staging the inputs is
outside the timed region; with ``--trace`` the run is wrapped by
:class:`layers.LayerClock` and given a ``repro.obs.Tracer``.

After the run (and after reading the peak RSS, which the set-up must
not raise), the process times the set-up (synthesis from the seed plus
staging) :data:`SETUP_REPS` times after one untimed warm-up and
reports the median.  It is measured here rather than once in the
parent because a set-up takes ~0.1 s and some processes on a shared
machine run all of their set-ups up to 1.5x slower: one sample per run
process averages that out as ``host_s`` does.

Writes the report bytes to ``<out>.report`` and a JSON summary to
``<out>``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from layers import LayerClock  # noqa: E402
from workloads import WORKLOADS, Inputs  # noqa: E402

SETUP_REPS = 5


def time_setup(wl, seed: int) -> float:
    """Median host time of synthesizing and staging the inputs."""
    wl.stage(wl.make_inputs(seed))
    reps = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.stage(wl.make_inputs(seed))
        reps.append(time.perf_counter() - t0)
    return statistics.median(reps)


def layer_metrics(clock: LayerClock, host_s: float, lay: dict,
                  events: int) -> dict[str, float]:
    """The per-layer metrics one traced run yields (see README.md);
    :func:`ratio_bases` gives the denominators of its ratios."""
    s, n, c = clock.self_s, clock.calls, clock.counts
    pairs = c["pairs"]
    out = {
        "blast.setup_s": s["blast.setup"],
        "blast.setup_calls": n["blast.setup"],
        "blast.search_s": s["blast.search"],
        "blast.search_calls": n["blast.search"],
        "blast.pairs": pairs,
        "blast.search_us_per_pair": (
            1e6 * s["blast.search"] / pairs if pairs else 0.0),
        "blast.scan_s": c["scan_s"],
        "blast.ungapped_s": c["ungapped_s"],
        "blast.gapped_s": c["gapped_s"],
        "blast.render_s": c["render_s"],
        "blast.pair_hit_share": c["pair_hits"] / pairs if pairs else 0.0,
        "blast.gapped_extensions": c["gapped_extensions"],
        "blast.gapped_dedup": c["gapped_dedup"],
        "blast.report_s": s["blast.report"],
        "blast.report_bytes": c["report_bytes"],
        "simmpi.sizing_s": s["simmpi.sizing"],
        "simmpi.sizing_calls": n["simmpi.sizing"],
        "simmpi.comm_s": s["simmpi.comm"],
        "simmpi.comm_calls": n["simmpi.comm"],
        "simmpi.parks": n["simmpi.park"],
        "simmpi.fs_s": s["simmpi.fs"],
        "simmpi.fs_ops": c["fs_ops"],
        "simmpi.fs_bytes": c["fs_bytes"],
        "parallel.merge_s": s["parallel.merge"],
        "parallel.merge_calls": n["parallel.merge"],
        "parallel.partition_s": s["parallel.partition"],
        "obs.metrics_s": s["obs.metrics"],
        "obs.metrics_calls": n["obs.metrics"],
        "obs.tracer_s": s["obs.tracer"],
        "obs.events": events,
        "driver.residual_s": host_s - clock.self_total(),
        "bench.traced_host_s": host_s,
    }
    for key in ("simmpi.messages", "simmpi.message_bytes",
                "simmpi.virtual_wait_share", "hier.redispatches",
                "hier.dup_results", "hier.regroups", "hier.recovery_probes",
                "service.waves", "service.shed", "service.degraded"):
        out[key] = lay.get(key, 0.0)
    used, dups = lay.get("hier.results_used", 0.0), out["hier.dup_results"]
    out["hier.result_yield"] = used / (used + dups) if used + dups else 0.0
    waves = out["service.waves"]
    out["service.mean_wave_size"] = (
        lay.get("service.answered", 0.0) / waves if waves else 0.0)
    return {k: float(v) for k, v in out.items()}


def ratio_bases(clock: LayerClock, lay: dict,
                virtual_makespan_s: float) -> dict[str, float]:
    """Denominator of each per-layer ratio, printed beside it."""
    return {
        "blast.pair_hit_share, blast.search_us_per_pair: pairs":
            clock.counts["pairs"],
        "hier.result_yield: results received":
            lay.get("hier.results_used", 0.0)
            + lay.get("hier.dup_results", 0.0),
        "service.mean_wave_size: waves": lay.get("service.waves", 0.0),
        "simmpi.virtual_wait_share: makespan virtual_s": virtual_makespan_s,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--inputs", required=True, type=pathlib.Path)
    ap.add_argument("--out", required=True, type=pathlib.Path)
    ap.add_argument("--trace", action="store_true")
    ns = ap.parse_args(argv)
    wl = WORKLOADS[ns.workload]
    inputs = Inputs.load(ns.inputs)
    store, cfg = wl.stage(inputs)
    clock = tracer = None
    if ns.trace:
        from repro.obs import Tracer

        clock = LayerClock().install()
        tracer = Tracer()
    t0 = time.perf_counter()
    outcome = wl.run(store, cfg, inputs, tracer=tracer)
    host_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if clock is not None:
        clock.uninstall()
    ns.out.with_suffix(".report").write_bytes(outcome.report)
    doc = {
        "host_s": host_s,
        "setup_s": time_setup(wl, ns.seed),
        "peak_rss_mb": peak_rss_mb,
        "virtual_makespan_s": outcome.virtual_makespan_s,
        "latencies": [None if lat == float("inf") else lat
                      for lat in outcome.latencies],
        "not_answered": {str(k): v for k, v in outcome.not_answered.items()},
    }
    if clock is not None:
        lay = wl.layer_counters(outcome)
        doc["layers"] = layer_metrics(clock, host_s, lay, len(tracer.events))
        doc["bases"] = ratio_bases(clock, lay, outcome.virtual_makespan_s)
    ns.out.write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
