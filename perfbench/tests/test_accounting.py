"""The traced run's accounting, on tiny runs of the benchmark's own code.

Run with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import time

import pytest

from child import layer_metrics
from layers import LayerClock
from run import END_TO_END, PER_LAYER, ROOT, Checker
from workloads import (
    WORKLOADS,
    ElasticGroupKill,
    PioBlast,
    split_report,
)

TINY = dict(nqueries=6, db_sequences=90, mean_length=140)

#: Layers every traced simulated run must record calls in.
SIM_LAYERS = ("blast.setup", "blast.search", "blast.report",
              "simmpi.sizing", "simmpi.comm", "simmpi.park", "simmpi.fs",
              "parallel.merge", "parallel.partition", "obs.metrics",
              "obs.tracer")


def traced_run(wl, seed=0):
    from repro.obs import Tracer

    inputs = wl.make_inputs(seed)
    store, cfg = wl.stage(inputs)
    oracle = wl.oracle(store, cfg)
    tracer = Tracer()
    with LayerClock() as clock:
        t0 = time.perf_counter()
        outcome = wl.run(store, cfg, inputs, tracer=tracer)
        host_s = time.perf_counter() - t0
    return clock, host_s, outcome, oracle, len(tracer.events)


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.fixture(scope="module")
def tiny_pio():
    return traced_run(PioBlast(4, **TINY))


def test_self_times_plus_residual_equal_traced_host_time(tiny_pio):
    clock, host_s, outcome, _oracle, events = tiny_pio
    m = layer_metrics(clock, host_s, {}, events)
    selfs = [v for k, v in m.items()
             if k.endswith("_s") and k.split(".")[0] in
             ("blast", "simmpi", "parallel", "obs")
             and k not in ("blast.scan_s", "blast.ungapped_s",
                           "blast.gapped_s", "blast.render_s")]
    assert sum(selfs) == pytest.approx(clock.self_total())
    assert m["driver.residual_s"] >= 0.0
    assert clock.self_total() + m["driver.residual_s"] == pytest.approx(
        host_s)


def test_every_simulated_layer_records_calls_on_pio(tiny_pio):
    clock, _host, outcome, oracle, _events = tiny_pio
    assert outcome.report == oracle
    missing = [layer for layer in SIM_LAYERS if clock.calls[layer] < 1]
    assert not missing
    assert clock.calls["blast.setup"] == 4  # one engine per rank
    assert clock.counts["fs_ops"] > 0 and clock.counts["fs_bytes"] > 0
    assert clock.counts["pairs"] > 0


def test_elastic_service_records_hier_and_service_work():
    wl = ElasticGroupKill(nprocs=9, ngroups=2, fault=None, **TINY)
    clock, host_s, outcome, oracle, events = traced_run(wl)
    assert outcome.report == oracle and not outcome.not_answered
    missing = [layer for layer in SIM_LAYERS if clock.calls[layer] < 1]
    assert not missing
    m = layer_metrics(clock, host_s, wl.layer_counters(outcome), events)
    assert 0.0 < m["simmpi.virtual_wait_share"] < 1.0
    parent_added = {"ref.serial_s", "ref.host_per_serial",
                    "bench.trace_overhead"}
    assert set(m) | parent_added == set(PER_LAYER)
    assert m["service.waves"] >= 1 and m["service.mean_wave_size"] > 0
    assert m["hier.result_yield"] > 0
    assert m["driver.residual_s"] >= 0.0


def test_parked_time_never_lands_in_the_enclosing_layer():
    """Rank 0 sits in a wrapped ``recv`` while rank 1 burns host time
    outside any layer: the recv's wall time covers that work, its self
    time must not."""
    from repro.simmpi import run

    def prog(ctx):
        if ctx.rank == 0:
            return ctx.comm.recv(source=1, tag=5)
        ctx.compute(1.0)  # rank 0 posts its recv first
        busy(0.3)
        ctx.comm.send("x", dest=0, tag=5)
        return None

    with LayerClock() as clock:
        t0 = time.perf_counter()
        res = run(2, prog)
        host_s = time.perf_counter() - t0
    assert res.rank_results[0] == "x"
    assert clock.calls["simmpi.comm"] == 2
    assert clock.calls["simmpi.park"] >= 1
    assert clock.self_s["simmpi.comm"] < 0.1
    assert host_s - clock.self_total() >= 0.3  # the busy work: residual


def test_nested_wrapped_calls_charge_only_their_own_layer():
    clock = LayerClock()
    inner = clock.wrap("inner", lambda: busy(0.05))

    def outer_body():
        busy(0.05)
        inner()

    clock.wrap("outer", outer_body)()
    assert 0.05 <= clock.self_s["outer"] < 0.09
    assert 0.05 <= clock.self_s["inner"] < 0.09


def test_install_restores_every_entry_point():
    from repro.blast.engine import BlastSearch
    from repro.simmpi import comm
    from repro.simmpi.engine import Engine

    before = (BlastSearch.__init__, comm.payload_nbytes, Engine.park)
    with LayerClock():
        assert BlastSearch.__init__ is not before[0]
        assert comm.payload_nbytes is not before[1]
    assert (BlastSearch.__init__, comm.payload_nbytes, Engine.park) == before


def test_checker_names_and_counts_each_mismatch():
    oracle = b"pre\n\nQuery= a\nx\nQuery= b\ny\nQuery= c\nz\n"
    checker = Checker(oracle, 3)
    ok = {"report": oracle, "not_answered": {},
          "virtual_makespan_s": 1.0, "latencies": [1.0, 1.0, 1.0]}
    checker.check(1, ok, "")
    bad = dict(ok, report=oracle.replace(b"\ny\n", b"\nY\n"),
               not_answered={"2": "shed"}, latencies=[1.0, 2.0, 1.0])
    checker.check(2, bad, "")
    checker.check(3, None, "boom")
    assert (checker.attempted, checker.failed) == (9, 5)
    assert checker.mismatches == [
        "run 2: query 1 report differs",
        "run 2: query 2 shed",
        "run 2: query 1 virtual latency differs from run 1",
        "run 3: raised: boom",
    ]
    assert len(split_report(oracle)) == 4


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
