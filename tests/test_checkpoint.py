"""Checkpoint/restart suite: crash-consistent snapshots, failover.

Covers the killable-master acceptance criteria (see FAULTS.md §4):

- the crash-consistent framed-file primitive (magic + length + CRC-32,
  write-temp → atomic rename) and every corruption it must catch;
- :class:`repro.parallel.CheckpointStore` save/prune/restore, including
  falling back past torn-write / bit-flip damaged snapshots;
- :class:`repro.parallel.FailoverTracker` succession semantics;
- end-to-end master kills (``kill=0``) against both FT drivers —
  recovered output byte-identical to the serial oracle, with and
  without a checkpoint to restore, replayed bit-for-bit.

Timing constants in the end-to-end tests are tuned to the small
workload: searches finish ~0.04 virtual seconds in, the output pass
runs to ~0.14 (pioBLAST) or ~0.2, the master then writes its completion
marker and lingers 1.0 afterwards.  A kill before the marker therefore
exercises real recovery; the checkpoint intervals are chosen so at
least one snapshot lands before the kill.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.parallel import (
    CheckpointStore,
    FTParams,
    FailoverTracker,
    ParallelConfig,
    mpiformatdb,
    run_mpiblast,
    run_pioblast,
)
from repro.simmpi import (
    BitFlipFault,
    CorruptFileError,
    CrashFault,
    FaultPlan,
    FileStore,
    TornWriteFault,
)
from repro.simmpi.filesystem import (
    ATOMIC_MAGIC,
    frame_payload,
    unframe_payload,
)
from repro.simmpi.launcher import run


# ----------------------------------------------------------------------
# The checksummed frame (pure functions, no simulator needed)
# ----------------------------------------------------------------------
class TestFrame:
    def test_roundtrip(self):
        payload = b"scheduler state" * 100
        assert unframe_payload("p", frame_payload(payload)) == payload

    def test_empty_payload_roundtrips(self):
        assert unframe_payload("p", frame_payload(b"")) == b""

    def test_truncated_header(self):
        with pytest.raises(CorruptFileError, match="truncated header"):
            unframe_payload("p", ATOMIC_MAGIC[:3])

    def test_bad_magic(self):
        framed = bytearray(frame_payload(b"data"))
        framed[0] ^= 0xFF
        with pytest.raises(CorruptFileError, match="bad magic"):
            unframe_payload("p", bytes(framed))

    def test_truncated_payload(self):
        framed = frame_payload(b"data" * 64)
        with pytest.raises(CorruptFileError, match="truncated payload"):
            unframe_payload("p", framed[: len(framed) // 2])

    def test_checksum_mismatch(self):
        framed = bytearray(frame_payload(b"data" * 64))
        framed[-1] ^= 0x01  # flip a payload bit, header intact
        with pytest.raises(CorruptFileError, match="checksum mismatch"):
            unframe_payload("p", bytes(framed))

    def test_error_carries_path(self):
        with pytest.raises(CorruptFileError) as ei:
            unframe_payload("_ckpt/ckpt-000003.ckpt", b"")
        assert ei.value.path == "_ckpt/ckpt-000003.ckpt"


# ----------------------------------------------------------------------
# write_atomic / read_atomic on the simulated filesystem
# ----------------------------------------------------------------------
def _solo(body):
    """Run ``body(ctx)`` on a 1-rank cluster; returns (result, store)."""
    store = FileStore()
    res = run(1, body, shared_store=store)
    return res.rank_results[0], store


class TestAtomicFiles:
    def test_roundtrip_and_no_temp_residue(self):
        def body(ctx):
            ctx.fs.write_atomic("dir/state", b"v1")
            ctx.fs.write_atomic("dir/state", b"v2-longer-than-v1")
            return ctx.fs.read_atomic("dir/state")

        got, store = _solo(body)
        assert got == b"v2-longer-than-v1"
        assert store.listdir("dir/") == ["dir/state"]  # tmp renamed away

    def test_plain_read_sees_frame(self):
        def body(ctx):
            ctx.fs.write_atomic("f", b"payload")
            return ctx.fs.read("f")

        got, _store = _solo(body)
        assert got.startswith(ATOMIC_MAGIC)
        assert unframe_payload("f", got) == b"payload"

    def test_torn_write_detected_on_read(self):
        plan = FaultPlan(
            events=(TornWriteFault(path_prefix="ck/", count=1),)
        )

        def body(ctx):
            ctx.fs.write_atomic("ck/a", b"x" * 512)
            try:
                ctx.fs.read_atomic("ck/a")
            except CorruptFileError as e:
                return e.why
            return "undetected"

        store = FileStore()
        res = run(1, body, shared_store=store, faults=plan)
        assert res.rank_results[0].startswith("truncated payload")
        assert res.fault_report.count("inject:torn-write") == 1

    def test_bit_flip_detected_on_read(self):
        plan = FaultPlan(
            events=(BitFlipFault(path_prefix="ck/", count=1),)
        )

        def body(ctx):
            ctx.fs.write_atomic("ck/a", b"x" * 512)
            try:
                ctx.fs.read_atomic("ck/a")
            except CorruptFileError as e:
                return e.why
            return "undetected"

        store = FileStore()
        res = run(1, body, shared_store=store, faults=plan)
        assert res.rank_results[0] == "checksum mismatch"
        assert res.fault_report.count("inject:bit-flip") == 1


# ----------------------------------------------------------------------
# CheckpointStore: numbering, pruning, interval gating, fallback
# ----------------------------------------------------------------------
class TestCheckpointStore:
    def test_save_load_roundtrip(self):
        def body(ctx):
            ck = CheckpointStore(ctx, "_ckpt", interval=0.1)
            state = {"frag_results": {0: ["m"]}, "holders": {0: (1, 2)}}
            ck.save(state)
            return CheckpointStore(ctx, "_ckpt", interval=0.1).load_latest()

        got, store = _solo(body)
        assert got == {"frag_results": {0: ["m"]}, "holders": {0: (1, 2)}}
        assert store.listdir("_ckpt/") == ["_ckpt/ckpt-000000.ckpt"]

    def test_prune_keeps_last_two(self):
        def body(ctx):
            ck = CheckpointStore(ctx, "_ckpt", interval=0.1)
            for i in range(5):
                ck.save({"i": i})
            return ck.load_latest()

        got, store = _solo(body)
        assert got == {"i": 4}
        assert store.listdir("_ckpt/") == [
            "_ckpt/ckpt-000003.ckpt", "_ckpt/ckpt-000004.ckpt",
        ]

    def test_numbering_resumes_after_restart(self):
        """A promoted master's store continues the sequence instead of
        overwriting the snapshots it may still need to read."""

        def body(ctx):
            CheckpointStore(ctx, "_ckpt", interval=0.1).save({"gen": 0})
            ck2 = CheckpointStore(ctx, "_ckpt", interval=0.1)
            path = ck2.save({"gen": 1})
            return path

        got, store = _solo(body)
        assert got == "_ckpt/ckpt-000001.ckpt"
        assert len(store.listdir("_ckpt/")) == 2

    def test_maybe_save_is_interval_gated(self):
        def body(ctx):
            ck = CheckpointStore(ctx, "_ckpt", interval=0.5)
            first = ck.maybe_save(lambda: {"n": 1})   # 0.0 elapsed
            ctx.engine.sleep(0.3)
            second = ck.maybe_save(lambda: {"n": 2})  # 0.3 < 0.5
            ctx.engine.sleep(0.3)
            third = ck.maybe_save(lambda: {"n": 3})   # 0.6 >= 0.5
            return (first, second, third, ck.load_latest())

        got, _store = _solo(body)
        assert got == (False, False, True, {"n": 3})

    def test_disabled_interval_never_saves_but_loads(self):
        def body(ctx):
            CheckpointStore(ctx, "_ckpt", interval=1.0).save({"x": 1})
            off = CheckpointStore(ctx, "_ckpt", interval=0.0)
            assert not off.enabled
            saved = off.maybe_save(lambda: {"x": 2})
            return (saved, off.load_latest())

        got, _store = _solo(body)
        assert got == (False, {"x": 1})

    def test_corrupt_latest_falls_back_to_previous(self):
        plan = FaultPlan(
            # skip the first framed write, damage the second
            events=(BitFlipFault(path_prefix="_ckpt/", start=0.001),)
        )

        def body(ctx):
            ck = CheckpointStore(ctx, "_ckpt", interval=0.1)
            ck.save({"gen": 0})
            ctx.engine.sleep(0.01)
            ck.save({"gen": 1})  # bit-flipped in flight
            return ck.load_latest()

        store = FileStore()
        res = run(1, body, shared_store=store, faults=plan)
        assert res.rank_results[0] == {"gen": 0}
        rep = res.fault_report
        assert rep.count("detect:checkpoint-corrupt") == 1
        assert rep.count("recover:restore-checkpoint") == 1

    def test_all_corrupt_returns_none(self):
        plan = FaultPlan(
            events=(TornWriteFault(path_prefix="_ckpt/", count=10),)
        )

        def body(ctx):
            ck = CheckpointStore(ctx, "_ckpt", interval=0.1)
            ck.save({"gen": 0})
            ck.save({"gen": 1})
            return ck.load_latest()

        store = FileStore()
        res = run(1, body, shared_store=store, faults=plan)
        assert res.rank_results[0] is None
        assert res.fault_report.count("detect:checkpoint-corrupt") == 2

    def test_empty_directory_returns_none(self):
        def body(ctx):
            return CheckpointStore(ctx, "_ckpt", interval=0.1).load_latest()

        got, _store = _solo(body)
        assert got is None


# ----------------------------------------------------------------------
# FailoverTracker succession semantics
# ----------------------------------------------------------------------
def _tracker_run(body):
    """Run ``body(tracker, ctx)`` on rank 4 of a 5-rank cluster."""
    out = {}

    def program(ctx):
        if ctx.rank == 4:
            out["v"] = body(
                FailoverTracker(ctx, FTParams(), range(5)), ctx
            )
        return None

    res = run(5, program)
    return out["v"], res.fault_report


_SILENCE = FTParams().failover_silence + 0.1


class TestFailoverTracker:
    def test_silence_advances_candidate(self):
        def body(fo, ctx):
            assert not fo.tick()  # just started: not silent yet
            ctx.engine.sleep(_SILENCE)
            assert fo.tick()
            return (fo.master, fo.guessing)

        got, rep = _tracker_run(body)
        assert got == (1, True)
        assert rep.count("detect:master-dead") == 1

    def test_succession_reaches_own_rank(self):
        def body(fo, ctx):
            for expect in (1, 2, 3):
                ctx.engine.sleep(_SILENCE)
                assert fo.tick()
                assert fo.master == expect
                assert not fo.promoted
            ctx.engine.sleep(_SILENCE)
            fo.tick()  # candidate 4 == own rank
            return fo.promoted

        got, _rep = _tracker_run(body)
        assert got is True

    def test_heard_resets_the_clock(self):
        def body(fo, ctx):
            silence = FTParams().failover_silence
            ctx.engine.sleep(silence * 0.9)
            fo.heard()
            ctx.engine.sleep(silence * 0.9)
            return fo.tick()  # only 0.9 silences since heard()

        got, _rep = _tracker_run(body)
        assert got is False

    def test_real_announcer_beats_a_guess(self):
        """A worker whose candidate ticked *past* the true successor
        must fall back to the rank that actually announced itself."""

        def body(fo, ctx):
            ctx.engine.sleep(_SILENCE)
            fo.tick()                      # guessing master=1
            changed = fo.announce(1)       # 1 really speaks
            assert not changed             # same rank: just heard()
            assert not fo.guessing
            for _ in range(2):             # 1 goes quiet again
                ctx.engine.sleep(_SILENCE)
                fo.tick()
            assert fo.master == 3          # guessed past rank 1
            rehomed = fo.announce(1)       # the real master pings
            return (rehomed, fo.master, fo.guessing)

        got, _rep = _tracker_run(body)
        assert got == (True, 1, False)

    def test_real_master_only_displaced_by_higher_rank(self):
        def body(fo, ctx):
            fo.announce(3)                 # adopted: higher than 0
            assert fo.master == 3
            low = fo.announce(1)           # lower real master: ignored
            high = fo.announce(3)          # steady state
            return (low, high, fo.master)

        got, _rep = _tracker_run(body)
        assert got == (False, False, 3)

    def test_own_rank_announcement_is_ignored(self):
        def body(fo, ctx):
            return (fo.announce(4), fo.master)

        got, _rep = _tracker_run(body)
        assert got == (False, 0)


# ----------------------------------------------------------------------
# End-to-end: the master is killable (FAULTS.md §4)
# ----------------------------------------------------------------------
def _pio(store, cfg, nprocs, plan):
    res = run_pioblast(nprocs, store, cfg, faults=plan)
    return store.read(cfg.output_path), res


def _mpi(store, cfg, nprocs, plan):
    mpiformatdb(store, cfg.db_name, cfg.fragments_for(nprocs - 1))
    res = run_mpiblast(nprocs, store, cfg, faults=plan)
    return store.read(cfg.output_path), res


def _with_ckpt(cfg, interval):
    return dataclasses.replace(cfg, checkpoint_interval=interval)


class TestMasterKillPioblast:
    def test_kill_master_with_checkpoint_restores(
        self, staged, serial_reference
    ):
        """The headline tentpole test: rank 0 dies mid-run, rank 1
        promotes itself, restores the snapshot, and finishes with
        byte-identical output — no fragment re-searched."""
        store, cfg = staged
        plan = FaultPlan(seed=3, events=(CrashFault(rank=0, time=0.12),))
        out, res = _pio(store, _with_ckpt(cfg, 0.04), 5, plan)
        assert out == serial_reference
        assert res.promotions == (1,)
        assert res.dead_ranks == (0,)
        rep = res.fault_report
        assert rep.count("recover:promote-master") == 1
        assert rep.count("recover:restore-checkpoint") == 1
        assert rep.count("ckpt:save") >= 1
        assert rep.count("recover:research") == 0  # snapshot covered all
        assert not rep.degraded

    def test_kill_master_without_checkpoint_recovers_cold(
        self, staged, serial_reference
    ):
        """Checkpointing off: the successor re-runs the whole pipeline
        from its own setup — slower, still byte-identical."""
        store, cfg = staged
        plan = FaultPlan(seed=3, events=(CrashFault(rank=0, time=0.12),))
        out, res = _pio(store, cfg, 5, plan)
        assert out == serial_reference
        assert res.promotions == (1,)
        rep = res.fault_report
        assert rep.count("recover:restore-checkpoint") == 0
        assert rep.count("ckpt:save") == 0

    @pytest.mark.parametrize("fault_cls", [TornWriteFault, BitFlipFault])
    def test_corrupt_latest_checkpoint_falls_back(
        self, staged, serial_reference, fault_cls
    ):
        """Snapshots land at ~0.041 and ~0.129 with this interval; the
        corruption window opens between them, so the newest replica is
        damaged and the successor must fall back past it.  The master
        dies before its output is complete (~0.141), so a successor has
        work to finish."""
        store, cfg = staged
        plan = FaultPlan(
            seed=3,
            events=(
                CrashFault(rank=0, time=0.135),
                fault_cls(path_prefix="_ckpt/", start=0.1, count=1),
            ),
        )
        out, res = _pio(store, _with_ckpt(cfg, 0.04), 5, plan)
        assert out == serial_reference
        assert res.promotions  # someone took over
        rep = res.fault_report
        corrupt = [e.detail[0] for e in rep.events
                   if e.kind == "detect:checkpoint-corrupt"]
        restored = [e.detail[0] for e in rep.events
                    if e.kind == "recover:restore-checkpoint"]
        assert corrupt == ["_ckpt/ckpt-000001.ckpt"]
        assert restored == ["_ckpt/ckpt-000000.ckpt"]

    def test_every_checkpoint_corrupt_recovers_cold(
        self, staged, serial_reference
    ):
        store, cfg = staged
        plan = FaultPlan(
            seed=3,
            events=(
                CrashFault(rank=0, time=0.135),
                TornWriteFault(path_prefix="_ckpt/", start=0.0, count=100),
            ),
        )
        out, res = _pio(store, _with_ckpt(cfg, 0.04), 5, plan)
        assert out == serial_reference
        rep = res.fault_report
        assert rep.count("detect:checkpoint-corrupt") >= 1
        assert rep.count("recover:restore-checkpoint") == 0

    def test_master_kill_replays_identically(self, small_db, small_queries):
        """Bit-for-bit determinism *including* the promotion, restore
        and abdication events in the fault-report comparison key."""
        from repro.costmodel import CostModel
        from repro.parallel import stage_inputs

        plan = FaultPlan(seed=3, events=(CrashFault(rank=0, time=0.12),))
        runs = []
        for _ in range(2):
            store = FileStore()
            cfg = ParallelConfig(cost=CostModel())
            cfg = stage_inputs(store, small_db, small_queries, config=cfg,
                               title="test nr")
            out, res = _pio(store, _with_ckpt(cfg, 0.04), 5, plan)
            runs.append((out, res.makespan, res.promotions,
                         res.fault_report.as_tuple()))
        assert runs[0] == runs[1]
        assert runs[0][2] == (1,)
        kinds = {e[1] for e in runs[0][3][0]}
        assert "recover:promote-master" in kinds
        assert "recover:restore-checkpoint" in kinds


class TestMasterKillMpiblast:
    def test_kill_master_with_checkpoint_restores(
        self, staged, serial_reference
    ):
        store, cfg = staged
        plan = FaultPlan(seed=3, events=(CrashFault(rank=0, time=0.1),))
        out, res = _mpi(store, _with_ckpt(cfg, 0.02), 5, plan)
        assert out == serial_reference
        assert res.promotions == (1,)
        assert res.dead_ranks == (0,)
        rep = res.fault_report
        assert rep.count("recover:promote-master") == 1
        assert rep.count("recover:restore-checkpoint") == 1
        assert rep.count("ckpt:save") >= 1
        assert not rep.degraded

    def test_kill_master_without_checkpoint_recovers_cold(
        self, staged, serial_reference
    ):
        store, cfg = staged
        plan = FaultPlan(seed=3, events=(CrashFault(rank=0, time=0.1),))
        out, res = _mpi(store, cfg, 5, plan)
        assert out == serial_reference
        assert res.promotions == (1,)
        assert res.fault_report.count("recover:restore-checkpoint") == 0

    def test_master_kill_replays_identically(self, small_db, small_queries):
        from repro.costmodel import CostModel
        from repro.parallel import stage_inputs

        plan = FaultPlan(seed=3, events=(CrashFault(rank=0, time=0.1),))
        runs = []
        for _ in range(2):
            store = FileStore()
            cfg = ParallelConfig(cost=CostModel())
            cfg = stage_inputs(store, small_db, small_queries, config=cfg,
                               title="test nr")
            out, res = _mpi(store, _with_ckpt(cfg, 0.02), 5, plan)
            runs.append((out, res.makespan, res.promotions,
                         res.fault_report.as_tuple()))
        assert runs[0] == runs[1]
        assert runs[0][2] == (1,)
        kinds = {e[1] for e in runs[0][3][0]}
        assert "recover:promote-master" in kinds
        assert "recover:restore-checkpoint" in kinds


# ----------------------------------------------------------------------
# Succession past the last candidate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("program", ["pioblast", "mpiblast"])
def test_succession_past_last_rank_promotes_the_walker(program):
    """Rank 1 straggles, is succeeded by rank 2 and adopts it; when
    ranks 2 and 3 die, rank 1's silence walk passes the last rank.  It
    used to address rank 4 of a 4-rank run and abort the whole run
    (``SimError: dest rank 4 out of range``); now the walker itself is
    the next candidate, promotes, and finishes with an accounted
    report."""
    from repro.experiments.common import (
        ExperimentWorkload,
        build_workload,
        run_program_raw,
    )
    from repro.parallel import run_serial_reference
    from repro.parallel.common import parse_index
    from repro.workloads import SynthSpec

    wl = ExperimentWorkload(
        db_spec=SynthSpec(num_sequences=90, mean_length=140),
        query_bytes=1800,
    )
    plan = FaultPlan.parse(
        "seed=1,straggler=1x0.002@10,kill=0@30,kill=2@4300,kill=3@4300"
    )
    _b, res, store, cfg = run_program_raw(program, 4, wl, faults=plan)
    assert res.promotions[-1] == 1
    report = store.read(cfg.output_path)
    oracle = run_serial_reference(store, cfg, output_path="ref.out")
    rep = res.fault_report
    if report == oracle:
        return
    assert rep.degraded
    # Every fragment holding an oracle hit the report lacks is listed.
    db, _queries = build_workload(wl)
    ordinal = {rec.defline: i for i, rec in enumerate(db)}
    index = parse_index(store.read(f"{cfg.db_name}.xin"))
    ranges = index.partition_ranges(cfg.fragments_for(3))

    def hits(text: bytes) -> set[int]:
        return {
            ordinal[line[1:].decode().strip()]
            for line in text.splitlines()
            if line.startswith(b">")
        }

    absent = {
        fid
        for ordn in hits(oracle) - hits(report)
        for fid, (lo, hi) in enumerate(ranges)
        if lo <= ordn < hi
    }
    assert absent
    assert absent <= set(rep.missing_fragments)


# ----------------------------------------------------------------------
# A late straggler finds the completion marker
# ----------------------------------------------------------------------
@pytest.mark.parametrize("program,req,reply", [
    ("pioblast", 40, 41), ("mpiblast", 16, 17),
])
def test_late_straggler_finds_the_done_marker(program, req, reply):
    """Dropped control messages leave rank 1 waiting on a reply after
    the master finished and exited.  It used to walk the succession,
    promote itself, declare every worker dead and rewrite the finished
    report as a degraded one (``MISSING FRAGMENTS [0, 1, 2, 3]``); the
    master's completion marker now tells it the run is done."""
    from repro.experiments.common import ExperimentWorkload, run_program_raw
    from repro.parallel import run_serial_reference
    from repro.workloads import SynthSpec

    wl = ExperimentWorkload(
        db_spec=SynthSpec(num_sequences=90, mean_length=140),
        query_bytes=1800,
    )
    plan = FaultPlan.parse(
        f"seed=1,drop=*>0:{req}n3,drop=0>*:{reply}n2"
    )
    _b, res, store, cfg = run_program_raw(program, 5, wl, faults=plan)
    oracle = run_serial_reference(store, cfg, output_path="ref.out")
    assert store.read(cfg.output_path) == oracle
    rep = res.fault_report
    assert res.promotions == ()
    assert not rep.degraded and not rep.missing_fragments
    assert rep.count("inject:drop") == 5


# ----------------------------------------------------------------------
# Satellite: query_batch is rejected under fault tolerance
# ----------------------------------------------------------------------
class TestQueryBatchRejected:
    def test_pioblast(self, staged):
        store, cfg = staged
        cfg = dataclasses.replace(cfg, query_batch=100)
        plan = FaultPlan(events=(CrashFault(rank=1, time=0.02),))
        with pytest.raises(ValueError, match="query_batch"):
            run_pioblast(5, store, cfg, faults=plan)

    def test_mpiblast(self, staged):
        store, cfg = staged
        cfg = dataclasses.replace(cfg, query_batch=100)
        mpiformatdb(store, cfg.db_name, cfg.fragments_for(4))
        plan = FaultPlan(events=(CrashFault(rank=1, time=0.02),))
        with pytest.raises(ValueError, match="query_batch"):
            run_mpiblast(5, store, cfg, faults=plan)

    def test_batching_still_fine_without_faults(self, staged,
                                                serial_reference):
        store, cfg = staged
        cfg = dataclasses.replace(cfg, query_batch=700)
        run_pioblast(5, store, cfg)
        assert store.read(cfg.output_path) == serial_reference


# ----------------------------------------------------------------------
# Chaos sweep: master kills across the whole run (tier 2)
# ----------------------------------------------------------------------
KILL_TIMES = [0.03, 0.08, 0.12, 0.15, 0.2]


@pytest.mark.chaos
@pytest.mark.parametrize("kill_time", KILL_TIMES)
class TestChaosMasterKill:
    def test_pioblast(self, staged, serial_reference, kill_time):
        store, cfg = staged
        plan = FaultPlan(
            seed=3, events=(CrashFault(rank=0, time=kill_time),)
        )
        out, res = _pio(store, _with_ckpt(cfg, 0.04), 5, plan)
        assert out == serial_reference
        assert not res.fault_report.degraded

    def test_mpiblast(self, staged, serial_reference, kill_time):
        store, cfg = staged
        plan = FaultPlan(
            seed=3, events=(CrashFault(rank=0, time=kill_time),)
        )
        out, res = _mpi(store, _with_ckpt(cfg, 0.02), 5, plan)
        assert out == serial_reference
        assert not res.fault_report.degraded
