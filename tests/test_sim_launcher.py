"""Launcher, contexts, phase recording, platform knobs."""

import pytest

from repro.simmpi import PlatformSpec, run
from repro.simmpi.trace import PhaseRecorder


class TestRun:
    def test_rank_results_collected(self):
        res = run(4, lambda ctx: ctx.rank * 2, PlatformSpec())
        assert res.rank_results == [0, 2, 4, 6]

    def test_nprocs_validated(self):
        with pytest.raises(ValueError):
            run(0, lambda ctx: None)

    def test_args_passed_per_rank_copy(self):
        def prog(ctx):
            ctx.args["mine"] = ctx.rank  # mutating must not leak
            return ctx.args["shared"]

        res = run(3, prog, args={"shared": 7})
        assert res.rank_results == [7, 7, 7]

    def test_stats_surface(self):
        def prog(ctx):
            ctx.comm.bcast("x" if ctx.rank == 0 else None, root=0)
            ctx.fs.write(f"f{ctx.rank}", 0, b"abc")

        res = run(3, prog)
        assert res.messages_sent > 0
        assert res.fs_write_ops == 3
        assert res.nprocs == 3


class TestCompute:
    def test_cpu_speed_scales(self):
        slow = run(1, lambda ctx: ctx.compute(10.0),
                   PlatformSpec(cpu_speed=1.0))
        fast = run(1, lambda ctx: ctx.compute(10.0),
                   PlatformSpec(cpu_speed=2.0))
        assert slow.makespan == pytest.approx(10.0)
        assert fast.makespan == pytest.approx(5.0)

    def test_heterogeneous_ranks(self):
        spec = PlatformSpec(cpu_speed_per_rank=(1.0, 0.5))

        def prog(ctx):
            ctx.compute(10.0)
            return ctx.now

        res = run(4, prog, spec)
        assert res.rank_results == [10.0, 20.0, 10.0, 20.0]

    def test_negative_compute_rejected(self):
        def prog(ctx):
            with pytest.raises(ValueError):
                ctx.compute(-1)

        run(1, prog)

    def test_local_disks_only_when_enabled(self):
        def prog(ctx):
            return ctx.local_disk is not None

        assert run(2, prog, PlatformSpec(local_disks=False)).rank_results == [
            False, False
        ]
        assert run(2, prog, PlatformSpec(local_disks=True)).rank_results == [
            True, True
        ]


class TestPhases:
    def test_phase_times_recorded_per_rank(self):
        def prog(ctx):
            with ctx.phase("alpha"):
                ctx.compute(float(ctx.rank + 1))
            with ctx.phase("beta"):
                ctx.compute(0.5)

        res = run(3, prog)
        assert res.phase_times[2]["alpha"] == pytest.approx(3.0)
        assert res.phase_times[0]["beta"] == pytest.approx(0.5)
        assert res.phase_max("alpha") == pytest.approx(3.0)

    def test_nested_phases_attribute_to_innermost(self):
        def prog(ctx):
            with ctx.phase("outer"):
                ctx.compute(1.0)
                with ctx.phase("inner"):
                    ctx.compute(2.0)
                ctx.compute(0.5)

        res = run(1, prog)
        assert res.phase_times[0]["inner"] == pytest.approx(2.0)
        assert res.phase_times[0]["outer"] == pytest.approx(1.5)

    def test_repeated_phase_accumulates(self):
        def prog(ctx):
            for _ in range(3):
                with ctx.phase("work"):
                    ctx.compute(1.0)

        res = run(1, prog)
        assert res.phase_times[0]["work"] == pytest.approx(3.0)

    def test_timeline_spans(self):
        from repro.obs import EV_PHASE, Tracer

        def prog(ctx):
            with ctx.phase("w"):
                ctx.compute(1.0)

        tracer = Tracer()
        run(2, prog, tracer=tracer)
        spans = [e for e in tracer.by_kind(EV_PHASE) if e.name == "w"]
        assert len(spans) == 2
        assert all(s.t1 - s.t0 == pytest.approx(1.0) for s in spans)
        assert len([s for s in tracer.by_kind(EV_PHASE) if s.rank == 1]) == 1

    def test_phase_total_helper(self):
        def prog(ctx):
            with ctx.phase("a"):
                ctx.compute(1.0)
            with ctx.phase("b"):
                ctx.compute(2.0)

        res = run(2, prog)
        assert res.phase_total() == pytest.approx(3.0)
        assert res.phase_total(["a"]) == pytest.approx(1.0)


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        def prog(ctx):
            ctx.comm.bcast(b"z" * 5000 if ctx.rank == 0 else None, root=0)
            with ctx.phase("s"):
                ctx.compute(0.1 * (ctx.rank + 1))
            ctx.fs.write(f"o{ctx.rank}", 0, bytes([ctx.rank]))
            ctx.comm.barrier()
            return ctx.now

        r1 = run(6, prog)
        r2 = run(6, prog)
        assert r1.makespan == r2.makespan
        assert r1.rank_results == r2.rank_results
        assert r1.phase_times == r2.phase_times
