"""PhaseRecorder accounting: nesting, reentrancy, and the tracer mirror.

Also the regression test for the dead pre-credit statement that used to
run at phase *entry* (it seeded a zero for the enclosing phase that the
exit path's real pre-credit immediately superseded — pure dead code):
entering a phase must not touch the accumulator at all.
"""

from __future__ import annotations

import pytest

from repro.obs import EV_PHASE, Tracer
from repro.simmpi import PlatformSpec
from repro.simmpi.launcher import run


def _run(program, nprocs=1, tracer=None):
    return run(nprocs, program, PlatformSpec(), tracer=tracer)


class TestNestedPhases:
    def test_innermost_only_accounting(self):
        def program(ctx):
            with ctx.phase("outer"):
                ctx.engine.sleep(1.0)
                with ctx.phase("inner"):
                    ctx.engine.sleep(2.0)
                ctx.engine.sleep(0.5)

        res = _run(program)
        times = res.phase_times[0]
        assert times["inner"] == pytest.approx(2.0)
        assert times["outer"] == pytest.approx(1.5)
        assert sum(times.values()) == pytest.approx(res.makespan)

    def test_three_deep(self):
        def program(ctx):
            with ctx.phase("a"):
                ctx.engine.sleep(1.0)
                with ctx.phase("b"):
                    ctx.engine.sleep(1.0)
                    with ctx.phase("c"):
                        ctx.engine.sleep(1.0)

        res = _run(program)
        t = res.phase_times[0]
        assert t == pytest.approx({"a": 1.0, "b": 1.0, "c": 1.0})

    def test_reentrant_same_name(self):
        """A phase nested inside itself must not double count."""

        def program(ctx):
            with ctx.phase("a"):
                ctx.engine.sleep(1.0)
                with ctx.phase("a"):
                    ctx.engine.sleep(2.0)
                ctx.engine.sleep(0.25)

        res = _run(program)
        assert res.phase_times[0]["a"] == pytest.approx(3.25)

    def test_sequential_repeats_accumulate(self):
        def program(ctx):
            for _ in range(3):
                with ctx.phase("step"):
                    ctx.engine.sleep(0.5)

        res = _run(program)
        assert res.phase_times[0]["step"] == pytest.approx(1.5)

    def test_totals_bounded_by_busy_time(self):
        def program(ctx):
            with ctx.phase("outer"):
                ctx.engine.sleep(0.5)
                with ctx.phase("inner"):
                    ctx.engine.sleep(0.5)
            ctx.engine.sleep(0.5)  # unphased

        res = _run(program)
        assert sum(res.phase_times[0].values()) == pytest.approx(1.0)
        assert res.makespan == pytest.approx(1.5)


class TestEntryIsPure:
    """Regression: phase entry must not create accumulator entries."""

    def test_no_acc_keys_before_exit(self):
        seen = {}

        def program(ctx):
            rec = ctx.phases
            with ctx.phase("outer"):
                ctx.engine.sleep(0.1)
                with ctx.phase("inner"):
                    # Mid-nested-block: nothing has exited yet, so the
                    # accumulator must still be empty — the old entry
                    # pre-credit would have seeded {"outer": 0.0} here.
                    seen["during"] = dict(rec.rank_phases(0))
                    ctx.engine.sleep(0.1)

        res = _run(program)
        assert seen["during"] == {}
        assert set(res.phase_times[0]) == {"outer", "inner"}


class TestTimelineAndTracer:
    def test_timeline_matches_tracer_spans(self):
        def program(ctx):
            with ctx.phase("outer"):
                ctx.engine.sleep(0.5)
                with ctx.phase("inner"):
                    ctx.engine.sleep(0.5)

        tracer = Tracer()
        _run(program, tracer=tracer)
        phase_events = [e for e in tracer.events if e.kind == EV_PHASE]
        assert len(phase_events) == 2
        assert [(e.rank, e.name, e.t0, e.t1) for e in phase_events] == [
            (0, "inner", 0.5, 1.0), (0, "outer", 0.0, 1.0),
        ]

    def test_exit_order_inner_first(self):
        def program(ctx):
            with ctx.phase("outer"):
                with ctx.phase("inner"):
                    ctx.engine.sleep(0.5)

        tracer = Tracer()
        _run(program, tracer=tracer)
        names = [e.name for e in tracer.events if e.kind == EV_PHASE]
        assert names == ["inner", "outer"]

    def test_multirank_phases_attributed_to_own_rank(self):
        def program(ctx):
            with ctx.phase(f"p{ctx.rank}"):
                ctx.engine.sleep(0.1 * (ctx.rank + 1))

        res = _run(program, nprocs=3)
        for r in range(3):
            assert res.phase_times[r] == pytest.approx(
                {f"p{r}": 0.1 * (r + 1)}
            )
