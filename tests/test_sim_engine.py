"""Discrete-event engine: clock, parkers, determinism, failure modes."""

import os

import pytest

from repro.simmpi.engine import Engine, ProcessFailure, SimError


class TestClock:
    def test_sleep_advances_virtual_time(self):
        eng = Engine()
        seen = {}

        def prog():
            eng.sleep(1.5)
            seen["t1"] = eng.now
            eng.sleep(0.5)
            seen["t2"] = eng.now

        eng.spawn(prog, 0)
        makespan = eng.run()
        assert seen == {"t1": 1.5, "t2": 2.0}
        assert makespan == 2.0

    def test_zero_sleep_allowed(self):
        eng = Engine()
        eng.spawn(lambda: eng.sleep(0.0), 0)
        assert eng.run() == 0.0

    def test_negative_sleep_rejected(self):
        eng = Engine()
        boom = {}

        def prog():
            try:
                eng.sleep(-1)
            except SimError:
                boom["ok"] = True

        eng.spawn(prog, 0)
        eng.run()
        assert boom["ok"]

    def test_parallel_sleeps_overlap(self):
        eng = Engine()

        def prog():
            eng.sleep(3.0)

        for r in range(5):
            eng.spawn(prog, r)
        assert eng.run() == 3.0

    def test_interleaving_order(self):
        eng = Engine()
        order = []

        def prog(rank, delay):
            def body():
                eng.sleep(delay)
                order.append(rank)

            return body

        eng.spawn(prog(0, 2.0), 0)
        eng.spawn(prog(1, 1.0), 1)
        eng.spawn(prog(2, 3.0), 2)
        eng.run()
        assert order == [1, 0, 2]


class TestParkers:
    def test_unpark_delivers_value(self):
        eng = Engine()
        got = {}

        def waiter():
            p = eng.make_parker()
            waiter.parker = p
            got["value"] = eng.park(p)
            got["t"] = eng.now

        def waker():
            eng.sleep(0.1)  # let waiter park first
            eng.unpark_at(waiter.parker, eng.now + 1.0, "hello")

        eng.spawn(waiter, 0)
        eng.spawn(waker, 1)
        eng.run()
        assert got == {"value": "hello", "t": 1.1}

    def test_pre_posted_parker_returns_immediately(self):
        """A parker woken before park() is called must not block (the
        pre-posted receive case)."""
        eng = Engine()
        got = {}

        def prog():
            p = eng.make_parker()
            eng.unpark_at(p, eng.now + 0.5, 42)
            eng.sleep(2.0)  # wake fires while we are busy elsewhere
            got["v"] = eng.park(p)
            got["t"] = eng.now

        eng.spawn(prog, 0)
        eng.run()
        assert got == {"v": 42, "t": 2.0}

    def test_cannot_park_on_foreign_parker(self):
        eng = Engine()
        holder = {}
        errs = {}

        def p0():
            holder["p"] = eng.make_parker()
            eng.sleep(1.0)

        def p1():
            eng.sleep(0.1)
            try:
                eng.park(holder["p"])
            except SimError:
                errs["ok"] = True

        eng.spawn(p0, 0)
        eng.spawn(p1, 1)
        eng.run()
        assert errs["ok"]


class TestDeterminism:
    def test_same_program_same_timings(self):
        def build():
            eng = Engine()
            trace = []

            def prog(rank):
                def body():
                    for i in range(3):
                        eng.sleep(0.1 * (rank + 1))
                        trace.append((round(eng.now, 6), rank))

                return body

            for r in range(4):
                eng.spawn(prog(r), r)
            eng.run()
            return trace

        assert build() == build()


class TestFailures:
    def test_exception_propagates_with_rank(self):
        eng = Engine()

        def bad():
            eng.sleep(1.0)
            raise ValueError("boom")

        eng.spawn(bad, 3)
        with pytest.raises(ProcessFailure) as ei:
            eng.run()
        assert ei.value.rank == 3
        assert isinstance(ei.value.original, ValueError)

    def test_deadlock_detected(self):
        eng = Engine()

        def stuck():
            eng.park(eng.make_parker())  # nobody will wake us

        eng.spawn(stuck, 0)
        with pytest.raises(SimError, match="deadlock"):
            eng.run()

    def test_cannot_run_twice(self):
        eng = Engine()
        eng.spawn(lambda: None, 0)
        eng.run()
        with pytest.raises(SimError):
            eng.run()

    def test_cannot_spawn_after_run(self):
        eng = Engine()
        eng.spawn(lambda: None, 0)
        eng.run()
        with pytest.raises(SimError):
            eng.spawn(lambda: None, 1)

    def test_blocking_outside_rank_thread_rejected(self):
        eng = Engine()
        with pytest.raises(SimError):
            eng.sleep(1.0)


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs CPU affinity control and at least two CPUs",
)
def test_run_confines_ranks_to_one_cpu_and_restores_caller():
    before = os.sched_getaffinity(0)
    eng = Engine()
    seen = []

    def prog():
        seen.append(os.sched_getaffinity(0))
        eng.sleep(1.0)

    for r in range(3):
        eng.spawn(prog, r)
    eng.run()
    assert len(seen) == 3 and len(seen[0]) == 1 and seen[0] <= before
    assert seen[1] == seen[2] == seen[0]
    assert os.sched_getaffinity(0) == before


class TestScheduledActions:
    def test_schedule_and_cancel(self):
        eng = Engine()
        fired = []

        def prog():
            ev = eng.schedule(5.0, lambda: fired.append("a"))
            eng.schedule(6.0, lambda: fired.append("b"))
            eng.cancel(ev)
            eng.sleep(10.0)

        eng.spawn(prog, 0)
        eng.run()
        assert fired == ["b"]

    def test_past_scheduling_rejected(self):
        eng = Engine()
        errs = {}

        def prog():
            eng.sleep(2.0)
            try:
                eng.schedule(1.0, lambda: None)
            except SimError:
                errs["ok"] = True

        eng.spawn(prog, 0)
        eng.run()
        assert errs["ok"]
