"""Processor-sharing bandwidth: fair share, caps, conservation."""

import pytest

from repro.simmpi.engine import Engine, SimError
from repro.simmpi.resource import SharedBandwidth


def run_transfers(capacity, per_stream, jobs):
    """jobs: list of (start_delay, nbytes); returns per-job finish time."""
    eng = Engine()
    pipe = SharedBandwidth(eng, capacity, per_stream)
    finish = {}

    def prog(i, delay, nbytes):
        def body():
            eng.sleep(delay)
            pipe.transfer(nbytes)
            finish[i] = eng.now

        return body

    for i, (delay, nbytes) in enumerate(jobs):
        eng.spawn(prog(i, delay, nbytes), i)
    eng.run()
    return finish


class TestSingleStream:
    def test_full_rate_when_alone(self):
        f = run_transfers(100.0, None, [(0.0, 1000.0)])
        assert f[0] == pytest.approx(10.0)

    def test_per_stream_cap_applies(self):
        f = run_transfers(100.0, 25.0, [(0.0, 1000.0)])
        assert f[0] == pytest.approx(40.0)

    def test_zero_bytes_instant(self):
        f = run_transfers(100.0, None, [(0.0, 0.0)])
        assert f[0] == 0.0


class TestFairSharing:
    def test_two_equal_streams_split_capacity(self):
        f = run_transfers(100.0, None, [(0.0, 500.0), (0.0, 500.0)])
        # both run at 50 B/s → 10 s
        assert f[0] == pytest.approx(10.0)
        assert f[1] == pytest.approx(10.0)

    def test_short_stream_releases_capacity(self):
        f = run_transfers(100.0, None, [(0.0, 1000.0), (0.0, 200.0)])
        # both at 50 B/s; job1 done at 4s having moved 200;
        # job0 then finishes its remaining 800 at 100 B/s → 4 + 8 = 12.
        assert f[1] == pytest.approx(4.0)
        assert f[0] == pytest.approx(12.0)

    def test_late_arrival_shares(self):
        f = run_transfers(100.0, None, [(0.0, 1000.0), (5.0, 250.0)])
        # job0 alone 0-5s: 500 done. Then both at 50: job1 takes 5s
        # (finish 10); job0's remaining 250 at 100 B/s → 12.5.
        assert f[1] == pytest.approx(10.0)
        assert f[0] == pytest.approx(12.5)

    def test_per_stream_cap_leaves_capacity_unused(self):
        f = run_transfers(100.0, 30.0, [(0.0, 300.0), (0.0, 300.0)])
        # both capped at 30 B/s (fair share would be 50)
        assert f[0] == pytest.approx(10.0)
        assert f[1] == pytest.approx(10.0)

    def test_many_streams(self):
        n = 10
        f = run_transfers(100.0, None, [(0.0, 100.0)] * n)
        # each gets 10 B/s → all finish at 10 s
        for i in range(n):
            assert f[i] == pytest.approx(10.0)

    def test_aggregate_rate_never_exceeds_capacity(self):
        """Total bytes moved ≤ capacity × makespan."""
        jobs = [(0.0, 700.0), (1.0, 300.0), (2.0, 900.0), (2.5, 50.0)]
        eng = Engine()
        pipe = SharedBandwidth(eng, 100.0, None)
        finish = {}

        def prog(i, delay, nbytes):
            def body():
                eng.sleep(delay)
                pipe.transfer(nbytes)
                finish[i] = eng.now

            return body

        for i, (d, b) in enumerate(jobs):
            eng.spawn(prog(i, d, b), i)
        makespan = eng.run()
        total = sum(b for _, b in jobs)
        assert total <= 100.0 * makespan + 1e-6
        # and the pipe was never idle while work remained: exact optimum
        assert makespan == pytest.approx(total / 100.0 + 0.0, abs=2.5)


class TestSimultaneousCompletions:
    """Many transfers starting and draining at the same instants: every
    completion time and the order ranks resume in follow the fluid
    schedule worked out by hand (same-instant completions resume in
    start order)."""

    @staticmethod
    def completions(capacity, sizes):
        eng = Engine()
        pipe = SharedBandwidth(eng, capacity, None)
        order = []

        def prog(i, nbytes):
            def body():
                pipe.transfer(nbytes)
                order.append((i, eng.now))

            return body

        for i, nbytes in enumerate(sizes):
            eng.spawn(prog(i, nbytes), i)
        eng.run()
        assert pipe.active_streams == 0
        return order

    def test_six_streams_three_waves(self):
        # 120 B/s over 6 streams = 20 B/s each; the two 100 B jobs
        # finish at 5 s.  Then 4 streams at 30 B/s: the 200 B jobs have
        # 100 B left, done at 5 + 10/3.  Then 2 streams at 60 B/s: the
        # 300 B jobs' last 100 B take 5/3 more, done at 10 s.
        order = self.completions(120.0, [300, 100, 200, 100, 300, 200])
        assert [i for i, _ in order] == [1, 3, 2, 5, 0, 4]
        want = [5.0, 5.0, 25 / 3, 25 / 3, 10.0, 10.0]
        assert [t for _, t in order] == pytest.approx(want)

    def test_many_streams_same_instants(self):
        # 48 streams at 480 B/s = 10 B/s each.  The 16 jobs of 100 B end
        # at 10 s; the 32 left run at 15 B/s, so the 200 B jobs end at
        # 10 + 100/15 = 50/3 s; the last 16 run at 30 B/s and the 300 B
        # jobs end at 50/3 + 100/30 = 20 s.
        sizes = [100 * (1 + i % 3) for i in range(48)]
        order = self.completions(480.0, sizes)
        ranks = [i for i, _ in order]
        assert ranks == (
            [i for i in range(48) if i % 3 == 0]
            + [i for i in range(48) if i % 3 == 1]
            + [i for i in range(48) if i % 3 == 2]
        )
        want = [10.0] * 16 + [50 / 3] * 16 + [20.0] * 16
        assert [t for _, t in order] == pytest.approx(want)


class TestValidation:
    def test_bad_capacity(self):
        eng = Engine()
        with pytest.raises(SimError):
            SharedBandwidth(eng, 0.0)

    def test_bad_per_stream(self):
        eng = Engine()
        with pytest.raises(SimError):
            SharedBandwidth(eng, 10.0, -1.0)

    def test_negative_transfer(self):
        eng = Engine()
        pipe = SharedBandwidth(eng, 10.0)
        errs = {}

        def prog():
            try:
                pipe.transfer(-5)
            except SimError:
                errs["ok"] = True

        eng.spawn(prog, 0)
        eng.run()
        assert errs["ok"]

    def test_stats(self):
        eng = Engine()
        pipe = SharedBandwidth(eng, 10.0)

        def prog():
            pipe.transfer(30.0)
            pipe.transfer(20.0)

        eng.spawn(prog, 0)
        eng.run()
        assert pipe.total_transfers == 2
        assert pipe.total_bytes == 50.0
        assert pipe.active_streams == 0
