"""Unit tests of the pull-RPC supervision core (repro.parallel.supervise).

Each test runs a few ranks of a tiny simulated program: one side plays
the protocol role under test, the other scripts the peer's messages.
"""

from __future__ import annotations

import pytest

from repro.parallel import FTParams
from repro.parallel.supervise import (
    Channel,
    Client,
    FailoverTracker,
    Orphaned,
    Promoted,
    Server,
)
from repro.simmpi import Status
from repro.simmpi.comm import ANY_SOURCE, ANY_TAG, TIMEOUT
from repro.simmpi.launcher import run

CH = Channel(req=1, reply=2, ping=3)
#: Patience that never runs out within a test, unless a test wants it to.
FT = FTParams(req_timeout=0.25, req_max_attempts=3, master_tick=0.25,
              failover_silence=100.0)


def requests_until(ctx, end, *, ping_every=None, answer=None):
    """Receive until ``end``: log ``(time, request)``, optionally ping
    rank 1 and answer requests through ``answer`` (a Server)."""
    log = []
    next_ping = 0.0
    while ctx.engine.now < end:
        if ping_every is not None and ctx.engine.now >= next_ping:
            ctx.comm.isend(ctx.rank, dest=1, tag=CH.ping)
            next_ping = ctx.engine.now + ping_every
        st = Status()
        msg = ctx.comm.recv_with_timeout(
            source=ANY_SOURCE, tag=ANY_TAG, timeout=0.05, status=st
        )
        if msg is not TIMEOUT and st.tag == CH.req:
            log.append((ctx.engine.now, msg))
            if answer is not None:
                answer.answer(msg, lambda _r, kind, _d: ("ack", kind))
    return log


def outcome(client, kind="k"):
    try:
        return client.call(kind)
    except (Promoted, Orphaned) as e:
        return type(e).__name__


class TestClient:
    def test_resend_deadline_stays_absolute_under_pings(self):
        """Pings every 0.1 s keep the master 'heard', but must not push
        the resend out: requests leave every ``req_timeout``."""

        def program(ctx):
            if ctx.rank == 0:
                return requests_until(ctx, 1.0, ping_every=0.1)
            return outcome(Client(ctx, FT, CH, range(2)))

        res = run(2, program)
        log, got = res.rank_results
        assert got == "Orphaned"
        times = [t for t, _m in log]
        assert len(times) == FT.req_max_attempts
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(abs(g - FT.req_timeout) < 1e-3 for g in gaps), gaps
        # Every resend carries the same sequence number.
        assert {m[1] for _t, m in log} == {1}

    def test_orphaned_after_max_attempts(self):
        def program(ctx):
            if ctx.rank == 0:
                return requests_until(ctx, 2.0)
            return outcome(Client(ctx, FT, CH, range(2)))

        res = run(2, program)
        log, got = res.rank_results
        assert got == "Orphaned"
        assert len(log) == FT.req_max_attempts

    def test_request_rehomed_after_announcement(self):
        """Rank 0 never answers; rank 1 announces itself and answers,
        so rank 2's outstanding request moves to rank 1."""

        def program(ctx):
            if ctx.rank == 0:
                return requests_until(ctx, 1.0)
            if ctx.rank == 1:
                ctx.engine.sleep(0.05)
                ctx.comm.isend(1, dest=2, tag=CH.ping)
                return requests_until(
                    ctx, 1.0, answer=Server(ctx, FT, CH, range(3), [2])
                )
            client = Client(ctx, FT, CH, range(3))
            return outcome(client), client.tracker.master

        res = run(3, program)
        to0, to1, (got, master) = res.rank_results
        assert (got, master) == (("ack", "k"), 1)
        assert len(to0) == 1 and len(to1) == 1
        assert to0[0][1] == to1[0][1] == (2, 1, "k", None)
        assert to1[0][0] < FT.req_timeout  # re-homed, not timed out

    def test_ping_naming_this_rank_forces_promotion(self):
        def program(ctx):
            if ctx.rank == 0:
                ctx.engine.sleep(0.05)
                ctx.comm.isend(1, dest=1, tag=CH.ping)  # "1 succeeds me"
                return None
            client = Client(ctx, FT, CH, range(2))
            return outcome(client), client.tracker.promoted, ctx.engine.now

        res = run(2, program)
        got, promoted, t = res.rank_results[1]
        assert (got, promoted) == ("Promoted", True)
        assert t < FT.req_timeout
        assert res.fault_report.count("detect:master-dead") == 0


class TestServer:
    def test_resent_seq_gets_cached_reply_without_second_handle(self):
        calls = []

        def program(ctx):
            if ctx.rank == 0:
                srv = Server(ctx, FT, CH, range(2), [1])
                for _ in range(3):
                    msg, _st = srv.poll()
                    srv.answer(msg, lambda r, k, d: calls.append(k) or (k, d))
                return None
            replies = []
            for seq, kind in ((1, "a"), (1, "a"), (2, "b")):
                ctx.comm.isend((1, seq, kind, seq), dest=0, tag=CH.req)
                replies.append(ctx.comm.recv(source=0, tag=CH.reply))
            return replies

        res = run(2, program)
        assert calls == ["a", "b"]
        assert res.rank_results[1] == [(1, ("a", 1)), (1, ("a", 1)),
                                       (2, ("b", 2))]

    def test_heartbeat_is_rate_limited_to_master_tick(self):
        def program(ctx):
            if ctx.rank == 0:
                srv = Server(ctx, FT, CH, range(2), [0, 1])
                for _ in range(6):  # t = 0, 0.1, ... 0.5
                    srv.ping()
                    ctx.engine.sleep(0.1)
                srv.ping(force=True)
                return None
            got = []
            while True:
                msg = ctx.comm.recv_with_timeout(
                    source=0, tag=CH.ping, timeout=1.0
                )
                if msg is TIMEOUT:
                    return got
                got.append(round(ctx.engine.now, 1))

        res = run(2, program)
        # Beats at 0.0, 0.3 (>= 0.25 after 0.0) and the forced 0.6; the
        # sender never pings itself.
        assert res.rank_results[1] == [0.0, 0.3, 0.6]

    def test_abdication_only_to_a_later_candidate(self):
        def program(ctx):
            srv = Server(ctx, FT, CH, [0, 3, 1, 2], [])
            return [srv.outranked_by(r) for r in (0, 3, 1, 2, 7)]

        res = run(4, program)
        # Rank 3 comes second: ranks 1 and 2 follow it, 0 precedes it,
        # itself and strangers never outrank it.
        assert res.rank_results[3] == [False, False, True, True, False]


class TestTrackerSuccession:
    @pytest.mark.parametrize("adopted", [2, 3])
    def test_walk_past_last_candidate_promotes_the_walker(self, adopted):
        def program(ctx):
            if ctx.rank != 1:
                return None
            fo = FailoverTracker(ctx, FT, range(4))
            assert fo.announce(adopted)
            for _ in range(4 - adopted):
                ctx.engine.sleep(FT.failover_silence + 1)
                assert fo.tick()
            return fo.master, fo.promoted

        res = run(4, program)
        assert res.rank_results[1] == (1, True)
