"""Communicator: point-to-point semantics and collectives."""

import operator

import pytest

from repro.simmpi import NetworkModel, PlatformSpec, run
from repro.simmpi.comm import ANY_SOURCE, ANY_TAG, Status
from repro.simmpi.engine import SimError

FAST = PlatformSpec(network=NetworkModel(latency=1e-6, bandwidth=1e9,
                                         overhead=1e-7))


def launch(n, fn):
    return run(n, fn, FAST)


class TestPointToPoint:
    def test_send_recv_payload(self):
        def prog(ctx):
            if ctx.rank == 0:
                ctx.comm.send({"x": 1}, dest=1, tag=5)
            elif ctx.rank == 1:
                st = Status()
                got = ctx.comm.recv(source=0, tag=5, status=st)
                assert got == {"x": 1}
                assert st.source == 0 and st.tag == 5

        launch(2, prog)

    def test_fifo_per_source_tag(self):
        def prog(ctx):
            if ctx.rank == 0:
                for i in range(5):
                    ctx.comm.send(i, dest=1, tag=1)
            else:
                got = [ctx.comm.recv(source=0, tag=1) for _ in range(5)]
                assert got == list(range(5))

        launch(2, prog)

    def test_tag_selectivity(self):
        def prog(ctx):
            if ctx.rank == 0:
                ctx.comm.send("a", dest=1, tag=1)
                ctx.comm.send("b", dest=1, tag=2)
            else:
                assert ctx.comm.recv(source=0, tag=2) == "b"
                assert ctx.comm.recv(source=0, tag=1) == "a"

        launch(2, prog)

    def test_any_source_any_tag(self):
        def prog(ctx):
            if ctx.rank in (1, 2):
                ctx.comm.send(ctx.rank, dest=0, tag=ctx.rank)
            elif ctx.rank == 0:
                seen = set()
                for _ in range(2):
                    st = Status()
                    v = ctx.comm.recv(source=ANY_SOURCE, tag=ANY_TAG,
                                      status=st)
                    assert v == st.source == st.tag
                    seen.add(v)
                assert seen == {1, 2}

        launch(3, prog)

    def test_recv_before_send(self):
        def prog(ctx):
            if ctx.rank == 0:
                got = ctx.comm.recv(source=1, tag=0)
                assert got == "late"
            else:
                ctx.engine.sleep(1.0)
                ctx.comm.send("late", dest=0, tag=0)

        launch(2, prog)

    def test_isend_irecv(self):
        def prog(ctx):
            if ctx.rank == 0:
                req = ctx.comm.isend("x", dest=1, tag=0)
                req.wait()
            else:
                req = ctx.comm.irecv(source=0, tag=0)
                assert req.wait() == "x"

        launch(2, prog)

    def test_probe_leaves_message(self):
        def prog(ctx):
            if ctx.rank == 0:
                ctx.comm.send("peek", dest=1, tag=9)
            else:
                st = ctx.comm.probe(source=0, tag=9)
                assert st.tag == 9
                assert ctx.comm.recv(source=0, tag=9) == "peek"

        launch(2, prog)

    def test_large_message_takes_longer(self):
        times = {}

        def prog_for(size_key, nbytes):
            def prog(ctx):
                if ctx.rank == 0:
                    ctx.comm.send(b"x" * nbytes, dest=1, tag=0)
                else:
                    ctx.comm.recv(source=0, tag=0)
                    times[size_key] = ctx.now

            return prog

        launch(2, prog_for("small", 100))
        launch(2, prog_for("big", 10_000_000))
        assert times["big"] > times["small"]

    def test_rendezvous_blocks_sender(self):
        sender_done = {}

        def prog(ctx):
            if ctx.rank == 0:
                ctx.comm.send(b"x" * 1_000_000, dest=1, tag=0)  # > eager
                sender_done["t"] = ctx.now
            else:
                ctx.comm.recv(source=0, tag=0)

        launch(2, prog)
        net = FAST.network
        assert sender_done["t"] >= net.delivery_time(1_000_000)

    def test_negative_user_tag_rejected(self):
        def prog(ctx):
            if ctx.rank == 0:
                with pytest.raises(SimError):
                    ctx.comm.send("x", dest=1, tag=-3)
                ctx.comm.send("done", dest=1, tag=0)
            else:
                ctx.comm.recv(source=0, tag=0)

        launch(2, prog)

    def test_bad_dest_rejected(self):
        def prog(ctx):
            with pytest.raises(SimError):
                ctx.comm.send("x", dest=99, tag=0)

        launch(1, prog)


class TestCollectives:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    def test_bcast_all_sizes(self, n):
        def prog(ctx):
            data = {"v": 42} if ctx.rank == 0 else None
            out = ctx.comm.bcast(data, root=0)
            assert out == {"v": 42}

        launch(n, prog)

    @pytest.mark.parametrize("root", [0, 1, 3])
    def test_bcast_nonzero_root(self, root):
        def prog(ctx):
            data = "payload" if ctx.rank == root else None
            assert ctx.comm.bcast(data, root=root) == "payload"

        launch(5, prog)

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_gather(self, n):
        def prog(ctx):
            out = ctx.comm.gather(ctx.rank * 10, root=0)
            if ctx.rank == 0:
                assert out == [r * 10 for r in range(ctx.size)]
            else:
                assert out is None

        launch(n, prog)

    def test_gatherv(self):
        def prog(ctx):
            out = ctx.comm.gatherv([ctx.rank] * ctx.rank, root=0)
            if ctx.rank == 0:
                assert out == [[r] * r for r in range(ctx.size)]

        launch(5, prog)

    def test_scatter(self):
        def prog(ctx):
            objs = [f"item{r}" for r in range(ctx.size)] if ctx.rank == 0 else None
            assert ctx.comm.scatter(objs, root=0) == f"item{ctx.rank}"

        launch(6, prog)

    def test_allgather(self):
        def prog(ctx):
            out = ctx.comm.allgather(ctx.rank**2)
            assert out == [r**2 for r in range(ctx.size)]

        launch(5, prog)

    def test_reduce_and_allreduce(self):
        def prog(ctx):
            s = ctx.comm.reduce(ctx.rank + 1, op=operator.add, root=0)
            if ctx.rank == 0:
                assert s == sum(range(1, ctx.size + 1))
            total = ctx.comm.allreduce(ctx.rank + 1, op=operator.add)
            assert total == sum(range(1, ctx.size + 1))

        launch(6, prog)

    def test_alltoall(self):
        def prog(ctx):
            objs = [(ctx.rank, r) for r in range(ctx.size)]
            out = ctx.comm.alltoall(objs)
            assert out == [(r, ctx.rank) for r in range(ctx.size)]

        launch(4, prog)

    def test_barrier_synchronizes(self):
        def prog(ctx):
            ctx.engine.sleep(float(ctx.rank))
            ctx.comm.barrier()
            assert ctx.now >= ctx.size - 1

        launch(5, prog)

    def test_mixed_collectives_in_order(self):
        def prog(ctx):
            a = ctx.comm.bcast(ctx.rank if ctx.rank == 0 else None, root=0)
            b = ctx.comm.gather(a + ctx.rank, root=0)
            ctx.comm.barrier()
            c = ctx.comm.allgather(ctx.rank)
            assert c == list(range(ctx.size))
            if ctx.rank == 0:
                assert b == list(range(ctx.size))

        launch(7, prog)

    def test_collectives_deterministic_makespan(self):
        def prog(ctx):
            ctx.comm.bcast(b"x" * 10000 if ctx.rank == 0 else None, root=0)
            ctx.comm.barrier()

        r1 = launch(8, prog)
        r2 = launch(8, prog)
        assert r1.makespan == r2.makespan > 0


class TestBcastSizing:
    def test_payload_sized_once_at_root(self, monkeypatch):
        # Every non-root rank forwards the size of the message it
        # received instead of re-walking the payload: one sizing call
        # per broadcast, and every message still carries the full size.
        from repro.obs import EV_SEND, Tracer
        from repro.simmpi import comm, network

        payload = ({"q": "ACDEFGHIKL" * 40}, [1, 2.5, None], b"x" * 3000)
        size = network.payload_nbytes(payload)
        calls = []

        def counting(obj):
            calls.append(obj)
            return network.payload_nbytes(obj)

        monkeypatch.setattr(comm, "payload_nbytes", counting)

        def prog(ctx):
            got = ctx.comm.bcast(payload if ctx.rank == 0 else None, root=0)
            assert got == payload

        tracer = Tracer()
        res = run(64, prog, FAST, tracer=tracer)
        assert len(calls) == 1
        assert res.messages_sent == 63
        assert res.bytes_sent == 63 * size
        sends = tracer.by_kind(EV_SEND)
        assert len(sends) == 63
        assert {e.args[2] for e in sends} == {size}
