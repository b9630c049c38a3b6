"""The pull-RPC supervision protocol of every fault-tolerant role.

Servers (the flat FT masters, the group sub-master and both hierarchy
coordinators) and clients (the flat FT workers, the group member and
the sub-master's coordinator link) speak it on per-role
``(req, reply, ping)`` tags (:class:`Channel`); FAULTS.md §3 has the
table.  A request ``(rank, seq, kind, data)`` gets ``(seq, body)``
from a per-client reply cache, so it is idempotent under drops.  A
ping carries the sender's rank (heartbeat, or announcement after a
promotion) — or, from a departing sub-master, its successor's rank,
which forces that member's promotion.  Succession is monotone along a
rank-ordered list, hence consensus-free and deterministic.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, NamedTuple, Sequence

from repro.simmpi import ProcContext, Status
from repro.simmpi.comm import ANY_SOURCE, ANY_TAG, TIMEOUT
from repro.simmpi.faults import retry_io


class Channel(NamedTuple):
    """The tag triple of one role."""

    req: int
    reply: int
    ping: int


class Promoted(Exception):
    """Succession reached the calling rank: it must take the role now."""


class Orphaned(Exception):
    """``FTParams.req_max_attempts`` sends of one request went unanswered."""


class FailoverTracker:
    """One rank's view of who serves a role.

    ``succession`` lists the candidates in order and contains the
    owner's rank.  Each ``failover_silence`` of total silence moves the
    believed master to the next candidate; past the last one the owner
    itself is next (a live later master still wins by abdication).
    """

    def __init__(self, ctx: ProcContext, ft: Any,
                 succession: Sequence[int]) -> None:
        self.ctx = ctx
        self.ft = ft
        self.succession = succession
        self._idx = 0
        self.master = succession[0]
        #: True while ``master`` is a silence-advanced candidate that
        #: has not spoken yet.
        self.guessing = False
        self.last_heard = ctx.engine.now

    @property
    def promoted(self) -> bool:
        return self.master == self.ctx.rank

    def heard(self) -> None:
        """The current master just spoke."""
        self.guessing = False
        self.last_heard = self.ctx.engine.now

    def announce(self, sender: int) -> bool:
        """``sender`` claims the role; True when the believed master
        changed.  A real announcer beats a silence-advanced guess;
        between real masters the later candidate wins; ranks outside
        the list are ignored."""
        if sender == self.master:
            self.heard()
            return False
        if sender == self.ctx.rank or sender not in self.succession:
            return False
        pos = self.succession.index(sender)
        if self.guessing or pos > self._idx:
            self.master = sender
            self._idx = pos
            self.heard()
            return True
        return False

    def force_promote(self) -> None:
        """A departing master named this rank its successor."""
        self._idx = self.succession.index(self.ctx.rank)
        self.master = self.ctx.rank
        self.heard()

    def tick(self) -> bool:
        """Call on receive timeouts; True when silence advanced the
        candidate (resend to it, or check :attr:`promoted`)."""
        now = self.ctx.engine.now
        if now - self.last_heard <= self.ft.failover_silence:
            return False
        self.ctx.fault_report.record(
            now, "detect:master-dead", self.master, self.ctx.rank
        )
        nxt = self._idx + 1
        self._idx = (nxt if nxt < len(self.succession)
                     else self.succession.index(self.ctx.rank))
        self.master = self.succession[self._idx]
        self.guessing = True
        self.last_heard = now
        return True


def done_marker_path(cfg: Any) -> str:
    """Where a run's :class:`DoneMarker` lives (``cfg`` is its
    ``ParallelConfig``)."""
    return f"{cfg.checkpoint_dir}/hier.done"


class DoneMarker:
    """A run's completion tombstone on the shared filesystem.

    The serving master writes it once the output is complete
    (:meth:`write`).  Ranks that promote long after the run finished
    (their silence windows outlasted everyone else's exit) check it
    (:meth:`found`) before walking a succession of ranks that can never
    answer, and before a cold restart could clear a complete, confirmed
    output file; a :class:`Client` given its path returns ``("done",
    None)`` once it appears.  The first master clears a stale one left
    by an earlier run over the same store (:meth:`clear`).
    """

    def __init__(self, ctx: ProcContext, cfg: Any) -> None:
        self.ctx = ctx
        self.path = done_marker_path(cfg)
        self.io_attempts = cfg.ft.io_attempts
        self.written = False

    def clear(self) -> None:
        self.ctx.fs.delete(self.path)

    def found(self, *who: Any) -> bool:
        """True when the marker exists; records ``recover:done-marker``
        with ``who``."""
        if not self.ctx.fs.exists(self.path):
            return False
        self.ctx.fault_report.record(
            self.ctx.engine.now, "recover:done-marker", *who
        )
        return True

    def write(self) -> None:
        """Write the marker (the first call only)."""
        if self.written:
            return
        self.written = True
        ctx = self.ctx
        retry_io(
            ctx.engine,
            lambda: ctx.fs.write(self.path, 0, b"done", charge_bytes=0),
            attempts=self.io_attempts, report=ctx.fault_report,
            what=f"write:{self.path}",
        )


_RESEND = object()


class Client:
    """Requests to the master a tracker over ``succession`` believes in.

    :meth:`call` blocks; :meth:`send` / :meth:`resend` / :meth:`accept`
    are the non-blocking steps of a sub-master's coordinator link.
    ``done_marker``: a shared-FS path that, found after a silence
    advance, makes :meth:`call` return ``("done", None)``.  ``side``:
    an extra ``(tag, handler(msg, source))`` served while waiting, whose
    sender counts as an announcement (only a master sends on it).
    """

    def __init__(self, ctx: ProcContext, ft: Any, channel: Channel,
                 succession: Sequence[int], *,
                 done_marker: str | None = None,
                 side: tuple[int, Callable[[Any, int], None]] | None = None,
                 ) -> None:
        self.ctx = ctx
        self.ft = ft
        self.channel = channel
        self.tracker = FailoverTracker(ctx, ft, succession)
        self.done_marker = done_marker
        self.side = side
        self.seq = 0
        #: ``(kind, data)`` of the outstanding non-blocking request.
        self.pending: tuple[str, Any] | None = None
        self.sent = 0.0
        self.attempts = 0

    def _isend(self, kind: str, data: Any) -> None:
        self.ctx.comm.isend((self.ctx.rank, self.seq, kind, data),
                            dest=self.tracker.master, tag=self.channel.req)

    def call(self, kind: str, data: Any = None) -> Any:
        """The reply body; raises :class:`Promoted` or :class:`Orphaned`."""
        self.seq += 1
        for _attempt in range(self.ft.req_max_attempts):
            if self.tracker.promoted:
                raise Promoted
            self._isend(kind, data)
            body = self._await(self.ctx.engine.now)
            if body is not _RESEND:
                return body
        raise Orphaned

    def _await(self, sent: float) -> Any:
        fo, channel = self.tracker, self.channel
        while True:
            # Absolute deadline: pings and peer traffic must not keep
            # extending it, or a request dropped by a not-yet-promoted
            # successor is never re-issued while its pings arrive.
            remaining = self.ft.req_timeout - (self.ctx.engine.now - sent)
            if remaining <= 0:
                return self._timed_out()
            st = Status()
            msg = self.ctx.comm.recv_with_timeout(
                source=ANY_SOURCE, tag=ANY_TAG, timeout=remaining, status=st,
            )
            if msg is TIMEOUT:
                return self._timed_out()
            if st.tag == channel.ping:
                if msg == self.ctx.rank:
                    fo.force_promote()
                    raise Promoted
                if fo.announce(msg):
                    return _RESEND
            elif self.side is not None and st.tag == self.side[0]:
                self.side[1](msg, st.source)
                if fo.announce(st.source):
                    return _RESEND
            elif st.tag == channel.reply:
                # Anything else is a peer's request whose succession
                # already reached us; its retry finds us once promoted.
                rseq, body = msg
                if st.source == fo.master:
                    fo.heard()
                if rseq == self.seq:
                    return body

    def _timed_out(self) -> Any:
        if (self.tracker.tick() and self.done_marker is not None
                and self.ctx.fs.exists(self.done_marker)):
            return ("done", None)
        return _RESEND

    def send(self, kind: str, data: Any) -> None:
        """Issue a new request without waiting."""
        self.seq += 1
        self.pending = (kind, data)
        self.attempts = 1
        self._post()

    def resend(self) -> bool:
        """Re-issue the outstanding request to the believed master;
        False once out of attempts (True with nothing pending)."""
        if self.pending is None:
            return True
        self.attempts += 1
        if self.attempts > self.ft.req_max_attempts:
            return False
        self._post()
        return True

    def _post(self) -> None:
        # The non-blocking steps start the deadline before the send's
        # own overhead, call() after it: both timings are replayed.
        self.sent = self.ctx.engine.now
        self._isend(*self.pending)

    def overdue(self, now: float) -> bool:
        return self.pending is not None and now - self.sent > self.ft.req_timeout

    def accept(self, source: int, msg: Any) -> Any:
        """The body if ``msg`` answers the outstanding request (which
        then completes), else None."""
        if self.pending is None or msg[0] != self.seq:
            return None
        if source == self.tracker.master:
            self.tracker.heard()
        self.pending = None
        return msg[1]

    def cancel(self) -> None:
        self.pending = None


def announce(ctx: ProcContext, tag: int, targets: Iterable[int]) -> None:
    """Ping every target but the caller with the caller's rank."""
    for r in targets:
        if r != ctx.rank:
            ctx.comm.isend(ctx.rank, dest=r, tag=tag)


class Server:
    """A master's end of its channel.

    :meth:`ping` is the heartbeat: :func:`announce` to ``targets``
    (ranks, or a callable returning them) at most once per
    ``master_tick`` unless forced.  :meth:`answer` replies from a
    per-client cache; :meth:`outranked_by` is the abdication rule over
    ``succession``.
    """

    def __init__(self, ctx: ProcContext, ft: Any, channel: Channel,
                 succession: Sequence[int],
                 targets: Iterable[int] | Callable[[], Iterable[int]]) -> None:
        self.ctx = ctx
        self.ft = ft
        self.channel = channel
        self.succession = succession
        self.targets = targets
        self.last_ping = ctx.engine.now - ft.master_tick
        self.replies: dict[int, tuple[int, Any]] = {}

    def poll(self) -> tuple[Any, Status]:
        """The next message, or TIMEOUT after ``master_tick`` of quiet."""
        st = Status()
        msg = self.ctx.comm.recv_with_timeout(
            source=ANY_SOURCE, tag=ANY_TAG, timeout=self.ft.master_tick,
            status=st,
        )
        return msg, st

    def ping(self, force: bool = False) -> None:
        now = self.ctx.engine.now
        if not force and now - self.last_ping < self.ft.master_tick:
            return
        self.last_ping = now
        targets = self.targets() if callable(self.targets) else self.targets
        announce(self.ctx, self.channel.ping, targets)

    def answer(self, msg: tuple,
               handle: Callable[[int, str, Any], Any]) -> None:
        """Reply to request ``msg``; ``handle(rank, kind, data)`` runs
        only for a ``seq`` not answered before."""
        rank, seq, kind, data = msg
        reply = self.replies.get(rank)
        if reply is None or reply[0] != seq:
            reply = self.replies[rank] = (seq, handle(rank, kind, data))
        self.ctx.comm.isend(reply, dest=rank, tag=self.channel.reply)

    def outranked_by(self, sender: int) -> bool:
        """``sender`` comes after this rank in the succession: the fleet
        moved on, so this master abdicates."""
        s, me = self.succession, self.ctx.rank
        return sender in s and me in s and s.index(sender) > s.index(me)


class Liveness:
    """Failure detector over worker ranks or group ids: last-seen
    times plus obligation deadlines.  Peers in neither ``alive`` nor
    ``dead`` (not joined yet, or left) are not watched."""

    def __init__(self, sim, silence: float, alive: Iterable = (),
                 dead: Iterable = ()) -> None:
        self.sim = sim
        self.silence = silence
        self.alive = set(alive)
        self.dead = set(dead)
        self.last_seen = {p: sim.now for p in self.alive}

    def heard(self, peer, now: float | None = None,
              revive: bool = True) -> bool:
        """``peer`` spoke at ``now`` (default: the current time); True
        when it was dead and is alive again."""
        self.last_seen[peer] = self.sim.now if now is None else now
        if not revive or peer not in self.dead:
            return False
        self.dead.discard(peer)
        self.alive.add(peer)
        return True

    def declare_dead(self, peer) -> bool:
        """Alive → dead; False if ``peer`` was not alive."""
        if peer not in self.alive:
            return False
        self.alive.discard(peer)
        self.dead.add(peer)
        return True

    def sweep(self, deadlines: Iterable[tuple[Any, float, str]] = (),
              budget: Callable[[Any], tuple[float, str]] | None = None,
              ) -> list:
        """``(peer, why)`` to declare dead now: each ``(peer, deadline,
        why)`` obligation past due, in order, then each alive peer, in
        order, silent longer than its ``budget(peer) -> (seconds, why)``
        (default: the detector's silence, ``"silent"``).  A peer may
        repeat."""
        now = self.sim.now
        due = [(p, why) for p, deadline, why in deadlines if now > deadline]
        for p in sorted(self.alive):
            limit, why = (self.silence, "silent") if budget is None else budget(p)
            if now - self.last_seen.get(p, now) > limit:
                due.append((p, why))
        return due
