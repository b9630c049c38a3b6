"""Discrete-event engine with cooperative rank threads.

The engine owns a virtual clock and an event queue.  Simulated processes
(ranks) run on real Python threads, but the engine enforces that *exactly
one* thread is runnable at any instant: a rank runs until it blocks on a
simulated operation (a timed wait, a message receive, a bandwidth
transfer, ...), at which point it pops the next events in ``(time,
sequence)`` order itself and passes the execution baton to the rank the
first wake addresses (or back to the scheduler thread).  Because wake
order is a deterministic function of the event queue, whole simulations
are bit-reproducible.  The baton passes through per-thread gates (locks
used as binary semaphores); since only its holder runs, engine state
needs no lock of its own.

The single blocking primitive is the *parker*:

``park(parker)``
    block the calling rank until the parker is woken; returns the value
    delivered by the waker.  If the parker was already woken (the wake
    event fired while the rank was busy elsewhere), ``park`` returns
    immediately — this is what lets upper layers pre-post receives.

``unpark_at(parker, t, value)``
    schedule the wake of a parker at virtual time ``t``.  Callable from
    any rank thread or from a scheduled action.

``sleep(dt)`` is simply a fresh parker with a self-scheduled wake, and is
how modelled compute time and fixed-latency hops are charged.

Scheduled actions (:meth:`Engine.schedule`: message deliveries, receive
timeouts, bandwidth completions, fault windows) may run on *any* thread —
the scheduler's or whichever rank is parking when the action comes due.
They must not block and must not ask for the current rank: inside an
action there is none, and :meth:`Engine.current_rank` raises
:class:`SimError`.
"""

from __future__ import annotations

import contextlib
import heapq
import os
import threading
import traceback
from collections import deque
from typing import Any, Callable

from repro.obs.events import EV_KILL, EV_WAIT, SCHEDULER_RANK


class SimError(RuntimeError):
    """Raised for misuse of the simulator (deadlock, bad rank, ...)."""


class ProcessFailure(SimError):
    """A rank program raised; carries the original traceback text."""

    def __init__(self, rank: int, exc: BaseException, tb: str):
        super().__init__(f"rank {rank} failed: {exc!r}\n{tb}")
        self.rank = rank
        self.original = exc
        self.tb = tb


class RankKilled(SimError):
    """Injected crash: unwinds a killed rank's program at its next
    simulated operation.  Unlike :class:`ProcessFailure`, a killed rank
    does *not* abort the run — the engine records it in ``dead_ranks``
    and the simulation continues with the survivors (this is the hook
    the fault-injection layer uses; see :mod:`repro.simmpi.faults`)."""

    def __init__(self, rank: int):
        super().__init__(f"rank {rank} was killed by fault injection")
        self.rank = rank


#: Event kinds.  Actions run wherever the event comes due (scheduler or
#: a parking rank); the last three hand a thread the baton, so only the
#: scheduler thread interprets them.
_ACTION = 0  # a scheduled non-blocking closure (``fn``)
_WAKE = 1  # a parker wake stored as data (``parker``, ``value``)
_START = 2  # first activation of the rank thread in ``value``
_KILL = 3  # injected crash of the rank number in ``value``
_HANDOFF = 4  # legacy closure-per-wake (``fn`` may call ``_run_thread``)


class _Event:
    """A queue entry's payload; the queues hold ``(time, seq, event)``
    tuples, so ordering is plain tuple comparison (``seq`` is unique).

    Wake events store ``(parker, value)`` directly instead of a
    closure — the common case by far, and the allocation that used to
    dominate ``unpark_at`` on large runs.
    """

    __slots__ = ("kind", "fn", "parker", "value", "cancelled")

    def __init__(
        self,
        kind: int,
        fn: Callable[[], None] | None = None,
        parker: "Parker | None" = None,
        value: Any = None,
    ) -> None:
        self.kind = kind
        self.fn = fn
        self.parker = parker
        self.value = value
        self.cancelled = False


class _RankThread:
    """Bookkeeping for one simulated process."""

    __slots__ = ("rank", "thread", "gate", "state", "waiting_on", "exc",
                 "killed")

    def __init__(self, rank: int):
        self.rank = rank
        self.thread: threading.Thread | None = None
        #: closed while the rank is parked; whoever hands it the baton
        #: opens it (a lock used as a binary semaphore)
        self.gate = threading.Lock()
        self.gate.acquire()
        # 'new' -> 'running' <-> 'blocked' -> 'done'
        self.state = "new"
        self.waiting_on: "Parker | None" = None
        self.exc: ProcessFailure | None = None
        self.killed = False


class Parker:
    """A one-shot parking slot owned by one rank thread.

    ``label`` is purely diagnostic: it names what the owner is waiting
    for (``recv(src=0, tag=12)``, ``sleep``, ``nfs:transfer`` ...) so
    that deadlock errors can say *what* every parked rank was blocked
    on — essential once fault injection can strand collectives.
    """

    __slots__ = ("owner", "woken", "value", "label")

    def __init__(self, owner: _RankThread, label: str | None = None):
        self.owner = owner
        self.woken = False
        self.value: Any = None
        self.label = label


class Engine:
    """Virtual-clock scheduler for cooperative rank threads.

    ``fast_wakes`` enables the scheduler fast path:

    * wake data stored on the event (no closure per ``unpark_at``);
    * a FIFO ready-queue for events scheduled at the current timestamp
      (no heap traffic);
    * *inline draining* — a rank about to block pops the globally next
      events itself, advancing the clock and running scheduled actions
      in place, until it meets a wake: its own (it never blocks), one a
      parked rank is waiting on (the baton passes straight to that
      rank), or a rank start or kill (the baton goes back to the
      scheduler thread).  This is exact: the rank does what the
      scheduler would do next, and nothing else can run in between;
    * a sleep whose wake would be the globally next event advances the
      clock in place, with no parker and no event.

    ``fast_wakes=False`` keeps the original closure-per-wake scheduler,
    which runs every event on the scheduler thread, as a replay
    reference.
    """

    #: default for engines constructed without an explicit flag
    FAST_WAKES_DEFAULT: bool = True

    #: compact the queue once at least this many cancelled events are
    #: pending *and* they outnumber live ones (see :meth:`cancel`)
    CANCEL_COMPACT_MIN: int = 64

    def __init__(self, fast_wakes: bool | None = None) -> None:
        #: the scheduler thread's gate, opened when the baton comes back
        self._sched_gate = threading.Lock()
        self._sched_gate.acquire()
        self.now: float = 0.0
        #: heap of ``(time, seq, event)``
        self._queue: list[tuple[float, int, _Event]] = []
        #: FIFO of ``(time, seq, event)`` due at the current timestamp
        self._ready: deque[tuple[float, int, _Event]] = deque()
        self._fast = (
            Engine.FAST_WAKES_DEFAULT if fast_wakes is None else fast_wakes
        )
        self._cancelled_pending = 0
        #: the rank thread holding the execution baton, which is also the
        #: current rank; ``None`` while the scheduler thread or a
        #: scheduled action runs (the scheduler loop only advances then)
        self._active: _RankThread | None = None
        self._seq = 0
        self._ranks: list[_RankThread] = []
        self._started = False
        #: rank failures and exceptions raised by actions run inline;
        #: :meth:`run` raises the first
        self._failures: list[BaseException] = []
        #: ranks removed by fault injection (see :meth:`kill_rank`)
        self.dead_ranks: set[int] = set()
        #: optional observer called as ``fn(rank, time)`` when a kill fires
        self.on_rank_killed: Callable[[int, float], None] | None = None
        #: optional :class:`repro.obs.Tracer` — wired by the launcher;
        #: when ``None`` (the default) the hooks are a single comparison
        self.tracer: Any = None
        #: optional :class:`repro.obs.MetricsRegistry` (per-rank wait time)
        self.metrics: Any = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def spawn(self, fn: Callable[[], None], rank: int) -> None:
        """Register ``fn`` as the program for ``rank`` (starts at t=0)."""
        if self._started:
            raise SimError("cannot spawn after run() started")
        rt = _RankThread(rank)

        def body() -> None:
            try:
                fn()
            except RankKilled:
                # Injected crash: the rank simply ceases to exist.  Not a
                # failure of the run — survivors carry on.
                pass
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                rt.exc = ProcessFailure(rank, exc, traceback.format_exc())
            finally:
                rt.state = "done"
                if rt.exc is not None:
                    self._failures.append(rt.exc)
                # A finishing rank always holds the baton; return it to
                # the scheduler.
                self._active = None
                self._sched_gate.release()

        rt.thread = threading.Thread(
            target=body, name=f"simrank-{rank}", daemon=True
        )
        self._ranks.append(rt)

    # ------------------------------------------------------------------
    # event queue
    # ------------------------------------------------------------------
    def schedule(self, t: float, action: Callable[[], None]) -> _Event:
        """Schedule ``action`` to run at virtual time ``t``.

        The action runs on the scheduler thread or inline on whichever
        rank thread is parking when it comes due.  It must not block
        (park, sleep, receive) and must not ask for the current rank:
        inside an action there is none, and :meth:`current_rank` raises
        :class:`SimError`.  An exception it raises aborts :meth:`run`
        with that exception.
        """
        return self._push_event(t, _ACTION, fn=action)

    def _push_event(
        self,
        t: float,
        kind: int,
        fn: Callable[[], None] | None = None,
        parker: "Parker | None" = None,
        value: Any = None,
    ) -> _Event:
        """Enqueue an event at ``t``, routing same-timestamp events to
        the FIFO ready-queue on the fast path."""
        now = self.now
        if t < now - 1e-12:
            raise SimError(f"cannot schedule in the past ({t} < {now})")
        ev = _Event(kind, fn, parker, value)
        if t <= now:
            t = now
            if self._fast:
                # Fires at the current timestamp: seq order alone decides
                # its place, so a FIFO append replaces the heap push.
                self._ready.append((t, self._seq, ev))
                self._seq += 1
                return ev
        heapq.heappush(self._queue, (t, self._seq, ev))
        self._seq += 1
        return ev

    def cancel(self, ev: _Event) -> None:
        """Cancel a scheduled event.

        Cancelled events are skipped when popped; they are *also*
        counted, and once :attr:`CANCEL_COMPACT_MIN` of them are
        pending and they outnumber the live events the queue is
        compacted in place — without this, workloads that schedule and
        cancel timeouts at a high rate (the FT drivers' heartbeats)
        grow the heap without bound.
        """
        if ev.cancelled:
            return
        ev.cancelled = True
        self._cancelled_pending += 1
        q, rdy = self._queue, self._ready
        if (
            self._cancelled_pending > self.CANCEL_COMPACT_MIN
            and self._cancelled_pending * 2 > len(q) + len(rdy)
        ):
            q[:] = [e for e in q if not e[2].cancelled]
            heapq.heapify(q)
            if rdy:
                live = [e for e in rdy if not e[2].cancelled]
                rdy.clear()
                rdy.extend(live)
            self._cancelled_pending = 0

    # -- queue peek ------------------------------------------------------
    def _next_source(self) -> "list | deque | None":
        """Purge cancelled heads; return the queue holding the next event
        (the ready deque or the heap), or ``None`` when both are empty.

        The next event is the smaller of the two heads by ``(time,
        seq)`` — ready events were scheduled at what was then the
        current time, so this merge reproduces the pure-heap order
        exactly.
        """
        q, rdy = self._queue, self._ready
        while q and q[0][2].cancelled:
            heapq.heappop(q)
            if self._cancelled_pending:
                self._cancelled_pending -= 1
        while rdy and rdy[0][2].cancelled:
            rdy.popleft()
            if self._cancelled_pending:
                self._cancelled_pending -= 1
        if rdy:
            return q if q and q[0] < rdy[0] else rdy
        return q if q else None

    def _pop(self, src: "list | deque") -> tuple[float, int, _Event]:
        """Pop the head :meth:`_next_source` returned."""
        return src.popleft() if src is self._ready else heapq.heappop(src)

    def _fire_wake(self, ev: _Event) -> None:
        """(scheduler thread) Deliver a fast-path wake event.

        Semantics match the legacy per-``unpark_at`` closure exactly:
        wakes addressed to killed ranks are dropped, double wakes are an
        error, and the owner is only handed control if it is currently
        parked on this parker (otherwise the value is pre-posted).
        """
        parker = ev.parker
        owner = parker.owner
        if owner.killed:
            return
        if parker.woken:
            raise SimError("parker woken twice")
        parker.woken = True
        parker.value = ev.value
        if owner.waiting_on is parker:
            self._run_thread(owner)

    # ------------------------------------------------------------------
    # blocking primitives (called from rank threads)
    # ------------------------------------------------------------------
    def _me(self) -> _RankThread:
        rt = self._active
        if rt is None:
            raise SimError(
                "no current rank: blocking primitive or current_rank() "
                "called outside a rank program (scheduled actions have "
                "no current rank)"
            )
        return rt

    def make_parker(self, label: str | None = None) -> Parker:
        """Create a parking slot owned by the calling rank thread."""
        return Parker(self._me(), label)

    def park(self, parker: Parker) -> Any:
        """Block on ``parker`` until it is woken; returns the wake value."""
        rt = self._me()
        if parker.owner is not rt:
            raise SimError("cannot park on another thread's parker")
        if rt.killed:
            raise RankKilled(rt.rank)
        # Wait spans start at park entry: the drain below may advance
        # the clock, and the span must cover that virtual time just as
        # it would had the rank been blocked while it passed.
        t0 = self.now
        target: _RankThread | None = None
        if not parker.woken and self._fast:
            target = self._drain_events(rt, parker, t0)
        if not parker.woken:
            rt.waiting_on = parker
            rt.state = "blocked"
            if target is not None:
                # Direct handoff: the drain found the globally next event
                # to be another rank's wake — pass the baton straight to
                # it, skipping the scheduler thread (one OS context
                # switch instead of two).
                self._active = target
                target.state = "running"
                target.gate.release()
            else:
                self._active = None
                self._sched_gate.release()
            # Whoever opens the gate has set ``_active`` to this rank.
            rt.gate.acquire()
            rt.waiting_on = None
            # Virtual time only passes while ranks are parked, so these
            # spans tile a rank's lifetime — the totality the
            # critical-path attribution in repro.obs relies on.
            if self.metrics is not None and self.now > t0:
                self.metrics.inc(rt.rank, "wait_s", self.now - t0)
            if self.tracer is not None:
                self.tracer.span(
                    EV_WAIT, rt.rank, t0, self.now,
                    parker.label or "unlabelled",
                )
        if rt.killed:
            raise RankKilled(rt.rank)
        if not parker.woken:
            raise SimError("spurious wakeup without unpark")
        return parker.value

    def _drain_events(
        self, rt: _RankThread, parker: Parker, t0: float
    ) -> "_RankThread | None":
        """(fast path) Run due events inline on ``rt``'s thread.

        The caller is about to block on ``parker``, so it holds the
        execution baton and the scheduler's next steps are fully
        determined: pop the globally next event — the minimum over
        ``(time, seq)`` — advance the clock to its time, and interpret
        it.  This loop does exactly that, here, on the caller's thread;
        nothing else can execute in between, so the simulation is
        bit-identical to the scheduler doing it.  By event:

        * a scheduled action — run it in place (with no current rank, so
          :meth:`current_rank` raises inside it) and keep draining; if
          it raises, the exception is recorded for :meth:`run` to raise
          and the baton goes back to the scheduler thread;
        * the caller's own ``parker`` — record the wait span and return;
          ``park`` sees ``woken`` and never blocks;
        * a wake some other rank is currently parked on — return that
          rank as the handoff target; ``park`` passes the baton to it
          directly, skipping the scheduler thread;
        * a pre-posted wake (owner not parked on it) or a wake for a
          killed rank — mark/drop it, exactly as the scheduler would,
          and keep draining;
        * a rank start or kill — stop with ``None``, leaving the event
          queued: the baton goes back to the scheduler thread, which
          alone hands threads the baton for those.

        An empty queue also stops the drain with ``None``.  ``t0`` is
        the virtual time at park entry; the wait span and wait-time
        metric recorded when the caller's own wake is consumed use it
        so they match the blocked path exactly.
        """
        while True:
            src = self._next_source()
            if src is None:
                return None
            t, _seq, ev = src[0]
            kind = ev.kind
            if kind > _WAKE:
                return None
            self._pop(src)
            # The globally next event's time bounds every remaining
            # event, so this is the same clock advance run() would do.
            if t > self.now:
                self.now = t
            if kind == _ACTION:
                self._active = None
                try:
                    ev.fn()
                except BaseException as exc:  # noqa: BLE001 - run() raises it
                    self._failures.append(exc)
                    return None
                finally:
                    self._active = rt
                continue
            p = ev.parker
            owner = p.owner
            if owner.killed:
                continue
            if p.woken:
                raise SimError("parker woken twice")
            p.woken = True
            p.value = ev.value
            if p is parker:
                # Exactly what the blocked path would have recorded.
                if self.metrics is not None and self.now > t0:
                    self.metrics.inc(rt.rank, "wait_s", self.now - t0)
                if self.tracer is not None:
                    self.tracer.span(
                        EV_WAIT, rt.rank, t0, self.now,
                        parker.label or "unlabelled",
                    )
                return None
            if owner.waiting_on is p:
                return owner
            # pre-posted: the value is stored, the owner will pick it
            # up when it parks on this parker; keep draining.

    def sleep(self, dt: float) -> None:
        """Advance this rank's virtual time by ``dt`` seconds."""
        if dt < 0:
            raise SimError(f"negative sleep: {dt}")
        self.sleep_until(self.now + dt)

    def sleep_until(self, t: float) -> None:
        """Park this rank until virtual time ``t``."""
        rt = self._me()
        if self._fast and not rt.killed:
            now = self.now
            if t < now - 1e-12:
                raise SimError(f"cannot schedule in the past ({t} < {now})")
            if t < now:
                t = now
            q = self._queue
            self._next_source()  # purge cancelled heads
            if not self._ready and (not q or q[0][0] > t):
                # The wake would be the globally next event: advance the
                # clock in place and record what park() would.
                self.now = t
                if self.metrics is not None and t > now:
                    self.metrics.inc(rt.rank, "wait_s", t - now)
                if self.tracer is not None:
                    self.tracer.span(EV_WAIT, rt.rank, now, t, "sleep")
                return
        p = Parker(rt, "sleep")
        self.unpark_at(p, t)
        self.park(p)

    def unpark_at(self, parker: Parker, t: float, value: Any = None) -> None:
        """Schedule the wake of ``parker`` at virtual time ``t``."""
        if self._fast:
            # Fast path: the wake is data on the event, not a closure;
            # the scheduler loop (or a draining rank) interprets it.
            self._push_event(t, _WAKE, parker=parker, value=value)
            return

        def wake() -> None:
            owner = parker.owner
            if owner.killed:
                # The owner was crashed by fault injection; the wake is
                # addressed to nobody.  Dropping it keeps in-flight
                # deliveries/transfers from waking a corpse.
                return
            if parker.woken:
                raise SimError("parker woken twice")
            parker.woken = True
            parker.value = value
            if owner.waiting_on is parker:
                self._run_thread(owner)
            # else: the value is stored; the owner will pick it up when it
            # parks on this parker (pre-posted receive semantics).

        self._push_event(t, _HANDOFF, fn=wake)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def kill_rank_at(self, rank: int, t: float) -> None:
        """Schedule an injected crash of ``rank`` at virtual time ``t``."""
        self._push_event(t, _KILL, value=rank)

    def kill_rank(self, rank: int) -> None:
        """(scheduler thread) Crash ``rank`` now.

        The rank's thread unwinds with :class:`RankKilled` at its next
        (or current) blocking operation; any wake later addressed to one
        of its parkers is silently dropped.  Killing a finished or
        already-dead rank is a no-op.  Use :meth:`kill_rank_at` to
        schedule a kill: unwinding a parked rank hands it the baton,
        which only the scheduler thread may do.
        """
        rt = next((r for r in self._ranks if r.rank == rank), None)
        if rt is None:
            raise SimError(f"kill_rank: no such rank {rank}")
        if rt.state == "done" or rt.killed:
            return
        rt.killed = True
        self.dead_ranks.add(rank)
        if self.on_rank_killed is not None:
            self.on_rank_killed(rank, self.now)
        if self.tracer is not None:
            self.tracer.instant(
                EV_KILL, SCHEDULER_RANK, self.now, "kill", rank
            )
        if rt.state == "blocked":
            # Wake the thread so park() observes the kill and unwinds.
            self._run_thread(rt)
        # state 'new': the kill takes effect at the rank's first blocking
        # operation after activation; 'running' cannot happen here (kill
        # events stop a draining rank and run on the scheduler thread).

    # ------------------------------------------------------------------
    # scheduler
    # ------------------------------------------------------------------
    def _run_thread(self, rt: _RankThread) -> None:
        """(scheduler thread) Hand the baton to ``rt`` and wait for it.

        On the fast path ranks may relay the baton among themselves
        (see :meth:`park`); the scheduler therefore waits for the baton
        to come back (``_active is None``), not for ``rt`` itself to
        block — by then several other ranks may have run and blocked.
        """
        if rt.state == "done":
            raise SimError(f"waking finished rank {rt.rank}")
        self._active = rt
        rt.state = "running"
        if not rt.thread.is_alive():  # first activation
            rt.thread.start()
        else:
            rt.gate.release()
        # Whoever opens this gate has set ``_active`` to ``None``.
        self._sched_gate.acquire()

    def run(self) -> float:
        """Run the simulation to completion; returns final virtual time."""
        if self._started:
            raise SimError("engine already ran")
        self._started = True
        for rt in self._ranks:
            heapq.heappush(
                self._queue, (0.0, self._seq, _Event(_START, value=rt))
            )
            self._seq += 1
        with _on_one_cpu():
            while True:
                src = self._next_source()
                if src is None:
                    break
                t, _seq, ev = self._pop(src)
                if t < self.now - 1e-9:
                    raise SimError("time went backwards")
                if t > self.now:
                    self.now = t
                kind = ev.kind
                if kind == _WAKE:
                    self._fire_wake(ev)
                elif kind == _START:
                    self._run_thread(ev.value)
                elif kind == _KILL:
                    self.kill_rank(ev.value)
                else:
                    ev.fn()
                if self._failures:
                    raise self._failures[0]
        blocked = [rt.rank for rt in self._ranks if rt.state == "blocked"]
        if blocked:
            raise SimError(self._deadlock_message(blocked))
        return self.now

    def _deadlock_message(self, blocked: list[int]) -> str:
        """Name every parked rank, what it is parked on, and the dead.

        When fault injection crashes a rank mid-collective, the other
        ranks block forever on receives that can never be satisfied; the
        error message must say who is stuck on what (and who died) or
        the hang is undebuggable.
        """
        lines = [
            f"deadlock: ranks {blocked} blocked with empty event queue"
        ]
        for rt in self._ranks:
            if rt.state != "blocked":
                continue
            p = rt.waiting_on
            what = (p.label if p is not None and p.label else
                    "<unlabelled parker>")
            lines.append(f"  rank {rt.rank} parked on {what}")
        if self.dead_ranks:
            lines.append(
                f"  dead ranks (killed by fault injection): "
                f"{sorted(self.dead_ranks)}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def nranks(self) -> int:
        return len(self._ranks)

    def current_rank(self) -> int:
        """The rank of the running program; :class:`SimError` outside one
        (including inside a scheduled action, wherever it runs)."""
        return self._me().rank


@contextlib.contextmanager
def _on_one_cpu():
    """Confine the calling thread to the CPU it is running on, and
    restore its CPU set on exit.  Threads started meanwhile inherit the
    confinement: the rank threads, and any a rank program starts.

    Only the baton holder ever runs, so a simulation has no use for a
    second CPU, while every handoff to a thread parked on another CPU
    costs cross-CPU wakeups (the gate, then the interpreter lock).  On
    one CPU the woken rank simply runs once the handoff blocks.  Where
    the platform cannot report or set the CPU, nothing changes.
    """
    try:
        allowed = os.sched_getaffinity(0)
        with open("/proc/thread-self/stat", "rb") as f:
            # field 39, "processor"; fields resume after the ")" closing
            # the command name at field 3
            cpu = int(f.read().rsplit(b")", 1)[1].split()[36])
        pinned = len(allowed) > 1 and cpu in allowed
        if pinned:
            os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError, ValueError, IndexError):
        pinned = False
    try:
        yield
    finally:
        if pinned:
            os.sched_setaffinity(0, allowed)
