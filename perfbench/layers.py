"""Park-aware host-time accounting by layer, measured from outside.

The traced run wraps public entry points of each ``repro`` layer and
charges every wrapped call its *self time*: its wall duration, minus the
time its own thread spent inside ``Engine.park``, minus the wall time of
wrapped calls nested in it on the same thread.  Subtracting parks is
what makes the split honest under the simulator: rank programs run on
threads that pass one execution baton around, so while one rank is
parked in a ``recv`` the other ranks run, and a plain wall interval of
that ``recv`` would swallow their work.

Since only the baton holder executes, self times of different threads
never overlap, so ``sum(self times) + residual == traced host time``
holds with a non-negative residual (driver logic, the scheduler thread
and the OS context switches of baton handoffs).

Nothing under ``src/`` changes: :meth:`LayerClock.install` rebinds the
entry points on their classes and under the module names their callers
use, and :meth:`LayerClock.uninstall` restores them.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict

#: Layers whose self time is reported; ``park`` is timed only so the
#: enclosing call can subtract it.
PARK = "simmpi.park"


class _Frame:
    __slots__ = ("excl",)

    def __init__(self) -> None:
        self.excl = 0.0


class LayerClock:
    """Self-time and call counters per layer for one traced run."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        #: layer-specific work counters (pairs, bytes, stage deltas ...)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._tls = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- accounting ------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def wrap(self, layer: str, fn, after=None):
        """Return ``fn`` wrapped to charge ``layer``.

        ``after(args, kwargs, result, before)`` updates :attr:`counts`;
        ``before`` is what ``after.before(args, kwargs)`` returned, when
        ``after`` has such an attribute (used for ``stage_times``
        deltas).
        """
        pre = getattr(after, "before", None)
        clock = time.perf_counter
        self_s, calls, stack_of = self.self_s, self.calls, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            frame = _Frame()
            snap = pre(args, kwargs) if pre is not None else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1].excl += dt
                if layer != PARK:
                    self_s[layer] += dt - frame.excl
                calls[layer] += 1
            if after is not None:
                after(args, kwargs, result, snap)
            return result

        return wrapper

    def self_total(self) -> float:
        return sum(self.self_s.values())

    # -- patching --------------------------------------------------------
    def _set(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def patch_method(self, cls, name: str, layer: str, after=None) -> None:
        """Wrap ``cls.name`` (only where ``cls`` itself defines it)."""
        if name in cls.__dict__:
            self._set(cls, name, self.wrap(layer, cls.__dict__[name], after))

    def patch_callers(self, fn, layer: str) -> None:
        """Wrap ``fn`` under every name a ``repro`` module imported it as
        (the defining module keeps the original)."""
        wrapped = self.wrap(layer, fn)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if not modname.startswith("repro") or modname == fn.__module__:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def install(self) -> "LayerClock":
        """Wrap every layer's entry points (listed in README.md)."""
        _import_layers()
        from repro.blast.engine import BlastSearch
        from repro.blast.output import ReportWriter
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracer import Tracer
        from repro.parallel import results, warmdb
        from repro.simmpi import comm, filesystem, iofile, network, resource
        from repro.simmpi.engine import Engine

        self.patch_method(BlastSearch, "__init__", "blast.setup")
        self.patch_method(BlastSearch, "search_fragment", "blast.search",
                          _SearchCounts(self.counts))
        for name in _REPORT_METHODS:
            self.patch_method(ReportWriter, name, "blast.report",
                              _bytes_into(self.counts, "report_bytes"))
        self._set(comm, "payload_nbytes",
                  self.wrap("simmpi.sizing", network.payload_nbytes))
        for name in _COMM_METHODS:
            self.patch_method(comm.Communicator, name, "simmpi.comm")
        self.patch_method(comm.Request, "wait", "simmpi.comm")
        for cls in (filesystem.FilesystemModel, filesystem.ParallelFS,
                    filesystem.NFSFilesystem, filesystem.LocalDisk):
            for name in _FS_DATA_METHODS:
                self.patch_method(cls, name, "simmpi.fs",
                                  _FsCounts(self.counts, name))
            for name in _FS_OTHER_METHODS:
                self.patch_method(cls, name, "simmpi.fs")
        for name in _MPIFILE_METHODS:
            self.patch_method(iofile.MPIFile, name, "simmpi.fs")
        self.patch_method(resource.SharedBandwidth, "transfer", "simmpi.fs")
        self.patch_method(Engine, "park", PARK)
        for fn in (results.select_metas, results.merge_select,
                   results.dedupe_candidates):
            self.patch_callers(fn, "parallel.merge")
        self.patch_callers(warmdb.partition_database, "parallel.partition")
        for name in ("inc", "set_gauge", "observe"):
            self.patch_method(MetricsRegistry, name, "obs.metrics")
        for name in ("span", "instant"):
            self.patch_method(Tracer, name, "obs.tracer")
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def __enter__(self) -> "LayerClock":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


_REPORT_METHODS = ("preamble", "query_header", "alignment_block",
                   "query_footer")
_COMM_METHODS = ("send", "isend", "recv", "recv_with_timeout", "irecv",
                 "probe", "bcast", "gather", "gatherv", "scatter",
                 "allgather", "reduce", "allreduce", "alltoall", "barrier")
_FS_DATA_METHODS = ("read", "write", "append", "rename")
_FS_OTHER_METHODS = ("write_atomic", "read_atomic", "exists", "size",
                     "listdir", "delete")
_MPIFILE_METHODS = ("read_at", "write_at", "read_at_reliable",
                    "write_at_reliable", "write_at_all", "read_at_all")


def _import_layers() -> None:
    """Load every module whose imported names get rebound."""
    import repro.hier  # noqa: F401
    import repro.hier.elastic  # noqa: F401
    import repro.parallel  # noqa: F401
    import repro.service  # noqa: F401


class _SearchCounts:
    """Per-call work of ``BlastSearch.search_fragment``: pairs, pairs
    with at least one alignment, ``stage_times`` deltas and gapped-DP
    counters (when the caller passes ``stats``)."""

    STAGES = ("scan", "ungapped", "gapped", "render")

    def __init__(self, counts) -> None:
        self.counts = counts

    def before(self, args, kwargs):
        engine, stats = args[0], kwargs.get("stats")
        gapped = None
        if stats is not None:
            gapped = (stats.gapped_extensions, stats.gapped_dedup)
        return dict(engine.stage_times), gapped

    def __call__(self, args, kwargs, result, snap) -> None:
        stages0, gapped0 = snap
        c = self.counts
        c["pairs"] += len(result)
        c["pair_hits"] += sum(1 for als in result if als)
        engine = args[0]
        for k in self.STAGES:
            c[f"{k}_s"] += engine.stage_times.get(k, 0.0) - stages0.get(k, 0.0)
        stats = kwargs.get("stats")
        if stats is not None:
            c["gapped_extensions"] += stats.gapped_extensions - gapped0[0]
            c["gapped_dedup"] += stats.gapped_dedup - gapped0[1]


def _bytes_into(counts, key: str):
    def after(args, kwargs, result, _snap) -> None:
        counts[key] += len(result)

    return after


class _FsCounts:
    """Timed filesystem-model operations and the bytes they moved."""

    def __init__(self, counts, op: str) -> None:
        self.counts, self.op = counts, op

    def __call__(self, args, kwargs, result, _snap) -> None:
        c = self.counts
        c["fs_ops"] += 1
        if self.op == "read":
            c["fs_bytes"] += len(result)
        elif self.op in ("write", "append"):
            pos = 3 if self.op == "write" else 2
            data = kwargs["data"] if "data" in kwargs else args[pos]
            c["fs_bytes"] += len(data)
