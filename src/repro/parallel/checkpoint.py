"""Crash-consistent master checkpoint/restart.

A master holds the assignment state, the received result metadata and
the output layout, all in memory.  :class:`CheckpointStore` makes that
state survive the master: the master periodically pickles it and
writes it to the *simulated shared filesystem* with the
crash-consistent primitive
(:meth:`repro.simmpi.filesystem.FilesystemModel.write_atomic`:
write-temp → checksum → atomic rename).  Snapshots are numbered and
the last few are kept, so a reader can fall back past a snapshot that
a torn-write or bit-flip fault corrupted — every restore validates the
CRC-32 frame and records ``detect:checkpoint-corrupt`` for damaged
replicas.

Who takes over is decided by the succession rules of
:mod:`repro.parallel.supervise`.  The recovered run's output is
byte-identical to the fault-free run: the promoted master restores the
newest valid checkpoint, re-runs the death sweep to rebuild liveness,
re-searches only the fragments the checkpoint had not captured, and
rewrites the output file from scratch (relayout-per-round already
guarantees no stale bytes survive).
"""

from __future__ import annotations

import pickle
from typing import Any, Callable

from repro.simmpi.faults import retry_io
from repro.simmpi.filesystem import CorruptFileError
from repro.simmpi.launcher import ProcContext

CKPT_SUFFIX = ".ckpt"

#: Fixed pickle protocol so the same run replays bit-for-bit regardless
#: of the host interpreter's default.
_PICKLE_PROTOCOL = 4


class CheckpointStore:
    """Numbered, checksummed scheduler-state snapshots on the shared fs.

    ``interval <= 0`` disables periodic saves (``maybe_save`` becomes a
    no-op) but :meth:`load_latest` still works — a promoted master always
    looks for checkpoints, it just finds none.
    """

    def __init__(
        self,
        ctx: ProcContext,
        directory: str,
        *,
        interval: float,
        io_attempts: int = 6,
        keep: int = 2,
    ) -> None:
        self.ctx = ctx
        self.fs = ctx.fs
        self.engine = ctx.engine
        self.report = ctx.fault_report
        self.tracer = ctx.cluster.tracer
        self.dir = directory.rstrip("/")
        self.interval = interval
        self.io_attempts = io_attempts
        self.keep = max(2, keep)
        self._last_save = ctx.engine.now
        existing = self._existing()
        self._next_id = (
            self._seq_of(existing[-1]) + 1 if existing else 0
        )

    # ------------------------------------------------------------------
    def _existing(self) -> list[str]:
        """Snapshot paths, oldest first (temp files excluded)."""
        return [
            p
            for p in self.fs.listdir(f"{self.dir}/")
            if p.endswith(CKPT_SUFFIX)
        ]

    @staticmethod
    def _seq_of(path: str) -> int:
        stem = path.rsplit("/", 1)[-1]
        return int(stem[len("ckpt-") : -len(CKPT_SUFFIX)])

    def _path(self, seq: int) -> str:
        return f"{self.dir}/ckpt-{seq:06d}{CKPT_SUFFIX}"

    @property
    def enabled(self) -> bool:
        return self.interval > 0

    # ------------------------------------------------------------------
    def maybe_save(self, make_state: Callable[[], Any]) -> bool:
        """Save iff the checkpoint interval has elapsed."""
        if not self.enabled:
            return False
        if self.engine.now - self._last_save < self.interval:
            return False
        self.save(make_state())
        return True

    def save(self, state: Any) -> str:
        """Crash-consistently persist one snapshot; returns its path."""
        t0 = self.engine.now
        path = self._path(self._next_id)
        payload = pickle.dumps(state, protocol=_PICKLE_PROTOCOL)
        retry_io(
            self.engine,
            lambda: self.fs.write_atomic(path, payload),
            attempts=self.io_attempts,
            report=self.report,
            what=f"write:{path}",
        )
        self._next_id += 1
        self._last_save = self.engine.now
        self.report.record(
            self.engine.now, "ckpt:save", path, len(payload)
        )
        if self.tracer is not None:
            from repro.obs.events import EV_CKPT

            self.tracer.span(
                EV_CKPT, self.ctx.rank, t0, self.engine.now,
                "save", path, len(payload),
            )
        for old in self._existing()[: -self.keep]:
            self.fs.delete(old)
        return path

    def load_latest(self) -> Any | None:
        """Newest snapshot that passes validation, or None.

        Corrupt snapshots (torn writes, bit flips — anything the CRC-32
        frame catches) are recorded as ``detect:checkpoint-corrupt`` and
        skipped in favour of the next-older replica.
        """
        for path in reversed(self._existing()):
            t0 = self.engine.now
            try:
                payload = retry_io(
                    self.engine,
                    lambda path=path: self.fs.read_atomic(path),
                    attempts=self.io_attempts,
                    report=self.report,
                    what=f"read:{path}",
                )
            except CorruptFileError:
                self.report.record(
                    self.engine.now, "detect:checkpoint-corrupt", path
                )
                continue
            state = pickle.loads(payload)
            self.report.record(
                self.engine.now, "recover:restore-checkpoint", path,
                len(payload),
            )
            if self.tracer is not None:
                from repro.obs.events import EV_CKPT

                self.tracer.span(
                    EV_CKPT, self.ctx.rank, t0, self.engine.now,
                    "restore", path, len(payload),
                )
            return state
        return None
