"""Phase accounting on the virtual clock.

The paper reports time decomposed into phases (copy/input, search,
merge/output, other — Table 1 and every figure).  A
:class:`PhaseRecorder` accumulates virtual seconds per named phase per
rank via a context manager; the launcher aggregates these into the run
result the experiment harnesses consume.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any

from repro.obs.events import EV_PHASE
from repro.simmpi.engine import Engine


class PhaseRecorder:
    """Per-rank accumulation of virtual time by phase name."""

    def __init__(self, engine: Engine, nranks: int):
        self.engine = engine
        self.nranks = nranks
        self._acc: list[dict[str, float]] = [dict() for _ in range(nranks)]
        self._stack: list[list[str]] = [[] for _ in range(nranks)]
        #: optional :class:`repro.obs.Tracer`; phase exits emit ``phase``
        #: spans.
        self.tracer: Any = None

    @contextmanager
    def phase(self, name: str):
        """Attribute virtual time spent inside the block to ``name``.

        Nested phases attribute time to the innermost phase only, so the
        per-rank phase totals always sum to (at most) the rank's busy
        time — the same accounting the paper's tables use.
        """
        rank = self.engine.current_rank()
        start = self.engine.now
        stack = self._stack[rank]
        stack.append(name)
        try:
            yield
        finally:
            stack.pop()
            end = self.engine.now
            acc = self._acc[rank]
            acc[name] = acc.get(name, 0.0) + (end - start)
            if stack:
                # Avoid double counting: subtract from the enclosing phase
                # by pre-crediting it (it will add the full span later).
                outer = stack[-1]
                acc[outer] = acc.get(outer, 0.0) - (end - start)
            if self.tracer is not None:
                self.tracer.span(EV_PHASE, rank, start, end, name)

    def seconds(self, rank: int, phase: str) -> float:
        return self._acc[rank].get(phase, 0.0)

    def rank_phases(self, rank: int) -> dict[str, float]:
        return dict(self._acc[rank])
