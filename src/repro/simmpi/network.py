"""Interconnect timing model.

Message cost follows the classic postal/LogP-flavoured model used by MPI
performance analysis:

- the sender is busy for ``overhead`` seconds per message (software stack),
- the payload arrives ``latency + nbytes / bandwidth`` seconds after
  injection,
- messages larger than ``eager_threshold`` use a rendezvous protocol: the
  sender stays busy until the payload has fully drained (this is what MPI
  implementations do to avoid unbounded buffering, and it is what makes a
  master that serially pulls large results a genuine bottleneck).

Payload sizes are measured with :func:`payload_nbytes`, which understands
bytes, strings, NumPy arrays, containers, and any object exposing a
``payload_nbytes()`` method; an explicit size always wins.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np


def payload_nbytes(obj: object) -> int:
    """Best-effort wire size of ``obj`` in bytes (deterministic)."""
    # Exact-type fast path for the small control messages that dominate
    # message counts (work polls, replies, heartbeats).  None of these
    # types has a ``payload_nbytes`` method, so each answer is the one
    # the generic walk below gives.
    t = type(obj)
    if t is int or t is float:
        return 8
    if t is bytes:
        return len(obj)
    if t is str:
        return len(obj) if obj.isascii() else len(
            obj.encode("utf-8", "surrogateescape"))
    if t is tuple:
        return 16 + sum(map(payload_nbytes, obj))
    if obj is None:
        return 0
    if t is bool:
        return 1
    meth = getattr(obj, "payload_nbytes", None)
    if callable(meth):
        return int(meth())
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", "surrogateescape"))
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        return 8
    if isinstance(obj, float):
        return 8
    if isinstance(obj, (tuple, list, set, frozenset)):
        return 16 + sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return 16 + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items()
        )
    # dataclasses and similar plain records
    d = getattr(obj, "__dict__", None)
    if d is not None:
        return 16 + sum(payload_nbytes(v) for v in d.values())
    slots = getattr(type(obj), "__slots__", None)
    if slots is not None:
        return 16 + sum(payload_nbytes(getattr(obj, s)) for s in slots)
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth parameters for an interconnect.

    Attributes
    ----------
    latency:
        One-way wire latency in seconds.
    bandwidth:
        Point-to-point bandwidth in bytes/second.
    overhead:
        Per-message CPU time charged to the sender (and to the receiver
        on message pickup) in seconds.
    eager_threshold:
        Messages above this size use a rendezvous protocol.
    """

    latency: float = 5e-6
    bandwidth: float = 500e6
    overhead: float = 1e-6
    eager_threshold: int = 64 * 1024

    def delivery_time(self, nbytes: int, slowdown: float = 1.0) -> float:
        """Time from injection to full arrival of an ``nbytes`` message.

        ``slowdown`` models transient congestion (fault-injection
        windows): both the wire latency and the effective bandwidth are
        degraded by the factor, so a 2× slowdown doubles the delivery
        time of every message injected during the window.
        """
        if slowdown < 1.0:
            raise ValueError(f"network slowdown must be >= 1, got {slowdown}")
        return (self.latency + nbytes / self.bandwidth) * slowdown

    def is_eager(self, nbytes: int) -> bool:
        return nbytes <= self.eager_threshold
