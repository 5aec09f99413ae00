"""Cluster membership: per-node health state driven by heartbeats.

The table is passive — it holds state and deadlines, the router's
per-node loops feed it ``heartbeat``/``miss`` observations.  This is
the PR-5 worker-supervisor idiom lifted to nodes: a node is ``alive``
while STATS heartbeats land, accumulates misses when they time out or
error, and is declared ``dead`` after ``miss_limit`` consecutive
misses (or immediately via ``mark_dead`` when a forward hits a refused
connection).  A dead node that heartbeats again is revived, which is
the ring-heal signal.

No asyncio in here, so every transition is unit-testable with a fake
clock.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

__all__ = ["ALIVE", "DEAD", "MembershipTable", "NodeRecord"]

ALIVE = "alive"
DEAD = "dead"


@dataclass
class NodeRecord:
    """Health state of one shard as seen by the router."""

    node_id: str
    address: tuple[str, int]
    state: str = ALIVE
    last_heartbeat: float | None = None
    misses: int = 0
    last_error: str | None = None
    summary: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready view of this record (the snapshot row)."""
        return {
            "node_id": self.node_id,
            "address": f"{self.address[0]}:{self.address[1]}",
            "state": self.state,
            "last_heartbeat": self.last_heartbeat,
            "misses": self.misses,
            "last_error": self.last_error,
        }


class MembershipTable:
    """Node id -> :class:`NodeRecord` with heartbeat-deadline semantics.

    Parameters
    ----------
    heartbeat_s:
        Expected heartbeat interval; a node whose last heartbeat is
        older than ``heartbeat_s * miss_limit`` has missed its deadline
        (see :meth:`deadline_expired`).
    miss_limit:
        Consecutive misses before a node is declared dead.
    """

    def __init__(
        self,
        *,
        heartbeat_s: float = 0.5,
        miss_limit: int = 3,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be > 0")
        if miss_limit < 1:
            raise ValueError("miss_limit must be >= 1")
        self.heartbeat_s = float(heartbeat_s)
        self.miss_limit = int(miss_limit)
        self.clock = clock
        self._nodes: dict[str, NodeRecord] = {}

    # ------------------------------------------------------------------
    def add(self, node_id: str, address: tuple[str, int]) -> NodeRecord:
        """Register a node, optimistically alive so routing can start
        before the first heartbeat lands."""
        node_id = str(node_id)
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} already registered")
        record = NodeRecord(node_id=node_id, address=(address[0], int(address[1])))
        self._nodes[node_id] = record
        return record

    def get(self, node_id: str) -> NodeRecord:
        """The live record for ``node_id``; KeyError if unregistered."""
        return self._nodes[node_id]

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._nodes

    # ------------------------------------------------------------------
    def heartbeat(
        self,
        node_id: str,
        summary: Mapping | None = None,
        now: float | None = None,
    ) -> bool:
        """Record a successful heartbeat; True when this revived a dead
        node (the caller should re-add it to the ring)."""
        record = self._nodes[node_id]
        record.last_heartbeat = self.clock() if now is None else now
        record.misses = 0
        record.last_error = None
        if summary is not None:
            record.summary = dict(summary)
        if record.state == DEAD:
            record.state = ALIVE
            return True
        record.state = ALIVE
        return False

    def miss(
        self, node_id: str, *, reason: str, now: float | None = None
    ) -> bool:
        """Record a missed heartbeat; True when this crossed the miss
        limit and the node is newly dead."""
        record = self._nodes[node_id]
        record.last_error = reason
        if record.state == DEAD:
            return False
        record.misses += 1
        if record.misses >= self.miss_limit:
            return self.mark_dead(node_id, reason=reason)
        return False

    def mark_dead(self, node_id: str, *, reason: str) -> bool:
        """Declare a node dead outright (e.g. connection refused mid-
        forward); True when it was not already dead."""
        record = self._nodes[node_id]
        record.last_error = reason
        if record.state == DEAD:
            return False
        record.state = DEAD
        return True

    # ------------------------------------------------------------------
    def is_alive(self, node_id: str) -> bool:
        """Whether ``node_id`` is currently in the ALIVE state."""
        return self._nodes[node_id].state == ALIVE

    def deadline_expired(self, node_id: str, now: float | None = None) -> bool:
        """Whether the node's heartbeat deadline has lapsed (never
        heartbeated counts from registration as not expired)."""
        record = self._nodes[node_id]
        if record.last_heartbeat is None:
            return False
        now = self.clock() if now is None else now
        return (now - record.last_heartbeat) > self.heartbeat_s * self.miss_limit

    def alive(self) -> list[str]:
        """Sorted ids of every ALIVE node."""
        return sorted(n for n, r in self._nodes.items() if r.state == ALIVE)

    def dead(self) -> list[str]:
        """Sorted ids of every DEAD node."""
        return sorted(n for n, r in self._nodes.items() if r.state == DEAD)

    def nodes(self) -> list[str]:
        """Sorted ids of every registered node, whatever its state."""
        return sorted(self._nodes)

    def snapshot(self) -> dict[str, dict]:
        """Per-node state/counter rows (the router's STATS section)."""
        return {n: record.as_dict() for n, record in sorted(self._nodes.items())}
