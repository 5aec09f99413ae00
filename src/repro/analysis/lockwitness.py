"""Dynamic lock-order witness: lockdep for the serving stack.

Static rules (RC001–RC006) catch what a lock-held body *does*; they
cannot see the *order* two threads take two locks in.  The serving
deadlock it was built for — the pool supervisor holding the pool lock
while it took the model registry's arena lock, and an API thread
taking them the other way round — is gone by design now that the pool
alone refcounts its weight bundles, but any such inversion only
manifests under exactly the wrong interleaving, which chaos runs may
never hit.  The witness makes the *ordering* itself the observable: every
instrumented acquisition records "held H, then took N" edges into a
global directed graph, keyed by the locks' creation sites, and a cycle
in that graph is a potential deadlock even if this run never blocked.

Opt-in and zero-cost when off:

* ``REPRO_LOCK_WITNESS=1`` in the environment (checked by the fault
  tests/benches) turns it on; ``install()``/handle ``uninstall()`` do
  the patching explicitly.
* ``install()`` replaces ``threading.Lock``/``threading.RLock`` with
  witness factories, so locks created *after* install are observed;
  locks created before (pytest internals, module globals) are not —
  which is exactly the scope the fault tests want.
* Locks are named by creation site (``file.py:lineno``), so all
  instances from one site form one node — ordering is a property of
  lock *classes*, as in kernel lockdep.  Same-site edges (A@1 → A@1,
  e.g. per-ticket locks taken pairwise) are ignored rather than
  reported as self-deadlocks.

``WitnessRLock`` forwards ``_is_owned``/``_release_save``/
``_acquire_restore`` so ``threading.Condition`` (Future, Event-free
wait paths) keeps working over a witnessed lock.
"""

from __future__ import annotations

import _thread
import os
import sys
import threading
from dataclasses import dataclass, field

ENV_VAR = "REPRO_LOCK_WITNESS"


def enabled() -> bool:
    """True when the opt-in env var asks for witnessing."""
    return os.environ.get(ENV_VAR, "").strip().lower() not in {"", "0", "false", "no"}


class LockOrderViolation(RuntimeError):
    """Raised (in raise mode) when an acquisition closes an order cycle."""


@dataclass
class CycleReport:
    """One detected ordering cycle: names form a closed walk."""

    names: list[str]
    thread: str

    def render(self) -> str:
        chain = " -> ".join(self.names + [self.names[0]])
        return f"lock-order cycle (thread {self.thread}): {chain}"


@dataclass
class LockGraph:
    """Global acquired-while-held graph shared by every witnessed lock."""

    raise_on_cycle: bool = False
    edges: dict[str, set[str]] = field(default_factory=dict)
    cycles: list[CycleReport] = field(default_factory=list)
    locks_created: int = 0
    acquisitions: int = 0

    def __post_init__(self) -> None:
        # A raw C lock, deliberately not a threading.Lock: the graph's own
        # mutex must never itself be witnessed.
        self._mutex = _thread.allocate_lock()

    def record_acquire(self, held: list[str], name: str) -> None:
        """Record held->name edges; detect cycles the new edges close."""
        reports: list[CycleReport] = []
        with self._mutex:
            self.acquisitions += 1
            for held_name in held:
                if held_name == name:
                    continue  # same creation site: lock class, not instance
                peers = self.edges.setdefault(held_name, set())
                if name in peers:
                    continue
                peers.add(name)
                path = self._path(name, held_name)
                if path is not None:
                    reports.append(
                        CycleReport(
                            names=[held_name] + path[:-1],
                            thread=threading.current_thread().name,
                        )
                    )
            self.cycles.extend(reports)
        if reports and self.raise_on_cycle:
            raise LockOrderViolation(reports[0].render())

    def _path(self, start: str, goal: str) -> list[str] | None:
        """DFS path start ⤳ goal through edges, or None. Caller holds
        the mutex."""
        stack = [(start, [start])]
        visited = {start}
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            for peer in self.edges.get(node, ()):
                if peer not in visited:
                    visited.add(peer)
                    stack.append((peer, path + [peer]))
        return None

    def assert_clean(self) -> None:
        if self.cycles:
            rendered = "\n".join(report.render() for report in self.cycles)
            raise AssertionError(
                f"lock-order witness recorded {len(self.cycles)} cycle(s):\n"
                f"{rendered}"
            )

    def summary(self) -> dict:
        with self._mutex:
            return {
                "locks_created": self.locks_created,
                "acquisitions": self.acquisitions,
                "edges": sum(len(peers) for peers in self.edges.values()),
                "cycles": [report.render() for report in self.cycles],
            }


_LOCAL = threading.local()


def _held_stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def _creation_site() -> str:
    """file.py:lineno of the first caller frame outside this module and
    the threading machinery — the lock's identity in the graph."""
    frame = sys._getframe(2)
    skip = (__file__, threading.__file__)
    while frame is not None and frame.f_code.co_filename in skip:
        frame = frame.f_back
    if frame is None:
        return "<unknown>"
    filename = os.path.basename(frame.f_code.co_filename)
    return f"{filename}:{frame.f_lineno}"


class _WitnessBase:
    """Shared acquire/release bookkeeping over a real inner lock."""

    def __init__(self, inner, name: str, graph: LockGraph) -> None:
        self._inner = inner
        self.name = name
        self.graph = graph
        with graph._mutex:
            graph.locks_created += 1

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        stack = _held_stack()
        if all(entry is not self for entry in stack):
            # Record *before* blocking: a real deadlock still leaves the
            # edge (and the cycle report) behind for the post-mortem.
            held, seen = [], set()
            for entry in stack:
                if id(entry) not in seen:
                    seen.add(id(entry))
                    held.append(entry.name)
            self.graph.record_acquire(held, self.name)
        got = self._inner.acquire(blocking, timeout)
        if got:
            stack.append(self)
        return got

    def release(self) -> None:
        self._inner.release()
        stack = _held_stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is self:
                del stack[index]
                break

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def locked(self) -> bool:
        probe = getattr(self._inner, "locked", None)
        return probe() if probe is not None else False

    def __getattr__(self, attr: str):
        # Stdlib internals poke version-specific private lock API
        # (e.g. multiprocessing's resource tracker calls
        # `_recursion_count()` on 3.11+); delegate anything we don't
        # witness explicitly straight to the real lock.
        return getattr(self._inner, attr)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} over {self._inner!r}>"


class WitnessLock(_WitnessBase):
    """Witnessed non-reentrant lock (wraps ``threading.Lock``)."""


class WitnessRLock(_WitnessBase):
    """Witnessed ``threading.RLock`` — forwards the private hooks
    ``threading.Condition`` needs to wait on a reentrant lock."""

    def _is_owned(self) -> bool:
        return self._inner._is_owned()

    def _release_save(self):
        # Condition.wait releases every recursion level at once; remember
        # how many stack entries that drops so restore can repush them.
        stack = _held_stack()
        depth = sum(1 for entry in stack if entry is self)
        stack[:] = [entry for entry in stack if entry is not self]
        return (self._inner._release_save(), depth)

    def _acquire_restore(self, state) -> None:
        inner_state, depth = state
        self._inner._acquire_restore(inner_state)
        _held_stack().extend([self] * depth)


@dataclass
class WitnessHandle:
    """Returned by install(); undoes the patch and reports."""

    graph: LockGraph
    _saved_lock: object
    _saved_rlock: object
    _installed: bool = True

    def uninstall(self) -> None:
        if self._installed:
            threading.Lock = self._saved_lock  # type: ignore[misc]
            threading.RLock = self._saved_rlock  # type: ignore[misc]
            self._installed = False

    def assert_clean(self) -> None:
        self.graph.assert_clean()

    def summary(self) -> dict:
        return self.graph.summary()


def install(*, raise_on_cycle: bool = False, graph: LockGraph | None = None) -> WitnessHandle:
    """Patch ``threading.Lock``/``RLock`` with witness factories.

    Locks created while installed are observed; pre-existing locks are
    not.  Always pair with ``handle.uninstall()`` (the fault-test
    fixture does this in a ``finally``).
    """
    active_graph = graph if graph is not None else LockGraph(raise_on_cycle=raise_on_cycle)
    saved_lock, saved_rlock = threading.Lock, threading.RLock

    def make_lock() -> WitnessLock:
        return WitnessLock(saved_lock(), _creation_site(), active_graph)

    def make_rlock() -> WitnessRLock:
        return WitnessRLock(saved_rlock(), _creation_site(), active_graph)

    threading.Lock = make_lock  # type: ignore[misc]
    threading.RLock = make_rlock  # type: ignore[misc]
    return WitnessHandle(
        graph=active_graph, _saved_lock=saved_lock, _saved_rlock=saved_rlock
    )


def install_if_enabled(**kwargs) -> WitnessHandle | None:
    """install() when ``REPRO_LOCK_WITNESS`` opts in, else None."""
    return install(**kwargs) if enabled() else None
