"""Wire load generator, run in a process of its own.

The servers under test stay in the benchmark's process, where the traced
run can wrap their layers; the clients get their own interpreter (and
core), as remote clients would, so client-side Python never competes
with the servers for the interpreter lock.  The benchmark drives the
generator over a socket pair with :class:`LoadGenerator`.

The child is a plain subprocess (``python3 -m perfbench.loadgen FD``),
not a ``multiprocessing`` process: a ``multiprocessing`` spawn also
starts a resource-tracker process that nobody waits for, so it outlives
the benchmark by a moment.  The child exits on ``exit`` or when its end
of the socket pair closes.
"""

from __future__ import annotations

import asyncio
import os
import pathlib
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection

import numpy as np

from perfbench.harness import poisson_schedule, pool_cycle

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Seconds :meth:`LoadGenerator.close` waits for the child to exit
#: before it kills it.
EXIT_TIMEOUT_S = 10.0


@dataclass
class Request:
    """One wire request as the load generator saw it.

    Times are ``time.perf_counter`` readings in the generator process
    (``CLOCK_MONOTONIC``, shared by every process on the host).
    """

    lane: int
    pool_index: int
    request_id: int
    due: float
    sent: float
    done: float | None = None
    result: object = None
    error: str | None = None

    def land(self, future: asyncio.Future) -> None:
        self.done = time.perf_counter()
        if future.cancelled():
            self.error = "cancelled"
        elif future.exception() is not None:
            error = future.exception()
            self.error = getattr(error, "code", None) or type(error).__name__
        else:
            self.result = future.result()


class LoadGenerator:
    """Handle on the generator process: one command at a time, blocking."""

    def __init__(self, pool_x: np.ndarray, seed: int) -> None:
        ours, theirs = socket.socketpair()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT), str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        try:
            self._process = subprocess.Popen(
                [sys.executable, "-m", "perfbench.loadgen", str(theirs.fileno())],
                cwd=ROOT,
                env=env,
                pass_fds=(theirs.fileno(),),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
            )
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        self._conn = Connection(ours.detach())
        try:
            self._conn.send((pool_x, seed))
        except BaseException:
            self.close()
            raise

    def call(self, command: str, *args):
        self._conn.send((command, args))
        status, value = self._conn.recv()
        if status != "ok":
            raise RuntimeError(f"load generator {command!r} failed: {value}")
        return value

    def close(self) -> None:
        """Ask the child to exit, and wait until it has (killing it if
        it does not exit in :data:`EXIT_TIMEOUT_S`)."""
        try:
            if self._process.poll() is None:
                self.call("exit")
        except (OSError, EOFError):
            pass  # the child is gone already; wait() below reaps it
        finally:
            self._conn.close()
            try:
                self._process.wait(timeout=EXIT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()


def _child_main(fd: int) -> None:
    conn = Connection(fd)
    pool_x, seed = conn.recv()
    asyncio.run(_serve(conn, _Session(pool_x, seed)))


async def _serve(conn, session: "_Session") -> None:
    loop = asyncio.get_running_loop()
    try:
        while True:
            command, args = await loop.run_in_executor(None, conn.recv)
            if command == "exit":
                conn.send(("ok", None))
                return
            try:
                conn.send(("ok", await getattr(session, command)(*args)))
            except Exception as error:  # reported to the benchmark, which fails the run
                conn.send(("error", repr(error)))
    finally:
        await session.disconnect()


class _Session:
    """Generator-side state: the connected clients and the pool cycles."""

    def __init__(self, pool_x: np.ndarray, seed: int) -> None:
        self.pool_x = pool_x
        self.seed = seed
        self.clients: list = []
        self.cycles = [pool_cycle(seed, len(pool_x), lane) for lane in range(2)]

    async def connect(self, targets: list[tuple[str, int, str]]) -> None:
        """One connection per ``(host, port, tenant)``, one lane each."""
        from repro.serving import AsyncGatewayClient

        await self.disconnect()
        for host, port, tenant in targets:
            self.clients.append(await AsyncGatewayClient.connect(host, port, tenant=tenant))

    async def disconnect(self) -> None:
        for client in self.clients:
            await client.aclose()
        self.clients = []

    async def warm(self, per_lane: int) -> None:
        """Sequential ``deadline_ms=0`` requests on every lane."""
        for client in self.clients:
            for index in range(per_lane):
                await client.classify(self.pool_x[index % len(self.pool_x)], deadline_ms=0.0)

    async def probes(self, targets: list[tuple[str, int, str]], count: int):
        """``count`` ``deadline_ms=0`` round trips (s) each way, alternating
        between a direct connection per target and the lane of the same
        index, which goes through whatever the session is connected to."""
        from repro.serving import AsyncGatewayClient

        direct = [
            await AsyncGatewayClient.connect(host, port, tenant=tenant)
            for host, port, tenant in targets
        ]
        times: dict[str, list[float]] = {"direct": [], "via": []}
        try:
            for i in range(2 * count):
                lane = (i // 2) % len(direct)
                path = "direct" if i % 2 == 0 else "via"
                client = direct[lane] if path == "direct" else self.clients[lane]
                start = time.perf_counter()
                await client.classify(self.pool_x[i % len(self.pool_x)], deadline_ms=0.0)
                times[path].append(time.perf_counter() - start)
        finally:
            for client in direct:
                await client.aclose()
        return times

    async def open_loop(self, rate_per_s: float, seconds: float) -> list[Request]:
        """Send each scheduled request when due, whatever is outstanding."""
        schedule = poisson_schedule(self.seed, rate_per_s, seconds, len(self.clients))
        records: list[Request] = []
        futures = []
        origin = time.perf_counter() + 0.01
        for offset, lane in schedule:
            due = origin + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            index = next(self.cycles[lane])
            sent = time.perf_counter()
            request_id, future = self.clients[lane].submit_nowait(self.pool_x[index])
            record = Request(lane, index, request_id, due, sent)
            future.add_done_callback(record.land)
            records.append(record)
            futures.append(future)
        await asyncio.wait(futures, timeout=30.0)
        return records

    async def closed_loop(
        self, window: int, seconds: float | None = None, per_lane: int | None = None
    ) -> tuple[float, list[Request]]:
        """Keep ``window`` requests in flight per lane.

        A completion sends the next request while fewer than ``seconds``
        have passed (or until ``per_lane`` requests went out on that
        lane); returns ``(start, records)`` once everything sent is back.
        """
        loop = asyncio.get_running_loop()
        finished = loop.create_future()
        records: list[Request] = []
        outstanding = [0] * len(self.clients)
        sent = [0] * len(self.clients)
        start = time.perf_counter()

        def more(lane: int) -> bool:
            if seconds is not None:
                return time.perf_counter() - start < seconds
            return sent[lane] < per_lane

        def send(lane: int) -> None:
            index = next(self.cycles[lane])
            now = time.perf_counter()
            request_id, future = self.clients[lane].submit_nowait(self.pool_x[index])
            record = Request(lane, index, request_id, now, now)
            records.append(record)
            outstanding[lane] += 1
            sent[lane] += 1
            future.add_done_callback(lambda f, r=record, lane=lane: on_done(f, r, lane))

        def on_done(future: asyncio.Future, record: Request, lane: int) -> None:
            record.land(future)
            outstanding[lane] -= 1
            if record.error is None and more(lane):
                send(lane)
            elif not any(outstanding) and not finished.done():
                finished.set_result(None)

        for lane in range(len(self.clients)):
            for _ in range(window):
                send(lane)
        await finished
        return start, records


if __name__ == "__main__":
    # Run the imported module's copy, so the records the child pickles
    # name ``perfbench.loadgen.Request``, not ``__main__.Request``.
    from perfbench.loadgen import _child_main as main

    main(int(sys.argv[1]))
