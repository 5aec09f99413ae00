"""Measurement plumbing shared by the workloads.

* :class:`SpanRecorder` — the traced run's in-memory span log and the
  wrappers that record it.  Wrappers are installed *where the callable
  is looked up* (``MultiScaleSetAbstraction`` calls
  ``farthest_point_sampling`` through ``repro.nn.setabstraction``, so
  that is the name patched) and removed again on :meth:`uninstall`.
* :func:`self_times` — a span's duration minus the part of its interval
  covered by its children.
* :class:`HostProbe` — a fixed kernel timed to track the host's speed.
* :func:`poisson_schedule` / :func:`pool_cycle` — seeded inputs.
* :func:`result_mismatch` — the byte-identity output check.
* :func:`provenance` — host and source identity for every result.
"""

from __future__ import annotations

import asyncio
import importlib
import itertools
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from benchmarks.common import percentile
from repro.metrics.classification import accuracy


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    size: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


#: ``(owner, attribute, span name, size of the call or None)``.  ``owner``
#: is ``module`` or ``module:Class``; patching a class attribute reaches
#: every instance, patching a module attribute reaches every caller that
#: looks the name up through that module.
TRACE_POINTS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.nn.setabstraction", "farthest_point_sampling", "nn.fps", None),
    ("repro.nn.setabstraction", "ball_query", "nn.ball_query", None),
    ("repro.nn.setabstraction", "group_points", "nn.group_points", None),
    ("repro.nn.conv:SharedMLP", "forward", "nn.shared_mlp", None),
    ("repro.nn.setabstraction:MultiScaleSetAbstraction", "forward", "nn.sa", None),
    ("repro.nn.setabstraction:GlobalFeatureExtractor", "forward", "nn.global", None),
    ("repro.core.gesidnet:GesIDNet", "forward", "core.gesidnet", None),
    (
        "repro.core.pipeline:GesturePrint",
        "predict",
        "core.predict",
        lambda args, kwargs: len(args[1]),
    ),
    (
        "repro.preprocessing.segmentation:GestureSegmenter",
        "push",
        "preprocessing.segmenter_push",
        None,
    ),
    ("repro.core.realtime", "keep_main_cluster", "preprocessing.keep_main_cluster", None),
    ("repro.core.realtime", "normalize_cloud", "preprocessing.normalize", None),
    ("repro.serving.hub:StreamHub", "push_round", "hub.push_round", None),
    ("repro.serving.engine:InferenceEngine", "flush", "engine.flush", None),
    ("repro.serving.engine:InferenceEngine", "poll", "engine.flush", None),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class SpanRecorder:
    """Record spans around public callables; keep them in memory.

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost span open *on the same thread* when it started.  The
    gateway's admission queue gets a pair of non-span wrappers instead:
    :attr:`admission_waits` holds each request's offer-to-take time.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.admission_waits: list[float] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._offered: dict[int, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, size: Callable | None = None) -> Callable:
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    Span(
                        span_id,
                        parent,
                        name,
                        start,
                        end,
                        threading.get_ident(),
                        None if size is None else size(args, kwargs),
                    )
                )

        return traced

    def _patch(self, target, attribute: str, replacement) -> None:
        self._patches.append((target, attribute, getattr(target, attribute)))
        setattr(target, attribute, replacement)

    def install(self) -> None:
        """Patch every trace point plus the admission-queue pair."""
        if self._patches:
            raise RuntimeError("span recorder already installed")
        for owner, attribute, name, size in TRACE_POINTS:
            target = _resolve(owner)
            self._patch(target, attribute, self.wrap(name, getattr(target, attribute), size))
        queue = _resolve("repro.serving.gateway.tenants:AdmissionQueue")
        offer, take = queue.offer, queue.take_front_class
        recorder = self

        def traced_offer(queue_self, request, *args, **kwargs):
            admitted, code, victims = offer(queue_self, request, *args, **kwargs)
            if admitted:
                recorder._offered[id(request)] = time.perf_counter()
            return admitted, code, victims

        def traced_take(queue_self, *args, **kwargs):
            taken = take(queue_self, *args, **kwargs)
            now = time.perf_counter()
            for request in taken:
                offered = recorder._offered.pop(id(request), None)
                if offered is not None:
                    recorder.admission_waits.append(now - offered)
            return taken

        self._patch(queue, "offer", traced_offer)
        self._patch(queue, "take_front_class", traced_take)

    def uninstall(self) -> None:
        while self._patches:
            target, attribute, original = self._patches.pop()
            setattr(target, attribute, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval and overlapping
    children are counted once, so the result never goes negative.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda c: c.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = span.duration - covered
    return result


def covered_time(spans: list[Span], thread: int) -> float:
    """Wall time on ``thread`` covered by at least one root span."""
    roots = sorted(
        (s for s in spans if s.parent is None and s.thread == thread), key=lambda s: s.start
    )
    covered, cursor = 0.0, float("-inf")
    for span in roots:
        start = max(span.start, cursor)
        if span.end > start:
            covered += span.end - start
            cursor = span.end
    return covered


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Seconds between two host-speed probes.
PROBE_PERIOD_S = 0.1
#: Probe duration (s) that defines the reference host speed: scaled
#: times read as if every probe had taken this long.
PROBE_REFERENCE_S = 0.6e-3


class HostProbe:
    """Time a fixed numpy kernel that the program under test never runs.

    A small shared host drifts between speed states lasting tens of
    seconds.  The kernel (point-to-point distances plus a small matmul,
    about 0.6 ms) slows down with the host, not with the program: on a
    2-core VM, its median over 2 s slices correlated 0.92 with a
    ``predict`` loop's rate in the same process and 0.65 from another
    process.  The compute-bound workloads scale their times by it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._points = rng.normal(size=(300, 3))
        self._left = rng.normal(size=(64, 64))
        self._right = rng.normal(size=(64, 512))
        #: ``(start, duration)`` of every probe, ``time.perf_counter`` seconds.
        self.readings: list[tuple[float, float]] = []
        #: Time spent probing, untimed runs included (s).
        self.busy_s = 0.0

    def _kernel(self) -> None:
        for i in range(0, len(self._points), 10):
            distances = ((self._points - self._points[i]) ** 2).sum(axis=1)
            np.flatnonzero(distances < 0.5)
        self._left @ self._right

    def sample(self) -> None:
        """Time one kernel run, after an untimed one that brings its data
        back into cache (the program's own work evicts it)."""
        began = time.perf_counter()
        self._kernel()
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.readings.append((start, end - start))
        self.busy_s += end - began

    async def sample_forever(self) -> None:
        """Sample every :data:`PROBE_PERIOD_S` on the running event loop,
        between its other callbacks, until cancelled."""
        while True:
            self.sample()
            await asyncio.sleep(PROBE_PERIOD_S)

    def sample_if_due(self) -> None:
        """:meth:`sample` once :data:`PROBE_PERIOD_S` passed since the last."""
        if not self.readings or time.perf_counter() - self.readings[-1][0] >= PROBE_PERIOD_S:
            self.sample()


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def poisson_schedule(
    seed: int, rate_per_s: float, duration_s: float, connections: int
) -> list[tuple[float, int]]:
    """``(due offset in s, connection)`` of every open-loop request.

    A Poisson process of ``rate_per_s`` over ``[0, duration_s)``,
    conditioned on its expected count: ``round(rate * duration)``
    arrival times drawn uniformly and sorted (the order statistics of a
    Poisson process given its count), so every run offers the same load.
    Each arrival goes to a uniformly drawn connection.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    count = max(int(round(rate_per_s * duration_s)), 1)
    due = np.sort(rng.uniform(0.0, duration_s, size=count))
    lanes = rng.integers(0, connections, size=count)
    return [(float(t), int(lane)) for t, lane in zip(due, lanes)]


def pool_cycle(seed: int, pool_size: int, lane: int = 0):
    """Endless pool indices: one seeded permutation after another.

    Every pool sample is sent equally often (up to the last partial
    cycle), so accuracy over a run tracks the pool's, not the draw.
    """
    rng = np.random.default_rng([seed, lane, 0xC7C1E])
    while True:
        yield from (int(i) for i in rng.permutation(pool_size))


# ----------------------------------------------------------------------
# Output checks and summaries
# ----------------------------------------------------------------------
def result_mismatch(result, reference) -> str | None:
    """Why ``result`` is not byte-identical to ``reference`` (None if it is).

    Both carry ``gesture``, ``user``, ``gesture_probs`` and ``user_probs``
    (a gateway ``WireResult`` and an engine ``SampleResult`` do).
    """
    if int(result.gesture) != int(reference.gesture):
        return f"gesture {result.gesture} != {reference.gesture}"
    if int(result.user) != int(reference.user):
        return f"user {result.user} != {reference.user}"
    for field in ("gesture_probs", "user_probs"):
        got = np.ascontiguousarray(getattr(result, field), dtype=np.float64)
        want = np.ascontiguousarray(getattr(reference, field), dtype=np.float64)
        if got.shape != want.shape or got.tobytes() != want.tobytes():
            return f"{field} differ in their bytes"
    return None


def accuracies(
    gesture_pred: list[int], user_pred: list[int], gesture_true: list[int], user_true: list[int]
) -> tuple[float, float]:
    """The paper's GRA and serialized-mode UIA (user accuracy averaged
    over the true gestures, as ``GesturePrint.evaluate`` computes it)."""
    g_pred, u_pred = np.asarray(gesture_pred), np.asarray(user_pred)
    g_true, u_true = np.asarray(gesture_true), np.asarray(user_true)
    per_gesture = [
        accuracy(u_true[g_true == g], u_pred[g_true == g]) for g in np.unique(g_true)
    ]
    return accuracy(g_true, g_pred), float(np.mean(per_gesture))


def ms_percentile(values_s: list[float], q: float) -> float:
    """Nearest-rank percentile of second-valued samples, in ms (0 if none)."""
    value = percentile(values_s, q)
    return 0.0 if value is None else value * 1e3


def provenance(seed: int, digest: str) -> dict:
    """Host, toolchain and source identity recorded with every result."""
    blas = None
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    commit = None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if completed.returncode == 0:
            commit = completed.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
        "git_commit": commit,
        "fixture_digest": digest,
        "seed": seed,
    }
