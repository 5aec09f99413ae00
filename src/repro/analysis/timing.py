"""Per-stage latency measurement (reproduces SVI-B5).

The paper reports, per gesture sample: data preprocessing 405.93 ms,
classification inference 677.14 ms (CPU) / 530.99 ms (GPU), total
936.92 ms against an average gesture duration of 2.43 s.  The profiler
here measures the same stages of this reproduction on the local CPU.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np


class StageTimer:
    """Accumulate wall-clock samples per named stage."""

    def __init__(self) -> None:
        self._samples: dict[str, list[float]] = {}

    def record(self, stage: str, seconds: float) -> None:
        self._samples.setdefault(stage, []).append(seconds)

    def time(self, stage: str):
        """Context manager measuring one stage invocation."""
        return _StageContext(self, stage)

    def mean_ms(self, stage: str) -> float:
        samples = self._samples.get(stage)
        if not samples:
            raise KeyError(f"no samples for stage {stage!r}")
        return 1000.0 * float(np.mean(samples))

    def stages(self) -> list[str]:
        return list(self._samples)


class _StageContext:
    def __init__(self, timer: StageTimer, stage: str) -> None:
        self._timer = timer
        self._stage = stage
        self._start = 0.0

    def __enter__(self) -> "_StageContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._timer.record(self._stage, time.perf_counter() - self._start)


@dataclass
class TimingReport:
    """Mean per-stage latencies in milliseconds."""

    preprocessing_ms: float
    recognition_ms: float
    identification_ms: float
    runs: int
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def inference_ms(self) -> float:
        return self.recognition_ms + self.identification_ms

    @property
    def total_ms(self) -> float:
        return self.preprocessing_ms + self.inference_ms


#: Jetson-Nano-vs-laptop-CPU inference slowdown measured by the paper:
#: 1.58 s on the Nano against 677.14 ms on the i7-9750H (SVI-B5), ~2.33x.
JETSON_NANO_SLOWDOWN = 1580.0 / 677.14


def project_edge_latency(
    report: TimingReport, slowdown: float = JETSON_NANO_SLOWDOWN
) -> TimingReport:
    """Project a measured CPU timing report onto a slower edge device.

    The paper deploys inference on a Jetson Nano and reports a fixed
    ratio to its laptop CPU; this applies that ratio to the inference
    stages (preprocessing is numpy-bound and scales with the same
    factor here, conservatively).  Used to sanity-check that the edge
    budget conclusion (SVI-B5) carries over to this reproduction.
    """
    if slowdown <= 0:
        raise ValueError("slowdown must be positive")
    return TimingReport(
        preprocessing_ms=report.preprocessing_ms * slowdown,
        recognition_ms=report.recognition_ms * slowdown,
        identification_ms=report.identification_ms * slowdown,
        runs=report.runs,
        extra={"slowdown": slowdown, **report.extra},
    )


def profile_pipeline(system, recordings, *, num_points: int, runs: int = 20, seed: int = 0) -> TimingReport:
    """Measure preprocessing + recognition + identification latency.

    ``system`` is a fitted :class:`repro.core.GesturePrint`;
    ``recordings`` are raw :class:`GestureRecording` objects.  Each run
    preprocesses one recording and pushes the cloud through both models
    the way :meth:`~repro.core.GesturePrint.predict` does: recognition
    computes the set-abstraction geometry, and identification reuses it,
    so ``identification_ms`` is the served marginal cost of identifying
    the user on top of recognising the gesture.  A recording that yields
    no cloud is skipped and its attempt is not timed; ``ValueError`` when
    no recording yields one.
    """
    from repro.preprocessing.pipeline import normalize_cloud, preprocess_recording

    rng = np.random.default_rng(seed)
    timer = StageTimer()
    done = 0
    attempts = 0
    while done < runs:
        if attempts == len(recordings) and done == 0:
            raise ValueError("no recording yields a gesture point cloud")
        recording = recordings[attempts % len(recordings)]
        attempts += 1
        started = time.perf_counter()
        cloud = preprocess_recording(recording)
        if cloud is None:
            continue
        sample = normalize_cloud(cloud, num_points, rng)[None, ...]
        timer.record("preprocessing", time.perf_counter() - started)
        with timer.time("recognition"):
            gesture_probs, geometry = system.recognize(sample)
        with timer.time("identification"):
            system.identify(sample, gesture_probs.argmax(axis=1), geometry)
        done += 1
    return TimingReport(
        preprocessing_ms=timer.mean_ms("preprocessing"),
        recognition_ms=timer.mean_ms("recognition"),
        identification_ms=timer.mean_ms("identification"),
        runs=runs,
    )
