"""SVI-B5: per-stage time consumption.

Paper (laptop, full scale): preprocessing 405.93 ms, inference 677.14 ms
(CPU) per gesture sample, total 936.92 ms vs an average gesture duration
of 2.43 s — i.e. processing fits comfortably within a gesture-to-gesture
interaction budget.

Here the same three stages of this reproduction are measured on the
local CPU.  Shape: total processing time stays below the average gesture
duration.  This file also carries the only true micro-benchmarks in the
suite (pytest-benchmark timing of preprocessing and inference) and the
median wall time of one ``GesturePrint.predict`` call at batch sizes
1/8/32 — the in-process cost of a served micro-batch, on the unfrozen
path of a fresh fit and on the frozen path a served system takes.
"""

import copy
import time

import numpy as np
import pytest

from benchmarks.common import bench_config, emit, format_row
from repro import ASL_GESTURES, ENVIRONMENTS, FastRadar, IWR6843_CONFIG, generate_users
from repro.analysis import profile_pipeline
from repro.analysis.timing import JETSON_NANO_SLOWDOWN, project_edge_latency
from repro.core import GesturePrint
from repro.core.trainer import predict_proba
from repro.datasets import build_selfcollected
from repro.gestures import perform_gesture
from repro.preprocessing import preprocess_recording
from repro.preprocessing.pipeline import normalize_cloud


@pytest.fixture(scope="module")
def dataset():
    return build_selfcollected(
        num_users=3, num_gestures=3, reps=8, environments=("office",),
        num_points=64, seed=19,
    )


@pytest.fixture(scope="module")
def fitted_system(dataset):
    config = bench_config(epochs=10)
    return GesturePrint(config).fit(
        dataset.inputs, dataset.gesture_labels, dataset.user_labels
    )


@pytest.fixture(scope="module")
def recordings():
    users = generate_users(1, seed=6)
    radar = FastRadar(IWR6843_CONFIG, seed=7)
    return [
        perform_gesture(
            users[0],
            list(ASL_GESTURES.values())[i % 3],
            radar,
            ENVIRONMENTS["office"],
            rng=np.random.default_rng(100 + i),
        )
        for i in range(5)
    ]


@pytest.mark.benchmark(group="timing")
def test_stage_latency_table(benchmark, fitted_system, recordings):
    report = benchmark.pedantic(
        lambda: profile_pipeline(fitted_system, recordings, num_points=64, runs=20),
        rounds=1,
        iterations=1,
    )
    gesture_duration_ms = float(
        np.mean([r.duration_frames for r in recordings])
        / IWR6843_CONFIG.frame_rate_hz
        * 1000.0
    )
    widths = (18, 12, 14)
    lines = [
        "SVI-B5 — per-stage latency (paper: preproc 406 ms, inference 677 ms CPU)",
        format_row(("stage", "measured ms", "paper ms"), widths),
        format_row(("preprocessing", f"{report.preprocessing_ms:.1f}", "405.9"), widths),
        format_row(("recognition", f"{report.recognition_ms:.1f}", "677.1 (both)"), widths),
        format_row(("identification", f"{report.identification_ms:.1f}", ""), widths),
        format_row(("total", f"{report.total_ms:.1f}", "936.9"), widths),
        f"average gesture duration: {gesture_duration_ms:.0f} ms (paper: 2430 ms)",
    ]
    edge = project_edge_latency(report)
    lines.append(
        f"Jetson-Nano projection (paper's {JETSON_NANO_SLOWDOWN:.2f}x slowdown, "
        f"SVI-B5): total {edge.total_ms:.1f} ms"
    )
    emit("timing", lines)
    # Shape: processing fits within one gesture's duration — on the
    # laptop CPU and on the projected edge device.
    assert report.total_ms < gesture_duration_ms
    assert edge.total_ms < gesture_duration_ms


@pytest.mark.benchmark(group="timing-micro")
def test_preprocessing_microbench(benchmark, recordings):
    recording = recordings[0]
    result = benchmark(lambda: preprocess_recording(recording))
    assert result is not None


@pytest.mark.benchmark(group="timing-micro")
def test_inference_microbench(benchmark, fitted_system, recordings):
    rng = np.random.default_rng(0)
    cloud = preprocess_recording(recordings[0])
    sample = normalize_cloud(cloud, 64, rng)[None, ...]
    probs = benchmark(lambda: predict_proba(fitted_system.gesture_model, sample))
    assert probs.shape[1] == fitted_system.num_gestures


PREDICT_BATCHES = (1, 8, 32)
PREDICT_REPS = 15


def test_predict_batch_latency(fitted_system, dataset):
    """Median ms per ``GesturePrint.predict`` call at each batch size.

    A fresh fit is unfrozen (batch-norm folds and ``W^T`` copies rebuilt
    every forward); a served system is frozen (built once).  Both are
    timed, interleaved, so the ratio is the frozen path's gain.
    """
    frozen_system = copy.deepcopy(fitted_system).freeze()
    systems = {"unfrozen": fitted_system, "frozen": frozen_system}
    widths = (8, 10, 16, 14)
    lines = [
        "GesturePrint.predict — median wall time per call (gesture + ID forwards)",
        format_row(("batch", "path", "median ms/call", "ms per row"), widths),
    ]
    for batch in PREDICT_BATCHES:
        inputs = dataset.inputs[np.resize(np.arange(len(dataset.inputs)), batch)]
        times = {name: [] for name in systems}
        for system in systems.values():
            system.predict(inputs)  # warm-up
        for _ in range(PREDICT_REPS):
            for name, system in systems.items():
                start = time.perf_counter()
                system.predict(inputs)
                times[name].append(time.perf_counter() - start)
        medians = {name: 1000.0 * float(np.median(t)) for name, t in times.items()}
        for name, median_ms in medians.items():
            lines.append(
                format_row(
                    (batch, name, f"{median_ms:.2f}", f"{median_ms / batch:.3f}"), widths
                )
            )
        ratio = medians["unfrozen"] / medians["frozen"]
        lines.append(f"  b={batch}: unfrozen / frozen = {ratio:.2f}x")
    emit("timing_predict", lines)
