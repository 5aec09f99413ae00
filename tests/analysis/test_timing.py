"""Tests for the stage timing profiler."""

import time

import numpy as np
import pytest

from repro.analysis import StageTimer


class TestStageTimer:
    def test_records_and_averages(self):
        timer = StageTimer()
        timer.record("stage", 0.010)
        timer.record("stage", 0.020)
        assert timer.mean_ms("stage") == pytest.approx(15.0)

    def test_context_manager_measures(self):
        timer = StageTimer()
        with timer.time("sleepy"):
            time.sleep(0.01)
        assert timer.mean_ms("sleepy") >= 8.0

    def test_unknown_stage_raises(self):
        with pytest.raises(KeyError):
            StageTimer().mean_ms("nothing")

    def test_stages_listed(self):
        timer = StageTimer()
        timer.record("a", 0.001)
        timer.record("b", 0.001)
        assert set(timer.stages()) == {"a", "b"}


class TestEdgeProjection:
    def _report(self):
        from repro.analysis.timing import TimingReport

        return TimingReport(
            preprocessing_ms=40.0, recognition_ms=10.0, identification_ms=6.0, runs=5
        )

    def test_scales_every_stage(self):
        from repro.analysis.timing import project_edge_latency

        edge = project_edge_latency(self._report(), slowdown=2.0)
        assert edge.preprocessing_ms == 80.0
        assert edge.recognition_ms == 20.0
        assert edge.identification_ms == 12.0
        assert edge.total_ms == 112.0

    def test_default_factor_matches_paper_ratio(self):
        from repro.analysis.timing import JETSON_NANO_SLOWDOWN

        assert JETSON_NANO_SLOWDOWN == pytest.approx(1580.0 / 677.14)

    def test_rejects_nonpositive_slowdown(self):
        from repro.analysis.timing import project_edge_latency

        with pytest.raises(ValueError):
            project_edge_latency(self._report(), slowdown=0.0)

    def test_records_slowdown_in_extra(self):
        from repro.analysis.timing import project_edge_latency

        edge = project_edge_latency(self._report(), slowdown=3.0)
        assert edge.extra["slowdown"] == 3.0


class _StubSystem:
    """Stands in for a fitted GesturePrint: counts the clouds it sees."""

    def __init__(self):
        self.recognized = 0

    def recognize(self, sample):
        self.recognized += 1
        return np.ones((len(sample), 2)), None

    def identify(self, sample, gestures, geometry):
        return np.zeros(len(sample), dtype=np.int64)


def _recording(points_per_frame: int):
    from repro.gestures.synthesis import GestureRecording
    from repro.radar import Frame

    rng = np.random.default_rng(points_per_frame)
    frames = []
    for _ in range(20):
        points = np.zeros((points_per_frame, 5))
        points[:, :3] = rng.normal(loc=(0.0, 1.2, 0.0), scale=0.05, size=(points_per_frame, 3))
        frames.append(Frame(points=points))
    return GestureRecording(
        frames=frames,
        user_id=0,
        gesture_name="push",
        distance_m=1.2,
        environment="office",
        motion_start_frame=0,
        motion_end_frame=len(frames),
    )


class TestProfilePipeline:
    #: Seconds an empty recording spends in (patched) preprocessing.
    EMPTY_COST_S = 0.2

    @pytest.fixture
    def counted_preprocessing(self, monkeypatch):
        """Patch ``preprocess_recording`` to bound calls and slow down misses."""
        import repro.preprocessing.pipeline as pipeline

        real = pipeline.preprocess_recording
        calls = []

        def preprocess(recording):
            calls.append(recording)
            assert len(calls) <= 50, "profile_pipeline keeps retrying one recording"
            cloud = real(recording)
            if cloud is None:
                time.sleep(self.EMPTY_COST_S)
            return cloud

        monkeypatch.setattr(pipeline, "preprocess_recording", preprocess)
        return calls

    def test_skips_a_recording_without_a_cloud(self, counted_preprocessing):
        from repro.analysis import profile_pipeline

        system = _StubSystem()
        report = profile_pipeline(
            system, [_recording(0), _recording(12)], num_points=16, runs=3
        )
        assert report.runs == 3
        assert system.recognized == 3
        assert len(counted_preprocessing) == 6
        # Only the successful runs are timed.
        assert report.preprocessing_ms < 1000.0 * self.EMPTY_COST_S / 2

    def test_raises_when_no_recording_yields_a_cloud(self, counted_preprocessing):
        from repro.analysis import profile_pipeline

        with pytest.raises(ValueError, match="no recording"):
            profile_pipeline(_StubSystem(), [_recording(0), _recording(0)], num_points=16, runs=3)
        assert len(counted_preprocessing) == 2

    def test_raises_on_no_recordings(self):
        from repro.analysis import profile_pipeline

        with pytest.raises(ValueError, match="no recording"):
            profile_pipeline(_StubSystem(), [], num_points=16, runs=1)
