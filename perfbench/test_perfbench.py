"""Self-tests for the benchmark's own logic.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import pathlib
import sys
from types import SimpleNamespace

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.harness import (  # noqa: E402
    PROBE_REFERENCE_S,
    Span,
    SpanRecorder,
    covered_time,
    poisson_schedule,
    pool_cycle,
    result_mismatch,
    self_times,
)
from perfbench.workloads import Stream, match_events, scaled_slices  # noqa: E402


def test_poisson_schedule_repeats_exactly_for_a_seed():
    first = poisson_schedule(7, 30.0, 10.0, 2)
    assert first == poisson_schedule(7, 30.0, 10.0, 2)
    assert first != poisson_schedule(8, 30.0, 10.0, 2)
    assert len(first) == 300
    times = [t for t, _ in first]
    assert times == sorted(times)
    assert 0.0 <= times[0] and times[-1] < 10.0
    assert {lane for _, lane in first} == {0, 1}


def test_pool_cycle_sends_every_sample_equally_often():
    cycle = pool_cycle(3, 5, lane=1)
    drawn = [next(cycle) for _ in range(15)]
    assert sorted(drawn) == sorted(list(range(5)) * 3)
    again = pool_cycle(3, 5, lane=1)
    assert [next(again) for _ in range(15)] == drawn


def _span(span_id, parent, start, end, thread=1):
    return Span(span_id, parent, f"s{span_id}", start, end, thread)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),  # overlaps span 2 on [3, 4]
        _span(2, 0, 3.0, 6.0),
        _span(3, 1, 2.0, 3.0),  # grandchild: only its parent subtracts it
        _span(4, 0, 9.0, 12.0),  # runs past its parent: clipped at 10
    ]
    own = self_times(spans)
    assert own[0] == 10.0 - 5.0 - 1.0
    assert own[1] == 3.0 - 1.0
    assert own[2] == 3.0
    assert own[3] == 1.0
    assert own[4] == 3.0


def test_covered_time_counts_root_spans_of_one_thread_once():
    spans = [
        _span(0, None, 0.0, 2.0),
        _span(1, None, 1.0, 3.0),
        _span(2, 0, 0.5, 1.0),
        _span(3, None, 5.0, 6.0, thread=2),
    ]
    assert covered_time(spans, 1) == 3.0
    assert covered_time(spans, 2) == 1.0


def _result(seed=0):
    rng = np.random.default_rng(seed)
    return SimpleNamespace(
        gesture=2,
        user=1,
        gesture_probs=rng.dirichlet(np.ones(4)),
        user_probs=rng.dirichlet(np.ones(4)),
    )


def test_byte_identity_rejects_a_single_flipped_bit():
    reference = _result()
    same = _result()
    assert result_mismatch(same, reference) is None
    flipped = _result()
    bits = flipped.user_probs.view(np.uint64)
    bits[3] ^= np.uint64(1)  # lowest mantissa bit of one posterior
    assert flipped.user_probs[3] != reference.user_probs[3]
    assert abs(flipped.user_probs[3] - reference.user_probs[3]) < 1e-15
    assert "user_probs" in result_mismatch(flipped, reference)
    wrong_label = _result()
    wrong_label.gesture = 3
    assert "gesture" in result_mismatch(wrong_label, reference)


def test_span_recorder_patches_where_callables_are_looked_up():
    import repro.nn.setabstraction as setabstraction
    from repro.core.gesidnet import GesIDNet, GesIDNetConfig

    original = setabstraction.farthest_point_sampling
    model = GesIDNet(2, GesIDNetConfig.small(), rng=np.random.default_rng(0))
    model.eval()
    recorder = SpanRecorder()
    recorder.install()
    try:
        model(np.random.default_rng(1).normal(size=(1, 64, 8)))
    finally:
        recorder.uninstall()
    assert setabstraction.farthest_point_sampling is original
    by_id = {span.span_id: span for span in recorder.spans}
    fps = [s for s in recorder.spans if s.name == "nn.fps"]
    assert len(fps) == 2  # one per set-abstraction level
    assert all(by_id[s.parent].name == "nn.sa" for s in fps)
    forward = [s for s in recorder.spans if s.name == "core.gesidnet"]
    assert len(forward) == 1 and forward[0].parent is None


def test_events_match_the_gesture_they_overlap_most():
    stream = Stream("s", 0, [], [(10, 20, 0, 1), (40, 55, 2, 3)])
    near = SimpleNamespace(start_frame=9, end_frame=21)
    far = SimpleNamespace(start_frame=39, end_frame=60)
    stray = SimpleNamespace(start_frame=25, end_frame=30)
    assert match_events(stream, [near, far, stray]) == {0: near, 1: far}


def test_slices_are_scaled_by_the_host_probe_and_all_kept():
    # One sample per 2 s slice.  The probe ran at the reference speed in
    # the first slice, half as fast in the second, not at all in the
    # third (which takes its nearest neighbour's scale) and twice as fast
    # in the fourth; the last reading falls outside the window.
    ref = PROBE_REFERENCE_S
    samples = [0.5, 2.5, 4.5, 6.5, 9.0]
    readings = [(0.1, ref), (0.2, ref), (2.1, 2 * ref), (6.1, ref / 2), (8.5, 4 * ref)]
    scaled = scaled_slices(samples, lambda t: t, readings, 0.0, 8.0)
    assert scaled == [([0.5], 1.0), ([2.5], 0.5), ([4.5], 0.5), ([6.5], 2.0)]
