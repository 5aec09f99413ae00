"""Fidelity gate: the prefix-sum segmenter threshold equals the numpy split.

``_numpy_threshold`` is the two-means split ``current_threshold`` ran
over a numpy array before it moved to sorted prefix sums.  Point counts
are integers, so the two must agree exactly: thresholds compare ``==``
and whole recordings segment into the same ``Segment`` lists.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.preprocessing import GestureSegmenter, SegmenterParams
from repro.radar import Frame


def _numpy_threshold(counts, min_threshold: float) -> float:
    if not counts:
        return min_threshold
    counts = np.fromiter(counts, dtype=np.float64)
    low, high = counts.min(), counts.max()
    if high - low < 2.0:
        return max(high + 1.0, min_threshold)
    center_low, center_high = low, high
    for _ in range(12):
        midpoint = 0.5 * (center_low + center_high)
        below = counts[counts <= midpoint]
        above = counts[counts > midpoint]
        if below.size == 0 or above.size == 0:
            break
        new_low, new_high = below.mean(), above.mean()
        if new_low == center_low and new_high == center_high:
            break
        center_low, center_high = new_low, new_high
    return max(0.5 * (center_low + center_high), min_threshold)


class _NumpySegmenter(GestureSegmenter):
    def current_threshold(self) -> float:
        return _numpy_threshold(self._counts, self.params.min_threshold)


def _frames(counts):
    return [Frame(points=np.zeros((count, 5))) for count in counts]


_count = st.integers(0, 400)
_windows = st.one_of(
    st.lists(_count, min_size=1, max_size=50),
    # All-equal windows.
    st.tuples(_count, st.integers(1, 50)).map(lambda pair: [pair[0]] * pair[1]),
    # ``high - low < 2``: at most two adjacent values.
    st.tuples(_count, st.lists(st.integers(0, 1), min_size=1, max_size=50)).map(
        lambda pair: [pair[0] + step for step in pair[1]]
    ),
    # Bimodal idle/motion windows, the shape a gesture leaves behind.
    st.lists(st.one_of(st.integers(0, 6), st.integers(8, 40)), min_size=1, max_size=50),
)


class TestThresholdFidelity:
    @settings(max_examples=400, deadline=None)
    @given(window=_windows, min_threshold=st.sampled_from([0.5, 4.0, 9.0]))
    def test_threshold_equals_numpy_split(self, window, min_threshold):
        segmenter = GestureSegmenter(SegmenterParams(min_threshold=min_threshold))
        for frame in _frames(window):
            segmenter.push(frame)
        expected = _numpy_threshold(window, min_threshold)
        assert segmenter.current_threshold() == expected

    def test_empty_history_returns_the_floor(self):
        assert GestureSegmenter().current_threshold() == 4.0


class TestSegmentFidelity:
    @settings(max_examples=60, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(st.integers(0, 30), st.integers(1, 25)), min_size=1, max_size=12
        ),
        seed=st.integers(0, 10_000),
    )
    def test_segment_lists_match(self, runs, seed):
        # Runs of jittered idle or motion levels, as a radar stream yields.
        rng = np.random.default_rng(seed)
        counts = [
            max(0, int(level + rng.integers(-2, 3))) for level, length in runs for _ in range(length)
        ]
        frames = _frames(counts)
        assert GestureSegmenter().segment(frames) == _NumpySegmenter().segment(frames)
