"""Parameter-adaptive sliding-window gesture segmentation (SIV-B).

The segmenter tracks the per-frame point count.  Over a trailing window
of ``N`` frames it derives a dynamic point-number threshold ``P_thr``
from the cumulative count distribution; a sliding motion-detection
window of length ``n`` classifies each frame as motion (count >= P_thr)
or static.  When the window holds at least ``F_thr`` motion frames a
gesture starts; it ends when the window is all-static again.

Paper defaults: N = 50, n = 10, F_thr = 8.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import accumulate

from repro.radar.pointcloud import Frame


@dataclass(frozen=True)
class SegmenterParams:
    """Tuning knobs of the sliding-window segmenter."""

    threshold_window: int = 50  # N
    detection_window: int = 10  # n
    min_motion_frames: int = 8  # F_thr
    min_threshold: float = 4.0

    def __post_init__(self) -> None:
        if self.threshold_window <= 0 or self.detection_window <= 0:
            raise ValueError("window lengths must be positive")
        if not 0 < self.min_motion_frames <= self.detection_window:
            raise ValueError("min_motion_frames must fit in the detection window")
        if self.min_threshold <= 0:
            raise ValueError("min_threshold must be positive")


@dataclass(frozen=True)
class Segment:
    """One detected gesture: frame span ``[start, end)``."""

    start: int
    end: int

    @property
    def num_frames(self) -> int:
        return self.end - self.start


class GestureSegmenter:
    """Online gesture segmentation over a stream of radar frames.

    Push frames with :meth:`push`; completed segments are returned as
    they are recognised.  :meth:`segment` runs an entire recording at
    once and flushes any open segment at the end.
    """

    def __init__(self, params: SegmenterParams | None = None) -> None:
        self.params = params or SegmenterParams()
        self._counts: deque[int] = deque(maxlen=self.params.threshold_window)
        self._window: deque[bool] = deque(maxlen=self.params.detection_window)
        self._frame_index = 0
        self._active_start: int | None = None

    @property
    def in_gesture(self) -> bool:
        return self._active_start is not None

    def current_threshold(self) -> float:
        """Dynamic point-number threshold ``P_thr`` from the count history.

        The trailing count distribution is bimodal once a gesture has been
        seen: an idle mode (environment residue) and a motion mode.  A
        1-D two-means split of the trailing window places ``P_thr``
        midway between the modes, so the threshold adapts both to the
        room's idle noise level and to the gesture's point density.
        ``min_threshold`` guards the all-idle case where the split would
        land inside the noise.
        """
        if not self._counts:
            return self.params.min_threshold
        counts = sorted(self._counts)
        low, high = counts[0], counts[-1]
        if high - low < 2.0:
            return max(high + 1.0, self.params.min_threshold)
        # Counts are integers, so every prefix sum is exact and
        # ``prefix[k] / k`` is the correctly rounded mean of the k lowest.
        prefix = list(accumulate(counts, initial=0))
        total, size = prefix[-1], len(counts)
        center_low, center_high = low, high
        for _ in range(12):
            split = bisect_right(counts, 0.5 * (center_low + center_high))
            if split == 0 or split == size:
                break
            new_low = prefix[split] / split
            new_high = (total - prefix[split]) / (size - split)
            if new_low == center_low and new_high == center_high:
                break
            center_low, center_high = new_low, new_high
        return max(0.5 * (center_low + center_high), self.params.min_threshold)

    def push(self, frame: Frame) -> Segment | None:
        """Feed one frame; returns a completed segment when one closes."""
        threshold = self.current_threshold()
        count = frame.num_points
        self._counts.append(count)
        is_motion = count >= threshold
        self._window.append(is_motion)
        index = self._frame_index
        self._frame_index += 1

        completed: Segment | None = None
        if self._active_start is None:
            if (
                len(self._window) == self.params.detection_window
                and sum(self._window) >= self.params.min_motion_frames
            ):
                # The gesture started when the current window's motion run began.
                window_list = list(self._window)
                first_motion = window_list.index(True)
                self._active_start = index - (len(window_list) - 1) + first_motion
        else:
            if len(self._window) == self.params.detection_window and not any(self._window):
                # All-static window: the gesture ended before this window began.
                end = max(index - self.params.detection_window + 1, self._active_start + 1)
                completed = Segment(start=self._active_start, end=end)
                self._active_start = None
        return completed

    def flush(self) -> Segment | None:
        """Close an open segment at end-of-stream."""
        if self._active_start is None:
            return None
        segment = Segment(start=self._active_start, end=self._frame_index)
        self._active_start = None
        return segment

    def segment(self, frames: list[Frame]) -> list[Segment]:
        """Segment a full recording; resets the segmenter state first."""
        self.reset()
        segments = [seg for frame in frames if (seg := self.push(frame)) is not None]
        tail = self.flush()
        if tail is not None:
            segments.append(tail)
        return segments

    def reset(self) -> None:
        self._counts.clear()
        self._window.clear()
        self._frame_index = 0
        self._active_start = None
