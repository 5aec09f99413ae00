"""Untimed fixture shared by every workload.

* the ``benchmarks/common.SCALE`` self-collected dataset (4 users x 4
  gestures, 64 points), split into train and held-out parts with a
  fixed split seed;
* the serialized-mode system fitted for :data:`FIT_EPOCHS` epochs on the
  train part and saved as a checkpoint;
* the held-out part, the labelled traffic pool of the wire workloads;
* a bank of raw radar recordings (``FastRadar`` + ``perform_gesture``)
  of the same users and gesture templates, from which the ``frames``
  workload assembles its streams.

Everything is built once per source tree and cached under
``perfbench/.cache/<digest>/``.  The digest covers the packages whose
code decides the fitted weights or the rendered frames, plus this file
and ``benchmarks/common.py``, so a change to model, training,
preprocessing or synthesis code forces a refit.  The workload seed never
reaches the fixture: every seed runs against the same checkpoint.
"""

from __future__ import annotations

import hashlib
import pathlib
import shutil
from dataclasses import dataclass

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
CACHE_DIR = ROOT / "perfbench" / ".cache"

#: Packages of ``src/repro`` whose code shapes the checkpoint or the frames.
FIT_SOURCES = ("core", "nn", "preprocessing", "datasets", "gestures", "radar", "metrics")
#: Seed of ``build_selfcollected`` (the ``cached_selfcollected`` default).
DATASET_SEED = 11
SPLIT_SEED = 0
HELD_OUT_FRACTION = 0.2
FIT_EPOCHS = 4
#: Recordings per (user, gesture) in the frame bank.
BANK_REPS = 6
BANK_SEED = 2024
BANK_DISTANCE_M = 1.2
BANK_ENVIRONMENT = "office"


def source_digest() -> str:
    """Hash of every source file that decides the fixture's contents."""
    files = [ROOT / "benchmarks" / "common.py", pathlib.Path(__file__).resolve()]
    for package in FIT_SOURCES:
        files.extend(sorted((ROOT / "src" / "repro" / package).rglob("*.py")))
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class FrameBank:
    """Raw radar recordings, one per (user, gesture, rep), flattened.

    Recording ``i`` spans frames ``frame_offsets[i]:frame_offsets[i+1]``;
    frame ``j`` holds ``points[point_offsets[j]:point_offsets[j+1]]``.
    ``motion[i]`` is the recording's ground-truth ``[start, end)`` motion
    interval in its own frame indices.
    """

    points: np.ndarray
    point_offsets: np.ndarray
    frame_offsets: np.ndarray
    motion: np.ndarray
    gesture: np.ndarray
    user: np.ndarray

    @property
    def size(self) -> int:
        return len(self.gesture)

    def frames(self, index: int) -> list:
        from repro.radar import Frame

        first, last = self.frame_offsets[index], self.frame_offsets[index + 1]
        bounds = self.point_offsets[first : last + 1]
        return [
            Frame(self.points[bounds[k] : bounds[k + 1]]) for k in range(len(bounds) - 1)
        ]


@dataclass(frozen=True)
class Fixture:
    digest: str
    checkpoint: pathlib.Path
    pool_x: np.ndarray
    pool_gesture: np.ndarray
    pool_user: np.ndarray
    bank: FrameBank


def _render_bank() -> dict[str, np.ndarray]:
    from benchmarks.common import SCALE
    from repro.gestures import ASL_GESTURES, ENVIRONMENTS, generate_users, perform_gesture
    from repro.radar import IWR6843_CONFIG, FastRadar

    users = generate_users(SCALE["num_users"], seed=DATASET_SEED)
    user_index = {uid: i for i, uid in enumerate(sorted(u.user_id for u in users))}
    templates = tuple(ASL_GESTURES.values())[: SCALE["num_gestures"]]
    environment = ENVIRONMENTS[BANK_ENVIRONMENT]
    radar = FastRadar(
        IWR6843_CONFIG,
        false_alarms_per_frame=environment.false_alarms_per_frame,
        seed=BANK_SEED,
    )
    rng = np.random.default_rng(BANK_SEED)
    points, frame_sizes, recording_sizes, motion, gesture, user = [], [], [], [], [], []
    for person in users:
        for gesture_idx, template in enumerate(templates):
            for _ in range(BANK_REPS):
                recording = perform_gesture(
                    person, template, radar, environment, distance_m=BANK_DISTANCE_M, rng=rng
                )
                points.extend(frame.points for frame in recording.frames)
                frame_sizes.extend(frame.num_points for frame in recording.frames)
                recording_sizes.append(recording.num_frames)
                motion.append((recording.motion_start_frame, recording.motion_end_frame))
                gesture.append(gesture_idx)
                user.append(user_index[person.user_id])
    return {
        "points": np.concatenate(points),
        "point_offsets": np.concatenate([[0], np.cumsum(frame_sizes)]).astype(np.int64),
        "frame_offsets": np.concatenate([[0], np.cumsum(recording_sizes)]).astype(np.int64),
        "motion": np.asarray(motion, dtype=np.int64),
        "gesture": np.asarray(gesture, dtype=np.int64),
        "user": np.asarray(user, dtype=np.int64),
    }


def _build(target: pathlib.Path) -> None:
    from benchmarks.common import bench_config, cached_selfcollected
    from repro.core import GesturePrint, save_system
    from repro.core.trainer import train_test_split

    dataset = cached_selfcollected(seed=DATASET_SEED)
    train, held_out = train_test_split(
        dataset.num_samples, HELD_OUT_FRACTION, seed=SPLIT_SEED
    )
    system = GesturePrint(bench_config(epochs=FIT_EPOCHS)).fit(
        dataset.inputs[train], dataset.gesture_labels[train], dataset.user_labels[train]
    )
    save_system(system, target / "model")
    np.savez(
        target / "pool.npz",
        x=dataset.inputs[held_out],
        gesture=dataset.gesture_labels[held_out],
        user=dataset.user_labels[held_out],
    )
    np.savez(target / "frames.npz", **_render_bank())


def load_fixture() -> Fixture:
    """The cached fixture for this source tree, building it on first use."""
    digest = source_digest()
    target = CACHE_DIR / digest
    if not (target / "complete").exists():
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        for stale in CACHE_DIR.iterdir():
            shutil.rmtree(stale, ignore_errors=True)
        building = CACHE_DIR / f"{digest}.partial"
        building.mkdir()
        _build(building)
        (building / "complete").write_text(digest + "\n")
        building.rename(target)
    with np.load(target / "pool.npz") as pool, np.load(target / "frames.npz") as bank:
        return Fixture(
            digest=digest,
            checkpoint=target / "model",
            pool_x=pool["x"],
            pool_gesture=pool["gesture"],
            pool_user=pool["user"],
            bank=FrameBank(**{key: bank[key] for key in bank.files}),
        )
