"""Shared fixtures for the serving-layer tests: one tiny fitted system,
a hand-released execution backend and a manual clock."""

import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core import GesturePrint, GesturePrintConfig, TrainConfig
from repro.core.gesidnet import GesIDNetConfig
from repro.nn.setabstraction import ScaleSpec
from repro.serving.backends import ExecutionBackend

NUM_POINTS = 12
NUM_CHANNELS = 8


def tiny_network() -> GesIDNetConfig:
    return GesIDNetConfig(
        num_points=NUM_POINTS,
        in_feature_channels=NUM_CHANNELS,
        sa1_centers=4,
        sa1_scales=(ScaleSpec(0.5, 3, (8,)),),
        sa2_centers=2,
        sa2_scales=(ScaleSpec(1.0, 2, (10,)),),
        level1_mlp=(8,),
        level2_mlp=(10,),
        head1_hidden=(6,),
        dropout=0.0,
    )


def toy_dataset(n_per_cell=10, num_gestures=2, num_users=2, seed=0):
    rng = np.random.default_rng(seed)
    rows, gestures, users = [], [], []
    for g in range(num_gestures):
        for u in range(num_users):
            for _ in range(n_per_cell):
                x = rng.normal(size=(NUM_POINTS, NUM_CHANNELS))
                x[:, 2] += 2.0 * g
                x[:, 0] *= 1.0 + 1.5 * u
                x[:, 6] = 0.4 + 0.3 * u
                rows.append(x)
                gestures.append(g)
                users.append(u)
    return np.stack(rows), np.array(gestures), np.array(users)


@pytest.fixture(scope="session")
def toy_data():
    return toy_dataset()


@pytest.fixture(scope="session")
def fitted(toy_data):
    x, g, u = toy_data
    config = GesturePrintConfig(
        network=tiny_network(),
        training=TrainConfig(epochs=10, batch_size=8, learning_rate=3e-3),
        augment=False,
    )
    return GesturePrint(config).fit(x, g, u)


@pytest.fixture(scope="session")
def fitted_b(toy_data):
    """A second system with different weights (hot-reload tests)."""
    x, g, u = toy_data
    config = GesturePrintConfig(
        network=tiny_network(),
        training=TrainConfig(epochs=4, batch_size=8, learning_rate=3e-3, seed=1),
        augment=False,
    )
    return GesturePrint(config).fit(x, g, u)


class ManualClock:
    """Monotonic clock that moves only when a test advances it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class GateBackend(ExecutionBackend):
    """Airborne batches land only when the test releases them.

    Execution happens inline at release time, so tests control exactly
    when a batch "lands" without any real concurrency or sleeps.
    Submitted futures stay *pending* (not running), so a cancelled hedge
    loser is observably ``cancelled()`` exactly like a queued duplicate
    a real executor never started.
    """

    name = "gate"
    slots = 4

    def __init__(self):
        self.held: list[tuple[Future, object, np.ndarray]] = []

    def submit(self, system, batch):
        future = Future()
        self.held.append((future, system, batch))
        return future

    def release_at(self, index: int) -> bool:
        """Land the ``index``-th held batch; False if it was cancelled."""
        future, system, batch = self.held.pop(index)
        if not future.set_running_or_notify_cancel():
            return False  # cancelled loser: a real executor would skip it too
        start = time.perf_counter()
        try:
            result = system.predict(batch)
        except Exception as error:
            future.set_exception(error)
        else:
            future.set_result((result, time.perf_counter() - start))
        return True

    def release(self, count: int | None = None) -> int:
        """Land the oldest ``count`` held batches (all by default)."""
        count = len(self.held) if count is None else min(count, len(self.held))
        return sum(self.release_at(0) for _ in range(count))

    def release_all(self) -> None:
        while self.held:
            self.release_at(0)
