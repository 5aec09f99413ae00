"""A serving process keeps its heap resident between predicts.

glibc by default mmaps each large array afresh and trims the heap top
after a forward frees its activations, so every warm b=32 ``predict``
faulted its working set back in (~7,800 minor faults per predict on
this module's 64-point system).  ``retain_heap`` (set by every
``InferenceEngine``) keeps those pages mapped, so a warm predict faults
in next to nothing.
"""

import ctypes
import platform
import resource
import sys

import numpy as np
import pytest

from repro.core import GesturePrint, GesturePrintConfig, TrainConfig
from repro.core.gesidnet import GesIDNetConfig
from repro.serving import InferenceEngine
from repro.serving.backends import retain_heap

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the heap policy is glibc's mallopt",
)

BATCH = 32
PREDICTS = 20


@pytest.fixture(scope="module")
def system():
    """A frozen small-config (64-point) system: activations large enough to mmap."""
    network = GesIDNetConfig.small()
    rng = np.random.default_rng(0)
    x = rng.normal(scale=0.3, size=(BATCH, network.num_points, 8))
    rows = np.arange(BATCH)
    config = GesturePrintConfig(
        network=network,
        training=TrainConfig(epochs=1, batch_size=BATCH),
        augment=False,
    )
    return GesturePrint(config).fit(x, rows % 2, rows // 2 % 2).freeze()


def _thread_faults() -> int:
    # This thread's own count: background threads of other tests must not add to it.
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt


def test_engine_sets_the_policy_and_warm_predicts_fault_nothing_in(system):
    InferenceEngine(system).close()
    assert retain_heap() is True
    x = np.random.default_rng(1).normal(scale=0.3, size=(BATCH, 64, 8))
    for _ in range(3):
        system.predict(x)
    before = _thread_faults()
    for _ in range(PREDICTS):
        system.predict(x)
    assert (_thread_faults() - before) / PREDICTS < 50


def test_second_call_is_a_no_op(monkeypatch):
    assert retain_heap() is True

    def unreachable(*_args):
        raise AssertionError("retain_heap reopened the C library")

    monkeypatch.setattr(ctypes, "CDLL", unreachable)
    assert retain_heap() is True
