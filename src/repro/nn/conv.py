"""Point-wise (1x1) convolutions and the shared MLP used by PointNet-style nets.

A shared MLP applies the same ``Linear`` transform to every point in a
``(batch, channels, num_points)`` tensor — equivalent to a 1x1 Conv1d —
followed by batch-norm and ReLU.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import BatchNorm, ReLU
from repro.nn.module import as_compute, Module, Parameter


class Conv1x1(Module):
    """Pointwise convolution over ``(batch, in_channels, num_points)``."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        *,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        bound = np.sqrt(6.0 / max(in_channels, 1))
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weight = Parameter(rng.uniform(-bound, bound, size=(out_channels, in_channels)))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_compute(x)
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv1x1 expected (batch, {self.in_channels}, points), got {x.shape}"
            )
        self._input = x
        out = np.matmul(self.weight.data, x)  # (o,c) @ (b,c,n) -> (b,o,n)
        if self.bias is not None:
            out += self.bias.data[None, :, None]
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        self.weight.grad += np.tensordot(grad_output, self._input, axes=([0, 2], [0, 2]))
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=(0, 2))
        return np.matmul(self.weight.data.T, grad_output)


class SharedMLP(Module):
    """Stack of Conv1x1 -> BatchNorm -> ReLU blocks.

    Every ReLU here follows a block that just allocated its output, so
    the MLP owns that array and rectifies it in place
    (:meth:`ReLU.forward_owned`); the caller's input is never written.
    """

    def __init__(
        self,
        channels: list[int],
        *,
        batch_norm: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if len(channels) < 2:
            raise ValueError("SharedMLP needs at least in and out channels")
        self.blocks: list[Module] = []
        for in_ch, out_ch in zip(channels[:-1], channels[1:]):
            self.blocks.append(Conv1x1(in_ch, out_ch, rng=rng))
            if batch_norm:
                self.blocks.append(BatchNorm(out_ch))
            self.blocks.append(ReLU())

    def forward(self, x: np.ndarray) -> np.ndarray:
        for block in self.blocks:
            x = block.forward_owned(x) if isinstance(block, ReLU) else block(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for block in reversed(self.blocks):
            grad_output = block.backward(grad_output)
        return grad_output


class MaxPoolPoints(Module):
    """Max-pool over the point axis of ``(batch, channels, num_points)``."""

    def __init__(self) -> None:
        super().__init__()
        self._cache: tuple[np.ndarray, tuple[int, ...]] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_compute(x)
        if x.ndim != 3:
            raise ValueError(f"MaxPoolPoints expects 3-D input, got shape {x.shape}")
        argmax = x.argmax(axis=2)
        self._cache = (argmax, x.shape)
        batch_idx = np.arange(x.shape[0])[:, None]
        chan_idx = np.arange(x.shape[1])[None, :]
        return x[batch_idx, chan_idx, argmax]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        argmax, shape = self._cache
        grad_input = np.zeros(shape)
        batch_idx = np.arange(shape[0])[:, None]
        chan_idx = np.arange(shape[1])[None, :]
        grad_input[batch_idx, chan_idx, argmax] = grad_output
        return grad_input
