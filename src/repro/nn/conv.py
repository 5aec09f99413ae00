"""Point-wise (1x1) convolutions and the shared MLP used by PointNet-style nets.

A shared MLP applies the same ``Linear`` transform to every point in a
``(batch, channels, num_points)`` tensor — equivalent to a 1x1 Conv1d —
followed by batch-norm and ReLU.  In eval mode the batch-norm is folded
into the conv (Jacob et al., CVPR 2018), so each block is one matmul.
"""

from __future__ import annotations

import operator

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
        bias = None if self.bias is None else self.bias.data
        return self.forward_affine(x, self.weight.data, bias)

    def forward_affine(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None
    ) -> np.ndarray:
        """``weight @ x + bias`` with this conv's shape check and cache.

        ``forward`` passes the conv's own parameters; :class:`SharedMLP`
        passes batch-norm-folded ones.  Either way backward sees the same
        ``_input`` (not kept while frozen: a frozen forward writes nothing).
        """
        x = as_compute(x)
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv1x1 expected (batch, {self.in_channels}, points), got {x.shape}"
            )
        if not self.frozen:
            self._input = x
        out = np.matmul(weight, x)  # (o,c) @ (b,c,n) -> (b,o,n)
        if bias is not None:
            out += bias[None, :, None]
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

    ``blocks`` stays the flat ``[conv, norm, relu, conv, norm, relu, ...]``
    list, so parameter names (``blocks.N.weight``) are stable.  Every
    ReLU here follows a block that just allocated its output, so the MLP
    owns that array and rectifies it in place
    (:meth:`ReLU.forward_owned`); the caller's input is never written.

    Train mode runs the blocks one by one.  Eval mode folds each
    batch-norm into its conv: with ``scale = gamma / sqrt(var + eps)``,
    ``W' = W * scale[:, None]`` and ``b' = (b - mean) * scale + beta``,
    so a block is one matmul, one in-place bias add and the ReLU.  Plain
    eval rebuilds the folded values every forward (O(out*in)), because
    optimizers and gradient checks may write ``weight.data`` in place
    between forwards.  :meth:`freeze` locks the weights read-only and
    folds once; the fold is rebuilt only if a loader has since replaced
    one of the arrays it was built from.
    """

    def __init__(
        self,
        channels: list[int],
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if len(channels) < 2:
            raise ValueError("SharedMLP needs at least in and out channels")
        self.blocks: list[Module] = []
        for in_ch, out_ch in zip(channels[:-1], channels[1:]):
            self.blocks += [Conv1x1(in_ch, out_ch, rng=rng), BatchNorm(out_ch), ReLU()]
        self._folded = False
        #: ``(source arrays, [(W', b') per block])`` while frozen.
        self._frozen_fold: tuple[list[np.ndarray], list] | None = None

    def _triples(self):
        return zip(self.blocks[0::3], self.blocks[1::3], self.blocks[2::3])

    def _fold_sources(self) -> list[np.ndarray]:
        sources: list[np.ndarray] = []
        for conv, norm, _ in self._triples():
            sources += (
                conv.weight.data,
                conv.bias.data,
                norm.gamma.data,
                norm.beta.data,
                norm.running_mean,
                norm.running_var,
            )
        return sources

    def _fold(self) -> list[tuple[np.ndarray, np.ndarray]]:
        folded = []
        for conv, norm, _ in self._triples():
            scale = norm.gamma.data / np.sqrt(norm.running_var + norm.eps)
            weight = conv.weight.data * scale[:, None]
            bias = (conv.bias.data - norm.running_mean) * scale + norm.beta.data
            folded.append((weight, bias))
        return folded

    def _folded_blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        if not self.frozen:
            return self._fold()
        # The cache holds only while its sources are the same objects: a
        # loader that reassigns an array (rather than writing into it,
        # which the lock forbids) gets a fresh fold.
        if self._frozen_fold is None or not all(
            map(operator.is_, self._frozen_fold[0], self._fold_sources())
        ):
            self.freeze()
        return self._frozen_fold[1]

    def freeze(self) -> "SharedMLP":
        super().freeze()
        self._frozen_fold = (self._fold_sources(), self._fold())
        return self

    def train(self) -> "SharedMLP":
        self._frozen_fold = None
        return super().train()

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.frozen:
            self._folded = not self.training
        if not self.training:
            for (conv, _, relu), (weight, bias) in zip(self._triples(), self._folded_blocks()):
                x = relu.forward_owned(conv.forward_affine(x, weight, bias))
        else:
            for conv, norm, relu in self._triples():
                x = relu.forward_owned(norm(conv(x)))
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for conv, norm, relu in reversed(list(self._triples())):
            grad_output = relu.backward(grad_output)
            if self._folded:
                # The folded forward never materialised the batch-norm
                # input; rebuild it (and the norm's eval cache) from the
                # conv's cached input.
                norm(conv(conv._input))
            grad_output = conv.backward(norm.backward(grad_output))
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
