"""Dense layers and activations with analytic backward passes.

All layers accept either dense ``(batch, features)`` inputs or channel
inputs ``(batch, channels, num_points)`` where that makes sense; shapes
are documented per layer.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import as_compute, Module, Parameter


def _kaiming_uniform(rng: np.random.Generator, fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
    bound = np.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


class Linear(Module):
    """Affine map ``y = x W^T + b`` on ``(batch, in_features)`` inputs."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(_kaiming_uniform(rng, in_features, (out_features, in_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self._input: np.ndarray | None = None
        #: ``(weight.data, W^T copy)`` while frozen.
        self._frozen_t: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_compute(x)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expected (batch, {self.in_features}), got {x.shape}"
            )
        if not self.frozen:
            self._input = x
        weight_t = self._transposed_weight()
        if x.shape[0] == 1:
            out = (np.concatenate([x, x], axis=0) @ weight_t)[:1]
        else:
            out = x @ weight_t
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def _transposed_weight(self) -> np.ndarray:
        """Contiguous copy of ``W^T``.

        Row-stable matmul: BLAS GEMM against a transposed *view* picks
        kernels whose accumulation order depends on the row count, so the
        same sample would get ULP-different logits alone vs inside a
        micro-batch.  A contiguous copy of ``W^T`` keeps every batch size
        on the same row-wise-stable kernel (forward pads one-row inputs to
        two rows to dodge the remaining GEMV outlier) — this is what lets
        the serving layer guarantee byte-identical events for batched and
        per-event inference.  Unfrozen, the copy is rebuilt every forward,
        because optimizers and finite-difference gradient checks write
        ``weight.data`` in place between forwards.  :meth:`freeze` locks
        the weight read-only and copies once; the copy is rebuilt only if
        a loader has since replaced ``weight.data``.
        """
        if not self.frozen:
            return np.ascontiguousarray(self.weight.data.T)
        if self._frozen_t is None or self._frozen_t[0] is not self.weight.data:
            self.freeze()
        return self._frozen_t[1]

    def freeze(self) -> "Linear":
        super().freeze()
        self._frozen_t = (self.weight.data, np.ascontiguousarray(self.weight.data.T))
        return self

    def train(self) -> "Linear":
        self._frozen_t = None
        return super().train()

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        self.weight.grad += grad_output.T @ self._input
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.data


class ReLU(Module):
    """Elementwise max(x, 0); works for any shape."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_compute(x)
        return x * self._keep_mask(x)

    def forward_owned(self, x: np.ndarray) -> np.ndarray:
        """``forward`` written into ``x``, which the caller owns.

        Same op and mask as :meth:`forward` (so the same bits, signed
        zeros included); only for arrays nobody else holds.
        """
        np.multiply(x, self._keep_mask(x), out=x)
        return x

    def _keep_mask(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0  # a local: concurrent forwards never read each other's
        if not self.frozen:
            self._mask = mask
        return mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask


class LeakyReLU(Module):
    """Elementwise leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = negative_slope
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_compute(x)
        self._mask = x > 0
        return np.where(self._mask, x, self.negative_slope * x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad_output, self.negative_slope * grad_output)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, rate: float = 0.5, *, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self._rng = rng or np.random.default_rng()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_compute(x)
        if not self.training or self.rate == 0.0:
            if not self.frozen:
                self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


class BatchNorm(Module):
    """Batch normalisation over the batch (and point) axes.

    Accepts ``(batch, features)`` or ``(batch, channels, num_points)``;
    statistics are computed per feature/channel.  Running statistics are
    tracked for eval mode.
    """

    def __init__(self, num_features: int, *, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]] | None = None

    def _axes(self, x: np.ndarray) -> tuple[int, ...]:
        if x.ndim == 2:
            return (0,)
        if x.ndim == 3:
            return (0, 2)
        raise ValueError(f"BatchNorm expects 2-D or 3-D input, got shape {x.shape}")

    def _reshape_stats(self, stats: np.ndarray, ndim: int) -> np.ndarray:
        if ndim == 3:
            return stats[None, :, None]
        return stats[None, :]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_compute(x)
        axes = self._axes(x)
        if x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm expected {self.num_features} channels, got {x.shape[1]}"
            )
        if self.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            count = x.size // self.num_features
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            # Unbiased variance for the running estimate, as torch does.
            unbiased = var * count / max(count - 1, 1)
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * unbiased
            inv_std = 1.0 / np.sqrt(var + self.eps)
            normalized = (x - self._reshape_stats(mean, x.ndim)) * self._reshape_stats(
                inv_std, x.ndim
            )
            self._cache = (normalized, inv_std, x, axes)
            return normalized * self._reshape_stats(self.gamma.data, x.ndim) + self._reshape_stats(
                self.beta.data, x.ndim
            )
        # Eval mode: fold the running stats into one scale + shift, halving
        # the number of full-array passes on the inference hot path.  The
        # normalised activations are reconstructed lazily in backward (only
        # fine-tuning through a frozen norm needs them).
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        scale = self.gamma.data * inv_std
        shift = self.beta.data - self.running_mean * scale
        self._cache = (None, inv_std, x, axes)
        out = x * self._reshape_stats(scale, x.ndim)
        out += self._reshape_stats(shift, x.ndim)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        normalized, inv_std, x, axes = self._cache
        if normalized is None:  # eval-mode forward skipped materialising it
            normalized = (x - self._reshape_stats(self.running_mean, x.ndim)) * (
                self._reshape_stats(inv_std, x.ndim)
            )
        grad_output = np.asarray(grad_output, dtype=np.float64)
        self.gamma.grad += (grad_output * normalized).sum(axis=axes)
        self.beta.grad += grad_output.sum(axis=axes)
        gamma = self._reshape_stats(self.gamma.data, x.ndim)
        inv = self._reshape_stats(inv_std, x.ndim)
        if not self.training:
            return grad_output * gamma * inv
        count = x.size // self.num_features
        grad_norm = grad_output * gamma
        mean_grad = grad_norm.mean(axis=axes, keepdims=True)
        mean_grad_norm = (grad_norm * normalized).mean(axis=axes, keepdims=True)
        return inv * (grad_norm - mean_grad - normalized * mean_grad_norm) * (
            count / max(count, 1)
        )


class Softmax(Module):
    """Softmax over the last axis (used standalone in attention fusion)."""

    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_compute(x)
        shifted = x - x.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        self._output = exp / exp.sum(axis=-1, keepdims=True)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        out = self._output
        inner = (grad_output * out).sum(axis=-1, keepdims=True)
        return out * (grad_output - inner)
