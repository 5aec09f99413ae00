"""A from-scratch numpy deep-learning substrate.

The paper implements GesIDNet in PyTorch; this offline reproduction
re-implements the needed machinery — modules with analytic backward
passes, optimisers, losses, and the PointNet++-style point-set operators
(farthest-point sampling, ball query, multi-scale set abstraction) — on
top of numpy only.

Conventions
-----------
* Batches are leading: dense features are ``(batch, features)``; point
  features are ``(batch, channels, num_points)``.
* ``Module.forward`` caches whatever ``backward`` needs; ``backward``
  receives the upstream gradient and returns the input gradient while
  accumulating parameter gradients into ``Parameter.grad``.
* Training/eval behaviour (dropout, batch-norm statistics) is switched
  with ``module.train()`` / ``module.eval()``; ``module.freeze()`` is
  eval with the weights locked read-only for serving.
"""

from repro.nn.module import Module, Parameter, Sequential
from repro.nn.layers import (
    BatchNorm,
    Dropout,
    LeakyReLU,
    Linear,
    ReLU,
    Softmax,
)
from repro.nn.conv import Conv1x1, SharedMLP
from repro.nn.losses import CrossEntropyLoss, softmax_probabilities
from repro.nn.optim import SGD, Adam, StepLR
from repro.nn.recurrent import LSTM
from repro.nn.pointset import (
    ball_query,
    farthest_point_sampling,
    gather_points,
    group_points,
)
from repro.nn.setabstraction import MultiScaleSetAbstraction, ScaleSpec
from repro.nn.serialization import load_state, save_state

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "BatchNorm",
    "Dropout",
    "LeakyReLU",
    "Linear",
    "ReLU",
    "Softmax",
    "Conv1x1",
    "SharedMLP",
    "CrossEntropyLoss",
    "softmax_probabilities",
    "SGD",
    "Adam",
    "StepLR",
    "LSTM",
    "ball_query",
    "farthest_point_sampling",
    "gather_points",
    "group_points",
    "MultiScaleSetAbstraction",
    "ScaleSpec",
    "load_state",
    "save_state",
]
