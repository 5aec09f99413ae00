"""Module and parameter primitives for the numpy network substrate."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

#: Non-parameter arrays a forward pass reads (batch-norm running
#: statistics).  They are persisted with the weights and locked by
#: :meth:`Module.freeze` like them.
BUFFER_NAMES = ("running_mean", "running_var")
#: What a training forward leaves for backward (last batch's inputs,
#: masks and intermediates).  :meth:`Module.freeze` drops them.
BACKWARD_CACHES = ("_input", "_mask", "_cache")


def as_compute(array) -> np.ndarray:
    """Coerce a forward-pass input to the network's compute dtype.

    float64 is the reference precision (row-stable kernels, the
    byte-identical serving guarantee); float32 is the opt-in
    low-precision fast path (:mod:`repro.serving.precision`): a float32
    input passes through untouched so every intermediate stays float32
    when the weights are float32 too.  Anything else — float64, ints,
    lists — is pinned to float64 exactly as before, so training and the
    default serving path are bit-for-bit unchanged.
    """
    if isinstance(array, np.ndarray) and array.dtype == np.float32:
        return array
    return np.asarray(array, dtype=np.float64)


class Parameter:
    """A trainable tensor with an accumulated gradient."""

    def __init__(self, data: np.ndarray) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Parameter(shape={self.data.shape})"


class Module:
    """Base class: tracks parameters, sub-modules, and train/eval mode.

    Subclasses implement ``forward`` (caching what backward needs on
    ``self``) and ``backward`` (returning the gradient w.r.t. the input).

    A module is in one of three modes: ``train()``, ``eval()`` and
    ``freeze()``.  Frozen is eval with the weights locked read-only, so
    subclasses may build inference-only derived arrays (folded
    batch-norm, transposed weights) once instead of every forward; an
    in-place write to a frozen weight raises instead of leaving those
    stale.  ``train()`` unlocks and drops them.  A frozen forward
    caches nothing for backward: it writes nothing on ``self``, so one
    frozen module graph serves any number of threads at once.
    """

    #: Set by :meth:`freeze`, cleared by :meth:`train`.
    frozen = False
    #: The arrays this module's :meth:`freeze` made read-only (and so
    #: the only ones :meth:`train` makes writeable again).
    _locked: tuple[np.ndarray, ...] = ()

    def __init__(self) -> None:
        self.training = True

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def backward(self, grad_output):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def _children(self) -> Iterator["Module"]:
        for value in vars(self).values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def parameters(self) -> list[Parameter]:
        """All parameters of this module and its sub-modules."""
        params: list[Parameter] = []
        seen: set[int] = set()

        def _collect(module: Module) -> None:
            for _name, value in sorted(vars(module).items()):
                if isinstance(value, Parameter) and id(value) not in seen:
                    seen.add(id(value))
                    params.append(value)
                elif isinstance(value, Module):
                    _collect(value)
                elif isinstance(value, (list, tuple)):
                    for item in value:
                        if isinstance(item, Module):
                            _collect(item)
                        elif isinstance(item, Parameter) and id(item) not in seen:
                            seen.add(id(item))
                            params.append(item)

        _collect(self)
        return params

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        """(dotted-path, parameter) pairs, stable across identical builds."""
        named: list[tuple[str, Parameter]] = []
        for name, value in sorted(vars(self).items()):
            path = f"{prefix}{name}"
            if isinstance(value, Parameter):
                named.append((path, value))
            elif isinstance(value, Module):
                named.extend(value.named_parameters(prefix=f"{path}."))
            elif isinstance(value, (list, tuple)):
                for idx, item in enumerate(value):
                    if isinstance(item, Module):
                        named.extend(item.named_parameters(prefix=f"{path}.{idx}."))
                    elif isinstance(item, Parameter):
                        named.append((f"{path}.{idx}", item))
        return named

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> "Module":
        self.training = True
        self.frozen = False
        for array in self._locked:
            array.flags.writeable = True
        self._locked = ()
        for child in self._children():
            child.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for child in self._children():
            child.eval()
        return self

    def freeze(self) -> "Module":
        """Eval mode with every parameter and buffer locked read-only.

        Arrays that are already read-only (the mmap views
        :func:`~repro.nn.serialization.load_flat_mmap` attaches) are left
        alone, so :meth:`train` never tries to unlock them.  Subclasses
        extend this to build their inference caches after the lock.
        Calling it again relocks and rebuilds, which is how a cache
        follows a loader that reassigned ``param.data``.  The last
        training batch's backward caches are dropped: no predict reads
        them, and every copy of the frozen system would carry them.
        """
        self.training = False
        self.frozen = True
        for name in BACKWARD_CACHES:
            if name in vars(self):
                setattr(self, name, None)
        self._lock()
        for child in self._children():
            child.freeze()
        return self

    def _own_arrays(self) -> Iterator[np.ndarray]:
        for name, value in vars(self).items():
            if isinstance(value, Parameter):
                yield value.data
            elif name in BUFFER_NAMES and isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Parameter):
                        yield item.data

    def _lock(self) -> None:
        unlocked = [array for array in self._own_arrays() if array.flags.writeable]
        for array in unlocked:
            array.flags.writeable = False
        self._locked = (*self._locked, *unlocked)

    def __setstate__(self, state: dict) -> None:
        # Copies (deepcopy, pickle) of locked arrays come back writeable;
        # a frozen copy relocks its own so it keeps the frozen contract.
        self.__dict__.update(state)
        if self.frozen:
            self._locked = ()
            self._lock()


class Sequential(Module):
    """Run sub-modules in order; backward in reverse order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.modules = list(modules)

    def forward(self, x):
        for module in self.modules:
            x = module(x)
        return x

    def backward(self, grad_output):
        for module in reversed(self.modules):
            grad_output = module.backward(grad_output)
        return grad_output

    def __len__(self) -> int:
        return len(self.modules)

    def __getitem__(self, index: int) -> Module:
        return self.modules[index]
