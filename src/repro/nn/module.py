"""``Parameter`` and ``Module`` base classes for the numpy NN framework."""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["Parameter", "Module"]


class Parameter:
    """A trainable tensor: a value array plus an accumulated gradient.

    Attributes:
        data: the parameter value (``numpy.ndarray`` of float64).
        grad: accumulated gradient with the same shape as ``data``.
        name: optional human-readable name, set when registered on a Module.
    """

    def __init__(self, data: np.ndarray, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> tuple:
        """Shape of the underlying value array."""
        return self.data.shape

    @property
    def size(self) -> int:
        """Number of scalar elements."""
        return self.data.size

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero in place."""
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Module:
    """Base class for all layers and models.

    Subclasses implement ``forward`` (and, when trainable, ``backward``).
    Parameters and sub-modules assigned as attributes are auto-registered,
    so :meth:`parameters` and :meth:`zero_grad` traverse the whole tree.
    """

    def __init__(self):
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, Module] = {}

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
            if not value.name:
                value.name = name
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # -- structure ---------------------------------------------------------

    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its descendants."""
        for param in self._parameters.values():
            yield param
        for module in self._modules.values():
            yield from module.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs over the module tree."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants, depth first."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters in the module tree."""
        return sum(p.size for p in self.parameters())

    # -- gradients ----------------------------------------------------------

    def zero_grad(self) -> None:
        """Zero the gradients of every parameter in the tree."""
        for param in self.parameters():
            param.zero_grad()

    # -- (de)serialisation ---------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a flat ``{dotted_name: value_copy}`` mapping."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values from :meth:`state_dict` output.

        Raises:
            KeyError: if ``state`` is missing a parameter.
            ValueError: on any shape mismatch.
        """
        for name, param in self.named_parameters():
            if name not in state:
                raise KeyError(f"state dict missing parameter {name!r}")
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"expected {param.data.shape}, got {value.shape}"
                )
            param.data = value.copy()

    # -- execution -----------------------------------------------------------

    def forward(self, *args, **kwargs):
        """Compute the module output; subclasses must override."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
