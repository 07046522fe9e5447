"""Adam with bias correction, plus the non-finite-gradient guard."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, TrainingAborted
from .tensor import Tensor

__all__ = ["Adam"]


class Adam:
    """Standard Adam: decaying first/second moment estimates, bias-corrected step.

    The update is lr * m_hat / (sqrt(v_hat) + eps); under a constant gradient
    the step size approaches lr * sign(g). ``zero_grad`` and ``step`` write
    into each parameter's own ``grad`` and ``data`` and into its moments. A
    non-finite gradient aborts training with the offending parameter named,
    since continuing would poison the moments.
    """

    def __init__(
        self,
        params: list[tuple[str, Tensor]],
        lr: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        for name, value in (("lr", lr), ("eps", eps)):
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"Adam needs a finite {name} > 0, got {name}={value}")
        for name, value in (("beta1", beta1), ("beta2", beta2)):
            if not 0 <= value < 1:
                raise ConfigurationError(f"Adam needs {name} in [0, 1), got {name}={value}")
        self.params = list(params)
        for name, p in self.params:
            if p.grad is None:
                raise ConfigurationError(f"Adam parameter {name!r} has no gradient array "
                                         "(built without requires_grad or under no_grad)")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for _, p in self.params]
        self._v = [np.zeros_like(p.data) for _, p in self.params]

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad.fill(0.0)

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for (name, p), m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise TrainingAborted(f"non-finite gradient in parameter {name!r} at step {self.t}")
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
