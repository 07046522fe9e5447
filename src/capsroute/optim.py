"""Adam with bias correction, plus the non-finite-gradient guard."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, TrainingAborted
from .tensor import Tensor

__all__ = ["Adam"]

_CHUNK = 32768  # elements per pass: six 256 KiB streams fit a 2 MiB L2 cache
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # the defaults of Kingma & Ba (arXiv 1412.6980)


class Adam:
    """Standard Adam: decaying first/second moment estimates, bias-corrected step.

    The update is lr * m_hat / (sqrt(v_hat) + eps); under a constant gradient
    the step size approaches lr * sign(g). ``zero_grad`` and ``step`` write
    into each parameter's own ``grad`` and ``data`` and into its moments.
    ``step`` walks each parameter in chunks of ``_CHUNK`` elements, so a
    chunk's gradient, moments and data stay in cache across its dozen ufunc
    passes. A non-finite gradient aborts training with the offending
    parameter named, since continuing would poison the moments; each chunk
    is checked before it is updated, so an aborted step may already have
    updated earlier parameters and earlier chunks of the named one.
    """

    def __init__(self, params: list[tuple[str, Tensor]], lr: float = 1e-4):
        if not (math.isfinite(lr) and lr > 0):
            raise ConfigurationError(f"Adam needs a finite lr > 0, got lr={lr}")
        self.params = list(params)
        for name, p in self.params:
            if not p.requires_grad or p._parents:  # not p.grad, which would allocate the gradient
                raise ConfigurationError(f"Adam parameter {name!r} is not a leaf that requires a "
                                         "gradient (an op output, or built without requires_grad "
                                         "or under no_grad)")
            if not p.data.flags.c_contiguous:
                raise ConfigurationError(f"Adam parameter {name!r} is not C-contiguous, "
                                         "so it cannot be updated through a flat view")
        self.lr = lr
        self.t = 0
        self._m = [np.zeros(p.data.size) for _, p in self.params]
        self._v = [np.zeros(p.data.size) for _, p in self.params]
        self._scratch = (np.empty(_CHUNK), np.empty(_CHUNK))

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad.fill(0.0)

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - _BETA1**self.t
        bc2 = 1.0 - _BETA2**self.t
        for (name, p), m_all, v_all in zip(self.params, self._m, self._v):
            # Keep the ufunc calls and their order, so each chunk is bit-identical to
            #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
            #   data -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
            g_all, data_all = p.grad.reshape(-1), p.data.reshape(-1)
            for lo in range(0, data_all.size, _CHUNK):
                hi = min(lo + _CHUNK, data_all.size)
                g, m, v, data = g_all[lo:hi], m_all[lo:hi], v_all[lo:hi], data_all[lo:hi]
                if not np.isfinite(g).all():
                    raise TrainingAborted(f"non-finite gradient in parameter {name!r} at step {self.t}")
                s1, s2 = (buf[: hi - lo] for buf in self._scratch)
                m *= _BETA1
                m += np.multiply(g, 1.0 - _BETA1, out=s1)
                v *= _BETA2
                np.multiply(g, g, out=s1)
                v += np.multiply(s1, 1.0 - _BETA2, out=s1)
                np.divide(m, bc1, out=s1)
                s1 *= self.lr
                np.divide(v, bc2, out=s2)
                np.sqrt(s2, out=s2)
                s2 += _EPS
                s1 /= s2
                data -= s1
