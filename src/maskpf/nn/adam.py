"""Adam optimizer with the standard bias-corrected moment estimates.

Parameters are updated in place, so the optimizer holds the same arrays
the model layers own. The update runs through two scratch buffers sized to
the largest parameter, in the operation order of
`p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)`, so it allocates nothing
per step and gives the same bits as that expression. The buffers take the
parameters' dtype.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


class Adam:
    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if lr < 0:
            raise ConfigError("learning rate must be >= 0")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ConfigError("betas must be in [0, 1)")
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        size = max((v.size for v in params.values()), default=0)
        dtype = np.result_type(*params.values()) if params else np.float64
        self._scratch = (np.empty(size, dtype), np.empty(size, dtype))

    def step(self, grads: dict[str, np.ndarray]) -> None:
        if set(grads) != set(self.params):
            raise ConfigError("gradient keys do not match the tracked parameters")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for key, p in self.params.items():
            g = grads[key]
            m = self.m[key]
            v = self.v[key]
            step, denom = (buf[: p.size].reshape(p.shape) for buf in self._scratch)
            m *= self.beta1
            np.multiply(1.0 - self.beta1, g, out=step)
            m += step
            v *= self.beta2
            np.multiply(1.0 - self.beta2, g, out=step)
            step *= g
            v += step
            np.divide(m, bc1, out=step)
            np.multiply(self.lr, step, out=step)
            np.divide(v, bc2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            p -= step
