"""The optimizer: Adam."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.models.module import Parameter

#: Adam's moment decay rates and denominator guard (Kingma & Ba's
#: defaults, which every system trains with).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(self, params: List[Parameter], lr: float = 1e-3):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not params:
            raise ValueError("no parameters to optimize")
        self.params = list(params)
        self.lr = float(lr)
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bc1 = 1.0 - BETA1 ** self._t
        bc2 = 1.0 - BETA2 ** self._t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            m, v = self._m[i], self._v[i]
            m *= BETA1
            m += (1 - BETA1) * g
            v *= BETA2
            v += (1 - BETA2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
