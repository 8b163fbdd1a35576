"""Adam optimizer over a network's parameter arrays."""

import numpy as np

from ..errors import NonFiniteGradient


class Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]

    def step(self, grads):
        """One update of every parameter, in place; grads pairs with params."""
        if len(grads) != len(self.params):
            raise ValueError("expected %d gradients, got %d"
                             % (len(self.params), len(grads)))
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, (p, g) in enumerate(zip(self.params, grads)):
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradient("parameter %d has a non-finite gradient" % i)
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            m_hat = self.m[i] / (1.0 - b1 ** self.t)
            v_hat = self.v[i] / (1.0 - b2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
