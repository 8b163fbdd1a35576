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
        """One update of every parameter, in place; grads pairs with params
        and has their dtypes.  The moments are updated in place and each
        parameter's step is built in one scratch array, with the
        operations of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
        p -= lr m_hat / (sqrt(v_hat) + eps) in that order, so every bit is
        that of the out-of-place formula."""
        if len(grads) != len(self.params):
            raise ValueError("expected %d gradients, got %d"
                             % (len(self.params), len(grads)))
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, (p, g, m, v) in enumerate(zip(self.params, grads,
                                             self.m, self.v)):
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradient("parameter %d has a non-finite gradient" % i)
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            step = m / (1.0 - b1 ** self.t)
            step *= self.lr
            step /= np.sqrt(v / (1.0 - b2 ** self.t)) + self.eps
            p -= step
