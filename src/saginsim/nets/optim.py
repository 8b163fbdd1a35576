"""Adam optimizer over a network's parameter arrays."""

import numpy as np

from ..errors import NonFiniteGradient

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]

    def step(self, grads):
        """One update of every parameter, in place; grads pairs with params
        and has their dtypes.  A non-finite gradient raises before anything
        changes.  The moments are updated in place and each parameter's
        step is built in one scratch array, with the operations of
        m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
        p -= lr m_hat / (sqrt(v_hat) + eps) in that order, so every bit is
        that of the out-of-place formula."""
        if len(grads) != len(self.params):
            raise ValueError("expected %d gradients, got %d"
                             % (len(self.params), len(grads)))
        for i, g in enumerate(grads):
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradient("parameter %d has a non-finite gradient" % i)
        self.t += 1
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            step = m / (1.0 - BETA1 ** self.t)
            step *= self.lr
            step /= np.sqrt(v / (1.0 - BETA2 ** self.t)) + EPS
            p -= step
