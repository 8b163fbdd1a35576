"""Explicit MLP backprop: the reverse pass of `Mlp.forward_tape`.

The trainer's losses are weighted squared errors on one network's output,
so each computes d(loss)/d(output) in closed form and hands it here.
"""

import numpy as np


def backward(net, tape, d_out):
    """Parameter gradients [dW1, db1, dW2, db2, ...] of a scalar loss.

    tape: what `net.forward_tape(x)` returned alongside its output;
    d_out: d(loss)/d(output), shaped like the output, cast to the net's
    dtype.  The input x is a constant, so its gradient is never formed.
    """
    grads = [None] * len(net.params)
    g = np.asarray(d_out, dtype=net.dtype)
    for i in range(len(tape) - 1, -1, -1):
        inp, mask = tape[i]
        grads[2 * i] = inp.T @ g
        grads[2 * i + 1] = g.sum(axis=0)
        if mask is not None:
            g = (g @ net.params[2 * i].T) * mask
    return grads
