"""Plain fully connected networks and npz checkpoints."""

import json

import numpy as np

from . import autodiff as ad

CHECKPOINT_FORMAT = 1


class Mlp:
    """ReLU hidden layers, linear output head, float64 parameters.

    widths: [input, hidden..., output].  A two-entry widths list is a
    single linear layer.
    """

    def __init__(self, widths, rng=None):
        if len(widths) < 2:
            raise ValueError("need at least input and output widths")
        self.widths = [int(w) for w in widths]
        self.params = []
        for fan_in, fan_out in zip(self.widths[:-1], self.widths[1:]):
            if rng is None:
                w = np.zeros((fan_in, fan_out))
            else:
                # He initialization for the ReLU stack
                w = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
            self.params.append(ad.Var(w))
            self.params.append(ad.Var(np.zeros(fan_out)))

    def _layers(self):
        for i in range(0, len(self.params), 2):
            yield self.params[i], self.params[i + 1]

    def forward(self, x):
        """Fast numpy pass, no gradient graph.  x: (batch, in) or (in,)."""
        h = np.asarray(x, dtype=np.float64) @ self.params[0].value
        h += self.params[1].value
        return self.forward_from(h)

    def forward_from(self, pre):
        """Layers 2..L from the first layer's pre-activation `pre`.

        `pre` is overwritten: bias and ReLU are applied in place.
        """
        h = pre
        for w, b in list(self._layers())[1:]:
            np.maximum(h, 0.0, out=h)
            h = h @ w.value
            h += b.value
        return h

    def forward_tape(self, x):
        """Differentiable pass; x is treated as a constant input."""
        h = ad.Var(np.asarray(x, dtype=np.float64))
        n_layers = len(self.widths) - 1
        for i, (w, b) in enumerate(self._layers()):
            h = ad.add(ad.matmul(h, w), b)
            if i < n_layers - 1:
                h = ad.relu(h)
        return h

    def num_params(self):
        return sum(p.value.size for p in self.params)

    def get_arrays(self):
        return [p.value.copy() for p in self.params]

    def set_arrays(self, arrays):
        if len(arrays) != len(self.params):
            raise ValueError("parameter count mismatch")
        for p, a in zip(self.params, arrays):
            a = np.asarray(a, dtype=np.float64)
            if a.shape != p.value.shape:
                raise ValueError("parameter shape mismatch")
            p.value = a.copy()

    def clone(self):
        other = Mlp(self.widths)
        other.set_arrays(self.get_arrays())
        return other


def save_checkpoint(path, nets, meta=None):
    """Write named networks and a JSON meta blob to an npz file."""
    payload = {}
    names = {}
    for name, net in nets.items():
        names[name] = net.widths
        for i, arr in enumerate(net.get_arrays()):
            payload["%s:%d" % (name, i)] = arr.astype("<f8")
    header = {"format": CHECKPOINT_FORMAT, "widths": names,
              "meta": meta or {}}
    payload["header"] = np.frombuffer(
        json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **payload)


def load_checkpoint(path):
    """Read back {name: Mlp} and the meta dict."""
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode("utf-8"))
        if header.get("format") != CHECKPOINT_FORMAT:
            raise ValueError("unsupported checkpoint format %r"
                             % header.get("format"))
        nets = {}
        for name, widths in header["widths"].items():
            net = Mlp(widths)
            n_arrays = 2 * (len(widths) - 1)
            net.set_arrays([data["%s:%d" % (name, i)]
                            for i in range(n_arrays)])
            nets[name] = net
    return nets, header["meta"]
