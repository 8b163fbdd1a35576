"""Plain fully connected networks and npz checkpoints."""

import json
import zipfile

import numpy as np

from ..errors import CheckpointInvalid

CHECKPOINT_FORMAT = 1


class Mlp:
    """ReLU hidden layers, linear output head, float64 parameters.

    widths: [input, hidden..., output].  A two-entry widths list is a
    single linear layer.  params is [W1, b1, W2, b2, ...]; every update
    writes into these arrays, so a reference to one stays current.
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
            self.params.append(w)
            self.params.append(np.zeros(fan_out))

    def forward(self, x):
        """Fast numpy pass.  x: (batch, in) or (in,)."""
        h = np.asarray(x, dtype=np.float64) @ self.params[0]
        h += self.params[1]
        return self.forward_from(h)

    def forward_from(self, pre):
        """Layers 2..L from the first layer's pre-activation `pre`.

        `pre` is overwritten: bias and ReLU are applied in place.
        """
        h = pre
        for w, b in zip(self.params[2::2], self.params[3::2]):
            np.maximum(h, 0.0, out=h)
            h = h @ w
            h += b
        return h

    def forward_tape(self, x):
        """(output, tape) for a (batch, in) input; the tape holds each
        layer's input and the ReLU mask that produced it (None for x),
        which is what autodiff.backward needs."""
        h = np.asarray(x, dtype=np.float64)
        tape = []
        mask = None
        for i, (w, b) in enumerate(zip(self.params[0::2], self.params[1::2])):
            tape.append((h, mask))
            h = h @ w + b
            if i < len(self.widths) - 2:
                mask = h > 0.0
                h = h * mask
        return h, tape

    def num_params(self):
        return sum(p.size for p in self.params)

    def get_arrays(self):
        return [p.copy() for p in self.params]

    def set_arrays(self, arrays):
        """Copy arrays into the parameters, in place."""
        if len(arrays) != len(self.params):
            raise ValueError("parameter count mismatch")
        for p, a in zip(self.params, arrays):
            a = np.asarray(a, dtype=np.float64)
            if a.shape != p.shape:
                raise ValueError("parameter shape mismatch")
            p[...] = a

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
    """Read back {name: Mlp} and the meta dict; raises CheckpointInvalid
    for a file that cannot be read as a checkpoint of this format."""
    try:
        with np.load(path) as data:
            header = json.loads(bytes(data["header"]).decode("utf-8"))
            if header.get("format") != CHECKPOINT_FORMAT:
                raise CheckpointInvalid(path, "unsupported checkpoint format "
                                        "%r" % header.get("format"))
            nets = {}
            for name, widths in header["widths"].items():
                net = Mlp(widths)
                n_arrays = 2 * (len(widths) - 1)
                net.set_arrays([data["%s:%d" % (name, i)]
                                for i in range(n_arrays)])
                nets[name] = net
    except (OSError, KeyError, TypeError, ValueError,
            zipfile.BadZipFile) as exc:
        raise CheckpointInvalid(path, "cannot read: %s" % exc) from None
    return nets, header["meta"]
