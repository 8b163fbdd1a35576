"""Plain fully connected networks and npz checkpoints."""

import json
import zipfile

import numpy as np

from ..errors import CheckpointInvalid

CHECKPOINT_FORMAT = 2


class Mlp:
    """ReLU hidden layers, linear output head, parameters of one dtype.

    widths: [input, hidden..., output].  A two-entry widths list is a
    single linear layer.  params is [W1, b1, W2, b2, ...]; every update
    writes into these arrays, so a reference to one stays current.
    dtype (float64 unless given; the trainer asks for float32) is the
    dtype of the parameters and of every pass: inputs are cast to it.
    The He initialization is drawn in float64 and then cast, so a net of
    either dtype takes the same draws from rng.
    """

    def __init__(self, widths, rng=None, dtype=np.float64):
        if len(widths) < 2:
            raise ValueError("need at least input and output widths")
        self.widths = [int(w) for w in widths]
        self.dtype = np.dtype(dtype)
        self.params = []
        for fan_in, fan_out in zip(self.widths[:-1], self.widths[1:]):
            if rng is None:
                w = np.zeros((fan_in, fan_out), dtype=self.dtype)
            else:
                # He initialization for the ReLU stack
                w = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
                w = w.astype(self.dtype, copy=False)
            self.params.append(w)
            self.params.append(np.zeros(fan_out, dtype=self.dtype))

    def forward(self, x):
        """Fast numpy pass.  x: (batch, in) or (in,)."""
        h = np.asarray(x, dtype=self.dtype) @ self.params[0]
        h += self.params[1]
        return self.forward_from(h)

    def forward_from(self, pre):
        """Layers 2..L from the first layer's pre-activation `pre`, which
        must be of the net's dtype.

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
        h = np.asarray(x, dtype=self.dtype)
        tape = []
        mask = None
        for i, (w, b) in enumerate(zip(self.params[0::2], self.params[1::2])):
            tape.append((h, mask))
            h = h @ w + b
            if i < len(self.widths) - 2:
                mask = h > 0.0
                h = h * mask
        return h, tape

    def set_arrays(self, arrays):
        """Copy arrays into the parameters, in place, cast to their dtype."""
        if len(arrays) != len(self.params):
            raise ValueError("parameter count mismatch")
        for p, a in zip(self.params, arrays):
            a = np.asarray(a)
            if a.shape != p.shape:
                raise ValueError("parameter shape mismatch")
            p[...] = a


def save_checkpoint(path, nets, meta=None):
    """Write named networks and a JSON meta blob to an npz file; each
    net's arrays are stored little-endian in its own dtype."""
    payload = {}
    names = {}
    for name, net in nets.items():
        names[name] = net.widths
        stored = net.dtype.newbyteorder("<")
        for i, arr in enumerate(net.params):
            payload["%s:%d" % (name, i)] = arr.astype(stored, copy=False)
    header = {"format": CHECKPOINT_FORMAT, "widths": names,
              "meta": meta or {}}
    payload["header"] = np.frombuffer(
        json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **payload)


def load_checkpoint(path):
    """Read back {name: Mlp} and the meta dict; each net is rebuilt in
    the dtype its arrays were stored in.  Raises CheckpointInvalid for a
    file that cannot be read as a checkpoint of this format."""
    try:
        with np.load(path) as data:
            header = json.loads(bytes(data["header"]).decode("utf-8"))
            if header.get("format") != CHECKPOINT_FORMAT:
                raise CheckpointInvalid(path, "unsupported checkpoint format "
                                        "%r" % header.get("format"))
            nets = {}
            for name, widths in header["widths"].items():
                arrays = [data["%s:%d" % (name, i)]
                          for i in range(2 * (len(widths) - 1))]
                dtype = arrays[0].dtype
                if dtype not in (np.float32, np.float64) \
                        or any(a.dtype != dtype for a in arrays):
                    raise CheckpointInvalid(
                        path, "%s arrays are not all float32 or all float64"
                        % name)
                net = Mlp(widths, dtype=dtype)
                net.set_arrays(arrays)
                nets[name] = net
            meta = header["meta"]
            if not isinstance(meta, dict):
                raise CheckpointInvalid(path, "meta is not a JSON object")
    except (OSError, IndexError, KeyError, TypeError, ValueError,
            zipfile.BadZipFile) as exc:
        raise CheckpointInvalid(path, "cannot read: %s" % exc) from None
    return nets, meta
