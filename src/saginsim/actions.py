"""Raw action vector codec.

A policy emits one flat vector in [-1, 1]^dim.  Per AAV the layout is

    [distance, direction, offload_1..offload_cap, bandwidth_1..bandwidth_cap]

so dim = n_aavs * (2 + 2 * max_served).  Distance maps to [0, max_step]
meters, direction to [-pi, pi] radians.  When the AAV serves m <= cap GDs,
the m highest-valued offload raws (position order on ties) are assigned to
the served GDs in ascending GD index; a raw >= 0 sends the task through the
satellite.  The bandwidth raws selected the same way are softmaxed and
scaled by the per-AAV bandwidth budget, so shares are strictly positive and
sum to the budget.
"""

import dataclasses
import math

import numpy as np

from .association import served_gds
from .errors import CodecShape


def action_dim(n_aavs, max_served):
    return n_aavs * (2 + 2 * max_served)


@dataclasses.dataclass
class DecodedAction:
    displacements: np.ndarray        # (n_aavs, 2) meters
    offload: dict                    # (aav, gd) -> bool, satellite path when True
    bandwidth: dict                  # (aav, gd) -> Hz


def _top_positions(raws, m):
    """Indices of the m largest raws, earlier position winning ties."""
    # a reversed sort is still stable: equal raws keep position order
    order = sorted(range(len(raws)), key=raws.__getitem__, reverse=True)
    return sorted(order[:m])


def _softmax(values):
    values = np.asarray(values, dtype=float)
    shifted = values - values.max()
    e = np.exp(shifted)
    return e / e.sum()


def decode(raw, association, scenario):
    """Decode a raw vector against this slot's association matrix."""
    raw = np.asarray(raw, dtype=float)
    cap = scenario.max_served
    dim = action_dim(scenario.n_aavs, cap)
    if raw.shape != (dim,):
        raise CodecShape("expected action of shape (%d,), got %s" % (dim, raw.shape))
    if not np.all(np.isfinite(raw)):
        raise CodecShape("non-finite action components")
    rows = np.clip(raw, -1.0, 1.0).reshape(scenario.n_aavs, -1).tolist()
    max_step = scenario.max_step()
    displacements = []
    offload = {}
    bandwidth = {}
    for v, (row, served) in enumerate(zip(rows, served_gds(association))):
        dist = (row[0] + 1.0) / 2.0 * max_step
        angle = row[1] * math.pi
        displacements.append((dist * math.cos(angle), dist * math.sin(angle)))
        m = len(served)
        if m == 0:
            continue
        off_raws = row[2:2 + cap]
        bw_raws = row[2 + cap:]
        off_idx = _top_positions(off_raws, m)
        shares = _softmax([bw_raws[i] for i in _top_positions(bw_raws, m)]) \
            * scenario.radio.bandwidth_aav
        for k, g in enumerate(served):
            offload[(v, g)] = off_raws[off_idx[k]] >= 0.0
            bandwidth[(v, g)] = float(shares[k])
    return DecodedAction(displacements=np.array(displacements),
                         offload=offload, bandwidth=bandwidth)


def clamp_and_penalize(positions, scenario):
    """Clamp commanded positions to the area and count penalty events.

    positions: (n_aavs, 2) commanded ground coordinates.  Returns the
    clamped array (a copy) and the slot record's "events" block:
    "boundary", the AAVs clamped back inside the area, and "collision",
    the unordered AAV pairs closer than the safe distance.  Collisions are
    counted on the clamped coordinates; positions are never altered to
    resolve them.
    """
    x_min, y_min, x_max, y_max = scenario.area_bounds
    pos = np.array(positions, dtype=float)
    clamped = np.empty_like(pos)
    clamped[:, 0] = np.clip(pos[:, 0], x_min, x_max)
    clamped[:, 1] = np.clip(pos[:, 1], y_min, y_max)
    boundary = int(np.count_nonzero((pos != clamped).any(axis=1)))
    diff = clamped[:, None, :] - clamped[None, :, :]
    # a matmul of a difference with itself is the dot product that
    # np.linalg.norm takes of one pair, to the last bit; a sum of squares
    # is not
    dist = np.sqrt(diff[..., None, :] @ diff[..., :, None])[..., 0, 0]
    order = np.arange(len(pos))
    collision = int(np.count_nonzero((dist < scenario.safe_distance)
                                     & (order[:, None] < order)))
    return clamped, {"boundary": boundary, "collision": collision}
