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
    order = sorted(range(len(raws)), key=lambda i: (-raws[i], i))
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
    raw = np.clip(raw, -1.0, 1.0)
    assoc = np.asarray(association)
    max_step = scenario.max_step()
    displacements = np.zeros((scenario.n_aavs, 2))
    offload = {}
    bandwidth = {}
    width = 2 + 2 * cap
    for v in range(scenario.n_aavs):
        base = v * width
        dist = (raw[base] + 1.0) / 2.0 * max_step
        angle = raw[base + 1] * math.pi
        displacements[v] = (dist * math.cos(angle), dist * math.sin(angle))
        served = np.nonzero(assoc[v])[0]
        m = len(served)
        if m == 0:
            continue
        off_raws = raw[base + 2: base + 2 + cap]
        bw_raws = raw[base + 2 + cap: base + 2 + 2 * cap]
        off_idx = _top_positions(off_raws, m)
        bw_idx = _top_positions(bw_raws, m)
        shares = _softmax(bw_raws[bw_idx]) * scenario.radio.bandwidth_aav
        for k, g in enumerate(sorted(served)):
            offload[(v, int(g))] = bool(off_raws[off_idx[k]] >= 0.0)
            bandwidth[(v, int(g))] = float(shares[k])
    return DecodedAction(displacements=displacements, offload=offload,
                         bandwidth=bandwidth)


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
    boundary = sum(not np.array_equal(pos[v], clamped[v])
                   for v in range(len(pos)))
    collision = sum(1 for i in range(len(pos)) for j in range(i + 1, len(pos))
                    if np.linalg.norm(clamped[i] - clamped[j])
                    < scenario.safe_distance)
    return clamped, {"boundary": boundary, "collision": collision}
