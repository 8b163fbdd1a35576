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
    """offload[v] and bandwidth[v] run along served[v], one per GD."""
    displacements: np.ndarray        # (n_aavs, 2) meters
    offload: list                    # per AAV, bools: satellite path when True
    bandwidth: list                  # per AAV, Hz


def _top_positions(raws, m):
    """Indices of the m largest raws, earlier position winning ties."""
    # a reversed sort is still stable: equal raws keep position order
    order = sorted(range(len(raws)), key=raws.__getitem__, reverse=True)
    return sorted(order[:m])


def decode(raw, served, scenario):
    """Decode a raw vector against this slot's association, given as its
    per-AAV served GD lists (association.gs_associate)."""
    raw = np.asarray(raw, dtype=float)
    cap = scenario.max_served
    dim = action_dim(scenario.n_aavs, cap)
    if raw.shape != (dim,):
        raise CodecShape("expected action of shape (%d,), got %s" % (dim, raw.shape))
    if not np.isfinite(raw).all():
        raise CodecShape("non-finite action components")
    rows = np.clip(raw, -1.0, 1.0).reshape(scenario.n_aavs, -1).tolist()
    max_step = scenario.max_step()
    displacements, offload = [], []
    bandwidth = [[] for _ in rows]
    by_count = {}   # served count m -> [(aav, its m selected bandwidth raws)]
    for v, (row, gds) in enumerate(zip(rows, served)):
        dist = (row[0] + 1.0) / 2.0 * max_step
        angle = row[1] * math.pi
        displacements.append((dist * math.cos(angle), dist * math.sin(angle)))
        m = len(gds)
        if m > cap:
            raise CodecShape("AAV %d serves %d GDs, above max_served" % (v, m))
        off_raws = row[2:2 + cap]
        offload.append([off_raws[i] >= 0.0
                        for i in _top_positions(off_raws, m)])
        if m == 0:
            continue
        bw_raws = row[2 + cap:]
        by_count.setdefault(m, []).append(
            (v, [bw_raws[i] for i in _top_positions(bw_raws, m)]))
    # one softmax per served count: each row is reduced on its own, in the
    # order of a 1-D softmax, with no padding to shift its summation
    for group in by_count.values():
        values = np.array([bw for _, bw in group])
        e = np.exp(values - values.max(axis=1, keepdims=True))
        shares = e / e.sum(axis=1, keepdims=True) * scenario.radio.bandwidth_aav
        for (v, _), row in zip(group, shares.tolist()):
            bandwidth[v] = row
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
