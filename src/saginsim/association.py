"""GD-to-AAV association by deferred acceptance.

GDs propose to AAVs in order of increasing 3D distance; an AAV holds at
most `capacity` GDs and, when oversubscribed, evicts its farthest held GD.
Both sides rank purely by distance, so the result is a stable many-to-one
matching: no unmatched GD and AAV pair can both do better.  GDs left
unmatched when every AAV prefers its held set stay idle for the slot.

Determinism: candidate ties broken by lower AAV index, eviction ties by
lower GD index, and unmatched GDs propose in ascending index order.
"""

import heapq

import numpy as np


def _distances(aav_positions, gd_positions, altitude):
    aav = np.asarray(aav_positions, dtype=float)
    gd = np.asarray(gd_positions, dtype=float)
    diff = aav[:, None, :] - gd[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2) + altitude ** 2)


def gs_associate(aav_positions, gd_positions, capacity, altitude):
    """Match GDs to AAVs; returns a (n_aavs, n_gds) 0/1 int matrix.

    aav_positions, gd_positions: ground-plane (x, y) arrays; altitude is the
    common AAV flight height used in the 3D distances.
    """
    dist = _distances(aav_positions, gd_positions, altitude)
    n_aavs, n_gds = dist.shape
    # candidate lists sorted nearest-first; the stable sort breaks ties
    # by lower AAV index
    candidates = np.argsort(dist, axis=0, kind="stable").T.tolist()
    cursor = [0] * n_gds            # next candidate to propose to
    held = [[] for _ in range(n_aavs)]
    free = list(range(n_gds))       # heap of unmatched GDs with candidates left
    proposals = 0
    budget = n_gds * n_aavs
    while free:
        g = heapq.heappop(free)
        v = candidates[g][cursor[g]]
        cursor[g] += 1
        proposals += 1
        assert proposals <= budget, "deferred acceptance failed to terminate"
        held[v].append(g)
        if len(held[v]) > capacity:
            far = max(held[v], key=lambda x: (dist[v, x], -x))
            held[v].remove(far)
            if cursor[far] < n_aavs:
                heapq.heappush(free, far)
    assoc = np.zeros((n_aavs, n_gds), dtype=np.int8)
    for v in range(n_aavs):
        for g in held[v]:
            assoc[v, g] = 1
    return assoc


def blocking_pairs(assoc, aav_positions, gd_positions, capacity, altitude):
    """List (gd, aav) pairs that would both rather match each other.

    A pair blocks when the GD strictly prefers the AAV to its current match
    (or is unmatched) and the AAV either has spare capacity or holds some GD
    strictly farther away.  Used as the stability oracle in tests.
    """
    dist = _distances(aav_positions, gd_positions, altitude)
    n_aavs, n_gds = dist.shape
    assoc = np.asarray(assoc)
    match_of = {}
    for g in range(n_gds):
        owners = np.nonzero(assoc[:, g])[0]
        match_of[g] = int(owners[0]) if len(owners) else -1
    pairs = []
    for g in range(n_gds):
        cur = match_of[g]
        for v in range(n_aavs):
            if v == cur:
                continue
            if cur >= 0 and dist[v, g] >= dist[cur, g]:
                continue
            held = np.nonzero(assoc[v])[0]
            if len(held) < capacity:
                pairs.append((g, v))
            elif any(dist[v, h] > dist[v, g] for h in held):
                pairs.append((g, v))
    return pairs
