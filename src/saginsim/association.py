"""GD-to-AAV association: the stable matching of GD-proposing deferred
acceptance, found by one scan over the AAV-GD pairs.

GDs propose to AAVs in order of increasing 3D distance; an AAV holds at
most `capacity` GDs and, when oversubscribed, evicts its farthest held GD.
Both sides rank purely by distance, so the result is a stable many-to-one
matching: no unmatched GD and AAV pair can both do better.  GDs left
unmatched when every AAV prefers its held set stay idle for the slot.

Ties: a GD prefers the lower AAV index, and an AAV evicts the lower GD
index, so it keeps the higher.  Sorting the pairs by the key
(distance, AAV index, -GD index) orders them in a way that agrees with
every GD's and every AAV's preferences at once.  Under such a common
order the stable matching is unique (Gale & Shapley 1962): the first pair
whose GD is still free and whose AAV still has room must be matched in
every stable matching, since both sides rank it above anything else left
to them.  Taking pairs in key order on that rule therefore gives the
deferred-acceptance result, ties included, without proposals or
evictions.
"""

import numpy as np


def _distances(aav_positions, gd_positions, altitude):
    aav = np.asarray(aav_positions, dtype=float)
    gd = np.asarray(gd_positions, dtype=float)
    diff = aav[:, None, :] - gd[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2) + altitude ** 2)


def gs_associate(aav_positions, gd_positions, capacity, altitude):
    """Match GDs to AAVs; returns, per AAV, the ascending indices of the
    GDs it serves, as lists.  Each GD is in at most one list, and each
    list holds at most `capacity` GDs.

    aav_positions, gd_positions: ground-plane (x, y) arrays; altitude is the
    common AAV flight height used in the 3D distances.
    """
    dist = _distances(aav_positions, gd_positions, altitude)
    n_aavs, n_gds = dist.shape
    aav_idx, gd_idx = np.divmod(np.arange(n_aavs * n_gds), n_gds)
    # lexsort's last key is the primary one
    order = np.lexsort((-gd_idx, aav_idx, dist.ravel()))
    gd_free = [True] * n_gds
    served = [[] for _ in range(n_aavs)]
    left = min(n_gds, n_aavs * capacity)
    for pair in order.tolist():
        if not left:
            break
        v, g = divmod(pair, n_gds)
        if gd_free[g] and len(served[v]) < capacity:
            gd_free[g] = False
            served[v].append(g)
            left -= 1
    return [sorted(gds) for gds in served]

