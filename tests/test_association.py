import heapq

import numpy as np

from saginsim.association import _distances, blocking_pairs, gs_associate

ALT = 100.0


def deferred_acceptance(aav_positions, gd_positions, capacity, altitude):
    """GD-proposing deferred acceptance, the reference for gs_associate.

    GDs propose nearest-first (equal distances: lower AAV index first),
    unmatched GDs propose in ascending index order, and an oversubscribed
    AAV evicts its farthest held GD (equal distances: the lower GD index).
    """
    dist = _distances(aav_positions, gd_positions, altitude)
    n_aavs, n_gds = dist.shape
    candidates = np.argsort(dist, axis=0, kind="stable").T.tolist()
    cursor = [0] * n_gds
    held = [[] for _ in range(n_aavs)]
    free = list(range(n_gds))
    proposals = 0
    while free:
        g = heapq.heappop(free)
        v = candidates[g][cursor[g]]
        cursor[g] += 1
        proposals += 1
        assert proposals <= n_gds * n_aavs, "deferred acceptance did not end"
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


def geometries(count, seed):
    """(aav, gd, capacity) cases; every second one on a 50 m lattice, where
    distances tie exactly and GDs can coincide."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n_aavs = int(rng.integers(1, 6))
        n_gds = int(rng.integers(1, 12))
        capacity = int(rng.integers(1, 5))
        if k % 2:
            aav = rng.integers(-3, 4, size=(n_aavs, 2)) * 50.0
            gd = rng.integers(-3, 4, size=(n_gds, 2)) * 50.0
        else:
            aav = rng.uniform(-800, 800, size=(n_aavs, 2))
            gd = rng.uniform(-800, 800, size=(n_gds, 2))
        yield aav, gd, capacity


def test_pair_scan_equals_deferred_acceptance():
    for aav, gd, capacity in geometries(2000, seed=4):
        assoc = gs_associate(aav, gd, capacity, ALT)
        expected = deferred_acceptance(aav, gd, capacity, ALT)
        assert assoc.dtype == expected.dtype
        assert np.array_equal(assoc, expected), (aav, gd, capacity)
        assert blocking_pairs(assoc, aav, gd, capacity, ALT) == []


def test_capacity_never_exceeded():
    rng = np.random.default_rng(0)
    for _ in range(50):
        aav = rng.uniform(-500, 500, size=(3, 2))
        gd = rng.uniform(-500, 500, size=(10, 2))
        assoc = gs_associate(aav, gd, capacity=2, altitude=ALT)
        assert assoc.sum(axis=1).max() <= 2
        assert assoc.sum(axis=0).max() <= 1


def test_everyone_matched_when_capacity_allows():
    rng = np.random.default_rng(1)
    aav = rng.uniform(-500, 500, size=(2, 2))
    gd = rng.uniform(-500, 500, size=(5, 2))
    assoc = gs_associate(aav, gd, capacity=4, altitude=ALT)
    # 8 slots for 5 GDs: nobody stays idle
    assert assoc.sum() == 5


def test_single_aav_takes_nearest():
    aav = np.array([[0.0, 0.0]])
    gd = np.array([[10.0, 0.0], [500.0, 0.0], [20.0, 0.0], [700.0, 0.0]])
    assoc = gs_associate(aav, gd, capacity=2, altitude=ALT)
    assert assoc[0].tolist() == [1, 0, 1, 0]


def test_no_blocking_pairs_on_random_geometries():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n_aavs = int(rng.integers(1, 4))
        n_gds = int(rng.integers(1, 7))
        cap = int(rng.integers(1, 3))
        aav = rng.uniform(-800, 800, size=(n_aavs, 2))
        gd = rng.uniform(-800, 800, size=(n_gds, 2))
        assoc = gs_associate(aav, gd, capacity=cap, altitude=ALT)
        assert blocking_pairs(assoc, aav, gd, cap, ALT) == []


def test_deterministic_output():
    rng = np.random.default_rng(3)
    aav = rng.uniform(-100, 100, size=(3, 2))
    gd = rng.uniform(-100, 100, size=(8, 2))
    a = gs_associate(aav, gd, 2, ALT)
    b = gs_associate(aav, gd, 2, ALT)
    assert np.array_equal(a, b)


def test_equidistant_tie_goes_to_lower_aav_index():
    aav = np.array([[-100.0, 0.0], [100.0, 0.0]])
    gd = np.array([[0.0, 0.0]])
    assoc = gs_associate(aav, gd, capacity=1, altitude=ALT)
    assert assoc[0, 0] == 1 and assoc[1, 0] == 0
    # three GDs tied over four AAVs fill the three lowest-indexed AAVs
    aav = np.array([[100.0, 0.0], [0.0, 100.0], [-100.0, 0.0], [0.0, -100.0]])
    gd = np.zeros((3, 2))
    assoc = gs_associate(aav, gd, capacity=1, altitude=ALT)
    assert assoc.sum(axis=1).tolist() == [1, 1, 1, 0]


def test_overflow_leaves_farthest_gds_idle():
    aav = np.array([[0.0, 0.0]])
    gd = np.array([[10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
    assoc = gs_associate(aav, gd, capacity=2, altitude=ALT)
    assert assoc[0].tolist() == [1, 1, 0]
