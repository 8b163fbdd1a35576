import numpy as np

from saginsim.association import blocking_pairs, gs_associate

ALT = 100.0


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
