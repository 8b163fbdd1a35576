import math

import numpy as np
import pytest

from saginsim.actions import (DecodedAction, action_dim, clamp_and_penalize,
                              decode)
from saginsim.errors import CodecShape
from saginsim.scenario import Scenario


def make_scenario(**kw):
    base = dict(
        n_aavs=2,
        n_gds=6,
        max_served=2,
        initial_aav_positions=((-250.0, -250.0), (250.0, 250.0)),
        area_bounds=(-500.0, -500.0, 500.0, 500.0),
    )
    base.update(kw)
    return Scenario(**base)


def empty_assoc(sc):
    """Served-GD lists with no GD served."""
    return [[] for _ in range(sc.n_aavs)]


def test_action_dim():
    # per AAV: distance + direction + max_served offload + max_served bandwidth
    assert action_dim(2, 2) == 2 * (2 + 2 * 2)
    assert action_dim(4, 4) == 4 * (2 + 2 * 4)
    assert action_dim(1, 3) == 8


def test_wrong_shape_raises():
    sc = make_scenario()
    dim = action_dim(sc.n_aavs, sc.max_served)
    with pytest.raises(CodecShape):
        decode(np.zeros(dim - 1), empty_assoc(sc), sc)
    with pytest.raises(CodecShape):
        decode(np.zeros((2, dim)), empty_assoc(sc), sc)
    # served lists longer than max_served, such as the rows of a 0/1
    # association matrix passed in their place
    with pytest.raises(CodecShape):
        decode(np.zeros(dim), [[0] * sc.n_gds] * sc.n_aavs, sc)
    with pytest.raises(CodecShape):
        decode(np.zeros(dim), [[0, 1, 2], []], sc)


def test_non_finite_action_raises():
    sc = make_scenario()
    dim = action_dim(sc.n_aavs, sc.max_served)
    raw = np.zeros(dim)
    raw[3] = np.nan
    with pytest.raises(CodecShape):
        decode(raw, empty_assoc(sc), sc)


def test_distance_and_direction_mapping():
    sc = make_scenario()
    dim = action_dim(sc.n_aavs, sc.max_served)
    raw = np.zeros(dim)
    # first AAV: full step heading +pi/2; second AAV: zero move
    raw[0] = 1.0
    raw[1] = 0.5
    raw[6] = -1.0
    dec = decode(raw, empty_assoc(sc), sc)
    step = sc.max_step()
    dx, dy = dec.displacements[0]
    assert math.isclose(np.hypot(dx, dy), step, rel_tol=1e-12)
    assert math.isclose(math.atan2(dy, dx), math.pi / 2, rel_tol=1e-12)
    assert abs(dx) < 1e-9
    assert math.isclose(dy, step, rel_tol=1e-12)
    assert np.hypot(*dec.displacements[1]) == 0.0


def test_midpoint_distance():
    sc = make_scenario()
    raw = np.zeros(action_dim(sc.n_aavs, sc.max_served))
    dec = decode(raw, empty_assoc(sc), sc)
    # raw 0 maps to half of the per-slot envelope, heading along +x
    dx, dy = dec.displacements[0]
    assert math.isclose(np.hypot(dx, dy), sc.max_step() / 2, rel_tol=1e-12)
    assert math.atan2(dy, dx) == 0.0


def test_out_of_range_raw_is_clipped():
    sc = make_scenario()
    raw = np.zeros(action_dim(sc.n_aavs, sc.max_served))
    raw[0] = 3.0
    raw[1] = -7.0
    dec = decode(raw, empty_assoc(sc), sc)
    # clipped to raw 1 and -1: a full step, heading -pi
    dx, dy = dec.displacements[0]
    assert math.isclose(np.hypot(dx, dy), sc.max_step(), rel_tol=1e-12)
    assert -math.pi <= math.atan2(dy, dx) <= math.pi
    assert math.isclose(abs(math.atan2(dy, dx)), math.pi, rel_tol=1e-12)


def test_top_m_offload_raws_map_to_served_ascending():
    sc = make_scenario(max_served=3)
    assoc = empty_assoc(sc)
    assoc[0] = [1, 3]  # two served GDs, three offload slots
    raw = np.zeros(action_dim(sc.n_aavs, sc.max_served))
    # offload raws for AAV 0 sit at positions 2..4
    raw[2] = -0.5
    raw[3] = 0.9
    raw[4] = -0.2
    dec = decode(raw, assoc, sc)
    # top-2 raws are 0.9 (pos 1) and -0.2 (pos 2); GD 1 gets the earlier one
    assert dec.offload == [[True, False], []]


def test_offload_tie_prefers_earlier_position():
    sc = make_scenario(max_served=3)
    assoc = empty_assoc(sc)
    assoc[0] = [0, 2]
    raw = np.zeros(action_dim(sc.n_aavs, sc.max_served))
    raw[2] = 0.7
    raw[3] = 0.7
    raw[4] = -0.3
    dec = decode(raw, assoc, sc)
    # tied 0.7s occupy positions 0 and 1, so -0.3 never reaches a GD
    assert dec.offload[0] == [True, True]


def test_bandwidth_softmax_two_way():
    sc = make_scenario()
    assoc = empty_assoc(sc)
    assoc[0] = [0, 1]
    raw = np.zeros(action_dim(sc.n_aavs, sc.max_served))
    raw[4] = 1.0  # bandwidth raw paired with GD 0
    raw[5] = 0.0  # bandwidth raw paired with GD 1
    dec = decode(raw, assoc, sc)
    b0, b1 = dec.bandwidth[0]
    total = sc.radio.bandwidth_aav
    expect0 = total * math.exp(1.0) / (math.exp(1.0) + 1.0)
    assert math.isclose(b0, expect0, rel_tol=1e-9)
    assert math.isclose(b0 + b1, total, rel_tol=1e-12)
    # hand numbers for the default 5 MHz budget
    assert math.isclose(b0, 3.655293e6, rel_tol=1e-4)
    assert math.isclose(b1, 1.344707e6, rel_tol=1e-4)


def test_bandwidth_sums_to_budget():
    sc = make_scenario()
    rng = np.random.default_rng(9)
    assoc = empty_assoc(sc)
    assoc[0] = [0, 1]
    assoc[1] = [2, 3]
    dim = action_dim(sc.n_aavs, sc.max_served)
    for _ in range(20):
        raw = rng.uniform(-1, 1, size=dim)
        dec = decode(raw, assoc, sc)
        for v in range(sc.n_aavs):
            assert len(dec.bandwidth[v]) == 2
            tot = sum(dec.bandwidth[v])
            assert math.isclose(tot, sc.radio.bandwidth_aav, rel_tol=1e-9)
            assert all(b > 0 for b in dec.bandwidth[v])


def test_single_served_gd_gets_full_budget():
    sc = make_scenario()
    assoc = empty_assoc(sc)
    assoc[1] = [4]
    raw = np.full(action_dim(sc.n_aavs, sc.max_served), -0.25)
    dec = decode(raw, assoc, sc)
    (share,) = dec.bandwidth[1]
    assert math.isclose(share, sc.radio.bandwidth_aav, rel_tol=1e-12)
    assert dec.offload[1] == [False]


def test_no_candidates_means_no_service():
    sc = make_scenario()
    raw = np.ones(action_dim(sc.n_aavs, sc.max_served))
    dec = decode(raw, empty_assoc(sc), sc)
    assert dec.bandwidth == [[], []]
    assert dec.offload == [[], []]


def test_clamp_boundary_event():
    sc = make_scenario()
    prop = np.array([[540.0, 0.0], [-250.0, -250.0]])
    clamped, events = clamp_and_penalize(prop, sc)
    assert clamped[0, 0] == 500.0
    assert events == {"boundary": 1, "collision": 0}


def test_clamp_both_axes_is_one_event():
    sc = make_scenario()
    prop = np.array([[600.0, -700.0], [0.0, 0.0]])
    clamped, events = clamp_and_penalize(prop, sc)
    assert clamped[0].tolist() == [500.0, -500.0]
    assert events["boundary"] == 1


def test_collision_event_counts_pairs():
    sc = make_scenario(safe_distance=50.0)
    prop = np.array([[0.0, 0.0], [30.0, 0.0]])
    clamped, events = clamp_and_penalize(prop, sc)
    assert events["collision"] == 1
    assert events["boundary"] == 0


def test_three_way_collision_counts_three_pairs():
    sc = make_scenario(n_aavs=3, safe_distance=50.0,
                       initial_aav_positions=((-250.0, -250.0),
                                              (250.0, 250.0), (0.0, 0.0)))
    prop = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    clamped, events = clamp_and_penalize(prop, sc)
    assert events["collision"] == 3


def test_no_events_inside_bounds():
    sc = make_scenario()
    prop = np.array([[10.0, 10.0], [210.0, 190.0]])
    clamped, events = clamp_and_penalize(prop, sc)
    assert np.array_equal(clamped, prop)
    assert events == {"boundary": 0, "collision": 0}


def test_decoded_action_is_plain_container():
    sc = make_scenario()
    dec = decode(np.zeros(action_dim(sc.n_aavs, sc.max_served)),
                 empty_assoc(sc), sc)
    assert isinstance(dec, DecodedAction)
    assert dec.displacements.shape == (sc.n_aavs, 2)


def loop_decode(raw, association, scenario):
    """Per-AAV, per-element decode on numpy scalars; the reference that
    decode must equal to the last bit.  association: served-GD lists."""
    raw = np.clip(np.asarray(raw, dtype=float), -1.0, 1.0)
    cap = scenario.max_served
    max_step = scenario.max_step()
    displacements = np.zeros((scenario.n_aavs, 2))
    offload, bandwidth = [], []
    width = 2 + 2 * cap
    for v in range(scenario.n_aavs):
        base = v * width
        dist = (raw[base] + 1.0) / 2.0 * max_step
        angle = raw[base + 1] * math.pi
        displacements[v] = (dist * math.cos(angle), dist * math.sin(angle))
        m = len(association[v])
        offload.append([])
        bandwidth.append([])
        if m == 0:
            continue
        off_raws = raw[base + 2: base + 2 + cap]
        bw_raws = raw[base + 2 + cap: base + 2 + 2 * cap]
        off_idx = sorted(sorted(range(cap), key=lambda i: (-off_raws[i], i))[:m])
        bw_idx = sorted(sorted(range(cap), key=lambda i: (-bw_raws[i], i))[:m])
        values = bw_raws[bw_idx]
        e = np.exp(values - values.max())
        shares = e / e.sum() * scenario.radio.bandwidth_aav
        for k in range(m):
            offload[v].append(bool(off_raws[off_idx[k]] >= 0.0))
            bandwidth[v].append(float(shares[k]))
    return displacements, offload, bandwidth


def decode_cases(n_aavs, cap):
    """Associations for the loop-reference test: every served count from
    0 to cap on some AAV, an AAV with no GD in each, and every AAV full."""
    counts = [[(v + k) % (cap + 1) for v in range(n_aavs)]
              for k in range(cap + 1)]
    counts.append([cap] * n_aavs)
    cases = []
    for per_aav in counts:
        # interleaved GD indices, so served lists are not contiguous
        cases.append([[v + n_aavs * k for k in range(m)]
                      for v, m in enumerate(per_aav)])
    return cases


def test_decode_equals_loop_reference():
    # cap 9 gives rows of 8 or more bandwidth raws, where numpy sums the
    # softmax denominator pairwise
    rng = np.random.default_rng(11)
    for n_aavs, cap in ((3, 3), (4, 4), (4, 9)):
        sc = make_scenario(n_aavs=n_aavs, n_gds=n_aavs * cap, max_served=cap,
                           initial_aav_positions=((0.0, 0.0),) * n_aavs)
        dim = action_dim(sc.n_aavs, sc.max_served)
        # ties, signed zeros and out-of-range raws, then plain uniform raws
        levels = [-3.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0]
        raws = [rng.choice(levels, size=dim) for _ in range(100)]
        raws += [rng.uniform(-1.5, 1.5, size=dim) for _ in range(100)]
        raws += [np.full(dim, 0.5), np.full(dim, -0.0), np.zeros(dim)]
        for assoc in decode_cases(n_aavs, cap):
            for raw in raws:
                dec = decode(raw, assoc, sc)
                displacements, offload, bandwidth = loop_decode(raw, assoc, sc)
                assert dec.displacements.tobytes() == displacements.tobytes()
                assert dec.offload == offload
                assert all(type(flag) is bool
                           for flags in dec.offload for flag in flags)
                assert dec.bandwidth == bandwidth


def loop_clamp(positions, scenario):
    """Per-AAV, per-pair clamp and event count; the reference that
    clamp_and_penalize must equal to the last bit."""
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


@pytest.mark.parametrize("positions", [
    [[500.0, 0.0], [-500.0, 500.0], [0.0, -500.0], [100.0, 100.0]],
    [[0.0, 0.0], [50.0, 0.0], [30.0, 40.0], [-30.0, -40.0]],
    [[10.0, 10.0], [10.0, 10.0], [10.0, 10.0], [400.0, 0.0]],
    [[510.0, 510.0], [500.0, 500.0], [-600.0, 0.0], [-500.0, 40.0]],
    [[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [250.0, 250.0]],
], ids=["on-boundary", "at-safe-distance", "coincident", "clamped-onto-others",
        "signed-zeros"])
def test_clamp_equals_loop_reference(positions):
    for bounds in ((-500.0, -500.0, 500.0, 500.0), (0.0, 0.0, 500.0, 500.0)):
        sc = make_scenario(n_aavs=4, safe_distance=50.0, area_bounds=bounds,
                           initial_aav_positions=((0.0, 0.0),) * 4)
        clamped, events = clamp_and_penalize(np.array(positions), sc)
        ref_clamped, ref_events = loop_clamp(positions, sc)
        assert clamped.tobytes() == ref_clamped.tobytes()
        assert events == ref_events


def test_clamp_equals_loop_reference_on_a_lattice():
    sc = make_scenario(n_aavs=5, safe_distance=50.0,
                       initial_aav_positions=((0.0, 0.0),) * 5)
    rng = np.random.default_rng(12)
    for _ in range(500):
        positions = rng.integers(-12, 13, size=(5, 2)) * 50.0
        clamped, events = clamp_and_penalize(positions, sc)
        ref_clamped, ref_events = loop_clamp(positions, sc)
        assert clamped.tobytes() == ref_clamped.tobytes()
        assert events == ref_events
    for _ in range(500):
        positions = rng.uniform(-600.0, 600.0, size=(5, 2))
        clamped, events = clamp_and_penalize(positions, sc)
        assert events == loop_clamp(positions, sc)[1]


def test_collision_threshold_is_the_reference_norm_to_the_last_bit():
    # safe_distance set to the reference's own distance of the pair and to
    # the next float above it: a distance off by one unit in the last place
    # counts the pair on the wrong side
    rng = np.random.default_rng(13)
    for _ in range(300):
        positions = rng.uniform(-500.0, 500.0, size=(2, 2))
        dist = float(np.linalg.norm(positions[0] - positions[1]))
        for safe, expected in ((dist, 0), (np.nextafter(dist, np.inf), 1)):
            sc = make_scenario(safe_distance=float(safe))
            _, events = clamp_and_penalize(positions, sc)
            assert events["collision"] == expected
            assert events == loop_clamp(positions, sc)[1]
