import math

import numpy as np
import pytest

from saginsim import channel
from saginsim.errors import DegenerateGeometry, InvalidAllocation
from saginsim.scenario import RadioParams

RADIO = RadioParams()
N0 = channel.noise_psd_watts(RADIO.noise_psd)


# The per-pair channel chain: the reference that channel_gain_matrix must
# equal, one AAV-GD link at a time on plain floats.

def los_probability(aav_pos, gd_pos, n1, n2):
    """Logistic LoS probability from the elevation-angle proxy in degrees.

    The angle argument is arctan(height / link distance) with the full 3D
    link distance, so a GD directly under the AAV sits at 45 degrees.
    """
    aav_pos = np.asarray(aav_pos, dtype=float)
    gd_pos = np.asarray(gd_pos, dtype=float)
    d = float(np.linalg.norm(aav_pos - gd_pos))
    if d <= 0.0:
        raise DegenerateGeometry("coincident AAV and GD")
    height = float(aav_pos[2] - gd_pos[2])
    if height <= 0.0:
        raise DegenerateGeometry("AAV must fly above the GD")
    angle_deg = math.degrees(math.atan(height / d))
    return 1.0 / (1.0 + n1 * math.exp(-n2 * (angle_deg - n1)))


def free_space_loss_db(distance, carrier_freq):
    """20 log10(d) + 20 log10(f) + 20 log10(4 pi / c), dB."""
    if distance <= 0.0:
        raise DegenerateGeometry("nonpositive link distance")
    return (20.0 * math.log10(distance) + 20.0 * math.log10(carrier_freq)
            + 20.0 * math.log10(4.0 * math.pi / channel.LIGHT_SPEED))


def path_loss_db(aav_pos, gd_pos, radio):
    """Mean path loss of an AAV-GD link, dB."""
    d = float(np.linalg.norm(np.asarray(aav_pos, float) - np.asarray(gd_pos, float)))
    p_los = los_probability(aav_pos, gd_pos, radio.los_n1, radio.los_n2)
    base = free_space_loss_db(d, radio.carrier_freq)
    return base + p_los * radio.excess_los + (1.0 - p_los) * radio.excess_nlos


def channel_gain(aav_pos, gd_pos, radio):
    """Linear power gain 10^(-PL/10) of an AAV-GD link."""
    return 10.0 ** (-path_loss_db(aav_pos, gd_pos, radio) / 10.0)


def test_los_probability_overhead():
    # GD straight below the AAV: angle argument is 45 degrees
    p = los_probability([0.0, 0.0, 100.0], [0.0, 0.0, 0.0],
                        RADIO.los_n1, RADIO.los_n2)
    assert abs(p - 0.9677) < 1e-3


def test_los_probability_closed_form():
    aav = [30.0, -40.0, 120.0]
    gd = [-10.0, 25.0, 0.0]
    d = math.dist(aav, gd)
    angle = math.degrees(math.atan(120.0 / d))
    expected = 1.0 / (1.0 + 9.61 * math.exp(-0.16 * (angle - 9.61)))
    got = los_probability(aav, gd, 9.61, 16e-2)
    assert abs(got - expected) < 1e-12
    assert 0.0 < got < 1.0


def test_los_probability_n2_zero_limit():
    p = los_probability([0.0, 0.0, 100.0], [50.0, 0.0, 0.0], 9.61, 1e-12)
    assert abs(p - 1.0 / (1.0 + 9.61)) < 1e-6


def test_los_probability_decreases_with_ground_distance():
    last = 1.0
    for ground in (0.0, 100.0, 300.0, 1000.0):
        p = los_probability([0.0, 0.0, 100.0], [ground, 0.0, 0.0],
                            RADIO.los_n1, RADIO.los_n2)
        assert p < last or ground == 0.0
        last = p


def test_los_degenerate_geometry():
    with pytest.raises(DegenerateGeometry):
        los_probability([0.0, 0.0, 100.0], [0.0, 0.0, 100.0], 9.61, 0.16)


def test_free_space_loss_100m_2ghz():
    # 20log10(100) + 20log10(2e9) + 20log10(4pi/3e8) = 78.46 dB
    loss = free_space_loss_db(100.0, 2.0e9)
    assert abs(loss - 78.46) < 5e-3


def test_path_loss_blends_excess():
    aav = [0.0, 0.0, 100.0]
    gd = [60.0, -80.0, 0.0]
    p_los = los_probability(aav, gd, RADIO.los_n1, RADIO.los_n2)
    base = free_space_loss_db(math.dist(aav, gd), RADIO.carrier_freq)
    expected = base + p_los * RADIO.excess_los + (1 - p_los) * RADIO.excess_nlos
    assert abs(path_loss_db(aav, gd, RADIO) - expected) < 1e-12


def test_channel_gain_is_linear_of_path_loss():
    aav = [0.0, 0.0, 100.0]
    gd = [10.0, 20.0, 0.0]
    pl = path_loss_db(aav, gd, RADIO)
    assert abs(channel_gain(aav, gd, RADIO) - 10 ** (-pl / 10)) < 1e-18


def test_noise_psd_watts():
    assert abs(channel.noise_psd_watts(-174.0) - 10 ** (-20.4)) < 1e-25


def test_shannon_rate_hand_case():
    # B log2(1 + p h / (I + n0 B)) with easy numbers
    rate = channel.shannon_rate(power=2.0, gain=0.5, bandwidth=1000.0,
                                interference=0.0, noise_psd_w=1e-3)
    assert abs(rate - 1000.0 * math.log2(1.0 + 1.0)) < 1e-9


def test_g2a_rate_monotone_in_bandwidth():
    # more bandwidth never slows a link down (noise grows, log wins)
    gain = 1e-9
    last = 0.0
    for bw in (1e5, 5e5, 1e6, 5e6):
        r = channel.g2a_rate(gain, bw, 0.0, N0, RADIO)
        assert r > last
        last = r


def test_g2a_rate_interference_hurts():
    gain = 1e-9
    clean = channel.g2a_rate(gain, 1e6, 0.0, N0, RADIO)
    dirty = channel.g2a_rate(gain, 1e6, 1e-12, N0, RADIO)
    assert dirty < clean


def test_rate_rejects_bad_allocation():
    with pytest.raises(InvalidAllocation):
        channel.g2a_rate(1e-9, 0.0, 0.0, N0, RADIO)
    with pytest.raises(InvalidAllocation):
        channel.g2a_rate(1e-9, 1e6, -1.0, N0, RADIO)
    with pytest.raises(InvalidAllocation):
        channel.a2g_rate(1e-9, 1e6, N0, RadioParams(power_aav=0.0))
    with pytest.raises(InvalidAllocation):
        channel.sat_link_rates(8.0e5, 0, N0, RADIO)
    with pytest.raises(DegenerateGeometry):
        channel.sat_link_rates(0.0, 1, N0, RADIO)


def test_sat_attenuation_formula():
    d = 8.0e5
    lam = channel.LIGHT_SPEED / RADIO.carrier_freq
    expected = (lam / (4 * math.pi * d)) ** 2 * 1e5 * 1e5 * 10 ** (-0.6)
    assert abs(channel.sat_attenuation(d, RADIO) - expected) < abs(expected) * 1e-12


def test_sat_link_rate_bandwidth_share():
    # four connected AAVs quarter the satellite bandwidth
    r1, _ = channel.sat_link_rates(8.0e5, 1, N0, RADIO)
    r4, _ = channel.sat_link_rates(8.0e5, 4, N0, RADIO)
    atten = channel.sat_attenuation(8.0e5, RADIO)
    bw = RADIO.bandwidth_sat / 4.0
    byhand = bw * math.log2(1.0 + RADIO.power_aav * atten / (N0 * bw))
    assert abs(r4 - byhand) < abs(byhand) * 1e-12
    assert r4 < r1


def test_sat_link_rate_directions_differ_by_power():
    up, down = channel.sat_link_rates(8.0e5, 2, N0, RADIO)
    assert down > up  # satellite transmits far hotter


def test_rain_extra_db_reduces_rate():
    base = channel.sat_link_rates(8.0e5, 2, N0, RADIO)
    wet = channel.sat_link_rates(8.0e5, 2, N0, RADIO, rain_extra_db=10.0)
    assert wet[0] < base[0] and wet[1] < base[1]


def test_gain_matrix_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        aav = np.column_stack([rng.uniform(-1500, 1500, (4, 2)),
                               np.full(4, 100.0)])
        gd = np.column_stack([rng.uniform(-1500, 1500, (30, 2)),
                              np.zeros(30)])
        gd[:2, :2] = aav[:2, :2]   # GDs directly under an AAV
        got = channel.channel_gain_matrix(aav, gd, RADIO)
        expect = np.array([[channel_gain(a, g, RADIO) for g in gd]
                           for a in aav])
        assert got.shape == (4, 30)
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0.0)


def test_gain_matrix_degenerate_geometry():
    aav = np.array([[0.0, 0.0, 100.0], [500.0, 0.0, 100.0]])
    coincident = np.array([[300.0, 0.0, 0.0], [500.0, 0.0, 100.0]])
    above = np.array([[300.0, 0.0, 0.0], [0.0, 50.0, 150.0]])
    for gd in (coincident, above):
        with pytest.raises(DegenerateGeometry):
            channel.channel_gain_matrix(aav, gd, RADIO)


def test_interference_field_excludes_own_cell():
    aav = np.array([[0.0, 0.0, 100.0], [500.0, 0.0, 100.0]])
    gd = np.array([[0.0, 10.0, 0.0], [500.0, 10.0, 0.0]])
    assoc = np.array([[1, 0], [0, 1]])
    field = channel.InterferenceField(aav, gd, assoc, RADIO)
    # AAV 0 hears only GD 1 (served by AAV 1)
    expected = RADIO.power_gd * channel_gain(aav[0], gd[1], RADIO)
    assert abs(field.power[0] - expected) < abs(expected) * 1e-12
    assert field.power[0] >= 0.0 and field.power[1] >= 0.0


def test_interference_field_unserved_gds_silent():
    aav = np.array([[0.0, 0.0, 100.0], [300.0, 0.0, 100.0]])
    gd = np.array([[10.0, 0.0, 0.0], [290.0, 0.0, 0.0], [150.0, 0.0, 0.0]])
    assoc = np.array([[1, 0, 0], [0, 1, 0]])  # GD 2 idle
    field = channel.InterferenceField(aav, gd, assoc, RADIO)
    expected0 = RADIO.power_gd * channel_gain(aav[0], gd[1], RADIO)
    assert abs(field.power[0] - expected0) < abs(expected0) * 1e-12


def test_interference_field_rejects_double_assignment():
    aav = np.array([[0.0, 0.0, 100.0], [300.0, 0.0, 100.0]])
    gd = np.array([[10.0, 0.0, 0.0]])
    # a GD served twice, and entries that are not 0/1
    for assoc in ([[1], [1]], [[2], [0]], [[-1], [0]]):
        with pytest.raises(InvalidAllocation):
            channel.InterferenceField(aav, gd, np.array(assoc), RADIO)


def loop_interference(gains, association, power_gd):
    """Per-AAV masked sums; the reference that InterferenceField.power
    must equal to the last bit."""
    assoc = np.asarray(association)
    served_any = assoc.sum(axis=0).astype(bool)
    power = np.zeros(len(assoc))
    for v in range(len(assoc)):
        foreign = served_any & ~assoc[v].astype(bool)
        power[v] = power_gd * gains[v, foreign].sum()
    return power


def test_interference_field_equals_loop_reference():
    # up to 40 GDs, so a row can hold 8 or more foreign gains, where numpy
    # sums pairwise; owner -1 leaves a GD idle, and AAVs drawn no GD serve
    # an empty cell
    rng = np.random.default_rng(21)
    for _ in range(300):
        n_aavs = int(rng.integers(1, 7))
        n_gds = int(rng.integers(1, 41))
        aav = np.column_stack([rng.uniform(-1500, 1500, (n_aavs, 2)),
                               np.full(n_aavs, 100.0)])
        gd = np.column_stack([rng.uniform(-1500, 1500, (n_gds, 2)),
                              np.zeros(n_gds)])
        owner = rng.integers(-1, int(rng.integers(0, n_aavs + 1)), n_gds)
        assoc = np.zeros((n_aavs, n_gds), dtype=np.int8)
        assoc[owner[owner >= 0], np.flatnonzero(owner >= 0)] = 1
        field = channel.InterferenceField(aav, gd, assoc, RADIO)
        gains = channel.channel_gain_matrix(aav, gd, RADIO)
        expect = loop_interference(gains, assoc, RADIO.power_gd)
        np.testing.assert_array_equal(field.gains, gains)
        np.testing.assert_array_equal(field.power, expect)
        assert all(field.power[v] == expect[v] for v in range(n_aavs))
