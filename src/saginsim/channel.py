"""Air-to-ground and satellite link models.

G2A/A2G links follow the probabilistic LoS model: an elevation-angle
logistic gives P(LoS), free-space path loss picks up the LoS/NLoS excess
in expectation, and the resulting linear gain feeds a Shannon rate.
The satellite link is a free-space power budget with antenna gains and a
rain attenuation margin.

Positions are 3D numpy arrays in meters.  Powers in watts, bandwidths in
Hz, rates in bit/s.
"""

import math

import numpy as np

from .errors import DegenerateGeometry, InvalidAllocation

LIGHT_SPEED = 3.0e8  # m/s


def noise_psd_watts(noise_psd_dbm):
    """dBm/Hz -> W/Hz."""
    return 10.0 ** ((noise_psd_dbm - 30.0) / 10.0)


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
            + 20.0 * math.log10(4.0 * math.pi / LIGHT_SPEED))


def path_loss_db(aav_pos, gd_pos, radio):
    """Mean path loss of an AAV-GD link, dB."""
    d = float(np.linalg.norm(np.asarray(aav_pos, float) - np.asarray(gd_pos, float)))
    p_los = los_probability(aav_pos, gd_pos, radio.los_n1, radio.los_n2)
    base = free_space_loss_db(d, radio.carrier_freq)
    return base + p_los * radio.excess_los + (1.0 - p_los) * radio.excess_nlos


def channel_gain(aav_pos, gd_pos, radio):
    """Linear power gain 10^(-PL/10) of an AAV-GD link."""
    return 10.0 ** (-path_loss_db(aav_pos, gd_pos, radio) / 10.0)


def channel_gain_matrix(aav3, gd3, radio):
    """(n_aavs, n_gds) linear gains of every AAV-GD pair in one pass.

    Same formula as `channel_gain`, which stays the per-pair reference.
    aav3: (n_aavs, 3) and gd3: (n_gds, 3) positions.
    """
    aav3 = np.asarray(aav3, dtype=float)
    gd3 = np.asarray(gd3, dtype=float)
    diff = aav3[:, None, :] - gd3[None, :, :]
    d = np.linalg.norm(diff, axis=2)
    height = diff[:, :, 2]
    if np.any(d <= 0.0):
        raise DegenerateGeometry("coincident AAV and GD")
    if np.any(height <= 0.0):
        raise DegenerateGeometry("AAV must fly above the GD")
    angle_deg = np.degrees(np.arctan(height / d))
    p_los = 1.0 / (1.0 + radio.los_n1
                   * np.exp(-radio.los_n2 * (angle_deg - radio.los_n1)))
    base = (20.0 * np.log10(d) + 20.0 * math.log10(radio.carrier_freq)
            + 20.0 * math.log10(4.0 * math.pi / LIGHT_SPEED))
    loss_db = base + p_los * radio.excess_los + (1.0 - p_los) * radio.excess_nlos
    return 10.0 ** (-loss_db / 10.0)


def shannon_rate(power, gain, bandwidth, interference, noise_psd_w):
    """B log2(1 + p h / (I + n0 B)), bit/s."""
    if bandwidth <= 0.0:
        raise InvalidAllocation("nonpositive bandwidth")
    if power <= 0.0:
        raise InvalidAllocation("nonpositive transmit power")
    sinr = power * gain / (interference + noise_psd_w * bandwidth)
    return bandwidth * math.log2(1.0 + sinr)


def g2a_rate(gain, bandwidth, interference, radio):
    """GD -> AAV uplink rate over the allocated bandwidth, bit/s."""
    if interference < 0.0:
        raise InvalidAllocation("negative interference power")
    return shannon_rate(radio.power_gd, gain, bandwidth, interference,
                        noise_psd_watts(radio.noise_psd))


def a2g_rate(gain, bandwidth, radio):
    """AAV -> GD downlink rate; downlinks are orthogonal, no interference."""
    return shannon_rate(radio.power_aav, gain, bandwidth, 0.0,
                        noise_psd_watts(radio.noise_psd))


def sat_attenuation(distance, radio):
    """Linear power attenuation of the AAV-satellite link, rain included."""
    if distance <= 0.0:
        raise DegenerateGeometry("nonpositive satellite distance")
    wavelength = LIGHT_SPEED / radio.carrier_freq
    free = (wavelength / (4.0 * math.pi * distance)) ** 2
    gains = radio.antenna_gain_aav * radio.antenna_gain_sat
    return free * gains * 10.0 ** (-radio.rain_atten / 10.0)


def sat_link_rate(distance, direction, n_connected, radio, rain_extra_db=0.0):
    """Rate of the AAV-satellite link, bit/s.

    direction: "up" (AAV transmits) or "down" (satellite transmits).  The
    satellite bandwidth is split evenly over the n_connected AAVs holding a
    link.  rain_extra_db adds episode-level attenuation on top of the
    configured margin.
    """
    if n_connected < 1:
        raise InvalidAllocation("need at least one connected AAV")
    if direction == "up":
        power = radio.power_aav
    elif direction == "down":
        power = radio.power_sat
    else:
        raise InvalidAllocation("direction must be 'up' or 'down'")
    bandwidth = radio.bandwidth_sat / n_connected
    atten = sat_attenuation(distance, radio) * 10.0 ** (-rain_extra_db / 10.0)
    return shannon_rate(power, atten, bandwidth, 0.0,
                        noise_psd_watts(radio.noise_psd))


class InterferenceField:
    """Per-AAV uplink interference power from GDs served by other AAVs.

    association: (n_aavs, n_gds) 0/1 matrix.  Gains are receiver-side: the
    interference seen at AAV v sums power_gd * gain(v, l) over every GD l
    associated to some other AAV.  Own-cell GDs never contribute.
    """

    def __init__(self, aav_positions, gd_positions, association, radio):
        assoc = np.asarray(association)
        n_aavs, _ = assoc.shape
        if assoc.min() < 0 or assoc.max() > 1:
            raise InvalidAllocation("association entries must be 0/1")
        owners = assoc.sum(axis=0)
        if np.any(owners > 1):
            raise InvalidAllocation("a GD is associated to several AAVs")
        gains = channel_gain_matrix(aav_positions, gd_positions, radio)
        served_any = owners.astype(bool)
        power = np.zeros(n_aavs)
        for v in range(n_aavs):
            foreign = served_any & ~assoc[v].astype(bool)
            power[v] = radio.power_gd * gains[v, foreign].sum()
        self.gains = gains
        self.power = power

    def at(self, aav):
        """Interference power at the given AAV, watts."""
        return float(self.power[aav])
