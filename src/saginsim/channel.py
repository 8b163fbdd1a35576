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

LIGHT_SPEED = 3.0e8  # m/s


def noise_psd_watts(noise_psd_dbm):
    """dBm/Hz -> W/Hz."""
    return 10.0 ** ((noise_psd_dbm - 30.0) / 10.0)


def channel_gain_matrix(aav3, gd3, radio):
    """(n_aavs, n_gds) linear gains 10^(-PL/10) of every AAV-GD pair, PL
    the free-space loss plus the LoS/NLoS excess weighted by P(LoS), a
    logistic of arctan(height / 3D link distance) in degrees (45 for a GD
    right under the AAV).  tests/test_channel.py keeps the per-pair chain
    as the reference.  aav3: (n_aavs, 3) and gd3: (n_gds, 3) positions.

    Every AAV flies above every GD: the GDs sit at z = 0 and aav_altitude
    is validated into (1e-150, 1e150), so height**2 cannot underflow and
    the link distance d >= height > 0.
    """
    aav3 = np.asarray(aav3, dtype=float)
    gd3 = np.asarray(gd3, dtype=float)
    diff = aav3[:, None, :] - gd3[None, :, :]
    # np.linalg.norm's own formula for one axis, without its dispatch
    d = np.sqrt(np.add.reduce(diff * diff, axis=2))
    height = diff[:, :, 2]
    angle_deg = np.degrees(np.arctan(height / d))
    p_los = 1.0 / (1.0 + radio.los_n1
                   * np.exp(-radio.los_n2 * (angle_deg - radio.los_n1)))
    base = (20.0 * np.log10(d) + 20.0 * math.log10(radio.carrier_freq)
            + 20.0 * math.log10(4.0 * math.pi / LIGHT_SPEED))
    loss_db = base + p_los * radio.excess_los + (1.0 - p_los) * radio.excess_nlos
    return 10.0 ** (-loss_db / 10.0)


def shannon_rate(power, gain, bandwidth, interference, noise_psd_w):
    """B log2(1 + p h / (I + n0 B)), bit/s.

    power, bandwidth and n0 B are > 0 and I >= 0.  Every power is a radio
    field validated > 0.  A bandwidth is a softmax share of bandwidth_aav,
    at least e**-2 / max_served of it, or bandwidth_sat / n_aavs with
    n_aavs >= 1; both budgets are validated >= 1 Hz, so neither share nor
    n0 B underflows.  The rate itself may round to 0 on a faded link;
    service.run_slot leaves such a link's task waiting.
    """
    sinr = power * gain / (interference + noise_psd_w * bandwidth)
    return bandwidth * math.log2(1.0 + sinr)


def g2a_rate(gain, bandwidth, interference, noise_w, radio):
    """GD -> AAV uplink rate over the allocated bandwidth, bit/s.
    noise_w: noise_psd_watts(radio.noise_psd)."""
    return shannon_rate(radio.power_gd, gain, bandwidth, interference,
                        noise_w)


def a2g_rate(gain, bandwidth, noise_w, radio):
    """AAV -> GD downlink rate; downlinks are orthogonal, no interference.
    noise_w: noise_psd_watts(radio.noise_psd)."""
    return shannon_rate(radio.power_aav, gain, bandwidth, 0.0, noise_w)


def sat_attenuation(distance, radio):
    """Linear power attenuation of the AAV-satellite link, rain included.
    distance > 0: the satellite is validated above the AAVs."""
    wavelength = LIGHT_SPEED / radio.carrier_freq
    free = (wavelength / (4.0 * math.pi * distance)) ** 2
    gains = radio.antenna_gain_aav * radio.antenna_gain_sat
    return free * gains * 10.0 ** (-radio.rain_atten / 10.0)


def sat_link_rates(distance, n_connected, noise_w, radio, rain_extra_db=0.0):
    """(up, down) rates of one AAV's satellite link over one attenuation,
    bit/s: the AAV transmits up, the satellite down.  The satellite
    bandwidth is split evenly over the n_connected AAVs holding a link.
    noise_w is noise_psd_watts(radio.noise_psd).  rain_extra_db adds
    episode-level attenuation on top of the configured margin.
    """
    bandwidth = radio.bandwidth_sat / n_connected
    atten = sat_attenuation(distance, radio) * 10.0 ** (-rain_extra_db / 10.0)
    return (shannon_rate(radio.power_aav, atten, bandwidth, 0.0, noise_w),
            shannon_rate(radio.power_sat, atten, bandwidth, 0.0, noise_w))


class InterferenceField:
    """Per-AAV uplink interference power from GDs served by other AAVs.

    served: per AAV, the GDs it serves, each GD in at most one list, as
    association.gs_associate builds them.  Gains are receiver-side: the
    interference seen at AAV v sums power_gd * gain(v, l) over every GD l
    served by some other AAV.  Own-cell GDs never contribute, and each
    power is >= 0, a positive power_gd times a sum of gains.
    """

    def __init__(self, aav_positions, gd_positions, served, radio):
        gains = channel_gain_matrix(aav_positions, gd_positions, radio)
        owner = [-1] * gains.shape[1]
        for v, gds in enumerate(served):
            for g in gds:
                owner[g] = v
        owner = np.array(owner)
        # a served GD is foreign to every AAV but its owner; each row is
        # summed on its own, as a 1-D masked sum
        foreign = (owner >= 0) & (owner != np.arange(len(gains))[:, None])
        self.gains = gains
        self.power = [radio.power_gd * float(row[mask].sum())
                      for row, mask in zip(gains, foreign)]
