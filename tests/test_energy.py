import math

import numpy as np

from saginsim.energy import (compute_energy, propulsion_energy,
                             propulsion_power)
from saginsim.scenario import EnergyParams


def cruise_and_hover(max_speed, params):
    return propulsion_power(max_speed, params), propulsion_power(0.0, params)


def naive_power(speed, p):
    """Textbook form of the rotary-wing power curve, for cross-checking."""
    v2 = speed * speed
    blade = p.blade_power * (1.0 + 3.0 * v2 / p.tip_speed ** 2)
    induced = p.induced_power * math.sqrt(
        math.sqrt(1.0 + v2 * v2 / (4.0 * p.rotor_velocity ** 4))
        - v2 / (2.0 * p.rotor_velocity ** 2))
    parasite = 0.5 * p.drag_ratio * p.air_density * p.rotor_solidity \
        * p.rotor_area * speed ** 3
    return blade + induced + parasite


def test_hover_power_default_params():
    p = EnergyParams()
    # P(0) = blade + induced = 79.86 + 88.63
    assert math.isclose(propulsion_power(0.0, p), 168.49, rel_tol=1e-9)


def test_power_matches_naive_form():
    p = EnergyParams()
    rng = np.random.default_rng(4)
    for speed in rng.uniform(0.0, 60.0, size=40):
        assert math.isclose(propulsion_power(float(speed), p),
                            naive_power(float(speed), p), rel_tol=1e-9)


def test_stable_form_survives_high_speed():
    p = EnergyParams()
    # the naive radicand underflows to negative at extreme speeds;
    # the rearranged form must stay finite and positive
    val = propulsion_power(5000.0, p)
    assert math.isfinite(val) and val > 0.0


def test_move_then_hover_split():
    p = EnergyParams()
    slot, vmax = 1.0, 50.0
    dist = 20.0
    expect = propulsion_power(vmax, p) * (dist / vmax) \
        + propulsion_power(0.0, p) * (1.0 - dist / vmax)
    got = propulsion_energy(dist, slot, vmax, *cruise_and_hover(vmax, p))
    assert math.isclose(got, expect, rel_tol=1e-12)


def test_zero_distance_is_pure_hover():
    p = EnergyParams()
    assert math.isclose(propulsion_energy(0.0, 1.0, 50.0,
                                          *cruise_and_hover(50.0, p)),
                        propulsion_power(0.0, p), rel_tol=1e-12)


def test_full_slot_move_is_pure_cruise():
    p = EnergyParams()
    assert math.isclose(propulsion_energy(50.0, 1.0, 50.0,
                                          *cruise_and_hover(50.0, p)),
                        propulsion_power(50.0, p), rel_tol=1e-12)


def test_distance_beyond_envelope_rejected():
    # actions.decode caps a move at max_step; what rounding adds beyond
    # that costs one slot of cruise, no more
    cruise, hover = cruise_and_hover(50.0, EnergyParams())
    assert propulsion_energy(50.0 * (1.0 + 1e-12), 1.0, 50.0,
                             cruise, hover) == cruise


def test_compute_energy_example():
    # 8.2e-9 J/cycle * 1000 cycles/bit * 6e5 bits
    assert math.isclose(compute_energy(6e5, 1000, 8.2e-9), 4.92, rel_tol=1e-9)


def test_compute_energy_linearity():
    base = compute_energy(1e5, 1000, 8.2e-9)
    assert math.isclose(compute_energy(3e5, 1000, 8.2e-9), 3 * base,
                        rel_tol=1e-12)
    assert compute_energy(0.0, 1000, 8.2e-9) == 0.0
