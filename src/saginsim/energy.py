"""AAV propulsion and computation energy.

Rotary-wing propulsion power at forward speed V:

    P(V) = P0 (1 + 3 V^2 / U_tip^2)
         + Pi (sqrt(1 + V^4 / (4 v0^4)) - V^2 / (2 v0^2))^(1/2)
         + 0.5 d0 rho s A V^3

The induced-power radicand sqrt(1 + x^2) - x cancels badly at high speed,
so it is evaluated as 1 / (sqrt(1 + x^2) + x) which stays positive.

Per-slot movement is modeled as flight at max speed for distance/max_speed
seconds followed by hovering for the rest of the slot.  Computation energy
is energy_per_cycle * cycles_per_bit * task_bits.
"""

import math

from .errors import InvalidAction


def propulsion_power(speed, params):
    """Propulsion power at the given forward speed, watts."""
    if speed < 0.0:
        raise InvalidAction("negative speed")
    v2 = speed * speed
    blade = params.blade_power * (1.0 + 3.0 * v2 / params.tip_speed ** 2)
    x = v2 / (2.0 * params.rotor_velocity ** 2)
    induced = params.induced_power * math.sqrt(1.0 / (math.sqrt(1.0 + x * x) + x))
    parasite = 0.5 * params.drag_ratio * params.air_density \
        * params.rotor_solidity * params.rotor_area * speed ** 3
    return blade + induced + parasite


def propulsion_energy(distance, slot_length, max_speed, cruise_power,
                      hover_power):
    """Energy to cover `distance` meters within one slot, joules.

    The AAV flies at max_speed for distance / max_speed seconds, drawing
    cruise_power, and hovers for the remainder, drawing hover_power: the
    propulsion_power at max_speed and at 0, which a caller computes once.
    distance must fit in the slot.
    """
    if distance < -1e-12:
        raise InvalidAction("negative distance")
    distance = max(distance, 0.0)
    move_time = distance / max_speed
    if move_time > slot_length * (1.0 + 1e-9):
        raise InvalidAction("distance %r exceeds the per-slot envelope" % distance)
    move_time = min(move_time, slot_length)
    hover_time = slot_length - move_time
    return cruise_power * move_time + hover_power * hover_time


def compute_energy(task_bits, cycles_per_bit, energy_per_cycle):
    """Energy to process a task on an edge server, joules."""
    if task_bits < 0.0:
        raise InvalidAction("negative task size")
    return energy_per_cycle * cycles_per_bit * task_bits
