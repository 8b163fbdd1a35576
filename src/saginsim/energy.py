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


def propulsion_power(speed, params):
    """Propulsion power at the given forward speed >= 0, watts."""
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

    distance is the length of a move, a square root, so it is >= 0, and it
    fits in the slot: actions.decode commands at most max_speed *
    slot_length, and clamping into the area never lengthens a move.  The
    min() absorbs what rounding adds to a move's length.
    """
    move_time = min(distance / max_speed, slot_length)
    hover_time = slot_length - move_time
    return cruise_power * move_time + hover_power * hover_time


def compute_energy(task_bits, cycles_per_bit, energy_per_cycle):
    """Energy to process a task on an edge server, joules."""
    return energy_per_cycle * cycles_per_bit * task_bits
