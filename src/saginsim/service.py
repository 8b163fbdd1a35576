"""Per-slot task service and data collection.

Timing of one slot, per AAV: every served GD's earliest eligible task is
transported and processed (locally or via the satellite), then whatever
slot time the AAV-GD radio did not spend on task uplinks/downlinks is used
to collect stored data from the served GDs and forward it to the satellite.
The radio is half duplex, so collection time is the slot length minus the
task transmission time, floored at zero.

Task service starts only if the GD uplink rate clears the configured
floor; otherwise the task stays pending.  A served task succeeds when its
total delay fits the completion tolerance; either way it leaves the queue.

The satellite sits at the zenith of the area center; all AAVs hold
satellite links every slot, splitting the satellite bandwidth evenly.

run_slot writes the service part of the slot record: its "skipped" count,
its "tasks" rows, and its "dc" and "energy" blocks except for the values
only the environment knows (bits generated, AAV propulsion energy).
"""

import dataclasses
import math

import numpy as np

from . import channel
from .association import served_gds
from .energy import compute_energy
from .errors import LinkDown


@dataclasses.dataclass
class WorldState:
    aav_pos: np.ndarray      # (n_aavs, 2) ground coordinates, m
    gd_pos: np.ndarray       # (n_gds, 2)
    gd_states: list          # workload.GdState per GD
    dc_buffers: np.ndarray   # (n_aavs,) collected bits awaiting delivery
    slot: int = 0


def sat_distance(aav_xy, scenario):
    """AAV to satellite slant distance, m."""
    x_min, y_min, x_max, y_max = scenario.area_bounds
    center = np.array([(x_min + x_max) / 2.0, (y_min + y_max) / 2.0])
    horiz = float(np.linalg.norm(np.asarray(aav_xy, float) - center))
    return math.hypot(horiz, scenario.sat_altitude - scenario.aav_altitude)


def task_delay(size_bits, result_ratio, offloaded, rates, sat_dist, compute):
    """Delay components of serving one task, seconds.

    rates: dict with g2a, a2g and (when offloaded) a2s, s2a link rates in
    bit/s.  Local path: uplink, AAV processing, downlink.  Satellite path
    adds the AAV-satellite round trip and two propagation legs.
    """
    for key in ("g2a", "a2g") + (("a2s", "s2a") if offloaded else ()):
        if rates[key] <= 0.0:
            raise LinkDown("rate %s is not positive" % key)
    result_bits = result_ratio * size_bits
    comps = {
        "t_up_g2a": size_bits / rates["g2a"],
        "t_up_a2s": 0.0,
        "t_comp": 0.0,
        "t_down_s2a": 0.0,
        "t_down_a2g": result_bits / rates["a2g"],
        "t_prop": 0.0,
    }
    if offloaded:
        comps["t_up_a2s"] = size_bits / rates["a2s"]
        comps["t_comp"] = compute.cycles_per_bit * size_bits / compute.freq_sat
        comps["t_down_s2a"] = result_bits / rates["s2a"]
        comps["t_prop"] = 2.0 * sat_dist / channel.LIGHT_SPEED
    else:
        comps["t_comp"] = compute.cycles_per_bit * size_bits / compute.freq_aav
    return comps


def run_slot(world, decisions, association, scenario, rain_extra_db=0.0):
    """Serve tasks and collect data for one slot; mutates GD queues, GD
    stores and AAV buffers.  Positions are taken as already moved.

    Returns the service part of the slot record, in plain Python values:
    "skipped" (pending tasks left waiting for a usable uplink rate),
    "tasks" (one row per served task, with its delay components), "dc"
    (per-AAV collection time, bits collected, delivered and buffered, and
    bits taken from each GD) and "energy" (per-AAV compute joules, and
    GD transmit, satellite transmit and satellite compute joules)."""
    n_aavs, n_gds = scenario.n_aavs, scenario.n_gds
    radio = scenario.radio
    compute = scenario.compute
    aav3 = np.column_stack([world.aav_pos,
                            np.full(n_aavs, scenario.aav_altitude)])
    gd3 = np.column_stack([world.gd_pos, np.zeros(n_gds)])
    field = channel.InterferenceField(aav3, gd3, association, radio)
    served = served_gds(association)
    n_connected = n_aavs

    tasks = []
    busy_tx = np.zeros(n_aavs)
    gd_tx_energy = 0.0
    sat_tx_energy = 0.0
    sat_compute_energy = 0.0
    aav_compute_energy = [0.0] * n_aavs
    skipped = 0
    r_a2s, uplink_rates = [], []

    for v in range(n_aavs):
        sat_dist = sat_distance(world.aav_pos[v], scenario)
        up = channel.sat_link_rate(sat_dist, "up", n_connected, radio,
                                   rain_extra_db)
        down = channel.sat_link_rate(sat_dist, "down", n_connected, radio,
                                     rain_extra_db)
        r_a2s.append(up)
        gains = field.gains[v].tolist()
        interference = field.at(v)
        rates_v = []
        for g in served[v]:
            bw = decisions.bandwidth[(v, g)]
            gain = gains[g]
            r_up = channel.g2a_rate(gain, bw, interference, radio)
            rates_v.append(r_up)
            gd = world.gd_states[g]
            task = gd.earliest_pending()
            if task is None:
                continue
            if r_up < radio.rate_floor:
                skipped += 1
                continue
            rates = {"g2a": r_up, "a2g": channel.a2g_rate(gain, bw, radio)}
            offloaded = decisions.offload[(v, g)]
            if offloaded:
                rates["a2s"] = up
                rates["s2a"] = down
            comps = task_delay(task.size_bits, task.result_ratio, offloaded,
                               rates, sat_dist, compute)
            delay = sum(comps.values())
            success = delay <= task.max_delay
            gd.pending.pop(0)
            busy_tx[v] += comps["t_up_g2a"] + comps["t_down_a2g"]
            gd_tx_energy += radio.power_gd * comps["t_up_g2a"]
            if offloaded:
                sat_tx_energy += radio.power_sat * comps["t_down_s2a"]
                sat_compute_energy += compute_energy(
                    task.size_bits, compute.cycles_per_bit,
                    scenario.energy.sat_energy_per_cycle)
            else:
                aav_compute_energy[v] += compute_energy(
                    task.size_bits, compute.cycles_per_bit,
                    compute.energy_per_cycle)
            tasks.append({
                "aav": v, "gd": g, "task_id": task.task_id,
                "size_bits": task.size_bits, "result_ratio": task.result_ratio,
                "max_delay": task.max_delay, "offloaded": offloaded,
                "success": success, "delay": delay, "components": comps})
        uplink_rates.append(rates_v)

    dc_time = np.maximum(0.0, scenario.slot_length - busy_tx)
    collected = np.zeros(n_aavs)
    delivered = np.zeros(n_aavs)
    collected_from_gds = np.zeros(n_gds)
    for v in range(n_aavs):
        if dc_time[v] <= 0.0:
            continue
        for g, r_up in zip(served[v], uplink_rates[v]):
            gd = world.gd_states[g]
            if gd.stored_bits <= 0.0:
                continue
            take = min(gd.stored_bits, dc_time[v] * r_up)
            gd.stored_bits -= take
            collected[v] += take
            collected_from_gds[g] += take
            gd_tx_energy += radio.power_gd * (take / r_up)
        world.dc_buffers[v] += collected[v]
        sent = min(world.dc_buffers[v], dc_time[v] * r_a2s[v])
        world.dc_buffers[v] -= sent
        delivered[v] = sent

    return {
        "skipped": skipped,
        "tasks": tasks,
        "dc": {
            "dc_time": dc_time.tolist(),
            "collected": collected.tolist(),
            "delivered": delivered.tolist(),
            "from_gds": collected_from_gds.tolist(),
            "buffers": world.dc_buffers.tolist(),
        },
        "energy": {
            "aav_compute": aav_compute_energy,
            "gd_tx": float(gd_tx_energy),
            "sat_tx": float(sat_tx_energy),
            "sat_compute": float(sat_compute_energy),
        },
    }
