"""Per-slot task service and data collection.

Timing of one slot, per AAV: every served GD's earliest eligible task is
transported and processed (locally or via the satellite), then whatever
slot time the AAV-GD radio did not spend on task uplinks/downlinks is used
to collect stored data from the served GDs and forward it to the satellite.
The radio is half duplex, so collection time is the slot length minus the
task transmission time, floored at zero.

A task is served only over links that carry it: its GD uplink rate
clears the configured floor, its AAV-GD downlink rate is > 0 and, when it
is offloaded, both satellite rates are > 0.  Otherwise it stays pending
and counts in the record's "skipped".  A served task succeeds when its
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

from . import channel, workload
from .energy import compute_energy


@dataclasses.dataclass
class WorldState:
    """One episode's world.  The positions, GD queues and stores, AAV
    buffers and slot change as it runs; the other fields are per-episode
    invariants that every slot reads."""
    aav_pos: np.ndarray      # (n_aavs, 2) ground coordinates, m
    gd_states: list          # workload.GdState per GD
    dc_buffers: np.ndarray   # (n_aavs,) collected bits awaiting delivery
    gd3: np.ndarray          # (n_gds, 3) GD positions on the ground, m
    sat_center: np.ndarray   # (2,) ground point under the satellite
    sat_height: float        # satellite height above the AAVs, m
    noise_w: float           # noise PSD, W/Hz
    slot: int = 0
    rain_extra_db: float = 0.0   # episode's rain on the satellite legs, dB

    @classmethod
    def start(cls, scenario, gd_pos):
        """The world at slot 0: AAVs at their initial positions, GD queues,
        GD stores and AAV buffers empty."""
        gd_pos = np.asarray(gd_pos, dtype=float)
        x_min, y_min, x_max, y_max = scenario.area_bounds
        return cls(
            aav_pos=np.array(scenario.initial_aav_positions, dtype=float),
            gd_states=[workload.GdState() for _ in range(len(gd_pos))],
            dc_buffers=np.zeros(scenario.n_aavs),
            gd3=np.column_stack([gd_pos, np.zeros(len(gd_pos))]),
            sat_center=np.array([(x_min + x_max) / 2.0,
                                 (y_min + y_max) / 2.0]),
            sat_height=scenario.sat_altitude - scenario.aav_altitude,
            noise_w=channel.noise_psd_watts(scenario.radio.noise_psd))

    def sat_distances(self):
        """Slant distance from each AAV to the satellite, m, as a list."""
        d = self.aav_pos - self.sat_center
        # a matmul of a difference with itself is the dot product that
        # np.linalg.norm takes of one vector, to the last bit
        horiz = np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0, 0]
        return [math.hypot(h, self.sat_height) for h in horiz.tolist()]


def task_delay(size_bits, result_ratio, offloaded, rates, sat_dist, compute):
    """Delay components of serving one task, seconds.

    rates: dict with g2a, a2g and (when offloaded) a2s, s2a link rates in
    bit/s, each > 0.  Local path: uplink, AAV processing, downlink.
    Satellite path adds the AAV-satellite round trip and two propagation
    legs.
    """
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


def run_slot(world, decisions, served, scenario):
    """Serve tasks and collect data for one slot; mutates GD queues, GD
    stores and AAV buffers.  Positions are taken as already moved.
    served is the slot's association, the per-AAV GD lists of
    association.gs_associate, along which decisions' per-AAV offload and
    bandwidth lists run; world.rain_extra_db fades both satellite legs.

    Returns the service part of the slot record, in plain Python values:
    "skipped" (pending tasks left waiting for a usable link),
    "tasks" (one row per served task, with its delay components), "dc"
    (per-AAV collection time, bits collected, delivered and buffered, and
    bits taken from each GD) and "energy" (per-AAV compute joules, and
    GD transmit, satellite transmit and satellite compute joules)."""
    n_aavs, n_gds = scenario.n_aavs, scenario.n_gds
    radio = scenario.radio
    compute = scenario.compute
    noise_w = world.noise_w
    aav3 = np.column_stack([world.aav_pos,
                            np.full(n_aavs, scenario.aav_altitude)])
    field = channel.InterferenceField(aav3, world.gd3, served, radio)

    tasks = []
    busy_tx = [0.0] * n_aavs
    gd_tx_energy = 0.0
    sat_tx_energy = 0.0
    sat_compute_energy = 0.0
    aav_compute_energy = [0.0] * n_aavs
    skipped = 0
    r_a2s, uplink_rates = [], []

    for v, sat_dist in enumerate(world.sat_distances()):
        up, down = channel.sat_link_rates(sat_dist, n_aavs, noise_w,
                                          radio, world.rain_extra_db)
        r_a2s.append(up)
        sat_live = up > 0.0 and down > 0.0
        gains = field.gains[v].tolist()
        interference = field.power[v]
        rates_v = []
        for g, bw, offloaded in zip(served[v], decisions.bandwidth[v],
                                    decisions.offload[v]):
            gain = gains[g]
            r_up = channel.g2a_rate(gain, bw, interference, noise_w, radio)
            rates_v.append(r_up)
            gd = world.gd_states[g]
            task = gd.earliest_pending()
            if task is None:
                continue
            if r_up < radio.rate_floor:
                skipped += 1
                continue
            rates = {"g2a": r_up,
                     "a2g": channel.a2g_rate(gain, bw, noise_w, radio)}
            if rates["a2g"] <= 0.0 or offloaded and not sat_live:
                skipped += 1
                continue
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

    # max() keeps a NaN as np.maximum does: it returns its first argument
    # unless the second is larger
    dc_time = [max(scenario.slot_length - busy, 0.0) for busy in busy_tx]
    collected = [0.0] * n_aavs
    delivered = [0.0] * n_aavs
    buffers = world.dc_buffers.tolist()
    collected_from_gds = [0.0] * n_gds
    for v in range(n_aavs):
        if dc_time[v] <= 0.0:
            continue
        for g, r_up in zip(served[v], uplink_rates[v]):
            gd = world.gd_states[g]
            if gd.stored_bits <= 0.0 or r_up <= 0.0:
                continue
            take = min(gd.stored_bits, dc_time[v] * r_up)
            gd.stored_bits -= take
            collected[v] += take
            collected_from_gds[g] += take
            gd_tx_energy += radio.power_gd * (take / r_up)
        buffers[v] += collected[v]
        sent = min(buffers[v], dc_time[v] * r_a2s[v])
        buffers[v] -= sent
        delivered[v] = sent
    world.dc_buffers[:] = buffers

    return {
        "skipped": skipped,
        "tasks": tasks,
        "dc": {
            "dc_time": dc_time,
            "collected": collected,
            "delivered": delivered,
            "from_gds": collected_from_gds,
            "buffers": buffers,
        },
        "energy": {
            "aav_compute": aav_compute_energy,
            "gd_tx": float(gd_tx_energy),
            "sat_tx": float(sat_tx_energy),
            "sat_compute": float(sat_compute_energy),
        },
    }
