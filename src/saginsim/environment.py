"""Episode MDP over the joint service network.

One step runs one slot: expire overdue tasks, spawn workload, associate
GDs to AAVs on the pre-move positions, decode the raw action, move and
clamp the AAVs, serve tasks and collect data on the moved positions, then
score the slot.  The observation is a flat float vector

    [aav xy pairs | gd xy pairs | per-GD urgency | per-GD stored | t_left]

with positions scaled to [-1, 1] against the area bounds, urgency scaled
by the largest deadline-tolerance product, stored data by a fixed
half-horizon accumulation scale (it may exceed 1 under heavy backlog),
and t_left the fraction of the episode remaining.

Reward: r = r_task + w_dc * delivered_bits - w_energy * aav_joules
            - penalty * boundary_and_collision_events,
with r_task the summed slack (tolerance - delay) over served tasks.
Modes: "joint" keeps all terms, "mec_only" drops the delivered-bits term,
"dc_only" drops the task term.

Each step appends one slot record, a dict of plain Python values that is
also the slot's line in events.jsonl.  service.run_slot writes its
"skipped", "tasks", "dc" and "energy" blocks, actions.clamp_and_penalize
its "events" block, and step the rest: "episode", "slot", "generated",
"expired", "aav_pos", "assoc", dc "generated", energy "aav_move", and
the "reward" block, computed from the record itself.  Episodes are
numbered from 0 by the env's resets.
"""

import numpy as np

from . import actions, association, energy, service, workload
from .errors import EpisodeFinished
from .scenario import SeededRng, sample_gd_positions


def state_dim(scenario):
    return 2 * scenario.n_aavs + 4 * scenario.n_gds + 1


class Totals:
    """Running sums of slot records, in the order they are added.

    add(rec) sums one slot's figures, then adds them to the running sums,
    so the sums of a run depend only on the sequence of its records: an
    episode's report, energy.csv and a recount from events.jsonl agree to
    the last bit.  report() gives the figures of every slot added so far.
    """

    def __init__(self):
        self.generated = self.completed = self.served = self.offloaded = 0
        self.delay_sum = self.delivered = self.dc_generated = 0.0
        self.joules = self.gd_tx = self.aav_move = self.aav_compute = 0.0
        self.sat_tx = self.sat_compute = 0.0

    def add(self, rec):
        self.generated += rec["generated"]
        for task in rec["tasks"]:
            self.delay_sum += task["delay"]
            self.completed += bool(task["success"])
            self.offloaded += bool(task["offloaded"])
        self.served += len(rec["tasks"])
        self.delivered += sum(rec["dc"]["delivered"])
        self.dc_generated += rec["dc"]["generated"]
        e = rec["energy"]
        move, compute = sum(e["aav_move"]), sum(e["aav_compute"])
        self.joules += move + compute
        self.gd_tx += e["gd_tx"]
        self.aav_move += move
        self.aav_compute += compute
        self.sat_tx += e["sat_tx"]
        self.sat_compute += e["sat_compute"]

    def report(self):
        """f1: mean task delay over generated tasks, seconds (served tasks
        contribute their delay; expired and still-pending tasks only
        enlarge the denominator).  f2: bits delivered to the satellite.
        f3: joules drawn from AAV batteries.  mec_rate and dc_rate are the
        completed shares of generated tasks and bits, offload_ratio the
        offloaded share of served tasks, all percent and NaN when nothing
        was generated or served.  gd_tx, aav_move, aav_compute, sat_tx and
        sat_compute are joules by source.
        """
        nan = float("nan")
        generated, served = self.generated, self.served
        return {
            "f1": self.delay_sum / generated if generated else nan,
            "f2": self.delivered,
            "f3": self.joules,
            "mec_rate": 100.0 * self.completed / generated
            if generated else nan,
            "dc_rate": 100.0 * self.delivered / self.dc_generated
            if self.dc_generated else nan,
            "offload_ratio": 100.0 * self.offloaded / served
            if served else nan,
            "gd_tx": self.gd_tx,
            "aav_move": self.aav_move,
            "aav_compute": self.aav_compute,
            "sat_tx": self.sat_tx,
            "sat_compute": self.sat_compute,
        }


def episode_totals(records):
    """Every episode figure of the report; see Totals.report."""
    totals = Totals()
    for rec in records:
        totals.add(rec)
    return totals.report()


def run_episodes(env, act, episodes, on_episode=None, learn=None):
    """Play `episodes` episodes; returns their report rows, each
    {"episode", "reward", **episode_totals(records)}, with episode the
    env's episode number and reward the episode's summed reward.

    act(state) -> raw action.  learn(state, action, reward, next_state,
    done), when given, fires after every step, and on_episode(row,
    records) after each episode; it may add keys to its row.
    """
    rows = []
    for _ in range(episodes):
        state = env.reset()
        total = 0.0
        done = False
        while not done:
            action = act(state)
            next_state, reward, done, _ = env.step(action)
            if learn is not None:
                learn(state, action, reward, next_state, done)
            state = next_state
            total += reward
        row = {"episode": env.episode, "reward": float(total)}
        row.update(episode_totals(env.records))
        rows.append(row)
        if on_episode is not None:
            on_episode(row, env.records)
    return rows


class SaginEnv:
    """Deterministic environment over one scenario and one seed, which
    roots every random stream; successive episodes continue the streams."""

    def __init__(self, scenario, seed):
        self.scenario = scenario
        self.seed = int(seed)
        self.rng = SeededRng(self.seed)
        if scenario.gd_positions is not None:
            self.gd_pos = np.asarray(scenario.gd_positions, dtype=float)
        else:
            self.gd_pos = sample_gd_positions(scenario, self.rng.stream("init"))
        self.action_dim = actions.action_dim(scenario.n_aavs, scenario.max_served)
        self.state_dim = state_dim(scenario)
        self._cruise_power = energy.propulsion_power(scenario.max_speed,
                                                     scenario.energy)
        self._hover_power = energy.propulsion_power(0.0, scenario.energy)
        self.world = None
        self.done = True
        self.episode = -1
        self.records = []
        self._episode_rain_extra = 0.0

    def reset(self):
        """Start the next episode.  The random streams run on from the
        previous episode; GD positions are part of the world and never
        resampled."""
        sc = self.scenario
        self.world = service.WorldState.start(sc, self.gd_pos)
        self.done = False
        self.episode += 1
        self.records = []
        if sc.radio.rain_model == "weibull":
            draw = self.rng.stream("channel").weibull(2.0) * sc.radio.rain_atten
            self._episode_rain_extra = draw - sc.radio.rain_atten
        else:
            self._episode_rain_extra = 0.0
        return self._state()

    def step(self, raw_action):
        """Advance one slot.  Returns (state, reward, done, record), with
        record the slot record also appended to self.records."""
        if self.done:
            raise EpisodeFinished("call reset() before stepping again")
        sc = self.scenario
        world = self.world
        t = world.slot
        wl_rng = self.rng.stream("workload")

        expired = 0
        generated = 0
        dc_generated = 0.0
        for gd in world.gd_states:
            expired += workload.expire_overdue(gd, t)
            if workload.maybe_generate_task(gd, t, sc.workload,
                                            sc.slot_length, wl_rng):
                generated += 1
            dc_generated += workload.accrue_dc_data(gd, sc.workload, wl_rng)

        assoc = association.gs_associate(world.aav_pos, self.gd_pos,
                                         sc.max_served, sc.aav_altitude)
        served = association.served_gds(assoc)
        decoded = actions.decode(raw_action, served, sc)
        commanded = world.aav_pos + decoded.displacements
        clamped, events = actions.clamp_and_penalize(commanded, sc)
        delta = clamped - world.aav_pos
        # np.linalg.norm's own formula for one axis, without its dispatch
        moved = np.sqrt(np.add.reduce(delta * delta, axis=1))
        move_energy = [energy.propulsion_energy(
            d, sc.slot_length, sc.max_speed, self._cruise_power,
            self._hover_power) for d in moved.tolist()]
        world.aav_pos = clamped

        record = service.run_slot(world, decoded, assoc, served, sc,
                                  self._episode_rain_extra)
        record.update(
            episode=self.episode, slot=t, generated=generated, expired=expired,
            aav_pos=clamped.tolist(), assoc=served, events=events)
        record["dc"]["generated"] = dc_generated
        record["energy"]["aav_move"] = move_energy

        r_task = sum(task["max_delay"] - task["delay"]
                     for task in record["tasks"])
        # numpy's pairwise order, not sum()'s: it sets the last bit
        delivered = float(np.sum(record["dc"]["delivered"]))
        aav_joules = (sum(record["energy"]["aav_move"])
                      + sum(record["energy"]["aav_compute"]))
        n_events = events["boundary"] + events["collision"]
        rw = sc.reward
        value = -rw.energy_weight * aav_joules - rw.penalty * n_events
        if rw.mode != "dc_only":
            value += r_task
        if rw.mode != "mec_only":
            value += rw.dc_weight * delivered
        record["reward"] = {"task": float(r_task), "dc_bits": delivered,
                            "energy_j": aav_joules, "events": n_events,
                            "value": value}
        self.records.append(record)

        world.slot = t + 1
        self.done = world.slot >= sc.horizon
        return self._state(), value, self.done, record

    def _state(self):
        sc = self.scenario
        x_min, y_min, x_max, y_max = sc.area_bounds
        pos = np.concatenate((self.world.aav_pos, self.gd_pos))
        span = (x_max - x_min, y_max - y_min)
        scaled = 2.0 * (pos - (x_min, y_min)) / span - 1.0
        wl = sc.workload
        urgency_scale = (wl.deadline_range[1] / sc.slot_length) \
            * wl.tolerance_range[1]
        stored_scale = 50.0 * wl.dc_poisson_rate * workload.DC_SIZE_UNIT
        t = self.world.slot
        urgency, stored = [], []
        for gd in self.world.gd_states:
            task = gd.earliest_pending()
            if task is None:
                urgency.append(0.0)
            else:
                remaining = max(0, task.deadline_slot - t)
                urgency.append(remaining * task.max_delay / urgency_scale)
            stored.append(gd.stored_bits / stored_scale)
        state = np.concatenate((scaled.ravel(), urgency, stored,
                                [(sc.horizon - t) / sc.horizon]))
        assert state.shape == (self.state_dim,)
        return state
