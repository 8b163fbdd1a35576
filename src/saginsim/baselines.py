"""Non-learning reference policies.

random: every component of the raw action uniform in [-1, 1].
greedy: each AAV flies at the largest feasible step straight toward its
nearest GD; offload and bandwidth raws stay uniform random.
"""

import math

import numpy as np

from .environment import SaginEnv, rollout
from .runio import episode_metrics


def random_action(env, rng):
    return rng.uniform(-1.0, 1.0, size=env.action_dim)


def greedy_action(env, rng):
    """Pursuit movement toward the nearest GD, random radio raws."""
    sc = env.scenario
    cap = sc.max_served
    raw = rng.uniform(-1.0, 1.0, size=env.action_dim)
    width = 2 + 2 * cap
    max_step = sc.max_step()
    for v in range(sc.n_aavs):
        vec = env.gd_pos - env.world.aav_pos[v]
        dists = np.linalg.norm(vec, axis=1)
        g = int(np.argmin(dists))
        step = min(max_step, float(dists[g]))
        if dists[g] > 0.0:
            angle = math.atan2(float(vec[g, 1]), float(vec[g, 0]))
        else:
            step, angle = 0.0, 0.0
        raw[v * width] = 2.0 * step / max_step - 1.0
        raw[v * width + 1] = angle / math.pi
    return raw


_POLICIES = {"random": random_action, "greedy": greedy_action}


def run_baseline(scenario, algo, seed=None, episodes=1, on_episode=None):
    """Run a baseline policy; returns per-episode metric rows.

    on_episode(row, records) fires after each episode with its report row
    and slot records, so finished episodes reach the caller also when a
    later one fails.
    """
    if algo not in _POLICIES:
        raise ValueError("unknown baseline %r" % algo)
    policy = _POLICIES[algo]
    env = SaginEnv(scenario, seed)
    rng = env.rng.stream("policy-noise")
    rows = []
    for episode in range(episodes):
        ep_reward = rollout(env, lambda _state: policy(env, rng))
        row = episode_metrics(env, episode, ep_reward)
        rows.append(row)
        if on_episode is not None:
            on_episode(row, env.records)
    return rows
