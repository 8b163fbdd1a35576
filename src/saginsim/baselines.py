"""Non-learning reference policies.

random: every component of the raw action uniform in [-1, 1].
greedy: each AAV flies at the largest feasible step straight toward its
nearest GD; offload and bandwidth raws stay uniform random.
"""

import math

import numpy as np

from .environment import SaginEnv, run_episodes


def random_action(env, rng):
    return rng.uniform(-1.0, 1.0, size=env.action_dim)


def greedy_action(env, rng):
    """Pursuit movement toward the nearest GD, random radio raws."""
    sc = env.scenario
    cap = sc.max_served
    raw = rng.uniform(-1.0, 1.0, size=env.action_dim)
    width = 2 + 2 * cap
    max_step = sc.max_step()
    vec = env.gd_pos[None, :, :] - env.world.aav_pos[:, None, :]
    dists = np.linalg.norm(vec, axis=2)
    for v, g in enumerate(np.argmin(dists, axis=1).tolist()):
        dist = float(dists[v, g])
        if dist > 0.0:
            step = min(max_step, dist)
            angle = math.atan2(float(vec[v, g, 1]), float(vec[v, g, 0]))
        else:
            step, angle = 0.0, 0.0
        raw[v * width] = 2.0 * step / max_step - 1.0
        raw[v * width + 1] = angle / math.pi
    return raw


POLICIES = {"random": random_action, "greedy": greedy_action}


def run_baseline(scenario, algo, seed, episodes, on_slot=None,
                 on_episode=None):
    """Play a baseline policy through environment.run_episodes; returns
    its report rows.  on_slot and on_episode are run_episodes'
    callbacks."""
    if algo not in POLICIES:
        raise ValueError("unknown baseline %r" % algo)
    policy = POLICIES[algo]
    env = SaginEnv(scenario, seed)
    rng = env.rng["policy-noise"]
    return run_episodes(env, lambda _state: policy(env, rng), episodes,
                        on_slot, on_episode)
