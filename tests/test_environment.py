import math
import pathlib

import numpy as np
import pytest

from saginsim import workload
from saginsim.environment import (SaginEnv, episode_totals, run_episodes,
                                  state_dim)
from saginsim.errors import EpisodeFinished
from saginsim.scenario import RewardWeights, Scenario, load_scenario

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
SEED = 7


def toy_scenario(**kw):
    base = dict(
        n_aavs=2,
        n_gds=5,
        max_served=2,
        horizon=12,
        initial_aav_positions=((-250.0, -250.0), (250.0, 250.0)),
        area_bounds=(-500.0, -500.0, 500.0, 500.0),
    )
    base.update(kw)
    return Scenario(**base)


def test_state_dim_formula():
    assert state_dim(toy_scenario()) == 2 * 2 + 4 * 5 + 1
    default = Scenario()
    assert state_dim(default) == 2 * 4 + 4 * 30 + 1 == 129


def test_reset_state_layout():
    sc = toy_scenario()
    env = SaginEnv(sc, SEED)
    s = env.reset()
    assert s.shape == (env.state_dim,)
    # AAV coordinates normalized against the area bounds
    assert math.isclose(s[0], -0.5) and math.isclose(s[1], -0.5)
    assert math.isclose(s[2], 0.5) and math.isclose(s[3], 0.5)
    # GD block stays within the unit box
    gd_block = s[4:4 + 2 * sc.n_gds]
    assert np.all(gd_block >= -1.0) and np.all(gd_block <= 1.0)
    # no tasks and no stored data at slot zero
    tail = s[4 + 2 * sc.n_gds:]
    assert np.allclose(tail[:-1], 0.0)
    assert tail[-1] == 1.0  # full episode remaining


def test_time_feature_counts_down():
    sc = toy_scenario()
    env = SaginEnv(sc, SEED)
    env.reset()
    raw = np.zeros(env.action_dim)
    s1, _, _, _ = env.step(raw)
    assert math.isclose(s1[-1], (sc.horizon - 1) / sc.horizon)
    s2, _, _, _ = env.step(raw)
    assert math.isclose(s2[-1], (sc.horizon - 2) / sc.horizon)


def test_episode_terminates_at_horizon():
    sc = toy_scenario(horizon=3)
    env = SaginEnv(sc, SEED)
    env.reset()
    raw = np.zeros(env.action_dim)
    for k in range(3):
        _, _, done, _ = env.step(raw)
    assert done
    with pytest.raises(EpisodeFinished):
        env.step(raw)
    env.reset()
    env.step(raw)  # fine again after reset


def test_reset_with_seed_replays_identically():
    # two environments built from one seed play the same episode
    sc = toy_scenario()
    rng = np.random.default_rng(3)
    acts = rng.uniform(-1, 1, size=(sc.horizon, SaginEnv(sc, SEED).action_dim))

    def rollout():
        env = SaginEnv(sc, 123)
        env.reset()
        rews, states = [], []
        for a in acts:
            s, r, done, _ = env.step(a)
            rews.append(r)
            states.append(s.copy())
        return np.asarray(rews), np.asarray(states)

    r1, s1 = rollout()
    r2, s2 = rollout()
    assert np.array_equal(r1, r2)
    assert np.array_equal(s1, s2)


def test_rollout_sums_rewards_and_reports_every_step():
    sc = toy_scenario()
    acts = np.random.default_rng(4).uniform(
        -1, 1, size=(sc.horizon, SaginEnv(sc, SEED).action_dim))
    env = SaginEnv(sc, SEED)
    steps = []
    [row] = run_episodes(env, lambda state: acts[len(steps)], 1,
                         learn=lambda *transition: steps.append(transition))

    replay = SaginEnv(sc, SEED)
    state = replay.reset()
    expected = 0.0
    for t, (s, a, r, s_next, done) in enumerate(steps):
        assert np.array_equal(s, state) and np.array_equal(a, acts[t])
        state, reward, replay_done, _ = replay.step(acts[t])
        assert r == reward and done == replay_done
        assert np.array_equal(s_next, state)
        expected += reward
    assert len(steps) == sc.horizon and steps[-1][4]
    assert row["reward"] == expected


def test_different_seeds_diverge():
    # pinned GD positions: the seeds differ in arrivals and channel draws,
    # not only in geometry
    pts = tuple((float(100 * g - 200), float(50 * g)) for g in range(5))
    sc = toy_scenario(gd_positions=pts)
    totals = []
    for seed in (1, 2):
        env = SaginEnv(sc, seed)
        env.reset()
        raw = np.zeros(env.action_dim)
        totals.append(sum(env.step(raw)[1] for _ in range(sc.horizon)))
    assert totals[0] != totals[1]


def test_gd_positions_fixed_across_resets():
    env = SaginEnv(toy_scenario(), SEED)
    env.reset()
    pos_a = env.gd_pos.copy()
    env.step(np.zeros(env.action_dim))
    env.reset()
    assert np.array_equal(pos_a, env.gd_pos)
    assert np.array_equal(pos_a, env.world.gd3[:, :2])


def test_gd_positions_from_config_are_used():
    pts = tuple((float(10 * g), float(-10 * g)) for g in range(5))
    env = SaginEnv(toy_scenario(gd_positions=pts), SEED)
    env.reset()
    assert np.array_equal(env.gd_pos, np.asarray(pts))


def test_reward_decomposition_matches_record():
    sc = toy_scenario()
    env = SaginEnv(sc, 11)
    env.reset()
    rng = np.random.default_rng(0)
    rw = sc.reward
    for _ in range(sc.horizon):
        _, r, _, record = env.step(rng.uniform(-1, 1, env.action_dim))
        assert record is env.records[-1]
        parts = record["reward"]
        expect = (parts["task"] + rw.dc_weight * parts["dc_bits"]
                  - rw.energy_weight * parts["energy_j"]
                  - rw.penalty * parts["events"])
        assert math.isclose(parts["value"], expect, rel_tol=1e-12, abs_tol=1e-12)
        assert r == parts["value"]


def _mode_rollout(mode, n=6):
    sc = toy_scenario(reward=RewardWeights(mode=mode))
    env = SaginEnv(sc, 21)
    env.reset()
    rng = np.random.default_rng(4)
    out = []
    for _ in range(n):
        _, r, _, record = env.step(rng.uniform(-1, 1, env.action_dim))
        out.append((r, record["reward"], record))
    return out


def test_reward_modes_change_only_the_scalar():
    joint = _mode_rollout("joint")
    mec = _mode_rollout("mec_only")
    dc = _mode_rollout("dc_only")
    rw = RewardWeights()
    for (rj, pj, recj), (rm, pm, recm), (rd, pd, recd) in zip(joint, mec, dc):
        # identical dynamics under every mode
        assert pj["task"] == pm["task"] == pd["task"]
        assert pj["dc_bits"] == pm["dc_bits"] == pd["dc_bits"]
        assert pj["energy_j"] == pm["energy_j"] == pd["energy_j"]
        assert recj["aav_pos"] == recm["aav_pos"] == recd["aav_pos"]
        base = -rw.energy_weight * pj["energy_j"] - rw.penalty * pj["events"]
        assert math.isclose(rm, base + pj["task"], abs_tol=1e-12)
        assert math.isclose(rd, base + rw.dc_weight * pj["dc_bits"],
                            abs_tol=1e-12)
        assert math.isclose(rj, base + pj["task"] + rw.dc_weight * pj["dc_bits"],
                            abs_tol=1e-12)


def test_objectives_recount_episode():
    sc = toy_scenario()
    env = SaginEnv(sc, 13)
    env.reset()
    rng = np.random.default_rng(2)
    for _ in range(sc.horizon):
        env.step(rng.uniform(-1, 1, env.action_dim))
    totals = episode_totals(env.records)
    f1, f2, f3 = totals["f1"], totals["f2"], totals["f3"]
    assert f2 == pytest.approx(
        sum(sum(rec["dc"]["delivered"]) for rec in env.records))
    assert f3 == pytest.approx(
        sum(sum(rec["energy"]["aav_move"]) + sum(rec["energy"]["aav_compute"])
            for rec in env.records))
    delays = [t["delay"] for rec in env.records for t in rec["tasks"]]
    gen = sum(rec["generated"] for rec in env.records)
    if gen:
        assert f1 == pytest.approx(sum(delays) / gen)


def test_objectives_empty_records():
    totals = episode_totals([])
    f1, f2, f3 = totals["f1"], totals["f2"], totals["f3"]
    assert math.isnan(f1) and f2 == 0.0 and f3 == 0.0


def test_conservation_small():
    """Bit and task conservation over a short random episode."""
    sc = toy_scenario()
    env = SaginEnv(sc, 17)
    env.reset()
    rng = np.random.default_rng(6)
    for _ in range(sc.horizon):
        env.step(rng.uniform(-1, 1, env.action_dim))
    recs = env.records
    served = [t["success"] for rec in recs for t in rec["tasks"]]
    # every generated task is completed, failed (expired or served too
    # late), or still pending
    generated = sum(rec["generated"] for rec in recs)
    failed = sum(rec["expired"] for rec in recs) + served.count(False)
    pending = sum(len(gd.pending) for gd in env.world.gd_states)
    assert generated == served.count(True) + failed + pending
    # DC bits: generated = still stored + in flight + delivered
    dc_generated = sum(rec["dc"]["generated"] for rec in recs)
    collected = sum(sum(rec["dc"]["collected"]) for rec in recs)
    delivered = sum(sum(rec["dc"]["delivered"]) for rec in recs)
    stored = sum(gd.stored_bits for gd in env.world.gd_states)
    buffered = float(env.world.dc_buffers.sum())
    assert dc_generated == pytest.approx(stored + buffered + delivered,
                                         rel=1e-12)
    assert collected == pytest.approx(buffered + delivered, rel=1e-12)


def test_env_counts_boundary_events():
    sc = toy_scenario(initial_aav_positions=((-499.0, -499.0), (499.0, 499.0)))
    env = SaginEnv(sc, 1)
    env.reset()
    raw = np.zeros(env.action_dim)
    # both AAVs pushed further into their corners
    raw[0], raw[1] = 1.0, -0.75   # AAV 0 heading down-left
    raw[6], raw[7] = 1.0, 0.25    # AAV 1 heading up-right
    _, _, _, rec = env.step(raw)
    assert rec["events"]["boundary"] == 2
    # clamped positions stay inside the area
    for x, y in rec["aav_pos"]:
        assert -500.0 <= x <= 500.0 and -500.0 <= y <= 500.0


def test_default_config_env_smoke():
    sc = load_scenario(CONFIGS / "default.toml")
    env = SaginEnv(sc, 0)
    s = env.reset()
    assert s.shape == (129,)
    assert env.action_dim == 4 * (2 + 2 * 4)
    rng = np.random.default_rng(0)
    _, r, done, _ = env.step(rng.uniform(-1, 1, env.action_dim))
    assert math.isfinite(r)
    assert not done
    rec = env.records[0]
    assert set(rec) == {"episode", "slot", "generated", "expired", "skipped",
                        "aav_pos", "assoc", "tasks", "dc", "energy", "events",
                        "reward"}
    assert set(rec["dc"]) == {"generated", "dc_time", "collected",
                              "delivered", "from_gds", "buffers"}
    assert set(rec["energy"]) == {"aav_move", "aav_compute", "gd_tx",
                                  "sat_tx", "sat_compute"}
    assert set(rec["events"]) == {"boundary", "collision"}
    assert set(rec["reward"]) == {"task", "dc_bits", "energy_j", "events",
                                  "value"}
    while not rec["tasks"] and not done:
        _, _, done, rec = env.step(rng.uniform(-1, 1, env.action_dim))
    task = rec["tasks"][0]
    assert set(task) == {"aav", "gd", "task_id", "size_bits", "result_ratio",
                         "max_delay", "offloaded", "success", "delay",
                         "components"}
    assert set(task["components"]) == {"t_up_g2a", "t_up_a2s", "t_comp",
                                       "t_down_s2a", "t_down_a2g", "t_prop"}


def test_record_values_are_plain_python():
    sc = toy_scenario()
    env = SaginEnv(sc, 3)
    env.reset()
    rng = np.random.default_rng(5)
    env.step(rng.uniform(-1, 1, env.action_dim))
    rec = env.records[0]

    def check(node):
        if isinstance(node, dict):
            for v in node.values():
                check(v)
        elif isinstance(node, list):
            for v in node:
                check(v)
        else:
            assert isinstance(node, (int, float, bool, str)), type(node)

    check(rec)


def loop_state(env):
    """The observation built element by element on Python and numpy
    scalars; the reference that SaginEnv._state must equal to the last bit."""
    sc = env.scenario
    x_min, y_min, x_max, y_max = sc.area_bounds
    parts = []
    for x, y in list(env.world.aav_pos) + list(env.gd_pos):
        parts.extend((2.0 * (x - x_min) / (x_max - x_min) - 1.0,
                      2.0 * (y - y_min) / (y_max - y_min) - 1.0))
    wl = sc.workload
    urgency_scale = (wl.deadline_range[1] / sc.slot_length) \
        * wl.tolerance_range[1]
    t = env.world.slot
    for gd in env.world.gd_states:
        task = gd.earliest_pending()
        if task is None:
            parts.append(0.0)
        else:
            remaining = max(0, task.deadline_slot - t)
            parts.append(remaining * task.max_delay / urgency_scale)
    stored_scale = 50.0 * wl.dc_poisson_rate * workload.DC_SIZE_UNIT
    for gd in env.world.gd_states:
        parts.append(gd.stored_bits / stored_scale)
    parts.append((sc.horizon - t) / sc.horizon)
    return np.asarray(parts, dtype=float)


def test_state_equals_loop_reference():
    sc = toy_scenario(horizon=30)
    env = SaginEnv(sc, SEED)
    rng = np.random.default_rng(5)
    state = env.reset()
    assert state.tobytes() == loop_state(env).tobytes()
    while not env.done:
        state, _, _, _ = env.step(rng.uniform(-1, 1, env.action_dim))
        assert state.tobytes() == loop_state(env).tobytes()
    # pending, overdue and empty queues side by side, off-grid positions
    t = env.world.slot
    task = dict(task_id=0, size_bits=1e5, result_ratio=0.2, created_slot=0)
    gds = env.world.gd_states
    gds[0].pending = []
    gds[1].pending = [workload.MecTask(gd=1, max_delay=1.3,
                                       deadline_slot=t - 4, **task)]
    gds[2].pending = [workload.MecTask(gd=2, max_delay=0.9,
                                       deadline_slot=t + 7, **task),
                      workload.MecTask(gd=2, max_delay=1.7,
                                       deadline_slot=t + 9, **task)]
    gds[3].pending = [workload.MecTask(gd=3, max_delay=1.1,
                                       deadline_slot=t, **task)]
    gds[4].stored_bits = 123456.7
    env.world.aav_pos = np.array([[-0.0, 333.3], [499.9, -500.0]])
    state = env._state()
    assert state.tobytes() == loop_state(env).tobytes()
    assert state[2 * 2 + 2 * 5 + 1] == 0.0 and state[2 * 2 + 2 * 5 + 2] > 0.0
