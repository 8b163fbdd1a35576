import math

import numpy as np
import pytest

from saginsim.diffusion import DiffusionPolicy, VarianceSchedule
from saginsim.environment import SaginEnv
from saginsim.errors import ConfigInvalid
from saginsim.nets.mlp import Mlp, load_checkpoint
from saginsim.nets.optim import Adam
from saginsim.scenario import Scenario
from saginsim.trainer import (Hyper, QagobTrainer, RingBuffer, TwinCritics,
                              actor_update, critic_update, soft_update,
                              td_targets, train)

S_DIM, A_DIM = 3, 2


def toy_scenario(**kw):
    base = dict(
        n_aavs=2,
        n_gds=4,
        max_served=2,
        horizon=5,
        initial_aav_positions=((-250.0, -250.0), (250.0, 250.0)),
        area_bounds=(-500.0, -500.0, 500.0, 500.0),
    )
    base.update(kw)
    return Scenario(**base)


def tiny_hyper(**kw):
    base = dict(batch_size=4, warmup_steps=0,
                n_policy_samples=4, n_uniform_samples=2, n_value_samples=2,
                behavior_samples=2, target_samples=2,
                critic_widths=(8,), actor_widths=(8,), n_denoise=3)
    base.update(kw)
    return Hyper(**base)


@pytest.mark.parametrize("field,bad,good", [
    ("replay_capacity", 0, 1), ("batch_size", 0, 1),
    ("n_policy_samples", 0, 1), ("n_value_samples", 0, 1),
    ("behavior_samples", 0, 1), ("target_samples", 0, 1),
    ("n_denoise", 0, 1), ("warmup_steps", -1, 0),
    ("n_uniform_samples", -1, 0), ("checkpoint_every", -1, 0),
    ("ent_coeff", -1e-9, 0.0), ("ent_coeff", math.inf, 1.0),
    ("critic_widths", (8, 0), (8, 1)), ("actor_widths", (0,), (1,)),
    ("lr_actor", 0.0, 1e-9), ("lr_critic", math.inf, 1.0),
    ("gamma", 1.0 + 1e-9, 1.0), ("gamma", -1e-9, 0.0),
    ("gamma", math.nan, 0.5), ("soft_rate", 0.0, 1.0),
    ("soft_rate", 1.0 + 1e-9, 1e-9), ("beta_end", 1.0, 0.5),
    ("beta_start", 0.0, 0.02), ("beta_start", 0.03, 0.02),
])
def test_hyper_rejects_each_value_out_of_range(field, bad, good):
    Hyper(**{field: good})
    with pytest.raises(ConfigInvalid) as err:
        Hyper(**{field: bad})
    assert err.value.field == "hyper." + field


class StubPolicy:
    """Deterministic 'policy' that always emits the same action."""

    def __init__(self, action_dim, value=0.5):
        self.action_dim = action_dim
        self.value = value

    def sample_batch(self, states, rng, squash=True):
        return np.full((len(np.atleast_2d(states)), self.action_dim),
                       self.value)


class StubCritics:
    """min_target_q returns a fixed value per row."""

    def __init__(self, value):
        self.value = value

    def min_target_q(self, states, actions):
        return np.full(len(np.atleast_2d(states)), self.value)


def test_ring_buffer_fifo_eviction():
    buf = RingBuffer(3)
    for k in range(5):
        buf.push(k)
    assert len(buf) == 3
    assert sorted(buf.items) == [2, 3, 4]


def test_ring_buffer_sampling_without_replacement():
    buf = RingBuffer(10)
    for k in range(10):
        buf.push(k)
    rng = np.random.default_rng(0)
    got = buf.sample(10, rng)
    assert sorted(got) == list(range(10))  # a permutation, no repeats
    with pytest.raises(ValueError):
        buf.sample(11, rng)
    with pytest.raises(ValueError):
        RingBuffer(0)


def test_twin_critics_min_rule():
    critics = TwinCritics(S_DIM, A_DIM, (4,), np.random.default_rng(1))
    # force known constant outputs via the head biases of zeroed nets
    for net, bias in ((critics.q1, 2.0), (critics.q2, -1.0)):
        net.set_arrays([np.zeros_like(a) for a in net.get_arrays()])
        net.params[-1][...] = bias
    s = np.zeros((4, S_DIM))
    a = np.zeros((4, A_DIM))
    np.testing.assert_allclose(critics.min_q(s, a), -1.0)
    # targets were cloned before the overwrite, so they differ now
    assert not np.allclose(critics.min_target_q(s, a), -1.0)


def test_soft_update_endpoints_and_blend():
    rng = np.random.default_rng(2)
    online = Mlp([2, 3, 1], rng=rng)
    target = Mlp([2, 3, 1], rng=rng)
    before_online = online.get_arrays()
    before_target = target.get_arrays()

    soft_update(online, target, 0.005)
    for b_on, b_tg, after in zip(before_online, before_target,
                                 target.get_arrays()):
        np.testing.assert_allclose(after, 0.005 * b_on + 0.995 * b_tg,
                                   rtol=1e-12)

    soft_update(online, target, 0.0)  # no-op
    for b_on, b_tg, after in zip(before_online, before_target,
                                 target.get_arrays()):
        np.testing.assert_allclose(after, 0.005 * b_on + 0.995 * b_tg,
                                   rtol=1e-12)

    soft_update(online, target, 1.0)  # full copy
    for b_on, after in zip(before_online, target.get_arrays()):
        np.testing.assert_allclose(after, b_on, rtol=1e-12)

    with pytest.raises(ValueError):
        soft_update(online, Mlp([2, 4, 1]), 0.5)


@pytest.mark.parametrize("rewrite", ["set_arrays", "soft_update"])
def test_adam_steps_the_arrays_the_nets_read(rewrite):
    """Adam holds the parameter arrays it was built with.  After the net's
    parameters are rewritten, a step must still move what forward and the
    sampler read, not an array the net has dropped."""
    rng = np.random.default_rng(15)
    policy = DiffusionPolicy(S_DIM, A_DIM, (8,), VarianceSchedule.linear(3),
                             rng)
    net = policy.denoiser
    opt = Adam(policy.params, 0.1)
    source = Mlp(net.widths, rng)
    if rewrite == "set_arrays":
        net.set_arrays(source.get_arrays())
    else:
        soft_update(source, net, 0.5)
    x = rng.standard_normal((4, net.widths[0]))
    states = rng.standard_normal((4, S_DIM))
    out_before = net.forward(x)
    expect = net.get_arrays()

    # a step on the first-layer weights only
    grads = [np.zeros_like(p) for p in net.params]
    grads[0] = np.ones_like(net.params[0])
    opt.step(grads)
    expect[0] = expect[0] - 0.1 / (1.0 + 1e-8)
    for got, want in zip(net.get_arrays(), expect):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    assert not np.allclose(net.forward(x), out_before)

    # the sampler reads the first layer directly; it must see the step
    fresh = DiffusionPolicy(S_DIM, A_DIM, (8,), VarianceSchedule.linear(3),
                            None)
    fresh.denoiser.set_arrays(expect)
    np.testing.assert_allclose(
        policy.sample_batch(states, np.random.default_rng(16), squash=False),
        fresh.sample_batch(states, np.random.default_rng(16), squash=False),
        rtol=1e-12, atol=1e-12)


def make_batch(n=4, reward=1.0, done=0.0):
    rng = np.random.default_rng(3)
    states = rng.standard_normal((n, S_DIM))
    acts = rng.uniform(-1, 1, (n, A_DIM))
    rewards = np.full(n, reward)
    next_states = rng.standard_normal((n, S_DIM))
    dones = np.full(n, done)
    return states, acts, rewards, next_states, dones


def test_td_targets_bootstrap_value():
    batch = make_batch(reward=1.0, done=0.0)
    y = td_targets(batch, StubCritics(2.0), StubPolicy(A_DIM), 0.9, 3,
                   np.random.default_rng(4))
    np.testing.assert_allclose(y, 1.0 + 0.9 * 2.0)


def test_td_targets_terminal_rows_use_reward_only():
    batch = make_batch(reward=-0.5, done=1.0)
    y = td_targets(batch, StubCritics(100.0), StubPolicy(A_DIM), 0.9, 2,
                   np.random.default_rng(5))
    np.testing.assert_allclose(y, -0.5)


def test_td_targets_gamma_zero():
    batch = make_batch(reward=3.0, done=0.0)
    y = td_targets(batch, StubCritics(50.0), StubPolicy(A_DIM), 0.0, 2,
                   np.random.default_rng(6))
    np.testing.assert_allclose(y, 3.0)


def test_td_targets_take_best_candidate():
    class RampPolicy:
        """Emits a different constant per candidate row."""
        action_dim = A_DIM

        def sample_batch(self, states, rng, squash=True):
            n = len(np.atleast_2d(states))
            return np.tile(np.arange(n, dtype=float)[:, None], (1, A_DIM))

    class FirstCoordCritics:
        def min_target_q(self, states, actions):
            return actions[:, 0]

    batch = make_batch(n=2, reward=0.0, done=0.0)
    # candidates per row get values (0, 1) and (2, 3); max picks 1 and 3
    y = td_targets(batch, FirstCoordCritics(), RampPolicy(), 1.0, 2,
                   np.random.default_rng(7))
    np.testing.assert_allclose(y, [1.0, 3.0])


def test_critic_update_converges_on_frozen_batch():
    critics = TwinCritics(S_DIM, A_DIM, (16,), np.random.default_rng(8))
    opt1 = Adam(critics.q1.params, 1e-2)
    opt2 = Adam(critics.q2.params, 1e-2)
    batch = make_batch(n=8)
    targets = np.linspace(-1, 1, 8)
    first = None
    for _ in range(300):
        losses = critic_update(batch, targets, critics, opt1, opt2)
        if first is None:
            first = losses
    assert losses[0] < first[0] and losses[1] < first[1]
    states, acts = batch[0], batch[1]
    np.testing.assert_allclose(critics.min_q(states, acts), targets, atol=0.2)


def test_critic_update_zero_loss_at_fixpoint():
    critics = TwinCritics(S_DIM, A_DIM, (4,), None)  # all-zero nets
    opt1 = Adam(critics.q1.params, 0.0)
    opt2 = Adam(critics.q2.params, 0.0)
    batch = make_batch(n=4)
    losses = critic_update(batch, np.zeros(4), critics, opt1, opt2)
    assert losses == [0.0, 0.0]


def make_actor_setup(seed=9):
    rng = np.random.default_rng(seed)
    sched = VarianceSchedule.linear(3)
    policy = DiffusionPolicy(S_DIM, A_DIM, (8,), sched, rng)
    critics = TwinCritics(S_DIM, A_DIM, (8,), rng)
    pairs = [(rng.standard_normal(S_DIM), rng.uniform(-1, 1, A_DIM))
             for _ in range(6)]
    states = np.stack([s for s, _ in pairs])
    acts = np.stack([a for _, a in pairs])
    return policy, critics, states, acts


def test_actor_update_runs_and_moves_params():
    policy, critics, states, acts = make_actor_setup()
    hyper = tiny_hyper()
    opt = Adam(policy.params, 1e-3)
    before = [p.copy() for p in policy.params]
    loss = actor_update(policy, critics, states, acts, hyper,
                        np.random.default_rng(10), opt)
    assert math.isfinite(loss)
    assert any(not np.array_equal(b, p)
               for b, p in zip(before, policy.params))


def test_actor_update_all_negative_advantage_max_variant():
    """A flat critic makes Q == V, so the advantage weights are exactly
    zero; the max-variant entropy weight inherits the zero and the whole
    update is a no-op."""
    policy, _, states, acts = make_actor_setup(seed=11)

    class FlatCritics:
        def min_q(self, states, actions):
            return np.zeros(len(np.atleast_2d(states)))

    hyper = tiny_hyper(ent_variant="max")
    opt = Adam(policy.params, 1e-3)
    before = [p.copy() for p in policy.params]
    loss = actor_update(policy, FlatCritics(), states, acts, hyper,
                        np.random.default_rng(12), opt)
    assert loss == 0.0
    for b, p in zip(before, policy.params):
        np.testing.assert_array_equal(b, p)


def test_actor_update_mean_variant_flat_critic_is_noop():
    policy, _, states, acts = make_actor_setup(seed=13)

    class FlatCritics:
        def min_q(self, states, actions):
            return np.zeros(len(np.atleast_2d(states)))

    hyper = tiny_hyper(ent_variant="mean")
    opt = Adam(policy.params, 1e-3)
    before = [p.copy() for p in policy.params]
    loss = actor_update(policy, FlatCritics(), states, acts, hyper,
                        np.random.default_rng(14), opt)
    assert loss == 0.0
    for b, p in zip(before, policy.params):
        np.testing.assert_array_equal(b, p)


def test_trainer_smoke_episode():
    sc = toy_scenario()
    env = SaginEnv(sc, 1)
    trainer = QagobTrainer(env, tiny_hyper())
    critics = (trainer.critics.q1, trainer.critics.q2)
    before = [[p.copy() for p in net.params] for net in critics]
    reward, closs, aloss = trainer.run_episode()
    assert math.isfinite(reward)
    assert trainer.total_steps == sc.horizon
    assert len(trainer.replay) == sc.horizon
    # batch_size 4 <= 5 steps, so updates ran and losses are numbers
    assert math.isfinite(closs)
    # n_policy_samples 4: the actor updated as well
    assert math.isfinite(aloss)
    for net, old in zip(critics, before):
        assert any(not np.array_equal(a, b) for a, b in zip(old, net.params))


def test_trainer_select_action_shape_and_range():
    env = SaginEnv(toy_scenario(), 2)
    trainer = QagobTrainer(env, tiny_hyper())
    state = env.reset()
    a = trainer.select_action(state)
    assert a.shape == (env.action_dim,)
    assert np.all(np.abs(a) < 1.0)


def test_trainer_does_not_touch_env_scenario():
    sc = toy_scenario()
    env = SaginEnv(sc, 3)
    trainer = QagobTrainer(env, tiny_hyper())
    trainer.run_episode()
    assert env.scenario is sc
    assert sc.horizon == 5


def test_target_nets_start_as_copies():
    env = SaginEnv(toy_scenario(), 4)
    trainer = QagobTrainer(env, tiny_hyper())
    for a, b in zip(trainer.policy.denoiser.get_arrays(),
                    trainer.policy_target.denoiser.get_arrays()):
        np.testing.assert_array_equal(a, b)
    x = np.zeros((1, env.state_dim + env.action_dim))
    np.testing.assert_array_equal(trainer.critics.q1.forward(x),
                                  trainer.critics.q1_target.forward(x))
    # q1 and q2 must differ, otherwise the twin trick collapses
    assert not np.array_equal(trainer.critics.q1.params[0],
                              trainer.critics.q2.params[0])


def test_trainer_checkpoint_round_trip(tmp_path):
    env = SaginEnv(toy_scenario(), 5)
    trainer = QagobTrainer(env, tiny_hyper())
    trainer.run_episode()
    path = tmp_path / "ck.npz"
    trainer.checkpoint(path, {"note": "test"})
    nets, meta = load_checkpoint(path)
    assert set(nets) == {"actor", "actor_target", "q1", "q2",
                         "q1_target", "q2_target"}
    assert meta["seed"] == 5
    assert meta["total_steps"] == trainer.total_steps
    assert meta["note"] == "test"
    np.testing.assert_allclose(meta["betas"],
                               trainer.policy.schedule.betas)
    # the header's widths are the architecture eval rebuilds from
    assert nets["actor"].widths[1:-1] == list(trainer.hyper.actor_widths)
    assert nets["q1"].widths[1:-1] == list(trainer.hyper.critic_widths)
    for name, net in nets.items():
        assert net.num_params() > 0
    x = np.zeros((1, env.state_dim + env.action_dim))
    np.testing.assert_array_equal(nets["q1"].forward(x),
                                  trainer.critics.q1.forward(x))


def rows_equal(a, b):
    """Dict-row equality that treats NaN as equal to NaN."""
    if set(a) != set(b):
        return False
    for k in a:
        x, y = a[k], b[k]
        both_nan = (isinstance(x, float) and isinstance(y, float)
                    and math.isnan(x) and math.isnan(y))
        if not both_nan and x != y:
            return False
    return True


def test_train_function_returns_rows_and_is_deterministic():
    sc = toy_scenario()
    hyper = tiny_hyper()
    rows1, tr1 = train(sc, hyper, 7, 2, progress=False)
    rows2, tr2 = train(sc, hyper, 7, 2, progress=False)
    assert len(rows1) == 2
    assert all(rows_equal(r1, r2) for r1, r2 in zip(rows1, rows2))
    for a, b in zip(tr1.policy.denoiser.get_arrays(),
                    tr2.policy.denoiser.get_arrays()):
        np.testing.assert_array_equal(a, b)
    rows3, _ = train(sc, hyper, 8, 2, progress=False)
    assert [r["reward"] for r in rows3] != [r["reward"] for r in rows1]


def test_train_on_episode_callback_and_records(tmp_path):
    sc = toy_scenario()
    hyper = tiny_hyper(checkpoint_every=1)
    seen = []
    rows, _ = train(sc, hyper, 9, 2,
                    on_episode=lambda row, recs: seen.append((row, recs)),
                    ckpt_dir=str(tmp_path), progress=False)
    assert [row for row, _ in seen] == rows
    assert [row["episode"] for row in rows] == [0, 1]
    assert all(len(recs) == sc.horizon for _, recs in seen)
    assert (tmp_path / "ep00001.npz").exists()
    assert (tmp_path / "ep00002.npz").exists()
    assert load_checkpoint(tmp_path / "final.npz")[1]["episode"] == 2
    for row in rows:
        assert {"episode", "reward", "f1", "f2", "f3", "critic_loss",
                "actor_loss"} <= set(row)
