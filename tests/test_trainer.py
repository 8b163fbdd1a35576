import math

import numpy as np
import pytest

from saginsim.diffusion import DiffusionPolicy, weighted_denoise_loss
from saginsim.environment import SaginEnv, run_episodes
from saginsim.errors import ConfigInvalid, NonFiniteGradient
from saginsim.nets import autodiff
from saginsim.nets.mlp import Mlp, load_checkpoint
from saginsim.nets.optim import Adam
from saginsim.scenario import Scenario
from saginsim.trainer import (NET_DTYPE, Hyper, QagobTrainer, RingBuffer,
                              TwinCritics, actor_update, critic_update,
                              soft_update, td_targets, train)

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
    ("replay_capacity", 0, 256), ("batch_size", 0, 1),
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
    # no update can run with a batch above the replay's capacity
    ("batch_size", 1_000_001, 1_000_000),
    ("n_policy_samples", 1_000_001, 1_000_000),
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


def transition(k, state_dim=S_DIM):
    """A transition whose every field holds the number k."""
    return (np.full(state_dim, k), np.full(A_DIM, k), float(k),
            np.full(state_dim, k + 1), k % 2 == 1)


def test_ring_buffer_fifo_eviction():
    buf = RingBuffer(3)
    for k in range(5):
        buf.push(*transition(k))
    assert len(buf) == 3
    states, actions, rewards, next_states, dones = buf.sample(
        3, np.random.default_rng(0))
    assert sorted(rewards) == [2.0, 3.0, 4.0]
    # each row keeps its five fields together
    assert (states == rewards[:, None]).all()
    assert (actions == rewards[:, None]).all()
    assert (next_states == rewards[:, None] + 1).all()
    assert (dones == rewards % 2).all()


def test_ring_buffer_sampling_without_replacement():
    buf = RingBuffer(10)
    for k in range(10):
        buf.push(*transition(k))
    rng = np.random.default_rng(0)
    rewards = buf.sample(10, rng)[2]
    assert sorted(rewards) == list(range(10))  # a permutation, no repeats
    with pytest.raises(ValueError):
        buf.sample(11, rng)


class TupleRing:
    """The replay as a list of transition tuples, batches stacked row by
    row: the reference for RingBuffer's columns."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = []
        self._next = 0

    def push(self, *row):
        if len(self.items) < self.capacity:
            self.items.append(row)
        else:
            self.items[self._next] = row
        self._next = (self._next + 1) % self.capacity

    def sample(self, n, rng):
        idx = rng.choice(len(self.items), size=n, replace=False)
        rows = [self.items[i] for i in idx]
        return (np.stack([r[0] for r in rows]),
                np.stack([r[1] for r in rows]),
                np.array([r[2] for r in rows], dtype=np.float64),
                np.stack([r[3] for r in rows]),
                np.array([float(r[4]) for r in rows]))


@pytest.mark.parametrize("capacity", [1, 7, 64])
def test_replay_columns_equal_the_tuple_reference(capacity):
    """States, actions and next states come back as the float32 casts of
    what was pushed, rewards and dones as float64, and both buffers draw
    the same rows, also after the ring wraps."""
    rng = np.random.default_rng(capacity)
    buf, ref = RingBuffer(capacity), TupleRing(capacity)
    draws, ref_draws = np.random.default_rng(5), np.random.default_rng(5)
    for k in range(3 * capacity):
        row = (rng.standard_normal(S_DIM), rng.standard_normal(A_DIM),
               float(rng.standard_normal()), rng.standard_normal(S_DIM),
               k % 3 == 2)
        buf.push(*row)
        ref.push(*row)
        n = int(rng.integers(1, len(ref.items) + 1))
        got, want = buf.sample(n, draws), ref.sample(n, ref_draws)
        for field, dtype in enumerate((np.float32, np.float32, np.float64,
                                       np.float32, np.float64)):
            assert got[field].dtype == dtype
            assert got[field].shape == want[field].shape
            assert (got[field] == want[field].astype(dtype)).all(), field
    assert len(buf) == len(ref.items) == capacity
    assert draws.bit_generator.state == ref_draws.bit_generator.state


def test_replay_grows_with_what_it_holds():
    buf = RingBuffer(Hyper().replay_capacity)
    assert buf.capacity == 1_000_000 and buf.columns == ()
    for k in range(300):
        buf.push(*transition(k, state_dim=129))
    assert len(buf) == 300
    assert all(300 <= len(col) <= 2 * 300 for col in buf.columns)


def test_twin_critics_min_rule():
    critics = TwinCritics(S_DIM, A_DIM, (4,), np.random.default_rng(1))
    # force known constant outputs via the head biases of zeroed nets
    for net, bias in ((critics.q1, 2.0), (critics.q2, -1.0)):
        net.set_arrays([np.zeros_like(p) for p in net.params])
        net.params[-1][...] = bias
    s = np.zeros((4, S_DIM))
    a = np.zeros((4, A_DIM))
    np.testing.assert_allclose(critics.min_q(s, a), -1.0)
    # targets were copied before the overwrite, so they differ now
    assert not np.allclose(critics.min_target_q(s, a), -1.0)
    # and min_target_q takes the minimum of the two targets
    for net, bias in ((critics.q1_target, 0.5), (critics.q2_target, 3.0)):
        net.set_arrays([np.zeros_like(p) for p in net.params])
        net.params[-1][...] = bias
    np.testing.assert_allclose(critics.min_target_q(s, a), 0.5)


def test_soft_update_endpoints_and_blend():
    rng = np.random.default_rng(2)
    online = Mlp([2, 3, 1], rng=rng)
    target = Mlp([2, 3, 1], rng=rng)
    before_online = [p.copy() for p in online.params]
    before_target = [p.copy() for p in target.params]

    soft_update(online.params, target.params, 0.005)
    for b_on, b_tg, after in zip(before_online, before_target,
                                 target.params):
        np.testing.assert_allclose(after, 0.005 * b_on + 0.995 * b_tg,
                                   rtol=1e-12)

    soft_update(online.params, target.params, 0.0)  # no-op
    for b_on, b_tg, after in zip(before_online, before_target,
                                 target.params):
        np.testing.assert_allclose(after, 0.005 * b_on + 0.995 * b_tg,
                                   rtol=1e-12)

    soft_update(online.params, target.params, 1.0)  # full copy
    for b_on, after in zip(before_online, target.params):
        np.testing.assert_allclose(after, b_on, rtol=1e-12)

    with pytest.raises(ValueError):
        soft_update(online.params, Mlp([2, 4, 1]).params, 0.5)


@pytest.mark.parametrize("rewrite", ["set_arrays", "soft_update"])
def test_adam_steps_the_arrays_the_nets_read(rewrite):
    """Adam holds the parameter arrays it was built with.  After the net's
    parameters are rewritten, a step must still move what forward and the
    sampler read, not an array the net has dropped."""
    rng = np.random.default_rng(15)
    policy = DiffusionPolicy(S_DIM, A_DIM, (8,), 3, 1.0e-4, 0.02, rng)
    net = policy.denoiser
    opt = Adam(policy.denoiser.params, 0.1)
    source = Mlp(net.widths, rng)
    if rewrite == "set_arrays":
        net.set_arrays(source.params)
    else:
        soft_update(source.params, net.params, 0.5)
    x = rng.standard_normal((4, net.widths[0]))
    states = rng.standard_normal((4, S_DIM))
    out_before = net.forward(x)
    expect = [p.copy() for p in net.params]

    # a step on the first-layer weights only
    grads = [np.zeros_like(p) for p in net.params]
    grads[0] = np.ones_like(net.params[0])
    opt.step(grads)
    expect[0] = expect[0] - 0.1 / (1.0 + 1e-8)
    for got, want in zip(net.params, expect):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    assert not np.allclose(net.forward(x), out_before)

    # the sampler reads the first layer directly; it must see the step
    fresh = DiffusionPolicy(S_DIM, A_DIM, (8,), 3, 1.0e-4, 0.02, None)
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


def inline_td_targets(batch, critics, target_policy, gamma, target_samples,
                      rng):
    """td_targets with the repeat, sample and score sequence written
    inline: the loop reference."""
    states, actions, rewards, next_states, dones = batch
    n = len(rewards)
    rep = np.repeat(next_states, target_samples, axis=0)
    candidates = target_policy.sample_batch(rep, rng)
    values = critics.min_target_q(rep, candidates).reshape(n, target_samples)
    best = values.max(axis=1)
    return rewards + gamma * best * (1.0 - dones)


def float32_learner(seed, state_dim=S_DIM, action_dim=A_DIM, hidden=(8,)):
    """A policy and twin critics of the trainer's dtype, with a target
    policy that differs from the policy."""
    rng = np.random.default_rng(seed)
    sched = (3, 1.0e-4, 0.02)
    policy = DiffusionPolicy(state_dim, action_dim, hidden, *sched, rng,
                             NET_DTYPE)
    target = DiffusionPolicy(state_dim, action_dim, hidden, *sched, rng,
                             NET_DTYPE)
    critics = TwinCritics(state_dim, action_dim, hidden, rng, NET_DTYPE)
    soft_update(critics.q1.params, critics.q1_target.params, 0.5)
    return policy, target, critics


@pytest.mark.parametrize("n,samples,dims", [
    (1, 1, (S_DIM, A_DIM, (8,))), (7, 2, (S_DIM, A_DIM, (8,))),
    (32, 3, (129, 40, (32, 16)))])
def test_td_targets_equal_the_inline_loop(n, samples, dims):
    """Float32 nets and a replay batch of the buffer's dtypes, with
    terminal rows: the same targets to the bit, from the same draws."""
    _, target, critics = float32_learner(20 + n, *dims)
    rng = np.random.default_rng(n)
    buf = RingBuffer(n)
    for k in range(n):
        buf.push(rng.standard_normal(dims[0]),
                 rng.uniform(-1, 1, dims[1]), float(rng.standard_normal()),
                 rng.standard_normal(dims[0]), k % 3 == 2)
    batch = buf.sample(n, rng)
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = td_targets(batch, critics, target, 0.9, samples, got_rng)
    want = inline_td_targets(batch, critics, target, 0.9, samples, want_rng)
    assert got.dtype == want.dtype == np.float64
    assert (got == want).all()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_critic_update_converges_on_frozen_batch():
    critics = TwinCritics(S_DIM, A_DIM, (16,), np.random.default_rng(8))
    opt = Adam(critics.params, 1e-2)
    batch = make_batch(n=8)
    targets = np.linspace(-1, 1, 8)
    first = None
    for _ in range(300):
        losses = critic_update(batch, targets, critics, opt)
        if first is None:
            first = losses
    assert losses[0] < first[0] and losses[1] < first[1]
    states, acts = batch[0], batch[1]
    np.testing.assert_allclose(critics.min_q(states, acts), targets, atol=0.2)


def test_critic_update_zero_loss_at_fixpoint():
    critics = TwinCritics(S_DIM, A_DIM, (4,), None)  # all-zero nets
    opt = Adam(critics.params, 0.0)
    batch = make_batch(n=4)
    losses = critic_update(batch, np.zeros(4), critics, opt)
    assert losses == [0.0, 0.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_critic_update_rejects_a_non_finite_loss(bad):
    critics = TwinCritics(S_DIM, A_DIM, (4,), np.random.default_rng(8))
    opt = Adam(critics.params, 1e-2)
    before = [p.copy() for p in critics.params]
    with pytest.raises(NonFiniteGradient):
        critic_update(make_batch(n=4), np.array([0.0, bad, 0.0, 0.0]),
                      critics, opt)
    # raised before either critic stepped
    assert all((p == q).all() for p, q in zip(critics.params, before))
    assert opt.t == 0


def test_critic_update_rejects_q2_alone_before_q1_steps():
    """Only q2's loss is non-finite: q1's pass runs first and must not
    have stepped q1 when q2's raises."""
    critics = TwinCritics(S_DIM, A_DIM, (4,), np.random.default_rng(8))
    critics.q2.params[-1][...] = np.inf
    opt = Adam(critics.params, 1e-2)
    arrays = critics.params + critics.target_params
    before = [p.copy() for p in arrays]
    with pytest.raises(NonFiniteGradient, match="critic loss"):
        critic_update(make_batch(n=4), np.zeros(4), critics, opt)
    assert all(np.array_equal(p, q) for p, q in zip(arrays, before))
    assert opt.t == 0
    assert all(not m.any() and not v.any() for m, v in zip(opt.m, opt.v))


def make_actor_setup(seed=9):
    rng = np.random.default_rng(seed)
    policy = DiffusionPolicy(S_DIM, A_DIM, (8,), 3, 1.0e-4, 0.02, rng)
    critics = TwinCritics(S_DIM, A_DIM, (8,), rng)
    pairs = [(rng.standard_normal(S_DIM), rng.uniform(-1, 1, A_DIM))
             for _ in range(6)]
    states = np.stack([s for s, _ in pairs])
    acts = np.stack([a for _, a in pairs])
    return policy, critics, states, acts


def test_actor_update_runs_and_moves_params():
    policy, critics, states, acts = make_actor_setup()
    hyper = tiny_hyper()
    opt = Adam(policy.denoiser.params, 1e-3)
    before = [p.copy() for p in policy.denoiser.params]
    loss = actor_update(policy, critics, states, acts, hyper,
                        np.random.default_rng(10), opt)
    assert math.isfinite(loss)
    assert any(not np.array_equal(b, p)
               for b, p in zip(before, policy.denoiser.params))


def test_actor_update_rejects_a_nan_weight():
    """A NaN critic head makes every advantage weight NaN; the loss is then
    NaN, and actor_update raises before the actor's Adam steps."""
    policy, critics, states, acts = make_actor_setup()
    critics.q1.params[-1][...] = np.nan
    opt = Adam(policy.denoiser.params, 1e-3)
    before = [p.copy() for p in policy.denoiser.params]
    with pytest.raises(NonFiniteGradient, match="actor loss"):
        actor_update(policy, critics, states, acts, tiny_hyper(),
                     np.random.default_rng(10), opt)
    assert all(np.array_equal(b, p)
               for b, p in zip(before, policy.denoiser.params))
    assert opt.t == 0
    assert all(not m.any() and not v.any() for m, v in zip(opt.m, opt.v))


def test_actor_update_mean_variant_flat_critic_is_noop():
    """A flat critic makes Q == V, so the advantage weights are exactly
    zero; the entropy weight, ent_coeff times the mean positive advantage
    of the fresh samples, is zero too, and the whole update is a no-op."""
    policy, _, states, acts = make_actor_setup(seed=13)

    class FlatCritics:
        def min_q(self, states, actions):
            return np.zeros(len(np.atleast_2d(states)))

    hyper = tiny_hyper()
    opt = Adam(policy.denoiser.params, 1e-3)
    before = [p.copy() for p in policy.denoiser.params]
    loss = actor_update(policy, FlatCritics(), states, acts, hyper,
                        np.random.default_rng(14), opt)
    assert loss == 0.0
    for b, p in zip(before, policy.denoiser.params):
        np.testing.assert_array_equal(b, p)


def inline_actor_update(policy, critics, states, acts, hyper, rng, opt):
    """actor_update in its explicit two-call form: the Q-weighted loss
    plus an entropy loss toward uniform actions, weighted by ent_coeff
    times the mean positive advantage of the fresh samples, with the
    gradients summed.  The loop reference."""
    n = len(states)
    q_vals = critics.min_q(states, acts)
    rep = np.repeat(states, hyper.n_value_samples, axis=0)
    samples = policy.sample_batch(rep, rng)
    q_samples = critics.min_q(rep, samples).reshape(n, hyper.n_value_samples)
    v_est = q_samples.mean(axis=1)
    weights = np.maximum(q_vals - v_est, 0.0)
    sample_adv = np.maximum(q_samples - v_est[:, None], 0.0).mean(axis=1)
    loss, grads = weighted_denoise_loss(policy, states, acts, weights, rng)
    if hyper.n_uniform_samples > 0 and hyper.ent_coeff > 0.0:
        idx = rng.integers(0, n, size=hyper.n_uniform_samples)
        u_states = states[idx]
        u_actions = rng.uniform(-1.0, 1.0, size=(hyper.n_uniform_samples,
                                                 policy.action_dim))
        stats = sample_adv[idx]
        e_loss, e_grads = weighted_denoise_loss(
            policy, u_states, u_actions, hyper.ent_coeff * stats, rng)
        loss = loss + e_loss
        grads = [g + e for g, e in zip(grads, e_grads)]
    opt.step(grads)
    return float(loss)


@pytest.mark.parametrize("ent", [
    dict(), dict(ent_coeff=0.5, n_uniform_samples=5),
    dict(ent_coeff=0.0), dict(n_uniform_samples=0)])
def test_actor_update_equals_the_two_call_form(ent):
    """One step on float32 nets from replayed float32 rows: the same loss,
    parameters, Adam moments and draws, to the bit."""
    hyper = tiny_hyper(n_value_samples=3, **ent)
    runs = []
    for update in (actor_update, inline_actor_update):
        policy, _, critics = float32_learner(31)
        opt = Adam(policy.denoiser.params, 1e-2)
        rng = np.random.default_rng(32)
        states = rng.standard_normal((6, S_DIM)).astype(NET_DTYPE)
        acts = rng.uniform(-1, 1, (6, A_DIM)).astype(NET_DTYPE)
        loss = update(policy, critics, states, acts, hyper, rng, opt)
        runs.append((loss, [p.copy() for p in policy.denoiser.params],
                     opt.m + opt.v, rng.bit_generator.state))
    (loss, params, moments, state), want = runs
    assert loss == want[0] and loss > 0.0
    for got, expect in zip(params + moments, want[1] + want[2]):
        assert got.dtype == NET_DTYPE and (got == expect).all()
    assert state == want[3]


def play_episode(trainer):
    """One episode with the trainer's learn step; (reward, critic_loss,
    actor_loss)."""
    [row] = run_episodes(trainer.env, trainer.select_action, 1,
                         learn=trainer.learn)
    losses = trainer.episode_losses()
    return row["reward"], losses["critic_loss"], losses["actor_loss"]


def test_trainer_smoke_episode():
    sc = toy_scenario()
    env = SaginEnv(sc, 1)
    trainer = QagobTrainer(env, tiny_hyper())
    critics = (trainer.critics.q1, trainer.critics.q2)
    before = [[p.copy() for p in net.params] for net in critics]
    reward, closs, aloss = play_episode(trainer)
    assert math.isfinite(reward)
    assert trainer.total_steps == sc.horizon
    assert len(trainer.replay) == sc.horizon
    # batch_size 4 <= 5 steps, so updates ran and losses are numbers
    assert math.isfinite(closs)
    # n_policy_samples 4: the actor updated as well
    assert math.isfinite(aloss)
    for net, old in zip(critics, before):
        assert any(not np.array_equal(a, b) for a, b in zip(old, net.params))


def test_episode_losses_are_the_means_of_its_updates():
    # horizon 5, warmup 7: no update in episode 1, three in episode 2
    env = SaginEnv(toy_scenario(), 1)
    trainer = QagobTrainer(env, tiny_hyper(warmup_steps=7))
    update, seen = trainer.update, []
    trainer.update = lambda: seen.append(update()) or seen[-1]
    _, closs, aloss = play_episode(trainer)
    assert seen == [] and math.isnan(closs) and math.isnan(aloss)
    _, closs, aloss = play_episode(trainer)
    assert len(seen) == 3
    for mean, losses in ((closs, [c for c, _ in seen]),
                         (aloss, [a for _, a in seen])):
        total = 0.0
        for loss in losses:    # a sequential sum, then one division
            total += loss
        assert mean == total / len(losses)


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
    play_episode(trainer)
    assert env.scenario is sc
    assert sc.horizon == 5


def test_target_nets_start_as_copies():
    env = SaginEnv(toy_scenario(), 4)
    trainer = QagobTrainer(env, tiny_hyper())
    for a, b in zip(trainer.policy.denoiser.params,
                    trainer.policy_target.denoiser.params):
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
    play_episode(trainer)
    path = tmp_path / "ck.npz"
    trainer.checkpoint(path, {"note": "test"})
    nets, meta = load_checkpoint(path)
    assert set(nets) == {"actor", "q1", "q2"}
    assert meta["seed"] == 5
    assert meta["total_steps"] == trainer.total_steps
    assert meta["note"] == "test"
    np.testing.assert_allclose(meta["betas"],
                               trainer.policy.betas)
    # the header's widths are the architecture eval rebuilds from
    assert nets["actor"].widths[1:-1] == list(trainer.hyper.actor_widths)
    assert nets["q1"].widths[1:-1] == list(trainer.hyper.critic_widths)
    for name, net in nets.items():
        assert sum(p.size for p in net.params) > 0
    x = np.zeros((1, env.state_dim + env.action_dim))
    np.testing.assert_array_equal(nets["q1"].forward(x),
                                  trainer.critics.q1.forward(x))


def test_trainer_networks_stay_float32(tmp_path, monkeypatch):
    """Through an update, every array of the trainer's networks stays
    float32.  A float64 operand anywhere would promote them (NEP 50)
    without any sign that a value test could show."""
    grads = []
    backward = autodiff.backward
    monkeypatch.setattr(autodiff, "backward",
                        lambda *args: grads.append(backward(*args))
                        or grads[-1])
    env = SaginEnv(toy_scenario(), 6)
    # horizon 5, batch 4, warmup 4: one update, in the last step
    trainer = QagobTrainer(env, tiny_hyper(warmup_steps=4))
    play_episode(trainer)
    assert trainer.opt_critics.t == trainer.opt_actor.t == 1 and grads
    nets = [trainer.policy.denoiser, trainer.policy_target.denoiser,
            trainer.critics.q1, trainer.critics.q2,
            trainer.critics.q1_target, trainer.critics.q2_target]
    arrays = [p for net in nets for p in net.params]
    for opt in (trainer.opt_actor, trainer.opt_critics):
        arrays += opt.m + opt.v
    arrays += [g for net_grads in grads for g in net_grads]
    states = np.stack([env.reset()] * 3)
    arrays.append(trainer.policy.sample_batch(
        states, np.random.default_rng(0), squash=False))
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}

    action = trainer.select_action(env.reset())
    assert action.dtype == np.float64

    path = tmp_path / "ck.npz"
    trainer.checkpoint(path)
    with np.load(path) as data:
        stored = {data[name].dtype.str for name in data.files
                  if name != "header"}
    assert stored == {"<f4"}


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
    rows1, tr1 = train(sc, hyper, 7, 2)
    rows2, tr2 = train(sc, hyper, 7, 2)
    assert len(rows1) == 2
    assert all(rows_equal(r1, r2) for r1, r2 in zip(rows1, rows2))
    for a, b in zip(tr1.policy.denoiser.params,
                    tr2.policy.denoiser.params):
        np.testing.assert_array_equal(a, b)
    rows3, _ = train(sc, hyper, 8, 2)
    assert [r["reward"] for r in rows3] != [r["reward"] for r in rows1]


def test_train_on_episode_callback_and_records(tmp_path):
    sc = toy_scenario()
    hyper = tiny_hyper(checkpoint_every=1)
    seen, records = [], []
    rows, _ = train(sc, hyper, 9, 2, on_slot=records.append,
                    on_episode=seen.append, ckpt_dir=str(tmp_path))
    assert seen == rows
    assert [row["episode"] for row in rows] == [0, 1]
    assert [rec["episode"] for rec in records] \
        == [0] * sc.horizon + [1] * sc.horizon
    assert (tmp_path / "ep00001.npz").exists()
    assert (tmp_path / "ep00002.npz").exists()
    assert load_checkpoint(tmp_path / "final.npz")[1]["episode"] == 2
    for row in rows:
        assert {"episode", "reward", "f1", "f2", "f3", "critic_loss",
                "actor_loss"} <= set(row)
