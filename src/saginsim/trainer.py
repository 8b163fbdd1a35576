"""Online diffusion-policy training (the qagob algorithm).

Per environment step: act with the sample-and-argmax behavior policy,
store the transition in the replay buffer, then, once past warmup with a
batch in the buffer, run one critic update on a replay batch and one
actor update on the (state, action) pairs of a second replay batch,
followed by soft target blending.  Critics are twins; TD targets
bootstrap through the minimum of the two target critics evaluated at the
target policy's sample-and-argmax action.

Actor updates weight the denoising loss by the positive advantage
max(Q - V, 0), with V the mean critic value over fresh policy samples,
plus an entropy term that denoises toward uniform actions.
"""

import dataclasses
import math
import os
import time

import numpy as np

from . import diffusion
from .environment import SaginEnv, rollout
from .errors import ConfigInvalid, NonFiniteGradient
from .nets import autodiff
from .nets.mlp import Mlp, save_checkpoint
from .nets.optim import Adam
from .runio import episode_metrics
from .scenario import SeededRng


@dataclasses.dataclass
class Hyper:
    gamma: float = 0.9
    soft_rate: float = 0.005          # target blend per update
    lr_actor: float = 3.0e-4
    lr_critic: float = 3.0e-2
    replay_capacity: int = 1_000_000
    batch_size: int = 256
    warmup_steps: int = 1000          # env steps before updates begin
    n_policy_samples: int = 64        # replay rows per actor update
    n_uniform_samples: int = 16       # uniform rows per actor update
    n_value_samples: int = 8          # policy samples behind the V estimate
    behavior_samples: int = 4         # candidates when acting
    target_samples: int = 2           # candidates inside the TD target
    ent_coeff: float = 0.02
    ent_variant: str = "mean"         # "mean" | "max"
    critic_widths: tuple = (256, 128)
    actor_widths: tuple = (256, 256)
    n_denoise: int = 10
    beta_start: float = 1.0e-4
    beta_end: float = 0.02
    checkpoint_every: int = 0         # episodes; 0 keeps only the final file

    def __post_init__(self):
        """Raise ConfigInvalid naming the first field out of range."""
        for names, ok, why in (
                ("replay_capacity batch_size n_policy_samples n_value_samples "
                 "behavior_samples target_samples n_denoise",
                 lambda v: v >= 1, ">= 1"),
                ("warmup_steps n_uniform_samples checkpoint_every ent_coeff",
                 lambda v: v >= 0, ">= 0"),
                ("lr_actor lr_critic", lambda v: v > 0, "> 0"),
                ("gamma", lambda v: 0 <= v <= 1, "in [0, 1]"),
                ("soft_rate", lambda v: 0 < v <= 1, "in (0, 1]"),
                ("beta_end", lambda v: 0 < v < 1, "in (0, 1)"),
                ("beta_start", lambda v: 0 < v <= self.beta_end,
                 "in (0, beta_end]")):
            for name in names.split():
                value = getattr(self, name)
                if not (math.isfinite(value) and ok(value)):
                    raise ConfigInvalid("hyper." + name,
                                        "expected a finite value " + why)
        for name in ("critic_widths", "actor_widths"):
            if min(getattr(self, name), default=1) < 1:
                raise ConfigInvalid("hyper." + name, "widths must be >= 1")
        if self.ent_variant not in ("mean", "max"):
            raise ConfigInvalid("hyper.ent_variant", "expected mean or max")


class RingBuffer:
    """Fixed-capacity FIFO with uniform sampling (no replacement)."""

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.items = []
        self._next = 0

    def push(self, item):
        if len(self.items) < self.capacity:
            self.items.append(item)
        else:
            self.items[self._next] = item
        self._next = (self._next + 1) % self.capacity

    def sample(self, n, rng):
        if n > len(self.items):
            raise ValueError("asked for %d items, buffer holds %d"
                             % (n, len(self.items)))
        idx = rng.choice(len(self.items), size=n, replace=False)
        return [self.items[i] for i in idx]

    def __len__(self):
        return len(self.items)


class TwinCritics:
    def __init__(self, state_dim, action_dim, widths, rng):
        dims = [state_dim + action_dim] + list(widths) + [1]
        self.q1 = Mlp(dims, rng)
        self.q2 = Mlp(dims, rng)
        self.q1_target = self.q1.clone()
        self.q2_target = self.q2.clone()

    @staticmethod
    def _join(states, actions):
        return np.concatenate([np.atleast_2d(states), np.atleast_2d(actions)],
                              axis=1)

    def min_q(self, states, actions):
        x = self._join(states, actions)
        return np.minimum(self.q1.forward(x), self.q2.forward(x))[:, 0]

    def min_target_q(self, states, actions):
        x = self._join(states, actions)
        return np.minimum(self.q1_target.forward(x),
                          self.q2_target.forward(x))[:, 0]


def soft_update(online, target, rate):
    """target <- rate * online + (1 - rate) * target, elementwise."""
    if online.widths != target.widths:
        raise ValueError("network shapes differ")
    for p_on, p_tg in zip(online.params, target.params):
        p_tg[...] = rate * p_on + (1.0 - rate) * p_tg


def td_targets(batch, critics, target_policy, gamma, target_samples, rng):
    """Bootstrapped targets y = r + gamma min-target-Q(s', a*) with a* the
    target policy's best-of-target_samples action; terminal rows use r."""
    states, actions, rewards, next_states, dones = batch
    n = len(rewards)
    rep = np.repeat(next_states, target_samples, axis=0)
    candidates = target_policy.sample_batch(rep, rng)
    values = critics.min_target_q(rep, candidates).reshape(n, target_samples)
    best = values.max(axis=1)
    return rewards + gamma * best * (1.0 - dones)


def critic_update(batch, targets, critics, opt1, opt2):
    """Step both critics toward the shared targets; returns the two losses."""
    states, actions, _, _, _ = batch
    x = TwinCritics._join(states, actions)
    y = np.asarray(targets, dtype=np.float64)[:, None]
    losses = []
    for net, opt in ((critics.q1, opt1), (critics.q2, opt2)):
        pred, tape = net.forward_tape(x)
        resid = pred - y
        loss = float((resid * resid).mean())
        if not np.isfinite(loss):
            raise NonFiniteGradient("critic loss is not finite: %r" % loss)
        # d(loss)/d(pred); its factor order sets the rounding of every run
        d_pred = np.full(resid.shape, 1.0 / resid.size) * 2.0 * resid
        opt.step(autodiff.backward(net, tape, d_pred))
        losses.append(loss)
    return losses


def actor_update(policy, critics, states, acts, hyper, rng, opt):
    """Q-weighted denoising update plus the entropy term; returns the loss."""
    n = len(states)

    q_vals = critics.min_q(states, acts)
    rep = np.repeat(states, hyper.n_value_samples, axis=0)
    samples = policy.sample_batch(rep, rng)
    q_samples = critics.min_q(rep, samples).reshape(n, hyper.n_value_samples)
    v_est = q_samples.mean(axis=1)
    weights = diffusion.q_weights(q_vals, v_est)
    # per-state mean positive advantage of the fresh samples, for the
    # mean-form entropy weight
    sample_adv = np.maximum(q_samples - v_est[:, None], 0.0).mean(axis=1)

    loss, grads = diffusion.weighted_denoise_loss(policy, states, acts,
                                                  weights, rng)
    if hyper.n_uniform_samples > 0 and hyper.ent_coeff > 0.0:
        idx = rng.integers(0, n, size=hyper.n_uniform_samples)
        u_states = states[idx]
        u_actions = rng.uniform(-1.0, 1.0,
                                size=(hyper.n_uniform_samples, policy.action_dim))
        if hyper.ent_variant == "max":
            stats = np.full(hyper.n_uniform_samples, weights.max())
        else:
            stats = sample_adv[idx]
        e_loss, e_grads = diffusion.entropy_loss(
            policy, u_states, u_actions, hyper.ent_coeff, stats, rng)
        loss = loss + e_loss
        grads = [g + e for g, e in zip(grads, e_grads)]
    loss = float(loss)
    if not np.isfinite(loss):
        raise NonFiniteGradient("actor loss is not finite: %r" % loss)
    opt.step(grads)
    return loss


class QagobTrainer:
    """The qagob agent of one environment, seeded by env.seed."""

    def __init__(self, env, hyper):
        self.env = env
        self.hyper = hyper
        self.rng = SeededRng(env.seed)
        net_rng = self.rng.stream("net-init")
        schedule = diffusion.VarianceSchedule.linear(
            self.hyper.n_denoise, self.hyper.beta_start, self.hyper.beta_end)
        self.policy = diffusion.DiffusionPolicy(
            env.state_dim, env.action_dim, self.hyper.actor_widths,
            schedule, net_rng)
        self.policy_target = diffusion.DiffusionPolicy(
            env.state_dim, env.action_dim, self.hyper.actor_widths,
            schedule, None)
        self.policy_target.denoiser.set_arrays(self.policy.denoiser.get_arrays())
        self.critics = TwinCritics(env.state_dim, env.action_dim,
                                   self.hyper.critic_widths, net_rng)
        self.opt_actor = Adam(self.policy.params, self.hyper.lr_actor)
        self.opt_q1 = Adam(self.critics.q1.params, self.hyper.lr_critic)
        self.opt_q2 = Adam(self.critics.q2.params, self.hyper.lr_critic)
        self.replay = RingBuffer(self.hyper.replay_capacity)
        self.total_steps = 0

    def select_action(self, state):
        return diffusion.behavior_select(
            self.policy, state, self.critics.min_q,
            self.hyper.behavior_samples, self.rng.stream("policy-noise"))

    def _batch_arrays(self, rows):
        states = np.stack([r[0] for r in rows])
        acts = np.stack([r[1] for r in rows])
        rewards = np.array([r[2] for r in rows], dtype=np.float64)
        next_states = np.stack([r[3] for r in rows])
        dones = np.array([float(r[4]) for r in rows])
        return states, acts, rewards, next_states, dones

    def update(self):
        """One gradient phase; returns (critic_loss_mean, actor_loss or None)."""
        h = self.hyper
        t_rng = self.rng.stream("trainer")
        batch = self._batch_arrays(self.replay.sample(h.batch_size, t_rng))
        targets = td_targets(batch, self.critics, self.policy_target,
                             h.gamma, h.target_samples, t_rng)
        closses = critic_update(batch, targets, self.critics,
                                self.opt_q1, self.opt_q2)
        aloss = None
        if len(self.replay) >= h.n_policy_samples:
            states, acts, _, _, _ = self._batch_arrays(
                self.replay.sample(h.n_policy_samples, t_rng))
            aloss = actor_update(self.policy, self.critics, states, acts,
                                 h, t_rng, self.opt_actor)
            soft_update(self.policy.denoiser, self.policy_target.denoiser,
                        h.soft_rate)
        soft_update(self.critics.q1, self.critics.q1_target, h.soft_rate)
        soft_update(self.critics.q2, self.critics.q2_target, h.soft_rate)
        return sum(closses) / 2.0, aloss

    def run_episode(self):
        """One environment episode with per-step updates after warmup."""
        h = self.hyper
        closs_sum, closs_n = 0.0, 0
        aloss_sum, aloss_n = 0.0, 0

        def learn(state, action, reward, next_state, done):
            nonlocal closs_sum, closs_n, aloss_sum, aloss_n
            self.replay.push((state, action, reward, next_state, done))
            self.total_steps += 1
            if (self.total_steps > h.warmup_steps
                    and len(self.replay) >= h.batch_size):
                closs, aloss = self.update()
                closs_sum += closs
                closs_n += 1
                if aloss is not None:
                    aloss_sum += aloss
                    aloss_n += 1

        ep_reward = rollout(self.env, self.select_action, learn)
        critic_loss = closs_sum / closs_n if closs_n else float("nan")
        actor_loss = aloss_sum / aloss_n if aloss_n else float("nan")
        return ep_reward, critic_loss, actor_loss

    def checkpoint(self, path, meta=None):
        nets = {
            "actor": self.policy.denoiser,
            "actor_target": self.policy_target.denoiser,
            "q1": self.critics.q1,
            "q2": self.critics.q2,
            "q1_target": self.critics.q1_target,
            "q2_target": self.critics.q2_target,
        }
        base = {"seed": self.env.seed, "total_steps": self.total_steps,
                "betas": list(self.policy.schedule.betas)}
        base.update(meta or {})
        save_checkpoint(path, nets, base)


def train(scenario, hyper, seed, episodes, on_episode=None, ckpt_dir=None,
          progress=True):
    """Train for `episodes` episodes from `seed`; returns (report rows,
    trainer).

    on_episode(row, records) fires after each episode with its report row
    and slot records, so episodes finished before a mid-run crash reach
    the caller.
    """
    env = SaginEnv(scenario, seed)
    trainer = QagobTrainer(env, hyper)
    rows = []
    start = time.time()
    for episode in range(episodes):
        ep_reward, closs, aloss = trainer.run_episode()
        row = episode_metrics(env, episode, ep_reward)
        row["critic_loss"] = closs
        row["actor_loss"] = aloss
        rows.append(row)
        if on_episode is not None:
            on_episode(row, env.records)
        if progress:
            print("episode %d/%d reward %.3f (%.1fs)" % (
                episode + 1, episodes, ep_reward, time.time() - start),
                flush=True)
        if ckpt_dir and hyper.checkpoint_every > 0 \
                and (episode + 1) % hyper.checkpoint_every == 0:
            trainer.checkpoint(os.path.join(
                ckpt_dir, "ep%05d.npz" % (episode + 1)),
                {"episode": episode + 1})
    if ckpt_dir:
        trainer.checkpoint(os.path.join(ckpt_dir, "final.npz"),
                           {"episode": episodes})
    return rows, trainer
