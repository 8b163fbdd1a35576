"""Online diffusion-policy training (the qagob algorithm).

environment.run_episodes plays the episodes; this module holds the
per-step learning, QagobTrainer.learn, and all checkpoint I/O, but no loop.
Per environment step: act with the sample-and-argmax behavior policy,
store the transition in the replay buffer, then, once past warmup with a
batch in the buffer, run one critic update on a replay batch and one
actor update on the (state, action) pairs of a second replay batch,
followed by soft target blending.  Critics are twins; TD targets
bootstrap through the minimum of the two target critics evaluated at the
target policy's sample-and-argmax action.  One Adam steps the actor and
one steps both critics.

Actor updates weight the denoising loss by the positive advantage
max(Q - V, 0), with V the mean critic value over fresh policy samples,
plus an entropy term that denoises toward uniform actions, each weighted
by ent_coeff times the mean positive advantage of its state's fresh
samples (after QVPO, Ding et al. 2024).

Precision: the six networks, their Adam moments, reverse diffusion, the
forward and backward passes and the soft target blend run in NET_DTYPE,
float32.  The replay buffer stores states and actions in NET_DTYPE too,
which is exact: replayed states only ever enter a network, which casts
them to NET_DTYPE before any arithmetic, and replayed actions are
float32 values that select_action cast up.
Everything else is float64: the environment, the replayed rewards and
dones, the critic values once they leave the net (so the TD targets,
advantages and weights), the losses, every output, and the actions that
select_action returns.  Every random draw is taken in float64 and then
cast, so each stream's draws are those of a float64 run.
"""

import copy
import dataclasses
import os

import numpy as np

from . import diffusion
from .environment import SaginEnv, run_episodes
from .errors import CheckpointInvalid, ConfigInvalid, NonFiniteGradient
from .nets import autodiff
from .nets.mlp import Mlp, load_checkpoint, save_checkpoint
from .nets.optim import Adam
from .scenario import (AT_LEAST_ONE, NONNEGATIVE, POSITIVE, check_ranges,
                       is_number)

# the dtype of the trainer's networks and of everything they compute
NET_DTYPE = np.dtype(np.float32)

# a checkpoint holds the networks select_action plays, and no targets, as
# it cannot resume training anyway (no Adam moments, replay or RNG state);
# from_checkpoint takes these hyper keys from it
CHECKPOINT_NETS = ("actor", "q1", "q2")
CHECKPOINT_KEYS = ("hyper.actor_widths", "hyper.critic_widths",
                   "hyper.n_denoise", "hyper.beta_start", "hyper.beta_end")


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
    critic_widths: tuple = (256, 128)
    actor_widths: tuple = (256, 256)
    n_denoise: int = 10
    beta_start: float = 1.0e-4
    beta_end: float = 0.02
    checkpoint_every: int = 0         # episodes; 0 keeps only the final file

    RANGES = (
        ("replay_capacity batch_size n_policy_samples n_value_samples "
         "behavior_samples target_samples n_denoise", *AT_LEAST_ONE),
        ("warmup_steps n_uniform_samples checkpoint_every ent_coeff",
         *NONNEGATIVE),
        ("lr_actor lr_critic", *POSITIVE),
        ("gamma", lambda v: 0 <= v <= 1, "a value in [0, 1]"),
        ("soft_rate", lambda v: 0 < v <= 1, "a value in (0, 1]"),
        ("beta_start beta_end", lambda v: 0 < v < 1, "a value in (0, 1)"),
        ("critic_widths actor_widths", lambda w: min(w, default=0) >= 1,
         "a nonempty list of widths >= 1"))

    def __post_init__(self):
        """Raise ConfigInvalid naming the first field out of range."""
        check_ranges(self, "hyper.")
        if self.beta_start > self.beta_end:
            raise ConfigInvalid("hyper.beta_start",
                                "above beta_end %r" % self.beta_end)
        for name in ("batch_size", "n_policy_samples"):
            if getattr(self, name) > self.replay_capacity:
                raise ConfigInvalid("hyper." + name,
                                    "above replay_capacity %d, so no update "
                                    "would ever run" % self.replay_capacity)


class RingBuffer:
    """Fixed-capacity FIFO of transitions with uniform sampling (no
    replacement), stored as five columns, one row per transition.

    columns is (states, actions, rewards, next_states, dones), the order
    of push's arguments and of a sampled batch.  States, next states and
    actions are stored in NET_DTYPE, rewards and dones (1.0 for a
    terminal row) in float64; the module docstring says why that is
    exact.  The columns grow by doubling up to capacity, so an empty
    buffer holds no rows at all.

    capacity >= 1: the trainer passes Hyper.replay_capacity, validated at
    least 1.
    """

    DTYPES = (NET_DTYPE, NET_DTYPE, np.float64, NET_DTYPE, np.float64)

    def __init__(self, capacity):
        self.capacity = capacity
        self.columns = ()
        self._len = 0
        self._next = 0

    def push(self, state, action, reward, next_state, done):
        """Write one transition at the ring slot, over the oldest once full."""
        row = (state, action, reward, next_state, done)
        rows = len(self.columns[0]) if self.columns else 0
        if self._len == rows < self.capacity:
            grown = [np.empty((min(2 * rows or 1, self.capacity),)
                              + np.shape(value), dtype)
                     for value, dtype in zip(row, self.DTYPES)]
            for new, old in zip(grown, self.columns):
                new[:rows] = old
            self.columns = tuple(grown)
        for col, value in zip(self.columns, row):
            col[self._next] = value
        self._len = min(self._len + 1, self.capacity)
        self._next = (self._next + 1) % self.capacity

    def sample(self, n, rng):
        """n distinct rows drawn uniformly: one array per column.

        n <= len(self): QagobTrainer.learn updates only with batch_size
        rows held, and update checks n_policy_samples before it samples.
        A larger n makes rng.choice raise ValueError.
        """
        idx = rng.choice(self._len, size=n, replace=False)
        return tuple(col[idx] for col in self.columns)

    def __len__(self):
        return self._len


class TwinCritics:
    """Two critics and their targets, nets of dtype (float64 unless
    given); min_q and min_target_q return float64 values.  params and
    target_params list q1's arrays, then q2's, of online and target nets."""

    def __init__(self, state_dim, action_dim, widths, rng, dtype=np.float64):
        dims = [state_dim + action_dim] + list(widths) + [1]
        self.q1 = Mlp(dims, rng, dtype)
        self.q2 = Mlp(dims, rng, dtype)
        self.q1_target, self.q2_target = copy.deepcopy((self.q1, self.q2))
        self.params = self.q1.params + self.q2.params
        self.target_params = self.q1_target.params + self.q2_target.params

    @staticmethod
    def _join(states, actions):
        return np.concatenate([np.atleast_2d(states), np.atleast_2d(actions)],
                              axis=1)

    @classmethod
    def _min(cls, q1, q2, states, actions):
        x = cls._join(states, actions)
        return np.minimum(q1.forward(x),
                          q2.forward(x))[:, 0].astype(np.float64)

    def min_q(self, states, actions):
        return self._min(self.q1, self.q2, states, actions)

    def min_target_q(self, states, actions):
        return self._min(self.q1_target, self.q2_target, states, actions)


def soft_update(online, target, rate):
    """target <- rate * online + (1 - rate) * target for two lists of
    arrays; unequal shapes raise ValueError before any array is written."""
    if [p.shape for p in online] != [p.shape for p in target]:
        raise ValueError("parameter shapes differ")
    for p_on, p_tg in zip(online, target):
        p_tg[...] = rate * p_on + (1.0 - rate) * p_tg


def td_targets(batch, critics, target_policy, gamma, target_samples, rng):
    """Bootstrapped targets y = r + gamma min-target-Q(s', a*) with a* the
    target policy's best-of-target_samples action; terminal rows use r."""
    _, _, rewards, next_states, dones = batch
    _, values = diffusion.sample_candidates(
        target_policy, next_states, target_samples, critics.min_target_q, rng)
    return rewards + gamma * values.max(axis=1) * (1.0 - dones)


def critic_update(batch, targets, critics, opt):
    """Step both critics toward the shared targets with opt, the Adam of
    critics.params; returns the two losses, raising before any step."""
    states, actions, _, _, _ = batch
    x = TwinCritics._join(states, actions)
    y = np.asarray(targets, dtype=np.float64)[:, None]
    losses, grads = [], []
    for net in (critics.q1, critics.q2):
        pred, tape = net.forward_tape(x)
        resid = pred - y
        loss = float((resid * resid).mean())
        if not np.isfinite(loss):
            raise NonFiniteGradient("critic loss is not finite: %r" % loss)
        # d(loss)/d(pred); its factor order sets the rounding of every run
        d_pred = np.full(resid.shape, 1.0 / resid.size) * 2.0 * resid
        grads += autodiff.backward(net, tape, d_pred)
        losses.append(loss)
    opt.step(grads)
    return losses


def actor_update(policy, critics, states, acts, hyper, rng, opt):
    """Q-weighted denoising update plus the entropy term; returns the loss."""
    q_vals = critics.min_q(states, acts)
    _, q_samples = diffusion.sample_candidates(
        policy, states, hyper.n_value_samples, critics.min_q, rng)
    v_est = q_samples.mean(axis=1)
    weights = diffusion.q_weights(q_vals, v_est)
    # per-state mean positive advantage of the fresh samples, which
    # scales the entropy term
    sample_adv = np.maximum(q_samples - v_est[:, None], 0.0).mean(axis=1)

    loss, grads = diffusion.weighted_denoise_loss(policy, states, acts,
                                                  weights, rng)
    if hyper.n_uniform_samples > 0 and hyper.ent_coeff > 0.0:
        idx = rng.integers(0, len(states), size=hyper.n_uniform_samples)
        u_actions = rng.uniform(-1.0, 1.0,
                                size=(hyper.n_uniform_samples, policy.action_dim))
        e_loss, e_grads = diffusion.weighted_denoise_loss(
            policy, states[idx], u_actions, hyper.ent_coeff * sample_adv[idx],
            rng)
        loss = loss + e_loss
        grads = [g + e for g, e in zip(grads, e_grads)]
    loss = float(loss)
    if not np.isfinite(loss):
        raise NonFiniteGradient("actor loss is not finite: %r" % loss)
    opt.step(grads)
    return loss


class QagobTrainer:
    """The qagob agent of one environment; it draws from the streams
    env.rng["net-init"], env.rng["policy-noise"] and env.rng["trainer"],
    which the environment never draws from."""

    def __init__(self, env, hyper):
        self.env = env
        self.hyper = hyper
        net_rng = env.rng["net-init"]
        self.policy = diffusion.DiffusionPolicy(
            env.state_dim, env.action_dim, self.hyper.actor_widths,
            self.hyper.n_denoise, self.hyper.beta_start, self.hyper.beta_end,
            net_rng, NET_DTYPE)
        self.policy_target = copy.deepcopy(self.policy)
        self.critics = TwinCritics(env.state_dim, env.action_dim,
                                   self.hyper.critic_widths, net_rng,
                                   NET_DTYPE)
        self.opt_actor = Adam(self.policy.denoiser.params, self.hyper.lr_actor)
        self.opt_critics = Adam(self.critics.params, self.hyper.lr_critic)
        self.replay = RingBuffer(self.hyper.replay_capacity)
        self.total_steps = 0
        self._loss_sums, self._loss_counts = [0.0, 0.0], [0, 0]

    def select_action(self, state):
        """The behavior action for state, cast up (exactly) to float64."""
        return diffusion.behavior_select(
            self.policy, state, self.critics.min_q,
            self.hyper.behavior_samples,
            self.env.rng["policy-noise"]).astype(np.float64)

    def update(self):
        """One gradient phase; returns (critic_loss_mean, actor_loss or None)."""
        h = self.hyper
        t_rng = self.env.rng["trainer"]
        batch = self.replay.sample(h.batch_size, t_rng)
        targets = td_targets(batch, self.critics, self.policy_target,
                             h.gamma, h.target_samples, t_rng)
        closses = critic_update(batch, targets, self.critics,
                                self.opt_critics)
        aloss = None
        if len(self.replay) >= h.n_policy_samples:
            states, acts, _, _, _ = self.replay.sample(h.n_policy_samples,
                                                       t_rng)
            aloss = actor_update(self.policy, self.critics, states, acts,
                                 h, t_rng, self.opt_actor)
            soft_update(self.policy.denoiser.params,
                        self.policy_target.denoiser.params, h.soft_rate)
        soft_update(self.critics.params, self.critics.target_params,
                    h.soft_rate)
        return sum(closses) / 2.0, aloss

    def learn(self, state, action, reward, next_state, done):
        """Store one transition; past warmup, with a batch in the replay
        buffer, run one update and add its losses to the episode's."""
        h = self.hyper
        self.replay.push(state, action, reward, next_state, done)
        self.total_steps += 1
        if (self.total_steps > h.warmup_steps
                and len(self.replay) >= h.batch_size):
            for i, loss in enumerate(self.update()):
                if loss is not None:
                    self._loss_sums[i] += loss
                    self._loss_counts[i] += 1

    def episode_losses(self):
        """{"critic_loss", "actor_loss"}: the mean loss of the updates
        since the last call, NaN where none ran; starts the next sums."""
        losses = {name: total / count if count else float("nan")
                  for name, total, count in zip(
                      ("critic_loss", "actor_loss"),
                      self._loss_sums, self._loss_counts)}
        self._loss_sums, self._loss_counts = [0.0, 0.0], [0, 0]
        return losses

    def acting_nets(self):
        """{name: network} of the CHECKPOINT_NETS."""
        return dict(zip(CHECKPOINT_NETS, (self.policy.denoiser,
                                          self.critics.q1, self.critics.q2)))

    def checkpoint(self, path, meta=None):
        save_checkpoint(path, self.acting_nets(), {
            "seed": self.env.seed, "total_steps": self.total_steps,
            "betas": list(self.policy.betas), **(meta or {})})

    @classmethod
    def from_checkpoint(cls, path, env, hyper):
        """The agent for env with checkpoint path's CHECKPOINT_KEYS and
        networks; raises CheckpointInvalid unless its betas are linear and
        each acting network has the agent's widths and dtype (no rounding)."""
        nets, meta = load_checkpoint(path)
        for name in CHECKPOINT_NETS:
            if name not in nets:
                raise CheckpointInvalid(path, "no %s network" % name)
        betas = meta.get("betas")
        not_linear = CheckpointInvalid(
            path, "betas %r is not a nonempty linear schedule" % (betas,))
        if not (isinstance(betas, list) and betas
                and all(map(is_number, betas))):
            raise not_linear
        try:
            hyper = dataclasses.replace(
                hyper, n_denoise=len(betas), beta_start=betas[0],
                beta_end=betas[-1],
                actor_widths=tuple(nets["actor"].widths[1:-1]),
                critic_widths=tuple(nets["q1"].widths[1:-1]))
        except ConfigInvalid as exc:
            what = "betas %r" % (betas,) if "beta" in exc.field else "widths"
            raise CheckpointInvalid(path, "%s: %s" % (what, exc)) from None
        agent = cls(env, hyper)
        if agent.policy.betas.tolist() != betas:
            raise not_linear
        for name, net in agent.acting_nets().items():
            if nets[name].widths != net.widths:
                raise CheckpointInvalid(
                    path, "%s network widths %s do not fit the scenario and "
                    "the actor and q1 hidden widths, which give %s"
                    % (name, nets[name].widths, net.widths))
            if nets[name].dtype != net.dtype:
                raise CheckpointInvalid(
                    path, "%s network is %s; the trainer's networks are %s"
                    % (name, nets[name].dtype, net.dtype))
            net.set_arrays(nets[name].params)
        return agent

    def acting_in(self, env):
        """This agent acting in env: a shallow copy, which shares all else."""
        agent = copy.copy(self)
        agent.env = env
        return agent


def train(scenario, hyper, seed, episodes, on_slot=None, on_episode=None,
          ckpt_dir=None):
    """Train for `episodes` episodes from `seed`; returns (report rows,
    trainer).

    environment.run_episodes plays the episodes with the trainer's learn
    step, and hands on_slot(record) each slot record as it is made, before
    that slot's learn step.  Each row gains the episode's critic_loss and
    actor_loss before on_episode(row) gets it; then the checkpoints go to
    ckpt_dir.
    """
    env = SaginEnv(scenario, seed)
    trainer = QagobTrainer(env, hyper)

    def finish(row):
        row.update(trainer.episode_losses())
        if on_episode is not None:
            on_episode(row)
        played = row["episode"] + 1
        if ckpt_dir and hyper.checkpoint_every > 0 \
                and played % hyper.checkpoint_every == 0:
            trainer.checkpoint(os.path.join(ckpt_dir, "ep%05d.npz" % played),
                               {"episode": played})

    rows = run_episodes(env, trainer.select_action, episodes, on_slot, finish,
                        trainer.learn)
    if ckpt_dir:
        trainer.checkpoint(os.path.join(ckpt_dir, "final.npz"),
                           {"episode": episodes})
    return rows, trainer
