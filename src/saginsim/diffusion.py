"""Denoising diffusion policy over the raw action space.

Actions are generated by reverse diffusion: start from a standard normal
vector, run N denoising steps conditioned on the state, and squash the
result with tanh into [-1, 1]^dim.  The denoiser is an MLP that eats
[noisy action | state | n / N] and predicts the injected noise.

Training uses the weighted denoising objective: for a batch of (state,
action, weight) rows, draw a uniform step n and fresh noise, form the
forward-diffused action, and regress the predicted noise onto the true
noise with the per-row weight.  Weights come from positive Q advantages,
so only actions better than the policy average pull probability mass.

Acting, the TD targets and the actor's V estimate all score sampled
candidates with a Q function through sample_candidates.
"""

import math

import numpy as np

from .errors import SamplerDiverged
from .nets import autodiff
from .nets.mlp import Mlp


def forward_diffuse(actions, steps, noise, alpha_bars):
    """x_n = sqrt(abar_n) a0 + sqrt(1 - abar_n) eps for each row of the
    (batch, dim) actions and noise, with steps the (batch,) array of
    their steps in 1..N and alpha_bars the policy's (N,) abar_1..abar_N."""
    abar = alpha_bars[steps - 1][:, None]
    return np.sqrt(abar) * actions + np.sqrt(1.0 - abar) * noise


class DiffusionPolicy:
    """A denoiser of the given dtype (float64 unless given) and its linear
    forward-process schedule over steps 1..n_steps: betas from beta_start
    to beta_end, alphas = 1 - betas and their running products alpha_bars,
    all float64 and indexed n - 1.  Sampling runs in the denoiser's dtype,
    with every noise draw taken in float64 and then cast."""

    def __init__(self, state_dim, action_dim, hidden_widths, n_steps,
                 beta_start, beta_end, rng, dtype=np.float64):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.betas = np.linspace(beta_start, beta_end, n_steps)
        self.alphas = 1.0 - self.betas
        self.alpha_bars = np.cumprod(self.alphas)
        widths = [action_dim + state_dim + 1] + list(hidden_widths) + [action_dim]
        self.denoiser = Mlp(widths, rng, dtype)

    def _inputs(self, noisy, states, steps):
        """The denoiser's input rows [noisy | state | n / N]."""
        frac = (steps / len(self.betas))[:, None]
        return np.concatenate([noisy, states, frac], axis=1)

    def sample_batch(self, states, rng, squash=True):
        """Reverse diffusion for a batch of states; (batch, action_dim).

        The denoiser's first layer is split by input block,
        [noisy | state | n / N] @ W + b = x W_x + (s W_s + b) + (n / N) w_n,
        and the state term, the same at every step, is computed once.
        The schedule's coefficients are Python floats, which leave the
        dtype of the arrays they scale as it is.
        """
        dtype = self.denoiser.dtype
        states = np.atleast_2d(np.asarray(states, dtype=dtype))
        batch = len(states)
        w = self.denoiser.params[0]
        a, s = self.action_dim, self.state_dim
        w_x, w_n = w[:a], w[a + s]
        state_proj = states @ w[a:a + s] + self.denoiser.params[1]
        n_steps = len(self.betas)
        x = rng.standard_normal((batch, a)).astype(dtype, copy=False)
        for n in range(n_steps, 0, -1):
            pre = x @ w_x
            pre += state_proj
            pre += (n / n_steps) * w_n
            eps = self.denoiser.forward_from(pre)
            beta = float(self.betas[n - 1])
            abar = float(self.alpha_bars[n - 1])
            mean = (x - beta / math.sqrt(1.0 - abar) * eps) \
                / math.sqrt(float(self.alphas[n - 1]))
            if n > 1:
                noise = rng.standard_normal(x.shape).astype(dtype, copy=False)
                x = mean + math.sqrt(beta) * noise
            else:
                x = mean
            if not np.all(np.isfinite(x)):
                raise SamplerDiverged("non-finite sample at step %d" % n)
        return np.tanh(x) if squash else x


def weighted_denoise_loss(policy, states, actions, weights, rng):
    """Mean over rows of weight * ||eps - eps_theta(x_n, s, n)||^2.

    states (batch, state_dim) and actions (batch, action_dim) are 2-D
    arrays, and weights holds one value >= 0 per row: trainer.actor_update
    passes q_weights, or ent_coeff (validated >= 0) times a mean of them.
    float32 replay actions promote exactly in forward_diffuse, and the
    denoiser casts its own input.  A NaN or inf weight makes the loss
    non-finite, which actor_update raises before any step.

    Returns (loss, gradients of the loss for the denoiser's params).
    """
    batch = len(states)
    steps = rng.integers(1, len(policy.betas) + 1, size=batch)
    noise = rng.standard_normal(actions.shape)
    noisy = forward_diffuse(actions, steps, noise, policy.alpha_bars)
    pred, tape = policy.denoiser.forward_tape(
        policy._inputs(noisy, states, steps))
    resid = noise - pred
    loss = (weights * (resid * resid).sum(axis=1)).mean()
    # d(loss)/d(pred); its factor order sets the rounding of every run
    d_pred = -((np.full(batch, 1.0 / batch) * weights)[:, None]
               * 2.0 * resid)
    return loss, autodiff.backward(policy.denoiser, tape, d_pred)


def q_weights(q_values, v_estimates):
    """Positive-part advantage max(Q - V, 0), elementwise."""
    q_values = np.asarray(q_values, dtype=np.float64)
    v_estimates = np.asarray(v_estimates, dtype=np.float64)
    return np.maximum(q_values - v_estimates, 0.0)


def sample_candidates(policy, states, count, q_fn, rng):
    """Sample `count` candidate actions for each row of states and score
    them; returns (candidates, values).

    candidates is (rows * count, action_dim), row i's at i * count to
    (i + 1) * count - 1; values is q_fn(states, candidates), with each
    state repeated count times, reshaped to (rows, count).
    """
    rep = np.repeat(states, count, axis=0)
    candidates = policy.sample_batch(rep, rng)
    values = np.asarray(q_fn(rep, candidates), dtype=np.float64)
    return candidates, values.reshape(len(states), count)


def behavior_select(policy, state, q_fn, count, rng):
    """Sample `count` candidate actions and return the Q-argmax.

    q_fn(states, actions) -> (count,) values.  Ties resolve to the first
    (lowest sample index) candidate.  count >= 1: the trainer passes
    Hyper.behavior_samples, validated at least 1 (a count of 0 leaves
    np.argmax an empty row, which raises ValueError).
    """
    candidates, values = sample_candidates(
        policy, np.asarray(state, dtype=np.float64)[None, :], count, q_fn,
        rng)
    return candidates[int(np.argmax(values[0]))]
