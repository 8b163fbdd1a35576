import math

import numpy as np
import pytest

from saginsim.diffusion import (DiffusionPolicy, behavior_select,
                                forward_diffuse, q_weights,
                                weighted_denoise_loss)
from saginsim.errors import SamplerDiverged
from saginsim.nets.mlp import Mlp

STATE_DIM, ACTION_DIM = 3, 2


def make_policy(rng=None, hidden=(8,), n_steps=10):
    return DiffusionPolicy(STATE_DIM, ACTION_DIM, hidden, n_steps, 1.0e-4,
                           0.02, rng)


def test_linear_schedule_values():
    s = make_policy()
    assert len(s.betas) == 10
    assert s.betas[0] == pytest.approx(1.0e-4)
    assert s.betas[9] == pytest.approx(0.02)
    np.testing.assert_allclose(np.diff(s.betas),
                               np.full(9, (0.02 - 1e-4) / 9), rtol=1e-12)
    assert s.alphas[0] == pytest.approx(1.0 - 1e-4)
    assert s.alpha_bars[0] == pytest.approx(0.9999)
    # nearly all signal survives the first step
    assert math.sqrt(s.alpha_bars[0]) == pytest.approx(0.99995, abs=1e-6)
    expect = np.cumprod(1.0 - s.betas)
    for n in range(1, 11):
        assert s.alpha_bars[n - 1] == pytest.approx(expect[n - 1], rel=1e-12)
    assert np.all(np.diff([1.0] + list(s.alpha_bars)) < 0.0)


def test_forward_diffuse_formula():
    s = make_policy()
    a = np.array([[0.5, -0.25]])
    eps = np.array([[1.0, 2.0]])
    for n in (1, 4, 10):
        out = forward_diffuse(a, np.array([n]), eps, s.alpha_bars)
        abar = s.alpha_bars[n - 1]
        np.testing.assert_allclose(
            out, math.sqrt(abar) * a + math.sqrt(1 - abar) * eps, rtol=1e-12)


def test_forward_diffuse_batch_rows_independent():
    s = make_policy()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3))
    eps = rng.standard_normal((4, 3))
    steps = np.array([1, 3, 7, 10])
    out = forward_diffuse(a, steps, eps, s.alpha_bars)
    for i in range(len(steps)):
        np.testing.assert_array_equal(
            out[i:i + 1],
            forward_diffuse(a[i:i + 1], steps[i:i + 1], eps[i:i + 1],
                            s.alpha_bars))


def test_samples_squashed_into_unit_box():
    rng = np.random.default_rng(1)
    policy = make_policy(rng=np.random.default_rng(2))
    states = rng.standard_normal((256, STATE_DIM))
    acts = policy.sample_batch(states, rng)
    assert acts.shape == (256, ACTION_DIM)
    assert np.all(acts > -1.0) and np.all(acts < 1.0)


def test_sampling_is_seed_deterministic():
    policy = make_policy(rng=np.random.default_rng(3))
    states = np.random.default_rng(4).standard_normal((5, STATE_DIM))
    a = policy.sample_batch(states, np.random.default_rng(99))
    b = policy.sample_batch(states, np.random.default_rng(99))
    np.testing.assert_array_equal(a, b)
    c = policy.sample_batch(states, np.random.default_rng(100))
    assert not np.array_equal(a, c)


def test_zero_denoiser_variance_recursion():
    """With a zero denoiser the reverse chain is a known Gaussian."""
    n_steps = 10
    policy = make_policy(rng=None, hidden=(4,), n_steps=n_steps)  # all-zero net
    v = 1.0
    for n in range(n_steps, 1, -1):
        v = v / policy.alphas[n - 1] + policy.betas[n - 1]
    v0 = v / policy.alphas[0]
    rng = np.random.default_rng(5)
    states = np.zeros((20000, STATE_DIM))
    x = policy.sample_batch(states, rng, squash=False)
    flat = x.ravel()
    se_var = v0 * math.sqrt(2.0 / (flat.size - 1))
    assert abs(flat.var() - v0) < 5.0 * se_var
    assert abs(flat.mean()) < 5.0 * math.sqrt(v0 / flat.size)


def test_denoiser_input_layout():
    """The denoiser is conditioned on [noisy | state | n / N]."""
    policy = make_policy(rng=None, hidden=())
    w = np.zeros((ACTION_DIM + STATE_DIM + 1, ACTION_DIM))
    w[ACTION_DIM + STATE_DIM, 0] = 1.0   # read the step fraction
    w[ACTION_DIM, 1] = 1.0               # read the first state coordinate
    policy.denoiser.set_arrays([w, np.zeros(ACTION_DIM)])
    state = np.array([[0.25, 0.5, 0.75]])
    noisy = np.array([[9.0, 9.0]])
    out = policy.denoiser.forward(policy._inputs(noisy, state, np.array([4])))
    assert out[0, 0] == pytest.approx(4 / 10)
    assert out[0, 1] == pytest.approx(0.25)


def test_sampler_diverged_guard():
    policy = make_policy(rng=None)
    arrays = [p.copy() for p in policy.denoiser.params]
    arrays[-1] = np.full(ACTION_DIM, np.inf)   # output bias: eps is inf
    policy.denoiser.set_arrays(arrays)
    with pytest.raises(SamplerDiverged):
        policy.sample_batch(np.zeros((2, STATE_DIM)), np.random.default_rng(0))


def reference_sample(policy, states, rng):
    """The reverse chain with the full denoiser input built every step."""
    x = rng.standard_normal((len(states), policy.action_dim))
    for n in range(len(policy.betas), 0, -1):
        beta = policy.betas[n - 1]
        eps = policy.denoiser.forward(
            policy._inputs(x, states, np.full(len(x), n)))
        mean = (x - beta / np.sqrt(1.0 - policy.alpha_bars[n - 1]) * eps) \
            / np.sqrt(policy.alphas[n - 1])
        if n > 1:
            x = mean + np.sqrt(beta) * rng.standard_normal(x.shape)
        else:
            x = mean
    return x


@pytest.mark.parametrize("state_dim, action_dim, hidden", [
    (STATE_DIM, ACTION_DIM, ()),
    (STATE_DIM, ACTION_DIM, (8, 8)),
    (129, 40, (256, 256)),        # default-scale actor
])
@pytest.mark.parametrize("rows", ["one", "distinct", "repeated"])
def test_sampler_matches_reference_loop(state_dim, action_dim, hidden, rows):
    policy = DiffusionPolicy(state_dim, action_dim, hidden, 10, 1.0e-4, 0.02,
                             np.random.default_rng(40))
    states = np.random.default_rng(41).standard_normal((6, state_dim))
    states = {"one": states[:1], "distinct": states,
              "repeated": np.repeat(states[:2], 3, axis=0)}[rows]
    fast_rng, ref_rng = np.random.default_rng(42), np.random.default_rng(42)
    fast = policy.sample_batch(states, fast_rng, squash=False)
    ref = reference_sample(policy, states, ref_rng)
    assert fast.shape == ref.shape == (len(states), action_dim)
    assert np.max(np.abs(fast - ref)) <= 1e-12
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


def test_float32_sampler_follows_the_float64_reference():
    """A float32 default-scale actor takes the same draws as a float64
    one, at init and in sampling, and its squashed actions stay within
    1e-5 (about 84 float32 epsilons, fixed before the first run) of the
    float64 reference chain's."""
    init64, init32 = np.random.default_rng(40), np.random.default_rng(40)
    sched = (10, 1.0e-4, 0.02)
    p64 = DiffusionPolicy(129, 40, (256, 256), *sched, init64)
    p32 = DiffusionPolicy(129, 40, (256, 256), *sched, init32, np.float32)
    assert init32.bit_generator.state == init64.bit_generator.state
    for want, got in zip(p64.denoiser.params, p32.denoiser.params):
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want.astype(np.float32))
    states = np.random.default_rng(41).standard_normal((64, 129))
    rng64, rng32 = np.random.default_rng(42), np.random.default_rng(42)
    got = p32.sample_batch(states, rng32)
    want = np.tanh(reference_sample(p64, states, rng64))
    assert got.dtype == np.float32
    assert rng32.bit_generator.state == rng64.bit_generator.state
    assert np.max(np.abs(got - want)) <= 1e-5


def test_weighted_loss_zero_weights_zero_gradient():
    policy = make_policy(rng=np.random.default_rng(6))
    rng = np.random.default_rng(7)
    states = rng.standard_normal((8, STATE_DIM))
    actions = rng.uniform(-1, 1, (8, ACTION_DIM))
    loss, grads = weighted_denoise_loss(policy, states, actions, np.zeros(8),
                                        rng)
    assert loss == 0.0
    assert len(grads) == len(policy.denoiser.params)
    for p, g in zip(policy.denoiser.params, grads):
        assert g.shape == p.shape
        assert np.all(g == 0.0)


def test_weighted_loss_scales_linearly():
    states = np.random.default_rng(8).standard_normal((6, STATE_DIM))
    actions = np.random.default_rng(9).uniform(-1, 1, (6, ACTION_DIM))
    w = np.abs(np.random.default_rng(10).standard_normal(6))
    policy = make_policy(rng=np.random.default_rng(11))
    l1, _ = weighted_denoise_loss(policy, states, actions, w,
                                  np.random.default_rng(12))
    l2, _ = weighted_denoise_loss(policy, states, actions, 2.0 * w,
                                  np.random.default_rng(12))
    assert l2 == pytest.approx(2.0 * l1, rel=1e-12)


def test_weighted_loss_matches_hand_formula():
    # freeze the randomness, then recompute the loss with plain numpy
    policy = make_policy(rng=np.random.default_rng(13))
    states = np.random.default_rng(14).standard_normal((5, STATE_DIM))
    actions = np.random.default_rng(15).uniform(-1, 1, (5, ACTION_DIM))
    w = np.linspace(0.1, 1.0, 5)
    rng = np.random.default_rng(16)
    loss, _ = weighted_denoise_loss(policy, states, actions, w, rng)

    rng2 = np.random.default_rng(16)
    steps = rng2.integers(1, len(policy.betas) + 1, size=5)
    noise = rng2.standard_normal(actions.shape)
    noisy = forward_diffuse(actions, steps, noise, policy.alpha_bars)
    pred = policy.denoiser.forward(policy._inputs(noisy, states, steps))
    expect = np.mean(w * ((noise - pred) ** 2).sum(axis=1))
    assert loss == pytest.approx(expect, rel=1e-12)
    assert np.all(steps >= 1) and np.all(steps <= len(policy.betas))


def test_q_weights_positive_part():
    q = np.array([1.0, 2.0, 3.0, -1.0])
    v = np.array([2.0, 2.0, 1.0, 0.0])
    np.testing.assert_array_equal(q_weights(q, v), [0.0, 0.0, 2.0, 0.0])
    np.testing.assert_array_equal(q_weights(q, 2.0), [0.0, 0.0, 1.0, 0.0])


def test_behavior_select_argmax_and_tie():
    policy = make_policy(rng=np.random.default_rng(27))
    state = np.array([0.1, -0.2, 0.3])

    def q_first_coord(states, actions):
        return actions[:, 0]

    picked = behavior_select(policy, state, q_first_coord, 6,
                             np.random.default_rng(28))
    cands = policy.sample_batch(np.repeat(state[None, :], 6, axis=0),
                                np.random.default_rng(28))
    np.testing.assert_array_equal(picked, cands[np.argmax(cands[:, 0])])

    # constant Q ties resolve to the first candidate
    tied = behavior_select(policy, state, lambda s, a: np.zeros(len(a)), 6,
                           np.random.default_rng(29))
    cands2 = policy.sample_batch(np.repeat(state[None, :], 6, axis=0),
                                 np.random.default_rng(29))
    np.testing.assert_array_equal(tied, cands2[0])

    with pytest.raises(ValueError):
        behavior_select(policy, state, q_first_coord, 0,
                        np.random.default_rng(30))


def inline_behavior_select(policy, state, q_fn, count, rng):
    """behavior_select with the repeat, sample and score sequence written
    inline: the loop reference."""
    states = np.repeat(np.asarray(state, dtype=np.float64)[None, :], count,
                       axis=0)
    candidates = policy.sample_batch(states, rng)
    values = np.asarray(q_fn(states, candidates), dtype=np.float64)
    return candidates[int(np.argmax(values))]


@pytest.mark.parametrize("count", [1, 2, 5, 16])
@pytest.mark.parametrize("q", ["critic", "coarse", "flat"])
def test_behavior_select_equals_the_inline_loop(count, q):
    """A float32 policy and a float32 critic, as in the trainer: the same
    action to the bit, from the same draws.  "coarse" rounds the values
    so that candidates tie, and "flat" ties them all."""
    rng = np.random.default_rng(50 + count)
    policy = DiffusionPolicy(STATE_DIM, ACTION_DIM, (8,), 4, 1.0e-4, 0.02,
                             rng, np.float32)
    critic = Mlp([STATE_DIM + ACTION_DIM, 8, 1], rng, np.float32)

    def q_fn(states, actions):
        values = critic.forward(np.concatenate([states, actions], axis=1))
        values = values[:, 0].astype(np.float64)
        return {"critic": values, "coarse": np.round(values, 1),
                "flat": np.zeros(len(values))}[q]

    for k in range(5):
        state = rng.standard_normal(STATE_DIM)
        got_rng, want_rng = (np.random.default_rng(k),
                             np.random.default_rng(k))
        got = behavior_select(policy, state, q_fn, count, got_rng)
        want = inline_behavior_select(policy, state, q_fn, count, want_rng)
        assert got.dtype == want.dtype == np.float32
        assert (got == want).all()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_denoise_loss_training_reduces_noise_error():
    """A few optimizer steps on a fixed batch must lower the loss."""
    from saginsim.nets.optim import Adam
    policy = make_policy(rng=np.random.default_rng(31), hidden=(16,))
    states = np.random.default_rng(32).standard_normal((32, STATE_DIM))
    actions = np.random.default_rng(33).uniform(-1, 1, (32, ACTION_DIM))
    w = np.ones(32)
    opt = Adam(policy.denoiser.params, lr=1e-3)
    before = None
    loss_rng = np.random.default_rng(34)
    for k in range(60):
        loss, grads = weighted_denoise_loss(policy, states, actions, w,
                                            np.random.default_rng(35))
        if before is None:
            before = loss
        opt.step(grads)
    after, _ = weighted_denoise_loss(policy, states, actions, w,
                                     np.random.default_rng(35))
    assert after < before
