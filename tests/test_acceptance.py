"""Acceptance gate for the whole package.

Each test here is one self-contained check with its tolerance and time
budget stated inline, and each recomputes its expected values from scratch
(closed-form arithmetic, exhaustive search, finite differences, or Monte
Carlo) instead of calling back into the code under test.  pytest -v gives
one pass/fail line per check.
"""

import json
import math
import pathlib
import time

import numpy as np

from saginsim import actions, channel, cli, diffusion, energy, runio, service
from saginsim.association import gs_associate
from saginsim.baselines import run_baseline
from saginsim.environment import SaginEnv
from saginsim.nets import autodiff
from saginsim.nets.mlp import Mlp
from saginsim.scenario import (ComputeParams, RadioParams, RewardWeights,
                               Scenario, load_scenario)
from saginsim.trainer import Hyper, TwinCritics, soft_update, td_targets, train

from helpers import recount
from test_channel import free_space_loss_db, los_probability, path_loss_db

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def close(a, b, tol):
    """Relative closeness with an absolute floor of the same tolerance."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def rel_err(got, want):
    return abs(got - want) / max(abs(got), abs(want), 1e-12)


# ---------------------------------------------------------------------------
# closed-form oracles: channel, delay, energy and bandwidth-share formulas
# recomputed with plain math on randomized inputs.  tolerance 1e-9 relative
# (1e-3 for the LoS logistic), budget 1 second.


def test_accept_formula_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    radio = RadioParams()
    comp = ComputeParams()
    n0 = 10.0 ** ((radio.noise_psd - 30.0) / 10.0)

    # LoS probability and blended path loss
    for _ in range(25):
        aav = np.array([rng.uniform(-1500, 1500), rng.uniform(-1500, 1500),
                        rng.uniform(50, 300)])
        gd = np.array([rng.uniform(-1500, 1500), rng.uniform(-1500, 1500), 0.0])
        d = float(np.linalg.norm(aav - gd))
        angle = math.degrees(math.atan(aav[2] / d))
        want_p = 1.0 / (1.0 + radio.los_n1
                        * math.exp(-radio.los_n2 * (angle - radio.los_n1)))
        got_p = los_probability(aav, gd, radio.los_n1, radio.los_n2)
        assert rel_err(got_p, want_p) <= 1e-3
        want_pl = (20.0 * math.log10(d) + 20.0 * math.log10(radio.carrier_freq)
                   + 20.0 * math.log10(4.0 * math.pi / 3.0e8)
                   + want_p * radio.excess_los + (1.0 - want_p) * radio.excess_nlos)
        assert rel_err(path_loss_db(aav, gd, radio), want_pl) <= 1e-9
        gain = channel.channel_gain_matrix(aav[None], gd[None], radio)[0, 0]
        assert rel_err(gain, 10.0 ** (-want_pl / 10.0)) <= 1e-9

    # spot values: overhead LoS and free-space loss at 100 m / 2 GHz
    overhead = los_probability([0.0, 0.0, 100.0], [0.0, 0.0, 0.0],
                               radio.los_n1, radio.los_n2)
    assert abs(overhead - 0.9677) <= 1e-3
    assert abs(free_space_loss_db(100.0, 2.0e9) - 78.46) <= 5e-3

    # AAV-GD link rates against the Shannon formula
    noise_w = channel.noise_psd_watts(radio.noise_psd)
    for _ in range(25):
        gain = 10.0 ** rng.uniform(-13, -7)
        bw = rng.uniform(1e5, 5e6)
        inter = rng.uniform(0.0, 1e-12)
        want_up = bw * math.log2(1.0 + radio.power_gd * gain / (inter + n0 * bw))
        assert rel_err(channel.g2a_rate(gain, bw, inter, noise_w, radio),
                       want_up) <= 1e-9
        want_down = bw * math.log2(1.0 + radio.power_aav * gain / (n0 * bw))
        assert rel_err(channel.a2g_rate(gain, bw, noise_w, radio),
                       want_down) <= 1e-9

    # satellite attenuation and both link directions, rain margin included
    for _ in range(25):
        dist = rng.uniform(8.0e5, 8.2e5)
        extra = rng.uniform(0.0, 12.0)
        n_conn = int(rng.integers(1, 5))
        lam = 3.0e8 / radio.carrier_freq
        want_att = ((lam / (4.0 * math.pi * dist)) ** 2
                    * radio.antenna_gain_aav * radio.antenna_gain_sat
                    * 10.0 ** (-radio.rain_atten / 10.0))
        assert rel_err(channel.sat_attenuation(dist, radio), want_att) <= 1e-9
        bw_s = radio.bandwidth_sat / n_conn
        att = want_att * 10.0 ** (-extra / 10.0)
        want_u = bw_s * math.log2(1.0 + radio.power_aav * att / (n0 * bw_s))
        want_d = bw_s * math.log2(1.0 + radio.power_sat * att / (n0 * bw_s))
        up, down = channel.sat_link_rates(dist, n_conn, noise_w, radio, extra)
        assert rel_err(up, want_u) <= 1e-9
        assert rel_err(down, want_d) <= 1e-9

    # all six delay components, local and offloaded
    sc = Scenario()
    world = service.WorldState.start(sc, [[0.0, 0.0]])
    for _ in range(20):
        size = rng.uniform(1e5, 1e6)
        ratio = rng.uniform(0.1, 0.3)
        rates = {k: rng.uniform(2e5, 2e7) for k in ("g2a", "a2g", "a2s", "s2a")}
        sat_d = rng.uniform(8.0e5, 8.02e5)
        off = service.task_delay(size, ratio, True, rates, sat_d, comp)
        assert rel_err(off["t_up_g2a"], size / rates["g2a"]) <= 1e-9
        assert rel_err(off["t_up_a2s"], size / rates["a2s"]) <= 1e-9
        assert rel_err(off["t_comp"],
                       comp.cycles_per_bit * size / comp.freq_sat) <= 1e-9
        assert rel_err(off["t_down_s2a"], ratio * size / rates["s2a"]) <= 1e-9
        assert rel_err(off["t_down_a2g"], ratio * size / rates["a2g"]) <= 1e-9
        assert rel_err(off["t_prop"], 2.0 * sat_d / 3.0e8) <= 1e-9
        loc = service.task_delay(size, ratio, False, rates, sat_d, comp)
        assert rel_err(loc["t_comp"],
                       comp.cycles_per_bit * size / comp.freq_aav) <= 1e-9
        assert loc["t_up_a2s"] == 0.0 and loc["t_down_s2a"] == 0.0
        assert loc["t_prop"] == 0.0
        xy = rng.uniform(-1500.0, 1500.0, 2)
        cx = (sc.area_bounds[0] + sc.area_bounds[2]) / 2.0
        cy = (sc.area_bounds[1] + sc.area_bounds[3]) / 2.0
        horiz = math.hypot(xy[0] - cx, xy[1] - cy)
        world.aav_pos = xy[None]
        assert rel_err(world.sat_distances()[0],
                       math.hypot(horiz,
                                  sc.sat_altitude - sc.aav_altitude)) <= 1e-9

    # rotary-wing propulsion power against the textbook three-term form
    ep = sc.energy
    for speed in list(rng.uniform(0.0, 60.0, size=22)) + [0.0]:
        blade = ep.blade_power * (1.0 + 3.0 * speed ** 2 / ep.tip_speed ** 2)
        induced = ep.induced_power * math.sqrt(
            math.sqrt(1.0 + speed ** 4 / (4.0 * ep.rotor_velocity ** 4))
            - speed ** 2 / (2.0 * ep.rotor_velocity ** 2))
        parasite = (0.5 * ep.drag_ratio * ep.air_density * ep.rotor_solidity
                    * ep.rotor_area * speed ** 3)
        want = blade + induced + parasite
        assert rel_err(energy.propulsion_power(speed, ep), want) <= 1e-9
    assert rel_err(energy.propulsion_power(0.0, ep), 168.49) <= 1e-9
    cruise = energy.propulsion_power(50.0, ep)
    hover = energy.propulsion_power(0.0, ep)
    for _ in range(20):
        dist = rng.uniform(0.0, 50.0)
        tm = dist / 50.0
        want = cruise * tm + hover * (1.0 - tm)
        assert rel_err(energy.propulsion_energy(dist, 1.0, 50.0, cruise, hover),
                       want) <= 1e-9
        bits = rng.uniform(1e5, 1e6)
        assert rel_err(energy.compute_energy(bits, 1000.0, 8.2e-9),
                       8.2e-9 * 1000.0 * bits) <= 1e-9
    assert rel_err(energy.compute_energy(6.0e5, 1000.0, 8.2e-9), 4.92) <= 1e-9

    # bandwidth shares: softmax over the selected raws, scaled by the budget
    for _ in range(20):
        cap = int(rng.integers(1, 5))
        sc1 = Scenario(n_aavs=1, n_gds=cap, max_served=cap,
                       initial_aav_positions=((0.0, 0.0),))
        raw = rng.uniform(-1.0, 1.0, actions.action_dim(1, cap))
        dec = actions.decode(raw, [list(range(cap))], sc1)
        bw_raws = raw[2 + cap: 2 + 2 * cap]
        e = np.exp(bw_raws - bw_raws.max())
        want_shares = e / e.sum() * sc1.radio.bandwidth_aav
        for g in range(cap):
            assert rel_err(dec.bandwidth[0][g], want_shares[g]) <= 1e-9
        total = sum(dec.bandwidth[0])
        assert rel_err(total, sc1.radio.bandwidth_aav) <= 1e-9

    assert time.monotonic() - t0 < 1.0
    print("[acceptance] formula oracles PASS (rel 1e-9, LoS 1e-3, <1s)")


# ---------------------------------------------------------------------------
# association: 200 random geometries, stability verified by exhaustively
# scanning every (GD, AAV) pair for a blocking pair, capacity/uniqueness
# bounds checked directly.  Termination is enforced by the proposal-budget
# assertion inside the matcher, which would abort the test.  Budget 10 s.


def test_accept_association_stable_matching():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    alt = 100.0
    for case in range(200):
        n_aavs = int(rng.integers(1, 4))
        n_gds = int(rng.integers(1, 7))
        cap = int(rng.integers(1, 3))
        aav = rng.uniform(-1000.0, 1000.0, (n_aavs, 2))
        gd = rng.uniform(-1000.0, 1000.0, (n_gds, 2))
        served = gs_associate(aav, gd, cap, alt)
        assert len(served) == n_aavs
        assert all(gds == sorted(gds) for gds in served)
        assert all(len(gds) <= cap for gds in served)
        owner = {}
        for v, gds in enumerate(served):
            for g in gds:
                assert g not in owner and 0 <= g < n_gds, (case, g)
                owner[g] = v
        diff = aav[:, None, :] - gd[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2) + alt * alt)
        for g in range(n_gds):
            cur = owner.get(g, -1)
            for v in range(n_aavs):
                if v == cur:
                    continue
                if cur >= 0 and dist[v, g] >= dist[cur, g]:
                    continue
                # the GD prefers v; v must be full of strictly closer GDs
                held = served[v]
                assert len(held) >= cap, (case, g, v)
                assert all(dist[v, h] <= dist[v, g] for h in held), (case, g, v)
        if n_gds <= n_aavs * cap:
            assert len(owner) == n_gds, case
    assert time.monotonic() - t0 < 10.0
    print("[acceptance] stable matching PASS (200 geometries, <10s)")


# ---------------------------------------------------------------------------
# gradients: analytic backward pass versus central finite differences over
# every parameter entry, 50 random configurations cycling through the
# denoising loss, the entropy term, the critic MSE and the combined actor
# objective.  Max relative error 1e-4, nets under 1k parameters, budget 60 s.


def _grad_config(idx):
    rng = np.random.default_rng(3000 + idx)
    state_dim = int(rng.integers(2, 4))
    action_dim = int(rng.integers(2, 4))
    hidden = int(rng.integers(4, 9))
    batch = 3
    policy = diffusion.DiffusionPolicy(state_dim, action_dim, (hidden,), 3,
                                       1.0e-4, 0.02, rng)
    critic = Mlp([state_dim + action_dim, hidden, 1], rng)
    assert sum(p.size for p in policy.denoiser.params) <= 1000
    assert sum(p.size for p in critic.params) <= 1000
    data = {
        "states": rng.standard_normal((batch, state_dim)),
        "acts": rng.uniform(-1.0, 1.0, (batch, action_dim)),
        "weights": rng.uniform(0.1, 2.0, batch),
        "u_actions": rng.uniform(-1.0, 1.0, (batch, action_dim)),
        "stats": rng.uniform(0.1, 1.0, batch),
        "targets": rng.standard_normal((batch, 1)),
        "seed": 7000 + idx,
    }
    return policy, critic, data


def _grad_loss(kind, policy, critic, data):
    """(loss, gradients); identical draws on every call via a fresh rng."""
    if kind == "critic":
        x = np.concatenate([data["states"], data["acts"]], axis=1)
        pred, tape = critic.forward_tape(x)
        resid = pred - data["targets"]
        # d/dpred of mean(resid^2)
        d_pred = 2.0 * resid / resid.size
        return float(np.mean(resid ** 2)), autodiff.backward(critic, tape,
                                                             d_pred)
    rng = np.random.default_rng(data["seed"])
    if kind == "vlb":
        return diffusion.weighted_denoise_loss(
            policy, data["states"], data["acts"], data["weights"], rng)
    # the entropy term: uniform actions weighted by ent_coeff * stats
    if kind == "entropy":
        return diffusion.weighted_denoise_loss(
            policy, data["states"], data["u_actions"], 0.05 * data["stats"],
            rng)
    loss, grads = diffusion.weighted_denoise_loss(
        policy, data["states"], data["acts"], data["weights"], rng)
    e_loss, e_grads = diffusion.weighted_denoise_loss(
        policy, data["states"], data["u_actions"], 0.05 * data["stats"], rng)
    return loss + e_loss, [g + e for g, e in zip(grads, e_grads)]


def test_accept_gradient_checks():
    t0 = time.monotonic()
    kinds = ("vlb", "entropy", "critic", "combined")
    worst = 0.0
    for idx in range(50):
        kind = kinds[idx % 4]
        policy, critic, data = _grad_config(idx)
        params = (critic.params if kind == "critic"
                  else policy.denoiser.params)
        _, grads = _grad_loss(kind, policy, critic, data)
        assert len(grads) == len(params)
        for p, grad in zip(params, grads):
            assert grad.shape == p.shape
            flat = p.reshape(-1)
            for i in range(flat.size):
                analytic = grad.reshape(-1)[i]
                ok = False
                # eps retry ladder: finite differences break down when the
                # perturbation straddles a relu kink, the analytic side does not
                for eps in (1e-6, 1e-7):
                    old = flat[i]
                    flat[i] = old + eps
                    f_plus = float(_grad_loss(kind, policy, critic, data)[0])
                    flat[i] = old - eps
                    f_minus = float(_grad_loss(kind, policy, critic, data)[0])
                    flat[i] = old
                    numeric = (f_plus - f_minus) / (2.0 * eps)
                    err = abs(analytic - numeric) \
                        / max(abs(analytic), abs(numeric), 1e-6)
                    if err <= 1e-4:
                        worst = max(worst, err)
                        ok = True
                        break
                assert ok, (idx, kind, err)
    assert time.monotonic() - t0 < 60.0
    print("[acceptance] gradient checks PASS (50 configs, max rel %.2e, <60s)"
          % worst)


# ---------------------------------------------------------------------------
# forward diffusion statistics: Monte Carlo mean and variance of the noised
# action match sqrt(abar_n) a0 and 1 - abar_n within 3 standard errors at
# every step of the default schedule; reverse samples stay inside [-1, 1].


def test_accept_diffusion_statistics():
    h = Hyper()
    policy = diffusion.DiffusionPolicy(3, 2, (8,), h.n_denoise, h.beta_start,
                                       h.beta_end, np.random.default_rng(14))
    rng = np.random.default_rng(404)
    a0 = rng.uniform(-0.9, 0.9, 3)
    draws = 20000
    a0_batch = np.tile(a0, (draws, 1))
    for n in range(1, len(policy.betas) + 1):
        noise = rng.standard_normal((draws, 3))
        x = diffusion.forward_diffuse(a0_batch, np.full(draws, n), noise,
                                      policy.alpha_bars)
        abar = float(policy.alpha_bars[n - 1])
        se_mean = math.sqrt((1.0 - abar) / draws)
        for k in range(3):
            want = math.sqrt(abar) * a0[k]
            assert abs(x[:, k].mean() - want) <= 3.0 * se_mean, (n, k)
        resid = x - math.sqrt(abar) * a0
        var = float(resid.var())
        se_var = (1.0 - abar) * math.sqrt(2.0 / (resid.size - 1))
        assert abs(var - (1.0 - abar)) <= 3.0 * se_var, n

    states = rng.standard_normal((100000, 3))
    samples = policy.sample_batch(states, rng)
    assert samples.shape == (100000, 2)
    assert np.all(np.abs(samples) <= 1.0)
    print("[acceptance] diffusion statistics PASS (3 SE at every step; "
          "1e5 samples in [-1, 1])")


# ---------------------------------------------------------------------------
# selection and target mechanics: positive-part weights are exact,
# best-of-count action selection beats a single draw on expected Q
# (paired z > 3 over 1000 trials), TD targets never exceed the per-critic
# bound and hit the min-rule value exactly, soft blending endpoints exact.


def test_accept_selection_and_targets():
    rng = np.random.default_rng(505)

    q = rng.standard_normal(100)
    v = rng.standard_normal(100)
    w = diffusion.q_weights(q, v)
    assert np.array_equal(w, np.maximum(q - v, 0.0))
    assert np.array_equal(diffusion.q_weights(v - 1.0, v), np.zeros(100))

    policy = diffusion.DiffusionPolicy(3, 2, (8, 8), 5, 1.0e-4, 0.02,
                                       np.random.default_rng(16))
    critic = Mlp([5, 8, 1], np.random.default_rng(17))

    def q_fn(states, acts):
        return critic.forward(np.concatenate([states, acts], axis=1))[:, 0]

    diffs = []
    for _ in range(1000):
        state = rng.standard_normal(3)
        best = diffusion.behavior_select(policy, state, q_fn, 4, rng)
        single = diffusion.behavior_select(policy, state, q_fn, 1, rng)
        q_best = float(q_fn(state[None, :], best[None, :])[0])
        q_single = float(q_fn(state[None, :], single[None, :])[0])
        diffs.append(q_best - q_single)
    diffs = np.asarray(diffs)
    z = diffs.mean() / (diffs.std(ddof=1) / math.sqrt(len(diffs)))
    assert z > 3.0, z

    critics = TwinCritics(3, 2, (8,), np.random.default_rng(18))
    batch = 16
    states = rng.standard_normal((batch, 3))
    acts = rng.uniform(-1.0, 1.0, (batch, 2))
    rewards = rng.uniform(-1.0, 1.0, batch)
    next_states = rng.standard_normal((batch, 3))
    dones = rng.integers(0, 2, batch).astype(float)
    tup = (states, acts, rewards, next_states, dones)
    m = 3
    y = td_targets(tup, critics, policy, 0.9, m, np.random.default_rng(19))
    rep = np.repeat(next_states, m, axis=0)
    cands = policy.sample_batch(rep, np.random.default_rng(19))
    x = np.concatenate([rep, cands], axis=1)
    v1 = critics.q1_target.forward(x)[:, 0].reshape(batch, m)
    v2 = critics.q2_target.forward(x)[:, 0].reshape(batch, m)
    want = rewards + 0.9 * np.minimum(v1, v2).max(axis=1) * (1.0 - dones)
    assert np.allclose(y, want, rtol=0.0, atol=1e-12)
    for i in range(batch):
        if dones[i]:
            assert y[i] == rewards[i]
        else:
            assert y[i] <= rewards[i] + 0.9 * v1[i].max() + 1e-12
            assert y[i] <= rewards[i] + 0.9 * v2[i].max() + 1e-12

    online = Mlp([3, 4, 2], np.random.default_rng(20))
    target = Mlp([3, 4, 2], np.random.default_rng(21))
    before = [p.copy() for p in target.params]
    soft_update(online.params, target.params, 0.0)
    for arr, prev in zip(target.params, before):
        assert np.array_equal(arr, prev)
    soft_update(online.params, target.params, 1.0)
    for arr, cur in zip(target.params, online.params):
        assert np.array_equal(arr, cur)
    print("[acceptance] selection/target mechanics PASS (z=%.1f)" % z)


# ---------------------------------------------------------------------------
# conservation at the default scale: 20 random-policy episodes; per-slot
# flow balances, reward decomposition, episode task and bit conservation
# over the slot records and the objective/completion-rate replay from
# them, all within 1e-9 relative; the serialized event log replays to the
# same objectives.
# Budget 120 s.


def test_accept_conservation_and_replay(tmp_path):
    t0 = time.monotonic()
    sc = Scenario()
    tol = 1e-9
    for ep in range(20):
        env = SaginEnv(sc, seed=600 + ep)
        env.reset()
        act_rng = np.random.default_rng(6000 + ep)
        recs = []
        done = False
        while not done:
            buf_before = env.world.dc_buffers.copy()
            stored_before = sum(g.stored_bits for g in env.world.gd_states)
            _, _, done, rec = env.step(act_rng.uniform(-1, 1, env.action_dim))
            recs.append(rec)
            dc = rec["dc"]
            assert close(sum(dc["collected"]), sum(dc["from_gds"]), tol)
            for v in range(sc.n_aavs):
                col, dlv = dc["collected"][v], dc["delivered"][v]
                assert dlv <= buf_before[v] + col + 1e-6
                assert close(env.world.dc_buffers[v],
                             buf_before[v] + col - dlv, tol)
            stored_after = sum(g.stored_bits for g in env.world.gd_states)
            assert close(stored_after, stored_before + dc["generated"]
                         - sum(dc["collected"]), tol)
            rw = rec["reward"]
            want = (rw["task"] + sc.reward.dc_weight * rw["dc_bits"]
                    - sc.reward.energy_weight * rw["energy_j"]
                    - sc.reward.penalty * rw["events"])
            assert close(rw["value"], want, tol)
            assert close(rw["energy_j"],
                         sum(rec["energy"]["aav_move"])
                         + sum(rec["energy"]["aav_compute"]), tol)
            assert close(rw["dc_bits"], sum(dc["delivered"]), tol)
            assert close(rw["task"],
                         sum(t["max_delay"] - t["delay"]
                             for t in rec["tasks"]), tol)
            for t in rec["tasks"]:
                assert close(t["delay"], sum(t["components"].values()), tol)

        gen_total = sum(r["generated"] for r in recs)
        n_success = sum(1 for r in recs for t in r["tasks"] if t["success"])
        n_failed = sum(r["expired"] for r in recs) \
            + sum(1 for r in recs for t in r["tasks"] if not t["success"])
        pending = sum(len(g.pending) for g in env.world.gd_states)
        assert gen_total == n_success + n_failed + pending
        dc_gen = sum(r["dc"]["generated"] for r in recs)
        collected = sum(sum(r["dc"]["collected"]) for r in recs)
        dlv = sum(sum(r["dc"]["delivered"]) for r in recs)
        stored_now = sum(g.stored_bits for g in env.world.gd_states)
        buf_now = float(env.world.dc_buffers.sum())
        assert close(dc_gen, stored_now + buf_now + dlv, tol)
        assert close(collected, buf_now + dlv, tol)

        totals = recount(recs)
        f1, f2, f3 = totals["f1"], totals["f2"], totals["f3"]
        delay_sum = sum(t["delay"] for r in recs for t in r["tasks"])
        assert gen_total > 0
        assert close(f1, delay_sum / gen_total, tol)
        assert close(f2, dlv, tol)
        assert close(f3, sum(sum(r["energy"]["aav_move"])
                             + sum(r["energy"]["aav_compute"]) for r in recs),
                     tol)
        assert close(totals["mec_rate"], 100.0 * n_success / gen_total, tol)
        assert close(totals["dc_rate"], 100.0 * dlv / dc_gen, tol)

        if ep == 0:
            path = tmp_path / "events.jsonl"
            runio.write_events_jsonl(str(path), {"episodes": 1}, recs)
            again = recount(
                [rec for _, rec in runio.iter_events_jsonl(path)][1:])
            assert close(again["f1"], f1, tol)
            assert close(again["f2"], f2, tol)
            assert close(again["f3"], f3, tol)
    assert time.monotonic() - t0 < 120.0
    print("[acceptance] conservation/replay PASS (20 episodes, rel 1e-9, <2min)")


# ---------------------------------------------------------------------------
# learning smoke: on the desk-scale scenario the trained policy's mean
# reward over the final 10 of 50 episodes beats the random baseline by at
# least 20% pooled over seeds 1-3, and the pursuit baseline collects at
# least as many bits (f2) as random on average.  Budget 10 minutes.

SMOKE_HYPER = Hyper(batch_size=128, warmup_steps=500,
                    n_policy_samples=64, n_uniform_samples=16,
                    n_value_samples=8, critic_widths=(128, 64),
                    actor_widths=(128, 128), n_denoise=5, lr_critic=1.0e-3)


def test_accept_learning_smoke():
    t0 = time.monotonic()
    sc = load_scenario(str(CONFIGS / "toy.toml"))
    trained_tail, random_tail, greedy_f2, random_f2 = [], [], [], []
    for seed in (1, 2, 3):
        rows, _ = train(sc, SMOKE_HYPER, seed, 50)
        trained_tail += [r["reward"] for r in rows[-10:]]
        rnd = run_baseline(sc, "random", seed=seed, episodes=50)
        random_tail += [r["reward"] for r in rnd[-10:]]
        random_f2 += [r["f2"] for r in rnd]
        greedy_f2 += [r["f2"] for r in
                      run_baseline(sc, "greedy", seed=seed, episodes=50)]
    mean_trained = float(np.mean(trained_tail))
    mean_random = float(np.mean(random_tail))
    assert mean_trained >= 1.2 * mean_random, (mean_trained, mean_random)
    assert float(np.mean(greedy_f2)) >= float(np.mean(random_f2))
    assert time.monotonic() - t0 < 600.0
    print("[acceptance] learning smoke PASS (trained %.1f vs random %.1f, "
          "ratio %.2f)" % (mean_trained, mean_random,
                           mean_trained / mean_random))


# ---------------------------------------------------------------------------
# determinism: the same command-line invocation twice produces byte-identical
# metrics.csv and events.jsonl, for both a baseline run and a training run.

TINY_CONFIG = """\
n_aavs = 2
n_gds = 3
max_served = 2
horizon = 6
area_bounds = [-500.0, -500.0, 500.0, 500.0]
initial_aav_positions = [[-250.0, -250.0], [250.0, 250.0]]
"""

TINY_HYPER = [
    "--override", "hyper.batch_size=4",
    "--override", "hyper.warmup_steps=0",
    "--override", "hyper.n_policy_samples=4",
    "--override", "hyper.n_uniform_samples=2",
    "--override", "hyper.n_value_samples=2",
    "--override", "hyper.behavior_samples=2",
    "--override", "hyper.target_samples=2",
    "--override", "hyper.critic_widths=8",
    "--override", "hyper.actor_widths=8",
    "--override", "hyper.n_denoise=2",
]


def test_accept_cli_byte_determinism(tmp_path):
    cfg = tmp_path / "tiny.toml"
    cfg.write_text(TINY_CONFIG)
    for verb, extra in (
            ("baseline", ["--algo", "random", "--quiet"]),
            ("train", ["--quiet"] + TINY_HYPER)):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / ("%s_%s" % (verb, tag))
            argv = [verb, "--config", str(cfg), "--seed", "3",
                    "--episodes", "2", "--out", str(out)] + extra
            assert cli.main(argv) == 0
            outs.append(out)
        for fname in ("metrics.csv", "events.jsonl"):
            b0 = (outs[0] / "seed3" / fname).read_bytes()
            b1 = (outs[1] / "seed3" / fname).read_bytes()
            assert b0 == b1, (verb, fname)
    print("[acceptance] byte determinism PASS (baseline and train)")


# ---------------------------------------------------------------------------
# reward-mode isolation: with the same seed and action sequence the three
# reward modes produce identical transition logs except for the scalar
# reward value, which drops exactly the disabled term.


def test_accept_reward_mode_isolation():
    base = dict(n_aavs=2, n_gds=6, max_served=2, horizon=15,
                area_bounds=(-500.0, -500.0, 500.0, 500.0),
                initial_aav_positions=((-200.0, -200.0), (200.0, 200.0)))
    horizon = base["horizon"]
    acts = np.random.default_rng(909).uniform(
        -1.0, 1.0, (horizon, actions.action_dim(2, 2)))
    runs = {}
    for mode in ("joint", "mec_only", "dc_only"):
        sc = Scenario(reward=RewardWeights(mode=mode), **base)
        env = SaginEnv(sc, seed=90)
        states = [env.reset()]
        records = []
        for t in range(horizon):
            s, _, _, rec = env.step(acts[t])
            states.append(s)
            records.append(rec)
        runs[mode] = (states, [json.loads(json.dumps(r)) for r in records])

    def stripped(records):
        out = []
        for r in records:
            r = json.loads(json.dumps(r))
            r["reward"].pop("value")
            out.append(r)
        return out

    joint_states, joint_recs = runs["joint"]
    flat = json.dumps(stripped(joint_recs), sort_keys=True)
    for mode in ("mec_only", "dc_only"):
        states, recs = runs[mode]
        assert json.dumps(stripped(recs), sort_keys=True) == flat
        for s_a, s_b in zip(joint_states, states):
            assert np.array_equal(s_a, s_b)

    w = Scenario(**base).reward
    for t in range(horizon):
        parts = joint_recs[t]["reward"]
        common = (-w.energy_weight * parts["energy_j"]
                  - w.penalty * parts["events"])
        assert close(runs["joint"][1][t]["reward"]["value"],
                     parts["task"] + w.dc_weight * parts["dc_bits"] + common,
                     1e-9)
        assert close(runs["mec_only"][1][t]["reward"]["value"],
                     parts["task"] + common, 1e-9)
        assert close(runs["dc_only"][1][t]["reward"]["value"],
                     w.dc_weight * parts["dc_bits"] + common, 1e-9)
    print("[acceptance] reward-mode isolation PASS")
