import csv
import gc
import json
import math
import os
import pathlib
import weakref

import numpy as np
import pytest

from saginsim import baselines, cli, runio
from saginsim.environment import SaginEnv, episode_totals, rollout
from saginsim.nets.mlp import load_checkpoint
from saginsim.scenario import parse_config_text

TINY_CONFIG = """\
# small scenario for command-line tests
n_aavs = 2
n_gds = 3
max_served = 2
horizon = 6
area_bounds = [-500.0, -500.0, 500.0, 500.0]
initial_aav_positions = [[-250.0, -250.0], [250.0, 250.0]]
"""

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

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


def tiny_hyper_without(key):
    """TINY_HYPER less the override of key."""
    pairs = zip(TINY_HYPER[::2], TINY_HYPER[1::2])
    return [arg for flag, pair in pairs if not pair.startswith(key + "=")
            for arg in (flag, pair)]


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "tiny.toml"
    path.write_text(TINY_CONFIG)
    return str(path)


def run_cli(argv):
    return cli.main(argv)


def check_run_outputs(out_dir, seeds, episodes):
    assert os.path.exists(os.path.join(out_dir, "manifest.json"))
    assert os.path.exists(os.path.join(out_dir, "config.resolved.toml"))
    for seed in seeds:
        seed_dir = os.path.join(out_dir, "seed%d" % seed)
        rows = runio.read_metrics_csv(os.path.join(seed_dir, "metrics.csv"))
        assert len(rows) == episodes
        assert [r["episode"] for r in rows] == list(range(episodes))
        for r in rows:
            assert math.isfinite(r["reward"])
            assert r["f2"] >= 0.0 and r["f3"] > 0.0
        meta, records = runio.read_events_jsonl(
            os.path.join(seed_dir, "events.jsonl"))
        assert meta["schema"] == runio.EVENTS_SCHEMA
        assert len(records) == episodes * 6  # horizon is 6 in the tiny config
        assert os.path.exists(os.path.join(seed_dir, "trajectories.csv"))
        assert os.path.exists(os.path.join(seed_dir, "energy.csv"))


def assert_requested_episodes(out_dir, episodes):
    """The events.jsonl header records the requested episode count."""
    meta, _ = runio.read_events_jsonl(
        os.path.join(out_dir, "seed0", "events.jsonl"))
    assert meta["episodes"] == episodes


def csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_baseline_command(tmp_path, config_path):
    out = str(tmp_path / "base")
    code = run_cli(["baseline", "--algo", "random", "--config", config_path,
                    "--seed", "1,2", "--episodes", "2", "--out", out,
                    "--quiet"])
    assert code == 0
    check_run_outputs(out, [1, 2], 2)
    manifest = json.loads(
        pathlib.Path(out, "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "baseline"
    assert manifest["algo"] == "random"
    assert manifest["seeds"] == [1, 2]


def test_baseline_greedy_and_mode_override(tmp_path, config_path):
    # the manifest records the mode that ran, however it was set
    for name, mode_args in (("flag", ["--mode", "dc_only"]),
                            ("override",
                             ["--override", 'reward.mode="dc_only"'])):
        out = str(tmp_path / name)
        code = run_cli(["baseline", "--algo", "greedy", "--config",
                        config_path, "--seed", "3", "--episodes", "1",
                        "--out", out, "--quiet"] + mode_args)
        assert code == 0
        resolved = pathlib.Path(out, "config.resolved.toml").read_text(
            encoding="utf-8")
        assert 'mode = "dc_only"' in resolved
        manifest = json.loads(
            pathlib.Path(out, "manifest.json").read_text(encoding="utf-8"))
        assert manifest["mode"] == "dc_only"


@pytest.mark.parametrize("seeds", [",", "1,1", "x", "-1", "1,-2"])
def test_bad_seed_list_returns_config_error(tmp_path, config_path, seeds):
    out = str(tmp_path / "seeds")
    code = run_cli(["baseline", "--algo", "random", "--config", config_path,
                    "--seed", seeds, "--episodes", "1", "--out", out,
                    "--quiet"])
    assert code == 2
    assert not os.path.exists(out)


# --seed and --episodes are the only homes of the seed and the episode
# count, so an override of either is an unknown key; --mode sets
# reward.mode, which may then not be overridden
@pytest.mark.parametrize("override,flag_args,named", [
    ("seed=5", [], "seed"),
    ("hyper.episodes=7", [], "episodes"),
    ('reward.mode="dc_only"', ["--mode", "joint"], "--mode"),
])
def test_override_shadowed_by_a_flag_is_a_config_error(
        tmp_path, config_path, capsys, override, flag_args, named):
    out = str(tmp_path / "shadowed")
    code = run_cli(["baseline", "--algo", "random", "--config", config_path,
                    "--seed", "1", "--episodes", "1", "--out", out, "--quiet",
                    "--override", override] + flag_args)
    assert code == 2
    assert named in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("verb", ["train", "baseline"])
def test_negative_episodes_is_a_config_error(tmp_path, config_path, capsys,
                                             verb):
    argv = [verb, "--config", config_path, "--seed", "0", "--quiet"] \
        + (TINY_HYPER if verb == "train" else ["--algo", "random"])
    out = tmp_path / "negative"
    assert run_cli(argv + ["--episodes", "-1", "--out", str(out)]) == 2
    assert "--episodes -1" in capsys.readouterr().err
    assert not out.exists()
    # zero episodes stays valid: the manifest is written, no episode
    out = tmp_path / "zero"
    assert run_cli(argv + ["--episodes", "0", "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    assert not (out / "seed0" / "metrics.csv").exists()


def test_metrics_are_a_function_of_the_event_log(tmp_path):
    out = str(tmp_path / "base")
    code = run_cli(["baseline", "--algo", "random",
                    "--config", str(CONFIGS / "default.toml"),
                    "--seed", "1", "--episodes", "1", "--out", out,
                    "--quiet"])
    assert code == 0
    seed_dir = os.path.join(out, "seed1")
    [metrics] = csv_rows(os.path.join(seed_dir, "metrics.csv"))
    [energy] = csv_rows(os.path.join(seed_dir, "energy.csv"))
    for key in ("gd_tx", "aav_move", "aav_compute", "sat_tx", "sat_compute"):
        assert energy[key] == metrics[key], key
    _, records = runio.read_events_jsonl(os.path.join(seed_dir,
                                                      "events.jsonl"))
    totals = episode_totals(records)
    assert set(totals) == set(metrics) - {"episode", "reward"}
    for key, value in totals.items():
        assert metrics[key] == repr(value), key


def test_train_eval_export_pipeline(tmp_path, config_path, monkeypatch):
    train_out = str(tmp_path / "train")
    code = run_cli(["train", "--config", config_path, "--seed", "0",
                    "--episodes", "1", "--out", train_out, "--quiet"]
                   + TINY_HYPER)
    assert code == 0
    check_run_outputs(train_out, [0], 1)
    ckpt = os.path.join(train_out, "seed0", "checkpoints", "final.npz")
    assert os.path.exists(ckpt)
    rows = runio.read_metrics_csv(
        os.path.join(train_out, "seed0", "metrics.csv"))
    assert "critic_loss" in rows[0] and "actor_loss" in rows[0]

    eval_out = str(tmp_path / "eval")
    agents = []
    build_agent = cli.QagobTrainer

    def keep_agent(*args):
        agents.append(build_agent(*args))
        return agents[-1]

    monkeypatch.setattr(cli, "QagobTrainer", keep_agent)
    # no hyper overrides on purpose: eval must rebuild the nets and the
    # schedule from the checkpoint, not from defaults
    code = run_cli(["eval", "--config", config_path, "--seed", "0",
                    "--episodes", "1", "--checkpoint", ckpt,
                    "--out", eval_out, "--quiet"])
    assert code == 0
    check_run_outputs(eval_out, [0], 1)
    nets, meta = load_checkpoint(ckpt)
    [agent] = agents
    assert len(meta["betas"]) == 2           # TINY_HYPER's n_denoise
    assert agent.policy.schedule.betas.tolist() == meta["betas"]
    for name, net in (("actor", agent.policy.denoiser),
                      ("q1", agent.critics.q1), ("q2", agent.critics.q2)):
        assert net.widths == nets[name].widths

    export_out = str(tmp_path / "export")
    events = os.path.join(train_out, "seed0", "events.jsonl")
    code = run_cli(["export", "--events", events, "--out", export_out])
    assert code == 0
    for name in ("trajectories.csv", "energy.csv"):
        original = pathlib.Path(train_out, "seed0", name).read_bytes()
        regenerated = pathlib.Path(export_out, name).read_bytes()
        assert regenerated == original


def test_train_accepts_scenario_override(tmp_path, config_path):
    out = str(tmp_path / "ovr")
    code = run_cli(["train", "--config", config_path, "--seed", "0",
                    "--episodes", "1", "--out", out, "--quiet",
                    "--override", "horizon=4"] + TINY_HYPER)
    assert code == 0
    _, records = runio.read_events_jsonl(
        os.path.join(out, "seed0", "events.jsonl"))
    assert len(records) == 4
    resolved = pathlib.Path(out, "config.resolved.toml").read_text(
        encoding="utf-8")
    assert "horizon = 4" in resolved


def test_works_without_config_file(tmp_path):
    out = str(tmp_path / "noconf")
    code = run_cli(["baseline", "--algo", "random", "--seed", "0",
                    "--episodes", "1", "--out", out, "--quiet",
                    "--override", "horizon=3",
                    "--override", "n_aavs=2",
                    "--override", "n_gds=3",
                    "--override", "max_served=2",
                    "--override", "area_bounds=[-500.0, -500.0, 500.0, 500.0]",
                    "--override",
                    "initial_aav_positions=[[-250.0, -250.0], [250.0, 250.0]]"])
    assert code == 0
    rows = runio.read_metrics_csv(os.path.join(out, "seed0", "metrics.csv"))
    assert len(rows) == 1


def test_bad_override_returns_config_error(tmp_path, config_path):
    out = str(tmp_path / "bad")
    code = run_cli(["baseline", "--algo", "random", "--config", config_path,
                    "--seed", "0", "--episodes", "1", "--out", out, "--quiet",
                    "--override", "no_such_key=1"])
    assert code == 2
    code = run_cli(["baseline", "--algo", "random", "--config", config_path,
                    "--seed", "0", "--episodes", "1", "--out", out, "--quiet",
                    "--override", "not-a-pair"])
    assert code == 2
    # one override is one value: a newline cannot slip in a second key
    code = run_cli(["baseline", "--algo", "random", "--config", config_path,
                    "--seed", "0", "--episodes", "1", "--out", out, "--quiet",
                    "--override", "horizon=4\nn_gds = 3"])
    assert code == 2


@pytest.mark.parametrize("override", ["hyper.ent_variant=maen",
                                      "hyper.batch_size=many"])
def test_bad_hyper_returns_config_error(tmp_path, config_path, override):
    code = run_cli(["train", "--config", config_path, "--seed", "0",
                    "--episodes", "1", "--out", str(tmp_path / "hyper"),
                    "--quiet"] + TINY_HYPER + ["--override", override])
    assert code == 2


@pytest.mark.parametrize("override,field", [
    ("batch_size=0", "batch_size"),
    ("n_policy_samples=0", "n_policy_samples"),
    ("replay_capacity=0", "replay_capacity"),
    ("n_denoise=0", "n_denoise"),
    ("behavior_samples=0", "behavior_samples"),
    ("target_samples=0", "target_samples"),
    ("gamma=nan", "gamma"),
    ("lr_actor=-1.0", "lr_actor"),
])
def test_out_of_range_hyper_is_a_config_error(tmp_path, capsys, override,
                                              field):
    out = tmp_path / "hyper"
    code = run_cli(["train", "--config", str(CONFIGS / "toy.toml"),
                    "--seed", "0", "--episodes", "2", "--out", str(out),
                    "--quiet"] + TINY_HYPER
                   + ["--override", "hyper." + override])
    assert code == 2
    assert "hyper.%s:" % field in capsys.readouterr().err
    assert not out.exists()


def rerun_from_outputs(out, again):
    """Run again from out's config.resolved.toml and manifest alone."""
    manifest = json.loads(
        pathlib.Path(out, "manifest.json").read_text(encoding="utf-8"))
    argv = [manifest["command"],
            "--config", os.path.join(out, "config.resolved.toml"),
            "--seed", ",".join(str(seed) for seed in manifest["seeds"]),
            "--episodes", str(manifest["episodes"]), "--out", again,
            "--quiet"]
    if manifest["command"] == "baseline":
        argv += ["--algo", manifest["algo"]]
    for key, value in manifest["overrides"].items():
        if key.startswith("hyper."):
            argv += ["--override", "%s=%s" % (key, value)]
    assert run_cli(argv) == 0
    return manifest["seeds"]


@pytest.mark.parametrize("argv", [
    ["baseline", "--algo", "random", "--mode", "dc_only",
     "--override", "horizon=7", "--override", "workload.task_rate=0.3",
     "--seed", "2,3", "--episodes", "2"],
    ["train", "--override", "horizon=5", "--seed", "1", "--episodes", "2"]
    + TINY_HYPER,
], ids=["baseline", "train"])
def test_a_run_reproduces_from_its_outputs(tmp_path, argv):
    argv = argv + ["--config", str(CONFIGS / "toy.toml")]
    out, again = str(tmp_path / "first"), str(tmp_path / "again")
    assert run_cli(argv + ["--out", out, "--quiet"]) == 0
    resolved = pathlib.Path(out, "config.resolved.toml").read_text(
        encoding="utf-8")
    assert "seed" not in parse_config_text(resolved)[""]
    seeds = rerun_from_outputs(out, again)
    assert seeds == [int(s) for s in argv[argv.index("--seed") + 1].split(",")]
    assert pathlib.Path(again, "config.resolved.toml").read_text(
        encoding="utf-8") == resolved
    for seed in seeds:
        for name in ("metrics.csv", "events.jsonl"):
            first = pathlib.Path(out, "seed%d" % seed, name).read_bytes()
            assert pathlib.Path(again, "seed%d" % seed,
                                name).read_bytes() == first, (seed, name)


def test_missing_checkpoint_returns_failure(tmp_path, config_path):
    out = str(tmp_path / "evalbad")
    code = run_cli(["eval", "--config", config_path, "--seed", "0",
                    "--episodes", "1", "--checkpoint",
                    str(tmp_path / "nope.npz"), "--out", out, "--quiet"])
    assert code == 1


def test_sweep_writes_summary(tmp_path, config_path, monkeypatch):
    monkeypatch.setattr(cli, "DENOISE_GRID", (2,))
    out = str(tmp_path / "sweep")
    code = run_cli(["sweep", "--kind", "denoise", "--config", config_path,
                    "--seed", "0", "--episodes", "1", "--out", out, "--quiet"]
                   + tiny_hyper_without("hyper.n_denoise"))
    assert code == 0
    summary = runio.read_metrics_csv(os.path.join(out, "summary.csv"))
    assert len(summary) == 1
    assert summary[0]["sweep"] == "denoise"
    assert summary[0]["value"] == 2
    assert os.path.exists(os.path.join(out, "denoise2", "seed0",
                                       "metrics.csv"))


def test_capacity_sweep_overrides_scenario(tmp_path, config_path, monkeypatch):
    monkeypatch.setattr(cli, "CAPACITY_GRID", (1,))
    out = str(tmp_path / "capsweep")
    code = run_cli(["sweep", "--kind", "capacity", "--config", config_path,
                    "--seed", "0", "--episodes", "1", "--out", out, "--quiet"]
                   + TINY_HYPER)
    assert code == 0
    resolved = pathlib.Path(out, "manifest.json").read_text(encoding="utf-8")
    assert json.loads(resolved)["command"] == "sweep"
    assert os.path.exists(os.path.join(out, "capacity1", "seed0",
                                       "metrics.csv"))
    # each grid point records the scenario it ran
    resolved = pathlib.Path(out, "capacity1", "config.resolved.toml").read_text(
        encoding="utf-8")
    assert parse_config_text(resolved)[""]["max_served"] == 1
    grid_manifest = json.loads(pathlib.Path(
        out, "capacity1", "manifest.json").read_text(encoding="utf-8"))
    assert grid_manifest["overrides"]["max_served"] == "1"


def test_failed_eval_keeps_finished_episodes(tmp_path, config_path,
                                             monkeypatch):
    train_out = str(tmp_path / "train")
    assert run_cli(["train", "--config", config_path, "--seed", "0",
                    "--episodes", "1", "--out", train_out, "--quiet"]
                   + TINY_HYPER) == 0
    ckpt = os.path.join(train_out, "seed0", "checkpoints", "final.npz")
    played = []

    def rollout_then_fail(env, act, on_step=None):
        if played:
            raise RuntimeError("second episode fails")
        played.append(1)
        return rollout(env, act, on_step)

    monkeypatch.setattr(cli, "rollout", rollout_then_fail)
    out = str(tmp_path / "eval")
    code = run_cli(["eval", "--config", config_path, "--seed", "0",
                    "--episodes", "3", "--checkpoint", ckpt, "--out", out,
                    "--quiet"])
    assert code == 1
    check_run_outputs(out, [0], 1)
    assert_requested_episodes(out, 3)


def test_failed_baseline_keeps_finished_episodes(tmp_path, config_path,
                                                 monkeypatch):
    calls = []

    def fail_in_second_episode(env, rng):
        calls.append(1)
        if len(calls) > env.scenario.horizon:
            raise RuntimeError("second episode fails")
        return baselines.random_action(env, rng)

    monkeypatch.setitem(baselines._POLICIES, "random", fail_in_second_episode)
    out = str(tmp_path / "base")
    code = run_cli(["baseline", "--algo", "random", "--config", config_path,
                    "--seed", "0", "--episodes", "3", "--out", out,
                    "--quiet"])
    assert code == 1
    check_run_outputs(out, [0], 1)
    assert_requested_episodes(out, 3)


def train_tiny_checkpoint(tmp_path, config_path):
    out = str(tmp_path / "train")
    assert run_cli(["train", "--config", config_path, "--seed", "0",
                    "--episodes", "1", "--out", out, "--quiet"]
                   + TINY_HYPER) == 0
    return os.path.join(out, "seed0", "checkpoints", "final.npz")


@pytest.mark.parametrize("override", [
    "hyper.actor_widths=4", "hyper.critic_widths=4,4", "hyper.n_denoise=25",
    "hyper.beta_start=0.001", "hyper.beta_end=0.2"])
def test_eval_rejects_overrides_its_checkpoint_fixes(
        tmp_path, config_path, capsys, override):
    ckpt = train_tiny_checkpoint(tmp_path, config_path)
    out = str(tmp_path / "eval")
    code = run_cli(["eval", "--config", config_path, "--seed", "0",
                    "--episodes", "1", "--checkpoint", ckpt, "--out", out,
                    "--quiet", "--override", override])
    assert code == 2
    assert override.partition("=")[0] in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("kind,override", [
    ("capacity", "max_served=3"), ("denoise", "hyper.n_denoise=3")])
def test_sweep_rejects_override_of_its_swept_key(
        tmp_path, config_path, capsys, kind, override):
    out = str(tmp_path / "sweep")
    code = run_cli(["sweep", "--kind", kind, "--config", config_path,
                    "--seed", "0", "--episodes", "1", "--out", out, "--quiet",
                    "--override", override]
                   + tiny_hyper_without("hyper.n_denoise"))
    assert code == 2
    assert override.partition("=")[0] in capsys.readouterr().err
    assert not os.path.exists(out)


def test_export_streams_the_log_of_a_run(tmp_path, monkeypatch):
    out = str(tmp_path / "base")
    assert run_cli(["baseline", "--algo", "random",
                    "--config", str(CONFIGS / "toy.toml"), "--seed", "2",
                    "--episodes", "3", "--out", out, "--quiet"]) == 0
    seed_dir = os.path.join(out, "seed2")

    def read_all(path):
        raise AssertionError("export read the whole log")

    monkeypatch.setattr(runio, "read_events_jsonl", read_all)
    export_out = str(tmp_path / "export")
    assert run_cli(["export", "--events",
                    os.path.join(seed_dir, "events.jsonl"),
                    "--out", export_out]) == 0
    for name in ("trajectories.csv", "energy.csv"):
        original = pathlib.Path(seed_dir, name).read_bytes()
        regenerated = pathlib.Path(export_out, name).read_bytes()
        assert regenerated == original, name


# a slot line holding every key export reads; aav_pos is filled in per case
SLOT_LINE = ('{"slot":0,"generated":0,"tasks":[],'
             '"dc":{"delivered":[0.0],"generated":0.0},'
             '"energy":{"aav_move":[0.0],"aav_compute":[0.0],"gd_tx":0.0,'
             '"sat_tx":0.0,"sat_compute":0.0},"aav_pos":%s}\n')


@pytest.mark.parametrize("text, says", [
    ("", "empty"),
    ('{"schema":9}\n', "schema"),
    ('{"episodes":1,"schema":1}\n{"slot":0,\n', "line 2"),
    ('{"episodes":1,"schema":1}\n', "no slot records"),
    ('{"episodes":1,"schema":1}\n\n{"episode":0}\n', "line 3"),
    (None, "No such file"),
    ('{"episodes":1,"schema":1}\n' + SLOT_LINE % "[[1.0]]", "line 2: aav_pos"),
    ('{"episodes":1,"schema":1}\n' + SLOT_LINE % "[[0.0, 0.0]]"
     + SLOT_LINE % '[["1.0", 0.0]]', "line 3: aav_pos"),
], ids=["empty", "foreign-schema", "undecodable-line", "header-only",
        "not-a-slot-record", "missing", "aav-pos-not-a-pair",
        "aav-pos-not-a-number"])
def test_export_rejects_a_malformed_log(tmp_path, capsys, text, says):
    log = tmp_path / "events.jsonl"
    if text is not None:
        log.write_text(text)
    out = tmp_path / "export"
    assert run_cli(["export", "--events", str(log), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(log) in err and says in err
    assert not out.exists()


def test_sweep_rejects_zero_episodes(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = run_cli(["sweep", "--kind", "capacity",
                    "--config", str(CONFIGS / "toy.toml"), "--seed", "0",
                    "--episodes", "0", "--out", str(out), "--quiet"])
    assert code == 2
    assert "--episodes" in capsys.readouterr().err
    assert not out.exists()


def test_run_outputs_are_folds_of_the_event_log(tmp_path):
    out = str(tmp_path / "base")
    assert run_cli(["baseline", "--algo", "random",
                    "--config", str(CONFIGS / "toy.toml"), "--seed", "1",
                    "--episodes", "3", "--out", out, "--quiet"]) == 0
    seed_dir = os.path.join(out, "seed1")
    _, records = runio.read_events_jsonl(os.path.join(seed_dir,
                                                      "events.jsonl"))
    [energy] = csv_rows(os.path.join(seed_dir, "energy.csv"))
    totals = episode_totals(records)
    for key, value in energy.items():
        assert value == repr(totals[key]), key
    metrics = csv_rows(os.path.join(seed_dir, "metrics.csv"))
    assert [row["episode"] for row in metrics] == ["0", "1", "2"]
    for row in metrics:
        episode = int(row["episode"])
        ep_totals = episode_totals(
            [rec for rec in records if rec["episode"] == episode])
        for key, value in ep_totals.items():
            assert row[key] == repr(value), (episode, key)


class Records(list):
    """Slot records that can be weakly referenced."""


def test_finished_episodes_are_released(tmp_path, config_path):
    args = cli.build_parser().parse_args(
        ["baseline", "--algo", "random", "--config", config_path, "--seed",
         "0", "--episodes", "3", "--out", str(tmp_path / "base"), "--quiet"])
    refs, alive = [], []

    def run(scenario, hyper, seed, seed_dir, on_episode):
        env = SaginEnv(scenario, seed)
        rng = np.random.default_rng(seed)
        for episode in range(args.episodes):
            reward = rollout(env,
                             lambda _s: rng.uniform(-1, 1, env.action_dim))
            records = Records(env.records)
            refs.append(weakref.ref(records))
            on_episode(runio.episode_metrics(env, episode, reward), records)
        gc.collect()
        alive.extend(ref() is not None for ref in refs)

    assert cli._run_seeds(args, "baseline", run) == 0
    # while the seed runs, only the latest episode's records may be held
    assert alive[:-1] == [False, False]
    gc.collect()
    assert [ref() is not None for ref in refs[:-1]] == [False, False]
    check_run_outputs(str(tmp_path / "base"), [0], 3)
