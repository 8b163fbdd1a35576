import csv
import ctypes
import gc
import json
import math
import os
import pathlib
import platform
import re
import subprocess
import sys
import tempfile
import tomllib
import weakref

import numpy as np
import pytest

from saginsim import baselines, cli, runio
from saginsim.environment import SaginEnv, run_episodes
from saginsim.nets.mlp import Mlp, load_checkpoint, save_checkpoint
from saginsim.scenario import load_scenario, seeded_streams
from saginsim.trainer import Hyper, QagobTrainer

from helpers import CONFIGS, TINY_CONFIG, TINY_HYPER, Record, recount


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
        rows = csv_rows(os.path.join(seed_dir, "metrics.csv"))
        assert len(rows) == episodes
        assert [int(r["episode"]) for r in rows] == list(range(episodes))
        for r in rows:
            assert math.isfinite(float(r["reward"]))
            assert float(r["f2"]) >= 0.0 and float(r["f3"]) > 0.0
        (_, meta), *lines = runio.iter_events_jsonl(
            os.path.join(seed_dir, "events.jsonl"))
        records = [rec for _, rec in lines]
        assert meta["schema"] == runio.EVENTS_SCHEMA
        assert len(records) == episodes * 6  # horizon is 6 in the tiny config
        # the plot files are folds of the finished episodes' lines alone
        with tempfile.TemporaryDirectory() as export_out:
            assert run_cli(["export", "--events",
                            os.path.join(seed_dir, "events.jsonl"),
                            "--out", export_out]) == 0
            for name in ("trajectories.csv", "energy.csv"):
                assert pathlib.Path(seed_dir, name).read_bytes() \
                    == pathlib.Path(export_out, name).read_bytes(), name


def assert_requested_episodes(out_dir, episodes):
    """The events.jsonl header records the requested episode count."""
    (_, meta), *_ = runio.iter_events_jsonl(
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
    # the manifest records the mode that ran
    out = str(tmp_path / "override")
    code = run_cli(["baseline", "--algo", "greedy", "--config", config_path,
                    "--seed", "3", "--episodes", "1", "--out", out, "--quiet",
                    "--override", 'reward.mode="dc_only"'])
    assert code == 0
    resolved = pathlib.Path(out, "config.resolved.toml").read_text(
        encoding="utf-8")
    assert tomllib.loads(resolved)["reward"]["mode"] == "dc_only"
    manifest = json.loads(
        pathlib.Path(out, "manifest.json").read_text(encoding="utf-8"))
    assert manifest["mode"] == "dc_only"


def test_mode_is_a_config_key_not_a_flag(tmp_path, config_path):
    out = tmp_path / "mode"
    with pytest.raises(SystemExit) as exit_:
        run_cli(["baseline", "--algo", "greedy", "--config", config_path,
                 "--mode", "dc_only", "--out", str(out), "--quiet"])
    assert exit_.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("algo", ["greedy", "random"])
def test_a_gd_beyond_radio_range_is_not_served(tmp_path, algo):
    # the AAVs' GDs lie so far apart that some uplink rates underflow to 0
    out = tmp_path / algo
    assert run_cli(["baseline", "--algo", algo,
                    "--config", str(CONFIGS / "toy.toml"),
                    "--override", "area_bounds=[-1e13, -500.0, 1e13, 500.0]",
                    "--episodes", "1", "--out", str(out), "--quiet"]) == 0
    [row] = csv_rows(out / "seed0" / "metrics.csv")
    assert all(math.isfinite(float(row[key]))
               for key in ("reward", "f1", "f2", "f3", "gd_tx"))


# valid configs whose links fade until a rate rounds to 0: the satellite
# link both ways, by rain, by distance or by a band so wide that its noise
# swamps the signal, and the AAV->GD downlink, by a faint AAV
@pytest.mark.parametrize("override", ["radio.rain_atten=400",
                                      "radio.rain_atten=1e300",
                                      "sat_altitude=1e300",
                                      "radio.bandwidth_sat=1e300",
                                      "radio.power_aav=1e-30"])
def test_a_dead_link_leaves_tasks_waiting(tmp_path, override):
    out = tmp_path / "dead"
    assert run_cli(["baseline", "--algo", "greedy",
                    "--config", str(CONFIGS / "toy.toml"),
                    "--override", override,
                    "--episodes", "2", "--out", str(out), "--quiet"]) == 0
    rows = [{key: float(value) for key, value in row.items()}
            for row in csv_rows(out / "seed0" / "metrics.csv")]
    records = [rec for _, rec
               in runio.iter_events_jsonl(out / "seed0" / "events.jsonl")][1:]
    assert [row["episode"] for row in rows] == [0, 1]
    for row in rows:
        episode = [rec for rec in records if rec["episode"] == row["episode"]]
        # NaN only where Totals.report documents it: a share of nothing
        nan_allowed = {
            "offload_ratio": not any(rec["tasks"] for rec in episode),
            "mec_rate": not any(rec["generated"] for rec in episode),
            "dc_rate": not any(rec["dc"]["generated"] for rec in episode)}
        for key, value in row.items():
            assert math.isfinite(value) or (
                math.isnan(value) and nan_allowed.get(key, False)), key


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "bad.toml"
    config.write_bytes(b"n_aavs = 2\n\xff\n")
    out = tmp_path / "bad"
    assert run_cli(["baseline", "--algo", "greedy", "--config", str(config),
                    "--out", str(out), "--quiet"]) == 2
    assert str(config) in capsys.readouterr().err
    assert not out.exists()


# an empty entry is an error, as it is in --grid and in a widths list
@pytest.mark.parametrize("seeds", [",", "1,1", "x", "-1", "1,-2", "1,,2",
                                   "1,"])
def test_bad_seed_list_returns_config_error(tmp_path, config_path, seeds):
    out = str(tmp_path / "seeds")
    code = run_cli(["baseline", "--algo", "random", "--config", config_path,
                    "--seed", seeds, "--episodes", "1", "--out", out,
                    "--quiet"])
    assert code == 2
    assert not os.path.exists(out)


# --seed and --episodes are the only homes of the seed and the episode
# count, so an override of either is an unknown key
@pytest.mark.parametrize("override,flag_args,named", [
    ("seed=5", [], "seed"),
    ("hyper.episodes=7", [], "episodes"),
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
    records = [rec for _, rec in runio.iter_events_jsonl(
        os.path.join(seed_dir, "events.jsonl"))][1:]
    totals = recount(records)
    assert set(totals) == set(metrics) - {"episode", "reward"}
    for key, value in totals.items():
        assert metrics[key] == repr(value), key


def test_train_eval_export_pipeline(tmp_path, config_path):
    train_out = str(tmp_path / "train")
    code = run_cli(["train", "--config", config_path, "--seed", "0",
                    "--episodes", "1", "--out", train_out, "--quiet"]
                   + TINY_HYPER)
    assert code == 0
    check_run_outputs(train_out, [0], 1)
    ckpt = os.path.join(train_out, "seed0", "checkpoints", "final.npz")
    assert os.path.exists(ckpt)
    rows = csv_rows(os.path.join(train_out, "seed0", "metrics.csv"))
    assert "critic_loss" in rows[0] and "actor_loss" in rows[0]

    eval_out = str(tmp_path / "eval")
    # no hyper overrides on purpose: eval must rebuild the nets and the
    # schedule from the checkpoint, not from defaults
    code = run_cli(["eval", "--config", config_path, "--seed", "0",
                    "--episodes", "1", "--checkpoint", ckpt,
                    "--out", eval_out, "--quiet"])
    assert code == 0
    check_run_outputs(eval_out, [0], 1)
    nets, meta = load_checkpoint(ckpt)
    agent = QagobTrainer.from_checkpoint(
        ckpt, SaginEnv(load_scenario(config_path), 0), Hyper())
    assert len(meta["betas"]) == 2           # TINY_HYPER's n_denoise
    assert agent.policy.betas.tolist() == meta["betas"]
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
    records = [rec for _, rec in runio.iter_events_jsonl(
        os.path.join(out, "seed0", "events.jsonl"))][1:]
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
    rows = csv_rows(os.path.join(out, "seed0", "metrics.csv"))
    assert len(rows) == 1


# an infinite bound, or a span beyond the largest float, would overflow
# the GD drop once the run's files were written; two numbers are no area
@pytest.mark.parametrize("bounds", ["[-inf, -500.0, 500.0, 500.0]",
                                    "[-1e308, -500.0, 1e308, 500.0]",
                                    "[1.0, 2.0]"])
def test_non_finite_area_bounds_are_a_config_error(tmp_path, capsys, bounds):
    out = tmp_path / "bounds"
    code = run_cli(["baseline", "--algo", "random",
                    "--config", str(CONFIGS / "toy.toml"), "--seed", "0",
                    "--episodes", "1", "--out", str(out), "--quiet",
                    "--override", "area_bounds=" + bounds])
    assert code == 2
    assert "area_bounds:" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("override", [
    "hyper.ent_variant=maen", "hyper.batch_size=many",
    # an empty widths entry is an error, not a dropped layer
    "hyper.actor_widths=8,,8", "hyper.critic_widths=", "hyper.actor_widths=[]",
    # a hyper. value is one TOML value, as a config key's is
    "hyper.lr_actor=.5", "hyper.lr_actor=1.", "hyper.batch_size=01",
    "hyper.actor_widths=(256,256)", "hyper.actor_widths=[1.5]"])
def test_bad_hyper_returns_config_error(tmp_path, config_path, capsys,
                                        override):
    out = tmp_path / "hyper"
    code = run_cli(["train", "--config", config_path, "--seed", "0",
                    "--episodes", "1", "--out", str(out),
                    "--quiet"] + TINY_HYPER + ["--override", override])
    assert code == 2
    assert override.partition("=")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("raw,widths", [
    ("8", (8,)), ("4,4", (4, 4)), ("256,256", (256, 256)),
    ("[256, 256]", (256, 256))])
def test_widths_override_spellings(raw, widths):
    assert cli._build_hyper({"hyper.actor_widths": raw}).actor_widths == widths


@pytest.mark.parametrize("override,field", [
    ("batch_size=0", "batch_size"),
    ("n_policy_samples=0", "n_policy_samples"),
    ("replay_capacity=0", "replay_capacity"),
    ("n_denoise=0", "n_denoise"),
    ("behavior_samples=0", "behavior_samples"),
    ("target_samples=0", "target_samples"),
    ("gamma=nan", "gamma"),
    ("lr_actor=-1.0", "lr_actor"),
    # TINY_HYPER's batch_size is 4: a replay of 3 could never fill a batch
    ("replay_capacity=3", "batch_size"),
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
    if manifest["command"] == "eval":
        argv += ["--checkpoint", manifest["checkpoint"]]
    if manifest["command"] == "sweep":
        grid = manifest["grid"]
        argv += ["--grid", "%s=%s" % (grid["key"], ",".join(grid["values"]))]
    for key, value in manifest["overrides"].items():
        if key.startswith("hyper."):
            argv += ["--override", "%s=%s" % (key, value)]
    assert run_cli(argv) == 0
    return manifest["seeds"]


@pytest.mark.parametrize("argv", [
    ["baseline", "--algo", "random", "--override", 'reward.mode="dc_only"',
     "--override", "horizon=7", "--override", "workload.task_rate=0.3",
     "--seed", "2,3", "--episodes", "2"],
    ["train", "--override", "horizon=5", "--seed", "1", "--episodes", "2"]
    + TINY_HYPER,
    ["eval", "--override", "horizon=5", "--seed", "0,2", "--episodes", "2"],
], ids=["baseline", "train", "eval"])
def test_a_run_reproduces_from_its_outputs(tmp_path, argv):
    argv = argv + ["--config", str(CONFIGS / "toy.toml")]
    if argv[0] == "eval":
        argv += ["--checkpoint",
                 train_tiny_checkpoint(tmp_path, str(CONFIGS / "toy.toml"))]
    out, again = str(tmp_path / "first"), str(tmp_path / "again")
    assert run_cli(argv + ["--out", out, "--quiet"]) == 0
    resolved = pathlib.Path(out, "config.resolved.toml").read_text(
        encoding="utf-8")
    assert "seed" not in tomllib.loads(resolved)
    seeds = rerun_from_outputs(out, again)
    assert seeds == [int(s) for s in argv[argv.index("--seed") + 1].split(",")]
    assert pathlib.Path(again, "config.resolved.toml").read_text(
        encoding="utf-8") == resolved
    for seed in seeds:
        for name in ("metrics.csv", "events.jsonl"):
            first = pathlib.Path(out, "seed%d" % seed, name).read_bytes()
            assert pathlib.Path(again, "seed%d" % seed,
                                name).read_bytes() == first, (seed, name)


def test_missing_checkpoint_returns_failure(tmp_path, config_path, capsys):
    out = tmp_path / "evalbad"
    ckpt = str(tmp_path / "nope.npz")
    code = run_cli(["eval", "--config", config_path, "--seed", "0",
                    "--episodes", "1", "--checkpoint", ckpt,
                    "--out", str(out), "--quiet"])
    assert code == 2
    assert ckpt in capsys.readouterr().err
    assert not out.exists()


def rewrite_checkpoint(path, fmt, dtype=None, edit=None):
    """Rewrite the checkpoint at path under header format fmt, with its
    arrays cast to dtype if one is given and edit(header) applied to its
    header if one is given."""
    with np.load(path) as data:
        payload = {k: data[k] for k in data.files}
    header = json.loads(bytes(payload.pop("header")).decode())
    header["format"] = fmt
    if edit:
        edit(header)
    if dtype:
        payload = {k: v.astype(dtype) for k, v in payload.items()}
    payload["header"] = np.frombuffer(json.dumps(header).encode(),
                                      dtype=np.uint8)
    np.savez(path, **payload)


def replace_net(path, name, hidden):
    """Rewrite the checkpoint at path with network name replaced by a
    float32 one of the same input and output widths and these hidden
    widths."""
    nets, meta = load_checkpoint(path)
    widths = nets[name].widths
    nets[name] = Mlp([widths[0], *hidden, widths[-1]],
                     np.random.default_rng(0), np.float32)
    save_checkpoint(path, nets, meta)


@pytest.mark.parametrize("spoil,config,says", [
    (lambda path: rewrite_checkpoint(path, 999), None, "format 999"),
    # the float64 checkpoints of the first format
    (lambda path: rewrite_checkpoint(path, 1, "<f8"), None,
     "unsupported checkpoint format 1"),
    (lambda path: rewrite_checkpoint(path, 2, "<f8"), None,
     "actor network is float64; the trainer's networks are float32"),
    (lambda path: pathlib.Path(path).write_text("not a checkpoint"), None,
     "cannot read"),
    (lambda path: save_checkpoint(path, {"n": Mlp([2, 2])}), None,
     "no actor network"),
    # trained on the tiny scenario, evaluated on the toy one with its 8 GDs
    (lambda path: None, str(CONFIGS / "toy.toml"), "do not fit"),
    # the schedule eval rebuilds the policy with
    (lambda path: rewrite_checkpoint(
        path, 2, edit=lambda header: header["meta"].pop("betas")), None,
     "betas None is not a nonempty linear schedule"),
    (lambda path: rewrite_checkpoint(
        path, 2, edit=lambda header: header["meta"].update(betas=[])), None,
     "betas [] is not a nonempty linear schedule"),
    # eval would rebuild linspace(1e-4, 0.02, 3), not these betas
    (lambda path: rewrite_checkpoint(
        path, 2, edit=lambda header: header["meta"].update(
            betas=[1e-4, 0.019, 0.02])), None,
     "betas [0.0001, 0.019, 0.02] is not a nonempty linear schedule"),
    # linear, but outside (0, 1); a bool is no number
    (lambda path: rewrite_checkpoint(
        path, 2, edit=lambda header: header["meta"].update(
            betas=[0.5, 1.5])), None, "betas [0.5, 1.5]: hyper.beta_end"),
    (lambda path: rewrite_checkpoint(
        path, 2, edit=lambda header: header["meta"].update(
            betas=[True, True])), None,
     "betas [True, True] is not a nonempty linear schedule"),
    (lambda path: rewrite_checkpoint(
        path, 2, edit=lambda header: header.pop("meta")), None,
     "cannot read"),
    (lambda path: rewrite_checkpoint(
        path, 2, edit=lambda header: header.update(meta=[1])), None,
     "meta is not a JSON object"),
    # q2's hidden widths are not q1's, which eval builds both critics with
    (lambda path: replace_net(path, "q2", [5, 5]), None,
     "q2 network widths"),
], ids=["foreign-format", "format-1", "float64", "not-a-checkpoint",
        "no-actor", "other-scenario", "no-betas", "empty-betas",
        "nonlinear-betas", "betas-out-of-range", "bool-betas", "no-meta",
        "meta-not-an-object", "q2-widths"])
def test_unusable_checkpoint_is_a_config_error(tmp_path, config_path, capsys,
                                               spoil, config, says):
    ckpt = train_tiny_checkpoint(tmp_path, config_path)
    spoil(ckpt)
    capsys.readouterr()
    out = tmp_path / "eval"
    code = run_cli(["eval", "--config", config or config_path, "--seed", "0",
                    "--episodes", "1", "--checkpoint", ckpt,
                    "--out", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert ckpt in err and says in err
    assert not out.exists()


def test_checkpoint_with_target_networks_evaluates_alike(
        tmp_path, config_path):
    """train writes the three networks eval plays.  The six-network
    checkpoints of earlier versions, which add the targets, still load,
    and their targets change nothing."""
    ckpt = train_tiny_checkpoint(tmp_path, config_path)
    nets, meta = load_checkpoint(ckpt)
    assert list(nets) == ["actor", "q1", "q2"]
    rng = np.random.default_rng(1)
    six = str(tmp_path / "six.npz")
    save_checkpoint(six, {**nets, **{
        name + "_target": Mlp(net.widths, rng, np.float32)
        for name, net in nets.items()}}, meta)
    outs = []
    for path in (ckpt, six):
        outs.append(tmp_path / ("eval-" + os.path.basename(path)))
        assert run_cli(["eval", "--config", config_path, "--seed", "0,1",
                        "--episodes", "2", "--checkpoint", path,
                        "--out", str(outs[-1]), "--quiet"]) == 0
    # and a seed plays alike alone and after another seed
    alone = tmp_path / "eval-seed1"
    assert run_cli(["eval", "--config", config_path, "--seed", "1",
                    "--episodes", "2", "--checkpoint", ckpt,
                    "--out", str(alone), "--quiet"]) == 0
    for seed in ("seed0", "seed1"):
        for name in ("metrics.csv", "events.jsonl"):
            first = (outs[0] / seed / name).read_bytes()
            assert (outs[1] / seed / name).read_bytes() == first, (seed, name)
            if seed == "seed1":
                assert (alone / seed / name).read_bytes() == first, name


@pytest.mark.parametrize("argv", [
    ["baseline", "--algo", "random", "--seed", "0", "--quiet"],
    ["export"],
], ids=["baseline", "export"])
def test_out_that_is_a_file_is_a_config_error(tmp_path, config_path, capsys,
                                              argv):
    """An --out that names a file exits 2, names it and writes nothing."""
    events = tmp_path / "run" / "seed0" / "events.jsonl"
    assert run_cli(["baseline", "--algo", "random", "--config", config_path,
                    "--out", str(tmp_path / "run"), "--quiet"]) == 0
    out = tmp_path / "out.txt"
    out.write_text("not a directory")
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    extra = ["--events", str(events)] if argv == ["export"] else \
        ["--config", config_path]
    assert run_cli(argv + extra + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cannot make %s: " % out in err
    assert out.read_text() == "not a directory"
    assert sorted(tmp_path.rglob("*")) == before


def test_a_seed_directory_that_is_a_file_is_a_config_error(
        tmp_path, config_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    (out / "seed0").write_text("not a directory")
    code = run_cli(["baseline", "--algo", "random", "--config", config_path,
                    "--out", str(out), "--quiet"])
    assert code == 2
    assert str(out / "seed0") in capsys.readouterr().err
    # every seed's directory, and checkpoints/ in a train run or a sweep
    # point, is made before the first seed plays
    train = (["--config", config_path, "--episodes", "1", "--quiet"]
             + TINY_HYPER)
    for name, argv, blocked, unplayed in [
            ("train", ["train"] + train, "seed0/checkpoints",
             "seed0/metrics.csv"),
            ("seeds", ["baseline", "--algo", "random", "--config", config_path,
                       "--seed", "0,1", "--quiet"], "seed1",
             "seed0/metrics.csv"),
            ("sweep", ["sweep", "--grid", "max_served=1,2"] + train,
             "max_served=2/seed0/checkpoints",
             "max_served=1/seed0/metrics.csv"),
    ]:
        out = tmp_path / name
        (out / blocked).parent.mkdir(parents=True)
        (out / blocked).write_text("not a directory")
        assert run_cli(argv + ["--out", str(out)]) == 2, name
        assert str(out / blocked) in capsys.readouterr().err
        assert not (out / unplayed).exists()


def test_weibull_rain_draws_once_per_episode(tmp_path, monkeypatch):
    """The Weibull rain model: one weibull(2.0) * rain_atten draw from the
    channel stream per episode, runs that repeat byte for byte, and
    satellite legs that differ from the fixed model's on the same seed."""
    envs, extras = [], []
    reset = SaginEnv.reset

    def recording_reset(env):
        state = reset(env)
        envs.append(env)
        extras.append(env.world.rain_extra_db)
        return state
    monkeypatch.setattr(SaginEnv, "reset", recording_reset)
    argv = ["baseline", "--algo", "greedy", "--config",
            str(CONFIGS / "toy.toml"), "--seed", "3", "--episodes", "3",
            "--quiet"]
    weibull = ["--override", 'radio.rain_model="weibull"']
    for name, extra in (("a", weibull), ("b", weibull), ("fixed", [])):
        assert run_cli(argv + extra + ["--out", str(tmp_path / name)]) == 0

    rain_atten = load_scenario(CONFIGS / "toy.toml").radio.rain_atten
    ref = seeded_streams(3)["channel"]
    want = [ref.weibull(2.0) * rain_atten - rain_atten for _ in range(3)]
    assert extras == want + want + [0.0] * 3
    # no other draw: the stream stands where the reference does
    assert envs[0].rng["channel"].bit_generator.state \
        == ref.bit_generator.state
    for name in ("metrics.csv", "events.jsonl", "energy.csv",
                 "trajectories.csv"):
        assert (tmp_path / "a" / "seed3" / name).read_bytes() \
            == (tmp_path / "b" / "seed3" / name).read_bytes()

    def tasks(name):
        records = [rec for _, rec in runio.iter_events_jsonl(
            tmp_path / name / "seed3" / "events.jsonl")][1:]
        return [task for rec in records for task in rec["tasks"]]
    wet, dry = tasks("a"), tasks("fixed")
    assert [(t["task_id"], t["offloaded"]) for t in wet] \
        == [(t["task_id"], t["offloaded"]) for t in dry]
    offloaded = [(w["components"], d["components"]) for w, d in zip(wet, dry)
                 if w["offloaded"]]
    assert offloaded
    for w, d in offloaded:
        assert w["t_up_g2a"] == d["t_up_g2a"]
        assert w["t_up_a2s"] != d["t_up_a2s"]
        assert w["t_down_s2a"] != d["t_down_s2a"]


def test_sweep_writes_summary(tmp_path, config_path):
    out = str(tmp_path / "sweep")
    code = run_cli(["sweep", "--grid", "hyper.n_denoise=2",
                    "--config", config_path,
                    "--seed", "0", "--episodes", "1", "--out", out, "--quiet"]
                   + tiny_hyper_without("hyper.n_denoise"))
    assert code == 0
    summary = csv_rows(os.path.join(out, "summary.csv"))
    assert len(summary) == 1
    assert summary[0]["key"] == "hyper.n_denoise"
    assert int(summary[0]["value"]) == 2
    assert os.path.exists(os.path.join(out, "hyper.n_denoise=2", "seed0",
                                       "metrics.csv"))


def test_capacity_sweep_overrides_scenario(tmp_path, config_path):
    out = str(tmp_path / "capsweep")
    code = run_cli(["sweep", "--grid", "max_served=1", "--config", config_path,
                    "--seed", "0", "--episodes", "1", "--out", out, "--quiet"]
                   + TINY_HYPER)
    assert code == 0
    manifest = json.loads(
        pathlib.Path(out, "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "sweep"
    assert manifest["grid"] == {"key": "max_served", "values": ["1"]}
    assert os.path.exists(os.path.join(out, "max_served=1", "seed0",
                                       "metrics.csv"))
    # the top level records the scenario the grid varies, each grid point
    # the scenario it ran
    resolved = pathlib.Path(out, "config.resolved.toml").read_text(
        encoding="utf-8")
    assert tomllib.loads(resolved)["max_served"] == 2
    resolved = pathlib.Path(out, "max_served=1",
                            "config.resolved.toml").read_text(encoding="utf-8")
    assert tomllib.loads(resolved)["max_served"] == 1
    grid_manifest = json.loads(pathlib.Path(
        out, "max_served=1", "manifest.json").read_text(encoding="utf-8"))
    assert grid_manifest["overrides"]["max_served"] == "1"


def test_sweep_summary_is_the_tail_of_each_point(tmp_path, config_path):
    # 12 episodes, so the summary's 10-episode tail drops two of them
    out = tmp_path / "sweep"
    assert run_cli(["sweep", "--grid", "max_served=1,2", "--config",
                    config_path, "--seed", "0,1", "--episodes", "12",
                    "--out", str(out), "--quiet"] + TINY_HYPER) == 0
    summary = csv_rows(out / "summary.csv")
    assert [(row["value"], row["seed"]) for row in summary] == [
        ("1", "0"), ("1", "1"), ("2", "0"), ("2", "1")]
    for row in summary:
        rows = csv_rows(out / ("max_served=" + row["value"])
                        / ("seed" + row["seed"]) / "metrics.csv")
        assert len(rows) == 12
        # the builtin sum in episode order, as the sweep sums
        for key, column in (("reward_tail10", "reward"), ("f1", "f1"),
                            ("f2", "f2"), ("f3", "f3")):
            tail = sum(float(r[column]) for r in rows[-10:]) / 10
            assert row[key] == repr(tail), key


RUN_FILES = ("metrics.csv", "events.jsonl", "energy.csv", "trajectories.csv")


def test_a_sweep_point_is_a_train_run(tmp_path, config_path):
    argv = ["--config", config_path, "--seed", "1", "--episodes", "2",
            "--quiet"] + TINY_HYPER
    sweep = tmp_path / "sweep"
    assert run_cli(["sweep", "--grid", "max_served=1,2", "--out", str(sweep)]
                   + argv) == 0
    plain = tmp_path / "plain"
    assert run_cli(["train", "--override", "max_served=1", "--out", str(plain)]
                   + argv) == 0
    point = sweep / "max_served=1"
    for name in ("config.resolved.toml",) + tuple(
            os.path.join("seed1", name) for name in RUN_FILES):
        assert (point / name).read_bytes() == (plain / name).read_bytes(), name
    assert (point / "seed1" / "checkpoints" / "final.npz").exists()


def test_a_sweep_reproduces_from_its_outputs(tmp_path):
    out, again = tmp_path / "first", tmp_path / "again"
    assert run_cli(["sweep", "--grid", "hyper.gamma=0.5,0.9",
                    "--config", str(CONFIGS / "toy.toml"),
                    "--override", "horizon=5",
                    "--override", 'reward.mode="dc_only"',
                    "--seed", "0,2", "--episodes", "2", "--out", str(out),
                    "--quiet"] + TINY_HYPER) == 0
    assert rerun_from_outputs(str(out), str(again)) == [0, 2]
    for point in ("hyper.gamma=0.5", "hyper.gamma=0.9"):
        names = ["config.resolved.toml"] + [
            os.path.join("seed%d" % seed, name)
            for seed in (0, 2) for name in RUN_FILES]
        for name in names:
            assert (again / point / name).read_bytes() == \
                (out / point / name).read_bytes(), (point, name)
    assert (again / "summary.csv").read_bytes() == \
        (out / "summary.csv").read_bytes()


def test_failed_eval_keeps_finished_episodes(tmp_path, config_path,
                                             monkeypatch):
    train_out = str(tmp_path / "train")
    assert run_cli(["train", "--config", config_path, "--seed", "0",
                    "--episodes", "1", "--out", train_out, "--quiet"]
                   + TINY_HYPER) == 0
    ckpt = os.path.join(train_out, "seed0", "checkpoints", "final.npz")
    step = SaginEnv.step
    steps = []

    def step_then_fail(env, action):
        steps.append(1)
        if len(steps) > env.scenario.horizon + 2:
            raise RuntimeError("second episode fails")
        return step(env, action)

    monkeypatch.setattr(SaginEnv, "step", step_then_fail)
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
        if len(calls) > env.scenario.horizon + 2:
            raise RuntimeError("second episode fails")
        return baselines.random_action(env, rng)

    monkeypatch.setitem(baselines.POLICIES, "random", fail_in_second_episode)
    out = str(tmp_path / "base")
    code = run_cli(["baseline", "--algo", "random", "--config", config_path,
                    "--seed", "0", "--episodes", "3", "--out", out,
                    "--quiet"])
    assert code == 1
    check_run_outputs(out, [0], 1)
    assert_requested_episodes(out, 3)


def test_failed_train_keeps_finished_episodes(tmp_path, config_path,
                                              monkeypatch):
    learn = QagobTrainer.learn
    calls = []

    def learn_then_fail(trainer, *transition):
        calls.append(1)
        if len(calls) > trainer.env.scenario.horizon + 2:
            raise RuntimeError("second episode fails")
        return learn(trainer, *transition)

    monkeypatch.setattr(QagobTrainer, "learn", learn_then_fail)
    out = str(tmp_path / "train")
    code = run_cli(["train", "--config", config_path, "--seed", "0",
                    "--episodes", "3", "--out", out, "--quiet"] + TINY_HYPER)
    assert code == 1
    check_run_outputs(out, [0], 1)
    assert_requested_episodes(out, 3)
    assert not os.path.exists(
        os.path.join(out, "seed0", "checkpoints", "final.npz"))


@pytest.mark.parametrize("verb", ["train", "eval", "baseline"])
def test_each_slot_record_reaches_the_writer_before_the_next_action(
        tmp_path, config_path, monkeypatch, verb):
    extra = {"train": TINY_HYPER, "baseline": ["--algo", "random"]}.get(verb)
    if verb == "eval":
        extra = ["--checkpoint", train_tiny_checkpoint(tmp_path, config_path)]
    calls = []

    class StubWriter:
        """Logs what a run hands its writer, and writes nothing."""

        def __init__(self, seed_dir, episodes):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def on_slot(self, rec):
            calls.append(("slot", rec["episode"], rec["slot"]))

        def on_episode(self, row):
            calls.append(("episode", row["episode"]))

    select = QagobTrainer.select_action

    def select_action(agent, state):
        calls.append(("act", agent.env.episode, agent.env.world.slot))
        return select(agent, state)

    def random_action(env, rng):
        calls.append(("act", env.episode, env.world.slot))
        return baselines.random_action(env, rng)

    monkeypatch.setattr(QagobTrainer, "select_action", select_action)
    monkeypatch.setitem(baselines.POLICIES, "random", random_action)
    monkeypatch.setattr(runio, "RunWriter", StubWriter)
    assert run_cli([verb, "--config", config_path, "--seed", "0",
                    "--episodes", "2", "--out", str(tmp_path / verb),
                    "--quiet"] + extra) == 0
    want = []
    for episode in range(2):
        want += [(kind, episode, slot) for slot in range(6)
                 for kind in ("act", "slot")]
        want.append(("episode", episode))
    assert calls == want


def train_tiny_checkpoint(tmp_path, config_path):
    out = str(tmp_path / "train")
    assert run_cli(["train", "--config", config_path, "--seed", "0",
                    "--episodes", "1", "--out", out, "--quiet"]
                   + TINY_HYPER) == 0
    return os.path.join(out, "seed0", "checkpoints", "final.npz")


@pytest.mark.parametrize("verb", ["train", "eval", "baseline", "sweep"])
def test_progress_line_per_episode_unless_quiet(tmp_path, config_path,
                                                capsys, verb):
    """One line per episode, naming the seed and, in a sweep, the point,
    so that no two lines of a run read alike."""
    extra = {"train": TINY_HYPER, "baseline": ["--algo", "random"],
             "sweep": ["--grid", "max_served=1,2"] + TINY_HYPER}.get(verb)
    if verb == "eval":
        extra = ["--checkpoint", train_tiny_checkpoint(tmp_path, config_path)]
    argv = [verb, "--config", config_path, "--seed", "0,1", "--episodes",
            "2"] + extra
    capsys.readouterr()
    loud = tmp_path / "loud"
    assert run_cli(argv + ["--out", str(loud)]) == 0
    lines = capsys.readouterr().out.splitlines()
    points = ["max_served=1", "max_served=2"] if verb == "sweep" else [""]
    runs = [(point, seed) for point in points for seed in (0, 1)]
    rows = [(point, seed, row) for point, seed in runs
            for row in csv_rows(
                loud / point / ("seed%d" % seed) / "metrics.csv")]
    assert len(lines) == len(rows) == 2 * len(runs)
    for line, (point, seed, row) in zip(lines, rows):
        name = (point + " " if point else "") + "seed %d" % seed
        assert re.fullmatch(r"%s episode %d/2 reward %s \(\d+\.\ds\)" % (
            re.escape(name), int(row["episode"]) + 1,
            re.escape("%.3f" % float(row["reward"]))), line)
    assert len({line.split(" reward ")[0] for line in lines}) == len(lines)
    assert run_cli(argv + ["--out", str(tmp_path / "quiet"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


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


# every point is checked before the first one runs, so a bad value
# anywhere in the grid, the last one included, writes nothing
@pytest.mark.parametrize("grid,flag_args,named", [
    ("max_served=1,2", ["--override", "max_served=3"], "max_served"),
    ("hyper.n_denoise=1,2", ["--override", "hyper.n_denoise=3"],
     "hyper.n_denoise"),
    ("max_served", [], "--grid"),
    ("=1,2", [], "--grid"),
    ("max_served=1,,2", [], "--grid"),
    ("max_served=", [], "--grid"),
    ("max_served=1,2,1", [], "repeats"),
    ("hyper.gamma=0.9,0.90", [], "repeats"),
    ("no_such_key=1,2", [], "no_such_key"),
    ("hyper.no_such=1,2", [], "no_such"),
    ("max_served=1,2,0", [], "max_served"),
    ("hyper.gamma=0.5,2.0", [], "hyper.gamma"),
    ('reward.mode="dc_only","joint"', ["--override", 'reward.mode="joint"'],
     "reward.mode"),
], ids=["capacity-max_served=3", "denoise-hyper.n_denoise=3", "no-equals",
        "empty-key", "empty-value", "no-value", "repeated-value",
        "repeated-value-spelling",
        "unknown-key", "unknown-hyper-key", "last-value-out-of-range",
        "hyper-value-out-of-range", "mode-override"])
def test_sweep_rejects_override_of_its_swept_key(
        tmp_path, config_path, capsys, grid, flag_args, named):
    out = str(tmp_path / "sweep")
    code = run_cli(["sweep", "--grid", grid, "--config", config_path,
                    "--seed", "0", "--episodes", "1", "--out", out, "--quiet"]
                   + flag_args + tiny_hyper_without("hyper.n_denoise"))
    assert code == 2
    assert named in capsys.readouterr().err
    assert not os.path.exists(out)


def test_export_streams_the_log_of_a_run(tmp_path, monkeypatch):
    out = str(tmp_path / "base")
    assert run_cli(["baseline", "--algo", "random",
                    "--config", str(CONFIGS / "toy.toml"), "--seed", "2",
                    "--episodes", "3", "--out", out, "--quiet"]) == 0
    seed_dir = os.path.join(out, "seed2")
    # export folds each line before it reads the next
    order = []
    read, fold = runio.iter_events_jsonl, runio.RunTail.add

    def reading(path):
        for line in read(path):
            order.append("read")
            yield line

    def folding(tail, rec):
        order.append("fold")
        fold(tail, rec)

    monkeypatch.setattr(runio, "iter_events_jsonl", reading)
    monkeypatch.setattr(runio.RunTail, "add", folding)
    export_out = str(tmp_path / "export")
    assert run_cli(["export", "--events",
                    os.path.join(seed_dir, "events.jsonl"),
                    "--out", export_out]) == 0
    slots = 3 * load_scenario(CONFIGS / "toy.toml").horizon
    assert order == ["read"] + ["read", "fold"] * slots
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
    (b'{"episodes":1,"schema":1}\n\xff\n', "line 2"),
], ids=["empty", "foreign-schema", "undecodable-line", "header-only",
        "not-a-slot-record", "missing", "aav-pos-not-a-pair",
        "aav-pos-not-a-number", "not-utf8-line"])
def test_export_rejects_a_malformed_log(tmp_path, capsys, text, says):
    log = tmp_path / "events.jsonl"
    if text is not None:
        log.write_bytes(text.encode() if isinstance(text, str) else text)
    out = tmp_path / "export"
    assert run_cli(["export", "--events", str(log), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(log) in err and says in err
    assert not out.exists()


def test_sweep_rejects_zero_episodes(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = run_cli(["sweep", "--grid", "max_served=1,2",
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
    records = [rec for _, rec in runio.iter_events_jsonl(
        os.path.join(seed_dir, "events.jsonl"))][1:]
    [energy] = csv_rows(os.path.join(seed_dir, "energy.csv"))
    totals = recount(records)
    for key, value in energy.items():
        assert value == repr(totals[key]), key
    metrics = csv_rows(os.path.join(seed_dir, "metrics.csv"))
    assert [row["episode"] for row in metrics] == ["0", "1", "2"]
    for row in metrics:
        episode = int(row["episode"])
        ep_totals = recount(
            [rec for rec in records if rec["episode"] == episode])
        for key, value in ep_totals.items():
            assert row[key] == repr(value), (episode, key)


def test_finished_episodes_are_released(tmp_path, config_path):
    args = cli.build_parser().parse_args(
        ["baseline", "--algo", "random", "--config", config_path, "--seed",
         "0", "--episodes", "3", "--out", str(tmp_path / "base"), "--quiet"])
    refs, held = [], []

    def run(scenario, hyper, seed, episodes, seed_dir, on_slot, on_episode):
        env = SaginEnv(scenario, seed)
        rng = np.random.default_rng(seed)

        def on_weak_slot(record):
            held.append(sum(ref() is not None for ref in refs))
            record = Record(record)
            refs.append(weakref.ref(record))
            on_slot(record)
        return run_episodes(env, lambda _s: rng.uniform(-1, 1, env.action_dim),
                            episodes, on_weak_slot, on_episode)

    assert cli._run_seeds(args, "baseline", run)[0] == 0
    # the writer keeps a record's line and fold, never the record itself
    assert held == [0] * 18
    gc.collect()
    assert not any(ref() is not None for ref in refs)
    check_run_outputs(str(tmp_path / "base"), [0], 3)


ON_GLIBC = platform.libc_ver()[0] == "glibc"
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run_python(code, *args):
    """The stdout of `python -c code args` run on this saginsim, in its own
    process so that the heap setting never reaches the test process."""
    path = [PACKAGE_ROOT] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


FAULTS_PER_UPDATE = """
import json, resource, sys
import numpy as np
from saginsim import cli
from saginsim.environment import SaginEnv
from saginsim.scenario import load_scenario
from saginsim.trainer import Hyper, QagobTrainer

assert cli._hold_heap()
env = SaginEnv(load_scenario(sys.argv[1]), 0)
trainer = QagobTrainer(env, Hyper())
rng = np.random.default_rng(0)
state = env.reset()
for _ in range(300):
    action = rng.uniform(-1.0, 1.0, env.action_dim)
    next_state, reward, done, _ = env.step(action)
    trainer.replay.push(state, action, reward, next_state, done)
    state = next_state
for _ in range(3):
    trainer.update()
faults = []
for _ in range(20):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    trainer.update()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(not ON_GLIBC, reason="mallopt is glibc's")
def test_hold_heap_keeps_updates_from_faulting():
    # without the setting a default-scale update takes about 4,000 minor
    # page faults, as glibc trims the heap top and grows it back
    faults = json.loads(run_python(FAULTS_PER_UPDATE,
                                   str(CONFIGS / "default.toml")))
    assert len(faults) == 20 and max(faults) < 50, faults


TRAIN_DEFAULT = """
import sys
from saginsim import cli
if sys.argv[1] == "off":
    cli._hold_heap = lambda: False
sys.exit(cli.main(sys.argv[2:]))
"""


def test_heap_setting_changes_no_output(tmp_path):
    # warmup 280 of the 300 slots leaves about 20 updates
    outs = {}
    for heap in ("on", "off"):
        outs[heap] = tmp_path / heap
        run_python(TRAIN_DEFAULT, heap, "train", "--config",
                   str(CONFIGS / "default.toml"), "--seed", "0",
                   "--episodes", "1", "--override", "hyper.warmup_steps=280",
                   "--out", str(outs[heap]), "--quiet")
    for name in ("metrics.csv", "events.jsonl", "energy.csv",
                 "trajectories.csv", "checkpoints/final.npz"):
        on, off = (outs[heap] / "seed0" / name for heap in ("on", "off"))
        assert on.read_bytes() == off.read_bytes(), name


def test_hold_heap_is_a_no_op_without_mallopt(monkeypatch):
    def no_library(_name):
        raise OSError("no libc")
    monkeypatch.setattr(ctypes, "CDLL", no_library)
    assert cli._hold_heap() is False
    monkeypatch.setattr(ctypes, "CDLL", lambda _name: object())
    assert cli._hold_heap() is False


COUNT_MALLOPT_LOOKUPS = """
import ctypes, json
lookups = []

class Spy(ctypes.CDLL):
    def __getattr__(self, name):
        if name == "mallopt":
            lookups.append(name)
        return super().__getattr__(name)

ctypes.CDLL = Spy
import saginsim.cli
at_import = len(lookups)
held = saginsim.cli._hold_heap()
print(json.dumps([at_import, len(lookups), held]))
"""


def test_importing_cli_leaves_the_heap_alone():
    at_import, after_call, held = json.loads(run_python(COUNT_MALLOPT_LOOKUPS))
    assert at_import == 0
    assert (after_call, held) == ((1, True) if ON_GLIBC else (0, False))
