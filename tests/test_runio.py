import json
import math

import numpy as np
import pytest

from saginsim import runio
from saginsim.baselines import run_baseline
from saginsim.environment import SaginEnv, episode_totals, run_episodes
from saginsim.errors import EventLogInvalid
from saginsim.scenario import Scenario


def toy_scenario():
    return Scenario(
        n_aavs=2, n_gds=4, max_served=2, horizon=6,
        initial_aav_positions=((-250.0, -250.0), (250.0, 250.0)),
        area_bounds=(-500.0, -500.0, 500.0, 500.0),
    )


def finished_env(seed=5):
    env = SaginEnv(toy_scenario(), seed)
    env.reset()
    rng = np.random.default_rng(seed)
    total = 0.0
    done = False
    while not done:
        _, r, done, _ = env.step(rng.uniform(-1, 1, env.action_dim))
        total += r
    return env, total


def episode_row(seed=5):
    """The report row of finished_env's episode."""
    env = SaginEnv(toy_scenario(), seed)
    rng = np.random.default_rng(seed)
    [row] = run_episodes(env, lambda _s: rng.uniform(-1, 1, env.action_dim),
                         1)
    return row


def energy_sums(records):
    """Episode energy by source, summed straight from the slot records."""
    sums = {key: sum(rec["energy"][key] for rec in records)
            for key in ("gd_tx", "sat_tx", "sat_compute")}
    for key in ("aav_move", "aav_compute"):
        sums[key] = sum(sum(rec["energy"][key]) for rec in records)
    return sums


def test_offload_ratio_counts_served_tasks():
    env, _ = finished_env()

    def served(*offloaded):
        tasks = [{"delay": 0.5, "success": True, "offloaded": o}
                 for o in offloaded]
        return dict(env.records[0], tasks=tasks)

    records = [served(True, False), served(True), served()]
    assert episode_totals(records)["offload_ratio"] == \
        pytest.approx(100.0 * 2 / 3)
    assert math.isnan(episode_totals([served()])["offload_ratio"])


def test_episode_metrics_fields_and_consistency():
    env = SaginEnv(toy_scenario(), 5)
    rng = np.random.default_rng(5)
    rewards = []
    row = run_episodes(env, lambda _s: rng.uniform(-1, 1, env.action_dim), 4,
                       learn=lambda s, a, r, s2, d: rewards.append(r))[3]
    total = sum(rewards[-env.scenario.horizon:])
    assert row["episode"] == 3
    assert row["reward"] == pytest.approx(total)
    totals = episode_totals(env.records)
    assert row["f2"] == pytest.approx(totals["f2"])
    assert row["f3"] == pytest.approx(totals["f3"])
    assert list(row)[:5] == ["episode", "reward", "f1", "f2", "f3"]
    for key, total in energy_sums(env.records).items():
        assert row[key] == pytest.approx(total)


def test_metrics_csv_round_trip(tmp_path):
    rows = [episode_row()]
    rows[0]["critic_loss"] = 1.25
    # columns are the rows' keys in first-seen order; a missing value is empty
    rows.append(dict(rows[0], actor_loss=0.5))
    path = tmp_path / "metrics.csv"
    runio.write_metrics_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == list(rows[1])
    assert lines[1].endswith(",1.25,")
    back = runio.read_metrics_csv(path)
    assert len(back) == 2
    for key, val in rows[0].items():
        got = back[0][key]
        if isinstance(val, float) and math.isnan(val):
            assert isinstance(got, float) and math.isnan(got)
        else:
            assert got == pytest.approx(val)


def test_metrics_csv_bytes_identical(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    runio.write_metrics_csv(p1, [episode_row(seed=9)])
    runio.write_metrics_csv(p2, [episode_row(seed=9)])
    assert p1.read_bytes() == p2.read_bytes()


def test_run_writer_rejects_a_key_the_header_lacks(tmp_path):
    row = episode_row()
    with pytest.raises(ValueError):
        with runio.RunWriter(str(tmp_path), 2) as writer:
            writer.on_episode(row, [])
            writer.on_episode(dict(row, episode=1, extra=1.0), [])
    # the first row stands as write_metrics_csv writes it
    runio.write_metrics_csv(tmp_path / "one.csv", [row])
    assert (tmp_path / "metrics.csv").read_bytes() \
        == (tmp_path / "one.csv").read_bytes()


def test_events_jsonl_round_trip(tmp_path):
    env, _ = finished_env()
    path = tmp_path / "events.jsonl"
    runio.write_events_jsonl(path, {"seed": 5}, env.records)
    meta, records = runio.read_events_jsonl(path)
    assert meta["schema"] == runio.EVENTS_SCHEMA
    assert meta["seed"] == 5
    assert len(records) == len(env.records)
    assert all(rec["episode"] == 0 for rec in records)
    assert [rec["slot"] for rec in records] == list(range(len(env.records)))
    assert records == env.records


def test_events_jsonl_rejects_bad_schema(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(json.dumps({"schema": 99}) + "\n")
    with pytest.raises(EventLogInvalid):
        runio.read_events_jsonl(path)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(EventLogInvalid):
        runio.read_events_jsonl(empty)


def test_export_trajectories_final_episode_only(tmp_path):
    first, _ = finished_env(seed=5)
    last, _ = finished_env(seed=6)
    assert first.records[0]["aav_pos"] != last.records[0]["aav_pos"]
    tail = runio.RunTail()
    for rec in first.records + [dict(rec, episode=1) for rec in last.records]:
        tail.add(rec)
    tail.write(tmp_path)
    lines = (tmp_path / "trajectories.csv").read_text().splitlines()
    assert lines[0] == "slot,aav,x,y,is_start,is_end"
    n_slots = len(last.records)
    rows = [line.split(",") for line in lines[1:]]
    # one row per slot and AAV, all of them the final episode's positions
    assert [[int(r[0]), int(r[1]), float(r[2]), float(r[3])] for r in rows] \
        == [[rec["slot"], v, x, y] for rec in last.records
            for v, (x, y) in enumerate(rec["aav_pos"])]
    assert [r[4:] for r in rows[:2]] == [["1", "0"], ["1", "0"]]
    assert [r[4:] for r in rows[-2:]] == [["0", "1"], ["0", "1"]]
    assert n_slots > 1 and all(r[4:] == ["0", "0"] for r in rows[2:-2])


def test_export_energy_breakdown_totals(tmp_path):
    env, _ = finished_env()
    flat = [dict(rec, episode=0) for rec in env.records]
    path = tmp_path / "energy.csv"
    runio.export_energy_breakdown(episode_totals(flat), path)
    lines = path.read_text().splitlines()
    fields = lines[0].split(",")
    values = dict(zip(fields, (float(x) for x in lines[1].split(","))))
    for key, total in energy_sums(env.records).items():
        assert values[key] == pytest.approx(total, rel=1e-12)


def test_manifest_written_sorted(tmp_path):
    path = tmp_path / "manifest.json"
    runio.write_manifest(path, {"b": 1, "a": {"z": 2, "y": 3}})
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1, "a": {"z": 2, "y": 3}}


def test_run_baseline_random_and_greedy():
    sc = toy_scenario()
    seen = []
    rows = run_baseline(sc, "random", seed=3, episodes=2,
                        on_episode=lambda row, recs: seen.append((row, recs)))
    assert len(rows) == 2
    assert [r["episode"] for r in rows] == [0, 1]
    assert all(math.isfinite(r["reward"]) for r in rows)
    assert [row for row, _ in seen] == rows
    assert all(len(recs) == sc.horizon for _, recs in seen)
    rows_g = run_baseline(sc, "greedy", seed=3, episodes=1)
    assert len(rows_g) == 1
    with pytest.raises(ValueError):
        run_baseline(sc, "clever", seed=0, episodes=1)


def test_run_baseline_deterministic():
    sc = toy_scenario()
    r1 = run_baseline(sc, "random", seed=11, episodes=2)
    r2 = run_baseline(sc, "random", seed=11, episodes=2)
    assert [r["reward"] for r in r1] == [r["reward"] for r in r2]
    r3 = run_baseline(sc, "random", seed=12, episodes=2)
    assert [r["reward"] for r in r3] != [r["reward"] for r in r1]
