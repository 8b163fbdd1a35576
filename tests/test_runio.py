import csv
import json
import math

import numpy as np
import pytest

from saginsim import runio
from saginsim.baselines import run_baseline
from saginsim.environment import SaginEnv, run_episodes
from saginsim.errors import EventLogInvalid
from saginsim.scenario import Scenario

from helpers import recount


def toy_scenario():
    return Scenario(
        n_aavs=2, n_gds=4, max_served=2, horizon=6,
        initial_aav_positions=((-250.0, -250.0), (250.0, 250.0)),
        area_bounds=(-500.0, -500.0, 500.0, 500.0),
    )


def finished_episode(seed=5):
    """(slot records, summed reward) of one random episode."""
    env = SaginEnv(toy_scenario(), seed)
    env.reset()
    rng = np.random.default_rng(seed)
    records = []
    total = 0.0
    done = False
    while not done:
        _, r, done, rec = env.step(rng.uniform(-1, 1, env.action_dim))
        records.append(rec)
        total += r
    return records, total


def episode_row(seed=5):
    """The report row of finished_episode's episode."""
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
    played, _ = finished_episode()

    def served(*offloaded):
        tasks = [{"delay": 0.5, "success": True, "offloaded": o}
                 for o in offloaded]
        return dict(played[0], tasks=tasks)

    records = [served(True, False), served(True), served()]
    assert recount(records)["offload_ratio"] == \
        pytest.approx(100.0 * 2 / 3)
    assert math.isnan(recount([served()])["offload_ratio"])


def test_episode_metrics_fields_and_consistency():
    env = SaginEnv(toy_scenario(), 5)
    rng = np.random.default_rng(5)
    rewards, records = [], []
    row = run_episodes(env, lambda _s: rng.uniform(-1, 1, env.action_dim), 4,
                       on_slot=records.append,
                       learn=lambda s, a, r, s2, d: rewards.append(r))[3]
    horizon = env.scenario.horizon
    total = sum(rewards[-horizon:])
    assert row["episode"] == 3
    assert row["reward"] == pytest.approx(total)
    last = records[-horizon:]
    totals = recount(last)
    assert row["f2"] == pytest.approx(totals["f2"])
    assert row["f3"] == pytest.approx(totals["f3"])
    assert list(row)[:5] == ["episode", "reward", "f1", "f2", "f3"]
    for key, total in energy_sums(last).items():
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
    with open(path, newline="", encoding="utf-8") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == 2
    for key, val in rows[0].items():
        got = float(back[0][key])
        if isinstance(val, float) and math.isnan(val):
            assert math.isnan(got)
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
            writer.on_episode(row)
            writer.on_episode(dict(row, episode=1, extra=1.0))
    # the first row stands as write_metrics_csv writes it
    runio.write_metrics_csv(tmp_path / "one.csv", [row])
    assert (tmp_path / "metrics.csv").read_bytes() \
        == (tmp_path / "one.csv").read_bytes()


def test_events_jsonl_round_trip(tmp_path):
    played, _ = finished_episode()
    path = tmp_path / "events.jsonl"
    runio.write_events_jsonl(path, {"seed": 5}, played)
    (_, meta), *lines = runio.iter_events_jsonl(path)
    records = [rec for _, rec in lines]
    assert meta["schema"] == runio.EVENTS_SCHEMA
    assert meta["seed"] == 5
    assert len(records) == len(played)
    assert all(rec["episode"] == 0 for rec in records)
    assert [rec["slot"] for rec in records] == list(range(len(played)))
    assert records == played


def test_events_jsonl_rejects_bad_schema(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(json.dumps({"schema": 99}) + "\n")
    with pytest.raises(EventLogInvalid):
        list(runio.iter_events_jsonl(path))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(EventLogInvalid):
        list(runio.iter_events_jsonl(empty))


def test_export_trajectories_final_episode_only(tmp_path):
    first, _ = finished_episode(seed=5)
    last, _ = finished_episode(seed=6)
    assert first[0]["aav_pos"] != last[0]["aav_pos"]
    tail = runio.RunTail()
    for rec in first + [dict(rec, episode=1) for rec in last]:
        tail.add(rec)
    tail.commit()
    tail.write(tmp_path)
    lines = (tmp_path / "trajectories.csv").read_text().splitlines()
    assert lines[0] == "slot,aav,x,y,is_start,is_end"
    n_slots = len(last)
    rows = [line.split(",") for line in lines[1:]]
    # one row per slot and AAV, all of them the final episode's positions
    assert [[int(r[0]), int(r[1]), float(r[2]), float(r[3])] for r in rows] \
        == [[rec["slot"], v, x, y] for rec in last
            for v, (x, y) in enumerate(rec["aav_pos"])]
    assert [r[4:] for r in rows[:2]] == [["1", "0"], ["1", "0"]]
    assert [r[4:] for r in rows[-2:]] == [["0", "1"], ["0", "1"]]
    assert n_slots > 1 and all(r[4:] == ["0", "0"] for r in rows[2:-2])


def test_export_energy_breakdown_totals(tmp_path):
    played, _ = finished_episode()
    flat = [dict(rec, episode=0) for rec in played]
    path = tmp_path / "energy.csv"
    runio.export_energy_breakdown(recount(flat), path)
    lines = path.read_text().splitlines()
    fields = lines[0].split(",")
    values = dict(zip(fields, (float(x) for x in lines[1].split(","))))
    for key, total in energy_sums(played).items():
        assert values[key] == pytest.approx(total, rel=1e-12)


def test_manifest_written_sorted(tmp_path):
    path = tmp_path / "manifest.json"
    runio.write_manifest(path, {"b": 1, "a": {"z": 2, "y": 3}})
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1, "a": {"z": 2, "y": 3}}


def test_run_baseline_random_and_greedy():
    sc = toy_scenario()
    seen, records = [], []
    rows = run_baseline(sc, "random", seed=3, episodes=2,
                        on_slot=records.append, on_episode=seen.append)
    assert len(rows) == 2
    assert [r["episode"] for r in rows] == [0, 1]
    assert all(math.isfinite(r["reward"]) for r in rows)
    assert seen == rows
    assert [rec["episode"] for rec in records] \
        == [0] * sc.horizon + [1] * sc.horizon
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
