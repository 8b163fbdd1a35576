"""Self-test of the benchmark: python3 -m pytest perfbench

Runs every workload at a seconds-long size through the real entry point,
traced and untraced, and checks the tracer's self-time arithmetic.
"""

import json
import os

import pytest

import checks
import run
import tracer
from workloads import DEFAULT_SEED, WORKLOADS, tiny

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def test_benchmark_json_lists_the_workloads_and_traced_layers():
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    traced = {m["name"].rsplit(".", 1)[0] for m in BENCH["per_layer"]
              if m["name"].endswith(".calls")}
    assert traced == set(tracer.traced_names())
    assert len(tracer.traced_names()) == 27


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_passes_checks_and_prints_benchmark_names(
        name, trace, monkeypatch, capsys):
    small = tiny(WORKLOADS[name])
    monkeypatch.setitem(run.WORKLOADS, name, small)
    assert run.main(["--workload", name, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= run.MIN_REPEATS * small.episodes
    listed = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in metrics.values())
        return
    steps = small.episodes * small.horizon
    assert metrics["environment.SaginEnv.step.calls"] == steps
    assert metrics["cli.main.calls"] == 1
    assert metrics["scenario.load_scenario.calls"] == 1
    # names the program imported by value are patched too
    expected = {
        "train-default": {"nets.mlp.save_checkpoint.calls": 1,
                          "baselines.greedy_action.calls": 0},
        "rollout-default": {"baselines.greedy_action.calls": steps,
                            "nets.mlp.Mlp.forward.calls": 0},
        "eval-toy": {"nets.mlp.load_checkpoint.calls": 1,
                     "trainer.QagobTrainer.select_action.calls": steps},
    }[name]
    assert {k: metrics[k] for k in expected} == expected
    if name == "train-default":
        assert metrics["trainer.QagobTrainer.update.calls"] > 0
        assert 0.0 < metrics["diffusion.q_weights.positive_share"] <= 1.0
        assert metrics["nets.mlp.Mlp.forward.macs"] > \
            metrics["nets.mlp.Mlp.forward.rows"] > 0
    assert 0.0 < sum(v for k, v in metrics.items()
                     if k.endswith(".self_pct")) <= 100.0


def test_self_time_subtracts_the_union_of_child_spans():
    # root [0, 10]; a [1, 4] holds g [2, 3]; b [5, 9] and c [8, 9.5]
    # overlap; d runs past the root's end and is clipped to it
    spans = [[0, 0.0, 10.0, -1], [1, 1.0, 4.0, 0], [2, 2.0, 3.0, 1],
             [3, 5.0, 9.0, 0], [4, 8.0, 9.5, 0], [5, 9.8, 10.5, 0]]
    own = tracer.self_times(spans)
    assert own == pytest.approx([10 - 3 - 4.5 - 0.2, 2.0, 1.0, 4.0, 1.5, 0.7])
    names = ["root", "a", "g", "b", "c", "d"]
    counters = {"forward_rows": 0, "forward_macs": 0, "q_weight_rows": 0,
                "q_weight_positive": 0}
    trace = {"names": names, "spans": spans, "counters": counters}
    out = tracer.layer_metrics([trace, trace], wall_s=40.0)
    assert out["root.calls"] == 1
    assert out["root.ms_per_call"] == pytest.approx(10e3)
    assert out["a.self_pct"] == pytest.approx(100.0 * 4.0 / 40.0)
    assert sum(out[n + ".self_pct"] for n in names) == pytest.approx(57.5)


def test_reference_values_reproduce_and_checks_catch_tampering(tmp_path):
    with open(run.REFERENCE_PATH, encoding="utf-8") as fh:
        assert set(json.load(fh)["workloads"]) == \
            {w.name for w in WORKLOADS.values() if w.reference_episodes}
    for w in WORKLOADS.values():
        if not w.reference_episodes:
            continue
        work = tmp_path / w.name
        work.mkdir()
        cmd = run.Run(run.ROOT, str(work), w, DEFAULT_SEED).command(
            "reference", w.reference_episodes)
        reference = run.load_reference(w.name)
        assert checks.check_outputs(cmd.returncode, cmd.seed_dir,
                                    w.reference_episodes, w.horizon) \
            == (set(), [])
        assert checks.check_reference(cmd.seed_dir, reference) == (set(), [])

        reference["episodes"][1]["reward"] *= 1.0 + 10 * reference["rtol"]
        assert checks.check_reference(cmd.seed_dir, reference)[0] == {1}
        path = os.path.join(cmd.seed_dir, "metrics.csv")
        rows = checks.read_metrics(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(rows[0]) + "\n")
            for ep, row in enumerate(rows):
                if ep == 0:
                    row["f3"] = repr(float(row["f3"]) * 1.001)
                fh.write(",".join(row.values()) + "\n")
        failed, _ = checks.check_outputs(0, cmd.seed_dir,
                                         w.reference_episodes, w.horizon)
        assert failed == {0}
