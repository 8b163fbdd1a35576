"""The compare step of tools/parity.py, on synthetic output trees."""

import importlib.util
import json
import pathlib

import numpy as np

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "parity.py"
_spec = importlib.util.spec_from_file_location("parity", TOOL)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)

METRICS = "episode,reward,f1\n0,%r,0.25\n1,3.5,0.125\n"
MANIFEST = {"command": "train", "seeds": [0, 1], "episodes": 3,
            "overrides": {"hyper.n_denoise": "4"}}


def output_tree(root, reward=2766.365862734993, manifest=None, out="a"):
    """A run directory as the CLI writes one: manifest, metrics and a
    checkpoint; returns root."""
    seed_dir = root / "seed0"
    (seed_dir / "checkpoints").mkdir(parents=True)
    (seed_dir / "metrics.csv").write_text(METRICS % reward)
    np.savez(seed_dir / "checkpoints" / "final.npz",
             w=np.arange(12, dtype=np.float64).reshape(3, 4))
    (root / "manifest.json").write_text(json.dumps(dict(
        manifest or MANIFEST, out="/tmp/parity-x/%s/train" % out,
        scenario_path="/tmp/parity-x/%s/configs/toy.toml" % out),
        sort_keys=True, indent=2) + "\n")
    return root


def test_equal_trees_differ_only_in_the_manifest_paths(tmp_path):
    a = output_tree(tmp_path / "a", out="ref")
    b = output_tree(tmp_path / "b", out="work")
    assert (a / "manifest.json").read_bytes() \
        != (b / "manifest.json").read_bytes()
    assert parity.compare(a, b) == (3, [])


def test_one_ulp_in_a_metrics_value_differs(tmp_path):
    value = 2766.365862734993
    a = output_tree(tmp_path / "a", reward=value)
    b = output_tree(tmp_path / "b", reward=float(np.nextafter(value, 0.0)))
    count, differ = parity.compare(a, b)
    assert count == 3
    [(name, where)] = differ
    assert name == "seed0/metrics.csv"
    assert where.startswith("line 2, column 19: ")


def test_one_flipped_checkpoint_byte_differs(tmp_path):
    a = output_tree(tmp_path / "a")
    b = output_tree(tmp_path / "b")
    path = b / "seed0" / "checkpoints" / "final.npz"
    data = bytearray(path.read_bytes())
    offset = data.index(np.float64(7.0).tobytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))
    assert parity.compare(a, b) \
        == (3, [("seed0/checkpoints/final.npz", "byte %d" % (offset + 1))])


def test_a_manifest_with_other_seeds_differs(tmp_path):
    a = output_tree(tmp_path / "a")
    b = output_tree(tmp_path / "b", manifest=dict(MANIFEST, seeds=[0, 2]))
    [(name, where)] = parity.compare(a, b)[1]
    assert name == "manifest.json" and where.startswith("line ")


def test_a_file_on_one_side_only_differs(tmp_path):
    a = output_tree(tmp_path / "a")
    b = output_tree(tmp_path / "b")
    (a / "seed0" / "energy.csv").write_text("gd_tx\n1.0\n")
    (b / "seed0" / "metrics.csv").unlink()
    assert parity.compare(a, b)[1] == [
        ("seed0/energy.csv", "only in REF"),
        ("seed0/metrics.csv", "only in REF")]
