import dataclasses

import numpy as np
import pytest

from saginsim.cli import _build_hyper
from saginsim.errors import ConfigInvalid, ConfigSyntax
from saginsim.scenario import (
    EnergyParams, RadioParams, Scenario, SeededRng, load_scenario,
    sample_gd_positions, scenario_to_text, validate_scenario)
from saginsim.trainer import Hyper

# every group of run values and the prefix of its keys
GROUPS = [(Scenario, "")] + [
    (f.type, f.name + ".") for f in dataclasses.fields(Scenario)
    if dataclasses.is_dataclass(f.type)] + [(Hyper, "hyper.")]
NUMERIC_KEYS = [(cls, where + f.name) for cls, where in GROUPS
                for f in dataclasses.fields(cls) if f.type in (int, float)]


def load_text(tmp_path, text):
    """load_scenario of a config file holding text, str or bytes."""
    path = tmp_path / "sc.toml"
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    return load_scenario(path)


def test_defaults_validate():
    validate_scenario(Scenario())


def test_serialize_parse_round_trip(tmp_path):
    sc = Scenario()
    assert load_text(tmp_path, scenario_to_text(sc)) == sc


def test_round_trip_preserves_overridden_floats(tmp_path):
    sc = Scenario(max_speed=33.337, horizon=42)
    again = load_text(tmp_path, scenario_to_text(sc))
    assert again.max_speed == 33.337
    assert again.horizon == 42


def test_parse_values_and_comments(tmp_path):
    sc = load_text(tmp_path,
                   "# top comment\n"
                   "n_gds = 7   # trailing\n"
                   "slot_length = 0.5\n"
                   "area_bounds = [-1000.0, -1000, 1000.0, 1000]\n"
                   "[radio]\n"
                   'rain_model = "weibull"\n')
    assert sc.n_gds == 7
    assert sc.slot_length == 0.5
    assert sc.area_bounds == (-1000.0, -1000.0, 1000.0, 1000.0)
    assert sc.radio.rain_model == "weibull"


def test_nested_point_lists(tmp_path):
    sc = load_text(tmp_path, "n_aavs = 2\n"
                   "initial_aav_positions = [[0.0, 100.0], [200.0, 300.0]]\n")
    assert sc.initial_aav_positions == ((0.0, 100.0), (200.0, 300.0))


@pytest.mark.parametrize("bad", [
    "seed 7\n",
    "seed = \n",
    "= 4\n",
    "[radio\n",
    "x = [1, 2\n",
    'name = "open\n',
    "seed = 1\nseed = 2\n",
    b"n_aavs = 2\n\xff\n",
])
def test_syntax_errors(tmp_path, bad):
    with pytest.raises(ConfigSyntax) as err:
        load_text(tmp_path, bad)
    assert str(tmp_path / "sc.toml") in str(err.value)


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigInvalid) as err:
        load_text(tmp_path, "warp_drive = 1\n")
    assert err.value.field == "warp_drive"


def test_unknown_section_key_rejected(tmp_path):
    with pytest.raises(ConfigInvalid) as err:
        load_text(tmp_path, "[radio]\nvolume = 11\n")
    assert err.value.field == "radio.volume"


# a group is set by its table alone, in a file or by an override, a
# dotted override sets a key of a table, never of a scalar, and a point
# list holds [x, y] pairs alone
@pytest.mark.parametrize("text,overrides,field", [
    ("radio = 5\n", {}, "radio"),
    ("", {"radio": "5"}, "radio"),
    ("[radio]\n", {"radio": '{rain_model = "weibull"}'}, "radio"),
    ("radio = 5\n", {"radio.rain_model": '"weibull"'}, "radio"),
    ("horizon = 5\n", {"horizon.x": "1"}, "horizon"),
    ("", {"initial_aav_positions": "[[1.0]]"}, "initial_aav_positions"),
], ids=["file", "override", "inline-table", "key-of-a-scalar-group",
        "key-of-a-scalar", "point-of-one-number"])
def test_no_key_replaces_a_table_or_a_scalar(tmp_path, text, overrides,
                                             field):
    path = tmp_path / "sc.toml"
    path.write_text(text)
    with pytest.raises(ConfigInvalid) as err:
        load_scenario(path, overrides)
    assert err.value.field == field


@pytest.mark.parametrize("field,kwargs", [
    ("n_aavs", dict(n_aavs=0)),
    ("horizon", dict(horizon=0)),
    ("max_speed", dict(max_speed=-1.0)),
    ("area_bounds", dict(area_bounds=(10.0, -10.0, -10.0, 10.0))),
    ("initial_aav_positions", dict(n_aavs=1, initial_aav_positions=((0.0, 0.0),
                                                                    (5.0, 5.0)))),
    ("sat_altitude", dict(sat_altitude=100.0)),
    ("sat_altitude", dict(sat_altitude=50.0)),
    # configs/toy.toml's area with its second AAV moved out of it
    ("initial_aav_positions", dict(
        n_aavs=2, area_bounds=(-500.0, -500.0, 500.0, 500.0),
        initial_aav_positions=((-250.0, -250.0), (900.0, 250.0)))),
    # values that would overflow, or underflow into a division by zero,
    # in the distances, the propulsion power or the noise power
    ("aav_altitude", dict(aav_altitude=1e200, sat_altitude=1e201)),
    ("max_speed", dict(max_speed=1e120)),
    ("energy.tip_speed", dict(energy=EnergyParams(tip_speed=1e200))),
    ("energy.tip_speed", dict(energy=EnergyParams(tip_speed=1e-200))),
    ("energy.rotor_velocity", dict(energy=EnergyParams(rotor_velocity=1e200))),
    ("energy.rotor_velocity",
     dict(energy=EnergyParams(rotor_velocity=1e-200))),
    ("radio.noise_psd", dict(radio=RadioParams(noise_psd=4000.0))),
    ("radio.noise_psd", dict(radio=RadioParams(noise_psd=-4000.0))),
])
def test_validation_names_field(field, kwargs):
    with pytest.raises(ConfigInvalid) as err:
        validate_scenario(Scenario(**kwargs))
    assert err.value.field == field


@pytest.mark.parametrize("cls,key", NUMERIC_KEYS,
                         ids=[key for _, key in NUMERIC_KEYS])
def test_every_numeric_field_has_one_range_rule(cls, key):
    name = key.rpartition(".")[2]
    rules = [names for names, _, _ in cls.RANGES if name in names.split()]
    assert len(rules) == 1, rules
    with pytest.raises(ConfigInvalid) as err:
        if cls is Hyper:
            _build_hyper({key: "nan"})
        else:
            load_scenario(overrides={key: "nan"})
    assert err.value.field == key


def test_initial_positions_respect_safe_distance():
    sc = Scenario(n_aavs=2, initial_aav_positions=((0.0, 0.0), (10.0, 0.0)),
                  safe_distance=50.0)
    with pytest.raises(ConfigInvalid):
        validate_scenario(sc)


def test_gd_positions_count_checked():
    sc = Scenario(gd_positions=tuple((0.0, 0.0) for _ in range(3)))
    with pytest.raises(ConfigInvalid) as err:
        validate_scenario(sc)
    assert err.value.field == "gd_positions"


def test_reward_mode_checked():
    from saginsim.scenario import RewardWeights
    with pytest.raises(ConfigInvalid):
        validate_scenario(Scenario(reward=RewardWeights(mode="both")))


def test_load_scenario_with_overrides(tmp_path):
    path = tmp_path / "sc.toml"
    path.write_text(scenario_to_text(Scenario()))
    sc = load_scenario(path, overrides={"workload.task_rate": "0.25",
                                        "horizon": "12"})
    assert sc.workload.task_rate == 0.25
    assert sc.horizon == 12


def test_seed_is_not_a_config_key(tmp_path):
    # the seed is a run argument (--seed), never part of a scenario
    assert "seed" not in scenario_to_text(Scenario())
    path = tmp_path / "sc.toml"
    path.write_text("seed = 0\n" + scenario_to_text(Scenario()))
    with pytest.raises(ConfigInvalid) as err:
        load_scenario(path)
    assert err.value.field == "seed"


def test_load_scenario_without_file_starts_from_defaults():
    assert load_scenario() == Scenario()
    sc = load_scenario(overrides={"horizon": "12", "radio.rain_model": '"weibull"'})
    assert sc == Scenario(horizon=12, radio=RadioParams(rain_model="weibull"))


@pytest.mark.parametrize("raw", ["1.", ".5", "01", "twelve", "12\nseed = 9"])
def test_override_must_be_one_toml_value(raw):
    with pytest.raises(ConfigSyntax):
        load_scenario(overrides={"horizon": raw})


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ConfigSyntax):
        load_scenario(tmp_path / "nope.toml")


def test_seeded_rng_streams_independent_and_reproducible():
    a, b = SeededRng(5), SeededRng(5)
    assert a.stream("workload").random(4).tolist() \
        == b.stream("workload").random(4).tolist()
    # consuming one stream must not disturb another
    c = SeededRng(5)
    c.stream("channel").random(100)
    assert c.stream("workload").random(4).tolist() \
        == SeededRng(5).stream("workload").random(4).tolist()
    assert a.stream("workload").random(4).tolist() \
        != a.stream("channel").random(4).tolist()


def test_seeded_rng_unknown_stream():
    with pytest.raises(KeyError):
        SeededRng(0).stream("lottery")


def test_sample_gd_positions_inside_area():
    sc = Scenario()
    pos = sample_gd_positions(sc, SeededRng(1).stream("init"))
    assert pos.shape == (sc.n_gds, 2)
    x_min, y_min, x_max, y_max = sc.area_bounds
    assert np.all(pos[:, 0] >= x_min) and np.all(pos[:, 0] <= x_max)
    assert np.all(pos[:, 1] >= y_min) and np.all(pos[:, 1] <= y_max)
