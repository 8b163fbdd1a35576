import numpy as np
import pytest

from saginsim.errors import ConfigInvalid, ConfigSyntax
from saginsim.scenario import (
    RadioParams, Scenario, SeededRng, load_scenario, parse_config_text,
    sample_gd_positions, scenario_from_doc, scenario_to_text, validate_scenario)


def test_defaults_validate():
    validate_scenario(Scenario())


def test_serialize_parse_round_trip():
    sc = Scenario()
    text = scenario_to_text(sc)
    assert scenario_from_doc(parse_config_text(text)) == sc


def test_round_trip_preserves_overridden_floats():
    sc = Scenario(max_speed=33.337, horizon=42)
    again = scenario_from_doc(parse_config_text(scenario_to_text(sc)))
    assert again.max_speed == 33.337
    assert again.horizon == 42


def test_parse_values_and_comments():
    doc = parse_config_text(
        "# top comment\n"
        "n_aavs = 7   # trailing\n"
        "slot_length = 0.5\n"
        "area_bounds = [-10.0, -10, 10.0, 10]\n"
        "[radio]\n"
        'rain_model = "weibull"\n')
    assert doc[""]["n_aavs"] == 7
    assert doc[""]["slot_length"] == 0.5
    assert doc["radio"]["rain_model"] == "weibull"


def test_nested_point_lists():
    doc = parse_config_text("initial_aav_positions = [[0.0, 1.0], [2.0, 3.0]]\n")
    assert doc[""]["initial_aav_positions"] == [[0.0, 1.0], [2.0, 3.0]]


@pytest.mark.parametrize("bad", [
    "seed 7\n",
    "seed = \n",
    "= 4\n",
    "[radio\n",
    "x = [1, 2\n",
    'name = "open\n',
    "seed = 1\nseed = 2\n",
])
def test_syntax_errors(bad):
    with pytest.raises(ConfigSyntax):
        parse_config_text(bad)


def test_unknown_key_rejected():
    with pytest.raises(ConfigInvalid) as err:
        scenario_from_doc({"": {"warp_drive": 1}})
    assert err.value.field == "warp_drive"


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigInvalid) as err:
        scenario_from_doc({"radio": {"volume": 11}})
    assert err.value.field == "radio.volume"


@pytest.mark.parametrize("field,kwargs", [
    ("n_aavs", dict(n_aavs=0)),
    ("horizon", dict(horizon=0)),
    ("max_speed", dict(max_speed=-1.0)),
    ("area_bounds", dict(area_bounds=(10.0, -10.0, -10.0, 10.0))),
    ("initial_aav_positions", dict(n_aavs=1, initial_aav_positions=((0.0, 0.0),
                                                                    (5.0, 5.0)))),
    ("sat_altitude", dict(sat_altitude=100.0)),
    ("sat_altitude", dict(sat_altitude=50.0)),
])
def test_validation_names_field(field, kwargs):
    with pytest.raises(ConfigInvalid) as err:
        validate_scenario(Scenario(**kwargs))
    assert err.value.field == field


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
