"""The benchmark's workloads: scenarios, sizes and the commands they run.

Scenario files are written from the definitions below, not read from the
repository's configs/, so that editing a config cannot change a workload
without a change to the benchmark.  The GD positions are fixed (they are
the draws the configs give at seed 0): the workload seed then varies task
arrivals, channel draws, policy noise and network initialisation, but not
the geometry, which would move the output size between seeds by about 8%.
The trainer's paper hyperparameters are pinned as overrides: a change to
the `Hyper` defaults does not silently resize `train-default` or
`eval-toy`.
"""

import dataclasses

# Seed of the reference run whose per-episode values are in reference.json.
DEFAULT_SEED = 0

# configs/default.toml: 4 AAVs serving 30 GDs over a 3 km square, 300
# one-second slots.
DEFAULT_SCENARIO = {
    "": {
        "n_aavs": 4, "n_gds": 30, "aav_altitude": 100.0,
        "sat_altitude": 800000.0, "max_served": 4, "safe_distance": 50.0,
        "max_speed": 50.0, "slot_length": 1.0, "horizon": 300,
        "area_bounds": [-1500.0, -1500.0, 1500.0, 1500.0],
        "initial_aav_positions": [[-750.0, -750.0], [-750.0, 750.0],
                                  [750.0, -750.0], [750.0, 750.0]],
        "gd_positions": [
            [1328.8, 880.0], [-551.0, -323.5], [667.0, -263.4],
            [-1123.2, -236.8], [-231.1, -139.7], [444.1, -496.4],
            [-1330.0, -1396.6], [956.8, 300.9], [-693.9, 179.1],
            [537.7, -994.0], [1064.0, 1262.2], [-1230.1, 779.4],
            [1232.6, 1325.5], [1263.9, -1245.9], [-1150.1, 948.7],
            [26.2, -879.2], [505.1, -1450.8], [-1479.0, -755.1],
            [-169.3, 1313.0], [-100.6, 373.7], [-899.5, -959.0],
            [434.1, -226.4], [-75.4, -330.5], [-88.2, 689.7],
            [-834.1, 1177.0], [1116.3, 367.1], [789.3, -568.3],
            [-413.3, 457.5], [456.1, 742.0], [433.8, 953.2]],
    },
    "radio": {
        "carrier_freq": 2.0e9, "noise_psd": -174.0, "los_n1": 9.61,
        "los_n2": 0.16, "excess_los": 0.1, "excess_nlos": 21.0,
        "power_gd": 0.3, "power_aav": 0.5, "power_sat": 20.0,
        "bandwidth_aav": 5.0e6, "bandwidth_sat": 1.0e6,
        "antenna_gain_aav": 1.0e5, "antenna_gain_sat": 1.0e5,
        "rain_atten": 6.0, "rain_model": "fixed", "rate_floor": 1.0e6,
    },
    "compute": {
        "cycles_per_bit": 1000.0, "freq_aav": 8.0e9, "freq_sat": 2.0e10,
        "energy_per_cycle": 8.2e-9,
    },
    "workload": {
        "task_rate": 0.1, "mec_poisson_rate": 6.0, "dc_poisson_rate": 10.0,
        "deadline_range": [10.0, 30.0], "tolerance_range": [0.75, 1.75],
        "result_ratio_range": [0.1, 0.3],
    },
    "energy": {
        "blade_power": 79.86, "induced_power": 88.63, "tip_speed": 120.0,
        "rotor_velocity": 4.03, "drag_ratio": 0.6, "air_density": 1.225,
        "rotor_solidity": 0.05, "rotor_area": 0.503,
        "sat_energy_per_cycle": 8.2e-9,
    },
    "reward": {
        "dc_weight": 1.0e-5, "energy_weight": 1.0e-3, "penalty": 5.0,
        "mode": "joint",
    },
}

# configs/toy.toml: 2 AAVs, 8 GDs, 1 km square, 60 slots; every other key
# at its default.
TOY_SCENARIO = {
    "": {
        "n_aavs": 2, "n_gds": 8, "aav_altitude": 100.0,
        "sat_altitude": 800000.0, "max_served": 2, "safe_distance": 50.0,
        "max_speed": 50.0, "slot_length": 1.0, "horizon": 60,
        "area_bounds": [-500.0, -500.0, 500.0, 500.0],
        "initial_aav_positions": [[-250.0, -250.0], [250.0, 250.0]],
        "gd_positions": [
            [442.9, -231.3], [-183.7, 179.2], [222.3, 354.7],
            [-374.4, -410.0], [-77.0, 410.9], [148.0, 421.3],
            [-443.3, -383.4], [318.9, 8.7]],
    },
    "radio": {"bandwidth_aav": 5.0e5, "rate_floor": 2.0e5},
    "workload": {"mec_poisson_rate": 2.0, "dc_poisson_rate": 200.0},
}

# The paper's trainer sizes (the `Hyper` defaults when this was written).
PAPER_HYPER = {
    "actor_widths": "256,256", "critic_widths": "256,128",
    "batch_size": "256", "n_denoise": "10", "behavior_samples": "4",
    "target_samples": "2", "n_value_samples": "8",
    "n_policy_samples": "64", "n_uniform_samples": "16",
}


def _format(value):
    if isinstance(value, str):
        return '"%s"' % value
    if isinstance(value, list):
        return "[" + ", ".join(_format(v) for v in value) + "]"
    return repr(value)


def scenario_text(scenario):
    """Render a scenario definition in the simulator's config grammar."""
    lines = []
    for section, values in scenario.items():
        if section:
            lines.append("\n[%s]" % section)
        lines.extend("%s = %s" % (k, _format(v)) for k, v in values.items())
    return "\n".join(lines) + "\n"


def _overrides(hyper):
    args = []
    for key, value in hyper.items():
        args += ["--override", "hyper.%s=%s" % (key, value)]
    return tuple(args)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    verb: str                  # saginsim verb: train, baseline or eval
    scenario: dict
    episodes: int              # per timed command
    args: tuple = ()           # further CLI arguments
    reference_episodes: int = 0  # >0: check against reference.json
    fixture_args: tuple = ()   # eval only: arguments of the checkpoint build

    @property
    def horizon(self):
        return self.scenario[""]["horizon"]

    def argv(self, config, seed, episodes, out, checkpoint=None):
        argv = [self.verb, "--config", config, "--seed", str(seed),
                "--episodes", str(episodes), "--out", out, "--quiet"]
        argv += list(self.args)
        if self.verb == "eval":
            argv += ["--checkpoint", checkpoint]
        return argv

    def fixture_argv(self, config, out):
        """The untimed `train` that builds the checkpoint `eval` loads."""
        return ["train", "--config", config, "--seed", str(DEFAULT_SEED),
                "--episodes", "1", "--out", out, "--quiet"] \
            + list(self.fixture_args)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-default",
        why="paper-scale training: the diffusion, nets and trainer layers do "
            "nearly all the work and the environment little",
        verb="train", scenario=DEFAULT_SCENARIO, episodes=1,
        # updates start at step 257, the first step with a full batch
        args=_overrides(dict(PAPER_HYPER, warmup_steps="256"))),
    Workload(
        name="rollout-default",
        why="greedy baseline, no networks: isolates environment, channel, "
            "service, association and actions; slot records held in RAM",
        verb="baseline", scenario=DEFAULT_SCENARIO, episodes=4,
        args=("--algo", "greedy"), reference_episodes=2),
    Workload(
        name="eval-toy",
        why="checkpoint eval at toy scale: diffusion and nets at batch 4, "
            "where per-call overhead sets the cost; loads a checkpoint",
        verb="eval", scenario=TOY_SCENARIO, episodes=15,
        args=_overrides({"behavior_samples": PAPER_HYPER["behavior_samples"]}),
        reference_episodes=5,
        # default warmup: one 60-slot episode makes no update, so the
        # checkpoint holds the initial weights of the paper-size networks
        fixture_args=_overrides(PAPER_HYPER)),
)}


def tiny(workload):
    """A seconds-long variant of a workload for the benchmark's self-test."""
    scenario = dict(workload.scenario)
    scenario[""] = dict(scenario[""], horizon=12)
    small = {"actor_widths": "16,16", "critic_widths": "16,16",
             "batch_size": "8", "warmup_steps": "8", "n_policy_samples": "8",
             "n_uniform_samples": "4"}
    args = workload.args
    if workload.verb == "train":
        args = _overrides(dict(PAPER_HYPER, **small))
    return dataclasses.replace(
        workload, scenario=scenario, episodes=2, args=args,
        reference_episodes=0,
        fixture_args=_overrides(dict(PAPER_HYPER, **small)))
