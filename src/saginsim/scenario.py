"""Scenario parameters, config files, and seeded RNG streams.

A scenario bundles every physical and algorithmic constant of one network
instance: area geometry, fleet sizes, radio/compute/workload/energy
parameters, and reward weights.  Scenarios are plain frozen dataclasses so
they can be compared and serialized losslessly.

Configs are TOML.  Top-level keys set scenario fields; the tables
[radio], [compute], [workload], [energy] and [reward] set the fields of
the matching parameter group.  Every key has a default, and unknown keys
are rejected.
"""

import dataclasses
import math
import tomllib

import numpy as np

from .errors import ConfigInvalid, ConfigSyntax


@dataclasses.dataclass(frozen=True)
class RadioParams:
    carrier_freq: float = 2.0e9      # Hz
    noise_psd: float = -174.0        # dBm/Hz
    los_n1: float = 9.61             # environment constant of the LoS logistic
    los_n2: float = 0.16
    excess_los: float = 0.1          # dB, mean extra loss on LoS links
    excess_nlos: float = 21.0        # dB
    power_gd: float = 0.3            # W, GD transmit power
    power_aav: float = 0.5           # W
    power_sat: float = 20.0          # W
    bandwidth_aav: float = 5.0e6     # Hz, per-AAV budget split over served GDs
    bandwidth_sat: float = 1.0e6     # Hz, satellite budget split over AAVs
    antenna_gain_aav: float = 1.0e5  # linear
    antenna_gain_sat: float = 1.0e5  # linear
    rain_atten: float = 6.0          # dB applied to the satellite link
    rain_model: str = "fixed"        # "fixed" or "weibull"
    rate_floor: float = 1.0e6        # bit/s, minimum uplink rate to serve a task


@dataclasses.dataclass(frozen=True)
class ComputeParams:
    cycles_per_bit: float = 1000.0       # CPU cycles per input bit
    freq_aav: float = 8.0e9              # Hz, AAV edge server
    freq_sat: float = 2.0e10             # Hz, satellite server
    energy_per_cycle: float = 8.2e-9     # J/cycle on the AAV server


@dataclasses.dataclass(frozen=True)
class WorkloadParams:
    task_rate: float = 0.1                # 1/s, exponential task arrival rate
    mec_poisson_rate: float = 6.0         # task size ~ Poisson(rate) * 1e5 bits
    dc_poisson_rate: float = 10.0         # stored data step ~ Poisson(rate) * 1e4 bits
    deadline_range: tuple = (10.0, 30.0)  # s, uniform task deadline
    tolerance_range: tuple = (0.75, 1.75) # s, uniform completion tolerance
    result_ratio_range: tuple = (0.1, 0.3)  # result bits / input bits


@dataclasses.dataclass(frozen=True)
class EnergyParams:
    # rotary-wing propulsion constants
    blade_power: float = 79.86        # W, blade profile power at hover
    induced_power: float = 88.63      # W, induced power at hover
    tip_speed: float = 120.0          # m/s, rotor blade tip speed
    rotor_velocity: float = 4.03      # m/s, mean rotor induced velocity at hover
    drag_ratio: float = 0.6           # fuselage drag ratio
    air_density: float = 1.225        # kg/m^3
    rotor_solidity: float = 0.05
    rotor_area: float = 0.503         # m^2
    sat_energy_per_cycle: float = 8.2e-9  # J/cycle on the satellite server


@dataclasses.dataclass(frozen=True)
class RewardWeights:
    dc_weight: float = 1.0e-5     # scales delivered bits
    energy_weight: float = 1.0e-3 # scales joules spent by AAVs
    penalty: float = 5.0          # per boundary/collision event
    mode: str = "joint"           # "joint" | "mec_only" | "dc_only"


@dataclasses.dataclass(frozen=True)
class Scenario:
    n_aavs: int = 4
    n_gds: int = 30
    aav_altitude: float = 100.0       # m
    sat_altitude: float = 8.0e5       # m
    max_served: int = 4               # GDs an AAV may serve per slot
    safe_distance: float = 50.0       # m, minimum AAV separation
    max_speed: float = 50.0           # m/s
    slot_length: float = 1.0          # s
    horizon: int = 300                # slots per episode
    area_bounds: tuple = (-1500.0, -1500.0, 1500.0, 1500.0)  # x_min,y_min,x_max,y_max
    initial_aav_positions: tuple = (
        (-750.0, -750.0), (-750.0, 750.0), (750.0, -750.0), (750.0, 750.0))
    gd_positions: tuple = None        # sampled uniformly when None
    radio: RadioParams = dataclasses.field(default_factory=RadioParams)
    compute: ComputeParams = dataclasses.field(default_factory=ComputeParams)
    workload: WorkloadParams = dataclasses.field(default_factory=WorkloadParams)
    energy: EnergyParams = dataclasses.field(default_factory=EnergyParams)
    reward: RewardWeights = dataclasses.field(default_factory=RewardWeights)

    def max_step(self):
        """Largest displacement an AAV can command in one slot, meters."""
        return self.max_speed * self.slot_length


_SECTIONS = {
    "radio": RadioParams,
    "compute": ComputeParams,
    "workload": WorkloadParams,
    "energy": EnergyParams,
    "reward": RewardWeights,
}

_TOP_FIELDS = {f.name: f for f in dataclasses.fields(Scenario)
               if f.name not in _SECTIONS}


def parse_config_text(text):
    """Parse a TOML config document into {section: {key: value}}.

    Top-level scalars land under the "" section and tables become
    sections.  Raises ConfigSyntax on malformed TOML, repeated keys
    included.
    """
    try:
        parsed = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigSyntax(str(exc)) from None
    doc = {"": {}}
    for key, value in parsed.items():
        if isinstance(value, dict):
            doc[key] = value
        else:
            doc[""][key] = value
    return doc


def _parse_override(dotted, raw):
    """The TOML value of one --override; it may not span lines, so it
    cannot smuggle in a second key."""
    raw = str(raw)
    if "\n" in raw or "\r" in raw:
        raise ConfigSyntax("override %s: value must fit on one line" % dotted)
    try:
        return tomllib.loads("v = " + raw)["v"]
    except tomllib.TOMLDecodeError as exc:
        raise ConfigSyntax("override %s=%s: %s" % (dotted, raw, exc)) from None


def _format_value(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return '"%s"' % value
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    raise TypeError("cannot serialize %r" % (value,))


def scenario_to_text(scenario):
    """Serialize a scenario as a TOML config.  parse round-trips."""
    lines = ["# scenario"]
    for name in _TOP_FIELDS:
        value = getattr(scenario, name)
        if value is None:
            continue
        lines.append("%s = %s" % (name, _format_value(value)))
    for sec, cls in _SECTIONS.items():
        lines.append("")
        lines.append("[%s]" % sec)
        sub = getattr(scenario, sec)
        for f in dataclasses.fields(cls):
            lines.append("%s = %s" % (f.name, _format_value(getattr(sub, f.name))))
    return "\n".join(lines) + "\n"


def _coerce(field, value, where):
    """Check a parsed value against the dataclass field type."""
    name = where + field.name
    typ = field.type if isinstance(field.type, type) else None
    default = field.default
    if field.name in ("gd_positions", "initial_aav_positions"):
        if not isinstance(value, (list, tuple)):
            raise ConfigInvalid(name, "expected a list of [x, y] points")
        pts = []
        for pt in value:
            if (not isinstance(pt, (list, tuple)) or len(pt) != 2
                    or not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                               for c in pt)):
                raise ConfigInvalid(name, "expected [x, y] numeric points")
            pts.append((float(pt[0]), float(pt[1])))
        return tuple(pts)
    if field.name in ("deadline_range", "tolerance_range", "result_ratio_range",
                      "area_bounds"):
        want = 4 if field.name == "area_bounds" else 2
        if (not isinstance(value, (list, tuple)) or len(value) != want
                or not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                           for c in value)):
            raise ConfigInvalid(name, "expected a list of %d numbers" % want)
        return tuple(float(c) for c in value)
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigInvalid(name, "expected an integer")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigInvalid(name, "expected a number")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigInvalid(name, "expected a string")
        return value
    raise ConfigInvalid(name, "unsupported field")


def scenario_from_doc(doc):
    """Build a Scenario from a parsed {section: {key: value}} document."""
    top_kwargs = {}
    for key, value in doc.get("", {}).items():
        if key not in _TOP_FIELDS:
            raise ConfigInvalid(key, "unknown key")
        top_kwargs[key] = _coerce(_TOP_FIELDS[key], value, "")
    for sec, cls in _SECTIONS.items():
        if sec not in doc:
            continue
        fields = {f.name: f for f in dataclasses.fields(cls)}
        sub_kwargs = {}
        for key, value in doc[sec].items():
            if key not in fields:
                raise ConfigInvalid(sec + "." + key, "unknown key")
            sub_kwargs[key] = _coerce(fields[key], value, sec + ".")
        top_kwargs[sec] = cls(**sub_kwargs)
    unknown = set(doc) - set(_SECTIONS) - {""}
    if unknown:
        raise ConfigInvalid(sorted(unknown)[0], "unknown section")
    scenario = Scenario(**top_kwargs)
    validate_scenario(scenario)
    return scenario


def validate_scenario(sc):
    """Raise ConfigInvalid naming the first field that fails validation."""
    def positive(name, value):
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
            raise ConfigInvalid(name, "must be positive and finite")

    if sc.n_aavs < 1:
        raise ConfigInvalid("n_aavs", "need at least one AAV")
    if sc.n_gds < 1:
        raise ConfigInvalid("n_gds", "need at least one GD")
    if sc.max_served < 1:
        raise ConfigInvalid("max_served", "need capacity of at least one GD")
    positive("aav_altitude", sc.aav_altitude)
    positive("sat_altitude", sc.sat_altitude)
    if sc.sat_altitude <= sc.aav_altitude:
        raise ConfigInvalid("sat_altitude", "must be above aav_altitude")
    positive("safe_distance", sc.safe_distance)
    positive("max_speed", sc.max_speed)
    positive("slot_length", sc.slot_length)
    if sc.horizon < 1:
        raise ConfigInvalid("horizon", "need at least one slot")
    x_min, y_min, x_max, y_max = sc.area_bounds
    if not (x_min < x_max and y_min < y_max):
        raise ConfigInvalid("area_bounds", "min bound must be below max bound")
    if len(sc.initial_aav_positions) != sc.n_aavs:
        raise ConfigInvalid("initial_aav_positions",
                            "expected %d points" % sc.n_aavs)
    for i, (x, y) in enumerate(sc.initial_aav_positions):
        if not (x_min <= x <= x_max and y_min <= y <= y_max):
            raise ConfigInvalid("initial_aav_positions",
                                "point %d outside the area" % i)
    pos = np.asarray(sc.initial_aav_positions, dtype=float)
    for i in range(sc.n_aavs):
        for j in range(i + 1, sc.n_aavs):
            if np.linalg.norm(pos[i] - pos[j]) < sc.safe_distance:
                raise ConfigInvalid("initial_aav_positions",
                                    "points %d and %d closer than the safe "
                                    "distance" % (i, j))
    if sc.gd_positions is not None:
        if len(sc.gd_positions) != sc.n_gds:
            raise ConfigInvalid("gd_positions", "expected %d points" % sc.n_gds)
        for i, (x, y) in enumerate(sc.gd_positions):
            if not (x_min <= x <= x_max and y_min <= y <= y_max):
                raise ConfigInvalid("gd_positions",
                                    "point %d outside the area" % i)

    r = sc.radio
    for name in ("carrier_freq", "los_n1", "los_n2", "power_gd", "power_aav",
                 "power_sat", "bandwidth_aav", "bandwidth_sat",
                 "antenna_gain_aav", "antenna_gain_sat", "rate_floor"):
        positive("radio." + name, getattr(r, name))
    if not math.isfinite(r.noise_psd):
        raise ConfigInvalid("radio.noise_psd", "must be finite")
    for name in ("excess_los", "excess_nlos", "rain_atten"):
        value = getattr(r, name)
        if not (math.isfinite(value) and value >= 0):
            raise ConfigInvalid("radio." + name, "must be nonnegative")
    if r.rain_model not in ("fixed", "weibull"):
        raise ConfigInvalid("radio.rain_model", "expected fixed or weibull")

    c = sc.compute
    for name in ("cycles_per_bit", "freq_aav", "freq_sat", "energy_per_cycle"):
        positive("compute." + name, getattr(c, name))

    w = sc.workload
    for name in ("task_rate", "mec_poisson_rate", "dc_poisson_rate"):
        positive("workload." + name, getattr(w, name))
    for name in ("deadline_range", "tolerance_range", "result_ratio_range"):
        lo, hi = getattr(w, name)
        if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo <= hi):
            raise ConfigInvalid("workload." + name,
                                "expected 0 < low <= high")
    if w.result_ratio_range[1] > 1.0:
        raise ConfigInvalid("workload.result_ratio_range",
                            "result cannot exceed the task size")

    e = sc.energy
    for name in ("blade_power", "induced_power", "tip_speed", "rotor_velocity",
                 "drag_ratio", "air_density", "rotor_solidity", "rotor_area",
                 "sat_energy_per_cycle"):
        positive("energy." + name, getattr(e, name))

    rw = sc.reward
    for name in ("dc_weight", "energy_weight", "penalty"):
        value = getattr(rw, name)
        if not (math.isfinite(value) and value >= 0):
            raise ConfigInvalid("reward." + name, "must be nonnegative")
    if rw.mode not in ("joint", "mec_only", "dc_only"):
        raise ConfigInvalid("reward.mode", "expected joint, mec_only or dc_only")


def load_scenario(path=None, overrides=None):
    """Load and validate a scenario; the defaults when path is None.

    overrides: optional {dotted.key: raw TOML value} applied on top of the
    file before validation.
    """
    doc = {"": {}}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigSyntax("cannot read %s: %s" % (path, exc))
        doc = parse_config_text(text)
    for dotted, raw in (overrides or {}).items():
        sec, _, key = dotted.rpartition(".")
        doc.setdefault(sec, {})[key] = _parse_override(dotted, raw)
    return scenario_from_doc(doc)


def sample_gd_positions(scenario, rng):
    """Uniform GD drop over the service area, (n_gds, 2) float array."""
    x_min, y_min, x_max, y_max = scenario.area_bounds
    xs = rng.uniform(x_min, x_max, size=scenario.n_gds)
    ys = rng.uniform(y_min, y_max, size=scenario.n_gds)
    return np.stack([xs, ys], axis=1)


# independent random streams; every consumer names the stream it draws from
_STREAMS = ("init", "workload", "channel", "policy-noise", "net-init", "trainer")


class SeededRng:
    """Named, mutually independent generators derived from one root seed."""

    def __init__(self, seed):
        self.seed = int(seed)
        self._gens = {}

    def stream(self, name):
        if name not in _STREAMS:
            raise KeyError("unknown stream %r (have %s)" % (name, ", ".join(_STREAMS)))
        if name not in self._gens:
            idx = _STREAMS.index(name)
            seq = np.random.SeedSequence(self.seed, spawn_key=(idx,))
            self._gens[name] = np.random.default_rng(seq)
        return self._gens[name]
