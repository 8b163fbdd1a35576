"""Scenario parameters, config files, and seeded RNG streams.

A scenario bundles every physical and algorithmic constant of one network
instance: area geometry, fleet sizes, radio/compute/workload/energy
parameters, and reward weights.  Scenarios are plain frozen dataclasses so
they can be compared and serialized losslessly.

Configs are TOML.  Top-level keys set scenario fields; the tables
[radio], [compute], [workload], [energy] and [reward] set the fields of
the matching parameter group.  Every key has a default, and unknown keys
are rejected.  build_group reads the values of one group, the trainer's
Hyper included, and check_ranges holds a group to its RANGES.
"""

import dataclasses
import math
import tomllib

import numpy as np

from .errors import ConfigInvalid, ConfigSyntax

# (test, what) of the range rules that recur; nan fails every test
POSITIVE = (lambda v: 0 < v < math.inf, "a finite value > 0")
NONNEGATIVE = (lambda v: 0 <= v < math.inf, "a finite value >= 0")
AT_LEAST_ONE = (lambda v: 1 <= v < math.inf, "a finite value >= 1")


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

    RANGES = (
        ("carrier_freq los_n1 los_n2 power_gd power_aav power_sat "
         "antenna_gain_aav antenna_gain_sat rate_floor", *POSITIVE),
        # no bandwidth share, nor its noise power, underflows to 0
        ("bandwidth_aav bandwidth_sat", *AT_LEAST_ONE),
        # 10 ** (noise_psd / 10) stays a finite, nonzero float
        ("noise_psd", lambda v: -3000 <= v <= 3000, "a value in [-3000, 3000]"),
        ("excess_los excess_nlos rain_atten", *NONNEGATIVE),
        ("rain_model", lambda v: v in ("fixed", "weibull"),
         "fixed or weibull"))


@dataclasses.dataclass(frozen=True)
class ComputeParams:
    cycles_per_bit: float = 1000.0       # CPU cycles per input bit
    freq_aav: float = 8.0e9              # Hz, AAV edge server
    freq_sat: float = 2.0e10             # Hz, satellite server
    energy_per_cycle: float = 8.2e-9     # J/cycle on the AAV server

    RANGES = (("cycles_per_bit freq_aav freq_sat energy_per_cycle",
               *POSITIVE),)


@dataclasses.dataclass(frozen=True)
class WorkloadParams:
    task_rate: float = 0.1                # 1/s, exponential task arrival rate
    mec_poisson_rate: float = 6.0         # task size ~ Poisson(rate) * 1e5 bits
    dc_poisson_rate: float = 10.0         # stored data step ~ Poisson(rate) * 1e4 bits
    deadline_range: tuple = (10.0, 30.0)  # s, uniform task deadline
    tolerance_range: tuple = (0.75, 1.75) # s, uniform completion tolerance
    result_ratio_range: tuple = (0.1, 0.3)  # result bits / input bits

    RANGES = (
        ("task_rate mec_poisson_rate dc_poisson_rate", *POSITIVE),
        ("deadline_range tolerance_range",
         lambda r: 0 < r[0] <= r[1] < math.inf, "finite 0 < low <= high"),
        # a result cannot exceed its task
        ("result_ratio_range", lambda r: 0 < r[0] <= r[1] <= 1,
         "0 < low <= high <= 1"))


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

    RANGES = (("blade_power induced_power drag_ratio air_density "
               "rotor_solidity rotor_area sat_energy_per_cycle", *POSITIVE),
              # squared in the propulsion power, so neither over- nor
              # underflows there
              ("tip_speed rotor_velocity", lambda v: 1e-150 < v < 1e150,
               "a value in (1e-150, 1e150)"))


@dataclasses.dataclass(frozen=True)
class RewardWeights:
    dc_weight: float = 1.0e-5     # scales delivered bits
    energy_weight: float = 1.0e-3 # scales joules spent by AAVs
    penalty: float = 5.0          # per boundary/collision event
    mode: str = "joint"           # "joint" | "mec_only" | "dc_only"

    RANGES = (
        ("dc_weight energy_weight penalty", *NONNEGATIVE),
        ("mode", lambda v: v in ("joint", "mec_only", "dc_only"),
         "joint, mec_only or dc_only"))


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

    RANGES = (
        ("n_aavs n_gds max_served horizon", *AT_LEAST_ONE),
        ("sat_altitude safe_distance slot_length", *POSITIVE),
        # squared in the GD-AAV distances, so neither over- nor underflows
        ("aav_altitude", lambda v: 1e-150 < v < 1e150,
         "a value in (1e-150, 1e150)"),
        # cubed in the propulsion power
        ("max_speed", lambda v: 0 < v < 1e100, "a value in (0, 1e100)"),
        # finite spans keep every point of the area finite
        ("area_bounds", lambda b: 0 < b[2] - b[0] < math.inf
         and 0 < b[3] - b[1] < math.inf,
         "x_min < x_max and y_min < y_max with finite spans"))

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


def parse_override(dotted, raw):
    """The TOML value of one --override of a config or hyper. key; it may
    not span lines, so it cannot smuggle in a second key."""
    raw = str(raw)
    if "\n" in raw or "\r" in raw:
        raise ConfigSyntax("%s: value must fit on one line" % dotted)
    try:
        return tomllib.loads("v = " + raw)["v"]
    except tomllib.TOMLDecodeError as exc:
        raise ConfigSyntax("%s: %s is not one TOML value (%s)"
                           % (dotted, raw, exc)) from None


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
    """Serialize a scenario as a TOML config; load_scenario reads it
    back equal."""
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


def is_number(value):
    """True for an int or a float; a bool is neither."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_point_list(value):
    """True for a list of [x, y] number pairs."""
    return isinstance(value, (list, tuple)) and all(
        isinstance(point, (list, tuple)) and len(point) == 2
        and all(map(is_number, point)) for point in value)


# what a value of each scalar field type must be: (description, test)
_KINDS = {int: ("an integer", lambda v: is_number(v) and isinstance(v, int)),
          float: ("a number", is_number),
          str: ("a string", lambda v: isinstance(v, str))}


def _coerce(field, value, where):
    """A parsed value as the type of its dataclass field; raises
    ConfigInvalid naming where + field.name if it has another type.

    A tuple field of floats (a range, area_bounds) takes a list of as many
    numbers as its default, one of ints (network widths) a list of any
    length; a section field takes a table of its group's keys.
    """
    name = where + field.name
    if field.name in _SECTIONS:
        if not isinstance(value, dict):
            raise ConfigInvalid(name, "expected a table")
        return build_group(_SECTIONS[field.name], value, name + ".")
    if field.name in ("gd_positions", "initial_aav_positions"):
        if not is_point_list(value):
            raise ConfigInvalid(name, "expected a list of [x, y] number pairs")
        return tuple((float(x), float(y)) for x, y in value)
    default = field.default
    if isinstance(default, tuple):
        kind = type(default[0])
        if not (isinstance(value, (list, tuple))
                and all(map(_KINDS[kind][1], value))
                and (kind is int or len(value) == len(default))):
            raise ConfigInvalid(name, "expected a list of " + (
                "integers" if kind is int else "%d numbers" % len(default)))
        return tuple(map(kind, value))
    what, ok = _KINDS[type(default)]
    if not ok(value):
        raise ConfigInvalid(name, "expected " + what)
    return type(default)(value)


def build_group(cls, values, where=""):
    """cls(**values) with each value typed by _coerce; raises
    ConfigInvalid naming where + the first key that is not a field of
    cls or whose value has another type."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in values.items():
        if key not in fields:
            raise ConfigInvalid(where + key, "unknown key")
        kwargs[key] = _coerce(fields[key], value, where)
    return cls(**kwargs)


def check_ranges(obj, where=""):
    """Raise ConfigInvalid naming where + the first field of obj that
    fails its rule in type(obj).RANGES, whose (names, test, what) rows
    say that test(value) holds for each field of names."""
    for names, test, what in type(obj).RANGES:
        for name in names.split():
            if not test(getattr(obj, name)):
                raise ConfigInvalid(where + name, "expected " + what)


def validate_scenario(sc):
    """Raise ConfigInvalid naming the first field that fails its range
    rule, or a rule that compares it with another field."""
    check_ranges(sc)
    for sec in _SECTIONS:
        check_ranges(getattr(sc, sec), sec + ".")
    if sc.sat_altitude <= sc.aav_altitude:
        raise ConfigInvalid("sat_altitude", "must be above aav_altitude")
    x_min, y_min, x_max, y_max = sc.area_bounds
    for name, count in (("initial_aav_positions", sc.n_aavs),
                        ("gd_positions", sc.n_gds)):
        points = getattr(sc, name)
        if points is not None and len(points) != count:
            raise ConfigInvalid(name, "expected %d points" % count)
        for i, (x, y) in enumerate(points or ()):
            if not (x_min <= x <= x_max and y_min <= y <= y_max):
                raise ConfigInvalid(name, "point %d outside the area" % i)
    pos = np.asarray(sc.initial_aav_positions, dtype=float)
    for i in range(sc.n_aavs):
        for j in range(i + 1, sc.n_aavs):
            if np.linalg.norm(pos[i] - pos[j]) < sc.safe_distance:
                raise ConfigInvalid("initial_aav_positions",
                                    "points %d and %d closer than the safe "
                                    "distance" % (i, j))


def load_scenario(path=None, overrides=None):
    """Load and validate a scenario; the defaults when path is None.

    overrides: optional {dotted.key: raw TOML value} applied on top of the
    file before validation; sec.key sets key in table sec.  A group is set
    by its table alone, so that no key replaces it.
    """
    values = {}
    if path is not None:
        try:
            with open(path, "rb") as fh:
                values = tomllib.load(fh)
        except OSError as exc:
            raise ConfigSyntax("cannot read %s: %s" % (path, exc))
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
            raise ConfigSyntax("%s: %s" % (path, exc)) from None
    for dotted, raw in (overrides or {}).items():
        sec, _, key = dotted.rpartition(".")
        if not sec and key in _SECTIONS:
            raise ConfigInvalid(key, "override its keys, not the table")
        table = values.setdefault(sec, {}) if sec else values
        if not isinstance(table, dict):
            raise ConfigInvalid(sec, "expected a table")
        table[key] = parse_override(dotted, raw)
    scenario = build_group(Scenario, values)
    validate_scenario(scenario)
    return scenario


def sample_gd_positions(scenario, rng):
    """Uniform GD drop over the service area, (n_gds, 2) float array."""
    x_min, y_min, x_max, y_max = scenario.area_bounds
    xs = rng.uniform(x_min, x_max, size=scenario.n_gds)
    ys = rng.uniform(y_min, y_max, size=scenario.n_gds)
    return np.stack([xs, ys], axis=1)


# independent random streams; every consumer names the stream it draws from
_STREAMS = ("init", "workload", "channel", "policy-noise", "net-init", "trainer")


def seeded_streams(seed):
    """{name: Generator}, mutually independent: stream i of _STREAMS draws
    from child i of SeedSequence(seed)."""
    children = np.random.SeedSequence(seed).spawn(len(_STREAMS))
    return {name: np.random.default_rng(child)
            for name, child in zip(_STREAMS, children)}
