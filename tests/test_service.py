import math

import numpy as np
import pytest

from saginsim import channel
from saginsim.actions import DecodedAction
from saginsim.scenario import RadioParams, Scenario
from saginsim.service import WorldState, run_slot, task_delay
from saginsim.workload import MecTask

from helpers import recount


def make_scenario(n_aavs=1, n_gds=1, **radio_kw):
    return Scenario(
        n_aavs=n_aavs,
        n_gds=n_gds,
        max_served=2,
        initial_aav_positions=tuple((0.0, 0.0) for _ in range(n_aavs)),
        area_bounds=(-500.0, -500.0, 500.0, 500.0),
        radio=RadioParams(**radio_kw),
    )


def make_world(sc, aav_pos, gd_pos, tasks=(), stored=0.0):
    """tasks[g] is queued at GD g."""
    world = WorldState.start(sc, gd_pos)
    world.aav_pos = np.asarray(aav_pos, float)
    for gd, task in zip(world.gd_states, tasks):
        gd.pending.append(task)
    for gd in world.gd_states:
        gd.stored_bits = stored
    return world


def world_gain(world, sc):
    """Gain of the link between AAV 0 and GD 0 of world."""
    aav3 = np.append(world.aav_pos[0], sc.aav_altitude)
    return channel.channel_gain_matrix(aav3[None], world.gd3[:1],
                                       sc.radio)[0, 0]


def make_task(size=6e5, ratio=0.2, max_delay=2.0):
    return MecTask(task_id=0, size_bits=size, max_delay=max_delay,
                   deadline_slot=100, result_ratio=ratio)


def full_service_decision(sc, offload=False):
    """The full budget and one offload flag for every GD an AAV may serve:
    lists as long as n_gds, which run_slot zips with served[v]."""
    return DecodedAction(
        displacements=np.zeros((sc.n_aavs, 2)),
        offload=[[offload] * sc.n_gds for _ in range(sc.n_aavs)],
        bandwidth=[[sc.radio.bandwidth_aav] * sc.n_gds
                   for _ in range(sc.n_aavs)])


def everyone_assoc(sc):
    """Served-GD lists that deal the GDs round-robin over the AAVs."""
    return [list(range(v, sc.n_gds, sc.n_aavs)) for v in range(sc.n_aavs)]


def sat_distance(aav_xy, scenario):
    """AAV to satellite slant distance, m; the per-AAV reference that
    WorldState.sat_distances must equal to the last bit."""
    x_min, y_min, x_max, y_max = scenario.area_bounds
    center = np.array([(x_min + x_max) / 2.0, (y_min + y_max) / 2.0])
    horiz = float(np.linalg.norm(np.asarray(aav_xy, float) - center))
    return math.hypot(horiz, scenario.sat_altitude - scenario.aav_altitude)


def test_sat_distance_at_center_and_corner():
    sc = make_scenario()
    d0 = sat_distance([0.0, 0.0], sc)
    assert math.isclose(d0, sc.sat_altitude - sc.aav_altitude, rel_tol=1e-12)
    d1 = sat_distance([300.0, 400.0], sc)
    assert math.isclose(d1, math.hypot(500.0, sc.sat_altitude - sc.aav_altitude),
                        rel_tol=1e-12)
    assert d1 > d0


@pytest.mark.parametrize("bounds", [(-1500.0, -1500.0, 1500.0, 1500.0),
                                    (0.0, -200.0, 1000.0, 3000.0),
                                    (-7.3, 11.1, 993.7, 1213.9)])
def test_sat_distances_equal_loop_reference(bounds):
    sc = Scenario(n_aavs=5, n_gds=1, area_bounds=bounds,
                  initial_aav_positions=((bounds[0], bounds[1]),) * 5)
    world = WorldState.start(sc, [[bounds[0], bounds[1]]])
    x_min, y_min, x_max, y_max = bounds
    center = ((x_min + x_max) / 2.0, (y_min + y_max) / 2.0)
    corners = [(x_min, y_min), (x_min, y_max), (x_max, y_min), (x_max, y_max)]
    rng = np.random.default_rng(31)
    cases = [np.array([center] + corners)]
    cases += [np.column_stack([rng.uniform(x_min, x_max, 5),
                               rng.uniform(y_min, y_max, 5)])
              for _ in range(200)]
    for positions in cases:
        world.aav_pos = positions
        assert world.sat_distances() == [sat_distance(p, sc)
                                          for p in positions]


def test_task_delay_local_components():
    sc = make_scenario()
    rates = {"g2a": 1e6, "a2g": 2e6}
    comps = task_delay(6e5, 0.2, False, rates, 8e5, sc.compute)
    assert math.isclose(comps["t_up_g2a"], 0.6, rel_tol=1e-12)
    assert math.isclose(comps["t_comp"], 1000 * 6e5 / 8e9, rel_tol=1e-12)
    assert math.isclose(comps["t_down_a2g"], 0.2 * 6e5 / 2e6, rel_tol=1e-12)
    assert comps["t_up_a2s"] == 0.0
    assert comps["t_down_s2a"] == 0.0
    assert comps["t_prop"] == 0.0
    assert math.isclose(sum(comps.values()), 0.6 + 0.075 + 0.06, rel_tol=1e-12)


def test_task_delay_satellite_components():
    sc = make_scenario()
    rates = {"g2a": 1e6, "a2g": 2e6, "a2s": 4e6, "s2a": 8e6}
    comps = task_delay(6e5, 0.2, True, rates, 8e5, sc.compute)
    assert math.isclose(comps["t_up_a2s"], 6e5 / 4e6, rel_tol=1e-12)
    assert math.isclose(comps["t_comp"], 1000 * 6e5 / 2e10, rel_tol=1e-12)
    assert math.isclose(comps["t_down_s2a"], 0.2 * 6e5 / 8e6, rel_tol=1e-12)
    # 800 km hop: round trip at light speed is 16/3 ms
    assert math.isclose(comps["t_prop"], 2 * 8e5 / 3e8, rel_tol=1e-12)
    assert math.isclose(comps["t_prop"], 5.3333e-3, rel_tol=1e-4)


# a link whose rate rounds to 0: rain that kills the satellite link both
# ways, or an AAV too faint for its downlink to carry a bit
DEAD_LINKS = {"satellite": (dict(rain_atten=400.0), True),
              "downlink": (dict(power_aav=1e-30), False)}


@pytest.mark.parametrize("link", DEAD_LINKS)
def test_dead_link_leaves_task_pending(link):
    radio_kw, offload = DEAD_LINKS[link]
    sc = make_scenario(**radio_kw)
    pos = dict(aav_pos=[[0.0, 0.0]], gd_pos=[[0.0, 0.0]], stored=5e3)
    task = make_task(size=2e5, max_delay=5.0)
    world = make_world(sc, tasks=[task], **pos)
    world.dc_buffers[0] = 3e3
    decision = full_service_decision(sc, offload=offload)
    up, down = channel.sat_link_rates(world.sat_distances()[0], sc.n_aavs,
                                      world.noise_w, sc.radio)
    a2g = channel.a2g_rate(world_gain(world, sc), sc.radio.bandwidth_aav,
                           world.noise_w, sc.radio)
    if offload:
        assert (up, down) == (0.0, 0.0) and a2g > 0.0
    else:
        assert a2g == 0.0
    out = run_slot(world, decision, everyone_assoc(sc), sc)
    assert out["skipped"] == 1
    assert out["tasks"] == []
    assert world.gd_states[0].pending == [task]
    # the slot collects as if the GD had no task
    idle = make_world(sc, **pos)
    idle.dc_buffers[0] = 3e3
    expect = run_slot(idle, decision, everyone_assoc(sc), sc)
    assert out["dc"] == expect["dc"]
    assert out["energy"] == expect["energy"]
    assert out["dc"]["dc_time"][0] == sc.slot_length
    assert out["dc"]["collected"][0] == pytest.approx(5e3)
    # a dead satellite link delivers nothing, so the buffer keeps it all
    if offload:
        assert out["dc"]["delivered"][0] == 0.0
        assert out["dc"]["buffers"][0] == pytest.approx(8e3)


def test_run_slot_local_task_bookkeeping():
    sc = make_scenario()
    task = make_task(size=2e5, max_delay=5.0)
    world = make_world(sc, [[0.0, 0.0]], [[0.0, 0.0]], tasks=[task])
    out = run_slot(world, full_service_decision(sc), everyone_assoc(sc), sc)
    assert len(out["tasks"]) == 1
    rec = out["tasks"][0]
    assert rec["success"] and not rec["offloaded"]
    assert [t["success"] for t in out["tasks"]] == [True]
    assert world.gd_states[0].pending == []
    comps = rec["components"]
    # the radio is busy for the task's uplink and downlink only
    assert math.isclose(out["dc"]["dc_time"][0],
                        1.0 - (comps["t_up_g2a"] + comps["t_down_a2g"]),
                        rel_tol=1e-9)
    # no stored data: GD energy is the task uplink only
    assert math.isclose(out["energy"]["gd_tx"],
                        sc.radio.power_gd * comps["t_up_g2a"], rel_tol=1e-12)
    assert math.isclose(out["energy"]["aav_compute"][0],
                        sc.compute.energy_per_cycle
                        * sc.compute.cycles_per_bit * 2e5, rel_tol=1e-12)
    assert out["energy"]["sat_tx"] == 0.0
    assert out["energy"]["sat_compute"] == 0.0


def test_run_slot_offloaded_task_bookkeeping():
    sc = make_scenario()
    task = make_task(size=2e5, max_delay=5.0)
    world = make_world(sc, [[0.0, 0.0]], [[0.0, 0.0]], tasks=[task])
    out = run_slot(world, full_service_decision(sc, offload=True),
                   everyone_assoc(sc), sc)
    rec = out["tasks"][0]
    assert rec["offloaded"]
    comps = rec["components"]
    assert comps["t_up_a2s"] > 0.0 and comps["t_down_s2a"] > 0.0
    d = sat_distance([0.0, 0.0], sc)
    assert math.isclose(comps["t_prop"], 2 * d / channel.LIGHT_SPEED,
                        rel_tol=1e-12)
    assert out["energy"]["aav_compute"][0] == 0.0
    assert math.isclose(out["energy"]["sat_compute"],
                        sc.energy.sat_energy_per_cycle
                        * sc.compute.cycles_per_bit * 2e5, rel_tol=1e-12)
    assert math.isclose(out["energy"]["sat_tx"],
                        sc.radio.power_sat * comps["t_down_s2a"], rel_tol=1e-12)
    # the satellite round trip only adds delay relative to local service
    assert rec["delay"] > sum((comps["t_up_g2a"], comps["t_down_a2g"]))


def test_run_slot_pairs_each_gd_with_its_own_choice():
    # one AAV serves two GDs with unequal shares and opposite paths; each
    # task row must carry the share and the path decoded for its own GD
    sc = make_scenario(n_gds=2)
    budget = sc.radio.bandwidth_aav
    served = [[0, 1]]
    paths, shares = [True, False], [0.8 * budget, 0.2 * budget]
    decision = DecodedAction(displacements=np.zeros((1, 2)),
                             offload=[paths], bandwidth=[shares])
    size = 2e5
    world = make_world(sc, [[0.0, 0.0]], [[-30.0, 0.0], [0.0, 60.0]],
                       tasks=[make_task(size=size, max_delay=50.0)] * 2)
    out = run_slot(world, decision, served, sc)
    assert sorted(rec["gd"] for rec in out["tasks"]) == [0, 1]
    aav3 = np.array([[0.0, 0.0, sc.aav_altitude]])
    field = channel.InterferenceField(aav3, world.gd3, served, sc.radio)
    for rec in out["tasks"]:
        g = rec["gd"]
        assert rec["offloaded"] is paths[g]
        rate = channel.g2a_rate(float(field.gains[0, g]), shares[g],
                                field.power[0], world.noise_w, sc.radio)
        assert math.isclose(rec["components"]["t_up_g2a"], size / rate,
                            rel_tol=1e-12)


def test_rate_floor_skips_task_but_not_collection():
    sc = make_scenario(rate_floor=1e12)
    task = make_task()
    world = make_world(sc, [[0.0, 0.0]], [[0.0, 0.0]], tasks=[task],
                       stored=5e3)
    out = run_slot(world, full_service_decision(sc), everyone_assoc(sc), sc)
    assert out["skipped"] == 1
    assert out["tasks"] == []
    assert len(world.gd_states[0].pending) == 1
    # the radio stayed free, so the whole slot went to data collection
    assert out["dc"]["dc_time"][0] == sc.slot_length
    assert out["dc"]["collected"][0] == pytest.approx(5e3)
    assert world.gd_states[0].stored_bits == pytest.approx(0.0)


def test_over_tolerance_task_fails_but_leaves_queue():
    sc = make_scenario()
    task = make_task(size=2e5, max_delay=1e-9)
    world = make_world(sc, [[0.0, 0.0]], [[0.0, 0.0]], tasks=[task])
    out = run_slot(world, full_service_decision(sc), everyone_assoc(sc), sc)
    assert [t["success"] for t in out["tasks"]] == [False]
    assert world.gd_states[0].pending == []


def test_dc_conservation_with_busy_radio():
    sc = make_scenario()
    stored = 1e9  # far more than one slot can drain
    world = make_world(sc, [[0.0, 0.0]], [[0.0, 0.0]],
                       tasks=[make_task(size=2e5, max_delay=5.0)],
                       stored=stored)
    out = run_slot(world, full_service_decision(sc), everyone_assoc(sc), sc)
    gd = world.gd_states[0]
    dc = out["dc"]
    assert math.isclose(stored - gd.stored_bits, dc["collected"][0],
                        rel_tol=1e-12)
    # buffer keeps whatever the satellite uplink could not forward
    assert math.isclose(world.dc_buffers[0],
                        dc["collected"][0] - dc["delivered"][0], rel_tol=1e-9)
    assert dc["delivered"][0] <= dc["collected"][0] + 1e-9
    assert dc["from_gds"][0] == pytest.approx(dc["collected"][0])


def test_no_collection_when_radio_saturated():
    # a giant task eats the whole slot in uplink time
    sc = make_scenario()
    task = make_task(size=1e12, max_delay=1e9)
    world = make_world(sc, [[0.0, 0.0]], [[0.0, 0.0]], tasks=[task],
                       stored=1e6)
    out = run_slot(world, full_service_decision(sc), everyone_assoc(sc), sc)
    comps = out["tasks"][0]["components"]
    assert comps["t_up_g2a"] + comps["t_down_a2g"] > sc.slot_length
    assert out["dc"]["dc_time"][0] == 0.0
    assert out["dc"]["collected"][0] == 0.0
    assert world.gd_states[0].stored_bits == pytest.approx(1e6)


def test_buffer_drains_without_new_collection():
    sc = make_scenario()
    world = make_world(sc, [[0.0, 0.0]], [[0.0, 0.0]])
    world.dc_buffers[0] = 3e3
    out = run_slot(world, full_service_decision(sc), everyone_assoc(sc), sc)
    assert out["dc"]["collected"][0] == 0.0
    assert out["dc"]["delivered"][0] == pytest.approx(3e3)
    assert world.dc_buffers[0] == pytest.approx(0.0)


def test_unserved_gd_keeps_its_data():
    sc = make_scenario(n_aavs=1, n_gds=2)
    world = make_world(sc, [[0.0, 0.0]], [[0.0, 0.0], [400.0, 400.0]],
                       stored=1e3)
    out = run_slot(world, full_service_decision(sc), [[0]], sc)
    assert out["dc"]["from_gds"][0] == pytest.approx(1e3)
    assert out["dc"]["from_gds"][1] == 0.0
    assert world.gd_states[1].stored_bits == pytest.approx(1e3)


def test_cross_cell_interference_slows_service():
    sc2 = make_scenario(n_aavs=2, n_gds=2)
    pos_a = [[-100.0, 0.0], [100.0, 0.0]]
    pos_g = [[-100.0, 0.0], [100.0, 0.0]]
    tasks = [make_task(size=6e5, max_delay=50.0),
             make_task(size=6e5, max_delay=50.0)]
    world2 = make_world(sc2, pos_a, pos_g, tasks=tasks)
    out2 = run_slot(world2, full_service_decision(sc2), [[0], [1]], sc2)

    sc1 = make_scenario(n_aavs=1, n_gds=1)
    world1 = make_world(sc1, [pos_a[0]], [pos_g[0]],
                        tasks=[make_task(size=6e5, max_delay=50.0)])
    out1 = run_slot(world1, full_service_decision(sc1), [[0]], sc1)
    assert out2["tasks"][0]["delay"] > out1["tasks"][0]["delay"]


def test_rain_extra_db_slows_satellite_path():
    sc = make_scenario()
    kw = dict(tasks=[make_task(size=2e5, max_delay=50.0)])
    world_dry = make_world(sc, [[0.0, 0.0]], [[0.0, 0.0]], **kw)
    out_dry = run_slot(world_dry, full_service_decision(sc, offload=True),
                       everyone_assoc(sc), sc)
    world_wet = make_world(sc, [[0.0, 0.0]], [[0.0, 0.0]], **kw)
    world_wet.rain_extra_db = 10.0
    out_wet = run_slot(world_wet, full_service_decision(sc, offload=True),
                       everyone_assoc(sc), sc)
    assert out_wet["tasks"][0]["delay"] > out_dry["tasks"][0]["delay"]


def slot_record(generated=0, tasks=(), dc_generated=0.0, delivered=(0.0,)):
    return {
        "generated": generated,
        "tasks": [{"delay": 1.0, "success": ok, "offloaded": False}
                  for ok in tasks],
        "dc": {"generated": dc_generated, "delivered": list(delivered)},
        "energy": {"aav_move": [0.0], "aav_compute": [0.0], "gd_tx": 0.0,
                   "sat_tx": 0.0, "sat_compute": 0.0},
    }


def test_completion_rates():
    records = [slot_record(generated=3, tasks=(True, False), dc_generated=150.0,
                           delivered=(10.0, 20.0)),
               slot_record(generated=1, tasks=(True, True), dc_generated=50.0,
                           delivered=(20.0, 0.0))]
    totals = recount(records)
    assert math.isclose(totals["mec_rate"], 75.0)
    assert math.isclose(totals["dc_rate"], 25.0)
    # nothing generated: both rates are NaN, not a division error
    empty = recount([slot_record(delivered=(5.0,))])
    assert math.isnan(empty["mec_rate"]) and math.isnan(empty["dc_rate"])
    assert math.isnan(recount([])["mec_rate"])
