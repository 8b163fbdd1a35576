import math

import numpy as np

from saginsim.scenario import WorkloadParams
from saginsim.workload import (
    DC_SIZE_UNIT, MEC_SIZE_UNIT, GdState, _uniform, accrue_dc_data,
    expire_overdue, maybe_generate_task)

PARAMS = WorkloadParams()


def test_uniform_equals_generator_uniform():
    # the same values, and the generator left in the same state after
    # each draw, as rng.uniform: a workload stream continues unchanged
    bounds = [PARAMS.deadline_range, PARAMS.tolerance_range,
              PARAMS.result_ratio_range, (10, 30), (0.5, 0.5), (1e-9, 1e9)]
    ours, ref = np.random.default_rng(41), np.random.default_rng(41)
    for i in range(20000):
        low, high = bounds[i % len(bounds)]
        assert _uniform(ours, (low, high)) == ref.uniform(low, high)
        if i % 997 == 0:
            assert ours.bit_generator.state == ref.bit_generator.state
        if i % 5 == 0:
            assert ours.poisson(6.0) == ref.poisson(6.0)
    assert ours.bit_generator.state == ref.bit_generator.state


def test_generation_probability_matches_hazard():
    # empirical frequency of a task after a fixed gap vs 1 - exp(-rate*gap)
    rng = np.random.default_rng(0)
    gap = 7
    hits = 0
    trials = 20000
    for _ in range(trials):
        gd = GdState()
        gd.last_task_slot = 0
        if maybe_generate_task(gd, gap, PARAMS, 1.0, rng) is not None:
            hits += 1
    expected = 1.0 - math.exp(-PARAMS.task_rate * gap)
    se = math.sqrt(expected * (1 - expected) / trials)
    assert abs(hits / trials - expected) < 4 * se


def test_zero_gap_never_generates():
    rng = np.random.default_rng(1)
    gd = GdState()
    gd.last_task_slot = 5
    for _ in range(200):
        assert maybe_generate_task(gd, 5, PARAMS, 1.0, rng) is None


def test_task_fields_in_range():
    rng = np.random.default_rng(2)
    seen = 0
    slot = 12
    while seen < 50:
        gd = GdState()
        task = maybe_generate_task(gd, slot, PARAMS, 1.0, rng)
        if task is None:
            continue
        seen += 1
        assert task.size_bits >= MEC_SIZE_UNIT
        assert task.size_bits % MEC_SIZE_UNIT == 0
        assert PARAMS.tolerance_range[0] <= task.max_delay <= PARAMS.tolerance_range[1]
        assert slot + 10 <= task.deadline_slot <= slot + 30
        assert PARAMS.result_ratio_range[0] <= task.result_ratio \
            <= PARAMS.result_ratio_range[1]
        assert gd.pending[-1] is task
        assert gd.last_task_slot == slot


def test_task_ids_increment():
    rng = np.random.default_rng(3)
    gd = GdState()
    ids = []
    slot = 0
    while len(ids) < 5:
        slot += 30
        task = maybe_generate_task(gd, slot, PARAMS, 1.0, rng)
        if task is not None:
            ids.append(task.task_id)
    assert ids == list(range(5))


def test_accrue_dc_data_units_and_counter():
    rng = np.random.default_rng(4)
    gd = GdState()
    total = 0.0
    for _ in range(100):
        bits = accrue_dc_data(gd, PARAMS, rng)
        assert bits >= 0.0
        assert bits % DC_SIZE_UNIT == 0
        total += bits
    assert gd.stored_bits == total
    # Poisson(10) over 100 slots lands near 10 * 1e4 * 100
    assert 0.5 * 1e7 < total < 2.0 * 1e7


def test_expire_overdue_drops_only_past_deadlines():
    gd = GdState()
    rng = np.random.default_rng(5)
    slot = 20
    while len(gd.pending) < 4:
        maybe_generate_task(gd, slot, PARAMS, 1.0, rng)
        slot += 25
    deadlines = [t.deadline_slot for t in gd.pending]
    cut = deadlines[2]
    dropped = expire_overdue(gd, cut)
    assert dropped == sum(1 for d in deadlines if d < cut)
    assert all(t.deadline_slot >= cut for t in gd.pending)


def test_earliest_pending_is_fifo_head():
    gd = GdState()
    rng = np.random.default_rng(6)
    slot = 10
    while len(gd.pending) < 3:
        maybe_generate_task(gd, slot, PARAMS, 1.0, rng)
        slot += 20
    assert gd.earliest_pending() is gd.pending[0]
    assert gd.pending[0].task_id < gd.pending[1].task_id
