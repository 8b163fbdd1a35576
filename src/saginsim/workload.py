"""Per-GD task and stored-data generation.

Each GD may spawn at most one computation task per slot.  The chance grows
with the gap since its last task: P = 1 - exp(-rate * gap_seconds), the
discrete hazard of an exponential inter-arrival.  Task sizes are Poisson
draws in units of 1e5 bits, resampled until positive.  Independently every
GD accrues sensed data for collection, Poisson in units of 1e4 bits.
"""

import dataclasses
import math

MEC_SIZE_UNIT = 1.0e5  # bits
DC_SIZE_UNIT = 1.0e4   # bits


@dataclasses.dataclass
class MecTask:
    task_id: int           # per-GD sequence number
    size_bits: float
    max_delay: float       # s, completion tolerance once service starts
    deadline_slot: int     # last slot at which service may start
    result_ratio: float    # result bits / input bits


class GdState:
    """Mutable per-episode state of one ground device."""

    def __init__(self):
        self.pending = []          # FIFO of MecTask
        self.stored_bits = 0.0     # sensed data waiting for collection
        self.last_task_slot = 0    # slot of the most recent task arrival
        self.next_task_id = 0

    def earliest_pending(self):
        return self.pending[0] if self.pending else None


def _uniform(rng, bounds):
    """rng.uniform(*bounds) by numpy's own formula: the same value and
    generator state, without uniform's argument handling."""
    low, high = bounds
    return low + (high - low) * rng.random()


def maybe_generate_task(gd, slot, params, slot_length, rng):
    """Spawn at most one task for this GD at the given slot.

    Returns the new MecTask or None.  Deadlines are drawn in seconds and
    recorded as the last slot at which service may begin.
    """
    gap = (slot - gd.last_task_slot) * slot_length
    p_new = 1.0 - math.exp(-params.task_rate * max(gap, 0.0))
    if rng.random() >= p_new:
        return None
    size_units = 0
    while size_units < 1:
        size_units = int(rng.poisson(params.mec_poisson_rate))
    deadline_s = _uniform(rng, params.deadline_range)
    tolerance_s = _uniform(rng, params.tolerance_range)
    ratio = _uniform(rng, params.result_ratio_range)
    task = MecTask(
        task_id=gd.next_task_id,
        size_bits=size_units * MEC_SIZE_UNIT,
        max_delay=tolerance_s,
        deadline_slot=slot + max(1, int(deadline_s / slot_length)),
        result_ratio=ratio,
    )
    gd.pending.append(task)
    gd.last_task_slot = slot
    gd.next_task_id += 1
    return task


def accrue_dc_data(gd, params, rng):
    """Add this slot's sensed data to the GD store; returns the bit count."""
    bits = float(rng.poisson(params.dc_poisson_rate)) * DC_SIZE_UNIT
    gd.stored_bits += bits
    return bits


def expire_overdue(gd, slot):
    """Drop pending tasks whose start deadline has passed; returns the count."""
    if not gd.pending:
        return 0
    keep, dropped = [], 0
    for task in gd.pending:
        if task.deadline_slot < slot:
            dropped += 1
        else:
            keep.append(task)
    gd.pending = keep
    return dropped
