"""Helpers shared by several test modules."""

import pathlib

from saginsim.environment import Totals

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

# small scenario for command-line tests
TINY_CONFIG = """\
n_aavs = 2
n_gds = 3
max_served = 2
horizon = 6
area_bounds = [-500.0, -500.0, 500.0, 500.0]
initial_aav_positions = [[-250.0, -250.0], [250.0, 250.0]]
"""

TINY_HYPER = [
    "--override", "hyper.batch_size=4",
    "--override", "hyper.warmup_steps=0",
    "--override", "hyper.n_policy_samples=4",
    "--override", "hyper.n_uniform_samples=2",
    "--override", "hyper.n_value_samples=2",
    "--override", "hyper.behavior_samples=2",
    "--override", "hyper.target_samples=2",
    "--override", "hyper.critic_widths=8",
    "--override", "hyper.actor_widths=8",
    "--override", "hyper.n_denoise=2",
]


class Record(dict):
    """A slot record that can be weakly referenced."""


def recount(records):
    """Totals.report() of slot records, folded in order; so a script
    recounts an episode's figures from its events.jsonl lines."""
    totals = Totals()
    for rec in records:
        totals.add(rec)
    return totals.report()
