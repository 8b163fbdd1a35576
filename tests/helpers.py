"""Helpers shared by several test modules."""

from saginsim.environment import Totals


def recount(records):
    """Totals.report() of slot records, folded in order; so a script
    recounts an episode's figures from its events.jsonl lines."""
    totals = Totals()
    for rec in records:
        totals.add(rec)
    return totals.report()
