"""Output checks.  Each returns the set of episodes it fails, with reasons.

The checks read the run directory with the standard library only, so a
defect in the program's own readers cannot hide a defect in its writers.
"""

import csv
import hashlib
import json
import math
import os

# f2 and f3 are recomputed in the order environment.objectives sums them,
# so they match to the last bit; the tolerance only absorbs a reordering.
RECOMPUTE_RTOL = 1e-12


def read_metrics(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(a, b, rtol):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def check_outputs(returncode, seed_dir, episodes, horizon):
    """Exit status, one metrics row per episode, 1 + episodes * horizon
    event lines, and per-episode f2 / f3 recomputed from the events."""
    every = set(range(episodes))
    if returncode != 0:
        return every, ["exit status %d" % returncode]
    try:
        rows = read_metrics(os.path.join(seed_dir, "metrics.csv"))
    except OSError as exc:
        return every, ["metrics.csv: %s" % exc]
    if [r.get("episode") for r in rows] != [str(e) for e in every]:
        return every, ["metrics.csv has %d rows for %d episodes"
                       % (len(rows), episodes)]
    f2 = [0.0] * episodes
    f3 = [0.0] * episodes
    lines = 0
    try:
        with open(os.path.join(seed_dir, "events.jsonl"),
                  encoding="utf-8") as fh:
            for lines, line in enumerate(fh, start=1):
                if lines == 1:
                    continue
                rec = json.loads(line)
                ep = rec["episode"]
                f2[ep] += sum(rec["dc"]["delivered"])
                f3[ep] += sum(rec["energy"]["aav_move"]) \
                    + sum(rec["energy"]["aav_compute"])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return every, ["events.jsonl: %r" % exc]
    if lines != 1 + episodes * horizon:
        return every, ["events.jsonl has %d lines, expected %d"
                       % (lines, 1 + episodes * horizon)]
    failed, reasons = set(), []
    for ep, row in enumerate(rows):
        for name, value in (("f2", f2[ep]), ("f3", f3[ep])):
            if not _close(float(row[name]), value, RECOMPUTE_RTOL):
                failed.add(ep)
                reasons.append("episode %d: %s %s in metrics.csv, %r from "
                               "events.jsonl" % (ep, name, row[name], value))
    return failed, reasons


def digest(seed_dir):
    """Hash of metrics.csv and events.jsonl, for the same-seed repeat check."""
    h = hashlib.sha256()
    for name in ("metrics.csv", "events.jsonl"):
        try:
            with open(os.path.join(seed_dir, name), "rb") as fh:
                h.update(fh.read())
        except OSError:
            h.update(b"missing " + name.encode())
    return h.hexdigest()


def check_reference(seed_dir, reference):
    """Per-episode reward and f1-f3 against recorded values, within
    reference["rtol"]."""
    try:
        rows = read_metrics(os.path.join(seed_dir, "metrics.csv"))
    except OSError as exc:
        return set(range(len(reference["episodes"]))), [str(exc)]
    failed, reasons = set(), []
    for ep, expected in enumerate(reference["episodes"]):
        if ep >= len(rows):
            failed.add(ep)
            reasons.append("episode %d missing" % ep)
            continue
        for name, value in expected.items():
            got = float(rows[ep][name])
            if not _close(got, value, reference["rtol"]):
                failed.add(ep)
                reasons.append("episode %d: %s is %r, reference %r"
                               % (ep, name, got, value))
    return failed, reasons


def dir_bytes(path):
    total = 0
    for parent, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(parent, f)) for f in files)
    return total
