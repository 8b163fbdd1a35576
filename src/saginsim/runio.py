"""Run artifacts: metrics CSV, event logs, and plot-ready exports.

Events are written as JSON Lines with a meta header line (schema, seed,
scenario text hash inputs) followed by one record per slot.  All floats
are serialized via repr/json so identical runs produce identical bytes.
"""

import csv
import json
import os

from .environment import episode_totals

EVENTS_SCHEMA = 1


def episode_metrics(env, episode, reward):
    """One report row for the episode the environment just finished."""
    row = {"episode": int(episode), "reward": float(reward)}
    row.update(episode_totals(env.records))
    return row


def write_metrics_csv(path, rows):
    """One column per key of the rows, in first-seen order."""
    fields = list(dict.fromkeys(key for row in rows for key in row))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            out = []
            for key in fields:
                value = row.get(key, "")
                if isinstance(value, float):
                    out.append(repr(value))
                else:
                    out.append(str(value))
            writer.writerow(out)


def read_metrics_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for raw in reader:
            row = {}
            for key, value in raw.items():
                try:
                    row[key] = int(value)
                except ValueError:
                    try:
                        row[key] = float(value)
                    except ValueError:
                        row[key] = value
            rows.append(row)
    return rows


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_events_jsonl(path, meta, episode_records):
    """episode_records: iterable of (episode, [slot records])."""
    header = {"schema": EVENTS_SCHEMA}
    header.update(meta)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(header) + "\n")
        for episode, records in episode_records:
            for rec in records:
                out = dict(rec)
                out["episode"] = int(episode)
                fh.write(_dumps(out) + "\n")


def read_events_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines:
        raise ValueError("empty event log %s" % path)
    meta, records = lines[0], lines[1:]
    if meta.get("schema") != EVENTS_SCHEMA:
        raise ValueError("unsupported event schema %r" % meta.get("schema"))
    return meta, records


def export_trajectories(records, out_path):
    """Per-slot AAV positions of the log's final episode as CSV."""
    if not records:
        raise ValueError("no records to export")
    last_ep = max(rec.get("episode", 0) for rec in records)
    rows = [rec for rec in records if rec.get("episode", 0) == last_ep]
    rows.sort(key=lambda rec: rec["slot"])
    slots = [rec["slot"] for rec in rows]
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "aav", "x", "y", "is_start", "is_end"])
        for rec in rows:
            for v, (x, y) in enumerate(rec["aav_pos"]):
                writer.writerow([rec["slot"], v, repr(float(x)), repr(float(y)),
                                 int(rec["slot"] == slots[0]),
                                 int(rec["slot"] == slots[-1])])


def export_energy_breakdown(records, out_path):
    """Cumulative energy by source plus the satellite offload ratio."""
    totals = episode_totals(records)
    fields = ["gd_tx", "aav_move", "aav_compute", "sat_tx", "sat_compute",
              "offload_ratio"]
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        writer.writerow([repr(totals[k]) for k in fields])


def write_manifest(path, manifest):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
