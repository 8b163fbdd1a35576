"""Run artifacts: metrics CSV, event logs, and plot-ready exports.

Events are written as JSON Lines with a meta header line (schema and the
requested episode count) followed by one record per slot.  The json and
csv modules write a float as its repr, so equal runs give equal bytes.
"""

import csv
import json
import os

from .environment import Totals
from .errors import EventLogInvalid, SaginError

EVENTS_SCHEMA = 1


def write_metrics_csv(path, rows):
    """One column per key of the rows, in first-seen order."""
    fields = list(dict.fromkeys(key for row in rows for key in row))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        writer.writerows(rows)


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


_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _write_episode(fh, episode, records):
    for rec in records:
        out = dict(rec)
        out["episode"] = int(episode)
        fh.write(_dumps(out) + "\n")


def _events_header(meta):
    header = {"schema": EVENTS_SCHEMA}
    header.update(meta)
    return _dumps(header) + "\n"


def write_events_jsonl(path, meta, episode_records):
    """episode_records: iterable of (episode, [slot records])."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_events_header(meta))
        for episode, records in episode_records:
            _write_episode(fh, episode, records)


def _decode_event(path, number, line):
    try:
        return json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EventLogInvalid(path, "line %d: %s" % (number, exc)) from None


def iter_events_jsonl(path):
    """Yield (line number, decoded line) for each non-blank line of an
    event log: its meta header first, then its slot records.

    Raises EventLogInvalid for a log that cannot be opened, an empty log,
    a foreign schema or a line that is not UTF-8 JSON.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise EventLogInvalid(path, exc.strerror) from None
    with fh:
        lines = ((number, _decode_event(path, number, line))
                 for number, line in enumerate(fh, 1) if line.strip())
        first = next(lines, None)
        if first is None:
            raise EventLogInvalid(path, "empty event log")
        meta = first[1]
        if not isinstance(meta, dict) or meta.get("schema") != EVENTS_SCHEMA:
            raise EventLogInvalid(path, "header %s is not of schema %d"
                                  % (_dumps(meta), EVENTS_SCHEMA))
        yield first
        yield from lines


def read_events_jsonl(path):
    """(meta header, list of every slot record) of an event log."""
    events = iter_events_jsonl(path)
    _, meta = next(events)
    return meta, [rec for _, rec in events]


def export_trajectories(track, out_path):
    """Per-slot AAV positions of one episode as CSV; track holds the
    episode's slots in order, each a dict with its "slot" and "aav_pos"."""
    if not track:
        raise ValueError("no records to export")
    first, last = track[0]["slot"], track[-1]["slot"]
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "aav", "x", "y", "is_start", "is_end"])
        for rec in track:
            for v, (x, y) in enumerate(rec["aav_pos"]):
                writer.writerow([rec["slot"], v, float(x), float(y),
                                 int(rec["slot"] == first),
                                 int(rec["slot"] == last)])


def export_energy_breakdown(totals, out_path):
    """Energy by source plus the satellite offload ratio, from the figures
    of environment.Totals.report."""
    fields = ["gd_tx", "aav_move", "aav_compute", "sat_tx", "sat_compute",
              "offload_ratio"]
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        writer.writerow([totals[k] for k in fields])


class RunTail:
    """What energy.csv and trajectories.csv need of a run's slot records:
    running totals over all of them, and the slot and AAV positions of
    the last episode's."""

    def __init__(self):
        self.totals = Totals()
        self.episode = None
        self.track = []

    def add(self, episode, rec):
        if episode != self.episode:
            self.episode, self.track = episode, []
        self.totals.add(rec)
        self.track.append({"slot": rec["slot"], "aav_pos": rec["aav_pos"]})

    def write(self, out_dir):
        export_trajectories(self.track,
                            os.path.join(out_dir, "trajectories.csv"))
        export_energy_breakdown(self.totals.report(),
                                os.path.join(out_dir, "energy.csv"))


class RunWriter:
    """One seed directory's outputs, written as the episodes finish.

    Use it as a context manager around a run, with on_episode as the run's
    episode callback.  Nothing is opened before the first episode.  Each
    episode appends its metrics.csv row and its events.jsonl lines and
    flushes both, so they survive a crash, and its records are dropped
    once folded into the RunTail.  energy.csv and trajectories.csv are
    written on exit, also when the run raised, if any episode finished.
    The events.jsonl header records the requested episode count; the lines
    show how many episodes finished.  A row with a key that the first row
    lacks raises ValueError before any of it is written.
    """

    def __init__(self, seed_dir, episodes):
        self.seed_dir = seed_dir
        self.episodes = int(episodes)
        self.tail = RunTail()
        self._metrics = self._events = self._csv = None

    def __enter__(self):
        return self

    def _open(self, fields):
        self._metrics = open(os.path.join(self.seed_dir, "metrics.csv"), "w",
                             newline="", encoding="utf-8")
        self._csv = csv.DictWriter(self._metrics, fields)
        self._csv.writeheader()
        self._events = open(os.path.join(self.seed_dir, "events.jsonl"), "w",
                            encoding="utf-8")
        self._events.write(_events_header({"episodes": self.episodes}))

    def on_episode(self, row, records):
        if self._csv is None:
            self._open(list(row))
        self._csv.writerow(row)
        self._metrics.flush()
        _write_episode(self._events, row["episode"], records)
        self._events.flush()
        for rec in records:
            self.tail.add(row["episode"], rec)

    def __exit__(self, *exc):
        for fh in (self._metrics, self._events):
            if fh is not None:
                fh.close()
        if self.tail.track:
            self.tail.write(self.seed_dir)
        return False


def write_manifest(path, manifest):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def ensure_dir(path):
    """path, made with its parents if missing; SaginError if it cannot be."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise SaginError("cannot make %s: %s" % (path, exc.strerror)) from None
    return path
