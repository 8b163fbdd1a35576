"""Command-line entry point.

Verbs:
    train     train the diffusion policy, one output subdirectory per seed
    eval      roll out a trained checkpoint without updates
    baseline  run the random or greedy reference policy
    export    regenerate trajectory/energy CSVs from an events.jsonl
    sweep     train once per value of one key (--grid KEY=V1,V2,...)

Every run writes manifest.json (seeds, episodes, overrides) and the
resolved scenario, config.resolved.toml, next to its outputs; --config of
that file with the manifest's seeds, episodes and hyper. overrides
reproduces the run.  The seed and the episode count are flags only.
Overrides use dotted config keys (e.g. --override workload.task_rate=0.2);
keys under hyper. steer the trainer (e.g. --override hyper.batch_size=64).
No override may set what eval's --checkpoint (its network and schedule
keys) or a sweep's --grid (its key) sets.  A sweep point is an
ordinary train run with --override KEY=V, written to the directory KEY=V;
the top-level manifest records the grid.  Every flag, override, value
and checkpoint is checked before anything is written.
"""

import argparse
import ctypes
import dataclasses
import os
import sys
import time
import traceback

from . import runio
from .baselines import POLICIES, run_baseline
from .environment import SaginEnv, run_episodes
from .errors import EventLogInvalid, SaginError
from .scenario import (build_group, is_point_list, load_scenario,
                       parse_override, scenario_to_text)
from .trainer import CHECKPOINT_KEYS, Hyper, QagobTrainer, train


def _parse_overrides(pairs):
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SaginError("override %r is not key=value" % pair)
        key, _, value = pair.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def _build_hyper(overrides):
    """The Hyper of the hyper. overrides, each read like a config key; a
    list-valued key also takes a bare comma list such as 256,256."""
    defaults = {f.name: f.default for f in dataclasses.fields(Hyper)}
    values = {}
    for dotted, raw in overrides.items():
        if dotted.startswith("hyper."):
            key = dotted[len("hyper."):]
            if isinstance(defaults.get(key), tuple) and raw[:1] != "[":
                raw = "[%s]" % raw
            values[key] = parse_override(dotted, raw)
    return build_group(Hyper, values, "hyper.")


def _seed_list(arg):
    """The distinct non-negative integer seeds of a --seed comma list."""
    try:
        seeds = [int(s) for s in str(arg).split(",")]
    except ValueError:
        raise SaginError("--seed %r is not a comma list of integers"
                         % arg) from None
    if min(seeds) < 0:
        raise SaginError("--seed %r has a negative seed" % arg)
    if len(set(seeds)) < len(seeds):
        raise SaginError("--seed %r repeats a seed" % arg)
    return seeds


def _check(args, shadowed=None, setting=None):
    """(seeds, scenario, overrides, hyper) of a verb's flags; raises
    SaginError for a bad flag, override or value, and writes nothing.

    shadowed: {config key: the flag that sets it}; no override may set
    such a key.  setting: a sweep point's KEY=V, after the overrides.
    """
    seeds = _seed_list(args.seed)
    if args.episodes < 0:
        raise SaginError("--episodes %d is negative" % args.episodes)
    overrides = _parse_overrides(args.override + ([setting] if setting else []))
    for key, flag in (shadowed or {}).items():
        if key in overrides:
            raise SaginError("--override %s: %s sets it" % (key, flag))
    scenario = load_scenario(args.config, {
        key: value for key, value in overrides.items()
        if not key.startswith("hyper.")})
    return seeds, scenario, overrides, _build_hyper(overrides)


def _write_run_files(args, command, out, checked, **extra):
    """manifest.json and config.resolved.toml of a run, in out; extra
    adds manifest entries."""
    seeds, scenario, overrides, _ = checked
    out = runio.ensure_dir(out)
    manifest = {
        "command": command,
        "scenario_path": os.path.abspath(args.config) if args.config else None,
        "algo": args.algo,
        "seeds": seeds,
        "mode": scenario.reward.mode,
        "episodes": args.episodes,
        "overrides": overrides,
        "out": os.path.abspath(out),
        **extra,
    }
    runio.write_manifest(os.path.join(out, "manifest.json"), manifest)
    with open(os.path.join(out, "config.resolved.toml"), "w",
              encoding="utf-8") as fh:
        fh.write(scenario_to_text(scenario))


def _run_seeds(args, command, run, points=None):
    """Run one verb for every point and every seed in args.seed; returns
    (the failure count, {(point name, seed): report rows} of the runs that
    finished).

    points: [(name, out, checked)], checked the point's _check result; by
    default the one unnamed point (None, args.out, _check(args)).
    run(scenario, hyper, seed, episodes, seed_dir, on_slot, on_episode)
    returns the rows of environment.run_episodes with on_slot and
    on_episode as its callbacks.  Every point's run files and seed
    directories, with checkpoints/ in a train run, are made before the
    first seed plays.  Each seed streams its slot records through a
    runio.RunWriter, which keeps the finished episodes also when run
    raises, and, unless args.quiet, prints a progress line for each
    episode, which names the point ("KEY=V"), if any, and the seed.
    """
    runs = []
    for name, out, checked in points or [(None, args.out, _check(args))]:
        _write_run_files(args, command, out, checked)
        for seed in checked[0]:
            seed_dir = os.path.join(out, "seed%d" % seed)
            runio.ensure_dir(os.path.join(seed_dir, "checkpoints")
                             if command == "train" else seed_dir)
            runs.append((name, seed, seed_dir, checked))
    failures, finished = 0, {}
    for name, seed, seed_dir, (_, scenario, _, hyper) in runs:
        run_name = " ".join(filter(None, (name, "seed %d" % seed)))
        with runio.RunWriter(seed_dir, args.episodes) as writer:
            start = time.perf_counter()

            def on_episode(row):
                writer.on_episode(row)
                if not args.quiet:
                    print("%s episode %d/%d reward %.3f (%.1fs)" % (
                        run_name, row["episode"] + 1, args.episodes,
                        row["reward"], time.perf_counter() - start),
                        flush=True)
            try:
                finished[name, seed] = run(scenario, hyper, seed,
                                           args.episodes, seed_dir,
                                           writer.on_slot, on_episode)
            except Exception:
                traceback.print_exc()
                failures += 1
    return failures, finished


def _train_seed(scenario, hyper, seed, episodes, seed_dir, on_slot,
                on_episode):
    """The run of one train seed for _run_seeds."""
    ckpt_dir = os.path.join(seed_dir, "checkpoints")
    return train(scenario, hyper, seed, episodes, on_slot, on_episode,
                 ckpt_dir)[0]


def cmd_train(args):
    return 1 if _run_seeds(args, "train", _train_seed)[0] else 0


def cmd_eval(args):
    checked = _check(args, dict.fromkeys(CHECKPOINT_KEYS, "--checkpoint"))
    seeds, scenario, _, hyper = checked
    # the checkpoint is read and checked once, before anything is written
    trained = QagobTrainer.from_checkpoint(
        args.checkpoint, SaginEnv(scenario, seeds[0]), hyper)

    def run(scenario, hyper, seed, episodes, seed_dir, on_slot, on_episode):
        env = SaginEnv(scenario, seed)
        return run_episodes(env, trained.acting_in(env).select_action,
                            episodes, on_slot, on_episode)
    return 1 if _run_seeds(args, "eval", run,
                           [(None, args.out, checked)])[0] else 0


def cmd_baseline(args):
    def run(scenario, hyper, seed, episodes, seed_dir, on_slot, on_episode):
        return run_baseline(scenario, args.algo, seed, episodes, on_slot,
                            on_episode)
    return 1 if _run_seeds(args, "baseline", run)[0] else 0


def cmd_export(args):
    events = runio.iter_events_jsonl(args.events)
    next(events)  # the meta header
    tail = runio.RunTail()
    for number, rec in events:
        try:
            tail.add(rec)
        except (AttributeError, KeyError, TypeError):
            raise EventLogInvalid(args.events, "line %d is not a slot record"
                                  % number) from None
        if not is_point_list(rec["aav_pos"]):
            raise EventLogInvalid(args.events, "line %d: aav_pos is not a "
                                  "list of [x, y] number pairs" % number)
    tail.commit()
    if not tail.track:
        raise EventLogInvalid(args.events, "no slot records to export")
    tail.write(runio.ensure_dir(args.out))
    return 0


def cmd_sweep(args):
    if args.episodes < 1:
        raise SaginError("--episodes %d: a sweep needs at least one episode"
                         % args.episodes)
    key, eq, values = args.grid.partition("=")
    key, values = key.strip(), [value.strip() for value in values.split(",")]
    if not (eq and key and all(values)):
        raise SaginError("--grid %r is not KEY=V1,V2,..." % args.grid)
    checked = _check(args, {key: "--grid"})
    points = []
    for value in values:
        setting = "%s=%s" % (key, value)
        point = _check(args, setting=setting)
        for other, _, (_, scenario, _, hyper) in points:
            if (scenario, hyper) == (point[1], point[3]):
                raise SaginError("--grid %r repeats a value: %s and %s run "
                                 "the same" % (args.grid, other, setting))
        points.append((setting, os.path.join(args.out, setting), point))
    _write_run_files(args, "sweep", args.out, checked,
                     grid={"key": key, "values": values})
    failures, finished = _run_seeds(args, "train", _train_seed, points)
    summary = []
    for (setting, seed), rows in finished.items():
        tail = rows[-10:]
        mean = {column: sum(r[column] for r in tail) / len(tail)
                for column in ("reward", "f1", "f2", "f3")}
        summary.append({
            "key": key, "value": setting.partition("=")[2], "seed": seed,
            "reward_tail10": mean["reward"],
            "f1": mean["f1"], "f2": mean["f2"], "f3": mean["f3"],
        })
    if summary:
        runio.write_metrics_csv(os.path.join(args.out, "summary.csv"), summary)
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="saginsim",
        description="satellite-AAV edge computing / data collection simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, episodes_default):
        p.add_argument("--config", default=None, help="scenario config path")
        p.add_argument("--seed", default="0",
                       help="non-negative seed or comma list")
        p.add_argument("--episodes", type=int, default=episodes_default)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE")
        p.add_argument("--quiet", action="store_true")

    p_train = sub.add_parser("train", help="train the diffusion policy")
    common(p_train, 3000)
    p_train.set_defaults(func=cmd_train, algo="qagob")

    p_eval = sub.add_parser("eval", help="roll out a checkpoint")
    common(p_eval, 5)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.set_defaults(func=cmd_eval, algo="qagob")

    p_base = sub.add_parser("baseline", help="run a reference policy")
    common(p_base, 1)
    p_base.add_argument("--algo", required=True, choices=list(POLICIES))
    p_base.set_defaults(func=cmd_baseline)

    p_exp = sub.add_parser("export", help="re-export plots data from a log")
    p_exp.add_argument("--events", required=True)
    p_exp.add_argument("--out", required=True)
    p_exp.set_defaults(func=cmd_export)

    p_sweep = sub.add_parser(
        "sweep", help="train once per value of one config or hyper. key")
    common(p_sweep, 10)
    p_sweep.add_argument("--grid", required=True, metavar="KEY=V1,V2,...",
                         help="the swept key and its distinct values")
    p_sweep.set_defaults(func=cmd_sweep, algo="qagob")
    return parser


M_TRIM_THRESHOLD = -1    # glibc's malloc.h parameter numbers
M_MMAP_THRESHOLD = -3


def _hold_heap():
    """On glibc, keep freed heap memory instead of trimming it; returns
    whether both mallopt calls succeeded, and does nothing elsewhere.

    glibc's dynamic thresholds return the heap top to the kernel whenever
    it swings past twice the largest mmapped block freed so far, and a
    training update then faults it back in, about 4,000 pages per
    update.  Fixed thresholds end that: blocks under 1 MiB (the sampler's
    512 KB arrays among them) come from the heap, and up to 256 MiB of
    free top stays mapped.  Setting either one freezes the other at its
    default, whose 128 KiB mmap threshold would map and fault the sampler
    arrays on every step, so both are set.  The values change no result.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, ValueError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_ok = mallopt(M_MMAP_THRESHOLD, 1 << 20) == 1
    trim_ok = mallopt(M_TRIM_THRESHOLD, 256 << 20) == 1
    return mmap_ok and trim_ok


def main(argv=None):
    _hold_heap()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SaginError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
