"""Command-line entry point.

Verbs:
    train     train the diffusion policy, one output subdirectory per seed
    eval      roll out a trained checkpoint without updates
    baseline  run the random or greedy reference policy
    export    regenerate trajectory/energy CSVs from an events.jsonl
    sweep     train across denoising-step or serving-capacity grids

Every run writes manifest.json (seeds, episodes, overrides) and the
resolved scenario, config.resolved.toml, next to its outputs; --config of
that file with the manifest's seeds, episodes and hyper. overrides
reproduces the run.  The seed and the episode count are flags only.
Overrides use dotted config keys (e.g. --override workload.task_rate=0.2);
keys under hyper. steer the trainer (e.g. --override hyper.batch_size=64).
No override may set what --mode, eval's --checkpoint (its network and
schedule keys) or a sweep's --kind (max_served for capacity,
hyper.n_denoise for denoise) sets.
"""

import argparse
import dataclasses
import os
import sys
import traceback

from . import runio
from .baselines import run_baseline
from .environment import SaginEnv, rollout
from .errors import EventLogInvalid, SaginError
from .nets.mlp import load_checkpoint
from .scenario import load_scenario, scenario_to_text
from .trainer import Hyper, QagobTrainer, train

DENOISE_GRID = (1, 5, 10, 15, 25)
CAPACITY_GRID = (2, 3, 4, 5, 6)
# the hyper keys that eval rebuilds from its checkpoint
CHECKPOINT_KEYS = ("hyper.actor_widths", "hyper.critic_widths",
                   "hyper.n_denoise", "hyper.beta_start", "hyper.beta_end")


def _parse_overrides(pairs):
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SaginError("override %r is not key=value" % pair)
        key, _, value = pair.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def _build_hyper(overrides):
    """The Hyper of the hyper. overrides; Hyper checks the values."""
    kwargs = {}
    fields = {f.name: f for f in dataclasses.fields(Hyper)}
    for dotted, raw in overrides.items():
        if not dotted.startswith("hyper."):
            continue
        key = dotted[len("hyper."):]
        if key not in fields:
            raise SaginError("unknown hyper field %r" % key)
        default = fields[key].default
        try:
            if isinstance(default, tuple):
                parts = raw.strip("[]()").split(",")
                kwargs[key] = tuple(int(x) for x in parts if x)
            elif isinstance(default, (int, float)):
                kwargs[key] = type(default)(raw)
            else:
                kwargs[key] = raw
        except ValueError:
            raise SaginError("hyper.%s: cannot parse %r" % (key, raw)) from None
    return Hyper(**kwargs)


def _reject_shadowed(overrides, shadowed):
    """shadowed: {config key: the flag that sets it}."""
    for key, flag in shadowed.items():
        if key in overrides:
            raise SaginError("--override %s: %s sets it" % (key, flag))


def _load(args):
    """The scenario, the overrides and the Hyper of a command's flags."""
    overrides = _parse_overrides(args.override)
    scenario_ov = {key: value for key, value in overrides.items()
                   if not key.startswith("hyper.")}
    if args.mode:
        _reject_shadowed(overrides, {"reward.mode": "--mode"})
        scenario_ov["reward.mode"] = '"%s"' % args.mode
    scenario = load_scenario(args.config, scenario_ov)
    return scenario, overrides, _build_hyper(overrides)


def _manifest(args, command, seeds, scenario, overrides, out):
    return {
        "command": command,
        "scenario_path": os.path.abspath(args.config) if args.config else None,
        "algo": getattr(args, "algo", None) or command,
        "seeds": seeds,
        "mode": scenario.reward.mode,
        "episodes": getattr(args, "episodes", None),
        "overrides": overrides,
        "out": os.path.abspath(out),
    }


def _seed_list(arg):
    """The distinct non-negative integer seeds of a --seed comma list."""
    try:
        seeds = [int(s) for s in str(arg).split(",") if s.strip()]
    except ValueError:
        raise SaginError("--seed %r is not a comma list of integers"
                         % arg) from None
    if not seeds:
        raise SaginError("--seed %r names no seed" % arg)
    if min(seeds) < 0:
        raise SaginError("--seed %r has a negative seed" % arg)
    if len(set(seeds)) < len(seeds):
        raise SaginError("--seed %r repeats a seed" % arg)
    return seeds


def _run_seeds(args, command, run, out=None):
    """Run one verb for every seed in args.seed; returns the failure count.

    run(scenario, hyper, seed, seed_dir, on_episode) calls
    on_episode(row, records) with the report row and slot records of each
    episode as it finishes.  Nothing is written before every flag checks
    out; then manifest.json and config.resolved.toml are written, and each
    seed streams its episodes through a runio.RunWriter, so the episodes
    that finished are kept also when run raises.  out names a
    subdirectory of args.out to write into.
    """
    out = os.path.join(args.out, out) if out else args.out
    seeds = _seed_list(args.seed)
    if args.episodes < 0:
        raise SaginError("--episodes %d is negative" % args.episodes)
    scenario, overrides, hyper = _load(args)
    runio.write_manifest(
        os.path.join(runio.ensure_dir(out), "manifest.json"),
        _manifest(args, command, seeds, scenario, overrides, out))
    with open(os.path.join(out, "config.resolved.toml"), "w",
              encoding="utf-8") as fh:
        fh.write(scenario_to_text(scenario))
    failures = 0
    for seed in seeds:
        seed_dir = runio.ensure_dir(os.path.join(out, "seed%d" % seed))
        with runio.RunWriter(seed_dir, args.episodes) as writer:
            try:
                run(scenario, hyper, seed, seed_dir, writer.on_episode)
            except Exception:
                traceback.print_exc()
                failures += 1
    return failures


def cmd_train(args):
    def run(scenario, hyper, seed, seed_dir, on_episode):
        ckpt_dir = runio.ensure_dir(os.path.join(seed_dir, "checkpoints"))
        train(scenario, hyper, seed, args.episodes, on_episode=on_episode,
              ckpt_dir=ckpt_dir, progress=not args.quiet)
    return 1 if _run_seeds(args, "train", run) else 0


def cmd_eval(args):
    _reject_shadowed(_parse_overrides(args.override),
                     dict.fromkeys(CHECKPOINT_KEYS, "--checkpoint"))

    def run(scenario, hyper, seed, seed_dir, on_episode):
        env = SaginEnv(scenario, seed)
        nets, meta = load_checkpoint(args.checkpoint)
        # nets must be rebuilt exactly as trained, whatever the current
        # defaults are; the linear schedule is fixed by its length and ends
        betas = meta["betas"]
        hyper = dataclasses.replace(
            hyper,
            actor_widths=tuple(nets["actor"].widths[1:-1]),
            critic_widths=tuple(nets["q1"].widths[1:-1]),
            n_denoise=len(betas), beta_start=betas[0], beta_end=betas[-1])
        agent = QagobTrainer(env, hyper)
        agent.policy.denoiser.set_arrays(nets["actor"].get_arrays())
        agent.critics.q1.set_arrays(nets["q1"].get_arrays())
        agent.critics.q2.set_arrays(nets["q2"].get_arrays())
        for episode in range(args.episodes):
            ep_reward = rollout(env, agent.select_action)
            on_episode(runio.episode_metrics(env, episode, ep_reward),
                       env.records)
    return 1 if _run_seeds(args, "eval", run) else 0


def cmd_baseline(args):
    def run(scenario, hyper, seed, seed_dir, on_episode):
        run_baseline(scenario, args.algo, seed, args.episodes,
                     on_episode=on_episode)
    return 1 if _run_seeds(args, "baseline", run) else 0


def _is_xy_list(value):
    """True for a list of [x, y] number pairs, the form of "aav_pos"."""
    return isinstance(value, list) and all(
        isinstance(point, list) and len(point) == 2
        and all(isinstance(c, (int, float)) and not isinstance(c, bool)
                for c in point)
        for point in value)


def cmd_export(args):
    events = runio.iter_events_jsonl(args.events)
    next(events)  # the meta header
    tail = runio.RunTail()
    for number, rec in events:
        try:
            tail.add(rec.get("episode", 0), rec)
        except (AttributeError, KeyError, TypeError):
            raise EventLogInvalid(args.events, "line %d is not a slot record"
                                  % number) from None
        if not _is_xy_list(rec["aav_pos"]):
            raise EventLogInvalid(args.events, "line %d: aav_pos is not a "
                                  "list of [x, y] number pairs" % number)
    if not tail.track:
        raise EventLogInvalid(args.events, "no slot records to export")
    tail.write(runio.ensure_dir(args.out))
    return 0


def cmd_sweep(args):
    if args.episodes < 1:
        raise SaginError("--episodes %d: a sweep needs at least one episode"
                         % args.episodes)
    if args.kind == "denoise":
        grid, key = DENOISE_GRID, "hyper.n_denoise"
    else:
        grid, key = CAPACITY_GRID, "max_served"
    _reject_shadowed(_parse_overrides(args.override),
                     {key: "--kind %s" % args.kind})
    seeds = _seed_list(args.seed)
    scenario, overrides, _ = _load(args)
    runio.ensure_dir(args.out)
    runio.write_manifest(os.path.join(args.out, "manifest.json"),
                         _manifest(args, "sweep", seeds, scenario, overrides,
                                   args.out))
    summary = []
    failures = 0
    for value in grid:
        def run(scenario, hyper, seed, seed_dir, on_episode):
            rows, _ = train(scenario, hyper, seed, args.episodes,
                            on_episode=on_episode, progress=not args.quiet)
            tail = rows[-min(10, len(rows)):]
            summary.append({
                "sweep": args.kind, "value": value, "seed": seed,
                "reward_tail10": sum(r["reward"] for r in tail) / len(tail),
                "f1": rows[-1]["f1"], "f2": rows[-1]["f2"],
                "f3": rows[-1]["f3"],
            })
        point = argparse.Namespace(**vars(args))
        point.override = list(args.override) + ["%s=%d" % (key, value)]
        failures += _run_seeds(point, "sweep", run,
                               out="%s%d" % (args.kind, value))
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
        p.add_argument("--mode", default=None,
                       choices=["joint", "mec_only", "dc_only"])
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
    p_base.add_argument("--algo", required=True, choices=["random", "greedy"])
    p_base.set_defaults(func=cmd_baseline)

    p_exp = sub.add_parser("export", help="re-export plots data from a log")
    p_exp.add_argument("--events", required=True)
    p_exp.add_argument("--out", required=True)
    p_exp.set_defaults(func=cmd_export)

    p_sweep = sub.add_parser("sweep", help="grid over denoise steps or capacity")
    common(p_sweep, 10)
    p_sweep.add_argument("--kind", required=True,
                         choices=["denoise", "capacity"])
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SaginError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
