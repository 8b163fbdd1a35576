"""saginsim benchmark: run one workload through the saginsim CLI and print
its metrics, with the result as a JSON object on the last line.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1]

Run it from anywhere; the checkout is the directory above this file, and
the program under test is that checkout's src/saginsim.  The workloads
are in workloads.py and the README says why each exists.

Each run, in a fresh directory under .perfbench_runs/ that is removed at
the end:
  1. writes the workload's scenario file; for eval-toy, builds the
     checkpoint fixture (untimed);
  2. repeats, for about --seconds and at least MIN_REPEATS times, one
     child process at a time: the command with --episodes 0, whose median
     wall time is setup_s, then the full command with the same seed;
     steps_per_s, peak_rss_mb and output_bytes_per_episode are medians
     over the full commands;
  3. checks every repeat's outputs, and for workloads that do not learn,
     a short run at the reference seed against reference.json.
With --trace 1 it instead alternates untraced and traced repeats and
reports the per-layer metrics and the tracing overhead.
"""

import argparse
import dataclasses
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import checks
import tracer
from workloads import DEFAULT_SEED, WORKLOADS, scenario_text

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

MIN_REPEATS = 3
TRACE_PAIRS = 3
COMMAND_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "steps_per_s": "steps/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "output_bytes_per_episode": "B",
}
PER_LAYER_UNITS = {
    "calls": "count", "ms_per_call": "ms", "self_pct": "%", "rows": "count",
    "macs": "computed_MAC", "positive_share": "ratio", "overhead_pct": "%",
}


def per_layer_unit(name):
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


@dataclasses.dataclass
class Command:
    """One finished child process."""
    out: str
    seed_dir: str
    returncode: int
    wall_s: float
    rss_mb: float
    spans: tuple = None    # (spans file, run id) of a traced command


def child_env():
    env = dict(os.environ)
    # load_scenario lets SAGIN_SEED override --seed
    env.pop("SAGIN_SEED", None)
    return env


def spawn(root, work, argv, trace=None):
    """Run `saginsim argv` in a child and wait; trace = (spans, run id).

    Peak RSS comes from this child's own rusage (os.wait4), not from
    RUSAGE_CHILDREN, which is the maximum over every child so far."""
    cmd = [sys.executable, CHILD, root]
    if trace:
        cmd += ["--trace", trace[0], trace[1]]
    cmd += ["--"] + argv
    with open(os.path.join(work, "children.log"), "ab") as log:
        log.write(("$ %s\n" % " ".join(cmd)).encode())
        log.flush()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


class Run:
    """The commands of one workload and seed, in one work directory."""

    def __init__(self, root, work, workload, seed):
        self.root, self.work, self.w, self.seed = root, work, workload, seed
        self.config = os.path.join(work, "scenario.toml")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(scenario_text(workload.scenario))
        self.checkpoint = None
        if workload.verb == "eval":
            out = os.path.join(work, "fixture")
            spawn(root, work, workload.fixture_argv(self.config, out))
            self.checkpoint = os.path.join(
                out, "seed%d" % DEFAULT_SEED, "checkpoints", "final.npz")

    def command(self, tag, episodes, seed=None, trace=False):
        seed = self.seed if seed is None else seed
        out = os.path.join(self.work, tag)
        argv = self.w.argv(self.config, seed, episodes, out, self.checkpoint)
        spans = None
        if trace:
            spans = (os.path.join(self.work, tag + ".spans.json"),
                     "%s-seed%d-%s" % (self.w.name, self.seed, tag))
        rc, wall, rss = spawn(self.root, self.work, argv, spans)
        return Command(out, os.path.join(out, "seed%d" % seed), rc, wall, rss,
                       spans)


def machine_info():
    import numpy
    info = {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": "unknown", "blas_threads": "unknown"}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = "%s %s" % (blas["name"], blas["version"])
    except (KeyError, TypeError):
        pass
    info["blas_threads"] = _openblas_threads(numpy)
    return info


def _openblas_threads(numpy):
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def load_reference(name):
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        ref = json.load(fh)
    return {"rtol": ref["rtol"], "episodes": ref["workloads"][name]}


class Tally:
    """Episodes attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.reasons = []

    def add(self, episodes, failed, reasons, label):
        self.attempted += episodes
        self.failed += len(failed)
        self.reasons += ["%s: %s" % (label, r) for r in reasons]


def check_repeats(w, commands, tally):
    """Full checks on the first repeat; every other repeat must exit 0 and
    match it byte for byte (metrics.csv and events.jsonl)."""
    first = commands[0]
    failed, reasons = checks.check_outputs(first.returncode, first.seed_dir,
                                           w.episodes, w.horizon)
    tally.add(w.episodes, failed, reasons, os.path.basename(first.out))
    base = checks.digest(first.seed_dir)
    for cmd in commands[1:]:
        label = os.path.basename(cmd.out)
        if cmd.returncode != 0:
            tally.add(w.episodes, range(w.episodes),
                      ["exit status %d" % cmd.returncode], label)
        elif checks.digest(cmd.seed_dir) != base:
            tally.add(w.episodes, range(w.episodes),
                      ["outputs differ from %s" % os.path.basename(first.out)],
                      label)
        else:
            tally.add(w.episodes, failed, [], label)


def run_workload(root, work, w, seed, seconds, trace):
    """Run one workload; returns (metrics {name: value}, tally, report lines)."""
    run = Run(root, work, w, seed)
    tally = Tally()
    lines = []
    # untimed: fills the bytecode cache, as a user's second run finds it
    run.command("warmup", 0)
    # A set-up command runs before every repeat, so that set-up and full
    # commands sample the same stretch of a noisy host.
    setups, untraced, traced = [], [], []

    def setup():
        cmd = run.command("setup%03d" % len(setups), 0)
        if cmd.returncode != 0:
            tally.reasons.append("%s: exit status %d"
                                 % (os.path.basename(cmd.out), cmd.returncode))
        setups.append(cmd)

    if trace:
        for i in range(TRACE_PAIRS):
            setup()
            untraced.append(run.command("rep%03d" % i, w.episodes))
            setup()
            traced.append(run.command("traced%03d" % i, w.episodes,
                                      trace=True))
    else:
        # stop when one more typical repeat would overrun --seconds
        start = time.perf_counter()
        while True:
            setup()
            untraced.append(run.command("rep%03d" % len(untraced),
                                        w.episodes))
            typical = statistics.median(c.wall_s for c in setups) \
                + statistics.median(c.wall_s for c in untraced)
            if len(untraced) >= MIN_REPEATS and \
                    time.perf_counter() - start + typical > seconds:
                break
    setup_s = statistics.median(c.wall_s for c in setups)
    steps = w.episodes * w.horizon
    check_repeats(w, untraced + traced, tally)

    if w.reference_episodes:
        ref = run.command("reference", w.reference_episodes, DEFAULT_SEED)
        failed, reasons = checks.check_outputs(
            ref.returncode, ref.seed_dir, w.reference_episodes, w.horizon)
        ref_failed, ref_reasons = checks.check_reference(
            ref.seed_dir, load_reference(w.name))
        tally.add(w.reference_episodes, failed | ref_failed,
                  reasons + ref_reasons, "reference")

    def sps(commands):
        return statistics.median(
            steps / max(c.wall_s - setup_s, 1e-9) for c in commands)

    end_to_end = {
        "steps_per_s": sps(untraced),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(c.rss_mb for c in untraced),
        "output_bytes_per_episode": statistics.median(
            checks.dir_bytes(c.out) / w.episodes for c in untraced),
    }
    lines.append("workload %s: seed %d, %d x `saginsim %s`, %d episodes of "
                 "%d steps each" % (w.name, seed, len(untraced), w.verb,
                                    w.episodes, w.horizon))
    lines.append("  repeat wall s: " + " ".join(
        "%.3f" % c.wall_s for c in untraced + traced))
    lines.append("  setup wall s: " + " ".join(
        "%.3f" % c.wall_s for c in setups))
    for name, value in end_to_end.items():
        lines.append("  %-26s %14.6g %s" % (name, value,
                                            END_TO_END_UNITS[name]))
    lines.append("  %-26s %14.6g ratio (%d of %d episodes)"
                 % ("failed_share", tally.failed / max(tally.attempted, 1),
                    tally.failed, tally.attempted))
    if not trace:
        return end_to_end, tally, lines

    traces = []
    for cmd in traced:
        with open(cmd.spans[0], encoding="utf-8") as fh:
            data = json.load(fh)
        if data["run_id"] != cmd.spans[1]:
            raise RuntimeError("spans of %s belong to %s"
                               % (cmd.spans[1], data["run_id"]))
        traces.append(data)
    layers = tracer.layer_metrics(traces, sum(c.wall_s for c in traced))
    traced_sps = sps(traced)
    layers["trace.overhead_pct"] = 100.0 * (end_to_end["steps_per_s"]
                                            / traced_sps - 1.0)
    lines.append("  traced steps_per_s %.6g steps/s; tracing overhead %.3g%%"
                 % (traced_sps, layers["trace.overhead_pct"]))
    for name, value in layers.items():
        lines.append("  %-52s %14.6g %s" % (name, value,
                                            per_layer_unit(name)))
    return layers, tally, lines


def make_work_dir(prefix):
    """A fresh directory under the checkout's .perfbench_runs/."""
    runs_dir = os.path.join(ROOT, ".perfbench_runs")
    os.makedirs(runs_dir, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=runs_dir)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # unwinds through spawn(), which kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(ROOT, "src", "saginsim", "cli.py")):
        print("error: no src/saginsim/cli.py under %s" % ROOT,
              file=sys.stderr)
        return 2
    work = make_work_dir("%s-seed%d-trace%d-" % (args.workload, args.seed,
                                                args.trace))
    try:
        metrics, tally, lines = run_workload(
            ROOT, work, WORKLOADS[args.workload], args.seed, args.seconds,
            args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info = machine_info()
    print("machine: " + ", ".join("%s=%s" % kv for kv in info.items()))
    for line in lines + tally.reasons[:20]:
        print(line)
    units = per_layer_unit if args.trace else END_TO_END_UNITS.__getitem__
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.reasons,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units(k)}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
