"""Run the benchmark over several seeds and summarise each metric.

usage: python3 perfbench/series.py [--workloads a,b] [--seeds 1-10]
                                   [--seconds S] [--out FILE]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread, which is
the distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  --out writes the machine info, the
summaries and the runs as JSON, with the keys `machine`, `run_seconds`,
`seeds`, `end_to_end` and `runs` that BENCH_0.json has.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"machine": run.machine_info(), "run_seconds": args.seconds,
              "seeds": args.seeds, "end_to_end": {}, "runs": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"], **values})
            print("%s seed %d: correct=%s %s" % (
                name, seed, result["correct"], " ".join(
                    "%s=%.6g" % kv for kv in values.items())), flush=True)
        summary = {}
        if len(runs) > 1:
            for metric in bounds:
                summary[metric] = s = summarise([r[metric] for r in runs])
                print("  %-26s median %-12.6g q1 %-12.6g q3 %-12.6g "
                      "spread %.4f (bound %s)" % (
                          metric, s["median"], s["q1"], s["q3"],
                          s["spread"], bounds[metric]), flush=True)
        report["end_to_end"][name] = summary
        report["runs"][name] = runs
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
