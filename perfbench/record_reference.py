"""Record reference.json: per-episode reward and f1-f3 at the reference seed
for every workload that does not learn.

usage: python3 perfbench/record_reference.py

Run it only when a change is meant to alter the simulated episodes, and
say so in that change: the benchmark fails any run whose reference episodes
drift from these values by more than RTOL.
"""

import json
import os
import shutil

import checks
from run import REFERENCE_PATH, ROOT, Run, make_work_dir
from workloads import DEFAULT_SEED, WORKLOADS

# Loose enough for a reordered float sum or another BLAS kernel; any change
# to the model moves these values by far more.
RTOL = 1e-6


def main():
    reference = {"seed": DEFAULT_SEED, "rtol": RTOL, "workloads": {}}
    for w in WORKLOADS.values():
        if not w.reference_episodes:
            continue
        work = make_work_dir("reference-")
        try:
            cmd = Run(ROOT, work, w, DEFAULT_SEED).command(
                "reference", w.reference_episodes)
            failed, reasons = checks.check_outputs(
                cmd.returncode, cmd.seed_dir, w.reference_episodes, w.horizon)
            if failed or reasons:
                raise SystemExit("%s: %s" % (w.name, "; ".join(reasons)))
            rows = checks.read_metrics(
                os.path.join(cmd.seed_dir, "metrics.csv"))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        reference["workloads"][w.name] = [
            {k: float(row[k]) for k in ("reward", "f1", "f2", "f3")}
            for row in rows]
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
