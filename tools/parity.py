"""Check that the work tree writes every run output byte for byte as REF.

    python tools/parity.py REF

REF is any git revision (HEAD, a branch, a sha).  The script extracts
`git archive REF` into a temporary directory, then runs one fixed set of
`python -W error -m saginsim` commands twice: with PYTHONPATH=<REF>/src
and with PYTHONPATH=<work tree>/src, each tree reading its own configs/.
Each command is a fresh process, and any warning it raises (a numpy
overflow or invalid value, say) makes it fail.  The two output roots are
sibling directories whose paths have the same length.

Every output file is compared byte for byte.  A manifest.json is compared
without its "out", "scenario_path" and "checkpoint", the absolute paths
of the run.
Each differing file is printed with its first differing line (text) or
byte offset (binary), then one summary line; the exit status is 1 on any
difference or failed command, else 0.  Only the standard library is used.
"""

import argparse
import io
import json
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]

# 16-wide nets and a 40-row replay that wraps, with updates from step 17
SMALL = ["--override", "hyper.actor_widths=16,16",
         "--override", "hyper.critic_widths=16,16",
         "--override", "hyper.replay_capacity=40",
         "--override", "hyper.warmup_steps=16",
         "--override", "hyper.batch_size=16",
         "--override", "hyper.n_policy_samples=16"]

# (output directory, argv); "{configs}" is the tree's configs/ directory,
# and every other path is relative to the output root
COMMANDS = [
    ("train", ["train", "--config", "{configs}/toy.toml", "--seed", "0,1",
               "--episodes", "3", *SMALL,
               "--override", "hyper.checkpoint_every=1"]),
    ("train-ent0", ["train", "--config", "{configs}/toy.toml", "--seed", "2",
                    "--episodes", "2", *SMALL,
                    "--override", "hyper.ent_coeff=0.0",
                    "--override", "hyper.n_denoise=4"]),
    ("eval", ["eval", "--config", "{configs}/toy.toml", "--seed", "0,2",
              "--episodes", "2",
              "--checkpoint", "train/seed0/checkpoints/final.npz"]),
    ("train-default", ["train", "--config", "{configs}/default.toml",
                       "--seed", "3", "--episodes", "1",
                       "--override", "hyper.warmup_steps=100"]),
    ("greedy", ["baseline", "--algo", "greedy",
                "--config", "{configs}/default.toml", "--episodes", "2"]),
    ("random", ["baseline", "--algo", "random",
                "--config", "{configs}/default.toml", "--seed", "0,1",
                "--episodes", "2"]),
    # the rain fades both satellite rates to 0, so offloaded tasks wait
    ("dead-link", ["baseline", "--algo", "greedy",
                   "--config", "{configs}/default.toml", "--episodes", "2",
                   "--override", "radio.rain_atten=400"]),
    # an AAV so faint that its downlink and satellite uplink carry ~0 bits
    ("faint", ["baseline", "--algo", "random",
               "--config", "{configs}/toy.toml", "--seed", "0",
               "--episodes", "2", "--override", "radio.power_aav=1e-30"]),
    ("weibull", ["baseline", "--algo", "random",
                 "--config", "{configs}/toy.toml", "--seed", "0,1",
                 "--episodes", "2",
                 "--override", 'radio.rain_model="weibull"']),
    ("sweep", ["sweep", "--grid", "max_served=1,2",
               "--config", "{configs}/toy.toml", "--episodes", "2", *SMALL]),
    ("export", ["export", "--events", "greedy/seed0/events.jsonl"]),
    ("dead-link-export", ["export",
                          "--events", "dead-link/seed0/events.jsonl"]),
]

# the run's absolute paths, which differ between the two output roots
MANIFEST_PATHS = ("out", "scenario_path", "checkpoint")


def extract(ref, dest):
    """git archive of ref, unpacked into dest; returns ref's short sha."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                          ref + "^{commit}"], check=True, capture_output=True,
                         text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def run_commands(tree, out_root):
    """Run COMMANDS with tree's package and configs, in out_root; returns
    the failures as (output directory, exit status, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    os.makedirs(out_root)
    # both sides running one installed copy would compare it with itself
    where = subprocess.run(
        [sys.executable, "-c", "import saginsim; print(saginsim.__file__)"],
        cwd=out_root, env=env, check=True, capture_output=True,
        text=True).stdout.strip()
    if pathlib.Path(where).resolve().parent \
            != (tree / "src" / "saginsim").resolve():
        sys.exit("saginsim imports from %s, not from %s" % (where, tree))
    failures = []
    for out, argv in COMMANDS:
        argv = [arg.format(configs=tree / "configs") for arg in argv]
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "saginsim", *argv,
             "--out", out]
            + (["--quiet"] if argv[0] != "export" else []),
            cwd=out_root, env=env, capture_output=True, text=True)
        if done.returncode:
            failures.append((out, done.returncode, done.stderr))
    return failures


def _manifest(data):
    manifest = json.loads(data)
    for key in MANIFEST_PATHS:
        manifest.pop(key, None)
    return json.dumps(manifest, sort_keys=True, indent=2).encode() + b"\n"


def _first(x, y):
    """Index of the first unequal item of two sequences."""
    return next((i for i, (p, q) in enumerate(zip(x, y)) if p != q),
                min(len(x), len(y)))


def first_difference(a, b):
    """Where bytes a and b first differ, counted from 1: "line N, column
    C" and the text around it on each side when both are UTF-8 text, else
    "byte N"; None when equal."""
    if a == b:
        return None
    try:
        lines_a = a.decode("utf-8").splitlines(keepends=True)
        lines_b = b.decode("utf-8").splitlines(keepends=True)
    except UnicodeDecodeError:
        return "byte %d" % (_first(a, b) + 1)
    number = _first(lines_a, lines_b)
    line_a, line_b = (lines[number] if number < len(lines) else ""
                      for lines in (lines_a, lines_b))
    column = _first(line_a, line_b)
    start = max(column - 20, 0)
    return "line %d, column %d: %r != %r" % (
        number + 1, column + 1, line_a[start:column + 30],
        line_b[start:column + 30])


def compare(ref_root, new_root):
    """(number of files compared, [(relative path, where)] of those that
    differ) for two output roots; where is first_difference's, or says
    which side lacks the file."""
    ref_root, new_root = pathlib.Path(ref_root), pathlib.Path(new_root)
    names = sorted({path.relative_to(root).as_posix()
                    for root in (ref_root, new_root)
                    for path in root.rglob("*") if path.is_file()})
    differ = []
    for name in names:
        ref, new = ref_root / name, new_root / name
        if not ref.is_file() or not new.is_file():
            differ.append((name, "only in " + ("work tree" if new.is_file()
                                               else "REF")))
            continue
        a, b = ref.read_bytes(), new.read_bytes()
        if name.endswith("manifest.json"):
            a, b = _manifest(a), _manifest(b)
        where = first_difference(a, b)
        if where:
            differ.append((name, where))
    return len(names), differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ref", help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tmp = pathlib.Path(tmp)
        sha = extract(args.ref, tmp / "ref")
        failed = []
        for tree, out_root in ((tmp / "ref", tmp / "a"), (ROOT, tmp / "b")):
            for out, status, stderr in run_commands(tree, out_root):
                failed.append(out)
                print("FAILED %s on %s: exit %d\n%s" % (
                    out, "REF" if tree != ROOT else "work tree", status,
                    stderr.rstrip()))
        count, differ = compare(tmp / "a", tmp / "b")
        for name, where in differ:
            print("DIFFERS %s: %s" % (name, where))
    print("parity %s: %d files compared, %d differ, %d commands failed"
          % (sha, count, len(differ), len(failed)))
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main())
