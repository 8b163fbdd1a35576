"""Run one saginsim command from a checkout's `src`, optionally traced.

usage: python3 perfbench/child.py ROOT [--trace SPANS RUN_ID] -- VERB ARGS...

ROOT is the checkout whose `src/saginsim` runs; no installed copy is used.
With --trace, the layers named in layers.json are wrapped (see tracer.py)
and the spans are written to SPANS when the command returns.
"""

import os
import sys


def main(argv):
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    src = os.path.join(os.path.abspath(opts[0]), "src")
    sys.path.insert(0, src)
    import saginsim.cli
    where = os.path.dirname(os.path.abspath(saginsim.__file__))
    if where != os.path.join(src, "saginsim"):
        print("saginsim imported from %s, not %s" % (where, src),
              file=sys.stderr)
        return 3
    if len(opts) == 1:
        return saginsim.cli.main(cli_args)
    if opts[1:2] != ["--trace"] or len(opts) != 4:
        print(__doc__, file=sys.stderr)
        return 3
    import tracer
    spans_path, run_id = opts[2], opts[3]
    recorder = tracer.Tracer(run_id)
    recorder.install(tracer.traced_names())
    try:
        return saginsim.cli.main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
